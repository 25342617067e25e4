"""Scene parsing and CLI behavior: errors, exit codes, determinism,
witness replay from machine reports."""
import contextlib
import io
import json
import os
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import suborbifolds.cli as cli
import suborbifolds.maps as maps
from suborbifolds.cli import main
from suborbifolds.errors import (
    NonInvariant,
    NotSubgroup,
    ParseError,
    SuborbifoldError,
    UnresolvedName,
)
from suborbifolds.groups import GroupHom, generate_group
from suborbifolds.linalg import mat, rat, vec, contains_point
from suborbifolds.scene import parse_scene, read_scene, strip_timing

from oracles import oracle_mat_vec

SCENE = {
    "groups": {
        "rot4": [[[0, -1], [1, 0]]],
    },
    "subgroups": {
        "half_turn": {"parent": "rot4", "generators": [[[-1, 0], [0, -1]]]},
        "trivial": {"parent": "rot4", "generator_indices": []},
    },
    "subspaces": {
        "x_axis": {"base": [0, 0], "basis": [[1, 0]]},
        "origin": {"base": [0, 0]},
    },
    "candidates": {
        "rotation_line": {
            "group": "rot4", "subgroup": "half_turn", "subspace": "x_axis"
        },
        "bad_line": {
            "group": "rot4", "subgroup": "trivial", "subspace": "x_axis"
        },
        "origin_point": {"group": "rot4", "subspace": "origin"},
    },
    "maps": {
        "identity": {
            "domain": "rot4", "codomain": "rot4",
            "matrix": [[1, 0], [0, 1]], "offset": [0, 0],
            "theta": [[0, 0], [1, 1], [2, 2], [3, 3]],
        }
    },
    "probes": {
        "line_probe": {
            "group": "rot4", "subgroup": "half_turn", "subspace": "x_axis",
            "pairs": [[["1/2", 0], [-1, 0]], [[0, 0], [3, 0]]],
        }
    },
}


@pytest.fixture
def scene_path(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(SCENE))
    return str(p)


def test_parse_scene_builds_objects():
    scene = parse_scene(json.dumps(SCENE))
    assert scene.groups["rot4"].order == 4
    assert scene.subgroups["half_turn"].order == 2
    assert scene.subgroups["trivial"].order == 1
    assert scene.candidates["rotation_line"].v.dim == 1
    assert scene.candidates["origin_point"].delta.order == 4
    assert len(scene.probes["line_probe"].sample_pairs) == 2
    # a key that names no section, such as the former "queries", is ignored
    queries = [{"command": "classify", "candidate": "rotation_line"}]
    assert list(parse_scene(json.dumps(dict(SCENE, queries=queries))).probes) == ["line_probe"]
    # rationals round-trip exactly
    x, _ = scene.probes["line_probe"].sample_pairs[0]
    assert x == vec(["1/2", 0])


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_scene("{not json")
    assert "line" in str(err.value)


def test_parse_error_on_malformed_entry():
    bad = {"groups": {"g": [[[1, 0], [0, 1]]]},
           "subspaces": {"v": {"basis": [[1, 0]]}}}  # missing base
    with pytest.raises(ParseError):
        parse_scene(json.dumps(bad))
    rot4 = {"rot4": [[[0, -1], [1, 0]]]}

    def subgroup(indices):
        return {"groups": rot4,
                "subgroups": {"s": {"parent": "rot4", "generator_indices": indices}}}

    def identity_map(theta):
        return {"groups": rot4,
                "maps": {"f": {"domain": "rot4", "codomain": "rot4",
                               "matrix": [[1, 0], [0, 1]], "offset": [0, 0],
                               "theta": theta}}}

    for bad in ({"groups": []},                      # a section that is not an object
                {"groups": {"g": []}},               # a group without generators
                {"groups": {"g": [[["1/0"]]]}},      # an unreadable rational
                subgroup([99]),                      # element indices out of range
                subgroup([-1]),
                identity_map([[0, 0], [1, 1], [2, 2], [3, 7]]),  # theta image out of range
                identity_map([[0.0, 0], [1, 1], [2, 2], [3, 3]]),  # a non-integer index
                identity_map([[0], [1, 0, 3]])):     # theta pairs of the wrong length
        with pytest.raises(ParseError):
            parse_scene(json.dumps(bad))
    # A string where a vector or a matrix row belongs was read as the list of
    # its characters: "10" as the x-axis, ["01", "10"] as the swap matrix; an
    # object as the list of its keys, so {} as an empty basis or generator list.
    def a_map(matrix, offset):
        return {"groups": rot4,
                "maps": {"f": {"domain": "rot4", "codomain": "rot4", "matrix": matrix,
                               "offset": offset, "theta": [[i, i] for i in range(4)]}}}

    for bad, expected in (
            ({"groups": rot4, "subspaces": {"v": {"base": [0, 0], "basis": ["10"]}}},
             "a vector as a list, got the string '10'"),
            ({"groups": rot4, "subspaces": {"v": {"base": "12"}}},
             "a vector as a list, got the string '12'"),
            ({"groups": {"g": [["01", "10"]]}}, "a matrix row as a list, got the string '01'"),
            ({"groups": {"g": [[[1, 0], "-10"]]}}, "a matrix row as a list, got the string '-10'"),
            ({"groups": {"g": ["10"]}}, "a matrix as a list, got the string '10'"),
            (a_map(["10", "01"], [0, 0]), "a matrix row as a list, got the string '10'"),
            (a_map([[1, 0], [0, 1]], "00"), "a vector as a list, got the string '00'"),
            ({"groups": rot4, "subspaces": {"v": {"base": [0, 0], "basis": {}}}},
             "scene section 'subspaces': entry 'v': expected a basis as a list, got {}"),
            ({"groups": rot4, "subspaces": {"v": {"base": 5}}}, "a vector as a list, got 5"),
            ({"groups": rot4, "subgroups": {"s": {"parent": "rot4", "generators": {}}}},
             "scene section 'subgroups': entry 's': expected the generators as a list, got {}"),
            ({"groups": rot4, "subgroups": {"s": {"parent": "rot4", "generator_indices": {}}}},
             "expected the generator indices as a list, got {}"),
            ({"groups": {"g": {}}}, "scene section 'groups': entry 'g': expected the generators"),
            ({"groups": rot4, "subgroups": {"s": {"parent": ["rot4"], "generators": []}}},
             "expected the name of a group, got ['rot4']")):
        with pytest.raises(ParseError, match=re.escape(expected)):
            parse_scene(json.dumps(bad))
    # a probe pair of three points (exited 3 as a ValueError from unpacking)
    probe = json.loads(json.dumps(SCENE))
    probe["probes"]["line_probe"]["pairs"] = [[[1, 0], [0, 0], [0, 0]]]
    with pytest.raises(ParseError, match=re.escape(
            "scene section 'probes': entry 'line_probe': pairs must list [x, y] point pairs")):
        parse_scene(json.dumps(probe))
    outside = {"groups": rot4,                      # a generator outside the group
               "subgroups": {"s": {"parent": "rot4", "generators": [[[2, 0], [0, 1]]]}}}
    with pytest.raises(NotSubgroup) as err:
        parse_scene(json.dumps(outside))
    assert "'s'" in str(err.value) and "Fraction(" not in str(err.value)


@pytest.mark.parametrize("value", ["1e400", "2E3", True, "1_0", "1_0/3"])
def test_exponents_and_booleans_are_not_rationals(scene_path, tmp_path, value, capsys):
    # Fraction would expand an exponent digit by digit, JSON true is an int,
    # and Fraction reads "1_0" as 10 from Python 3.11 but refuses it before.
    with pytest.raises(ParseError):
        rat(value)
    scene = json.loads(json.dumps(SCENE))
    scene["subspaces"]["x_axis"]["base"] = [value, 0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scene))
    assert main(["classify", "--scene", str(path)]) == 2
    assert f"cannot read {value!r} as a rational" in capsys.readouterr().err
    point = "true" if value is True else value
    assert main(["isotropy", "--scene", scene_path, "--group", "rot4",
                 "--point", f"{point},0"]) == 2
    assert f"cannot read {point!r} as a rational" in capsys.readouterr().err


def test_a_string_for_a_vector_or_a_matrix_row_exits_2(tmp_path, capsys):
    # Both commands exited 0: "10" read as the x-axis, ["01", "10"] as a swap.
    scene = json.loads(json.dumps(SCENE))
    scene["subspaces"]["x_axis"]["basis"] = ["10"]
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(scene))
    assert main(["classify", "--scene", str(path)]) == 2
    assert "got the string '10'" in capsys.readouterr().err
    scene = json.loads(json.dumps(SCENE))
    scene["groups"]["swap"] = [["01", "10"]]
    path.write_text(json.dumps(scene))
    assert main(["isotropy", "--scene", str(path), "--group", "swap", "--point", "0,0"]) == 2
    assert "got the string '01'" in capsys.readouterr().err


def test_unresolved_name():
    bad = {"groups": {}, "subgroups": {"s": {"parent": "nope",
                                             "generator_indices": []}}}
    with pytest.raises(UnresolvedName):
        parse_scene(json.dumps(bad))


def test_theta_must_cover_domain():
    bad = {
        "groups": {"a": [[[-1]]], "b": [[[1]]]},
        "maps": {"f": {"domain": "a", "codomain": "b",
                       "matrix": [[0]], "offset": [0],
                       "theta": [[0, 0]]}},
    }
    with pytest.raises(ParseError):
        parse_scene(json.dumps(bad))


def test_theta_lists_each_element_once():
    with open(MAPS_SCENE, encoding="utf-8") as fh:
        scene = json.load(fh)
    # the last pair for a repeated element used to win, and the map failed
    # later as "not a homomorphism"
    scene["maps"]["rot4_identity"]["theta"] = [[0, 0], [0, 1], [1, 1], [2, 2], [3, 3]]
    with pytest.raises(ParseError, match="scene section 'maps': entry 'rot4_identity': "
                                         "theta lists element 0 twice"):
        parse_scene(json.dumps(scene))


def test_cli_classify_exit_codes(scene_path, capsys):
    assert main(["classify", "--scene", scene_path,
                 "--candidate", "rotation_line"]) == 0
    out = capsys.readouterr().out
    assert "saturated: yes" in out and "full: no" in out

    assert main(["classify", "--scene", scene_path,
                 "--candidate", "missing"]) == 2
    # an empty name is looked up like any other (it classified every candidate)
    assert main(["classify", "--scene", scene_path, "--candidate", ""]) == 2
    assert "unknown candidate ''" in capsys.readouterr().err
    assert main(["classify", "--scene", "/does/not/exist.json"]) == 2
    # unreadable rationals are input errors, wherever they appear
    for point in ("1/0", "abc", "0,1/0"):
        assert main(["isotropy", "--scene", scene_path,
                     "--candidate", "rotation_line", "--point", point]) == 2
    assert main(["classify", "--scene", scene_path, "--candidate", "rotation_line",
                 "--isotropy-point", "1/0,0"]) == 2
    assert main(["preimage", "--scene", scene_path, "--map", "identity",
                 "--value", "0,0"]) == 0
    assert main(["preimage", "--scene", scene_path, "--map", "identity",
                 "--value", "1/0,0"]) == 2
    err = capsys.readouterr().err
    assert "cannot read '1/0' as a rational" in err
    assert "Traceback" not in err


def test_cli_corpus_ok(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out
    assert main(["corpus", "--filter", "rotation-line"]) == 0
    out = capsys.readouterr().out
    assert "[rotation-line] PASS" in out and "1 cases, 0 mismatches" in out


def test_cli_corpus_filter_matching_no_case_exits_2(capsys):
    # A filter that selects nothing is an input error, not a vacuous pass.
    assert main(["corpus", "--filter", "zzz", "--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no corpus case matches filter 'zzz'" in captured.err
    # The empty filter is a substring of every name, so it selects them all.
    assert main(["corpus", "--filter", "", "--format", "machine"]) == 0
    everything = json.loads(capsys.readouterr().out)
    assert main(["corpus", "--format", "machine"]) == 0
    assert everything["ok"] and everything["results"]
    assert everything["results"].keys() == json.loads(capsys.readouterr().out)["results"].keys()


def test_cli_classify_of_a_scene_without_candidates_exits_2(tmp_path, capsys):
    # It printed "results": {} and exited 0, having checked nothing.
    path = tmp_path / "group_only.json"
    path.write_text(json.dumps({"groups": SCENE["groups"]}))
    assert main(["classify", "--scene", str(path), "--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the scene has no candidates to classify\n"


@pytest.mark.parametrize("scene", ["group_only", "maps.json"])
def test_cli_metric_check_of_a_scene_without_probes_exits_2(scene, tmp_path, capsys):
    # Each printed "results": {} and exited 0, having checked nothing.
    if scene == "maps.json":
        path = MAPS_SCENE
    else:
        path = tmp_path / "group_only.json"
        path.write_text(json.dumps({"groups": SCENE["groups"]}))
    assert main(["metric-check", "--scene", str(path), "--format", "machine"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the scene has no metric probes to check\n"


@pytest.mark.parametrize("argv", [
    ["corpus", "--parallel", "4"],
    ["corpus", "--scene", "scenes/rotation_line.json"],
    ["graph", "--map", "identity", "--depth", "3"],
    ["classify", "--tol", "1e-3"],
])
def test_cli_flags_scoped_to_their_commands(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_subject_options_are_exclusive_and_required(capsys):
    # isotropy takes --candidate or --group, preimage --target or --value;
    # given both, one of them was silently dropped
    maps = ["--scene", MAPS_SCENE]
    for argv, message in (
        (["isotropy", "--candidate", "rotation_line", "--group", "rot4", "--point", "1,0"],
         "argument --group: not allowed with argument --candidate"),
        (["isotropy", "--point", "1,0"],
         "one of the arguments --candidate --group is required"),
        (["preimage", "--map", "plane_into_rot4", "--value", "1,0", "--target", "line_origin"],
         "argument --target: not allowed with argument --value"),
        (["preimage", "--map", "rot4_identity"],
         "one of the arguments --target --value is required"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + maps)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_metric_check(scene_path, capsys):
    assert main(["metric-check"]) == 0
    # an empty probe name is unknown (it ran every probe)
    assert main(["metric-check", "--probe", ""]) == 2
    assert main(["metric-check", "--scene", scene_path, "--probe", ""]) == 2
    assert capsys.readouterr().err.count("unknown probe ''") == 2
    assert main(["metric-check", "--depth", "4", "--tol", "1e-30"]) == 1
    # negative or NaN settings are input errors, not failed checks
    assert main(["metric-check", "--depth", "-1"]) == 2
    assert main(["metric-check", "--tol", "nan"]) == 2
    assert main(["metric-check", "--tol=-1e-9"]) == 2


def test_cli_corpus_prints_each_mismatch(monkeypatch, capsys):
    # The text lines come from the report's mismatches, the machine report's
    # results are the report's own.
    corpus = sys.modules["suborbifolds.corpus"]
    case = corpus.CASES[0]
    flipped = corpus.CorpusCase(case.name, case.build, {**case.expected, "full": True},
                                case.search_all_delta, case.checks)
    run_corpus = corpus.run_corpus
    monkeypatch.setattr(corpus, "run_corpus", lambda name_filter=None: run_corpus(
        name_filter, cases=(flipped,) + corpus.CASES[1:]))
    assert main(["corpus", "--filter", "rotation"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["[rotation-line] FAIL", "  full: expected True, observed False",
                         "[point-in-rotation-chart] PASS", "[open-rotation-chart] PASS"]
    assert lines[4].startswith("3 cases, 1 mismatches (")
    assert main(["corpus", "--filter", "rotation", "--format", "machine"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False and sorted(payload["results"]) == [
        "open-rotation-chart", "point-in-rotation-chart", "rotation-line"]
    assert payload["results"]["rotation-line"] == {
        "expected": dict(flipped.expected), "observed": dict(case.observe()), "passed": False}


def test_cli_unexpected_exception_exits_3(scene_path, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    assert main(["classify", "--scene", scene_path]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


def test_cli_builds_its_parser_once(scene_path, monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or real())
    cli._parser.cache_clear()
    try:
        for argv in (["classify", "--scene", scene_path], ["corpus", "--filter", "rotation"],
                     ["classify", "--scene", scene_path, "--candidate", "rotation_line"]):
            assert main(argv) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_machine_report_deterministic(scene_path, capsys):
    outputs = []
    for _ in range(2):
        assert main(["classify", "--scene", scene_path,
                     "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        outputs.append(json.dumps(strip_timing(payload), sort_keys=True))
    assert outputs[0] == outputs[1]


def test_machine_witness_replays(scene_path, capsys):
    assert main(["classify", "--scene", scene_path,
                 "--candidate", "rotation_line", "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["results"]["rotation_line"]["classification"]
    witness = result["full"]["witness"]
    m = mat([[rat(x) for x in row] for row in witness["element_matrix"]])
    p = vec([rat(x) for x in witness["point"]])
    # the reported element really fixes the reported point of the subspace
    assert oracle_mat_vec(m, p) == p
    sub = payload["results"]["rotation_line"]["candidate"]["subspace"]
    from suborbifolds.linalg import affine_subspace

    v = affine_subspace([rat(x) for x in sub["base"]],
                        [[rat(x) for x in b] for b in sub["basis"]])
    assert contains_point(v, p)
    assert witness["element_index"] not in (
        payload["results"]["rotation_line"]["candidate"]["delta"]
        ["member_indices"]
    )


def test_machine_saturation_witness_replays(scene_path, capsys):
    assert main(["classify", "--scene", scene_path,
                 "--candidate", "bad_line", "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["results"]["bad_line"]["classification"]
    assert result["saturated"]["holds"] is False
    witness = result["saturated"]["witness"]
    m = mat([[rat(x) for x in row] for row in witness["element_matrix"]])
    p = vec([rat(x) for x in witness["point"]])
    # gx lies in the subspace but differs from hx for the only h available
    gx = oracle_mat_vec(m, p)
    assert gx != p


def test_cli_isotropy(scene_path, capsys):
    assert main(["isotropy", "--scene", scene_path,
                 "--candidate", "rotation_line", "--point", "0,0"]) == 0
    assert "order 2" in capsys.readouterr().out
    assert main(["isotropy", "--scene", scene_path,
                 "--group", "rot4", "--point", "1,0"]) == 0
    assert "order 1" in capsys.readouterr().out
    # a point off the subspace is an input error, printed as rationals
    assert main(["isotropy", "--scene", scene_path,
                 "--candidate", "rotation_line", "--point", "0,1/2"]) == 2
    err = capsys.readouterr().err
    assert "error: [0, 1/2] is not in the candidate subspace" in err


ROTATION_SCENE = os.path.join(os.path.dirname(__file__), "..", "scenes", "rotation_line.json")


def _classify_results(argv, capsys):
    code = main(["classify", "--scene", ROTATION_SCENE, "--format", "machine"] + argv)
    out, err = capsys.readouterr()
    return code, (json.loads(out)["results"] if code == 0 else err)


def test_cli_isotropy_points_go_to_the_candidates_that_hold_them(capsys):
    # (-1, 0) is on rotation_line's x-axis only, (1, 1) on the diagonal only
    code, results = _classify_results(["--isotropy-point", "-1,0",
                                       "--isotropy-point", "1,1"], capsys)
    assert code == 0
    for name, point in (("rotation_line", "-1,0"), ("diagonal_half_turn", "1,1")):
        alone = _classify_results(["--candidate", name, "--isotropy-point", point], capsys)
        assert alone == (0, {name: results[name]})
    # a point on both candidates goes to both
    code, results = _classify_results(["--isotropy-point", "0,0"], capsys)
    assert code == 0 and all(len(r["classification"]["isotropy"]) == 1
                             for r in results.values())
    # a point on no candidate, or named with one that does not hold it, exits 2
    for argv in (["--isotropy-point", "5,-7"],
                 ["--candidate", "diagonal_half_turn", "--isotropy-point", "-1,0"]):
        code, err = _classify_results(argv, capsys)
        assert code == 2 and "is not in the candidate subspace" in err


def test_cli_isotropy_point_off_an_unsaturated_candidate(scene_path, capsys):
    # bad_line (the x-axis with the trivial group) is not saturated; a point
    # off its axis is still an input error, checked before any verdict
    argv = ["classify", "--scene", scene_path, "--candidate", "bad_line"]
    assert main(argv + ["--isotropy-point", "1,0"]) == 0
    assert "saturated: no" in capsys.readouterr().out
    assert main(argv + ["--isotropy-point", "0,1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: [0, 1] is not in the candidate subspace" in err


@pytest.mark.parametrize("value", ["0", "-5", "10001", "abc"])
def test_cli_max_order_is_bounded_at_parse_time(value, capsys):
    # refused before the scene is read: the file does not exist
    for command in (["classify"], ["isotropy", "--group", "G", "--point", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--scene", "/does/not/exist.json", "--max-order", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-order: expected an integer in 1..10000, got '{value}'" in err
        assert "cannot read scene file" not in err


def test_cli_max_order_bounds_the_scene_groups(scene_path, capsys):
    assert main(["classify", "--scene", scene_path, "--max-order", "4"]) == 0
    assert main(["classify", "--scene", scene_path, "--max-order", "3"]) == 2
    assert "group closure exceeded max_order=3" in capsys.readouterr().err


def test_cli_max_order_bounds_the_corpus_probe_groups(capsys):
    # Without --scene the probes read the corpus charts, whose groups (order
    # 4) are bounded as a scene's are, before any distance: first on an
    # empty table of kept groups, then with the groups kept.
    assert main(["metric-check", "--max-order", "3"]) == 2
    cold = capsys.readouterr()
    assert main(["metric-check", "--max-order", "4"]) == 0
    capsys.readouterr()
    assert main(["metric-check", "--max-order", "3"]) == 2
    warm = capsys.readouterr()
    assert cold.out == warm.out == ""
    assert cold.err == warm.err == "error: group closure exceeded max_order=3\n"


def test_cli_refuses_a_scene_group_of_infinite_order_at_once(tmp_path, capsys):
    # diag(1000, 1, 1, 1, 1) has trace 1004 > 5, so it cannot have finite
    # order; its orbit of the basis was walked to 5 * 10000 points first.
    big = [[1000 if i == j == 0 else int(i == j) for j in range(5)] for i in range(5)]
    scene = {"groups": {"big": [big]}, "subspaces": {"origin": {"base": [0] * 5}},
             "candidates": {"point": {"group": "big", "subspace": "origin"}}}
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(scene))
    assert main(["classify", "--scene", str(path)]) == 2
    assert capsys.readouterr().err == ("error: scene section 'groups': entry 'big': "
                                       "group closure exceeded max_order=10000\n")


MAPS_SCENE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scenes", "maps.json")


def test_cli_max_order_bounds_the_product_groups(tmp_path, monkeypatch, capsys):
    import suborbifolds.maps as maps

    graph = ["graph", "--scene", MAPS_SCENE, "--map", "rot4_identity"]
    assert main(graph + ["--max-order", "16"]) == 0
    capsys.readouterr()
    # rot4 x rot4 has order 16; the bound is checked before the product is built
    with monkeypatch.context() as patch:
        patch.setattr(maps, "group_from_forms", None)
        assert main(graph + ["--max-order", "4"]) == 2
    assert capsys.readouterr().err == "error: product group of order 16 exceeds max_order=4\n"
    # the fibered product of two maps out of y_flip (order 2) builds an order-4 group
    with open(MAPS_SCENE) as fh:
        scene = json.load(fh)
    for section in ("groups", "subgroups", "candidates", "maps"):
        scene[section] = {k: v for k, v in scene[section].items() if "rot4" not in json.dumps(v)
                          and "rot4" not in k}
    path = tmp_path / "flips.json"
    path.write_text(json.dumps(scene))
    fibered = ["fibered-product", "--scene", str(path),
               "--left-map", "flip_onto_line", "--right-map", "flip_onto_line"]
    assert main(fibered + ["--max-order", "4"]) == 0
    capsys.readouterr()
    assert main(fibered + ["--max-order", "3"]) == 2
    assert capsys.readouterr().err == "error: product group of order 4 exceeds max_order=3\n"


def test_cli_subgroup_generator_outside_the_group(tmp_path, capsys):
    # a half is not an entry of any rot4 element, nor is a 3 x 3 matrix one
    for generator in ([["1/2", 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        scene = json.loads(json.dumps(SCENE))
        scene["subgroups"]["half_turn"]["generators"] = [generator]
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(scene))
        assert main(["classify", "--scene", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scene section 'subgroups': entry 'half_turn': "
                              "matrix [") and err.endswith(
            "] is not in the group\n")


def test_cli_no_complement_certificate_counts_sections(tmp_path, capsys):
    # The realified order-4 action on C^2 squares to -1 on the first complex
    # axis, which fixes the second one pointwise; that kernel of order 2 has
    # no complement in Z4, and each of the 2 sections generates all of Z4.
    scene = {
        "groups": {"z4": [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]]},
        "subspaces": {"axis": {"base": [0, 0, 0, 0], "basis": [[0, 0, 1, 0], [0, 0, 0, 1]]}},
        "candidates": {"axis": {"group": "z4", "subspace": "axis"}},
    }
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(scene))
    assert main(["classify", "--scene", str(path), "--format", "machine"]) == 0
    embedded = json.loads(capsys.readouterr().out)["results"]["axis"]["classification"]["embedded"]
    assert not embedded["holds"]
    assert embedded["no_complement_certificate"] == {
        "group_order": 4, "kernel_order": 2, "sections_checked": 2}


POINT_OPTION_CASES = [
    (["isotropy", "--group", "rot4"], "--point", 0),
    (["isotropy", "--candidate", "rotation_line"], "--point", 0),
    (["classify", "--candidate", "rotation_line"], "--isotropy-point", 0),
    # read as a value, then refused: rot4 moves it
    (["preimage", "--map", "identity"], "--value", 2),
]


@pytest.mark.parametrize("command,option,code", POINT_OPTION_CASES)
def test_cli_point_options_accept_a_leading_minus(scene_path, command, option, code, capsys):
    argv = command + ["--scene", scene_path, "--format", "machine"]
    for value in ("-1,0", "-1/2,0"):
        assert main(argv + [option, value]) == code
        separate = capsys.readouterr()
        assert main(argv + [f"{option}={value}"]) == code
        assert capsys.readouterr() == separate
    # a point of the wrong length names both lengths
    for value, got in (("-1", 1), ("1,0,0", 3)):
        assert main(argv + [option, value]) == 2
        err = capsys.readouterr().err
        assert f"expected a point with 2 coordinates, got {got}" in err


def test_cli_point_option_from_the_command_line(scene_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["suborb", "isotropy", "--scene", scene_path,
                                     "--group", "rot4", "--point", "-1,0"])
    assert main() == 0
    assert "at [-1, 0]: order 1" in capsys.readouterr().out
    # a missing value is still argparse's error, not a rational to parse
    with pytest.raises(SystemExit) as exc:
        main(["isotropy", "--scene", scene_path, "--group", "rot4", "--point"])
    assert exc.value.code == 2


def test_cli_report_file(scene_path, tmp_path, capsys):
    report = tmp_path / "out.json"
    assert main(["classify", "--scene", scene_path, "--format", "machine",
                 "--report", str(report)]) == 0
    on_disk = report.read_text()
    assert on_disk == capsys.readouterr().out
    json.loads(on_disk)


@pytest.mark.parametrize("case, message", [
    pytest.param("report", "error: cannot write report file: ", id="report_in_missing_dir"),
    pytest.param("bytes", "error: cannot read scene file: ", id="scene_not_utf8"),
    pytest.param("nested", "error: invalid scene JSON: ", id="scene_nested_too_deep"),
    pytest.param("empty_report", "error: cannot write report file: ", id="report_empty_path"),
    pytest.param("empty_scene", "error: cannot read scene file: ", id="metric_scene_empty_path"),
    pytest.param("empty_pairs", "error: scene section 'probes': entry 'rotation_line': ",
                 id="metric_probe_without_pairs"),
])
def test_cli_input_errors_exit_2(case, message, tmp_path, capsys):
    # each exited 3 as an internal error, and a report that cannot be written
    # was printed before the failure; an empty path was taken as no path and
    # exited 0, and so did a probe without pairs, which checked nothing
    argv = ["classify", "--scene", ROTATION_SCENE]
    if case == "report":
        argv += ["--report", str(tmp_path / "missing" / "r.json")]
    elif case == "empty_report":
        argv += ["--report", ""]
    elif case == "empty_scene":
        argv = ["metric-check", "--scene", ""]
    elif case == "empty_pairs":
        with open(ROTATION_SCENE, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["probes"]["rotation_line"]["pairs"] = []
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(raw))
        argv = ["metric-check", "--scene", str(scene)]
    else:
        scene = tmp_path / "scene.json"
        scene.write_bytes(b"\xff\xfe{}" if case == "bytes" else b"[" * 100000)
        argv[2] = str(scene)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and "internal" not in captured.err


def test_cli_off_subspace_probe_pair_names_rationals(tmp_path, capsys):
    # The pairs were printed as tuples of Fraction reprs.
    with open(ROTATION_SCENE, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["probes"]["rotation_line"]["subspace"] = "diagonal"
    path = tmp_path / "probe.json"
    for pairs, named in (([[[1, 0], [-2, 0]]], "[1, 0], [-2, 0]"),
                         ([[[0, 0], ["1/2", 0]]], "[0, 0], [1/2, 0]")):
        raw["probes"]["rotation_line"]["pairs"] = pairs
        path.write_text(json.dumps(raw))
        assert main(["metric-check", "--scene", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: scene section 'probes': entry 'rotation_line': "
                       f"sample pair {named} leaves the subspace\n")


def test_cli_metric_check_scene_probe(scene_path, capsys):
    assert main(["metric-check", "--scene", scene_path,
                 "--probe", "line_probe"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_image_rejection_names_a_replayable_witness(tmp_path, capsys):
    # A line with the trivial group mapped onto the x-axis of the rot4 chart:
    # the half turn identifies x with -x, which the trivial group does not.
    rot4 = [[[0, -1], [1, 0]]]
    scene = {
        "groups": {"t1": [[[1]]], "rot4": rot4},
        "subspaces": {"line": {"base": [0], "basis": [[1]]}},
        "candidates": {"t_line": {"group": "t1", "subspace": "line"}},
        "maps": {"onto_x": {"domain": "t1", "codomain": "rot4",
                            "matrix": [[1], [0]], "offset": [0, 0],
                            "theta": [[0, 3]]}},
    }
    path = tmp_path / "image.json"
    path.write_text(json.dumps(scene))
    assert main(["image", "--scene", str(path), "--map", "onto_x",
                 "--candidate", "t_line", "--format", "machine"]) == 2
    err = capsys.readouterr().err
    found = re.search(r"element (\d+) moves the image point \[([^\]]*)\]", err)
    assert err.startswith("error: map identifies distinct orbits") and found
    g = generate_group([mat(m) for m in rot4])
    x = vec([rat(c.strip()) for c in found.group(2).split(",")])
    gx = oracle_mat_vec(g.elements[int(found.group(1))].matrix, x)
    # x and gx lie on the x-axis, and theta's only image (the identity) fixes x
    assert x[1] == 0 and gx[1] == 0 and gx != x


def test_cli_image_rejects_an_unsaturated_candidate(capsys):
    # The x-axis under the trivial subgroup of rot4: the half turn maps the
    # axis onto itself, and no element of the subgroup matches it.
    assert main(["image", "--scene", MAPS_SCENE, "--map", "rot4_identity",
                 "--candidate", "unsaturated_x_axis"]) == 2
    assert capsys.readouterr().err.startswith("error: candidate is not saturated")


def test_cli_text_writes_points_as_rationals(scene_path, capsys):
    # Witness and isotropy points were printed as lists of strings, such as
    # ['1/2', '0'], while every error message wrote [1/2, 0].
    assert main(["classify", "--scene", ROTATION_SCENE, "--candidate", "rotation_line",
                 "--isotropy-point", "1/2,0"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "  fullness witness: element 1 at [0, 0]",
        "  isotropy at [1/2, 0]: order 1, element orders [1], abelian"]
    assert main(["classify", "--scene", scene_path, "--candidate", "bad_line"]) == 0
    witness = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"  saturation witness: element \d+ at \[-?\d+(/\d+)?, 0\]", witness)
    assert main(["isotropy", "--scene", ROTATION_SCENE, "--group", "rot4",
                 "--point", "1/2,0"]) == 0
    assert capsys.readouterr().out == (
        "isotropy of group rot4 at [1/2, 0]: order 1, element orders [1], abelian\n")


def _refusal(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    return code, err


def test_cli_refusals_name_their_input(scene_path, tmp_path, capsys):
    assert _refusal(["classify"], capsys) == (2, "error: this command requires --scene\n")
    path = tmp_path / "refused.json"
    path.write_text("[]")
    assert _refusal(["classify", "--scene", str(path)], capsys) == (
        2, "error: scene must be a JSON object\n")
    # theta sends the half turn (element 0) to itself and the quarter turns to
    # the identity (element 3): theta(1) theta(1) = 3, but theta(1 1) = theta(0) = 0.
    raw = dict(SCENE, maps={"M": dict(SCENE["maps"]["identity"],
                                      theta=[[0, 0], [1, 3], [2, 3], [3, 3]])})
    path.write_text(json.dumps(raw))
    assert _refusal(["graph", "--scene", str(path), "--map", "M"], capsys) == (
        2, "error: scene section 'maps': entry 'M': theta is not a homomorphism\n")
    # the x-axis under the half turn is saturated, but a quarter turn fixes
    # the origin on it
    assert _refusal(["preimage", "--scene", scene_path, "--map", "identity",
                     "--target", "rotation_line"], capsys) == (
        2, "error: preimage requires a full target candidate\n")
    raw = dict(SCENE, subspaces=dict(SCENE["subspaces"], point={"base": [1, 0]}),
               candidates={"point": {"group": "rot4", "subgroup": "trivial",
                                     "subspace": "point"}})
    path.write_text(json.dumps(raw))
    assert _refusal(["preimage", "--scene", str(path), "--map", "identity",
                     "--target", "point"], capsys) == (
        2, "error: preimage requires the target candidate to use the whole chart group\n")


def test_cli_an_image_theta_that_is_not_injective_is_a_package_fault(monkeypatch, capsys):
    # An immersion's theta is injective (theta(g) = e gives A g = A, so g = I);
    # were it not, the package would be at fault, not the scene.
    monkeypatch.setattr(GroupHom, "is_injective", lambda self: False)
    assert _refusal(["image", "--scene", MAPS_SCENE, "--map", "rot4_identity",
                     "--candidate", "rotation_line"], capsys) == (
        3, "internal invariant violation: an immersion's theta must be injective\n")


def test_cli_a_preimage_that_is_not_invariant_is_a_package_fault(scene_path, monkeypatch,
                                                                 capsys):
    # A localized full target is Gamma_2-invariant and f is equivariant, so
    # its preimage is invariant; were it not, the package would be at fault.
    def not_invariant(*args):
        raise NonInvariant("subspace is not invariant")

    monkeypatch.setattr(maps, "SuborbifoldCandidate", not_invariant)
    assert _refusal(["preimage", "--scene", scene_path, "--map", "identity",
                     "--target", "origin_point"], capsys) == (
        3, "internal invariant violation: the preimage of an invariant subspace "
           "must be invariant\n")


def test_cli_an_induced_centroid_that_is_not_fixed_is_a_package_fault(monkeypatch, capsys):
    # The centroid of the orbit of V's base point is fixed by Delta, as each
    # element only reorders the orbit; were it not, the package would be at
    # fault. A point off the origin stands in for the centroid here, and the
    # half turn moves it.
    # (suborbifolds.classify is the classify function, so the module is
    # looked up by name.)
    monkeypatch.setattr(sys.modules["suborbifolds.classify"], "lowest_terms",
                        lambda den, total: (1, (1, 0)))
    assert _refusal(["isotropy", "--scene", MAPS_SCENE, "--candidate", "rotation_line",
                     "--point", "1,0"], capsys) == (
        3, "internal invariant violation: the centroid of a Delta-orbit in V is not fixed "
           "by Delta\n")


def test_cli_an_unsaturated_candidate_is_refused_with_its_witness(capsys, tmp_path):
    # The witness reads as in the classify text, with no Python repr.
    refused = (2, "error: candidate is not saturated (witness: element 0 at [-1, 0])\n")
    assert _refusal(["image", "--scene", MAPS_SCENE, "--map", "rot4_identity",
                     "--candidate", "unsaturated_x_axis"], capsys) == refused
    assert _refusal(["isotropy", "--scene", MAPS_SCENE, "--candidate", "unsaturated_x_axis",
                     "--point", "1,0"], capsys) == refused
    # metric-check refused without the witness: "metric lemma requires a
    # saturated candidate"
    with open(MAPS_SCENE, encoding="utf-8") as fh:
        scene = json.load(fh)
    scene["probes"] = {"unsaturated": {"group": "rot4", "subgroup": "rot4_trivial",
                                       "subspace": "x_axis", "pairs": [[[1, 0], [2, 0]]]}}
    probed = tmp_path / "unsaturated_probe.json"
    probed.write_text(json.dumps(scene), encoding="utf-8")
    assert _refusal(["metric-check", "--scene", str(probed)], capsys) == refused
    assert main(["classify", "--scene", MAPS_SCENE, "--candidate", "unsaturated_x_axis"]) == 0
    assert "  saturation witness: element 0 at [-1, 0]\n" in capsys.readouterr().out


def test_cli_intersect_refuses_a_candidate_that_is_not_full(capsys):
    # rotation_line is saturated, but the quarter turns fix the origin on it
    assert _refusal(["intersect", "--scene", MAPS_SCENE, "--left", "rotation_line",
                     "--right", "rotation_line"], capsys) == (
        2, "error: transversality is defined for full candidates\n")


ENTRY = st.sampled_from([0, "1/2", "-1/2", 1, -1, 2, -2])


def _square(n):
    return st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)


GENERATOR_LISTS = st.one_of(
    # same-size square matrices: finite, infinite-order or singular
    st.integers(1, 3).flatmap(lambda n: st.lists(_square(n), min_size=1, max_size=3)),
    # signed permutations: finite groups, so the whole pipeline runs
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.permutations(range(n)).flatmap(lambda perm: st.lists(
            st.sampled_from([1, -1]), min_size=n, max_size=n).map(
            lambda signs: [[signs[i] if perm[i] == j else 0 for j in range(n)]
                           for i in range(n)])),
        min_size=1, max_size=3)),
    # ragged, non-square, empty and mixed-size matrices
    st.lists(st.one_of(
        st.just([]),
        st.lists(st.lists(ENTRY, max_size=3), max_size=3),
        st.integers(1, 3).flatmap(_square),
    ), min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(GENERATOR_LISTS)
def test_scene_fuzz_group_generators(generators):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        with open(path, "w") as fh:
            json.dump({"groups": {"G": generators}}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["classify", "--scene", path, "--max-order", "64"])
    assert rc in (0, 2), err.getvalue()
    assert "internal" not in err.getvalue()


with open(MAPS_SCENE, encoding="utf-8") as _fh:
    MAPS_RAW = json.load(_fh)


def _paths(node, path):
    """The path to node and to every value inside it."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


# Every place in the sections after the groups: subgroups, subspaces,
# candidates and maps, each section itself included.
MAPS_PATHS = [p for section in ("subgroups", "subspaces", "candidates", "maps")
              for p in _paths(MAPS_RAW[section], (section,))]
# Wrong types, unknown names, out-of-range indices and ill-shaped values.
REPLACEMENTS = st.sampled_from([
    None, True, 1.5, "nope", "1/0", -1, 4, 99, {}, [], [[]], [0], [[0, 0]],
    [[0, 99], [1, 1]], [[1, 0, 0], [0, 1, 0]], ["rot4"], {"command": "graph"},
])
MUTATIONS = st.lists(st.tuples(
    st.sampled_from(MAPS_PATHS),
    st.one_of(st.tuples(st.just("set"), REPLACEMENTS),
              st.tuples(st.sampled_from(["drop", "grow"]), st.just(None)))),
    min_size=1, max_size=3)
# The shipped commands on scenes/maps.json, and classify of every candidate.
MAPS_COMMANDS = [
    ["classify"],
    ["graph", "--map", "rot4_identity"],
    ["image", "--map", "rot4_identity", "--candidate", "rotation_line"],
    ["intersect", "--left", "flip_x_axis", "--right", "flip_vertical"],
    ["fibered-product", "--left-map", "flip_onto_line", "--right-map", "flip_onto_line"],
    ["preimage", "--map", "flip_onto_line", "--target", "line_origin"],
    ["preimage", "--map", "plane_into_rot4", "--value", "1,0"],
    ["isotropy", "--candidate", "rotation_line", "--point", "0,0"],
    ["isotropy", "--group", "rot4", "--point", "0,0"],
]


def _mutate(scene, path, op, value):
    """Set, drop or grow (repeat the last item, add a key) the value at path;
    a path an earlier mutation removed is skipped."""
    *head, last = path
    try:
        node = scene
        for key in head:
            node = node[key]
        if op == "set":
            node[last] = json.loads(json.dumps(value))
        elif op == "drop":
            del node[last]
        elif isinstance(node[last], list):
            node[last].append(json.loads(json.dumps(node[last][-1])) if node[last] else 0)
        elif isinstance(node[last], dict):
            node[last]["extra"] = "nope"
    except (KeyError, IndexError, TypeError):
        pass


@settings(max_examples=300, deadline=None)
@given(MUTATIONS, st.sampled_from(MAPS_COMMANDS))
def test_scene_fuzz_maps_sections(mutations, command):
    scene = json.loads(json.dumps(MAPS_RAW))
    for path, (op, value) in mutations:
        _mutate(scene, path, op, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        with open(path, "w") as fh:
            json.dump(scene, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(command + ["--scene", path])
    assert rc in (0, 2), err.getvalue()
    assert "internal" not in err.getvalue()


with open(ROTATION_SCENE, encoding="utf-8") as _fh:
    ROTATION_RAW = json.load(_fh)

# Every place in the probes section, and the optional depth and tolerance.
PROBE_PATHS = list(_paths(ROTATION_RAW["probes"], ("probes",))) + [
    ("probes", "rotation_line", "depth"), ("probes", "rotation_line", "tolerance")]
# Wrong types and lengths, unknown names, three-point pairs, booleans,
# unreadable rationals, huge and negative depths, non-finite tolerances,
# and the names of a group, subgroup and subspace that do not belong together.
PROBE_REPLACEMENTS = st.sampled_from([
    None, True, False, 1.5, "nope", "1/0", 0, 2, -1, 12, 13, 10**6, 10**30, -10**6,
    float("inf"), float("-inf"), float("nan"), 1e-300, {}, [], [[]], [0], [[0, 0]],
    [1, 0, 0], ["1/2", 0], [[1, 0], [0, 0], [0, 0]], [[[1, 0], [0, 0], [0, 0]]],
    [[[1, 0], [1, 1]]], [[[True, 0], [0, 0]]], "signs", "diag_half_turn", "diagonal",
])
PROBE_MUTATIONS = st.lists(st.tuples(
    st.sampled_from(PROBE_PATHS),
    st.one_of(st.tuples(st.just("set"), PROBE_REPLACEMENTS),
              st.tuples(st.sampled_from(["drop", "grow"]), st.just(None)))),
    min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(PROBE_MUTATIONS, st.sampled_from([[], ["--depth", "2"]]))
def test_scene_fuzz_probes(mutations, depth):
    scene = json.loads(json.dumps(ROTATION_RAW))
    for path, (op, value) in mutations:
        _mutate(scene, path, op, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        with open(path, "w") as fh:
            json.dump(scene, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["metric-check", "--scene", path] + depth)
    assert rc in (0, 1, 2), err.getvalue()
    assert "internal" not in err.getvalue()


SCENES_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenes")
# One value of each JSON type, a list of a name and a bool, each put in turn
# in place of every entry and every value inside one.
TYPE_MUTATIONS = [5, "x", [], {}, None, ["g"], 1.5, True]
PYTHON_PHRASES = ("object is not", "unhashable", "not iterable", "not subscriptable",
                  "string indices")


def _type_mutations(name, first_scalar_only=False):
    """(section, entry, scene text) for each value below the top level of the
    shipped scene ``name`` replaced by each of TYPE_MUTATIONS; with
    first_scalar_only, a list that holds no list or object has only its
    first item replaced."""
    with open(os.path.join(SCENES_DIR, name), encoding="utf-8") as fh:
        raw = json.load(fh)
    for path in _paths(raw, ()):
        if len(path) < 2:
            continue
        if first_scalar_only and isinstance(path[-1], int) and path[-1] > 0:
            items = raw
            for key in path[:-1]:
                items = items[key]
            if not any(isinstance(item, (list, dict)) for item in items):
                continue
        for value in TYPE_MUTATIONS:
            scene = json.loads(json.dumps(raw))
            _mutate(scene, path, "set", value)
            yield path[0], path[1], json.dumps(scene)


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SCENES_DIR) if n.endswith(".json")))
def test_a_wrong_json_type_in_a_shipped_scene_is_refused_where_it_is(name):
    # Such a scene was refused with Python's own text and no location
    # ("malformed scene entry: unhashable type: 'list'"), or {} was read as
    # an empty basis or generator list.
    for section, entry, text in _type_mutations(name):
        try:
            read_scene(text)
        except SuborbifoldError as exc:
            message = str(exc)
            assert f"scene section {section!r}" in message, message
            assert f"entry {entry!r}" in message, message
            assert not any(phrase in message for phrase in PYTHON_PHRASES), message


# The keys by which an entry names an entry of each section.
REFERENCES = {"groups": ("parent", "group", "domain", "codomain"), "subgroups": ("subgroup",),
              "subspaces": ("subspace",)}


def _readers(raw, section, entry):
    """(section, entry) and every entry of the scene raw that reads it,
    directly or through another entry."""
    found, todo = set(), [(section, entry)]
    while todo:
        at = todo.pop()
        if at in found:
            continue
        found.add(at)
        for other, entries in raw.items():
            for name, spec in entries.items() if isinstance(entries, dict) else ():
                if isinstance(spec, dict) and any(spec.get(key) == at[1]
                                                  for key in REFERENCES.get(at[0], ())):
                    todo.append((other, name))
    return found


@pytest.mark.parametrize("name", ["maps.json", "rational_chart.json", "rotation_line.json"])
def test_a_wrong_json_type_in_a_small_scene_builds_or_is_refused(name):
    # parse_scene builds every entry, so a value that passed the reader
    # reaches the groups, maps and probes; B4 and B5 take too long to build.
    # A refusal names one entry: the changed one or, when the changed one
    # still builds, as a group of other elements, an entry that reads it.
    for section, entry, text in _type_mutations(name, first_scalar_only=True):
        try:
            parse_scene(text)
        except SuborbifoldError as exc:
            message = str(exc)
            located = re.match(r"scene section '([^']*)': entry '([^']*)'[: ]", message)
            assert located, message
            assert located.groups() in _readers(json.loads(text), section, entry), message
            assert message.count("scene section ") == 1, message
