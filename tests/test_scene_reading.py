"""Scenes read for structure, with each entry built when a command looks it up.

``parse_scene`` builds every entry; the CLI builds only the entries its
command reads, so a semantic fault in another entry does not stop it.
"""
import importlib
import json
import sys
from pathlib import Path

import pytest

import suborbifolds.scene as scene_mod
from suborbifolds.cli import main
from suborbifolds.errors import (NonInvertibleGenerator, NonOrthogonalGroup, NotFiniteWithinBound,
                                  NotSubgroup, ParseError, PointsNotInSubspace, SuborbifoldError)
from suborbifolds.scene import parse_scene

SCENES = Path(__file__).resolve().parents[1] / "scenes"

# rot4 and its x-axis line, with a map and a probe on them, and the flip of
# the y coordinate (order 2) with the same line.
BASE = {
    "groups": {"rot4": [[[0, -1], [1, 0]]], "flip": [[[1, 0], [0, -1]]]},
    "subgroups": {"half_turn": {"parent": "rot4", "generators": [[[-1, 0], [0, -1]]]}},
    "subspaces": {"x_axis": {"base": [0, 0], "basis": [[1, 0]]},
                  "origin": {"base": [0, 0]}},
    "candidates": {"rotation_line": {"group": "rot4", "subgroup": "half_turn",
                                     "subspace": "x_axis"},
                   "flip_line": {"group": "flip", "subspace": "x_axis"}},
    "maps": {"identity": {"domain": "rot4", "codomain": "rot4",
                          "matrix": [[1, 0], [0, 1]], "offset": [0, 0],
                          "theta": [[0, 0], [1, 1], [2, 2], [3, 3]]}},
    "probes": {"line_probe": {"group": "rot4", "subgroup": "half_turn",
                              "subspace": "x_axis", "pairs": [[[1, 0], [-1, 0]]]}},
}
CLASSIFY_LINE = ["classify", "--candidate", "rotation_line"]


def _bad_map(**changes):
    return {"maps": {"bad": dict(BASE["maps"]["identity"], **changes)}}


# (entries added to BASE, a command that reads none of them, one that reads
# the faulty entry, --max-order or None)
DEFERRED = {
    "infinite_group": ({"groups": {"shear": [[[1, 1], [0, 1]]]}},
                       CLASSIFY_LINE, ["isotropy", "--group", "shear", "--point", "0,0"], None),
    "singular_generator": ({"groups": {"singular": [[[1, 0], [0, 0]]]}},
                           CLASSIFY_LINE, ["isotropy", "--group", "singular", "--point", "0,0"],
                           None),
    "group_over_max_order": ({}, ["classify", "--candidate", "flip_line"], CLASSIFY_LINE, 3),
    "subgroup_generator_outside_parent": (
        {"subgroups": {"bad": {"parent": "rot4", "generators": [[["1/2", 0], [0, 1]]]}},
         "candidates": {"bad": {"group": "rot4", "subgroup": "bad", "subspace": "origin"}}},
        CLASSIFY_LINE, ["classify", "--candidate", "bad"], None),
    "element_index_out_of_range": (
        {"subgroups": {"bad": {"parent": "rot4", "generator_indices": [4]}},
         "candidates": {"bad": {"group": "rot4", "subgroup": "bad", "subspace": "origin"}}},
        CLASSIFY_LINE, ["classify", "--candidate", "bad"], None),
    "theta_not_covering_domain": (_bad_map(theta=[[0, 0], [1, 1], [2, 2]]),
                                  ["graph", "--map", "identity"], ["graph", "--map", "bad"],
                                  None),
    "non_invariant_candidate": (
        {"candidates": {"bad": {"group": "rot4", "subspace": "x_axis"}}},
        CLASSIFY_LINE, ["classify", "--candidate", "bad"], None),
    "non_equivariant_map": (_bad_map(matrix=[[1, 0], [0, 2]]),
                            ["graph", "--map", "identity"], ["graph", "--map", "bad"], None),
    "probe_pair_off_its_subspace": (
        {"probes": {"bad": dict(BASE["probes"]["line_probe"], pairs=[[[1, 0], [0, 1]]])}},
        ["metric-check", "--probe", "line_probe"], ["metric-check", "--probe", "bad"], None),
}


def _with(extra: dict) -> dict:
    raw = json.loads(json.dumps(BASE))
    for section, entries in extra.items():
        raw[section].update(entries)
    return raw


@pytest.mark.parametrize("case", sorted(DEFERRED))
def test_a_deferred_check_stops_only_the_commands_that_read_its_entry(case, tmp_path, capsys):
    extra, other, reads, max_order = DEFERRED[case]
    text = json.dumps(_with(extra))
    with pytest.raises(SuborbifoldError) as refused:
        parse_scene(text, max_order)
    path = tmp_path / "scene.json"
    path.write_text(text)
    options = ["--scene", str(path)] + ([] if max_order is None else ["--max-order",
                                                                      str(max_order)])
    assert main(other + options) == 0
    capsys.readouterr()
    assert main(reads + options) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused.value}\n"


def test_structural_faults_in_an_unread_entry_still_exit_2(tmp_path, capsys):
    # Names, key presence, shapes and rationals are checked for every entry.
    path = tmp_path / "scene.json"
    for extra, message in (
            ({"groups": {"bad": [[[1, 0], [0, 1, 0]]]}}, "ragged matrix rows"),
            ({"groups": {"bad": [[[1, 0], [0, 1]], [[1]]]}}, "square, equal size"),
            ({"subgroups": {"bad": {"parent": "nope", "generator_indices": []}}},
             "unknown group 'nope'"),
            ({"candidates": {"bad": {"group": "rot4", "subspace": "nope"}}},
             "unknown subspace 'nope'"),
            ({"candidates": {"bad": {"group": "rot4"}}},
             "scene section 'candidates': entry 'bad' lacks the key 'subspace'"),
            (_bad_map(theta=[[0, 0], [0, 1]]), "theta lists element 0 twice"),
            (_bad_map(offset=["1/0", 0]), "cannot read '1/0' as a rational"),
            ({"probes": {"bad": dict(BASE["probes"]["line_probe"], depth=13)}},
             "scene section 'probes': entry 'bad': "
             "partition depth must be an integer in 0..12, got 13")):
        path.write_text(json.dumps(_with(extra)))
        assert main(CLASSIFY_LINE + ["--scene", str(path)]) == 2
        assert message in capsys.readouterr().err


# Per section, an entry of BASE and a key its entries need.
NEEDED = {"subgroups": ("half_turn", "parent"), "subspaces": ("x_axis", "base"),
          "candidates": ("rotation_line", "subspace"), "maps": ("identity", "theta"),
          "probes": ("line_probe", "pairs")}


@pytest.mark.parametrize("section", sorted(NEEDED))
def test_a_malformed_entry_is_named_by_section_entry_and_key(section, tmp_path, capsys):
    # A string or a number for an entry gave Python's own message ("string
    # indices must be integers, not 'str'"), and a missing key its bare name.
    name, key = NEEDED[section]
    where = f"scene section {section!r}: entry 'bad'"
    lacking = {k: v for k, v in BASE[section][name].items() if k != key}
    cases = [("x", f"{where} must be a JSON object"), (5, f"{where} must be a JSON object"),
             ([], f"{where} must be a JSON object"), (lacking, f"{where} lacks the key {key!r}")]
    if section == "subgroups":  # generators are needed where no indices are given
        cases.append(({"parent": "rot4"}, f"{where} lacks the key 'generators'"))
    path = tmp_path / "scene.json"
    for entry, message in cases:
        text = json.dumps(_with({section: {"bad": entry}}))
        with pytest.raises(ParseError) as err:
            parse_scene(text)
        assert str(err.value) == message
        path.write_text(text)
        assert main(CLASSIFY_LINE + ["--scene", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _shifted(entry):
    """Point the rotation-line scene's entry in section ``entry`` at the line
    y = 1, which the half turn of its subgroup (element 0 of rot4) moves."""
    def mutate(raw):
        raw["subspaces"]["shifted"] = {"base": [0, 1], "basis": [[1, 0]]}
        raw[entry]["rotation_line"]["subspace"] = "shifted"
    return mutate


def _stretched(raw):
    raw["maps"]["rot4_identity"]["matrix"][0][0] = 5


# (shipped scene, its mutation, a command that builds the faulty entry, the message)
BUILD_FAULTS = {
    "candidate": ("rotation_line.json", _shifted("candidates"),
                  ["classify", "--candidate", "rotation_line"],
                  "scene section 'candidates': entry 'rotation_line': "
                  "subspace is not invariant under subgroup element 0"),
    "probe": ("rotation_line.json", _shifted("probes"),
              ["metric-check", "--probe", "rotation_line"],
              "scene section 'probes': entry 'rotation_line': "
              "subspace is not invariant under subgroup element 0"),
    "map": ("maps.json", _stretched, ["graph", "--map", "rot4_identity"],
            "scene section 'maps': entry 'rot4_identity': "
            "equivariance fails on element 1 (linear part)"),
}


@pytest.mark.parametrize("case", sorted(BUILD_FAULTS))
def test_a_build_fault_names_its_entry(case, tmp_path, capsys):
    # Invariance and equivariance were reported without the entry that
    # failed them, unlike a subgroup's faults.
    name, mutate, command, message = BUILD_FAULTS[case]
    raw = json.loads((SCENES / name).read_text(encoding="utf-8"))
    mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    with pytest.raises(SuborbifoldError) as refused:
        parse_scene(path.read_text())
    assert str(refused.value) == message
    assert main(command + ["--scene", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


SKEW = {"groups": {"skew": [[[1, 1], [0, -1]]]},  # of order 2, not orthogonal
        "subgroups": {"skew_whole": {"parent": "skew", "generators": [[[1, 1], [0, -1]]]}},
        "probes": {"bad": dict(BASE["probes"]["line_probe"], group="skew",
                               subgroup="skew_whole")}}

# (entries added to BASE, --max-order or None, a command that builds the
# faulty entry, the error class, its message)
LOCATED_FAULTS = {
    "singular_generator": (
        {"groups": {"bad": [[[1, 0], [0, 0]]]}}, None,
        ["isotropy", "--group", "bad", "--point", "0,0"], NonInvertibleGenerator,
        "scene section 'groups': entry 'bad': generator is singular: [[1, 0], [0, 0]]"),
    "infinite_order": (
        {"groups": {"shear": [[[1, 1], [0, 1]]]}}, None,
        ["isotropy", "--group", "shear", "--point", "0,0"], NotFiniteWithinBound,
        "scene section 'groups': entry 'shear': group closure exceeded max_order=10000"),
    "over_max_order": (
        {}, 2, CLASSIFY_LINE, NotFiniteWithinBound,
        "scene section 'groups': entry 'rot4': group closure exceeded max_order=2"),
    "probe_pair_off_its_subspace": (
        {"probes": {"bad": dict(BASE["probes"]["line_probe"], pairs=[[[1, 0], [0, 1]]])}},
        None, ["metric-check", "--probe", "bad"], PointsNotInSubspace,
        "scene section 'probes': entry 'bad': sample pair [1, 0], [0, 1] leaves the subspace"),
    "probe_group_not_orthogonal": (
        SKEW, None, ["metric-check", "--probe", "bad"], NonOrthogonalGroup,
        "scene section 'probes': entry 'bad': element 1 is not orthogonal"),
}


@pytest.mark.parametrize("case", sorted(LOCATED_FAULTS))
def test_a_group_or_probe_fault_names_its_entry(case, tmp_path, capsys):
    # A group's closure faults and a probe's own faults named no entry.
    extra, max_order, command, error, message = LOCATED_FAULTS[case]
    text = json.dumps(_with(extra))
    with pytest.raises(error) as refused:
        parse_scene(text, max_order)
    assert str(refused.value) == message
    path = tmp_path / "scene.json"
    path.write_text(text)
    options = ["--scene", str(path)] + ([] if max_order is None else ["--max-order",
                                                                      str(max_order)])
    assert main(command + options) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("max_order", [2, 3])
def test_a_located_closure_fault_keeps_its_bound(max_order):
    # The location is added to the error raised, which keeps its class and
    # its attributes; rebuilding it from its message could not keep them.
    with pytest.raises(NotFiniteWithinBound) as refused:
        scene_mod.read_scene(json.dumps(BASE), max_order).candidates["rotation_line"]
    assert refused.value.max_order == max_order
    assert str(refused.value).startswith("scene section 'groups': entry 'rot4': ")


def test_a_candidate_names_only_its_subgroup_when_that_fails(tmp_path, capsys):
    # The subgroup's fault is located where it is, once, and passes through
    # the candidate and the probe that read it unchanged.
    half = "scene section 'subgroups': entry 'half_turn': "
    for generators, fault in (
            ([[["1/2", 0], [0, 1]]], "matrix [[1/2, 0], [0, 1]] is not in the group"),
            ([[[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
             "matrix [[1, 0, 0], [0, 1, 0], [0, 0, 1]] is not in the group")):
        raw = _with({"subgroups": {"half_turn": {"parent": "rot4", "generators": generators}}})
        scene = scene_mod.read_scene(json.dumps(raw))
        for section, name in (("candidates", "rotation_line"), ("probes", "line_probe")):
            with pytest.raises(NotSubgroup) as refused:
                getattr(scene, section)[name]
            assert str(refused.value) == half + fault
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(raw))
        assert main(CLASSIFY_LINE + ["--scene", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {half}{fault}\n"
    raw = _with({"subgroups": {"half_turn": {"parent": "rot4", "generator_indices": [4]}}})
    with pytest.raises(ParseError) as refused:
        scene_mod.read_scene(json.dumps(raw)).candidates["rotation_line"]
    assert str(refused.value) == half + "generator index 4 is not in 0..3"


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_a_package_fault_in_a_build_exits_3(error, monkeypatch, capsys):
    # Only a DimensionMismatch in a build is a fault of the scene; a KeyError
    # or TypeError there, or while the scene was read, was reported as a
    # malformed scene entry (exit 2).
    groups = sys.modules["suborbifolds.groups"]

    def broken(*args, **kwargs):
        raise error("boom")

    scene = str(SCENES / "rotation_line.json")
    internal = f"internal error: {error.__name__}: {error('boom')}\n"
    monkeypatch.setattr(groups, "group_from_forms", broken)
    assert main(["classify", "--scene", scene]) == 3
    assert capsys.readouterr().err == internal
    monkeypatch.undo()
    monkeypatch.setattr(scene_mod, "read_generators", broken)
    assert main(["classify", "--scene", scene]) == 3
    assert capsys.readouterr().err == internal


# One scene of the benchmark's scenes workload: a main group G with two
# candidates, and a map f from D to C with a target and a whole-plane
# candidate on C.
WORKLOAD_SCENE = {
    "groups": {"G": [[[0, 1], [1, 0]], [[-1, 0], [0, 1]]],
               "D": [[[-1, 0], [0, 1]]], "C": [[[-1, 0], [0, 1]]]},
    "subgroups": {"stab": {"parent": "G", "generator_indices": [1, 7]},
                  "pair": {"parent": "G", "generators": [[[-1, 0], [0, 1]]]}},
    "subspaces": {"V": {"base": ["0", "28/3"], "basis": [["1", "0"]]},
                  "Q": {"base": ["0", "0"], "basis": [["0", "1"]]},
                  "all": {"base": ["0", "0"], "basis": [["1", "0"], ["0", "1"]]}},
    "candidates": {"main_stab": {"group": "G", "subgroup": "stab", "subspace": "V"},
                   "main_pair": {"group": "G", "subgroup": "pair", "subspace": "V"},
                   "target": {"group": "C", "subspace": "Q"},
                   "whole": {"group": "C", "subspace": "all"}},
    "maps": {"f": {"domain": "D", "codomain": "C", "matrix": [[1, 0], [0, -1]],
                   "offset": ["0", "-35"], "theta": [[0, 0], [1, 1]]}},
}


@pytest.fixture
def built(monkeypatch):
    """The arguments of each group the scene module builds."""
    calls = []
    generate = scene_mod.generate_group

    def counted(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(scene_mod, "generate_group", counted)
    return calls


@pytest.mark.parametrize("command, groups", [
    (["classify"], 2),                                       # G and C
    (["intersect", "--left", "whole", "--right", "target"], 1),  # C
    (["graph", "--map", "f"], 2),                            # D and C
    (["preimage", "--map", "f", "--target", "target"], 2),   # D and C
])
def test_each_command_builds_only_the_groups_it_reads(command, groups, built, tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(WORKLOAD_SCENE))
    assert main(command + ["--scene", str(path)]) == 0
    assert len(built) == groups
    # parse_scene builds all three
    built.clear()
    parse_scene(json.dumps(WORKLOAD_SCENE))
    assert len(built) == 3


def test_an_entry_looked_up_twice_is_built_once(built):
    scene = scene_mod.read_scene(json.dumps(BASE))
    assert built == []
    # rot4 is read by the candidate, its subgroup and the map's two charts
    line = scene.candidates["rotation_line"]
    assert scene.candidates["rotation_line"] is line
    assert scene.maps["identity"].domain.group is line.chart.group is scene.groups["rot4"]
    assert len(built) == 1


@pytest.mark.parametrize("path", sorted(SCENES.glob("*.json")), ids=lambda p: p.name)
def test_every_shipped_scene_passes_parse_scene(path):
    # The CLI checks only what a command reads; parse_scene checks every entry.
    scene = parse_scene(path.read_text(encoding="utf-8"))
    raw = json.loads(path.read_text(encoding="utf-8"))
    for section in ("groups", "subgroups", "subspaces", "candidates", "maps", "probes"):
        assert list(getattr(scene, section)) == list(raw.get(section, {}))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_benchmark_scene_passes_parse_scene(seed, monkeypatch):
    # The benchmark's scenes workload feeds the CLI scenes from its own
    # generator; the reader must accept every one of them.
    monkeypatch.syspath_prepend(str(SCENES.parent / "perfbench"))
    gen = importlib.import_module("gen")
    for scene in gen.scene_pass(seed, 0):
        built = parse_scene(json.dumps(scene))
        assert list(built.candidates) == list(scene["candidates"])


def test_subspaces_are_made_canonical_on_first_lookup(monkeypatch):
    # Their rationals and lengths are read with the file; the row elimination
    # waits for the first lookup, and a candidate and a probe on one subspace
    # share the one it made.
    linalg = sys.modules["suborbifolds.linalg"]
    made = []
    real = linalg._canonical
    monkeypatch.setattr(linalg, "_canonical", lambda *args: made.append(args) or real(*args))
    scene = scene_mod.read_scene(json.dumps(BASE))
    assert made == [] and list(scene.subspaces) == ["x_axis", "origin"]
    origin = scene.subspaces["origin"]
    assert len(made) == 1 and scene.subspaces["origin"] is origin
    line = scene.candidates["flip_line"].v
    assert line is scene.subspaces["x_axis"] is scene.probes["line_probe"].candidate.v
    assert line == linalg.affine_subspace([0, 0], [[1, 0]])
    assert parse_scene(json.dumps(BASE)).subspaces == {"x_axis": line, "origin": origin}
    ragged = {"subspaces": {"v": {"base": [0, 0], "basis": [[1, 0, 0]]}}}
    with pytest.raises(ParseError, match="basis vector length"):
        scene_mod.read_scene(json.dumps(ragged))
