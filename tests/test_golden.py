"""Golden machine reports: the shipped commands' ``--format machine``
output, with timing stripped, compared byte for byte.

The reports are written as ``dump_machine_report(strip_timing(report))``,
the same layout the CLI prints. After an intended change to a report,
regenerate them from the root of a checkout with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md what changed and why.
"""
import argparse
import contextlib
import io
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from suborbifolds import cli, groups
from suborbifolds.scene import dump_machine_report, strip_timing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
REPORTS = {
    "corpus.json": ["corpus"],
    "metric-check.json": ["metric-check"],
    # At depth 0 the deepest level is the only one, the edge case of the
    # metric probe's pruning by the deepest sum.
    "metric-check-depth0.json": ["metric-check", "--depth", "0"],
    "metric-check-depth12.json": ["metric-check", "--depth", "12"],
    "metric-check-rotation-line-depth0.json": ["metric-check", "--scene",
                                               "scenes/rotation_line.json", "--depth", "0"],
    "metric-check-rotation-line-depth12.json": ["metric-check", "--scene",
                                                "scenes/rotation_line.json", "--depth", "12"],
    "classify_rotation_line.json": ["classify", "--scene", "scenes/rotation_line.json"],
    "classify_hyperoctahedral_b4.json": ["classify", "--scene",
                                         "scenes/hyperoctahedral_b4.json"],
    "classify_hyperoctahedral_b5.json": ["classify", "--scene",
                                         "scenes/hyperoctahedral_b5.json"],
    "isotropy_hyperoctahedral_b5.json": ["isotropy", "--scene",
                                         "scenes/hyperoctahedral_b5.json", "--candidate",
                                         "whole_space", "--point", "0,0,0,0,0"],
    # Two saturated candidates whose kernel has no complement in Delta: the
    # B3 one is embedded only through a subgroup outside Delta, the Z4 one
    # not at all, so --search-all-delta changes the first verdict only.
    "classify_kernel_without_complement.json": ["classify", "--scene",
                                                "scenes/kernel_without_complement.json"],
    "classify_kernel_without_complement_search_all_delta.json": [
        "classify", "--scene", "scenes/kernel_without_complement.json",
        "--search-all-delta"],
}
# The constructions on scenes/maps.json: each one builds a new chart group
# (a product group, an isotropy group or an induced chart group).
MAPS = ["--scene", "scenes/maps.json"]
REPORTS.update({
    "maps_graph.json": ["graph", *MAPS, "--map", "rot4_identity"],
    "maps_image.json": ["image", *MAPS, "--map", "rot4_identity",
                        "--candidate", "rotation_line"],
    "maps_intersect.json": ["intersect", *MAPS, "--left", "flip_x_axis",
                            "--right", "flip_vertical"],
    "maps_fibered_product.json": ["fibered-product", *MAPS, "--left-map", "flip_onto_line",
                                  "--right-map", "flip_onto_line"],
    "maps_preimage_target.json": ["preimage", *MAPS, "--map", "flip_onto_line",
                                  "--target", "line_origin"],
    "maps_preimage_value.json": ["preimage", *MAPS, "--map", "plane_into_rot4",
                                 "--value", "1,0"],
    "maps_isotropy_candidate.json": ["isotropy", *MAPS, "--candidate", "rotation_line",
                                     "--point", "0,0"],
    "maps_isotropy_group.json": ["isotropy", *MAPS, "--group", "rot4", "--point", "0,0"],
})
# scenes/rational_chart.json: rationally conjugated groups on Q^2 (entries over 2, 3 and 6)
# and equivariant maps between them, so charts, product charts and the equivariance check
# run with a common denominator above 1.
RATIONAL = ["--scene", "scenes/rational_chart.json"]
REPORTS.update({
    "rational_classify.json": ["classify", *RATIONAL, "--isotropy-point", "7/4,3/2",
                               "--isotropy-point", "1,1/2"],
    "rational_graph_fold.json": ["graph", *RATIONAL, "--map", "fold"],
    "rational_graph_stretch.json": ["graph", *RATIONAL, "--map", "stretch"],
    "rational_preimage_target.json": ["preimage", *RATIONAL, "--map", "fold",
                                      "--target", "flip_axis"],
    "rational_intersect.json": ["intersect", *RATIONAL, "--left", "skew_line",
                                "--right", "skew_cross"],
    "rational_image_stretch.json": ["image", *RATIONAL, "--map", "stretch",
                                    "--candidate", "b2_across"],
    "rational_preimage_value.json": ["preimage", *RATIONAL, "--map", "stretch",
                                     "--value", "0,0"],
})


def stripped_report(argv) -> str:
    """The command's machine report with timing stripped (run from ROOT)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "machine"])
    assert code == 0
    return dump_machine_report(strip_timing(json.loads(out.getvalue())))


def _golden(name) -> str:
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_machine_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert stripped_report(REPORTS[name]) == _golden(name)


def test_every_report_matches_golden_on_warm_groups(monkeypatch):
    # A process keeps the groups it built (groups.group_from_forms) and the
    # corpus charts, with their product rows and orbit-of-V stores, so
    # neither an earlier command nor the order the commands ran in may
    # change a report.
    monkeypatch.chdir(ROOT)
    names = sorted(REPORTS)
    for name in names + names[::-1]:
        assert stripped_report(REPORTS[name]) == _golden(name), name
    golden = _golden("corpus.json")
    results = json.loads(golden)["results"]
    cases = sorted(results)
    random.Random(5).shuffle(cases)
    for case in cases:
        report = json.loads(stripped_report(["corpus", "--filter", case]))
        assert report["results"] == {case: results[case]}
        assert stripped_report(["corpus"]) == golden


def test_scenes_sharing_their_groups_but_not_v_report_as_they_do_alone(tmp_path,
                                                                      monkeypatch):
    # scenes/maps.json and a copy whose subspaces are moved: the same
    # generator lists, so the second scene reads the groups the first one
    # built, with orbit stores of other subspaces.
    monkeypatch.chdir(ROOT)
    with open(os.path.join("scenes", "maps.json"), encoding="utf-8") as fh:
        scene = json.load(fh)
    scene["subspaces"].update({"x_axis": {"base": [0, 0], "basis": [[0, 1]]},
                               "vertical_line": {"base": [-2, 0], "basis": [[0, 1]]}})
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(scene))
    commands = [["classify", *MAPS], ["classify", "--scene", str(moved)]]
    closed = []
    close = groups._close
    monkeypatch.setattr(groups, "_close", lambda *args: closed.append(args) or close(*args))
    alone, closed_alone = [], []
    for argv in commands:
        monkeypatch.setattr(groups, "_kept", {})
        closed.clear()
        alone.append(stripped_report(argv))
        closed_alone.append(len(closed))
    assert alone[0] != alone[1] and closed_alone[0] == closed_alone[1] > 0
    monkeypatch.setattr(groups, "_kept", {})
    closed.clear()
    for argv, report in zip(commands + commands[::-1], alone + alone[::-1]):
        assert stripped_report(argv) == report, argv
    # only the first command closed its groups; every later one was served them
    assert len(closed) == closed_alone[0]


def test_every_shipped_scene_has_a_golden_report():
    # REPORTS is the one list of shipped commands, and the CI golden step
    # runs every one of them.
    shipped = {f"scenes/{name}" for name in os.listdir(os.path.join(ROOT, "scenes"))
               if name.endswith(".json")}
    reported = {argv[i + 1] for argv in REPORTS.values()
                for i, arg in enumerate(argv) if arg == "--scene"}
    assert shipped and shipped <= reported, shipped - reported


def test_every_subcommand_dispatches_by_name_and_has_a_golden_report():
    # main runs cli.cmd_ plus the subcommand with "-" as "_". The CI golden
    # step runs every REPORTS command through the installed script, so with
    # this test it checks each subcommand's dispatch end to end.
    (subcommands,) = [action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    missing = [name for name in subcommands
               if not callable(getattr(cli, "cmd_" + name.replace("-", "_"), None))]
    assert not missing, missing
    reported = {argv[0] for argv in REPORTS.values()}
    assert subcommands and set(subcommands) <= reported, set(subcommands) - reported


def test_strip_timing_drops_only_the_timing_key():
    # A "seconds" or "elapsed_seconds" key outside "timing" stays, so the
    # golden and determinism checks compare it.
    payload = {"command": "corpus", "timing": {"seconds": 0.5}, "seconds": 1,
               "results": {"a": {"elapsed_seconds": 2, "timing": 3}}}
    assert strip_timing(payload) == {"command": "corpus", "seconds": 1,
                                     "results": {"a": {"elapsed_seconds": 2, "timing": 3}}}


def _json_dumps(payload) -> str:
    """The report bytes as ``json`` writes them."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_report_writer_matches_json_on_every_golden_report():
    for name in sorted(REPORTS):
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
            payload = json.load(fh)
        assert dump_machine_report(payload) == _json_dumps(payload), name


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from([-0.0, 1e-300, 5e-324, 1e300, float("nan"), float("inf"),
                     -float("inf"), "", "\x00\x1f\x7f\"\\/", "é\u2028\U0001f600"]),
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30,
)


@given(_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_report_writer_matches_json(payload):
    assert dump_machine_report(payload) == _json_dumps(payload)


def test_report_writer_leaves_other_payloads_to_json():
    # Every CLI payload has string keys; a key json would convert, or a
    # value it cannot encode, raises TypeError as json does for the latter.
    for payload in ({2: "b", 1: {"x": ()}}, {"a": [{True: None}]}, {"a": object()},
                    {1: 0, "b": 0}):
        with pytest.raises(TypeError):
            dump_machine_report(payload)


def main() -> int:
    os.chdir(ROOT)
    for name, argv in sorted(REPORTS.items()):
        with open(os.path.join(GOLDEN_DIR, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(stripped_report(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
