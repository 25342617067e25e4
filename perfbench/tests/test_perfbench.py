"""Tests of the benchmark itself: generator, tracer, checker, launcher.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import check
import exact
import gen
import spans

import suborbifolds
import suborbifolds.cli as cli
import suborbifolds.corpus as corpus

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_generator_is_deterministic_per_seed():
    groups = gen.ladder_groups()
    first = [gen.ladder_queries(7, p, groups, set()) for p in range(2)]
    again = [gen.ladder_queries(7, p, groups, set()) for p in range(2)]
    other = [gen.ladder_queries(8, p, groups, set()) for p in range(2)]
    assert first == again
    assert first != other
    assert gen.scene_pass(7, 0) == gen.scene_pass(7, 0)
    assert gen.scene_pass(7, 0) != gen.scene_pass(7, 1)
    names = [case.name for case in corpus.CASES]
    assert gen.corpus_queries(7, 0, names) == gen.corpus_queries(7, 0, names)


def test_ladder_inputs_do_not_repeat_within_a_run():
    groups = gen.ladder_groups()
    seen, keys = set(), []
    for p in range(3):
        for q in gen.ladder_queries(11, p, groups, seen):
            if q["kind"] == "classify" and not q["v"][1] and len(q["delta"]) == \
                    groups[q["chart"]].order:
                continue  # the whole-group point candidate is unique by definition
            keys.append(gen._key(q))
    assert len(keys) == len(set(keys))


def _profile_counts(run):
    """Calls of each traced function, counted with sys.setprofile."""
    codes = {}
    for name in spans.NAMES:
        mod, fn = name.split(".")
        obj = getattr(sys.modules[f"suborbifolds.{mod}"], fn)
        codes[(obj.__init__ if isinstance(obj, type) else obj).__code__] = name
    counts = dict.fromkeys(spans.NAMES, 0)

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def test_tracer_counts_match_setprofile_on_rotation_line():
    case = next(c for c in corpus.CASES if c.name == "rotation-line")

    def run():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["corpus", "--filter", case.name]) == 0
        assert corpus.run_corpus(cases=[case]).ok

    expected = _profile_counts(run)
    tracer = spans.Tracer()
    with tracer:
        run()
    assert tracer.counts() == expected
    assert expected["linalg.solve_affine"] > 0
    assert expected["groups.FiniteMatrixGroup"] > 0
    # Uninstalling restores every original binding.
    assert _profile_counts(run) == expected
    assert suborbifolds.classify.__module__ == "suborbifolds.classify"


def _classify_json(args):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["classify", "--scene", "scenes/rotation_line.json",
                       "--format", "machine"] + args)
    return rc, stdout.getvalue()


def test_tampered_fullness_witness_counts_as_failed(monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(gen.ROTATION_SCENE) as fh:
        context = {"model": check.scene_model(json.load(fh))}
    query = {"kind": "classify", "points": [[0, 0]]}
    rc, text = _classify_json(["--isotropy-point", "0,0"])
    checker = check.Checker()
    assert checker.record("real", check.cli_problems(query, (rc, text), context))

    payload = json.loads(text)
    witness = payload["results"]["rotation_line"]["classification"]["full"]["witness"]
    witness["point"][0] = "1"
    tampered = (rc, json.dumps(payload))
    assert not checker.record("tampered", check.cli_problems(query, tampered, context))
    assert (checker.attempted, checker.failed) == (2, 1)


def test_tampered_saturation_witness_counts_as_failed():
    rot4 = suborbifolds.generate_group([[[0, -1], [1, 0]]])
    chart = suborbifolds.chart_from_group(rot4)
    v = exact.affine((0, 0), [(1, 0)])
    cand = suborbifolds.SuborbifoldCandidate(
        chart, rot4.subgroup_from_indices([rot4.identity]),
        suborbifolds.affine_subspace(*v))
    group = exact.Group([((0, -1), (1, 0))], 2)
    query = {"kind": "classify", "chart": "rot4", "delta": [group.identity], "v": v,
             "points": []}
    report = suborbifolds.classify(cand)
    assert not report.saturated.holds
    assert check.ladder_problems(query, group, report) == []

    data = check.report_data(report)
    point = list(data["saturated"]["witness"]["point"])
    point[1] += Fraction(1)
    data["saturated"]["witness"]["point"] = tuple(point)
    assert check.classification_problems(group.elements, [group.identity], v, data)


def test_one_generated_scene_passes_every_check(tmp_path):
    raw = gen.scene_pass(5, 0)[0]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(raw))
    context = {"model": check.scene_model(raw)}
    for q in gen.scene_queries(str(path)):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(q["argv"])
        assert check.cli_problems(q, (rc, stdout.getvalue()), context) == [], q["kind"]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
