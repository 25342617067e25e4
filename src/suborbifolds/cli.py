"""Command-line interface.

Exit codes: 0 success, 1 corpus/check mismatch, 2 input error,
3 internal invariant violation.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys

from . import corpus as corpus_mod
from .classify import (
    chart_from_group,
    classify,
    isotropy_point,
    isotropy_sub_point,
)
from .errors import NotFiniteWithinBound, SuborbifoldError
from .groups import DEFAULT_MAX_ORDER
from .linalg import contains_point, point_str, rat, vec
from .maps import (
    fibered_product,
    graph_suborbifold,
    image_suborbifold,
    intersect_full,
    preimage_suborbifold,
    regular_value_preimage,
)
from .metric import lemma_metrics_check
from .scene import (
    _lookup,
    candidate_json,
    classification_json,
    dump_machine_report,
    fingerprint_json,
    metric_report_json,
    read_scene,
    vec_json,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


# Options that take a comma-separated point. argparse reads a next token
# such as -1,0 as an unknown option, so main() attaches it with "=".
POINT_OPTIONS = ("--point", "--isotropy-point", "--value")
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _parse_point(text: str):
    return vec([rat(part.strip()) for part in text.split(",")])


def _attach_negative_points(argv: list[str]) -> list[str]:
    """Rewrite '--point -1,0' as '--point=-1,0' for every point option."""
    out = []
    for token in argv:
        if out and out[-1] in POINT_OPTIONS and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _max_order(text: str) -> int:
    """A --max-order value: an integer in 1..DEFAULT_MAX_ORDER."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= DEFAULT_MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"expected an integer in 1..{DEFAULT_MAX_ORDER}, got {text!r}")
    return value


def _load_scene(args):
    """The --scene file, read; each entry is built when a command looks it up."""
    if args.scene is None:
        raise SuborbifoldError("this command requires --scene")
    try:
        with open(args.scene, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SuborbifoldError(f"cannot read scene file: {exc}") from exc
    return read_scene(text, max_order=args.max_order)


def _emit(args, body: dict, lines: list[str], seconds=None) -> None:
    """Write the report to the --report file, if asked, then to stdout (a
    report that cannot be written is not printed): ``lines`` as text, or
    JSON ``body`` plus the subcommand as "command" and ``seconds`` in "timing"."""
    if args.format == "machine":
        output = dump_machine_report({**body, "command": args.command,
                                      "timing": {"seconds": seconds}})
    else:
        output = "\n".join(lines) + "\n"
    if args.report is not None:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            raise SuborbifoldError(f"cannot write report file: {exc}") from exc
    sys.stdout.write(output)


def _verdict_text(name: str, verdict) -> str:
    if verdict is None:
        return f"{name}: n/a"
    return f"{name}: {'yes' if verdict.holds else 'no'}"


def _holds(v, point) -> bool:
    return len(point) == v.ambient_dim and contains_point(v, point)


def cmd_classify(args) -> int:
    scene = _load_scene(args)
    names = sorted(scene.candidates) if args.candidate is None else [args.candidate]
    if not names:
        raise SuborbifoldError("the scene has no candidates to classify")
    cands = [_lookup(scene.candidates, name, "candidate") for name in names]
    points = [_parse_point(p) for p in args.isotropy_point or ()]
    # Each point goes to the candidates whose subspace holds it. A point on
    # none goes to all of them, and classify rejects it as it always has.
    on = [[p for p in points if _holds(c.v, p)] for c in cands]
    nowhere = [p for p in points if not any(p in held for held in on)]
    results = {}
    lines = []
    for name, cand, held in zip(names, cands, on):
        mine = tuple(p for p in points if p in held or p in nowhere)
        report = classify(cand, search_all_delta=args.search_all_delta,
                          isotropy_points=mine)
        results[name] = {
            "candidate": candidate_json(cand),
            "classification": classification_json(report),
        }
        lines.append(f"[{name}]")
        lines.append("  " + _verdict_text("saturated", report.saturated))
        lines.append("  " + _verdict_text("full", report.full))
        lines.append("  " + _verdict_text("embedded", report.embedded))
        for label, verdict in (("saturation", report.saturated), ("fullness", report.full)):
            if verdict is not None and verdict.witness is not None:
                lines.append(f"  {label} witness: {verdict.witness.describe()}")
        for point, fp in report.induced_isotropy_at:
            lines.append(f"  isotropy at {point_str(point)}: "
                         f"{fp.describe()}")
    _emit(args, {"results": results}, lines)
    return EXIT_OK


def cmd_isotropy(args) -> int:
    scene = _load_scene(args)
    point = _parse_point(args.point)
    if args.candidate is not None:
        cand = _lookup(scene.candidates, args.candidate, "candidate")
        fp = isotropy_sub_point(cand, point)
        subject = f"candidate {args.candidate}"
    else:
        group = _lookup(scene.groups, args.group, "group")
        fp = isotropy_point(chart_from_group(group), point)
        subject = f"group {args.group}"
    body = {
        "subject": subject,
        "point": vec_json(point),
        "fingerprint": fingerprint_json(fp),
    }
    _emit(args, body, [f"isotropy of {subject} at {point_str(point)}: {fp.describe()}"])
    return EXIT_OK


def _construction(args, result) -> int:
    lines = [
        f"{args.command}: candidate of dimension {result.v.dim} "
        f"in ambient dimension {result.chart.ambient_dim}",
        f"  subgroup order {result.delta.order} "
        f"of chart group order {result.chart.group.order}",
    ]
    _emit(args, {"result": candidate_json(result)}, lines)
    return EXIT_OK


def cmd_intersect(args) -> int:
    scene = _load_scene(args)
    a = _lookup(scene.candidates, args.left, "candidate")
    b = _lookup(scene.candidates, args.right, "candidate")
    return _construction(args, intersect_full(a, b))


def cmd_preimage(args) -> int:
    scene = _load_scene(args)
    f = _lookup(scene.maps, args.map, "map")
    if args.value is not None:
        result = regular_value_preimage(f, _parse_point(args.value))
    else:
        result = preimage_suborbifold(f, _lookup(scene.candidates, args.target, "candidate"))
    return _construction(args, result)


def cmd_graph(args) -> int:
    f = _lookup(_load_scene(args).maps, args.map, "map")
    return _construction(args, graph_suborbifold(f, args.max_order))


def cmd_image(args) -> int:
    scene = _load_scene(args)
    f = _lookup(scene.maps, args.map, "map")
    cand = _lookup(scene.candidates, args.candidate, "candidate")
    return _construction(args, image_suborbifold(f, cand))


def cmd_fibered(args) -> int:
    maps = _load_scene(args).maps
    f1 = _lookup(maps, args.left_map, "map")
    f2 = _lookup(maps, args.right_map, "map")
    return _construction(args, fibered_product(f1, f2, args.max_order))


def cmd_metric_check(args) -> int:
    if args.scene is not None:
        probes = _load_scene(args).probes
    else:
        probes = corpus_mod.metric_probes()
        # The corpus charts are built once per process without the bound, so
        # the bound is checked on their orders, as a scene's groups are when built.
        if any(probe.candidate.chart.group.order > args.max_order
               for probe in probes.values()):
            raise NotFiniteWithinBound(args.max_order)
    if not probes:
        raise SuborbifoldError("the scene has no metric probes to check")
    if args.probe is not None:
        probes = {args.probe: _lookup(probes, args.probe, "probe")}
    results = {}
    lines = []
    all_passed = True
    for name, probe in sorted(probes.items()):
        report = lemma_metrics_check(probe.with_settings(args.depth, args.tol))
        results[name] = metric_report_json(report)
        all_passed = all_passed and report.passed
        status = "PASS" if report.passed else "FAIL"
        lines.append(f"[{name}] {status} max deviation "
                     f"{report.max_deviation:.3e} (tol {report.tolerance:.1e})")
        if report.hint:
            lines.append(f"  hint: {report.hint}")
    _emit(args, {"results": results}, lines)
    return EXIT_OK if all_passed else EXIT_MISMATCH


def cmd_corpus(args) -> int:
    report = corpus_mod.run_corpus(name_filter=args.filter)
    if not report.results:
        raise SuborbifoldError(f"no corpus case matches filter {args.filter!r}")
    mismatches = dict(report.mismatches)
    lines = []
    for name in report.results:
        lines.append(f"[{name}] {'FAIL' if name in mismatches else 'PASS'}")
        for key, (expected, observed) in mismatches.get(name, {}).items():
            lines.append(f"  {key}: expected {expected}, observed {observed}")
    lines.append(
        f"{len(report.results)} cases, {len(report.mismatches)} mismatches "
        f"({report.elapsed_seconds:.2f}s)"
    )
    _emit(args, {"results": report.results, "ok": report.ok}, lines,
          report.elapsed_seconds)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--report", help="also write the output to this file")
    output.add_argument("--format", choices=["text", "machine"], default="text")
    scene = argparse.ArgumentParser(add_help=False)
    scene.add_argument("--scene", help="path to a JSON scene file")
    scene.add_argument("--max-order", type=_max_order, default=DEFAULT_MAX_ORDER,
                       help=f"bound on generated group orders, 1..{DEFAULT_MAX_ORDER}")
    common = [output, scene]

    parser = argparse.ArgumentParser(
        prog="suborb",
        description="Exact classification of affine suborbifold candidates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=common,
                       help="classify candidates from a scene")
    p.add_argument("--candidate", help="candidate name (default: all)")
    p.add_argument("--search-all-delta", action="store_true",
                   help="for embeddedness, search every subgroup of the chart group, "
                        "not only the candidate's")
    p.add_argument("--isotropy-point", action="append",
                   help="comma-separated point; repeatable")
    p.set_defaults(handler="cmd_classify")

    p = sub.add_parser("isotropy", parents=common,
                       help="isotropy fingerprint at a point")
    subject = p.add_mutually_exclusive_group(required=True)
    subject.add_argument("--candidate", help="candidate name (suborbifold isotropy)")
    subject.add_argument("--group", help="group name (ambient isotropy)")
    p.add_argument("--point", required=True, help="comma-separated point")
    p.set_defaults(handler="cmd_isotropy")

    p = sub.add_parser("intersect", parents=common,
                       help="transverse intersection of two full candidates")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(handler="cmd_intersect")

    p = sub.add_parser("preimage", parents=common,
                       help="preimage of a full candidate or a regular value")
    p.add_argument("--map", required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--target", help="target candidate name")
    target.add_argument("--value", help="regular value, comma-separated")
    p.set_defaults(handler="cmd_preimage")

    p = sub.add_parser("graph", parents=common,
                       help="graph of an equivariant map as a candidate")
    p.add_argument("--map", required=True)
    p.set_defaults(handler="cmd_graph")

    p = sub.add_parser("image", parents=common,
                       help="image of a candidate under an injective immersion")
    p.add_argument("--map", required=True)
    p.add_argument("--candidate", required=True)
    p.set_defaults(handler="cmd_image")

    p = sub.add_parser("fibered-product", parents=common,
                       help="fibered product of two submersions")
    p.add_argument("--left-map", required=True)
    p.add_argument("--right-map", required=True)
    p.set_defaults(handler="cmd_fibered")

    p = sub.add_parser("metric-check", parents=common,
                       help="quotient vs intrinsic metric coincidence")
    p.add_argument("--probe", help="probe name (default: all)")
    p.add_argument("--depth", type=int, default=None,
                   help="partition depth (default: the probe's)")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance (default: the probe's)")
    p.set_defaults(handler="cmd_metric_check")

    p = sub.add_parser("corpus", parents=[output],
                       help="run the built-in example corpus")
    p.add_argument("--filter", help="substring filter on case names")
    p.set_defaults(handler="cmd_corpus")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_attach_negative_points(argv))
    try:
        # The handler is named in the parser and looked up per call, so the
        # shared parser always runs the module's current cmd_* function.
        return globals()[args.handler](args)
    except SuborbifoldError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except AssertionError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
