"""One benchmark workload in its own process: set-up, timed passes, checks.

Run from the root of a checkout with ``src`` and ``perfbench`` on
``PYTHONPATH`` (``run.py`` does this). Prints one JSON object as its last
line. ``--setup-only`` prints the set-up time alone, so that ``run.py``
can take set-up samples from fresh processes.
"""
import time

import speed

speed.probe()  # the first run of the probe warms the interpreter up
SPEED_AT_START = speed.steady_probe()
SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import check  # noqa: E402
import exact  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("corpus", "ladder", "scenes")
# p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
# A traced run makes this many (untraced, traced) pass pairs, so its
# counts repeat exactly for a seed.
TRACE_PASSES = {"corpus": 3, "ladder": 1, "scenes": 2}
OUT_DIR = os.path.join("perfbench", "out")


class State:
    """What a workload builds before its first query and keeps across queries."""

    def __init__(self, workload):
        import suborbifolds

        self.pkg = suborbifolds
        self.charts = {}
        if workload in ("corpus", "scenes"):
            import suborbifolds.cli as cli

            self.cli = cli
        if workload == "corpus":
            import suborbifolds.corpus as corpus

            self.case_names = [case.name for case in corpus.CASES]
            self.expected = {case.name: dict(case.expected) for case in corpus.CASES}
        if workload == "ladder":
            for name, (_, gens) in gen.LADDER_CHARTS.items():
                group = suborbifolds.generate_group(gens)
                self.charts[name] = suborbifolds.chart_from_group(group)


def setup(workload, tracer=None):
    """Import the package and build the kept state; returns (state, seconds)."""
    if workload in ("corpus", "scenes"):
        import suborbifolds.cli  # noqa: F401  (imported before tracing so it can be patched)
    else:
        import suborbifolds  # noqa: F401

    if tracer is not None:
        tracer.install()
    try:
        state = State(workload)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return state, time.perf_counter() - SETUP_START


class Runner:
    """Draws each pass's inputs, runs the queries and checks every output."""

    def __init__(self, workload, seed, state):
        self.workload = workload
        self.seed = seed
        self.state = state
        self.checker = check.Checker()
        self.context = {}
        self._seen = set()
        self.probes = [speed.probe()]
        self.wall_s = 0.0
        if workload == "ladder":
            self.groups = gen.ladder_groups()
            for name, group in self.groups.items():
                mine = [exact.mat(m) for m in group.elements]
                if [e.matrix for e in state.charts[name].group.elements] != mine:
                    raise SystemExit(f"element order of chart {name} differs from the package's")
        if workload == "corpus":
            with open(gen.ROTATION_SCENE) as fh:
                self.context["model"] = check.scene_model(json.load(fh))
            minus = tuple(tuple(-x for x in row) for row in exact.identity(2))
            self.context["corpus_probes"] = {
                "rotation-line": [exact.identity(2), minus],
                "diagonal-half-turn": [exact.identity(2), minus],
            }
            self.context["expected"] = state.expected

    def queries(self, pass_index):
        """The pass's queries as (query, context) pairs."""
        if self.workload == "corpus":
            qs = gen.corpus_queries(self.seed, pass_index, self.state.case_names)
            return [(q, self.context) for q in qs]
        if self.workload == "ladder":
            qs = gen.ladder_queries(self.seed, pass_index, self.groups, self._seen)
            return [(q, None) for q in qs]
        os.makedirs(os.path.join(OUT_DIR, "scenes"), exist_ok=True)
        out = []
        for i, raw in enumerate(gen.scene_pass(self.seed, pass_index)):
            path = os.path.join(OUT_DIR, "scenes", f"pass{pass_index}_{i}.json")
            with open(path, "w") as fh:
                json.dump(raw, fh)
            context = {"model": check.scene_model(raw)}
            out += [(q, context) for q in gen.scene_queries(path)]
        return out

    def execute(self, q):
        """The timed part of one query."""
        if "argv" in q:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.state.cli.main(q["argv"])
            return rc, stdout.getvalue()
        pkg = self.state.pkg
        chart = self.state.charts[q["chart"]]
        if q["kind"] == "isotropy_point":
            return pkg.isotropy_point(chart, q["point"])
        base, basis = q["v"]
        cand = pkg.SuborbifoldCandidate(chart, chart.group.subgroup_from_indices(q["delta"]),
                                        pkg.affine_subspace(base, basis))
        if q["kind"] == "classify":
            return pkg.classify(cand, isotropy_points=tuple(q["points"]))
        if q["kind"] == "check_saturated":
            return pkg.check_saturated(cand)
        return pkg.induced_chart(cand)

    def run_pass(self, pairs):
        """Latencies of one pass in reference seconds (see ``speed``).

        Each output is checked after its timing ends. A speed probe follows
        every query, and the query's wall time is scaled by the probes on
        either side of it.
        """
        latencies = []
        for q, context in pairs:
            start = time.perf_counter()
            try:
                out = self.execute(q)
            except (Exception, SystemExit) as exc:  # a failed query, not a failed run
                out = exc
            wall = time.perf_counter() - start
            try:
                if context is None:
                    problems = check.ladder_problems(q, self.groups[q["chart"]], out)
                else:
                    problems = check.cli_problems(q, out, context)
            except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            self.checker.record(f"{self.workload}/{q['kind']}", problems)
            probe = speed.probe()
            latencies.append(speed.scaled(wall, self.probes[-1], probe))
            self.probes.append(probe)
            self.wall_s += wall
        return latencies


def end_to_end(latencies, setup_s):
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    state, setup_wall = setup(args.workload, tracer)
    setup_s = speed.scaled(setup_wall, SPEED_AT_START, speed.steady_probe())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    runner = Runner(args.workload, args.seed, state)
    if args.trace:
        untraced = traced = 0.0
        for p in range(TRACE_PASSES[args.workload]):
            pairs = runner.queries(p)
            # Alternate which side runs first, so neither gains from order.
            for side in ((False, True) if p % 2 == 0 else (True, False)):
                if side:
                    with tracer:
                        traced += sum(runner.run_pass(pairs))
                else:
                    untraced += sum(runner.run_pass(pairs))
        units = spans.per_layer_units()
        scale = speed.REFERENCE_S / statistics.median(runner.probes)
        metrics = {k: (v, units[k])
                   for k, v in tracer.metrics(untraced, traced, scale).items()}
        metrics["failed_ratio"] = (runner.checker.failed / runner.checker.attempted, "ratio")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans_{args.workload}.csv.gz"))
    else:
        latencies = []
        start = time.perf_counter()
        p = 0
        while time.perf_counter() - start < args.seconds or len(latencies) < MIN_SAMPLES:
            latencies += runner.run_pass(runner.queries(p))
            p += 1
        metrics = end_to_end(latencies, setup_s)
        print(f"# {args.workload} seed {args.seed}: {p} passes, {len(latencies)} queries, "
              f"{runner.wall_s:.1f} s of wall time in queries and {sum(latencies):.1f} "
              f"reference s; set-up {setup_wall:.3f} s wall", file=sys.stderr)
    for message in runner.checker.messages:
        print(f"# FAILED {message}", file=sys.stderr)
    result = {
        "correct": runner.checker.failed == 0,
        "attempted": runner.checker.attempted,
        "failed": runner.checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
