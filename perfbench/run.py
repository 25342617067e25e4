"""Benchmark entry point: build, run one workload, check it, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|ladder|scenes \\
        --seed N --seconds S --trace 0|1

Byte-compiles ``src/suborbifolds`` (the build), then runs the workload in
a fresh single-threaded process (``workload.py``). With ``--trace 0`` it
also takes set-up samples from further fresh processes and reports the
median. Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exits 2 without a result when the package
sources are missing, and 3 when a workload process fails or runs too long.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE_INIT = os.path.join("src", "suborbifolds", "__init__.py")
# Set-up samples per run: the workload process itself plus this many more.
EXTRA_SETUP_SAMPLES = 2
# A run must end within 180 s; leave room for the launcher itself.
DEADLINE_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child(args, env, deadline):
    """Run one Python child to completion; its stdout, or exit 3."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail(3, "out of time before starting a workload process")
    try:
        done = subprocess.run([sys.executable] + args, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(3, f"{' '.join(args)} did not finish in time")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(3, f"{' '.join(args)} exited with {done.returncode}")
    return done.stdout


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail(3, "a workload process printed nothing")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "scenes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, PACKAGE_INIT)):
        fail(2, f"{PACKAGE_INIT} not found; run from the root of a checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    child(["-m", "compileall", "-q", os.path.join("src", "suborbifolds")], env, deadline)

    workload = [os.path.join(HERE, "workload.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    result = last_json(child(workload, env, deadline))
    samples = []
    if not args.trace:
        samples = [result["metrics"]["setup_s"]["value"]]
        for _ in range(EXTRA_SETUP_SAMPLES):
            probe = last_json(child(workload + ["--setup-only"], env, deadline))
            samples.append(probe["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"# attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    listed = ", ".join(f"{x:.4g}" for x in samples)
    notes = {"setup_s": f"median of {len(samples)} set-ups: {listed}",
             "query_p50_ms": f"of {result['attempted']} queries",
             "query_p90_ms": f"of {result['attempted']} queries"}
    for name, metric in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes and not args.trace else ""
        print(f"# {name:44s} {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
