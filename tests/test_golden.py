"""Golden machine reports: the shipped commands' ``--format machine``
output, with timing stripped, compared byte for byte.

The reports are written as ``dump_machine_report(strip_timing(report))``,
the same layout the CLI prints. After an intended change to a report,
regenerate them from the root of a checkout with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md what changed and why.
"""
import contextlib
import io
import json
import os
import sys

import pytest

from suborbifolds import cli
from suborbifolds.scene import dump_machine_report, strip_timing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
REPORTS = {
    "corpus.json": ["corpus"],
    "metric-check.json": ["metric-check"],
    "classify_rotation_line.json": ["classify", "--scene", "scenes/rotation_line.json"],
    "classify_hyperoctahedral_b4.json": ["classify", "--scene",
                                         "scenes/hyperoctahedral_b4.json"],
}


def stripped_report(argv) -> str:
    """The command's machine report with timing stripped (run from ROOT)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "machine"])
    assert code == 0
    return dump_machine_report(strip_timing(json.loads(out.getvalue())))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_machine_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8", newline="") as fh:
        golden = fh.read()
    assert stripped_report(REPORTS[name]) == golden


def main() -> int:
    os.chdir(ROOT)
    for name, argv in sorted(REPORTS.items()):
        with open(os.path.join(GOLDEN_DIR, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(stripped_report(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
