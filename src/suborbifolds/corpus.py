"""Built-in corpus: worked examples with known classification verdicts.

Each case builds a candidate, classifies it and compares against the
expected verdicts. The corpus doubles as the ground truth for the
acceptance suite and the `corpus` CLI command.

The charts of the cases and of the metric probes are constants: each is
built once per process, on first use, and every case and probe reads that
one copy with its product rows and orbit-of-V stores. Candidates, probes
and verdicts are still built on every call. The chart builders
(``rot4_chart()``, ``klein_chart()``, ...) return fresh charts, and each
candidate builder (``rotation_line_candidate(chart)``, ...) uses the chart
it is given.
"""
from __future__ import annotations

import functools
import time
from fractions import Fraction

from .classify import (
    ChartModel,
    SuborbifoldCandidate,
    classify,
    full_obstruction_probe,
)
from .groups import generate_group, realify
from .linalg import (
    affine_subspace,
    mat,
    single_point,
    vec,
    whole_space,
)
from .maps import product_chart
from .metric import MetricProbe
from .records import record

ROT4_GEN = mat([[0, -1], [1, 0]])
ROT2 = mat([[-1, 0], [0, -1]])
SIGN_X = mat([[-1, 0], [0, 1]])
SIGN_Y = mat([[1, 0], [0, -1]])


def rot4_chart() -> ChartModel:
    return ChartModel(generate_group([ROT4_GEN]))


def line_chart() -> ChartModel:
    return ChartModel(generate_group([mat([[-1]])]))


def klein_chart() -> ChartModel:
    return ChartModel(generate_group([SIGN_X, SIGN_Y]))


def z4_realified_chart() -> ChartModel:
    gen = realify([[(0, 1), (0, 0)], [(0, 0), (-1, 0)]])
    return ChartModel(generate_group([gen]))


def x_axis():
    return affine_subspace([0, 0], [[1, 0]])


def plane_diagonal():
    return affine_subspace([0, 0], [[1, 1]])


def r4_diagonal():
    return affine_subspace([0, 0, 0, 0], [[1, 0, 1, 0], [0, 1, 0, 1]])


def second_complex_axis():
    return affine_subspace([0, 0, 0, 0], [[0, 0, 1, 0], [0, 0, 0, 1]])


@functools.cache
def _shared(build):
    """What ``build()`` returns, built once per process on first use."""
    return build()


def _rot4_squared():
    rot4 = _shared(rot4_chart)
    return product_chart(rot4, rot4)


def rotation_line_candidate(chart: ChartModel) -> SuborbifoldCandidate:
    """Rotation-by-pi subgroup acting on the x-axis in the order-4 chart."""
    delta = chart.group.subgroup_from_matrices([ROT2])
    return SuborbifoldCandidate(chart, delta, x_axis())


def diagonal_half_turn_candidate(chart: ChartModel) -> SuborbifoldCandidate:
    """Diagonal line under the sign-flip group, subgroup {I, -I}."""
    delta = chart.group.subgroup_from_matrices([ROT2])
    return SuborbifoldCandidate(chart, delta, plane_diagonal())


def complex_axis_candidate(chart: ChartModel) -> SuborbifoldCandidate:
    """Second complex axis under the realified order-4 action."""
    return SuborbifoldCandidate(
        chart, chart.group.full_subgroup(), second_complex_axis()
    )


def product_diagonal_candidate(product) -> SuborbifoldCandidate:
    """Diagonal of the doubled order-4 chart ``product_chart(rot, rot)``
    with the diagonal subgroup."""
    delta = product.combined.group.subgroup_from_indices(
        product.pair_index(g, g) for g in range(product.left.group.order)
    )
    return SuborbifoldCandidate(product.combined, delta, r4_diagonal())


def point_candidate(chart: ChartModel) -> SuborbifoldCandidate:
    return SuborbifoldCandidate(
        chart, chart.group.full_subgroup(), single_point([0] * chart.ambient_dim)
    )


def open_candidate(chart: ChartModel) -> SuborbifoldCandidate:
    return SuborbifoldCandidate(
        chart, chart.group.full_subgroup(), whole_space(chart.ambient_dim)
    )


@record
class CorpusCase:
    name: str
    build: callable
    expected: dict
    search_all_delta: bool = False
    checks: tuple = ()

    def observe(self) -> dict:
        """The three verdicts and the values of the case's checks."""
        cand = self.build()
        report = classify(cand, search_all_delta=self.search_all_delta)
        observed = {
            "saturated": report.saturated.holds,
            "full": None if report.full is None else report.full.holds,
            "embedded": None if report.embedded is None else report.embedded.holds,
        }
        for check in self.checks:
            observed.update(check(cand, report))
        return observed


def _fullness_witness_check(expected_matrix, expected_point):
    def check(cand, report):
        witness = report.full.witness
        ok = (
            witness is not None
            and witness.element.matrix == expected_matrix
            and witness.point == vec(expected_point)
        )
        return {"fullness_witness": ok}

    return check


def _obstruction_check(point, expect_consistent):
    def check(cand, report):
        consistent = full_obstruction_probe(cand, point)
        return {
            "obstruction_consistent": consistent,
            "obstruction_expected": consistent == expect_consistent,
        }

    return check


def _no_complement_check(cand, report):
    cert = report.embedded.certificate
    return {
        "no_complement_certificate": cert is not None,
        "searched_all_delta": report.embedded.searched_all_delta,
    }


CASES = (
    CorpusCase(
        "rotation-line",
        lambda: rotation_line_candidate(_shared(rot4_chart)),
        {"saturated": True, "full": False, "embedded": True,
         "fullness_witness": True},
        checks=(_fullness_witness_check(ROT4_GEN, [0, 0]),),
    ),
    CorpusCase(
        "point-in-rotation-chart",
        lambda: point_candidate(_shared(rot4_chart)),
        {"saturated": True, "full": True, "embedded": True},
    ),
    CorpusCase(
        "point-in-line-chart",
        lambda: point_candidate(_shared(line_chart)),
        {"saturated": True, "full": True, "embedded": True},
    ),
    CorpusCase(
        "point-in-sign-chart",
        lambda: point_candidate(_shared(klein_chart)),
        {"saturated": True, "full": True, "embedded": True},
    ),
    CorpusCase(
        "open-rotation-chart",
        lambda: open_candidate(_shared(rot4_chart)),
        {"saturated": True, "full": True, "embedded": True},
    ),
    CorpusCase(
        "open-line-chart",
        lambda: open_candidate(_shared(line_chart)),
        {"saturated": True, "full": True, "embedded": True},
    ),
    CorpusCase(
        "open-sign-chart",
        lambda: open_candidate(_shared(klein_chart)),
        {"saturated": True, "full": True, "embedded": True},
    ),
    CorpusCase(
        "product-diagonal",
        lambda: product_diagonal_candidate(_shared(_rot4_squared)),
        {"saturated": True, "full": False, "embedded": True},
    ),
    CorpusCase(
        "diagonal-half-turn",
        lambda: diagonal_half_turn_candidate(_shared(klein_chart)),
        {"saturated": True, "full": False, "embedded": True,
         "obstruction_expected": True, "obstruction_consistent": False},
        checks=(_obstruction_check([0, 0], expect_consistent=False),),
    ),
    CorpusCase(
        "complex-axis",
        lambda: complex_axis_candidate(_shared(z4_realified_chart)),
        {"saturated": True, "full": True, "embedded": False,
         "no_complement_certificate": True, "searched_all_delta": True},
        search_all_delta=True,
        checks=(_no_complement_check,),
    ),
)


def metric_probes() -> dict[str, MetricProbe]:
    """Corpus probes for the metric-coincidence lemma.

    The probes are on the candidates of the corpus cases of the same name,
    on the rot4 and Klein charts those cases read, built once per process;
    each candidate and probe is built, with its checks, on every call.
    """
    return {
        "rotation-line": MetricProbe(
            rotation_line_candidate(_shared(rot4_chart)),
            tuple(
                (vec([a, 0]), vec([b, 0]))
                for a, b in [(1, -2), (0, 1), (Fraction(1, 2), Fraction(-1, 3)),
                             (2, 2), (-1, 3)]
            ),
        ),
        "diagonal-half-turn": MetricProbe(
            diagonal_half_turn_candidate(_shared(klein_chart)),
            tuple(
                (vec([a, a]), vec([b, b]))
                for a, b in [(1, -1), (0, 2), (Fraction(1, 3), Fraction(-1, 2)),
                             (-2, 1), (1, 1)]
            ),
        ),
    }


@record
class CorpusReport:
    """Per case name, its expected and observed values and whether they
    agree, as the ``corpus`` command reports them; per failing case, its
    name and the (expected, observed) pair of each key that differs."""

    results: dict
    mismatches: list
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_corpus(name_filter: str | None = None, cases=CASES) -> CorpusReport:
    results, mismatches = {}, []
    start = time.perf_counter()
    for case in cases:
        if name_filter and name_filter not in case.name:
            continue
        observed = case.observe()
        mismatched = {
            key: (case.expected[key], observed.get(key))
            for key in case.expected
            if observed.get(key) != case.expected[key]
        }
        results[case.name] = {
            "expected": case.expected,
            "observed": observed,
            "passed": not mismatched,
        }
        if mismatched:
            mismatches.append((case.name, mismatched))
    return CorpusReport(results, mismatches, time.perf_counter() - start)
