"""Declarative scene files and machine-readable report serialization.

A scene is a JSON document naming groups (generator lists), subgroups,
affine subspaces, candidates, equivariant maps and metric probes, plus a
list of queries. Rationals are JSON integers or strings "p/q" (the "/q"
may be omitted); parsing is exact. Group generators, subgroup generators,
subspaces and a map's linear part and offset are read straight into
integers (``linalg.read_rational``): an int or a plain "p" or "p/q"
string builds no Fraction, and any other form goes through ``rat``,
which reads decimal strings and refuses exponents, booleans and zero
denominators. A probe's points are kept as Fractions, so they are read
as Fractions. The machine report format is deterministic JSON with
sorted keys; timing lives under a single "timing" key so reports can be
compared modulo timing.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .classify import (
    ClassificationReport,
    EmbeddedResult,
    FullnessWitness,
    SaturationWitness,
    SuborbifoldCandidate,
    Verdict,
    chart_from_group,
)
from .errors import InvalidMetricSetting, NotSubgroup, ParseError, UnresolvedName
from .groups import (
    Fingerprint,
    FiniteMatrixGroup,
    GroupHom,
    Subgroup,
    generate_group,
)
from .linalg import (
    AffineSubspace,
    DimensionMismatch,
    affine_subspace,
    rat_str,
    vec,
)
from .maps import EquivariantAffineMap
from .metric import DEFAULT_DEPTH, DEFAULT_TOLERANCE, MetricProbe, MetricReport
from .records import field, record


@record(frozen=False)
class SceneFile:
    groups: dict[str, FiniteMatrixGroup] = field(default_factory=dict)
    subgroups: dict[str, Subgroup] = field(default_factory=dict)
    subspaces: dict[str, AffineSubspace] = field(default_factory=dict)
    candidates: dict[str, SuborbifoldCandidate] = field(default_factory=dict)
    maps: dict[str, EquivariantAffineMap] = field(default_factory=dict)
    probes: dict[str, MetricProbe] = field(default_factory=dict)
    queries: list[dict] = field(default_factory=list)


def _lookup(table: dict, name: str, kind: str):
    if name not in table:
        raise UnresolvedName(f"unknown {kind} {name!r}")
    return table[name]


def _section(raw: dict, key: str) -> dict:
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ParseError(f"scene section {key!r} must be a JSON object")
    return section


def _element_indices(values, order: int, what: str) -> list[int]:
    """The values as element indices, each checked to lie in 0..order-1."""
    values = list(values)
    for v in values:
        if type(v) is not int or not 0 <= v < order:
            raise ParseError(f"{what}: element index {v!r} is not in 0..{order - 1}")
    return values


def parse_scene(text: str, max_order: int | None = None) -> SceneFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid scene JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"invalid scene JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("scene must be a JSON object")
    scene = SceneFile()
    kwargs = {} if max_order is None else {"max_order": max_order}
    try:
        for name, gens in _section(raw, "groups").items():
            if not isinstance(gens, list) or not gens:
                raise ParseError(f"group {name!r} must list at least one generator")
            scene.groups[name] = generate_group(gens, **kwargs)
        for name, spec in _section(raw, "subgroups").items():
            parent = _lookup(scene.groups, spec["parent"], "group")
            if "generator_indices" in spec:
                scene.subgroups[name] = parent.subgroup_generated_by(_element_indices(
                    spec["generator_indices"], parent.order, f"subgroup {name!r}"))
            else:
                try:
                    scene.subgroups[name] = parent.subgroup_from_matrices(spec["generators"])
                except NotSubgroup as exc:
                    raise ParseError(f"subgroup {name!r}: {exc}") from exc
        for name, spec in _section(raw, "subspaces").items():
            scene.subspaces[name] = affine_subspace(
                spec["base"], spec.get("basis", [])
            )
        for name, spec in _section(raw, "candidates").items():
            group = _lookup(scene.groups, spec["group"], "group")
            if "subgroup" in spec:
                subgroup = _lookup(scene.subgroups, spec["subgroup"], "subgroup")
            else:
                subgroup = group.full_subgroup()
            subspace = _lookup(scene.subspaces, spec["subspace"], "subspace")
            scene.candidates[name] = SuborbifoldCandidate(
                chart_from_group(group), subgroup, subspace
            )
        for name, spec in _section(raw, "maps").items():
            domain = chart_from_group(
                _lookup(scene.groups, spec["domain"], "group")
            )
            codomain = chart_from_group(
                _lookup(scene.groups, spec["codomain"], "group")
            )
            if not all(isinstance(p, list) and len(p) == 2 for p in spec["theta"]):
                raise ParseError(f"map {name!r}: theta must list [element, image] pairs")
            theta_pairs = {}
            for element, image in spec["theta"]:
                if element in theta_pairs:
                    raise ParseError(f"map {name!r}: theta lists element {element!r} twice")
                theta_pairs[element] = image
            _element_indices(theta_pairs, domain.group.order, f"map {name!r} theta")
            if set(theta_pairs) != set(range(domain.group.order)):
                raise ParseError(
                    f"map {name!r}: theta must map every domain element index"
                )
            images = _element_indices(
                (theta_pairs[i] for i in range(domain.group.order)),
                codomain.group.order, f"map {name!r} theta image",
            )
            theta = GroupHom(domain.group, codomain.group, tuple(images))
            scene.maps[name] = EquivariantAffineMap(
                domain, codomain, spec["matrix"], spec["offset"], theta
            )
        for name, spec in _section(raw, "probes").items():
            group = _lookup(scene.groups, spec["group"], "group")
            subgroup = _lookup(scene.subgroups, spec["subgroup"], "subgroup")
            subspace = _lookup(scene.subspaces, spec["subspace"], "subspace")
            if not all(isinstance(p, list) and len(p) == 2 for p in spec["pairs"]):
                raise ParseError(f"probe {name!r}: pairs must list [x, y] point pairs")
            pairs = tuple((vec(x), vec(y)) for x, y in spec["pairs"])
            try:
                scene.probes[name] = MetricProbe(
                    group, subgroup, subspace, pairs,
                    spec.get("depth", DEFAULT_DEPTH), spec.get("tolerance", DEFAULT_TOLERANCE),
                )
            except InvalidMetricSetting as exc:
                raise InvalidMetricSetting(f"probe {name!r}: {exc}") from exc
        scene.queries = raw.get("queries", [])
        if not isinstance(scene.queries, list):
            raise ParseError("scene queries must be a JSON list")
        for query in scene.queries:
            if not isinstance(query, dict) or "command" not in query:
                raise ParseError(f"query is not an object with a command: {query}")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed scene entry: {exc}") from exc
    except DimensionMismatch as exc:
        raise ParseError(str(exc)) from exc
    return scene


# ---------------------------------------------------------------------------
# Report serialization (deterministic, rationals as strings)


def vec_json(v) -> list[str]:
    return [rat_str(x) for x in v]


def mat_json(m) -> list[list[str]]:
    return [[rat_str(x) for x in row] for row in m]


def subspace_json(v: AffineSubspace) -> dict:
    return {
        "ambient_dim": v.ambient_dim,
        "base": vec_json(v.base_point),
        "basis": [vec_json(b) for b in v.basis],
        "dim": v.dim,
    }


def fingerprint_json(fp: Fingerprint) -> dict:
    return {
        "order": fp.order,
        "element_orders": list(fp.element_orders),
        "abelian": fp.abelian,
    }


def subgroup_json(s: Subgroup) -> dict:
    return {"member_indices": list(s.members)}


def witness_json(w: SaturationWitness | FullnessWitness | None) -> dict | None:
    if w is None:
        return None
    return {
        "element_index": w.element.index,
        "element_matrix": mat_json(w.element.matrix),
        "point": vec_json(w.point),
    }


def verdict_json(v: Verdict | None) -> dict | None:
    if v is None:
        return None
    return {"holds": v.holds, "witness": witness_json(v.witness)}


def embedded_json(e: EmbeddedResult | None) -> dict | None:
    if e is None:
        return None
    out: dict = {"holds": e.holds, "searched_all_delta": e.searched_all_delta}
    if e.effective_delta is not None:
        out["effective_delta"] = subgroup_json(e.effective_delta)
    if e.certificate is not None:
        out["no_complement_certificate"] = {
            "group_order": e.certificate.group_order,
            "kernel_order": e.certificate.kernel_order,
            "sections_checked": e.certificate.sections_checked,
        }
    return out


def classification_json(report: ClassificationReport) -> dict:
    return {
        "saturated": verdict_json(report.saturated),
        "full": verdict_json(report.full),
        "embedded": embedded_json(report.embedded),
        "kernel": subgroup_json(report.kernel),
        "isotropy": [
            {"point": vec_json(p), "fingerprint": fingerprint_json(fp)}
            for p, fp in report.induced_isotropy_at
        ],
    }


def candidate_json(cand: SuborbifoldCandidate) -> dict:
    return {
        "ambient_dim": cand.chart.ambient_dim,
        "group_order": cand.chart.group.order,
        "delta": subgroup_json(cand.delta),
        "subspace": subspace_json(cand.v),
    }


def metric_report_json(report: MetricReport) -> dict:
    return {
        "passed": report.passed,
        "max_deviation": report.max_deviation,
        "tolerance": report.tolerance,
        "hint": report.hint,
        "pairs": [
            {
                "x": vec_json(p.x),
                "y": vec_json(p.y),
                "quotient": p.quotient,
                "intrinsic": p.intrinsic,
                "deviation": p.deviation,
            }
            for p in report.pairs
        ],
    }


def dump_machine_report(payload: dict) -> str:
    """Canonical JSON: sorted keys, no float repr surprises beyond repr().

    The bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)``
    and a newline, written here because ``json`` encodes an indented
    document in pure Python. A payload holding anything but dicts with
    string keys, lists, tuples, strings, ints, floats, booleans and None is
    left to ``json.dumps`` whole, so it is written, or refused, as
    ``json`` would.
    """
    out: list[str] = []
    try:
        _write_json(payload, "\n", out.append)
    except _NotPlainJSON:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


_INFINITY = float("inf")


class _NotPlainJSON(Exception):
    """A value ``_write_json`` leaves to ``json.dumps``."""


def _write_json(value, newline: str, append) -> None:
    """Pass value's JSON text, in pieces, to append, as ``json.dumps`` writes
    it with ``sort_keys=True, indent=2``; newline is the line break and
    indent of value's own line."""
    kind = type(value)
    if kind is str:
        append(encode_basestring_ascii(value))
    elif kind is int:
        append(int.__repr__(value))
    elif kind is float:
        if value != value:
            append("NaN")
        elif value == _INFINITY:
            append("Infinity")
        elif value == -_INFINITY:
            append("-Infinity")
        else:
            append(float.__repr__(value))
    elif value is None or kind is bool:
        append("null" if value is None else "true" if value else "false")
    elif kind is dict:
        if not value:
            append("{}")
            return
        inner = newline + "  "
        separator, following = "{" + inner, "," + inner
        for key in sorted(value):
            if type(key) is not str:
                raise _NotPlainJSON
            append(separator)
            separator = following
            append(encode_basestring_ascii(key))
            append(": ")
            _write_json(value[key], inner, append)
        append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            append("[]")
            return
        inner = newline + "  "
        separator, following = "[" + inner, "," + inner
        for item in value:
            append(separator)
            separator = following
            _write_json(item, inner, append)
        append(newline + "]")
    else:
        raise _NotPlainJSON


def strip_timing(payload):
    """Recursively drop timing fields (for byte-identical comparisons)."""
    if isinstance(payload, dict):
        return {
            k: strip_timing(v)
            for k, v in payload.items()
            if k not in ("timing", "seconds", "elapsed_seconds")
        }
    if isinstance(payload, list):
        return [strip_timing(v) for v in payload]
    return payload
