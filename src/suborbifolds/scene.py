"""Declarative scene files and machine-readable report serialization.

A scene is a JSON document naming groups (generator lists), subgroups,
affine subspaces, candidates, equivariant maps and metric probes; other
keys are ignored. Rationals are JSON integers or strings "p/q" (the "/q"
may be omitted); parsing is exact. Group generators, subgroup generators,
subspaces and a map's linear part and offset are read straight into
integers (``linalg.read_rational``): an int or a plain "p" or "p/q"
string builds no Fraction, and any other form goes through ``rat``,
which reads decimal strings and refuses exponents, underscores,
booleans, zero denominators and every other JSON type. A probe's points
are kept as Fractions, so they are read as Fractions.

A scene is checked in two steps. ``read_scene`` checks the structure of
every entry when the file is read: the sections, the JSON shape of each
entry, the keys it needs, every rational (read into its integer form),
that a group's generators are square and of one size and a subspace's
basis vectors as long as its base point, every name an entry refers to
(``UnresolvedName`` when unknown), and a probe's depth, tolerance and
pairs. Each value's JSON type is checked where it is read: a list where
a list belongs (``linalg._entries``), a rational, a name that is a
string, a theta element that is an int. Each section's reader returns
its entry's builder, a function of no arguments that holds the checked
values (a probe's reuses the candidate reader's). A group, subgroup,
subspace, candidate, map or probe is built the first time it is looked
up, and kept, so an entry read twice is built once. A subspace's canonical form
(``linalg.read_subspace``) is computed then, and the closure
(``--max-order``, infinite groups, singular generators), element indices
against the group order, subgroup generators in their parent, theta
covering the domain, candidate invariance, map equivariance and the
probe's orthogonality and pairs on its subspace are checked then.
The CLI builds only what its command reads, so such a fault in an entry
it does not read is not reported. ``parse_scene`` reads, then builds
every entry in section order, and reports any fault.

Every fault found while an entry is read or built names that entry in
one format, "scene section 'groups': entry 'rot4': group closure
exceeded max_order=2": each section is an ``_Entries``, which prefixes
the message once and keeps the error's class and attributes, with a
``DimensionMismatch`` as a ``ParseError``. A fault of an entry that
another one reads, as a candidate's subgroup, names only the entry it
is in. A ``KeyError`` or ``TypeError``, whether raised while a scene is
read or while an entry is built, is a fault of the package, not of the
scene, and is not translated.

The machine report format is deterministic JSON with sorted keys;
timing lives under a single "timing" key so reports can be compared
modulo timing.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from functools import partial
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
from .errors import ParseError, SuborbifoldError, UnresolvedName
from .groups import (
    Fingerprint,
    FiniteMatrixGroup,
    GroupHom,
    Subgroup,
    generate_group,
    read_generators,
)
from .linalg import (
    AffineSubspace,
    DimensionMismatch,
    _entries,
    int_matrix,
    int_vector,
    rat_str,
    read_subspace,
    vec,
)
from .maps import EquivariantAffineMap, map_from_forms
from .metric import (
    DEFAULT_DEPTH,
    DEFAULT_TOLERANCE,
    MetricProbe,
    MetricReport,
    check_settings,
)
from .records import record


@record
class SceneFile:
    """A scene's entries by section and name. ``parse_scene`` gives plain
    dicts; from ``read_scene`` each section is a mapping that builds an
    entry on its first lookup."""

    groups: Mapping[str, FiniteMatrixGroup]
    subgroups: Mapping[str, Subgroup]
    subspaces: Mapping[str, AffineSubspace]
    candidates: Mapping[str, SuborbifoldCandidate]
    maps: Mapping[str, EquivariantAffineMap]
    probes: Mapping[str, MetricProbe]


class _Entries(Mapping):
    """One scene section's entries by name. When the section is made, each
    entry's JSON value is read by ``read(where, value)`` into its recipe, a
    function of no arguments that builds the entry the first time it is
    looked up; the entry is then kept. A ``SuborbifoldError`` raised in
    either step is raised again with its message prefixed by the section
    and the entry, once, keeping its class and attributes, apart from a
    ``DimensionMismatch``, which becomes a ``ParseError``. A fault that
    another entry has located already, as a candidate's group's, passes
    unchanged."""

    def __init__(self, raw: dict, section: str, read):
        self.section = section
        self.recipes: dict = {}
        self._built: dict = {}
        for name, value in _section(raw, section).items():
            try:
                self.recipes[name] = read(_where(section, name), value)
            except SuborbifoldError as exc:
                raise self._located(exc, name)

    def _located(self, exc: SuborbifoldError, name: str) -> SuborbifoldError:
        message = str(exc)
        if not message.startswith("scene section "):
            message = f"{_where(self.section, name)}: {message}"
        if isinstance(exc, DimensionMismatch):
            return ParseError(message)
        exc.args = (message,)
        return exc

    def __getitem__(self, name):
        built = self._built
        if name in built:
            return built[name]
        try:
            entry = built[name] = self.recipes[name]()
        except SuborbifoldError as exc:
            raise self._located(exc, name)
        return entry

    def __contains__(self, name) -> bool:
        return name in self.recipes

    def __iter__(self):
        return iter(self.recipes)

    def __len__(self) -> int:
        return len(self.recipes)


def _known(table, name: str, kind: str) -> str:
    """The name, or ``UnresolvedName`` when the table has no such entry; a
    name that is not a string is a ``ParseError``."""
    if type(name) is not str:
        raise ParseError(f"expected the name of a {kind}, got {name!r}")
    if name not in table:
        raise UnresolvedName(f"unknown {kind} {name!r}")
    return name


def _lookup(table, name: str, kind: str):
    return table[_known(table, name, kind)]


def _section(raw: dict, key: str) -> dict:
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ParseError(f"scene section {key!r} must be a JSON object")
    return section


def _where(section: str, name: str) -> str:
    return f"scene section {section!r}: entry {name!r}"


class _Spec(dict):
    """A scene entry's JSON object; a key it lacks is a ``ParseError``
    naming the section, the entry and the key (``where``)."""

    def __init__(self, where: str, spec):
        self.where = where
        if not isinstance(spec, dict):
            raise ParseError(f"{where} must be a JSON object")
        super().__init__(spec)

    def __missing__(self, key):
        raise ParseError(f"{self.where} lacks the key {key!r}")


def _element_indices(values, order: int, what: str) -> list[int]:
    """The values as element indices, each checked to lie in 0..order-1."""
    values = list(values)
    for v in values:
        if type(v) is not int or not 0 <= v < order:
            raise ParseError(f"{what} {v!r} is not in 0..{order - 1}")
    return values


def read_scene(text: str, max_order: int | None = None) -> SceneFile:
    """The scene in text, read and checked for structure, with each group,
    subgroup, candidate, map and probe built the first time it is looked
    up (see the module docstring for what is checked when)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid scene JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"invalid scene JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("scene must be a JSON object")
    kwargs = {} if max_order is None else {"max_order": max_order}

    def read_group(where, gens):
        return partial(generate_group, read_generators(_entries(gens, "the generators")),
                       **kwargs)

    def read_subgroup(where, spec):
        spec = _Spec(where, spec)
        parent = _known(groups, spec["parent"], "group")
        if "generator_indices" in spec:
            indices = list(_entries(spec["generator_indices"], "the generator indices"))
            forms = None
        else:
            forms = [int_matrix(m) for m in _entries(spec["generators"], "the generators")]

        def build():
            group = groups[parent]
            if forms is None:
                return group.subgroup_generated_by(
                    _element_indices(indices, group.order, "generator index"))
            return group.subgroup_generated_by([group.index_of_form(m) for m in forms])
        return build

    def read_subspace_entry(where, spec):
        spec = _Spec(where, spec)
        return read_subspace(spec["base"], spec.get("basis", []))

    def read_candidate(where, spec, needs_subgroup=False):
        spec = _Spec(where, spec)
        group = _known(groups, spec["group"], "group")
        subgroup = (_known(subgroups, spec["subgroup"], "subgroup")
                    if "subgroup" in spec or needs_subgroup else None)
        subspace = _known(subspaces, spec["subspace"], "subspace")

        def build():
            chart_group = groups[group]
            delta = chart_group.full_subgroup() if subgroup is None else subgroups[subgroup]
            return SuborbifoldCandidate(chart_from_group(chart_group), delta,
                                        subspaces[subspace])
        return build

    def read_map(where, spec):
        spec = _Spec(where, spec)
        domain = _known(groups, spec["domain"], "group")
        codomain = _known(groups, spec["codomain"], "group")
        theta = _entries(spec["theta"], "theta")
        if not all(isinstance(p, list) and len(p) == 2 for p in theta):
            raise ParseError("theta must list [element, image] pairs")
        theta_pairs = {}
        for element, image in theta:
            if type(element) is not int:
                raise ParseError(f"theta: element index {element!r} is not an integer")
            if element in theta_pairs:
                raise ParseError(f"theta lists element {element!r} twice")
            theta_pairs[element] = image
        linear, offset = int_matrix(spec["matrix"]), int_vector(spec["offset"])

        def build():
            source = chart_from_group(groups[domain])
            target = chart_from_group(groups[codomain])
            order = source.group.order
            _element_indices(theta_pairs, order, "theta element")
            if set(theta_pairs) != set(range(order)):
                raise ParseError("theta must map every domain element index")
            images = _element_indices((theta_pairs[i] for i in range(order)),
                                      target.group.order, "theta image")
            theta = GroupHom(source.group, target.group, tuple(images))
            return map_from_forms(source, target, linear, offset, theta)
        return build

    def read_probe(where, spec):
        candidate = read_candidate(where, spec, needs_subgroup=True)
        spec = _Spec(where, spec)
        pairs = _entries(spec["pairs"], "the sample pairs")
        if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise ParseError("pairs must list [x, y] point pairs")
        pairs = tuple((vec(x), vec(y)) for x, y in pairs)
        depth = spec.get("depth", DEFAULT_DEPTH)
        tolerance = spec.get("tolerance", DEFAULT_TOLERANCE)
        check_settings(depth, tolerance, pairs)
        return lambda: MetricProbe(candidate(), pairs, depth, tolerance)

    groups = _Entries(raw, "groups", read_group)
    subgroups = _Entries(raw, "subgroups", read_subgroup)
    subspaces = _Entries(raw, "subspaces", read_subspace_entry)
    candidates = _Entries(raw, "candidates", read_candidate)
    maps = _Entries(raw, "maps", read_map)
    probes = _Entries(raw, "probes", read_probe)
    return SceneFile(groups, subgroups, subspaces, candidates, maps, probes)


def parse_scene(text: str, max_order: int | None = None) -> SceneFile:
    """The scene in text with every entry built: ``read_scene``, then each
    group, subgroup, subspace, candidate, map and probe in section order."""
    scene = read_scene(text, max_order)
    return SceneFile(groups=dict(scene.groups), subgroups=dict(scene.subgroups),
                     subspaces=dict(scene.subspaces), candidates=dict(scene.candidates),
                     maps=dict(scene.maps), probes=dict(scene.probes))


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
    document in pure Python. The payload may hold only dicts with string
    keys, lists, tuples, strings, ints, floats, booleans and None; anything
    else raises ``TypeError``, as it does in ``json``.
    """
    out: list[str] = []
    _write_json(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


_INFINITY = float("inf")


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
                raise TypeError(f"keys must be str, not {type(key).__name__}")
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
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def strip_timing(payload: dict) -> dict:
    """The report without its "timing" key (for byte-identical comparisons)."""
    return {k: v for k, v in payload.items() if k != "timing"}
