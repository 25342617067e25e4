"""Seeded input generator for the three benchmark workloads.

Every input is a pure function of ``(seed, pass_index)``: the same seed
gives the same inputs, and each pass draws fresh ones. The package never
sees the seed, only the candidates and scene files drawn from it.
Element indices follow the package's canonical order (sorted matrices),
which :class:`exact.Group` reproduces independently.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

import exact


def pass_rng(seed: int, pass_index: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}:{pass_index}")


def _rational(rng):
    return F(rng.randint(1, 40) * rng.choice((1, -1)), rng.randint(1, 7))


def _unit(n, i, scale=1):
    return tuple(F(scale) if j == i else F(0) for j in range(n))


# ---------------------------------------------------------------------------
# corpus: the shipped commands, repeated identically in every pass.
#
# Why: this is what users run. The metric probes do most of the work, the
# groups stay at order 16 or less, and since every pass repeats the same
# commands it bounds what any cross-call cache could gain.

ROTATION_SCENE = "scenes/rotation_line.json"


def corpus_queries(seed: int, pass_index: int, case_names) -> list[dict]:
    queries = [{"kind": "corpus", "argv": ["corpus", "--filter", name], "cases": [name]}
               for name in case_names]
    queries += [
        {"kind": "corpus", "argv": ["corpus"], "cases": list(case_names)},
        {"kind": "metric-check", "argv": ["metric-check"], "probes": "corpus"},
        {"kind": "classify", "argv": ["classify", "--scene", ROTATION_SCENE,
                                      "--isotropy-point", "0,0"],
         "scene": ROTATION_SCENE, "points": [[0, 0]]},
        {"kind": "isotropy", "argv": ["isotropy", "--scene", ROTATION_SCENE,
                                      "--candidate", "rotation_line", "--point", "0,0"],
         "scene": ROTATION_SCENE, "candidate": "rotation_line", "point": [0, 0]},
        {"kind": "metric-check", "argv": ["metric-check", "--scene", ROTATION_SCENE],
         "probes": ROTATION_SCENE},
    ]
    for q in queries:
        q["argv"] = q["argv"] + ["--format", "machine"]
    pass_rng(seed, pass_index, "corpus").shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# ladder: library calls on the hyperoctahedral charts.
#
# Why: the north-star ladder. The subgroup lattice, the saturation and
# fullness checks and RREF do nearly all the work and the metric layer none.
# Many distinct candidates share one group. Subgroups in the order-96 chart
# stay at order 48 or less, because one classify with the whole group there
# would fill a pass; the lattice cost still shows through the B3 whole-group
# candidates. B4 (order 384) is left out while its set-up alone costs more
# than a run.

LADDER_CHARTS = {
    "B2": (2, exact.hyperoctahedral(2)),
    "B3": (3, exact.hyperoctahedral(3)),
    "B3xZ2": (4, [exact.block_diag(g, ((1,),)) for g in exact.hyperoctahedral(3)]
              + [exact.flip(4, 3)]),
}
# Per chart and pass: one slot per subspace drawn, as (shape, allowed
# orders of its setwise stabilizer). Fixing the stabilizer orders keeps the
# cost of a pass the same from seed to seed; the caps keep a pass near
# seven seconds. Each subspace is classified with its whole stabilizer and
# with the order-2 subgroup of a random involution in it (the trivial group
# when that is the whole stabilizer); these are often not saturated, so the
# witness path runs. Off-origin ones also get check_saturated and
# induced_chart.
LADDER_RECIPE = {
    "B2": (("coord", (4,)), ("diag", (4,)), ("affine", (2,)), ("affine", (2,))),
    "B3": (("coord", (16,)), ("diag", (8,)), ("affine", (8,)), ("affine", (2, 4))),
    "B3xZ2": (("diag", (8,)), ("affine", (8,)), ("affine", (2, 4))),
}
# Charts whose whole group is classified on the origin and on the whole space.
LADDER_WHOLE_GROUP = ("B2", "B3")


def ladder_groups() -> dict[str, exact.Group]:
    return {name: exact.Group(gens, n) for name, (n, gens) in LADDER_CHARTS.items()}


def draw_subspace(rng, n, shape):
    coords = list(range(n))
    rng.shuffle(coords)
    if shape == "coord":
        k = rng.randint(1, n - 1)
        return exact.affine((0,) * n, [_unit(n, c) for c in coords[:k]])
    if shape == "diag":
        i, j = coords[:2]
        d = tuple(a + b for a, b in zip(_unit(n, i), _unit(n, j, rng.choice((1, -1)))))
        basis = [d]
        if n >= 3 and rng.random() < 0.5:
            basis.append(_unit(n, coords[2]))
        return exact.affine((0,) * n, basis)
    k = rng.randint(1, n - 1)
    base = [F(0)] * n
    a = _rational(rng)
    for c in coords[k:]:
        base[c] = rng.choice((a, -a, _rational(rng), F(0)))
    base[coords[k]] = a
    return exact.affine(base, [_unit(n, c) for c in coords[:k]])


def _coordinate(rng, a, b):
    return rng.choice((F(0), a, -a, b))


def draw_point_in(rng, v):
    a, b = _rational(rng), _rational(rng)
    return exact.point_at(v, [_coordinate(rng, a, b) for _ in v[1]])


def draw_point(rng, n):
    a, b = _rational(rng), _rational(rng)
    return tuple(_coordinate(rng, a, b) for _ in range(n))


def _fresh(seen, draw, tries=50):
    """Draw until the query key is new, so no input repeats within a run."""
    for _ in range(tries):
        q = draw()
        key = _key(q)
        if key not in seen:
            seen.add(key)
            return q
    return None


def _key(q):
    return (q["kind"], q.get("chart"), q.get("v"), tuple(q.get("delta", ())),
            tuple(map(tuple, q.get("points", ()))), q.get("point"))


def ladder_queries(seed: int, pass_index: int, groups, seen: set) -> list[dict]:
    """One pass of ladder queries; ``seen`` holds the keys of earlier passes.

    Coordinate and diagonal subspaces through the origin are finitely
    many, so they recur across passes, classified at fresh isotropy
    points; off-origin subspaces are fresh every time. The whole-group
    point candidate is unique by definition and is the one recurring input.
    """
    rng = pass_rng(seed, pass_index, "ladder")
    queries = []

    def add(q):
        if q is not None:
            queries.append(q)

    for chart, slots in LADDER_RECIPE.items():
        group = groups[chart]
        n = group.dim
        for shape, orders in slots:
            while True:
                v = draw_subspace(rng, n, shape)
                stab = group.setwise_stabilizer(v)
                if len(stab) in orders and (shape != "affine" or ("v", v) not in seen):
                    break
            seen.add(("v", v))
            order_two = group.span([rng.choice(group.involutions(stab))])
            if order_two == stab:
                order_two = [group.identity]
            for delta in (stab, order_two):
                cand = {"kind": "classify", "chart": chart, "delta": delta, "v": v}
                add(_fresh(seen, lambda: dict(cand, points=[draw_point_in(rng, v)])))
                if shape == "affine":
                    queries.append(dict(cand, kind="check_saturated"))
                    if delta is stab and exact.saturated(group.elements, stab, v):
                        queries.append(dict(cand, kind="induced_chart"))
        add(_fresh(seen, lambda: {"kind": "isotropy_point", "chart": chart,
                                        "point": draw_point(rng, n)}))
    for chart in LADDER_WHOLE_GROUP:
        group = groups[chart]
        n = group.dim
        everything = list(range(group.order))
        origin = exact.affine((0,) * n, [])
        whole = exact.affine((0,) * n, [_unit(n, i) for i in range(n)])
        queries.append({"kind": "classify", "chart": chart, "delta": everything,
                        "v": origin, "points": [origin[0]]})
        cand = {"kind": "classify", "chart": chart, "delta": everything, "v": whole}
        add(_fresh(seen, lambda: dict(cand, points=[draw_point(rng, n)])))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# scenes: seeded scene files, each run through the CLI four ways.
#
# Why: nothing is shared between queries. Every call re-parses its scene
# and rebuilds its groups, as the CLI does, so scene parsing, group
# construction and the maps layer pay their cost on every call. It shows
# construction gains and exposes caches that pay off only on shared work.

# Main groups: signed-permutation groups of dimension 2-4, order <= 48,
# each with the shape of its subspace and the order of that subspace's
# setwise stabilizer, fixed so that a pass costs the same for every seed.
SCENE_GROUPS = (
    (2, exact.hyperoctahedral(2), "affine", 2),                               # 8
    (3, [exact.flip(3, i) for i in range(3)], "diag", 4),                     # 8
    (3, [exact.swap(3, 0, 1), exact.swap(3, 1, 2),
         tuple(tuple(-x for x in r) for r in exact.identity(3))], "coord", 4),  # 12
    (3, [exact.swap(3, 0, 1), exact.flip(3, 0), exact.flip(3, 2)], "diag", 4),  # 16
    (4, [exact.flip(4, i) for i in range(4)], "affine", 4),                   # 16
    (4, [exact.swap(4, 0, 1), exact.swap(4, 1, 2), exact.swap(4, 2, 3)], "coord", 6),  # 24
    (3, exact.hyperoctahedral(3), "diag", 8),                                 # 48
)
# Map domains in R^2 (order <= 8, so graph charts have order <= 64).
MAP_GROUPS = (
    [exact.flip(2, 0)],                                               # 2
    [tuple(tuple(-x for x in r) for r in exact.identity(2))],         # 2
    [exact.flip(2, 0), exact.flip(2, 1)],                             # 4
    [((0, -1), (1, 0))],                                              # 4
    exact.hyperoctahedral(2),                                         # 8
)
# The map group paired with each main group. The pairing is fixed so that
# every pass holds the same groups and costs about the same.
SCENE_MAP_KINDS = (0, 1, 2, 3, 0, 1, 2)


def _conjugate(m, s):
    return exact.mul(exact.mul(s, m), s)


def _subspace_json(v):
    return {"base": [str(x) for x in v[0]], "basis": [[str(x) for x in d] for d in v[1]]}


def scene_pass(seed: int, pass_index: int) -> list[dict]:
    """Seven scenes per pass, one per main group, each with its paired map group."""
    rng = pass_rng(seed, pass_index, "scenes")
    return [make_scene(rng, main, map_kind) for main, map_kind in enumerate(SCENE_MAP_KINDS)]


def make_scene(rng, main_kind: int, map_kind: int) -> dict:
    """A scene as the JSON-ready dict the CLI reads."""
    n, gens, shape, stab_order = SCENE_GROUPS[main_kind]
    main = exact.Group(gens, n)
    raw = {"groups": {}, "subgroups": {}, "subspaces": {}, "candidates": {}, "maps": {}}
    raw["groups"]["G"] = [list(map(list, g)) for g in main.gens]
    # Two candidates in the main group: a subspace with its whole setwise
    # stabilizer, and the same subspace with the order-2 subgroup of an
    # involution in it.
    while True:
        v = draw_subspace(rng, n, shape)
        stab = main.setwise_stabilizer(v)
        if len(stab) == stab_order:
            break
    h = rng.choice(main.involutions(stab))
    raw["subspaces"]["V"] = _subspace_json(v)
    raw["subgroups"]["stab"] = {"parent": "G", "generator_indices": stab}
    raw["subgroups"]["pair"] = {"parent": "G", "generators": [list(map(list, main.elements[h]))]}
    raw["candidates"]["main_stab"] = {"group": "G", "subgroup": "stab", "subspace": "V"}
    raw["candidates"]["main_pair"] = {"group": "G", "subgroup": "pair", "subspace": "V"}

    # An equivariant map f(x) = S x + c from D to C = S D S, S a sign matrix.
    s = exact.signed_perm((0, 1), (rng.choice((1, -1)), rng.choice((1, -1))))
    d_gens = MAP_GROUPS[map_kind]
    c_gens = [_conjugate(g, s) for g in d_gens]
    dom, cod = exact.Group(d_gens, 2), exact.Group(c_gens, 2)
    raw["groups"]["D"] = [list(map(list, g)) for g in d_gens]
    raw["groups"]["C"] = [list(map(list, g)) for g in c_gens]
    fix = exact.solve([tuple(a - (1 if i == j else 0) for j, a in enumerate(row))
                       for g in cod.elements for i, row in enumerate(g)],
                      (0,) * (2 * cod.order))
    offset = exact.point_at(fix, [_rational(rng) for _ in fix[1]])
    theta = [[i, cod.index[_conjugate(g, s)]] for i, g in enumerate(dom.elements)]
    raw["maps"]["f"] = {"domain": "D", "codomain": "C", "matrix": [list(r) for r in s],
                        "offset": [str(x) for x in offset], "theta": theta}
    # Target of the preimage: a subspace of Fix(C) through the offset,
    # with the whole group C, so the map is localized and transverse.
    target = fix if fix[1] and rng.random() < 0.5 else exact.affine(offset, [])
    raw["subspaces"]["Q"] = _subspace_json(target)
    raw["subspaces"]["all"] = _subspace_json(exact.affine((0, 0), [(1, 0), (0, 1)]))
    raw["candidates"]["target"] = {"group": "C", "subspace": "Q"}
    raw["candidates"]["whole"] = {"group": "C", "subspace": "all"}
    return raw


def scene_queries(path: str) -> list[dict]:
    common = ["--scene", path, "--format", "machine"]
    return [
        {"kind": "classify", "argv": ["classify"] + common},
        {"kind": "intersect", "argv": ["intersect", "--left", "whole", "--right", "target"] + common,
         "left": "whole", "right": "target"},
        {"kind": "graph", "argv": ["graph", "--map", "f"] + common},
        {"kind": "preimage", "argv": ["preimage", "--map", "f", "--target", "target"] + common,
         "target": "target"},
    ]
