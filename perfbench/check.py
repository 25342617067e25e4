"""Output checker: replays every verdict with plain Fraction arithmetic.

Nothing here calls the package's verdict code. Saturation claims are
checked on sampled orbits (the points of each ``v meet g^-1 v``),
fullness claims with an exact solve, and every witness is replayed
exactly. Effective subgroups must act effectively, construction results
must have the dimension the README's formula gives, corpus verdicts must
match ``CASES[*].expected`` and metric checks must pass.

Each ``*_problems`` function returns a list of messages; an empty list
means the query's output is correct.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F

import exact

SAMPLES_PER_ORBIT = 2
MESSAGES_KEPT = 20


class Checker:
    """Counts attempted and failed queries and keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < MESSAGES_KEPT:
                self.messages.append(f"{label}: {'; '.join(problems[:3])}")
        return not problems


# ---------------------------------------------------------------------------
# Verdicts on one candidate (machine-report shape; values may be str or F)


def _vec(xs):
    return tuple(F(x) for x in xs)


def _sample(rng, v):
    points = [v[0]]
    for _ in range(SAMPLES_PER_ORBIT - 1):
        if not v[1]:
            break
        points.append(exact.point_at(v, [F(rng.randint(-9, 9), rng.randint(1, 5))
                                         for _ in v[1]]))
    return points


def saturation_problems(elements, delta, v, verdict, rng):
    hs = [elements[i] for i in delta]
    if verdict["holds"]:
        for g in elements:
            w = exact.agreement_subspace(g, v)
            if w is None:
                continue
            for x in _sample(rng, w):
                gx = exact.apply(g, x)
                if all(exact.apply(h, x) != gx for h in hs):
                    return [f"saturated claimed but {g} moves {x} off its orbit"]
        return []
    w = verdict.get("witness") or {}
    try:
        g = exact.mat(w["element_matrix"])
        p = _vec(w["point"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return ["non-saturation without a readable witness"]
    if g not in {exact.mat(m) for m in elements}:
        return ["saturation witness element is not in the group"]
    gp = exact.apply(g, p)
    if not (exact.contains(v, p) and exact.contains(v, gp)):
        return ["saturation witness does not map a point of v into v"]
    if any(exact.apply(h, p) == gp for h in hs):
        return ["saturation witness is matched by a subgroup element"]
    return []


def fullness_problems(elements, delta, v, verdict):
    inside = set(delta)
    if verdict["holds"]:
        for i, g in enumerate(elements):
            if i not in inside and exact.fixed_meet(g, v) is not None:
                return [f"full claimed but element {i} outside the subgroup fixes a point"]
        return []
    w = verdict.get("witness") or {}
    try:
        g = exact.mat(w["element_matrix"])
        p = _vec(w["point"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return ["non-fullness without a readable witness"]
    outside = {exact.mat(elements[i]) for i in range(len(elements)) if i not in inside}
    if g not in outside:
        return ["fullness witness element is not outside the subgroup"]
    if not exact.contains(v, p) or exact.apply(g, p) != p:
        return ["fullness witness does not fix a point of v"]
    return []


def kernel_of(elements, delta, v):
    return [i for i in delta if exact.fixes_pointwise(elements[i], v)]


def embedded_problems(elements, delta, v, result):
    eff = result.get("effective_delta")
    if result["holds"]:
        if eff is None:
            return ["embedded claimed without an effective subgroup"]
        members = eff["member_indices"]
        if not all(0 <= i < len(elements) for i in members):
            return ["effective subgroup index out of range"]
        if len(kernel_of(elements, members, v)) != 1:
            return ["effective subgroup does not act effectively on v"]
        if not all(exact.invariant(elements[i], v) for i in members):
            return ["effective subgroup does not preserve v"]
        if not result.get("searched_all_delta") and not set(members) <= set(delta):
            return ["complement is not inside the subgroup"]
    return []


def classification_problems(elements, delta, v, cls, points=(), rng=None):
    """Check one classification (saturated, full, embedded, kernel, isotropy)."""
    rng = rng or random.Random(0)
    problems = saturation_problems(elements, delta, v, cls["saturated"], rng)
    kernel = kernel_of(elements, delta, v)
    if sorted(cls["kernel"]["member_indices"]) != kernel:
        problems.append("kernel differs from the pointwise stabilizer")
    if not cls["saturated"]["holds"]:
        if cls["full"] is not None or cls["embedded"] is not None:
            problems.append("verdicts reported for a non-saturated candidate")
        return problems
    if cls["full"] is None or cls["embedded"] is None:
        return problems + ["missing full or embedded verdict"]
    problems += fullness_problems(elements, delta, v, cls["full"])
    problems += embedded_problems(elements, delta, v, cls["embedded"])
    reported = cls.get("isotropy", [])
    if len(reported) != len(points):
        problems.append("isotropy reported for a different number of points")
    for entry, x in zip(reported, points):
        x = _vec(x)
        if _vec(entry["point"]) != x:
            problems.append("isotropy reported at another point")
            continue
        stab = [i for i in delta if exact.apply(elements[i], x) == x]
        if entry["fingerprint"]["order"] * len(kernel) != len(stab):
            problems.append(f"isotropy order at {x} is not |Delta_x| / |K|")
    return problems


def fingerprint_problems(elements, x, fp):
    x = _vec(x)
    stab = [m for m in elements if exact.apply(m, x) == x]
    orders = sorted(_element_order(m) for m in stab)
    if fp["order"] != len(stab) or sorted(fp["element_orders"]) != orders:
        return [f"isotropy fingerprint at {x} is wrong"]
    return []


def _element_order(m):
    ident = exact.identity(len(m))
    power, k = m, 1
    while power != ident:
        power, k = exact.mul(power, m), k + 1
    return k


# ---------------------------------------------------------------------------
# Library results (ladder): read the package's objects into plain data


def _witness(w):
    if w is None:
        return None
    return {"element_matrix": w.element.matrix, "point": w.point}


def _verdict(v):
    return None if v is None else {"holds": v.holds, "witness": _witness(v.witness)}


def report_data(report) -> dict:
    emb = report.embedded
    return {
        "saturated": _verdict(report.saturated),
        "full": _verdict(report.full),
        "embedded": None if emb is None else {
            "holds": emb.holds,
            "searched_all_delta": emb.searched_all_delta,
            "effective_delta": None if emb.effective_delta is None
            else {"member_indices": list(emb.effective_delta.members)},
        },
        "kernel": {"member_indices": list(report.kernel.members)},
        "isotropy": [{"point": p, "fingerprint": {"order": fp.order}}
                     for p, fp in report.induced_isotropy_at],
    }


def ladder_problems(q, group, out):
    """Check one ladder query's return value against the generator's data."""
    if isinstance(out, BaseException):
        return [f"raised {type(out).__name__}: {out}"]
    kind = q["kind"]
    elements = group.elements
    rng = random.Random(repr(q.get("v")))
    if kind == "isotropy_point":
        fp = {"order": out.order, "element_orders": list(out.element_orders)}
        return fingerprint_problems(elements, q["point"], fp)
    delta, v = q["delta"], q["v"]
    if kind == "classify":
        return classification_problems(elements, delta, v, report_data(out),
                                       q.get("points", ()), rng)
    if kind == "check_saturated":
        return saturation_problems(elements, delta, v, _verdict(out), rng)
    if kind == "induced_chart":
        return induced_chart_problems(elements, delta, v, out)
    return [f"unknown query kind {kind}"]


def induced_chart_problems(elements, delta, v, chart):
    problems = []
    kernel = kernel_of(elements, delta, v)
    if chart.chart.ambient_dim != len(v[1]):
        problems.append("induced chart dimension differs from dim v")
    if chart.chart.group.order * len(kernel) != len(delta):
        problems.append("induced group order is not |Delta| / |K|")
    if sorted(chart.kernel.members) != kernel:
        problems.append("induced chart kernel differs from the pointwise stabilizer")
    base = _vec(chart.base_point)
    if not exact.contains(v, base) or any(exact.apply(elements[i], base) != base
                                          for i in delta):
        problems.append("induced chart base point is not a Delta-fixed point of v")
    if exact.affine(base, chart.basis) != v:
        problems.append("induced chart basis does not span v")
    return problems


# ---------------------------------------------------------------------------
# CLI results (corpus and scenes)


def scene_model(raw: dict) -> dict:
    """Groups, candidates and maps of a scene, built without the package."""
    groups = {name: exact.Group(gens, len(gens[0])) for name, gens in raw["groups"].items()}
    subgroups = {}
    for name, spec in raw.get("subgroups", {}).items():
        g = groups[spec["parent"]]
        if "generator_indices" in spec:
            subgroups[name] = g.span(spec["generator_indices"])
        else:
            subgroups[name] = g.span([g.index[exact.int_mat(m)] for m in spec["generators"]])
    subspaces = {name: exact.affine(spec["base"], spec.get("basis", []))
                 for name, spec in raw.get("subspaces", {}).items()}
    candidates = {}
    for name, spec in raw.get("candidates", {}).items():
        g = groups[spec["group"]]
        delta = subgroups[spec["subgroup"]] if "subgroup" in spec else list(range(g.order))
        candidates[name] = (g, delta, subspaces[spec["subspace"]])
    probes = {name: [groups[spec["group"]].elements[i] for i in subgroups[spec["subgroup"]]]
              for name, spec in raw.get("probes", {}).items()}
    return {"groups": groups, "candidates": candidates, "maps": raw.get("maps", {}),
            "probes": probes}


def _payload(rc, text, command):
    if rc != 0:
        return None, [f"exit code {rc}"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None, ["output is not a machine report"]
    if payload.get("command") != command:
        return None, ["report names another command"]
    return payload, []


def cli_problems(q, out, context) -> list[str]:
    """Check one CLI query; ``out`` is (exit code, stdout) or an exception."""
    if isinstance(out, BaseException):
        return [f"raised {type(out).__name__}: {out}"]
    rc, text = out
    kind = q["kind"]
    payload, problems = _payload(rc, text, kind)
    if payload is None:
        return problems
    if kind == "corpus":
        return corpus_problems(payload, q["cases"], context["expected"])
    if kind == "metric-check":
        probes = context["corpus_probes"] if q["probes"] == "corpus" \
            else context["model"]["probes"]
        return metric_problems(payload, probes)
    model = context["model"]
    if kind == "classify":
        problems = []
        results = payload["results"]
        if sorted(results) != sorted(model["candidates"]):
            return ["classify did not report every candidate"]
        for name, (g, delta, v) in model["candidates"].items():
            entry = results[name]
            if sorted(entry["candidate"]["delta"]["member_indices"]) != delta:
                problems.append(f"{name}: subgroup differs from the scene's")
            problems += [f"{name}: {p}" for p in classification_problems(
                g.elements, delta, v, entry["classification"], q.get("points", ()),
                random.Random(name))]
        return problems
    if kind == "isotropy":
        g, delta, v = model["candidates"][q["candidate"]]
        x = _vec(q["point"])
        kernel = kernel_of(g.elements, delta, v)
        stab = [i for i in delta if exact.apply(g.elements[i], x) == x]
        if payload["fingerprint"]["order"] * len(kernel) != len(stab):
            return ["isotropy order is not |Delta_x| / |K|"]
        return []
    return construction_problems(kind, payload["result"], q, model)


def corpus_problems(payload, names, expected):
    results = payload["results"]
    if sorted(results) != sorted(names):
        return [f"corpus ran {sorted(results)}, expected {sorted(names)}"]
    problems = []
    for name in names:
        observed = results[name]["observed"]
        for key, want in expected[name].items():
            if observed.get(key) != want:
                problems.append(f"{name}: {key} is {observed.get(key)}, expected {want}")
    if not payload.get("ok") or problems:
        problems.append("corpus reports a mismatch")
    return problems


def metric_problems(payload, probes):
    results = payload["results"]
    if sorted(results) != sorted(probes):
        return ["metric-check did not report every probe"]
    problems = []
    for name, report in results.items():
        if not report["passed"]:
            problems.append(f"{name}: metric check did not pass")
        matrices = probes[name]
        for pair in report["pairs"]:
            x, y = _vec(pair["x"]), _vec(pair["y"])
            best = min(sum((a - b) ** 2 for a, b in zip(x, exact.apply(h, y)))
                       for h in matrices)
            if not math.isclose(pair["quotient"], math.sqrt(best), rel_tol=1e-12,
                                abs_tol=1e-12):
                problems.append(f"{name}: quotient distance differs")
            if abs(pair["quotient"] - pair["intrinsic"]) > report["tolerance"]:
                problems.append(f"{name}: metrics differ beyond tolerance")
    return problems


def construction_problems(kind, result, q, model):
    """Dimension formulas from the README table, plus an exact point check."""
    sub = result["subspace"]
    base = _vec(sub["base"])
    dirs = [_vec(d) for d in sub["basis"]]
    dim = sub["dim"]
    problems = [] if dim == len(dirs) else ["subspace dim disagrees with its basis"]
    if kind == "intersect":
        ga, da, va = model["candidates"][q["left"]]
        _, db, vb = model["candidates"][q["right"]]
        n = ga.dim
        if dim != len(va[1]) + len(vb[1]) - n:
            problems.append("intersection dimension is not k1 + k2 - n")
        if not (exact.contains(va, base) and exact.contains(vb, base)):
            problems.append("intersection base point is not in both subspaces")
        if result["delta"]["member_indices"] != sorted(set(da) & set(db)):
            problems.append("intersection subgroup is not the meet")
        return problems
    f = model["maps"]["f"]
    s, c = exact.mat(f["matrix"]), _vec(f["offset"])
    n1 = len(s[0])
    if kind == "graph":
        if dim != n1:
            problems.append("graph dimension is not n1")
        order = model["groups"][f["domain"]].order * model["groups"][f["codomain"]].order
        if result["group_order"] != order or result["ambient_dim"] != n1 + len(s):
            problems.append("graph does not live in the product chart")
        x, y = base[:n1], base[n1:]
        if tuple(a + b for a, b in zip(exact.apply(s, x), c)) != y or any(
                exact.apply(s, d[:n1]) != d[n1:] for d in dirs):
            problems.append("graph is not the set of (x, f(x))")
        return problems
    if kind == "preimage":
        _, _, target = model["candidates"][q["target"]]
        n2 = len(s)
        if dim != n1 - (n2 - len(target[1])):
            problems.append("preimage dimension is not n1 - (n2 - k)")
        image = tuple(a + b for a, b in zip(exact.apply(s, base), c))
        if not exact.contains(target, image) or not all(
                exact.in_span(target[1], exact.apply(s, d)) for d in dirs):
            problems.append("preimage does not map into the target")
        return problems
    return [f"unknown query kind {kind}"]
