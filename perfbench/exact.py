"""Exact rational linear algebra and signed-permutation groups for the benchmark.

Written from scratch on ``fractions.Fraction`` so that the input generator
and the output checker share no code path with the package they measure.
Matrices are tuples of rows; affine subspaces are ``(base, basis)`` pairs
with the basis in reduced row-echelon form and the base point reduced
modulo the directions, so equal sets compare equal.
"""
from __future__ import annotations

from fractions import Fraction as F


def vec(xs):
    return tuple(F(x) for x in xs)


def mat(rows):
    return tuple(vec(r) for r in rows)


def int_mat(rows):
    return tuple(tuple(int(x) for x in r) for r in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def apply(m, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


def mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def rref(rows):
    """Reduced row-echelon form (nonzero rows only) and pivot columns."""
    rows = [list(map(F, r)) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in rows[:r]], pivots


def _reduce(basis, pivots, w):
    for row, p in zip(basis, pivots):
        if w[p] != 0:
            f = w[p]
            w = tuple(a - f * b for a, b in zip(w, row))
    return w


def affine(base, basis):
    base = vec(base)
    red, pivots = rref([vec(b) for b in basis]) if basis else ([], [])
    return _reduce(red, pivots, base), tuple(red)


def pivots_of(basis):
    return [next(i for i, x in enumerate(row) if x != 0) for row in basis]


def in_span(basis, w):
    return not any(_reduce(basis, pivots_of(basis), vec(w)))


def contains(v, x):
    base, basis = v
    return in_span(basis, tuple(a - b for a, b in zip(vec(x), base)))


def solve(a, b):
    """Solutions of a x = b as an affine subspace, or None when empty."""
    n = len(a[0])
    red, pivots = rref([tuple(row) + (rhs,) for row, rhs in zip(a, b)])
    if n in pivots:
        return None
    particular = [F(0)] * n
    for row, p in zip(red, pivots):
        particular[p] = row[n]
    kernel = []
    for free in (c for c in range(n) if c not in pivots):
        k = [F(0)] * n
        k[free] = F(1)
        for row, p in zip(red, pivots):
            k[p] = -row[free]
        kernel.append(k)
    return affine(particular, kernel)


def point_at(v, coords):
    base, basis = v
    p = list(base)
    for c, row in zip(coords, basis):
        p = [a + F(c) * b for a, b in zip(p, row)]
    return tuple(p)


def preimage(m, v):
    """{x : m x in v} for an invertible m, or None when empty."""
    base, basis = v
    n = len(base)
    # x = m^-1 (base + D t): solve m x - D t = base for (x, t).
    rows = [tuple(m[i]) + tuple(-d[i] for d in basis) for i in range(n)]
    sol = solve(rows, base)
    if sol is None:
        return None
    sbase, sbasis = sol
    return affine(sbase[:n], [row[:n] for row in sbasis])


def intersect(v, w):
    """v meet w, or None when empty."""
    (b1, d1), (b2, d2) = v, w
    n = len(b1)
    # b1 + D1 s = b2 + D2 t.
    rows = [tuple(d[i] for d in d1) + tuple(-d[i] for d in d2) for i in range(n)]
    rhs = tuple(y - x for x, y in zip(b1, b2))
    if not rows[0]:
        return v if b1 == b2 else None
    sol = solve(rows, rhs)
    if sol is None:
        return None
    sbase, sbasis = sol
    k = len(d1)
    return affine(point_at(v, sbase[:k]),
                  [point_at(((F(0),) * n, d1), row[:k]) for row in sbasis])


def fixed_meet(m, v):
    """A point of v fixed by m, or None when m fixes no point of v."""
    base, basis = v
    n = len(base)
    shifted = [tuple(m[i][j] - (1 if i == j else 0) for j in range(n))
               for i in range(n)]
    rhs = tuple(-x for x in apply(shifted, base))
    if not basis:
        return base if not any(rhs) else None
    cols = [apply(shifted, d) for d in basis]
    rows = [tuple(c[i] for c in cols) for i in range(n)]
    sol = solve(rows, rhs)
    return None if sol is None else point_at(v, sol[0])


def agreement_subspace(m, v):
    """W = v meet m^-1 v: the points of v that m maps into v."""
    pre = preimage(m, v)
    return None if pre is None else intersect(v, pre)


def saturated(elements, delta, v):
    """Exact saturation: on each W, some single h in delta agrees with g."""
    hs = [elements[i] for i in delta]
    for g in elements:
        w = agreement_subspace(g, v)
        if w is None:
            continue
        base, basis = w
        gb, gd = apply(g, base), [apply(g, d) for d in basis]
        if not any(apply(h, base) == gb and all(apply(h, d) == e for d, e in zip(basis, gd))
                   for h in hs):
            return False
    return True


def invariant(m, v):
    base, basis = v
    return contains(v, apply(m, base)) and all(
        in_span(basis, apply(m, d)) for d in basis)


def fixes_pointwise(m, v):
    base, basis = v
    return apply(m, base) == base and all(apply(m, d) == d for d in basis)


# ---------------------------------------------------------------------------
# Signed-permutation groups with the package's canonical element order


def signed_perm(perm, signs):
    """Matrix sending e_j to signs[j] * e_perm[j]."""
    n = len(perm)
    rows = [[0] * n for _ in range(n)]
    for j, (i, s) in enumerate(zip(perm, signs)):
        rows[i][j] = s
    return int_mat(rows)


def swap(n, i, j):
    perm = list(range(n))
    perm[i], perm[j] = j, i
    return signed_perm(perm, [1] * n)


def flip(n, i):
    signs = [1] * n
    signs[i] = -1
    return signed_perm(range(n), signs)


def closure(gens, n):
    """All products of the generators, sorted lexicographically.

    Sorting integer matrices matches the package's canonical order, which
    sorts the same matrices as tuples of Fractions.
    """
    ident = identity(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            prod = mul(cur, g)
            if prod not in seen:
                seen.add(prod)
                frontier.append(prod)
    return sorted(seen)


class Group:
    """Sorted element list plus an index map."""

    def __init__(self, gens, n):
        self.dim = n
        self.gens = [int_mat(g) for g in gens]
        self.elements = closure(self.gens, n) if self.gens else [identity(n)]
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.identity = self.index[identity(n)]

    @property
    def order(self):
        return len(self.elements)

    def span(self, indices):
        """Indices of the subgroup generated by the given element indices."""
        ms = [self.elements[i] for i in indices]
        return sorted(self.index[m] for m in closure(ms, self.dim)) if ms \
            else [self.identity]

    def involutions(self, indices):
        ident = identity(self.dim)
        return [i for i in indices
                if i != self.identity and mul(self.elements[i], self.elements[i]) == ident]

    def setwise_stabilizer(self, v):
        return [i for i, m in enumerate(self.elements) if invariant(m, v)]


def block_diag(a, b):
    ca, cb = len(a[0]), len(b[0])
    return tuple(tuple(r) + (0,) * cb for r in a) + \
        tuple((0,) * ca + tuple(r) for r in b)


def hyperoctahedral(n):
    gens = [swap(n, i, i + 1) for i in range(n - 1)] + [flip(n, 0)]
    return gens

