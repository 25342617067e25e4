"""Exact affine geometry over the rationals.

Vectors and matrices are immutable tuples of ``fractions.Fraction``, so
they hash and compare structurally. Affine subspaces are kept in a
canonical form (reduced row-echelon basis, base point reduced modulo the
direction space), which makes set equality plain ``==``. The empty set
is represented by ``None`` returns; callers must handle it explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

from .errors import DimensionMismatch, ParseError

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


def rat(x) -> Fraction:
    """Parse a rational from an int, Fraction or a 'p/q' string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"cannot read {x!r} as a rational") from None
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(xs) -> Vec:
    return tuple(rat(x) for x in xs)


def mat(rows) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged matrix rows")
    return m


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    if not a:
        return a
    if len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Mat, x: Vec) -> Vec:
    if not a:
        return ()
    if len(a[0]) != len(x):
        raise DimensionMismatch("matrix/vector shape mismatch")
    return tuple(sum(c * v for c, v in zip(row, x)) for row in a)


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c: Fraction, x: Vec) -> Vec:
    return tuple(c * a for a in x)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def _rref_pivots(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row-echelon form with deterministic leftmost pivoting."""
    rows = [list(r) for r in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return tuple(tuple(row) for row in rows), pivots


def rref(m: Mat) -> tuple[Mat, int]:
    reduced, pivots = _rref_pivots(m)
    return reduced, len(pivots)


def mat_rank(m: Mat) -> int:
    if not m:
        return 0
    return rref(m)[1]


def is_invertible(m: Mat) -> bool:
    return all(len(row) == len(m) for row in m) and mat_rank(m) == len(m)


def mat_inverse(m: Mat) -> Mat:
    n = len(m)
    aug = tuple(row + ident_row for row, ident_row in zip(m, identity(n)))
    reduced, pivots = _rref_pivots(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def kernel_basis(m: Mat) -> list[Vec]:
    """Basis of {x : m x = 0}, one vector per free column."""
    if not m:
        return []
    n_cols = len(m[0])
    reduced, pivots = _rref_pivots(m)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class AffineSubspace:
    """Canonical affine subspace base_point + span(basis) of R^n.

    Construct via :func:`affine_subspace`; equality of canonical values
    is equality of point sets.
    """

    ambient_dim: int
    base_point: Vec
    basis: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> list[int]:
        return [next(i for i, x in enumerate(row) if x != 0) for row in self.basis]


def affine_subspace(base_point, basis) -> AffineSubspace:
    base = vec(base_point)
    n = len(base)
    rows = [vec(b) for b in basis]
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("basis vector length differs from base point")
    if rows:
        reduced, pivots = _rref_pivots(tuple(rows))
        canon_rows = reduced[: len(pivots)]
    else:
        canon_rows, pivots = (), []
    for row, p in zip(canon_rows, pivots):
        base = vec_sub(base, vec_scale(base[p], row))
    return AffineSubspace(n, base, tuple(canon_rows))


def whole_space(n: int) -> AffineSubspace:
    return affine_subspace(zero_vec(n), identity(n))


def single_point(p) -> AffineSubspace:
    return affine_subspace(p, ())


def _reduce_against_basis(v: AffineSubspace, w: Vec) -> Vec:
    for row, p in zip(v.basis, v.pivots()):
        if w[p] != 0:
            w = vec_sub(w, vec_scale(w[p], row))
    return w


def point_in_dim(x, n: int) -> Vec:
    """x as a vector, which must have n coordinates."""
    x = vec(x)
    if len(x) != n:
        raise DimensionMismatch(f"expected a point with {n} coordinates, got {len(x)}")
    return x


def contains_point(v: AffineSubspace, x) -> bool:
    x = point_in_dim(x, v.ambient_dim)
    rem = _reduce_against_basis(v, vec_sub(x, v.base_point))
    return all(c == 0 for c in rem)


def direction_contains(v: AffineSubspace, d: Vec) -> bool:
    return all(c == 0 for c in _reduce_against_basis(v, d))


def subspace_contained_in(a: AffineSubspace, b: AffineSubspace) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not contains_point(b, a.base_point):
        return False
    return all(direction_contains(b, d) for d in a.basis)


def as_equations(v: AffineSubspace) -> tuple[Mat, Vec]:
    """Equation form {y : C y = d} of the subspace (C may have 0 rows)."""
    if v.basis:
        normals = kernel_basis(v.basis)
    else:
        normals = list(identity(v.ambient_dim))
    c = tuple(normals)
    d = tuple(sum(r * x for r, x in zip(row, v.base_point)) for row in c)
    return c, d


def solve_affine(a: Mat, b) -> AffineSubspace | None:
    """Full solution set of a x = b as a canonical subspace, or None."""
    b = vec(b)
    if len(a) != len(b):
        raise DimensionMismatch("rows of a and length of b differ")
    n = len(a[0]) if a else 0
    if not a:
        return whole_space(n)
    aug = tuple(row + (rhs,) for row, rhs in zip(a, b))
    reduced, pivots = _rref_pivots(aug)
    if n in pivots:
        return None
    particular = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        particular[p] = reduced[r][n]
    return affine_subspace(tuple(particular), kernel_basis(a))


def intersect(a: AffineSubspace, b: AffineSubspace) -> AffineSubspace | None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    ca, da = as_equations(a)
    cb, db = as_equations(b)
    stacked = ca + cb
    rhs = da + db
    if not stacked:
        return whole_space(a.ambient_dim)
    return solve_affine(stacked, rhs)


def direction_sum_is_full(a: AffineSubspace, b: AffineSubspace) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    stacked = a.basis + b.basis
    if not stacked:
        return a.ambient_dim == 0
    return mat_rank(stacked) == a.ambient_dim


def map_subspace(a: Mat, offset: Vec, v: AffineSubspace) -> AffineSubspace:
    """Image of v under the affine map x -> a x + offset."""
    base = vec_add(mat_vec(a, v.base_point), offset)
    return affine_subspace(base, [mat_vec(a, d) for d in v.basis])


def transform_subspace(m: Mat, v: AffineSubspace) -> AffineSubspace:
    return map_subspace(m, zero_vec(len(m)), v)


def images(m: Mat, v: AffineSubspace) -> tuple[Vec, ...]:
    """m applied to v's base point and basis: linear maps agree on v iff these do."""
    return (mat_vec(m, v.base_point),) + tuple(mat_vec(m, d) for d in v.basis)


def coordinates_in_basis(v: AffineSubspace, x: Vec) -> Vec:
    """Coordinates of a point of v with respect to its canonical basis."""
    w = vec_sub(vec(x), v.base_point)
    coords = tuple(w[p] for p in v.pivots())
    rebuilt = zero_vec(v.ambient_dim)
    for c, row in zip(coords, v.basis):
        rebuilt = vec_add(rebuilt, vec_scale(c, row))
    if rebuilt != w:
        raise ValueError("point does not lie in the subspace")
    return coords


def point_from_coordinates(v: AffineSubspace, y: Vec) -> Vec:
    p = v.base_point
    for c, row in zip(y, v.basis):
        p = vec_add(p, vec_scale(rat(c), row))
    return p


def sample_points(v: AffineSubspace, count: int) -> list[Vec]:
    """Deterministic rational sample of points of v (base point first)."""
    if v.dim == 0:
        return [v.base_point]
    pts: list[Vec] = []
    seen = set()
    radius = 0
    while len(pts) < count:
        for coeffs in _cartesian(range(-radius, radius + 1), repeat=v.dim):
            if max(abs(c) for c in coeffs) != radius and radius > 0:
                continue
            p = point_from_coordinates(v, vec(coeffs))
            if p not in seen:
                seen.add(p)
                pts.append(p)
                if len(pts) == count:
                    break
        radius += 1
    return pts
