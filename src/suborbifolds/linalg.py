"""Exact affine geometry over the rationals.

Points cross this module's boundary as immutable tuples of
``fractions.Fraction``, so they hash and compare structurally. Matrices
cross it as integer forms: one denominator d and d m, as dense integer
rows (``int_matrix``, as maps hold their linear part) or as sparse rows
of (column, entry) (``sparse``, as groups hold their elements; rows of
one entry each are marked ``Monomial`` and applied by one gather per
coordinate); the solvers and rank tests also take rows of ints and
Fractions. Only this module reads or builds sparse rows; other modules
pass a form whole (to ``int_mat_vec``, ``fixed_points``, ``dense``,
``pull_back``, ``block_form`` and the like). Inside, the arithmetic is
on integers: a vector is its least common denominator and integer
numerators (``scaled``), and row reduction is fraction-free (Bareiss,
Math. Comp. 22, 1968): integer rows, each divided by its content after
every step and by its pivot once at the end. A Fraction is built only
for a coordinate of a returned value; ``mat_mul`` multiplies dense
integer rows. Input is read by one reader, ``read_rational``: an int, a
Fraction or a plain "p" or "p/q" string goes straight to integers
(``int_vector``, ``int_matrix``, and so ``affine_subspace``, group
generators and maps), and any other form is accepted or refused by
``rat``; a value of any other type, such as a float, a bool, None or a
list, is a ``ParseError`` there. A vector, a matrix, its rows and a
basis are read from a list or a tuple only (``_entries``); a string, a
dict or a number in their place is a ``ParseError`` too.

An affine subspace is held as integers too: its canonical form (reduced
row-echelon basis, base point reduced modulo the direction space) is
stored as one denominator with the base point's numerators and as
primitive integer basis rows with positive pivots (``AffineSubspace``).
Set equality is plain ``==`` on these integers, and a subspace computes
its hash once. Transforms, intersections, equations and fixed spaces
read and build the integer form only. ``solve_affine`` is the one
affine solver: a subspace cut by equations is solved in its own
coordinates through it (``meet``, which serves ``intersect`` and
``fixed_points``). ``base_point`` and ``basis`` are Fraction views,
built on first read for a caller that reads a coordinate. The empty set
is represented by ``None`` returns; callers must handle it explicitly.
A subspace's canonical coordinates and its points are related by one
integer helper each way: ``point_at`` builds the point (den, den x) at
given coordinates, and ``pivot_read`` reads a point's coordinates, its
entries at the pivots, and is the membership test (``coordinates``,
``restricted_matrix``). ``sample_points`` walks the points with integer
coordinates in a fixed order, as (den, den x); the saturation witnesses
are the first hits in that order, so the order fixes their bytes in a
report.
"""
from __future__ import annotations

import re
from collections.abc import Iterator
from fractions import Fraction
from functools import partial
from itertools import count as _count, product as _cartesian
from math import gcd, lcm

from .errors import DimensionMismatch, ParseError
from .records import record, set_field

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]
# d m for a matrix m with denominator d: per row, its nonzero (column, entry) pairs.
IntMat = tuple[tuple[tuple[int, int], ...], ...]


def rat(x) -> Fraction:
    """Parse a rational from an int, Fraction or a 'p/q' or decimal string;
    anything else is a ``ParseError``.

    A bool is not read as 0 or 1, and a string with an exponent is refused:
    Fraction would expand '1e1000000' into a million-digit integer. So is
    a string with an underscore, which Fraction reads as a digit separator
    from Python 3.11 ('1_0' is 10) and refuses before.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and "e" not in x.lower() and "_" not in x:
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"cannot read {x!r} as a rational")


# An int or fraction written "p" or "p/q" in ASCII digits, with an optional
# leading minus; ``read_rational`` reads these without building a Fraction.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


def read_rational(x) -> tuple[int, int]:
    """x as (numerator, denominator) in lowest terms, the denominator positive.

    Ints, Fractions and plain "p" or "p/q" strings with q > 0 are read
    here. Anything else goes through ``rat``, so exponents, booleans, a
    zero denominator and every other form are accepted or refused by one
    set of rules, with the same error.
    """
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:
        return x.numerator, x.denominator
    if type(x) is str:
        plain = _PLAIN_RATIONAL(x)
        if plain is not None:
            p, q = plain.groups()
            try:
                if q is None:
                    return int(p), 1
                p, q = int(p), int(q)
            except ValueError:  # past the int digit limit: rat refuses it
                pass
            else:
                if q:
                    g = gcd(p, q)
                    return p // g, q // g
    x = rat(x)
    return x.numerator, x.denominator


def _entries(xs, what: str):
    """xs, or ParseError unless it is a list or a tuple: read entry by entry,
    the string "12" would be the list of its characters and a dict the list
    of its keys."""
    if isinstance(xs, (list, tuple)):
        return xs
    got = f"the string {xs!r}" if isinstance(xs, str) else repr(xs)
    raise ParseError(f"expected {what} as a list, got {got}")


def int_vector(xs) -> tuple[int, tuple[int, ...]]:
    """(d, d x) for x read entry by entry with ``read_rational``, d the least
    common denominator; the integer form ``scaled`` gives of ``vec(xs)``."""
    parts = [read_rational(x) for x in _entries(xs, "a vector")]
    d = lcm(*[q for _, q in parts])
    return d, tuple([p * (d // q) for p, q in parts])


def int_matrix(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d m) as dense integer rows for m read entry by entry with
    ``read_rational``, d the least common denominator; rows of unequal
    length raise ``DimensionMismatch`` as in ``mat``."""
    parts = [[read_rational(x) for x in _entries(row, "a matrix row")]
             for row in _entries(rows, "a matrix")]
    if parts and any(len(row) != len(parts[0]) for row in parts):
        raise DimensionMismatch("ragged matrix rows")
    d = lcm(*[q for row in parts for _, q in row])
    return d, tuple(tuple([p * (d // q) for p, q in row]) for row in parts)


class Monomial(tuple):
    """Sparse rows that each hold exactly one entry, as ``sparse`` marks
    them: a monomial matrix, such as a signed or scaled permutation. It
    compares and hashes as the plain tuple of its rows."""

    __slots__ = ()


def sparse(rows) -> IntMat:
    """Dense integer rows as sparse rows of their nonzero (column, entry) pairs.

    When every row holds exactly one entry the rows are returned as a
    ``Monomial``, which ``int_mat_vec`` applies with one gather and scale
    per coordinate; the path is chosen here, once per form.
    """
    rows = tuple([tuple([(j, x) for j, x in enumerate(row) if x]) for row in rows])
    if all([len(row) == 1 for row in rows]):
        return Monomial(rows)
    return rows


def dense(rows: IntMat, n: int) -> list[list[int]]:
    """Sparse rows as dense integer rows of length n, the inverse of ``sparse``."""
    full = []
    for row in rows:
        out = [0] * n
        for j, x in row:
            out[j] = x
        full.append(out)
    return full


def block_form(form: tuple[int, IntMat], before: int, after: int) -> tuple[int, IntMat]:
    """diag(I_before, m, I_after) as (d, sparse rows), for the square matrix
    m given as (d, d m) in sparse rows; a ``Monomial`` form stays one."""
    d, rows = form
    end = before + len(rows)
    block = ([((i, d),) for i in range(before)]
             + [tuple([(before + j, x) for j, x in row]) for row in rows]
             + [((i, d),) for i in range(end, end + after)])
    return d, (Monomial(block) if rows.__class__ is Monomial else tuple(block))


def pull_back(c, rows: IntMat) -> list[list[int]]:
    """c (d m) for integer rows c and the square d m as sparse rows, so that
    c x = e pulls back to (c (d m)) x = d e; a row of c costs O(nnz) where
    a dense product would cost O(n^2)."""
    pulled = []
    for row in c:
        out = [0] * len(row)
        for a, form_row in zip(row, rows):
            if a:
                for j, x in form_row:
                    out[j] += a * x
        pulled.append(out)
    return pulled


def identity_form(n: int) -> tuple[int, IntMat]:
    """The n x n identity as (1, sparse integer rows)."""
    return 1, Monomial([((i, 1),) for i in range(n)])


def lowest_terms(d: int, xs) -> tuple[int, tuple[int, ...]]:
    """The point xs / d as (den, den x) with gcd(den, *den x) = 1, for d > 0."""
    c = gcd(d, *xs)
    return d // c, tuple([x // c for x in xs])


def form_of_columns(columns) -> tuple[int, IntMat]:
    """(d, d m) for the square matrix m whose columns are the points (den, den x)."""
    d = lcm(*[den for den, _ in columns])
    return d, sparse(zip(*[[x * (d // den) for x in xs] for den, xs in columns]))


def rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def point_str(x) -> str:
    """The point written as [a, b], each coordinate by ``rat_str``."""
    return "[" + ", ".join(map(rat_str, x)) + "]"


def vec(xs) -> Vec:
    return tuple(rat(x) for x in _entries(xs, "a vector"))


def mat(rows) -> Mat:
    m = tuple(tuple(rat(x) for x in _entries(r, "a matrix row"))
              for r in _entries(rows, "a matrix"))
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged matrix rows")
    return m


def scaled(x) -> tuple[int, tuple[int, ...]]:
    """(d, d x): the least common denominator of x and x's integer numerators."""
    d = lcm(*[c.denominator for c in x])
    return d, tuple(c.numerator * (d // c.denominator) for c in x)


def int_mat_vec(rows: IntMat, xs) -> tuple[int, ...]:
    """The integer rows applied to an integer vector: for a ``Monomial``
    one product c xs[j] per row, else one sum per row."""
    if rows.__class__ is Monomial:
        return tuple([c * xs[j] for ((j, c),) in rows])
    return tuple([sum([c * xs[j] for j, c in row]) for row in rows])


def int_images(rows: IntMat, points) -> tuple[tuple[int, ...], ...]:
    """The integer rows applied to each of the integer vectors ``points``."""
    return tuple([int_mat_vec(rows, xs) for xs in points])


def mat_mul(a, b, n: int) -> tuple[tuple[int, ...], ...]:
    """The product of the dense integer matrices a and b, for b with n columns."""
    return tuple(tuple([sum([x * row[j] for x, row in zip(r, b)]) for j in range(n)])
                 for r in a)


def fraction_point(d: int, xs) -> Vec:
    """The point xs / d, one Fraction per coordinate."""
    if d == 1:
        return tuple(map(Fraction, xs))
    return tuple(Fraction(x, d) for x in xs)


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries (a zero row stays)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _int_rows(m) -> list[list[int]]:
    """Each row of ints and Fractions as a primitive integer row with the same span."""
    return [_primitive(list(row) if all([type(x) is int for x in row]) else list(scaled(row)[1]))
            for row in m]


def _eliminate(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are taken leftmost, from the first row at or below the current
    one with a nonzero entry. Row i ends as a nonzero multiple of row i of
    the reduced row-echelon form, whose pivot column is the i-th returned
    one; the rows past the rank end as zero. Each combination
    (a/g) row_i - (b/g) pivot_row is divided by its content at once, so
    entries stay as small as the reduced form allows.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        a = top[c]
        for i in range(n_rows):
            b = rows[i][c]
            if b and i != r:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                rows[i] = _primitive([ag * x - bg * y for x, y in zip(rows[i], top)])
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def mat_rank(m: Mat) -> int:
    return len(_eliminate(_int_rows(m)))


def is_invertible(m: Mat) -> bool:
    return all(len(row) == len(m) for row in m) and mat_rank(m) == len(m)


def _int_kernel(rows, pivots, n_cols: int) -> list[tuple[int, list[int]]]:
    """Integer kernel basis of eliminated rows: (f, v) per free column f.

    v is a positive multiple of the kernel vector with 1 at f, 0 at the
    other free columns and -R[i][f] at pivot p_i, for R the reduced
    row-echelon form.
    """
    scale = lcm(*[row[p] for row, p in zip(rows, pivots)])
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        v = [0] * n_cols
        v[f] = scale
        for row, p in zip(rows, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append((f, v))
    return basis


@record
class AffineSubspace:
    """Affine subspace base_point + span(basis) of R^n, in canonical integer form.

    The form is ``den`` > 0 and the integer numerators ``base`` of the
    canonical base point (gcd(den, *base) = 1; zero at every pivot), and
    the basis as ``rows``: primitive integer rows, each a positive multiple
    of one row of the reduced row-echelon form, whose pivot columns are
    ``pivots``. Construct via :func:`affine_subspace`; equal canonical
    forms mean equal point sets, so equality and the hash (computed once)
    read the integers. ``base_point`` and ``basis`` are the same subspace
    as Fractions, built on first read.
    """

    ambient_dim: int
    den: int
    base: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]  # fixed by rows, so __eq__ and __hash__ leave it out

    def __init__(self, ambient_dim, den, base, rows, pivots):
        set_field(self, "ambient_dim", ambient_dim)
        set_field(self, "den", den)
        set_field(self, "base", base)
        set_field(self, "rows", rows)
        set_field(self, "pivots", pivots)

    def __eq__(self, other):
        # Written out rather than shared: it decides the dict lookups of
        # saturation's orbit store.
        if other.__class__ is self.__class__:
            return ((self.ambient_dim, self.den, self.base, self.rows)
                    == (other.ambient_dim, other.den, other.base, other.rows))
        return NotImplemented

    # Cached with set_field, not in the instance __dict__ (as cached_property
    # does), which on CPython 3.11 would slow every later field read.
    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.ambient_dim, self.den, self.base, self.rows))
            set_field(self, "_hash", h)
        return h

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def base_point(self) -> Vec:
        point = getattr(self, "_base_point", None)
        if point is None:
            point = fraction_point(self.den, self.base)
            set_field(self, "_base_point", point)
        return point

    @property
    def basis(self) -> tuple[Vec, ...]:
        """The reduced row-echelon basis: 1 at each pivot."""
        basis = getattr(self, "_basis", None)
        if basis is None:
            basis = tuple(fraction_point(row[p], row) for row, p in zip(self.rows, self.pivots))
            set_field(self, "_basis", basis)
        return basis


def affine_subspace(base_point, basis) -> AffineSubspace:
    """base_point + span(basis) in canonical form; every coordinate is read
    with ``read_rational``."""
    return read_subspace(base_point, basis)()


def read_subspace(base_point, basis):
    """base_point + span(basis) read into integers with ``read_rational``
    and checked to be of one length, as a function of no arguments that
    returns its canonical form (the row elimination is left to the call)."""
    d, numerators = int_vector(base_point)
    n = len(numerators)
    rows = [list(int_vector(b)[1]) for b in _entries(basis, "a basis")]
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("basis vector length differs from base point")
    return partial(_canonical, n, d, numerators, rows)


def _canonical(n: int, d: int, base, rows: list[list[int]]) -> AffineSubspace:
    """Canonical form of base / d + span(rows), for d > 0, integer base and rows.

    The rows are eliminated and given positive pivots, and base is reduced
    against each pivot row R_i (b <- (R_i[p] b - b[p] R_i) / R_i[p]),
    which sets b[p] to 0; base and d are then divided by their gcd.
    """
    rows = [_primitive(row) for row in rows]
    pivots = _eliminate(rows)
    rows = [row if row[p] > 0 else [-x for x in row] for row, p in zip(rows, pivots)]
    for row, p in zip(rows, pivots):
        b = base[p]
        if b:
            g = gcd(row[p], b)
            a, b = row[p] // g, b // g
            base = [a * x - b * y for x, y in zip(base, row)]
            d *= a
    g = gcd(d, *base)
    if g > 1:
        d, base = d // g, [x // g for x in base]
    return AffineSubspace(n, d, tuple(base), tuple(map(tuple, rows)), tuple(pivots))


def int_points(v: AffineSubspace) -> tuple[tuple[int, ...], ...]:
    """v's base point and basis vectors, each scaled to integers by its own denominator.

    For linear maps given as integer rows over one denominator, equal
    ``int_images`` of these mean equal images of v's base point and
    basis, i.e. maps that agree on v.
    """
    return (v.base,) + v.rows


def whole_space(n: int) -> AffineSubspace:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    return _canonical(n, 1, [0] * n, rows)


def single_point(p) -> AffineSubspace:
    return affine_subspace(p, ())


def point_in_dim(x, n: int) -> Vec:
    """x as a vector, which must have n coordinates."""
    x = vec(x)
    if len(x) != n:
        raise DimensionMismatch(f"expected a point with {n} coordinates, got {len(x)}")
    return x


def point_at(v: AffineSubspace, d: int, ys) -> tuple[int, tuple[int, ...]]:
    """The point x of v with coordinates ys / d in v's canonical basis, as
    (den, den x) in lowest terms, for d > 0 and integer ys.

    With R_i v's rows and s a common multiple of their pivots,
    d den s x = d s base + den sum_i ys[i] (s / R_i[p_i]) R_i.
    """
    scale = lcm(*[row[p] for row, p in zip(v.rows, v.pivots)])
    weights = [y * (scale // row[p]) for y, row, p in zip(ys, v.rows, v.pivots)]
    xs = [d * scale * b + v.den * sum([w * row[j] for w, row in zip(weights, v.rows) if w])
          for j, b in enumerate(v.base)]
    return lowest_terms(v.den * d * scale, xs)


def pivot_read(v: AffineSubspace, d: int, xs) -> tuple[int, ...] | None:
    """The entries of xs at v's pivots, or None when the point xs / d is not in v.

    v's base point is zero at the pivots, so a point's coordinates in v's
    canonical basis are its entries there, and it is in v exactly when
    ``point_at`` rebuilds it from them.
    """
    entries = tuple([xs[p] for p in v.pivots])
    return entries if point_at(v, d, entries) == lowest_terms(d, xs) else None


def coordinates(v: AffineSubspace, x) -> Vec | None:
    """x's coordinates in v's canonical basis, or None when x is not in v
    (``pivot_read`` on x's integer form)."""
    x = point_in_dim(x, v.ambient_dim)
    return None if pivot_read(v, *scaled(x)) is None else tuple(x[p] for p in v.pivots)


def contains_point(v: AffineSubspace, x) -> bool:
    return coordinates(v, x) is not None


def equations(v: AffineSubspace) -> tuple[list[tuple[int, ...]], list[int]]:
    """Integer (c, e) with v = {y : c y = e}; no rows for the whole space."""
    n, d, base = v.ambient_dim, v.den, v.base
    if v.rows:
        normals = [w for _, w in _int_kernel(v.rows, v.pivots, n)]
    else:
        normals = [[int(i == j) for j in range(n)] for i in range(n)]
    return ([tuple(d * c for c in w) for w in normals],
            [sum([c * x for c, x in zip(w, base)]) for w in normals])


def solve_affine(a: Mat, b) -> AffineSubspace | None:
    """Full solution set of a x = b as a canonical subspace, or None.

    Entries may be Fractions or ints, and an int is read as it is. The
    augmented rows are eliminated as integers; the particular solution and
    the kernel are read off the pivot rows and put in canonical form
    together. ``meet`` solves its systems here too.
    """
    b = [x if type(x) is int else rat(x) for x in b]
    if len(a) != len(b):
        raise DimensionMismatch("rows of a and length of b differ")
    n = len(a[0]) if a else 0
    if not a:
        return whole_space(n)
    aug = _int_rows([tuple(row) + (rhs,) for row, rhs in zip(a, b)])
    pivots = _eliminate(aug)
    if n in pivots:
        return None
    scale = lcm(*[row[p] for row, p in zip(aug, pivots)])
    particular = [0] * n
    for row, p in zip(aug, pivots):
        particular[p] = row[n] * (scale // row[p])
    kernel = [w for _, w in _int_kernel(aug, pivots, n)]
    return _canonical(n, scale, particular, kernel)


def meet(v: AffineSubspace, c, e) -> AffineSubspace | None:
    """{x in v : c x = e} as a canonical subspace, or None when it is empty.

    c is a list of integer rows of length n and e their integer right-hand
    sides. The system is solved in v's own k coordinates: with v's form
    (den, base, rows R_i), x = (base + sum_i s_i R_i) / den, and c x = e
    becomes the m x k integer system sum_i s_i (c R_i) = den e - c base.
    ``solve_affine`` solves it, and its solution set is mapped back
    through the R_i into one ``_canonical``. When every equation holds on
    all of v, v itself is returned.
    """
    a, b = [], []
    for row, rhs in zip(c, e):
        entries = [sum([x * y for x, y in zip(row, r) if x]) for r in v.rows]
        shift = v.den * rhs - sum([x * y for x, y in zip(row, v.base) if x])
        if shift or any(entries):
            a.append(entries)
            b.append(shift)
    if not a:
        return v
    s = solve_affine(a, b)
    if s is None:
        return None

    def through_v(ws):
        return [sum([w * r[j] for w, r in zip(ws, v.rows) if w]) for j in range(v.ambient_dim)]

    base = [s.den * x + y for x, y in zip(v.base, through_v(s.base))]
    return _canonical(v.ambient_dim, v.den * s.den, base, [through_v(w) for w in s.rows])


def intersect(a: AffineSubspace, b: AffineSubspace) -> AffineSubspace | None:
    """a & b as a canonical subspace, or None: b's equations solved on a
    (``meet``)."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return meet(a, *equations(b))


def fixed_points(form: tuple[int, IntMat], v: AffineSubspace) -> AffineSubspace | None:
    """{x in v : m x = x} as a canonical subspace, or None, for the square
    matrix m given as (d, d m) in sparse rows (``sparse``).

    The rows of d (m - I) x = 0 solved on v (``meet``).
    """
    d, rows = form
    n = v.ambient_dim
    if len(rows) != n:
        raise DimensionMismatch("ambient dimensions differ")
    moved = dense(rows, n)
    for i, row in enumerate(moved):
        row[i] -= d
    return meet(v, moved, [0] * n)


def direction_sum_is_full(a: AffineSubspace, b: AffineSubspace) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    stacked = [list(row) for row in a.rows + b.rows]
    if not stacked:
        return a.ambient_dim == 0
    return len(_eliminate(stacked)) == a.ambient_dim


def map_subspace(linear, offset, v: AffineSubspace) -> AffineSubspace:
    """Image of v under x -> a x + b, for a as (d, d a) in dense integer rows
    and b as (e, e b) (``int_matrix``, ``int_vector``)."""
    d, rows = linear
    if rows and len(rows[0]) != v.ambient_dim:
        raise DimensionMismatch("matrix/vector shape mismatch")
    return _image((d, sparse(rows)), *offset, v)


def transform_subspace(form: tuple[int, IntMat], v: AffineSubspace) -> AffineSubspace:
    """Image of v under the square matrix m, given as (d, d m) in sparse rows (``sparse``)."""
    if len(form[1]) != v.ambient_dim:
        raise DimensionMismatch("matrix/vector shape mismatch")
    return _image(form, 1, (0,) * v.ambient_dim, v)


def _image(form: tuple[int, IntMat], do: int, shift, v: AffineSubspace) -> AffineSubspace:
    """Image of v under x -> m x + shift / do, for m given as (d, d m)."""
    d, rows = form
    d *= v.den
    base = [y * do + s * d for y, s in zip(int_mat_vec(rows, v.base), shift)]
    directions = [list(int_mat_vec(rows, u)) for u in v.rows]
    return _canonical(len(rows), d * do, base, directions)


def restricted_matrix(form: tuple[int, IntMat],
                      v: AffineSubspace) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The columns of the matrix of m on v's direction space, in v's
    canonical basis, each as a point (den, den c) in lowest terms.

    m is given as (d, d m) in sparse rows (``sparse``). Column j holds the
    coordinates of m b_j, its entries at the basis pivots, and m must map
    the direction space into itself. ``form_of_columns`` turns the columns
    into (d', d' r) for the restricted matrix r.
    """
    d, rows = form
    columns = []
    for b, p in zip(v.rows, v.pivots):
        # m b_j = y / e is in the direction space when v's base point plus it is in v
        e, y = d * b[p], int_mat_vec(rows, b)
        coords = pivot_read(v, v.den * e, [e * x + v.den * t for x, t in zip(v.base, y)])
        if coords is None:
            # Unreachable: the package's one caller, ``classify.induced_chart``,
            # passes a generator g of Delta and a Delta-invariant V, so
            # g V = V and g maps V's direction space onto itself.
            raise AssertionError("image does not lie in the direction space")
        columns.append(lowest_terms(v.den * e, coords))
    return tuple(columns)


def sample_points(v: AffineSubspace) -> Iterator[tuple[int, tuple[int, ...]]]:
    """v's points with integer coordinates in its canonical basis, lazily,
    each as (den, den x) in lowest terms (``point_at``).

    They come in shells of max norm 0, 1, 2, ... of the coordinates, each
    shell in lexicographic order, so the base point is first; the
    saturation witnesses are the first hits in this order. The basis is
    independent, so no point comes twice.
    """
    if v.dim == 0:
        yield v.den, v.base
        return
    for radius in _count():
        for coeffs in _cartesian(range(-radius, radius + 1), repeat=v.dim):
            if max(map(abs, coeffs)) == radius:
                yield point_at(v, 1, coeffs)
