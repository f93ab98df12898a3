"""Exact matrices: rref, kernels, Kronecker products, quotient splits, and
sparse maps for stating axioms as identities.

Matrices are immutable, store a row-major tuple of scalars and carry their
field descriptor.  Pivoting is deterministic (first nonzero in column
order) so every derived basis is byte-stable across runs.

Vectors are plain tuples of scalars.  ``vec_matrix`` is the column-stacking
coordinate map: for an r x c matrix ``m``, ``vec(m)[i*r + j] = m[j, i]``.
On square matrices this realizes the matrix-coefficient convention used by
the diagram layer (coordinate (i, j) multiplies the unit sending basis
vector i to basis vector j), and it satisfies the standard identity
``vec(A @ T @ B) = kron(B^t, A) @ vec(T)``.

Kernel contract: every entry a matrix, span or kernel function returns is
canonical in its field (see ``fields``), and zero is tested by
truthiness, which canonical ``Fraction`` and residue zeros both support.
Products, eliminations and Kronecker products go through the field's row
kernels (``dot``, ``axpy``, ``scale_row``, ``lincomb``).  ``Matrix(...)``
coerces and shape-checks its entries; ``Matrix._trusted`` does neither
and may only be given entries computed from canonical ones, since a
non-canonical entry would change how a report renders.

Hot-path tuples (entries, ``col``, ``apply``, ``vec_matrix``) come from
lists or slices, and no accumulator holds tuples: ``tuple(<generator>)``
allocates at a guessed size and shrinks, so it never takes a tuple from
CPython's per-size free list but returns one there when freed, and memory
parked there, unusable for other sizes, shows in peak resident memory.

``kernel_basis`` takes sparse rows (``{column: value}`` dicts storing no
zero, keys in any order, as ``Matrix.row_terms`` gives) and restricts
the standard basis e_0, e_1, ... of k^cols row by row, pairing over each
row's keys only: a redundant row pairs to zero with every vector kept so
far and costs only those pairings; otherwise the first vector with a
nonzero pairing clears it from the later ones and is dropped.  Vector j
thus only gains multiples of dropped vectors of lower index: it ends
with a one at j, its last nonzero, and zeros at the other survivors'
indices.  Column c is a non-pivot column of the rref of the rows exactly
when some kernel vector has its last nonzero at c, so the survivors are
the basis rref gives: a one at each non-pivot column, zeros at the others.

``quotient_split`` splits k^n by the span J of sparse rows with that one
kernel and no elimination of J, and returns only P and ``free``.  A
vector pairs to zero with J exactly when it lies in J^perp, so the
kernel vectors, taken as rows, form a projection P: k^n -> k^q whose
kernel is J; each is one at its own free column (its last nonzero) and
zero at the other free columns, so P is the identity on ``free``.  With S
the section, sending quotient basis vector a to e_free[a], PS = 1, and
SP is the projector onto the free columns whose kernel is J.  So a map m
on k^n kills J exactly when m == (m S) P, and it then descends to the
quotient as m S, m read at the free columns; no row of J is formed.

``SparseMap`` contract: a map is given column by column, and column j is a
``{row: value}`` dict of canonical entries that stores no zero, so two
maps agree exactly when their column dicts are equal.  Maps built from a
matrix or from vectors keep their columns; identities, swaps, products
and Kronecker products compute a column each time it is asked for, and a
product keeps, for its own lifetime, each left-factor column that a sum
of several columns has read.  Identities are marked, and a Kronecker
product with an identity factor only moves the row indices of the other
factor's columns.  Callers only read the dicts a map returns.
Products and Kronecker products skip the multiplication by a weight that
is the field's ``one`` object itself, as in identities and swaps; an
equal but distinct one is multiplied, with the same result.  ``Matrix``
remains the one storage of structure constants and of every report.

``associativity_difference`` finds the first (column, row) where
m(m (x) 1) and m(1 (x) m) differ, for a product m: V (x) V -> V (dim V =
n), straight from m's columns: the pair ``first_difference`` of the two
composites gives, so every witness is unchanged.  Column (a, b, c) of
m(m (x) 1) is m applied to column ab of m with each row r sent to
r*n + c; column (a, b, c) of m(1 (x) m) is m applied to column bc with r
sent to a*n + r.  A weight equal to one is stored as the field's ``one``
itself.  Where column ab is the single term w at r and column r*n + c
the single term x at r', and likewise y at s and z at s' on the right,
the rows r' and s' are compared and then, unless all four weights are
one, the field's ``products_equal`` decides w*x == y*z: no product is
formed.  Otherwise both columns are built as dicts, as a product's would
be: empty, a scaled column (not multiplied by a weight of one), or one
``lincomb`` of several columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ShapeError
from .fields import Field, Scalar, same_field

Vector = tuple


class Matrix:
    """An immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix shape {rows}x{cols}")
        entries = tuple([field.coerce(x) for x in entries])
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _trusted(cls, field: Field, rows: int, cols: int, entries) -> "Matrix":
        """A matrix of canonical entries, built without coercion or checks."""
        m, put = object.__new__(cls), object.__setattr__
        put(m, "field", field)
        put(m, "rows", rows)
        put(m, "cols", cols)
        put(m, "entries", tuple(entries))
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows")
        return cls(field, len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls._trusted(field, n, n,
                            [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._trusted(field, rows, cols, [field.zero] * (rows * cols))

    # -- access ------------------------------------------------------------

    def __getitem__(self, key) -> Scalar:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return self.entries[j :: self.cols]

    def col_terms(self, j: int) -> list:
        """Nonzero (row, value) pairs of column j."""
        return [(i, x) for i, x in enumerate(self.entries[j :: self.cols]) if x]

    def row_terms(self, i: int) -> dict:
        """Row i as a ``{column: value}`` dict storing no zero."""
        return {j: x for j, x in enumerate(self.row(i)) if x}

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        f = same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        add = f.add
        return Matrix._trusted(f, self.rows, self.cols,
                               [add(a, b) for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix._trusted(self.field, self.rows, self.cols, [neg(a) for a in self.entries])

    def scale(self, s) -> "Matrix":
        s = self.field.coerce(s)
        return Matrix._trusted(self.field, self.rows, self.cols,
                               self.field.scale_row(s, self.entries))

    def __mul__(self, other: "Matrix") -> "Matrix":
        f = same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, k, dot = self.rows, other.cols, self.cols, f.dot
        a = self.entries
        bcols = [other.entries[j::m] for j in range(m)]
        out = [dot(a[i * k : (i + 1) * k], col) for i in range(n) for col in bcols]
        return Matrix._trusted(f, n, m, out)

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product as a tuple."""
        if len(v) != self.cols:
            raise ShapeError(f"vector of length {len(v)} against {self.rows}x{self.cols}")
        dot, k, e = self.field.dot, self.cols, self.entries
        return tuple([dot(e[i * k : (i + 1) * k], v) for i in range(self.rows)])

    def transpose(self) -> "Matrix":
        return Matrix._trusted(
            self.field,
            self.cols,
            self.rows,
            [self.entries[j * self.cols + i] for i in range(self.cols) for j in range(self.rows)],
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.render(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols} [{body}])"


# -- elimination -----------------------------------------------------------


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns, rank)``.  The result is the unique
    rref of ``m``; pivots are chosen as the first nonzero entry scanning
    columns left to right.
    """
    f = m.field
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        rows[r] = prow = f.scale_row(f.inv(rows[r][c]), rows[r])
        for i in range(m.rows):
            if i != r and rows[i][c]:
                rows[i] = f.axpy(rows[i][c], rows[i], prow)
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    reduced = Matrix._trusted(f, m.rows, m.cols, [x for row in rows for x in row])
    return reduced, tuple(pivots), len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[2]


def kernel_basis(field: Field, cols: int, rows: Iterable) -> list:
    """Exact basis of the vectors of k^cols that pair to zero with every
    sparse row, one per non-pivot column (see the module docstring)."""
    f = field
    kernel = [[f.one if i == j else f.zero for i in range(cols)] for j in range(cols)]
    for row in rows:
        if not kernel:
            break
        if not row:
            continue
        support, xs = list(row), list(row.values())
        pairings = [f.dot(xs, [v[c] for c in support]) for v in kernel]
        first = next((k for k, p in enumerate(pairings) if p), None)
        if first is None:
            continue
        pivot, scale = kernel[first], f.inv(pairings[first])
        kernel = [
            f.axpy(f.mul(p, scale), v, pivot) if p else v
            for k, (v, p) in enumerate(zip(kernel, pairings))
            if k != first
        ]
    return [tuple(v) for v in kernel]


# -- tensor structure ------------------------------------------------------


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, block-row-major:

    entry ((i*rows_b + k), (j*cols_b + l)) = a[i, j] * b[k, l].
    """
    f = same_field(a.field, b.field)
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [f.zero] * (rows * cols)
    for i in range(a.rows):
        for j, x in enumerate(a.row(i)):
            if x:
                for k in range(b.rows):
                    base = (i * b.rows + k) * cols + j * b.cols
                    out[base : base + b.cols] = f.scale_row(x, b.row(k))
    return Matrix._trusted(f, rows, cols, out)


def vec_matrix(m: Matrix) -> Vector:
    """Column-stacking coordinates, the transpose's: vec(m)[i*rows + j] = m[j, i]."""
    return m.transpose().entries


def unvec_matrix(field: Field, v: Sequence, rows: int, cols: int) -> Matrix:
    """Inverse of :func:`vec_matrix`."""
    if len(v) != rows * cols:
        raise ShapeError(f"vector of length {len(v)} is not {rows}x{cols}")
    return Matrix(field, rows, cols, [v[i * rows + j] for j in range(rows) for i in range(cols)])


# -- sparse maps -----------------------------------------------------------


class SparseMap:
    """A linear map k^cols -> k^rows given column by column.

    ``column(j)`` returns column j as a ``{row: value}`` dict; see the
    module docstring for the contract.
    """

    __slots__ = ("field", "rows", "cols", "column", "is_identity")

    def __init__(self, field: Field, rows: int, cols: int, column, is_identity=False):
        self.field, self.rows, self.cols, self.column = field, rows, cols, column
        self.is_identity = is_identity

    @classmethod
    def from_matrix(cls, m: Matrix) -> "SparseMap":
        cols = [dict(m.col_terms(j)) for j in range(m.cols)]
        return cls(m.field, m.rows, m.cols, cols.__getitem__)

    @classmethod
    def from_columns(cls, field: Field, rows: int, vectors) -> "SparseMap":
        """The map whose column j is the dense vector ``vectors[j]``."""
        cols = [{i: x for i, x in enumerate(v) if x} for v in vectors]
        return cls(field, rows, len(cols), cols.__getitem__)

    @classmethod
    def identity(cls, field: Field, n: int) -> "SparseMap":
        one = field.one
        return cls(field, n, n, lambda j: {j: one}, is_identity=True)

    @classmethod
    def swap(cls, field: Field, a: int, b: int) -> "SparseMap":
        """The flip k^a (x) k^b -> k^b (x) k^a sending u (x) v to v (x) u."""
        one = field.one
        return cls(field, a * b, a * b, lambda j: {j % b * a + j // b: one})

    def __matmul__(self, other: "SparseMap") -> "SparseMap":
        """The composite: first ``other``, then ``self``."""
        f = same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot compose {self.rows}x{self.cols} after {other.rows}x{other.cols}"
            )
        outer, inner, one, mul, lincomb = self.column, other.column, f.one, f.mul, f.lincomb
        read = {}  # the columns of self that a sum has read, kept for reuse

        def column(j):
            terms = inner(j)
            if len(terms) > 1:
                return lincomb(
                    (w, read[k] if k in read else read.setdefault(k, outer(k)))
                    for k, w in terms.items()
                )
            # one term or none: a scaled column, and no sum that could cancel
            for k, w in terms.items():
                col = outer(k)
                return col if w is one else {r: mul(w, x) for r, x in col.items()}
            return terms

        return SparseMap(f, self.rows, other.cols, column)

    def kron(self, other: "SparseMap") -> "SparseMap":
        """Kronecker product, in the block-row-major order of :func:`kron`."""
        f = same_field(self.field, other.field)
        left, right, rb, cb = self.column, other.column, other.rows, other.cols
        one, mul = f.one, f.mul

        if self.is_identity:
            def column(j):  # column j % cb of other, j // cb blocks down
                shift, b = j // cb * rb, right(j % cb)
                return {shift + s: y for s, y in b.items()} if shift else b
        elif other.is_identity:
            def column(j):  # column j // rb of self, rows spread with stride rb
                s = j % rb
                return {r * rb + s: x for r, x in left(j // rb).items()}
        else:
            def column(j):
                a = left(j // cb)
                if not a:
                    return a
                b = right(j % cb)
                return {
                    r * rb + s: y if x is one else x if y is one else mul(x, y)
                    for r, x in a.items()
                    for s, y in b.items()
                }

        return SparseMap(f, self.rows * rb, self.cols * cb, column)

    def associativity_difference(self):
        """The first (column, row) where m(m (x) 1) and m(1 (x) m) differ for
        m: V (x) V -> V, or None, read off m's own columns (see the module
        docstring)."""
        f, n = self.field, self.rows
        if self.cols != n * n:
            raise ShapeError(f"a product on k^{n} needs {n * n} columns, got {self.cols}")
        nn, one, mul, lincomb, equal = n * n, f.one, f.mul, f.lincomb, f.products_equal
        cols = [self.column(k) for k in range(nn)]
        # the row and weight of each single-term column (row None otherwise);
        # a weight equal to one is flagged by storing the field's one itself
        rows, weights = [None] * nn, [None] * nn
        for k, c in enumerate(cols):
            if len(c) == 1:
                (rows[k], w), = c.items()
                weights[k] = one if w == one else w

        def column(k, stride, shift):  # m at column k of m, row r sent to r*stride + shift
            c, w = cols[k], weights[k]
            if w is None:  # no term, or a sum of several
                return lincomb((w, cols[r * stride + shift]) for r, w in c.items()) if c else c
            at = rows[k] * stride + shift
            return cols[at] if w is one else {r: mul(w, x) for r, x in cols[at].items()}

        for j in range(nn * n):
            ab, c = divmod(j, n)
            a, bc = divmod(j, nn)
            r, s = rows[ab], rows[bc]
            if r is not None and s is not None:
                left, right = r * n + c, a * n + s
                r, s = rows[left], rows[right]
                if r is not None and s is not None:  # w*x at r against y*z at s
                    w, x, y, z = weights[ab], weights[left], weights[bc], weights[right]
                    if r != s or not (w is x is y is z is one or equal(w, x, y, z)):
                        return j, min(r, s)
                    continue
            lhs, rhs = column(ab, n, c), column(bc, 1, a * n)
            if lhs != rhs:
                return j, _first_row(lhs, rhs)
        return None

    def to_matrix(self) -> Matrix:
        """The map as a dense ``Matrix``."""
        zero, cols = self.field.zero, [self.column(j) for j in range(self.cols)]
        return Matrix._trusted(self.field, self.rows, self.cols,
                               [col.get(r, zero) for r in range(self.rows) for col in cols])

    def first_difference(self, other: "SparseMap"):
        """The first (column, row) where the two maps differ, or None."""
        same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"cannot compare {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        for j in range(self.cols):
            a, b = self.column(j), other.column(j)
            if a != b:
                return j, _first_row(a, b)
        return None


def _first_row(a: dict, b: dict):
    """The least row where two unequal columns differ."""
    return min(r for r in a.keys() | b.keys() if a.get(r) != b.get(r))


# -- quotient spaces -------------------------------------------------------


@dataclass(frozen=True)
class QuotientSplit:
    """A projection/section pair splitting an ambient space by a subspace.

    The quotient basis is indexed by the non-pivot coordinates of the rref
    of the subspace, ``free``; the section maps quotient basis vector a to
    the ambient coordinate vector of its non-pivot column ``free[a]``.
    """

    ambient_dim: int
    projection: Matrix
    free: tuple

    @property
    def quotient_dim(self) -> int:
        return self.projection.rows

    @cached_property
    def projection_map(self) -> SparseMap:
        """P as a SparseMap, built once."""
        return SparseMap.from_matrix(self.projection)

    @cached_property
    def section(self) -> SparseMap:
        """S as a SparseMap: column a is e_free[a]."""
        f = self.projection.field
        cols = [{fc: f.one} for fc in self.free]
        return SparseMap(f, self.ambient_dim, len(cols), cols.__getitem__)


def quotient_split(field: Field, ambient_dim: int, rows: Iterable) -> QuotientSplit:
    """Split ``k^ambient_dim`` by the span J of the given sparse rows, with
    one restriction kernel (see the module docstring)."""
    proj = kernel_basis(field, ambient_dim, rows)
    return QuotientSplit(
        ambient_dim=ambient_dim,
        projection=Matrix._trusted(field, len(proj), ambient_dim, [x for v in proj for x in v]),
        free=tuple(max(i for i, x in enumerate(v) if x) for v in proj),
    )


# -- span bookkeeping ------------------------------------------------------


class VectorSpan:
    """A growing span of vectors kept in reduced echelon form."""

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self._rows = []  # echelon rows
        self._pivots = []  # pivot column of each row

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self) -> list:
        return [tuple(r) for r in self._rows]

    def _reduce(self, v: Sequence) -> list:
        axpy = self.field.axpy
        v = list(v)
        for row, p in zip(self._rows, self._pivots):
            if v[p]:
                v = axpy(v[p], v, row)
        return v

    def contains(self, v: Sequence) -> bool:
        return not any(self._reduce(v))

    def add(self, v: Sequence) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        if len(v) != self.ambient_dim:
            raise ShapeError("vector has the wrong ambient dimension")
        f = self.field
        v = self._reduce(v)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        v = f.scale_row(f.inv(v[pivot]), v)
        for i, row in enumerate(self._rows):
            if row[pivot]:
                self._rows[i] = f.axpy(row[pivot], row, v)
        at = next((i for i, p in enumerate(self._pivots) if p > pivot), len(self._pivots))
        self._rows.insert(at, v)
        self._pivots.insert(at, pivot)
        return True
