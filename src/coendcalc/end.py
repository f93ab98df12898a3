"""The end of a diagram as the annihilator of the coend's relations, and
the duality with the coend.

A point of the end is a tuple of endomorphisms, one per object, commuting
with every span matrix.  The tuples live in the same block coordinates as
the coend's ambient space V, and the trace pairing
<t, v> = sum_X tr(t_X v_X) meets the coordinate of generator (i, j) of a
tuple with that of (j, i) of a vector of V, ``BlockLayout.transposed``.
For a span matrix A: X -> Y and an elementary T: F(Y) -> F(X) the pairing
of t with the relation r(A, T) is tr(T (A t_X - t_Y A)), so the end is
exactly J^perp (Joyal-Street).  J is the kernel of the coend's
projection P, so J^perp is the row space of P: the end is spanned by P's
q rows with each block's coordinates transposed.  One rref of those rows,
with the columns in reverse order, makes each pivot a vector's last
nonzero, so it gives the basis a restriction kernel of J would: each
vector one at its last nonzero and zero at the others'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coend import BlockLayout, CoendStructure
from .diagram import DiagramPresentation
from .errors import InternalConsistencyError
from .linalg import Matrix, SparseMap, rank, rref, unvec_matrix, vec_matrix
from .reports import CheckReport


@dataclass(frozen=True)
class EndStructure:
    """Basis of commuting tuples, stored as block vectors.

    Basis vector a is one at coordinate ``free[a]``, its last nonzero, and
    zero at the other free coordinates.
    """

    diagram: DiagramPresentation
    layout: BlockLayout
    basis: tuple  # tuple of block vectors
    free: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def tuple_blocks(self, b: int) -> dict:
        """The b-th basis tuple as one matrix per object."""
        out = {}
        vec = self.basis[b]
        for name in self.layout.names:
            d = self.diagram.dim(name)
            off = self.layout.offsets[name]
            out[name] = unvec_matrix(self.diagram.field, vec[off : off + d * d], d, d)
        return out

    @cached_property
    def algebra(self) -> AlgebraData:
        """``end_algebra(self)``, once; a failure raises on every access."""
        return end_algebra(self)

    def identity_vector(self) -> tuple:
        field = self.diagram.field
        out = [field.zero] * self.layout.total
        for name in self.layout.names:  # vec of the identity: a one at every i*d + i
            d, off = self.diagram.dim(name), self.layout.offsets[name]
            out[off : off + d * d : d + 1] = [field.one] * d
        return tuple(out)


def compute_end(c: CoendStructure) -> EndStructure:
    """The tuples that pair to zero with J under the trace pairing: one
    rref of P's rows, each block's coordinates transposed and the columns
    reversed (see the module docstring)."""
    proj, to, n = c.split.projection, c.layout.transposed, c.ambient_dim
    flipped = [proj.entries[a * n + to[k]] for a in range(proj.rows) for k in reversed(range(n))]
    reduced, pivots, q = rref(Matrix._trusted(c.diagram.field, proj.rows, n, flipped))
    basis = tuple(reduced.row(a)[::-1] for a in reversed(range(q)))
    free = tuple(n - 1 - p for p in reversed(pivots))
    return EndStructure(diagram=c.diagram, layout=c.layout, basis=basis, free=free)


@dataclass(frozen=True)
class AlgebraData:
    """Multiplication structure constants and unit on a fixed basis.

    ``product`` is (n x n^2): column a*n + b holds the coordinates of the
    product of basis vectors a and b.  ``unit`` is a coordinate tuple.
    """

    dim: int
    product: Matrix
    unit: tuple

    @property
    def field(self):
        return self.product.field


def verify_algebra(a: AlgebraData) -> CheckReport:
    """Associativity m(m (x) 1) == m(1 (x) m) and the unit laws
    m(u (x) 1) == 1 == m(1 (x) u), each with the first bad coordinate."""
    n = a.dim
    m, u = SparseMap.from_matrix(a.product), SparseMap.from_columns(a.field, n, [a.unit])
    one = SparseMap.identity(a.field, n)
    report = CheckReport()
    report.add_difference(
        "associativity", m.associativity_difference(),
        lambda j, e: f"triple {(j // (n * n), j // n % n, j % n)}, coordinate {e}",
    )
    for side, unit in (("left", u.kron(one)), ("right", one.kron(u))):
        report.add_equal(
            f"unit law ({side})", m @ unit, one, lambda x, e: f"basis {x}, coordinate {e}"
        )
    return report


def end_algebra(e: EndStructure) -> AlgebraData:
    """Structure constants of componentwise composition of tuples.

    The basis is the identity on ``free``, so a tuple of the end has its
    coordinates at ``free``.  Composites of commuting tuples commute, so
    the basis applied to the coordinates read off each product (and off
    the identity tuple) must give that tuple back.
    """
    field, n, total = e.diagram.field, e.dim, e.layout.total
    if n == 0:
        return AlgebraData(dim=0, product=Matrix(field, 0, 0, []), unit=())
    blocks = [e.tuple_blocks(b) for b in range(n)]
    tuples = [
        [x for name in e.layout.names for x in vec_matrix(blocks[a][name] * blocks[b][name])]
        for a in range(n)
        for b in range(n)
    ]
    tuples.append(e.identity_vector())
    coords = [tuple([v[fc] for fc in e.free]) for v in tuples]
    basis = SparseMap.from_columns(field, total, e.basis)
    expressed = basis @ SparseMap.from_columns(field, n, coords)
    if expressed.first_difference(SparseMap.from_columns(field, total, tuples)) is not None:
        raise InternalConsistencyError("product tuple escaped the end")
    product = Matrix._trusted(field, n * n, n, [x for c in coords[:-1] for x in c]).transpose()
    return AlgebraData(dim=n, product=product, unit=coords[-1])


def pairing_functional(e: EndStructure, b: int) -> tuple:
    """The functional on V induced by basis tuple b via the trace pairing.

    Its value on the generator (i, j) of block X is entry (i, j) of the
    tuple's X component.
    """
    return tuple([e.basis[b][k] for k in e.layout.transposed])


def duality_isomorphism(e: EndStructure, c: CoendStructure):
    """The pairing between the end and the coend's dual, with its checks.

    Sends a tuple to the functional taking i_X(C_ij) to entry (i, j) of
    the tuple's X component; verifies that this kills the relations, is
    bijective, intertwines the two algebra structures, and that the
    reverse formula recovers every basis tuple.
    """
    if e.diagram != c.diagram:
        raise ValueError("end and coend were computed from different diagrams")
    field, n = e.diagram.field, c.dim
    report = CheckReport()
    report.add(
        "dimensions match",
        e.dim == c.dim,
        None if e.dim == c.dim else f"end dim {e.dim} != coend dim {c.dim}",
    )

    functionals = [pairing_functional(e, b) for b in range(e.dim)]
    rows = Matrix._trusted(field, e.dim, c.ambient_dim, [x for lam in functionals for x in lam])
    mapping = c.descend(("pairing functional", SparseMap.from_matrix(rows)))[0].transpose()
    report.ok("well-defined on relations")

    bijective = e.dim == n and rank(mapping) == n
    report.add("bijective", bijective, None if bijective else f"rank {rank(mapping)} of {n}")

    coalg, alg_end = c.coalgebra, e.algebra
    phi = SparseMap.from_matrix(mapping)
    report.add_equal(
        "multiplicative",
        phi @ SparseMap.from_matrix(alg_end.product),
        SparseMap.from_matrix(coalg.delta.transpose()) @ phi.kron(phi),
        lambda j, _: f"pair {divmod(j, e.dim)}",
    )

    unit_ok = e.dim == 0 or mapping.apply(alg_end.unit) == coalg.epsilon.row(0)
    report.add("unit preserved", unit_ok, None if unit_ok else "image of identity tuple != counit")

    def entry(b, k):
        name, flat = e.layout.locate(k)
        return f"tuple {b}, object {name!r}, entry {divmod(flat, e.diagram.dim(name))}"

    report.add_equal(
        "reverse formula recovers tuples",
        SparseMap.from_matrix(c.split.projection.transpose()) @ phi,
        SparseMap.from_columns(field, c.ambient_dim, functionals),
        entry,
    )
    return mapping, report
