"""The end of a diagram as its commutant, and the duality with the coend.

A point of the end is a tuple of endomorphisms, one per object, commuting
with every span matrix.  The tuples live in the same block coordinates as
the coend's ambient space, which makes the trace pairing between end
tuples and coend generators a literal index lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coend import BlockLayout, CoalgebraData, CoendStructure
from .diagram import DiagramPresentation, hom_basis
from .errors import InternalConsistencyError, WellDefinednessError
from .linalg import (
    Matrix,
    SparseMap,
    kernel_basis,
    left_inverse,
    rank,
    unvec_matrix,
    vec_matrix,
)
from .reports import CheckReport


@dataclass(frozen=True)
class EndStructure:
    """Basis of commuting tuples, stored as block vectors."""

    diagram: DiagramPresentation
    layout: BlockLayout
    basis: tuple  # tuple of block vectors

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
        for name in self.layout.names:
            d = self.diagram.dim(name)
            off = self.layout.offsets[name]
            for k, val in enumerate(vec_matrix(Matrix.identity(field, d))):
                out[off + k] = val
        return tuple(out)


def compute_end(d: DiagramPresentation) -> EndStructure:
    """Solve the stacked commuting conditions T_Y A = A T_X as one kernel."""
    field = d.field
    layout = BlockLayout(d)
    one, minus = field.one, field.neg(field.one)
    rows = []
    for x in d.names():
        dx, off_x = d.dim(x), layout.offsets[x]
        for y in d.names():
            dy, off_y = d.dim(y), layout.offsets[y]
            for a in hom_basis(d, x, y).basis:
                # entry (k, i) of T_Y A - A T_X: column i of A against row k
                # of T_Y, minus row k of A against column i of T_X
                for i in range(dx):
                    for k in range(dy):
                        on_y = {off_y + j * dy + k: v for j, v in a.col_terms(i)}
                        on_x = {off_x + i * dx + l: v for l, v in a.row_terms(k).items()}
                        rows.append(field.lincomb(((one, on_y), (minus, on_x))))
    basis = kernel_basis(field, layout.total, rows)
    return EndStructure(diagram=d, layout=layout, basis=tuple(basis))


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
    report.add_equal(
        "associativity", *m.associativity_sides(),
        lambda j, e: f"triple {(j // (n * n), j // n % n, j % n)}, coordinate {e}",
    )
    for side, unit in (("left", u.kron(one)), ("right", one.kron(u))):
        report.add_equal(
            f"unit law ({side})", m @ unit, one, lambda x, e: f"basis {x}, coordinate {e}"
        )
    return report


def end_algebra(e: EndStructure) -> AlgebraData:
    """Structure constants of componentwise composition of tuples."""
    field = e.diagram.field
    n = e.dim
    if n == 0:
        return AlgebraData(dim=0, product=Matrix(field, 0, 0, []), unit=())
    basis_matrix = Matrix.from_cols(field, list(e.basis))
    coords = left_inverse(basis_matrix)
    if coords is None:
        raise InternalConsistencyError("end basis is not linearly independent")

    def express(vec):
        got = coords.apply(vec)
        # tuples of commuting tuples commute, so the residual must vanish
        if basis_matrix.apply(got) != tuple(vec):
            raise InternalConsistencyError("product tuple escaped the end")
        return got

    blocks = [e.tuple_blocks(b) for b in range(n)]
    product_cols = []
    for a in range(n):
        for b in range(n):
            out = [field.zero] * e.layout.total
            for name in e.layout.names:
                off = e.layout.offsets[name]
                prod = blocks[a][name] * blocks[b][name]
                for k, val in enumerate(vec_matrix(prod)):
                    out[off + k] = val
            product_cols.append(express(out))
    unit = express(e.identity_vector())
    return AlgebraData(dim=n, product=Matrix.from_cols(field, product_cols), unit=unit)


def dual_algebra(c: CoalgebraData) -> AlgebraData:
    """Convolution algebra on the dual basis: (a.b)(v) = (a (x) b)(delta v)."""
    return AlgebraData(
        dim=c.dim,
        product=c.delta.transpose(),
        unit=tuple(c.epsilon.row(0)),
    )


def pairing_functional(e: EndStructure, b: int) -> tuple:
    """The functional on V induced by basis tuple b via the trace pairing.

    Its value on the generator (i, j) of block X is entry (i, j) of the
    tuple's X component.
    """
    field = e.diagram.field
    vec = e.basis[b]
    out = [field.zero] * e.layout.total
    for name in e.layout.names:
        d = e.diagram.dim(name)
        off = e.layout.offsets[name]
        for i in range(d):
            for j in range(d):
                out[off + i * d + j] = vec[off + j * d + i]
    return tuple(out)


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
    pairings = SparseMap.from_matrix(rows) @ c.relation_map()
    failure = min(((b, k) for k in range(pairings.cols) for b in pairings.column(k)), default=None)
    if failure is not None:
        raise WellDefinednessError(
            "pairing functional does not vanish on the relation space",
            witness="tuple {}, relation {}".format(*failure),
        )
    report.ok("well-defined on relations")

    cols = [lam[fc] for lam in functionals for fc in c.split.free]
    mapping = Matrix._trusted(field, e.dim, n, cols).transpose()
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
