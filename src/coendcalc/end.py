"""The end of a diagram as its commutant, and the duality with the coend.

A point of the end is a tuple of endomorphisms, one per object, commuting
with every span matrix.  The tuples live in the same block coordinates as
the coend's ambient space, which makes the trace pairing between end
tuples and coend generators a literal index lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coend import BlockLayout, CoalgebraData, CoendStructure, coalgebra_structure
from .diagram import DiagramPresentation, hom_basis, validate_diagram
from .errors import ClosureError, InternalConsistencyError, WellDefinednessError
from .linalg import (
    Matrix,
    kernel_basis,
    kron,
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

    def identity_vector(self) -> tuple:
        field = self.diagram.field
        out = [field.zero] * self.layout.total
        for name in self.layout.names:
            d = self.diagram.dim(name)
            off = self.layout.offsets[name]
            for k, val in enumerate(vec_matrix(Matrix.identity(field, d))):
                out[off + k] = val
        return tuple(out)


def compute_end(d: DiagramPresentation, require_closed: bool = True) -> EndStructure:
    """Solve the stacked commuting conditions T_Y A = A T_X as one kernel."""
    if require_closed:
        report = validate_diagram(d)
        if not report.passed:
            bad = report.failures()[0]
            raise ClosureError(f"diagram is not saturated/valid: {bad.name}")
    field = d.field
    layout = BlockLayout(d)
    names = d.names()
    rows = []
    for x in names:
        dx = d.dim(x)
        for y in names:
            dy = d.dim(y)
            basis = hom_basis(d, x, y).basis
            if not basis or dx == 0 or dy == 0:
                continue
            for a in basis:
                # vec(T_Y A) = kron(A^t, I) vec(T_Y); vec(A T_X) = kron(I, A) vec(T_X)
                on_y = kron(a.transpose(), Matrix.identity(field, dy))
                on_x = kron(Matrix.identity(field, dx), a)
                off_x, off_y = layout.offsets[x], layout.offsets[y]
                for r in range(dx * dy):
                    row = [field.zero] * layout.total
                    for cidx in range(dy * dy):
                        val = on_y[r, cidx]
                        if val:
                            row[off_y + cidx] = field.add(row[off_y + cidx], val)
                    for cidx in range(dx * dx):
                        val = on_x[r, cidx]
                        if val:
                            row[off_x + cidx] = field.sub(row[off_x + cidx], val)
                    rows.append(row)
    if rows:
        system = Matrix(field, len(rows), layout.total, [x for row in rows for x in row])
    else:
        system = Matrix(field, 0, layout.total, [])
    basis = tuple(kernel_basis(system))
    return EndStructure(diagram=d, layout=layout, basis=basis)


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
    """Exact associativity and two-sided unit laws."""
    report = CheckReport()
    field = a.field
    n = a.dim
    zero = field.zero
    cols = [a.product.col_terms(i) for i in range(n * n)]

    witness = None
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs, rhs = {}, {}
                for c, w in cols[x * n + y]:
                    for e, w2 in cols[c * n + z]:
                        lhs[e] = field.add(lhs.get(e, zero), field.mul(w, w2))
                for c, w in cols[y * n + z]:
                    for e, w2 in cols[x * n + c]:
                        rhs[e] = field.add(rhs.get(e, zero), field.mul(w, w2))
                for key in set(lhs) | set(rhs):
                    if lhs.get(key, zero) != rhs.get(key, zero):
                        witness = f"triple ({x}, {y}, {z}), coordinate {key}"
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    report.add("associativity", witness is None, witness)

    for side in ("left", "right"):
        witness = None
        for x in range(n):
            acc = [zero] * n
            for r, w in enumerate(a.unit):
                if not w:
                    continue
                col = cols[r * n + x] if side == "left" else cols[x * n + r]
                for e, w2 in col:
                    acc[e] = field.add(acc[e], field.mul(w, w2))
            for e in range(n):
                expected = field.one if e == x else zero
                if acc[e] != expected:
                    witness = f"basis {x}, coordinate {e}"
                    break
            if witness:
                break
        report.add(f"unit law ({side})", witness is None, witness)
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
    field = e.diagram.field
    zero = field.zero
    n = c.dim
    report = CheckReport()
    report.add(
        "dimensions match",
        e.dim == c.dim,
        None if e.dim == c.dim else f"end dim {e.dim} != coend dim {c.dim}",
    )

    functionals = [pairing_functional(e, b) for b in range(e.dim)]
    for b, lam in enumerate(functionals):
        for ridx, rel in enumerate(c.relation_basis):
            val = zero
            for k, x in enumerate(rel):
                if x:
                    val = field.add(val, field.mul(lam[k], x))
            if val:
                raise WellDefinednessError(
                    "pairing functional does not vanish on the relation space",
                    witness=f"tuple {b}, relation {ridx}",
                )
    report.ok("well-defined on relations")

    cols = [c.split.section.transpose().apply(lam) for lam in functionals]
    if cols:
        mapping = Matrix.from_cols(field, cols)
    else:
        mapping = Matrix(field, n, 0, [])
    bijective = e.dim == n and rank(mapping) == n
    report.add("bijective", bijective, None if bijective else f"rank {rank(mapping)} of {n}")

    coalg = coalgebra_structure(c)
    alg_end = end_algebra(e)
    dual = dual_algebra(coalg)

    witness = None
    for a in range(e.dim):
        for b in range(e.dim):
            lhs = mapping.apply(alg_end.product.col(a * e.dim + b))
            alpha, beta = mapping.col(a), mapping.col(b)
            rhs = [zero] * n
            for cidx in range(n):
                acc = zero
                for rs, w in coalg.delta.col_terms(cidx):
                    r, s = divmod(rs, n)
                    if alpha[r] and beta[s]:
                        acc = field.add(acc, field.mul(w, field.mul(alpha[r], beta[s])))
                rhs[cidx] = acc
            if list(lhs) != rhs:
                witness = f"pair ({a}, {b})"
                break
        if witness:
            break
    report.add("multiplicative", witness is None, witness)

    unit_ok = e.dim > 0 and list(mapping.apply(alg_end.unit)) == list(dual.unit)
    if e.dim == 0:
        unit_ok = True
    report.add("unit preserved", unit_ok, None if unit_ok else "image of identity tuple != counit")

    witness = None
    proj_t = c.split.projection.transpose()
    for b in range(e.dim):
        lam_v = proj_t.apply(mapping.col(b))
        vec = e.basis[b]
        for name in e.layout.names:
            d = e.diagram.dim(name)
            off = e.layout.offsets[name]
            for i in range(d):
                for j in range(d):
                    if lam_v[off + i * d + j] != vec[off + j * d + i]:
                        witness = f"tuple {b}, object {name!r}, entry ({i}, {j})"
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    report.add("reverse formula recovers tuples", witness is None, witness)
    return mapping, report
