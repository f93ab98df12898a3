"""The coend of a diagram as an explicit quotient, and its coalgebra.

The ambient space V is the direct sum over objects X of the endomorphism
coordinates of F(X).  The relation space J is spanned, for every span
matrix A: X -> Y and every elementary T: F(Y) -> F(X), by the vector
carrying the coordinates of T*A in block X minus those of A*T in block Y.
The coend is the quotient split of V by J, a projection P whose kernel
is J and the section S picking the free generators; the structure map of
each object is its block of P's columns, and everything here reads P
directly.  A map m on V kills J exactly when m == m S P, and then it
descends to the quotient as m S: ``CoendStructure.descend`` checks and
descends the coalgebra here, the canonical map of a round trip and the
pairing of the end with the coend against P alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .diagram import DiagramPresentation, hom_basis
from .errors import InternalConsistencyError, WellDefinednessError
from .fields import Field
from .linalg import Matrix, QuotientSplit, SparseMap, quotient_split
from .reports import CheckReport


class BlockLayout:
    """Offsets of the per-object endomorphism blocks inside V.

    ``transposed`` is the permutation of V taking the coordinate of each
    generator (i, j) to that of (j, i) in the same block.
    """

    def __init__(self, d: DiagramPresentation):
        self.names = d.names()
        self.dims = {name: d.dim(name) for name in self.names}
        self.offsets, transposed = {}, []
        total = 0
        for name, n in self.dims.items():
            self.offsets[name] = total
            transposed += (total + j * n + i for i in range(n) for j in range(n))
            total += n * n
        self.total = total
        self.transposed = tuple(transposed)

    def locate(self, coordinate: int):
        """Return (object name, flat index within its block)."""
        for name, n in self.dims.items():
            off = self.offsets[name]
            if off <= coordinate < off + n * n:
                return name, coordinate - off
        raise IndexError(f"coordinate {coordinate} outside V (dim {self.total})")

    def label(self, coordinate: int) -> str:
        """The generator at a coordinate of V as 'X:i,j' (1-based)."""
        name, flat = self.locate(coordinate)
        i, j = divmod(flat, self.dims[name])
        return f"{name}:{i + 1},{j + 1}"


def relation_space(d: DiagramPresentation) -> list:
    """Spanning set of the relation space J, as sparse rows.

    For every pair (X, Y), every basis matrix A of the span X -> Y, and
    every elementary T = E_rc: F(Y) -> F(X), emit block_X(vec(T*A)) minus
    block_Y(vec(A*T)) as a ``{coordinate: value}`` dict storing no zero.
    Both are read off A without a product: T*A is row c of A placed in
    row r, and A*T is column r of A placed in column c.  Closure of the
    spans is not needed: saturation leaves J unchanged, since
    r(B*A, T) = r(A, T*B) + r(B, A*T) and r(id, T) = 0.
    """
    layout = BlockLayout(d)
    field = d.field
    relations = []
    names = d.names()
    for x in names:
        dx, off_x = d.dim(x), layout.offsets[x]
        for y in names:
            dy, off_y = d.dim(y), layout.offsets[y]
            for a in hom_basis(d, x, y).basis:
                for r in range(dx):
                    column_r = a.entries[r::dx]
                    for c in range(dy):
                        vec = {off_x + r + k * dx: v for k, v in a.row_terms(c).items()}
                        for i, val in enumerate(column_r):
                            if val:
                                k = off_y + c * dy + i
                                vec[k] = field.sub(vec.get(k, field.zero), val)
                        relations.append({k: v for k, v in vec.items() if v})
    return relations


@dataclass(frozen=True)
class CoendStructure:
    """The coend of a diagram: the quotient split of V by J."""

    diagram: DiagramPresentation
    layout: BlockLayout
    split: QuotientSplit

    @property
    def dim(self) -> int:
        return self.split.quotient_dim

    @property
    def ambient_dim(self) -> int:
        return self.layout.total

    @property
    def relation_dim(self) -> int:
        return self.ambient_dim - self.dim

    def basis_labels(self) -> list:
        """Self-describing labels 'X:i,j' (1-based) of the chosen generators."""
        return [self.layout.label(fc) for fc in self.split.free]

    def descend(self, *named_maps) -> list:
        """The quotient maps m S of ``(name, m)`` pairs, each m a SparseMap on V.

        m kills J exactly when m == m S P (see ``linalg``).  Raises
        WellDefinednessError at the first generator where the first map
        that fails, in the order given, differs from m S P."""
        section, proj = self.split.section, self.split.projection_map
        out = []
        for name, m in named_maps:
            down = m @ section
            bad = m.first_difference(down @ proj)
            if bad is not None:
                raise WellDefinednessError(
                    f"{name} does not vanish on the relation space",
                    witness=f"generator {self.layout.label(bad[0])}",
                )
            out.append(down.to_matrix())
        return out

    @cached_property
    def coalgebra(self) -> CoalgebraData:
        """``coalgebra_structure(self)``, once; a failure raises on every access."""
        return coalgebra_structure(self)


def compute_coend(d: DiagramPresentation) -> CoendStructure:
    """Split V by the relation space."""
    layout = BlockLayout(d)
    split = quotient_split(d.field, layout.total, relation_space(d))
    return CoendStructure(diagram=d, layout=layout, split=split)


@dataclass(frozen=True)
class CoalgebraData:
    """Comultiplication and counit structure constants on a fixed basis.

    ``delta`` is (n^2 x n): column a holds the tensor coordinates of the
    coproduct of basis vector a, coordinate r*n + s multiplying the r (x) s
    basis tensor.  ``epsilon`` is a 1 x n row.
    """

    dim: int
    delta: Matrix
    epsilon: Matrix

    @property
    def field(self) -> Field:
        return self.delta.field


def coalgebra_structure(c: CoendStructure) -> CoalgebraData:
    """Structure constants of the coend's coalgebra, descended from the
    generators: the coproduct of generator (i, j) of block X is the sum
    over k of the tensor of the images of (i, k) and (k, j), and its
    counit is the Kronecker delta."""
    field, n, proj = c.diagram.field, c.dim, c.split.projection_map
    zero, one, add, mul = field.zero, field.one, field.add, field.mul
    delta_cols, eps_cols = [], []
    for name in c.layout.names:
        d, off = c.diagram.dim(name), c.layout.offsets[name]
        gens = [proj.column(off + k) for k in range(d * d)]
        for i in range(d):
            for j in range(d):
                acc = {}
                for k in range(d):
                    right = gens[k * d + j]
                    for r, x in gens[i * d + k].items():
                        for s, y in right.items():
                            acc[r * n + s] = add(acc.get(r * n + s, zero), mul(x, y))
                delta_cols.append({t: v for t, v in acc.items() if v})
                eps_cols.append({0: one} if i == j else {})
    delta, epsilon = c.descend(
        ("comultiplication", SparseMap(field, n * n, len(delta_cols), delta_cols.__getitem__)),
        ("counit", SparseMap(field, 1, len(eps_cols), eps_cols.__getitem__)),
    )
    return CoalgebraData(dim=n, delta=delta, epsilon=epsilon)


def _triple(key: int, n: int) -> tuple:
    """The coordinate (p, q, s) of index (p * n + q) * n + s."""
    return key // (n * n), key // n % n, key % n


def verify_coalgebra(c: CoalgebraData) -> CheckReport:
    """Coassociativity (delta (x) 1) delta == (1 (x) delta) delta and the
    counit laws (eps (x) 1) delta == 1 == (1 (x) eps) delta, each with the
    first bad coordinate."""
    n = c.dim
    delta, eps = SparseMap.from_matrix(c.delta), SparseMap.from_matrix(c.epsilon)
    one = SparseMap.identity(c.field, n)
    report = CheckReport()
    report.add_equal(
        "coassociativity", delta.kron(one) @ delta, one.kron(delta) @ delta,
        lambda a, key: f"basis {a}, coordinate {_triple(key, n)}",
    )
    for side, counit in (("left", eps.kron(one)), ("right", one.kron(eps))):
        report.add_equal(
            f"counit law ({side})", counit @ delta, one, lambda a, t: f"basis {a}, coordinate {t}"
        )
    return report


def is_coalgebra_map(src: CoalgebraData, dst: CoalgebraData, phi: Matrix) -> CheckReport:
    """Check delta_dst . phi == (phi (x) phi) . delta_src and
    eps_dst . phi == eps_src."""
    phi = SparseMap.from_matrix(phi)
    report = CheckReport()
    report.add_equal(
        "comultiplication preserved",
        SparseMap.from_matrix(dst.delta) @ phi,
        phi.kron(phi) @ SparseMap.from_matrix(src.delta),
        lambda a, key: f"basis {a}, tensor coordinate {divmod(key, dst.dim)}",
    )
    report.add_equal(
        "counit preserved",
        SparseMap.from_matrix(dst.epsilon) @ phi,
        SparseMap.from_matrix(src.epsilon),
        lambda a, _: f"basis {a}",
    )
    return report


def verify_coaction(coalg: CoalgebraData, rho: Matrix, dim: int) -> CheckReport:
    """The shape of one coaction matrix, then coassociativity
    (rho (x) 1) rho == (1 (x) delta) rho and the counit law
    (1 (x) eps) rho == 1."""
    report = CheckReport()
    n = coalg.dim
    if rho.rows != dim * n or rho.cols != dim:
        report.fail("shape", witness=f"expected {(dim * n)}x{dim}, got {rho.rows}x{rho.cols}")
        return report
    report.ok("shape")
    rho = SparseMap.from_matrix(rho)
    one = SparseMap.identity(coalg.field, dim)
    report.add_equal(
        "coaction coassociativity",
        rho.kron(SparseMap.identity(coalg.field, n)) @ rho,
        one.kron(SparseMap.from_matrix(coalg.delta)) @ rho,
        lambda j, key: f"column {j}, coordinate {_triple(key, n)}",
    )
    report.add_equal(
        "coaction counit law",
        one.kron(SparseMap.from_matrix(coalg.epsilon)) @ rho,
        one,
        lambda j, i: f"column {j}, coordinate {i}",
    )
    return report


def induced_coaction(c: CoendStructure, name: str) -> Matrix:
    """The canonical coaction sending x_j to the sum of x_i (x) i_X(C_ij),
    read off P's entries, verified."""
    d, n, total = c.diagram.dim(name), c.dim, c.ambient_dim
    off, proj = c.layout.offsets[name], c.split.projection.entries
    rho = Matrix(c.diagram.field, d * n, d, [
        proj[a * total + off + i * d + j] for i in range(d) for a in range(n) for j in range(d)
    ])
    report = verify_coaction(c.coalgebra, rho, d)
    if not report.passed:
        raise InternalConsistencyError(
            f"induced coaction of {name!r} violates an axiom: {report.failures()[0]}"
        )
    return rho


def coaction_naturality(c: CoendStructure, coactions: dict) -> CheckReport:
    """Every span matrix must be a morphism of the induced comodules.

    For A: X -> Y the square (A (x) id) . rho_X == rho_Y . A has to
    commute exactly.
    """
    d = c.diagram
    one = SparseMap.identity(d.field, c.dim)
    rho = {name: SparseMap.from_matrix(m) for name, m in coactions.items()}
    report = CheckReport()
    report.add_first("span matrices are comodule morphisms", (
        f"span basis {idx} of ({x} -> {y})"
        for x in d.names()
        for y in d.names()
        for idx, a in enumerate(map(SparseMap.from_matrix, hom_basis(d, x, y).basis))
        if (a.kron(one) @ rho[x]).first_difference(rho[y] @ a) is not None
    ))
    return report


# -- model coalgebras -------------------------------------------------------


def comatrix_coalgebra(field: Field, d: int) -> CoalgebraData:
    """The d x d matrix-coefficient coalgebra on basis C_ij (lexicographic).

    Coproduct of C_ij is the sum over k of C_ik (x) C_kj; counit is the
    Kronecker delta.
    """
    n = d * d
    zero, one = field.zero, field.one
    delta = [zero] * (n * n * n)
    eps = [zero] * n
    for i in range(d):
        for j in range(d):
            col = i * d + j
            for k in range(d):
                row = (i * d + k) * n + (k * d + j)
                delta[row * n + col] = one
            if i == j:
                eps[col] = one
    return CoalgebraData(dim=n, delta=Matrix(field, n * n, n, delta), epsilon=Matrix(field, 1, n, eps))


def grouplike_coalgebra(field: Field, count: int) -> CoalgebraData:
    """The coalgebra with ``count`` grouplike basis vectors."""
    n = count
    zero, one = field.zero, field.one
    delta = [zero] * (n * n * n)
    for a in range(n):
        delta[(a * n + a) * n + a] = one
    eps = [one] * n
    return CoalgebraData(dim=n, delta=Matrix(field, n * n, n, delta), epsilon=Matrix(field, 1, n, eps))
