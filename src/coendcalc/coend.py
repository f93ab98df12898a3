"""The coend of a diagram as an explicit quotient, and its coalgebra.

The ambient space V is the direct sum over objects X of the endomorphism
coordinates of F(X).  The relation space J is spanned, for every span
matrix A: X -> Y and every elementary T: F(Y) -> F(X), by the vector
carrying the coordinates of T*A in block X minus those of A*T in block Y.
The coend is the quotient split of V by J; the structure map of each
object is the corresponding block of the projection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import DiagramPresentation, hom_basis, validate_diagram
from .errors import ClosureError, InternalConsistencyError, WellDefinednessError
from .fields import Field
from .linalg import (
    Matrix,
    QuotientSplit,
    VectorSpan,
    kron,
    kron_vec,
    quotient_split,
)
from .reports import CheckReport


class BlockLayout:
    """Offsets of the per-object endomorphism blocks inside V."""

    def __init__(self, d: DiagramPresentation):
        self.names = d.names()
        self.sizes = {name: d.dim(name) ** 2 for name in self.names}
        self.offsets = {}
        total = 0
        for name in self.names:
            self.offsets[name] = total
            total += self.sizes[name]
        self.total = total

    def coordinate(self, name: str, flat: int) -> int:
        return self.offsets[name] + flat

    def locate(self, coordinate: int):
        """Return (object name, flat index within its block)."""
        for name in self.names:
            off = self.offsets[name]
            if off <= coordinate < off + self.sizes[name]:
                return name, coordinate - off
        raise IndexError(f"coordinate {coordinate} outside V (dim {self.total})")

    def embed(self, field: Field, name: str, block_vec) -> tuple:
        out = [field.zero] * self.total
        off = self.offsets[name]
        for i, x in enumerate(block_vec):
            out[off + i] = x
        return tuple(out)


def relation_space(d: DiagramPresentation, require_closed: bool = True) -> list:
    """Spanning set of the relation space J.

    For every pair (X, Y), every basis matrix A of the span X -> Y, and
    every elementary T = E_rc: F(Y) -> F(X), emit block_X(vec(T*A)) minus
    block_Y(vec(A*T)).  Both are read off A without a product: T*A is row
    c of A placed in row r, and A*T is column r of A placed in column c.
    With ``require_closed`` (the default) a diagram failing composition
    closure is rejected, since its spans do not present a category.
    """
    if require_closed:
        report = validate_diagram(d)
        if not report.passed:
            bad = report.failures()[0]
            raise ClosureError(f"diagram is not saturated/valid: {bad.name}")
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
                        vec = [field.zero] * layout.total
                        vec[off_x + r : off_x + dx * dx : dx] = a.row(c)
                        for i, val in enumerate(column_r):
                            if val:
                                k = off_y + c * dy + i
                                vec[k] = field.sub(vec[k], val)
                        relations.append(tuple(vec))
    return relations


@dataclass(frozen=True)
class CoendStructure:
    """The coend of a diagram: quotient split of V plus structure maps."""

    diagram: DiagramPresentation
    layout: BlockLayout
    relation_basis: tuple
    split: QuotientSplit
    structure_maps: dict  # object name -> (dim x d_X^2) matrix

    @property
    def dim(self) -> int:
        return self.split.quotient_dim

    @property
    def ambient_dim(self) -> int:
        return self.layout.total

    @property
    def relation_dim(self) -> int:
        return len(self.relation_basis)

    def basis_coordinates(self) -> list:
        """Per basis vector, the generator (object, i, j) its section picks."""
        out = []
        for a in range(self.dim):
            fc = next(
                c for c in range(self.ambient_dim) if self.split.section[c, a]
            )
            name, flat = self.layout.locate(fc)
            d = self.diagram.dim(name)
            out.append((name, flat // d, flat % d))
        return out

    def basis_labels(self) -> list:
        """Self-describing labels 'X:i,j' (1-based) of the chosen generators."""
        return [f"{name}:{i + 1},{j + 1}" for name, i, j in self.basis_coordinates()]

    def image_of(self, name: str, flat: int) -> tuple:
        """Coend coordinates of the generator with flat index in block name."""
        return self.structure_maps[name].col(flat)


def compute_coend(d: DiagramPresentation, require_closed: bool = True) -> CoendStructure:
    """Quotient V by the relation space and slice out the structure maps."""
    field = d.field
    layout = BlockLayout(d)
    relations = relation_space(d, require_closed=require_closed)
    span = VectorSpan(field, layout.total)
    for r in relations:
        span.add(r)
    basis = tuple(span.basis())
    split = quotient_split(field, layout.total, basis)
    structure_maps = {}
    proj = split.projection
    for name in layout.names:
        off = layout.offsets[name]
        size = layout.sizes[name]
        entries = []
        for i in range(proj.rows):
            row = proj.row(i)
            entries.extend(row[off : off + size])
        structure_maps[name] = Matrix(field, proj.rows, size, entries)
    return CoendStructure(
        diagram=d,
        layout=layout,
        relation_basis=basis,
        split=split,
        structure_maps=structure_maps,
    )


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


def generator_coalgebra_maps(c: CoendStructure):
    """The generator-level comultiplication and counit maps on V.

    Columns are indexed by the generators of every block; the coproduct of
    generator (i, j) of block X is the sum over k of the tensor of the
    images of (i, k) and (k, j).
    """
    field = c.diagram.field
    n = c.dim
    layout = c.layout
    delta_cols = []
    eps_row = []
    for name in layout.names:
        d = c.diagram.dim(name)
        imap = c.structure_maps[name]
        for i in range(d):
            for j in range(d):
                acc = [field.zero] * (n * n)
                for k in range(d):
                    left = imap.col(i * d + k)
                    right = imap.col(k * d + j)
                    for idx, val in enumerate(kron_vec(left, right, field)):
                        if val:
                            acc[idx] = field.add(acc[idx], val)
                delta_cols.append(tuple(acc))
                eps_row.append(field.one if i == j else field.zero)
    delta_v = Matrix._trusted(field, len(delta_cols), n * n,
                              [x for col in delta_cols for x in col]).transpose()
    eps_v = Matrix(field, 1, layout.total, eps_row)
    return delta_v, eps_v


def coalgebra_structure(c: CoendStructure) -> CoalgebraData:
    """Structure constants of the coend's coalgebra.

    The candidate maps are assembled from the generator-level formulas and
    verified to annihilate every relation basis vector before being read
    off on the section's representatives.
    """
    n = c.dim
    delta_v, eps_v = generator_coalgebra_maps(c)
    for rel in c.relation_basis:
        if any(delta_v.apply(rel)):
            raise WellDefinednessError(
                "comultiplication does not vanish on the relation space",
                witness=rel,
            )
        if eps_v.apply(rel)[0]:
            raise WellDefinednessError(
                "counit does not vanish on the relation space", witness=rel
            )
    delta = delta_v * c.split.section
    epsilon = eps_v * c.split.section
    return CoalgebraData(dim=n, delta=delta, epsilon=epsilon)


def verify_coalgebra(c: CoalgebraData) -> CheckReport:
    """Exact coassociativity and counit laws, with the first bad coordinate."""
    report = CheckReport()
    field = c.field
    n = c.dim
    zero = field.zero
    cols = [c.delta.col_terms(a) for a in range(n)]
    eps = c.epsilon.row(0) if n else ()

    witness = None
    for a in range(n):
        lhs, rhs = {}, {}
        for rs, w in cols[a]:
            r, s = divmod(rs, n)
            for pq, w2 in cols[r]:
                p, q = divmod(pq, n)
                key = (p, q, s)
                lhs[key] = field.add(lhs.get(key, zero), field.mul(w, w2))
            for qt, w2 in cols[s]:
                q2, t = divmod(qt, n)
                key = (r, q2, t)
                rhs[key] = field.add(rhs.get(key, zero), field.mul(w, w2))
        for key in set(lhs) | set(rhs):
            if lhs.get(key, zero) != rhs.get(key, zero):
                witness = f"basis {a}, coordinate {key}"
                break
        if witness:
            break
    report.add("coassociativity", witness is None, witness)

    for side in ("left", "right"):
        witness = None
        for a in range(n):
            acc = [zero] * n
            for rs, w in cols[a]:
                r, s = divmod(rs, n)
                if side == "left":
                    acc[s] = field.add(acc[s], field.mul(eps[r], w))
                else:
                    acc[r] = field.add(acc[r], field.mul(eps[s], w))
            expected = [field.one if t == a else zero for t in range(n)]
            for t in range(n):
                if acc[t] != expected[t]:
                    witness = f"basis {a}, coordinate {t}"
                    break
            if witness:
                break
        report.add(f"counit law ({side})", witness is None, witness)
    return report


def is_coalgebra_map(
    src: CoalgebraData, dst: CoalgebraData, phi: Matrix
) -> CheckReport:
    """Check delta_dst . phi == (phi (x) phi) . delta_src and counits match."""
    report = CheckReport()
    field = src.field
    n_src, n_dst = src.dim, dst.dim
    zero = field.zero
    witness = None
    for a in range(n_src):
        image = phi.col(a)
        lhs = {}
        for r, w in ((r, w) for r, w in enumerate(image) if w):
            for pq, w2 in dst.delta.col_terms(r):
                lhs[pq] = field.add(lhs.get(pq, zero), field.mul(w, w2))
        rhs = {}
        for rs, w in src.delta.col_terms(a):
            r, s = divmod(rs, n_src)
            for pq, val in enumerate(kron_vec(phi.col(r), phi.col(s), field)):
                if val:
                    rhs[pq] = field.add(rhs.get(pq, zero), field.mul(w, val))
        for key in set(lhs) | set(rhs):
            if lhs.get(key, zero) != rhs.get(key, zero):
                witness = f"basis {a}, tensor coordinate {divmod(key, n_dst)}"
                break
        if witness:
            break
    report.add("comultiplication preserved", witness is None, witness)

    witness = None
    for a in range(n_src):
        lhs = zero
        for r, w in enumerate(phi.col(a)):
            if w:
                lhs = field.add(lhs, field.mul(dst.epsilon[0, r], w))
        if lhs != src.epsilon[0, a]:
            witness = f"basis {a}"
            break
    report.add("counit preserved", witness is None, witness)
    return report


@dataclass(frozen=True)
class Coaction:
    """A verified right coaction of the coend's coalgebra on F(X)."""

    object_name: str
    matrix: Matrix  # (d * n) x d


def verify_coaction(coalg: CoalgebraData, rho: Matrix, dim: int) -> CheckReport:
    """Coassociativity and counit law of one coaction matrix."""
    report = CheckReport()
    field = coalg.field
    n = coalg.dim
    zero = field.zero
    if rho.rows != dim * n or rho.cols != dim:
        report.fail("shape", witness=f"expected {(dim * n)}x{dim}, got {rho.rows}x{rho.cols}")
        return report
    report.ok("shape")

    witness = None
    for j in range(dim):
        terms = rho.col_terms(j)
        lhs, rhs = {}, {}
        for ia, w in terms:
            i, a = divmod(ia, n)
            for ia2, w2 in rho.col_terms(i):
                i2, a2 = divmod(ia2, n)
                key = (i2, a2, a)
                lhs[key] = field.add(lhs.get(key, zero), field.mul(w, w2))
            for rs, w2 in coalg.delta.col_terms(a):
                r, s = divmod(rs, n)
                key = (i, r, s)
                rhs[key] = field.add(rhs.get(key, zero), field.mul(w, w2))
        for key in set(lhs) | set(rhs):
            if lhs.get(key, zero) != rhs.get(key, zero):
                witness = f"column {j}, coordinate {key}"
                break
        if witness:
            break
    report.add("coaction coassociativity", witness is None, witness)

    witness = None
    eps = coalg.epsilon.row(0) if n else ()
    for j in range(dim):
        acc = [zero] * dim
        for ia, w in rho.col_terms(j):
            i, a = divmod(ia, n)
            acc[i] = field.add(acc[i], field.mul(w, eps[a]))
        for i in range(dim):
            expected = field.one if i == j else zero
            if acc[i] != expected:
                witness = f"column {j}, coordinate {i}"
                break
        if witness:
            break
    report.add("coaction counit law", witness is None, witness)
    return report


def induced_coaction(c: CoendStructure, name: str) -> Coaction:
    """The canonical coaction sending x_j to the sum of x_i (x) i_X(C_ij)."""
    field = c.diagram.field
    d = c.diagram.dim(name)
    n = c.dim
    imap = c.structure_maps[name]
    entries = [field.zero] * (d * n * d)
    for j in range(d):
        for i in range(d):
            col = imap.col(i * d + j)
            for a, val in enumerate(col):
                entries[(i * n + a) * d + j] = val
    rho = Matrix(field, d * n, d, entries)
    coalg = coalgebra_structure(c)
    report = verify_coaction(coalg, rho, d)
    if not report.passed:
        raise InternalConsistencyError(
            f"induced coaction of {name!r} violates an axiom: {report.failures()[0]}"
        )
    return Coaction(object_name=name, matrix=rho)


def coaction_naturality(c: CoendStructure, coactions: dict) -> CheckReport:
    """Every span matrix must be a morphism of the induced comodules.

    For A: X -> Y the square (A (x) id) . rho_X == rho_Y . A has to
    commute exactly.
    """
    report = CheckReport()
    d = c.diagram
    n = c.dim
    ident = Matrix.identity(d.field, n)
    witness = None
    for x in d.names():
        for y in d.names():
            for idx, a in enumerate(hom_basis(d, x, y).basis):
                lhs = kron(a, ident) * coactions[x].matrix
                rhs = coactions[y].matrix * a
                if lhs != rhs:
                    witness = f"span basis {idx} of ({x} -> {y})"
                    break
            if witness:
                break
        if witness:
            break
    report.add("span matrices are comodule morphisms", witness is None, witness)
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


# -- realization comparison --------------------------------------------------


def permute_objects(d: DiagramPresentation, order) -> DiagramPresentation:
    """The same diagram with objects listed in a new order."""
    names = d.names()
    new_names = [names[i] for i in order]
    if sorted(new_names) != sorted(names):
        raise ValueError("order must be a permutation of the object list")
    objects = [(name, d.dim(name)) for name in new_names]
    return DiagramPresentation(d.field, objects, dict(d.hom_spans))


def induced_quotient_map(src: CoendStructure, dst: CoendStructure) -> Matrix:
    """The linear map between two coends of block-identical diagrams.

    Both diagrams must have the same objects (possibly reordered) and the
    same spans; the block permutation of V then descends to the quotients.
    """
    field = src.diagram.field
    if sorted(src.diagram.objects) != sorted(dst.diagram.objects):
        raise ValueError("coends do not share an object set")
    perm_cols = []
    for a in range(src.dim):
        # route each section representative through the block permutation
        rep = src.split.section.col(a)
        out = [field.zero] * dst.layout.total
        for coord, val in enumerate(rep):
            if val:
                name, flat = src.layout.locate(coord)
                out[dst.layout.coordinate(name, flat)] = val
        perm_cols.append(dst.split.projection.apply(out))
    if not perm_cols:
        return Matrix(field, dst.dim, 0, [])
    return Matrix.from_cols(field, perm_cols)
