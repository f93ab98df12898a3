"""Strict tensor structure on a diagram and the induced bialgebra.

Tensor data consists of a total monoid table on the object names, a unit
object of dimension one, and an invertible comparison map per object pair
identifying F(X) (x) F(Y) with the value of F on the product object, in
Kronecker coordinates.  The multiplication on the coend conjugates the
Kronecker product of two generators through the comparison maps and
pushes the result into the block of the product object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coend import (
    CoalgebraData,
    CoendStructure,
    comatrix_coalgebra,
    is_coalgebra_map,
)
from .diagram import DiagramPresentation, hom_basis
from .end import AlgebraData, verify_algebra
from .errors import ShapeError
from .linalg import (
    Matrix,
    VectorSpan,
    inverse,
    kron,
    kron_vec,
    rank,
    unvec_matrix,
    vec_matrix,
)
from .reports import CheckReport


@dataclass(frozen=True)
class TensorData:
    """Monoid table with unit, plus one comparison map per object pair."""

    unit: str
    table: dict  # (name, name) -> name
    pair_isos: dict  # (name, name) -> Matrix, F(X)(x)F(Y) -> F(X sect Y)

    @classmethod
    def build(
        cls, d: DiagramPresentation, unit: str, table: dict, pair_isos: dict | None = None
    ) -> "TensorData":
        """Fill in identity comparison maps for pairs not listed."""
        isos = dict(pair_isos or {})
        for pair, target in table.items():
            if pair in isos:
                continue
            x, y = pair
            if x in d.dims and y in d.dims and target in d.dims:
                if d.dim(target) == d.dim(x) * d.dim(y):
                    isos[pair] = Matrix.identity(d.field, d.dim(target))
        return cls(unit=unit, table=dict(table), pair_isos=isos)


def validate_tensor(d: DiagramPresentation, t: TensorData) -> CheckReport:
    """Check every tensor-data invariant, with witnesses on failure.

    A comparison map whose shape contradicts the table is a hard
    ShapeError; everything else is reported.
    """
    report = CheckReport()
    names = d.names()

    missing = [
        (x, y) for x in names for y in names if (x, y) not in t.table
    ]
    unknown = [
        pair for pair, target in t.table.items()
        if pair[0] not in d.dims or pair[1] not in d.dims or target not in d.dims
    ]
    total = not missing and not unknown
    report.add(
        "monoid table total",
        total,
        None if total else f"missing {missing[:3]} unknown {unknown[:3]}",
    )
    if not total:
        return report

    witness = None
    for x in names:
        for y in names:
            for z in names:
                if t.table[(t.table[(x, y)], z)] != t.table[(x, t.table[(y, z)])]:
                    witness = f"triple ({x}, {y}, {z})"
                    break
            if witness:
                break
        if witness:
            break
    report.add("monoid associativity", witness is None, witness)

    if t.unit not in d.dims:
        report.fail("unit object", witness=f"{t.unit!r} is not an object")
        return report
    witness = None
    for x in names:
        if t.table[(t.unit, x)] != x or t.table[(x, t.unit)] != x:
            witness = f"object {x}"
            break
    report.add("two-sided unit", witness is None, witness)
    report.add(
        "unit dimension 1",
        d.dim(t.unit) == 1,
        None if d.dim(t.unit) == 1 else f"dim {d.dim(t.unit)}",
    )

    witness = None
    for x in names:
        for y in names:
            if d.dim(t.table[(x, y)]) != d.dim(x) * d.dim(y):
                witness = f"pair ({x}, {y})"
                break
        if witness:
            break
    report.add("dimensions multiplicative", witness is None, witness)
    if witness is not None:
        return report

    for (x, y), iso in t.pair_isos.items():
        if (x, y) not in t.table:
            raise ShapeError(f"comparison map ({x}, {y}) has no table entry")
        target = t.table[(x, y)]
        want = (d.dim(target), d.dim(x) * d.dim(y))
        if (iso.rows, iso.cols) != want:
            raise ShapeError(
                f"comparison map ({x}, {y}) must be {want[0]}x{want[1]}, "
                f"got {iso.rows}x{iso.cols}"
            )
        if iso.field != d.field:
            raise ShapeError(f"comparison map ({x}, {y}) uses a different field")
    missing_isos = [
        (x, y) for x in names for y in names if (x, y) not in t.pair_isos
    ]
    report.add(
        "comparison maps present",
        not missing_isos,
        None if not missing_isos else f"missing {missing_isos[:3]}",
    )
    if missing_isos:
        return report

    witness = None
    for (x, y), iso in sorted(t.pair_isos.items()):
        if rank(iso) != iso.rows:
            witness = f"pair ({x}, {y})"
            break
    report.add("comparison maps invertible", witness is None, witness)
    if witness is not None:
        return report

    witness = None
    for x in names:
        ident = Matrix.identity(d.field, d.dim(x))
        if t.pair_isos[(t.unit, x)] != ident or t.pair_isos[(x, t.unit)] != ident:
            witness = f"object {x}"
            break
    report.add("unit comparison maps are identities", witness is None, witness)

    witness = None
    for x in names:
        for y in names:
            for z in names:
                xy = t.table[(x, y)]
                yz = t.table[(y, z)]
                lhs = t.pair_isos[(xy, z)] * kron(
                    t.pair_isos[(x, y)], Matrix.identity(d.field, d.dim(z))
                )
                rhs = t.pair_isos[(x, yz)] * kron(
                    Matrix.identity(d.field, d.dim(x)), t.pair_isos[(y, z)]
                )
                if lhs != rhs:
                    witness = f"triple ({x}, {y}, {z})"
                    break
            if witness:
                break
        if witness:
            break
    report.add("coherence", witness is None, witness)

    inverses = {pair: inverse(iso) for pair, iso in t.pair_isos.items()}
    witness = None
    for x in names:
        for x2 in names:
            a_basis = hom_basis(d, x, x2).basis
            if not a_basis:
                continue
            for y in names:
                for y2 in names:
                    b_basis = hom_basis(d, y, y2).basis
                    if not b_basis:
                        continue
                    src, dst = t.table[(x, y)], t.table[(x2, y2)]
                    span = VectorSpan(d.field, d.dim(dst) * d.dim(src))
                    for m in hom_basis(d, src, dst).basis:
                        span.add(vec_matrix(m))
                    for a in a_basis:
                        for b in b_basis:
                            moved = t.pair_isos[(x2, y2)] * kron(a, b) * inverses[(x, y)]
                            if not span.contains(vec_matrix(moved)):
                                witness = (
                                    f"span matrices ({x} -> {x2}) and ({y} -> {y2}) "
                                    f"escape span ({src} -> {dst})"
                                )
                                break
                        if witness:
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    report.add("naturality closure", witness is None, witness)
    return report


def coend_multiplication(c: CoendStructure, t: TensorData):
    """Structure constants of the coend multiplication, plus its checks.

    On generators: the product of i_X(S) and i_Y(T) is the image under
    the product object's structure map of the comparison-conjugated
    Kronecker product of S and T.  The generator-level bilinear map must
    annihilate J (x) V and V (x) J; each failure is reported with a
    witness.
    """
    d = c.diagram
    field = d.field
    layout = c.layout
    n = c.dim
    total = layout.total
    zero = field.zero

    inverses = {pair: inverse(iso) for pair, iso in t.pair_isos.items()}
    columns = [None] * (total * total)
    gen_labels = []
    for name in layout.names:
        dx = d.dim(name)
        for flat in range(dx * dx):
            gen_labels.append((name, flat))
    for v, (x, flat_v) in enumerate(gen_labels):
        dx = d.dim(x)
        s_mat = unvec_matrix(field, [field.one if k == flat_v else zero for k in range(dx * dx)], dx, dx)
        for w, (y, flat_w) in enumerate(gen_labels):
            dy = d.dim(y)
            t_mat = unvec_matrix(
                field, [field.one if k == flat_w else zero for k in range(dy * dy)], dy, dy
            )
            target = t.table[(x, y)]
            moved = t.pair_isos[(x, y)] * kron(s_mat, t_mat) * inverses[(x, y)]
            columns[v * total + w] = c.structure_maps[target].apply(vec_matrix(moved))

    report = CheckReport()
    witness = None
    for ridx, rel in enumerate(c.relation_basis):
        support = [(k, val) for k, val in enumerate(rel) if val]
        for w in range(total):
            acc = [zero] * n
            for k, val in support:
                col = columns[k * total + w]
                for a in range(n):
                    if col[a]:
                        acc[a] = field.add(acc[a], field.mul(val, col[a]))
            if any(acc):
                witness = f"relation {ridx} against generator {gen_labels[w]}"
                break
        if witness:
            break
    report.add("annihilates J (x) V", witness is None, witness)

    witness = None
    for ridx, rel in enumerate(c.relation_basis):
        support = [(k, val) for k, val in enumerate(rel) if val]
        for v in range(total):
            acc = [zero] * n
            for k, val in support:
                col = columns[v * total + k]
                for a in range(n):
                    if col[a]:
                        acc[a] = field.add(acc[a], field.mul(val, col[a]))
            if any(acc):
                witness = f"relation {ridx} against generator {gen_labels[v]}"
                break
        if witness:
            break
    report.add("annihilates V (x) J", witness is None, witness)

    free = []
    for a in range(n):
        fc = next(
            k for k in range(total) if c.split.section[k, a]
        )
        free.append(fc)
    product_cols = [
        columns[free[a] * total + free[b]] for a in range(n) for b in range(n)
    ]
    product = Matrix._trusted(
        field, n * n, n, [x for col in product_cols for x in col]
    ).transpose()
    return product, report


def unit_element(c: CoendStructure, t: TensorData) -> tuple:
    """Coordinates of the image of the identity on the unit object."""
    d = c.diagram
    if t.unit not in d.dims:
        raise ShapeError(f"unit object {t.unit!r} is not in the diagram")
    if d.dim(t.unit) != 1:
        raise ShapeError(f"unit object {t.unit!r} must have dimension 1")
    return c.structure_maps[t.unit].col(0)


@dataclass(frozen=True)
class BialgebraData:
    """A coalgebra and an algebra sharing one underlying basis."""

    coalgebra: CoalgebraData
    algebra: AlgebraData

    @property
    def dim(self) -> int:
        return self.coalgebra.dim


def verify_bialgebra(b: BialgebraData) -> CheckReport:
    """All bialgebra axioms: algebra laws plus compatibility of the maps."""
    report = CheckReport()
    field = b.coalgebra.field
    n = b.dim
    zero = field.zero
    report.extend(verify_algebra(b.algebra))

    delta_cols = [b.coalgebra.delta.col_terms(a) for a in range(n)]
    prod_cols = [b.algebra.product.col_terms(i) for i in range(n * n)]
    eps = b.coalgebra.epsilon.row(0) if n else ()

    witness = None
    for a in range(n):
        for c in range(n):
            lhs = {}
            for e, w in prod_cols[a * n + c]:
                for pq, w2 in delta_cols[e]:
                    lhs[pq] = field.add(lhs.get(pq, zero), field.mul(w, w2))
            rhs = {}
            for rs, w in delta_cols[a]:
                r, s = divmod(rs, n)
                for uv, w2 in delta_cols[c]:
                    u, v = divmod(uv, n)
                    w12 = field.mul(w, w2)
                    for e, w3 in prod_cols[r * n + u]:
                        for f2, w4 in prod_cols[s * n + v]:
                            key = e * n + f2
                            rhs[key] = field.add(
                                rhs.get(key, zero), field.mul(w12, field.mul(w3, w4))
                            )
            for key in set(lhs) | set(rhs):
                if lhs.get(key, zero) != rhs.get(key, zero):
                    witness = f"pair ({a}, {c}), tensor coordinate {divmod(key, n)}"
                    break
            if witness:
                break
        if witness:
            break
    report.add("comultiplication multiplicative", witness is None, witness)

    witness = None
    for a in range(n):
        for c in range(n):
            lhs = zero
            for e, w in prod_cols[a * n + c]:
                lhs = field.add(lhs, field.mul(w, eps[e]))
            if lhs != field.mul(eps[a], eps[c]):
                witness = f"pair ({a}, {c})"
                break
        if witness:
            break
    report.add("counit multiplicative", witness is None, witness)

    unit = b.algebra.unit
    lhs = {}
    for r, w in enumerate(unit):
        if not w:
            continue
        for pq, w2 in delta_cols[r]:
            lhs[pq] = field.add(lhs.get(pq, zero), field.mul(w, w2))
    rhs = {}
    for pq, val in enumerate(kron_vec(unit, unit, field)):
        if val:
            rhs[pq] = val
    grouplike = all(
        lhs.get(k, zero) == rhs.get(k, zero) for k in set(lhs) | set(rhs)
    )
    report.add(
        "unit is grouplike",
        grouplike,
        None if grouplike else "coproduct of unit != unit (x) unit",
    )

    eps_unit = zero
    for r, w in enumerate(unit):
        if w:
            eps_unit = field.add(eps_unit, field.mul(w, eps[r]))
    report.add(
        "counit of unit is 1",
        eps_unit == field.one,
        None if eps_unit == field.one else f"got {field.render(eps_unit)}",
    )
    return report


def conjugation_coalgebra_check(p: Matrix) -> CheckReport:
    """Verify conjugation by an invertible matrix is a coalgebra map.

    On the d x d matrix-coefficient coalgebra, T -> P T P^-1 must commute
    with the coproduct and preserve the counit; the comparison is done on
    structure constants.  Raises ShapeError when P is singular.
    """
    if p.rows != p.cols:
        raise ShapeError("conjugator must be square")
    field = p.field
    d = p.rows
    p_inv = inverse(p)
    model = comatrix_coalgebra(field, d)
    cols = []
    zero, one = field.zero, field.one
    for flat in range(d * d):
        gen = unvec_matrix(field, [one if k == flat else zero for k in range(d * d)], d, d)
        cols.append(vec_matrix(p * gen * p_inv))
    phi = Matrix.from_cols(field, cols) if cols else Matrix(field, 0, 0, [])
    report = is_coalgebra_map(model, model, phi)
    report.add("bijective", d == 0 or rank(phi) == d * d)
    return report


# -- conjugated presentations (used to exercise invariance) ------------------


def conjugate_diagram(d: DiagramPresentation, conjugators: dict) -> DiagramPresentation:
    """Replace every span matrix A: X -> Y by P_Y A P_X^-1."""
    inverses = {name: inverse(p) for name, p in conjugators.items()}
    spans = {}
    for (x, y), mats in d.hom_spans.items():
        spans[(x, y)] = tuple(conjugators[y] * m * inverses[x] for m in mats)
    return DiagramPresentation(d.field, d.objects, spans)


def conjugate_tensor_data(
    d: DiagramPresentation, t: TensorData, conjugators: dict
) -> TensorData:
    """Move the comparison maps along the same family of conjugators."""
    isos = {}
    for (x, y), iso in t.pair_isos.items():
        target = t.table[(x, y)]
        isos[(x, y)] = (
            conjugators[target] * iso * inverse(kron(conjugators[x], conjugators[y]))
        )
    return TensorData(unit=t.unit, table=dict(t.table), pair_isos=isos)


def conjugation_quotient_map(
    src: CoendStructure, dst: CoendStructure, conjugators: dict
) -> Matrix:
    """The induced map of coends sending i_X(T) to i_X(P_X T P_X^-1)."""
    field = src.diagram.field
    inverses = {name: inverse(p) for name, p in conjugators.items()}
    cols = []
    for a in range(src.dim):
        rep = src.split.section.col(a)
        out = [field.zero] * dst.layout.total
        for coord, val in enumerate(rep):
            if not val:
                continue
            name, flat = src.layout.locate(coord)
            dim = src.diagram.dim(name)
            gen = unvec_matrix(
                field,
                [val if k == flat else field.zero for k in range(dim * dim)],
                dim,
                dim,
            )
            moved = vec_matrix(conjugators[name] * gen * inverses[name])
            off = dst.layout.offsets[name]
            for k, entry in enumerate(moved):
                if entry:
                    out[off + k] = field.add(out[off + k], entry)
        cols.append(dst.split.projection.apply(out))
    if not cols:
        return Matrix(field, dst.dim, 0, [])
    return Matrix.from_cols(field, cols)
