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
from functools import cached_property
from itertools import product

from .coend import CoalgebraData, CoendStructure
from .diagram import DiagramPresentation, hom_basis, span_of
from .end import AlgebraData, verify_algebra
from .errors import ShapeError
from .linalg import (
    Matrix,
    SparseMap,
    kron,
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

    @cached_property
    def inverses(self) -> dict:
        """The inverse of each comparison map, once; None where it is singular.
        Multiplicative dimensions leave only 1x1 and 0x0 maps (see
        ``validate_tensor``), each inverted with at most one field ``inv``."""
        out = {}
        for pair, m in self.pair_isos.items():
            if (m.rows, m.cols) not in ((0, 0), (1, 1)):
                raise ShapeError(f"comparison map {pair} is {m.rows}x{m.cols}, not 1x1 or 0x0")
            out[pair] = None if not all(m.entries) else Matrix._trusted(
                m.field, m.rows, m.cols, map(m.field.inv, m.entries))
        return out


def validate_tensor(d: DiagramPresentation, t: TensorData) -> CheckReport:
    """Check every tensor-data invariant, with witnesses on failure.

    A comparison map whose shape contradicts the table is a hard
    ShapeError; everything else is reported.  Multiplicative dimensions
    force every dim to be 0 or 1 (dim d >= 2 would need dims d, d^2, d^3,
    ... in a finite table).  So the comparison maps add up to one product
    mu: e_x (x) e_y -> Phi_{x,y} e_{xy} on O, the sum of the F(x) of dim 1,
    and coherence is the associativity of mu, its columns being the object
    triples in order; a triple where the table is not associative fails.
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

    report.add_first("monoid associativity", (
        f"triple ({x}, {y}, {z})"
        for x, y, z in product(names, repeat=3)
        if t.table[(t.table[(x, y)], z)] != t.table[(x, t.table[(y, z)])]
    ))

    if t.unit not in d.dims:
        report.fail("unit object", witness=f"{t.unit!r} is not an object")
        return report
    report.add_first("two-sided unit", (
        f"object {x}" for x in names if t.table[(t.unit, x)] != x or t.table[(x, t.unit)] != x
    ))
    report.add(
        "unit dimension 1",
        d.dim(t.unit) == 1,
        None if d.dim(t.unit) == 1 else f"dim {d.dim(t.unit)}",
    )

    if not report.add_first("dimensions multiplicative", (
        f"pair ({x}, {y})"
        for x, y in product(names, repeat=2)
        if d.dim(t.table[(x, y)]) != d.dim(x) * d.dim(y)
    )):
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

    if not report.add_first("comparison maps invertible", (
        f"pair ({x}, {y})" for x, y in sorted(t.pair_isos) if t.inverses[(x, y)] is None
    )):
        return report

    report.add_first("unit comparison maps are identities", (
        f"object {x}"
        for x in names
        if t.pair_isos[(t.unit, x)] != Matrix.identity(d.field, d.dim(x))
        or t.pair_isos[(x, t.unit)] != Matrix.identity(d.field, d.dim(x))
    ))

    dim1 = [x for x in names if d.dim(x)]
    at, n = {x: k for k, x in enumerate(dim1)}, len(dim1)
    mu = [{at[t.table[(x, y)]]: t.pair_isos[(x, y)].entries[0]} for x in dim1 for y in dim1]
    report.add_difference(
        "coherence", SparseMap(d.field, n, n * n, mu.__getitem__).associativity_difference(),
        lambda j, _: f"triple ({dim1[j // n // n]}, {dim1[j // n % n]}, {dim1[j % n]})",
    )

    bases = {x: {y: hom_basis(d, x, y).basis for y in names} for x in names}  # no pair keys
    pairs = [(x, y) for x in names for y in names if bases[x][y]]
    spans = {}  # (src, dst) -> the span of (src -> dst), built once

    def escapes():
        for (x, x2), (y, y2) in product(pairs, repeat=2):
            src, dst = t.table[(x, y)], t.table[(x2, y2)]
            if (src, dst) not in spans:
                spans[(src, dst)] = span_of(d.field, d.dim(dst) * d.dim(src), bases[src][dst])
            span = spans[(src, dst)]
            moved = (
                t.pair_isos[(x2, y2)] * kron(a, b) * t.inverses[(x, y)]
                for a in bases[x][x2]
                for b in bases[y][y2]
            )
            if not all(span.contains(vec_matrix(m)) for m in moved):
                yield (
                    f"span matrices ({x} -> {x2}) and ({y} -> {y2}) "
                    f"escape span ({src} -> {dst})"
                )

    report.add_first("naturality closure", escapes())
    return report


def coend_multiplication(c: CoendStructure, t: TensorData):
    """Structure constants of the coend multiplication, plus its checks.

    On generators: the product of i_X(S) and i_Y(T) is the image under
    the product object's block of P of Phi (S (x) T) Phi^-1.  For
    elementary S and T, S (x) T is one elementary E_{row,col}, so that
    conjugate is the rank-one (column row of Phi)(row col of Phi^-1), and
    the product is a sum of P's sparse columns.  The generator-level
    bilinear map M must annihilate J (x) V and V (x) J; SP kills J and is
    the identity on the free generators, so that is M == M(SP (x) 1) and
    M == M(1 (x) SP), each failure reported at its first pair of
    generators.  The product is M(S (x) S), M read at the free pairs.
    """
    d, field, total = c.diagram, c.diagram.field, c.ambient_dim
    if None in t.inverses.values():
        raise ShapeError("comparison maps must be invertible")
    proj, section, mul, lincomb = c.split.projection_map, c.split.section, field.mul, field.lincomb
    gens = [(x, d.dim(x), v) for x in c.layout.names for v in range(d.dim(x) ** 2)]
    columns = []
    for x, dx, v in gens:
        for y, dy, w in gens:
            z, phi, inv = t.table[(x, y)], t.pair_isos[(x, y)], t.inverses[(x, y)]
            off, dz = c.layout.offsets[z], d.dim(z)
            # S and T are E_{v % dx, v // dx} and E_{w % dy, w // dy} in vec order
            row, col = v % dx * dy + w % dy, v // dx * dy + w // dy
            columns.append(lincomb(
                (mul(p, q), proj.column(off + b * dz + a))
                for a, p in phi.col_terms(row) for b, q in inv.row_terms(col).items()
            ))

    mult = SparseMap(field, c.dim, total * total, columns.__getitem__)
    sp, one = section @ proj, SparseMap.identity(field, total)
    label, report = c.layout.label, CheckReport()
    for name, side in (("J (x) V", sp.kron(one)), ("V (x) J", one.kron(sp))):
        report.add_equal(
            f"annihilates {name}", mult, mult @ side,
            lambda j, _: f"generator {label(j // total)} against generator {label(j % total)}",
        )
    return (mult @ section.kron(section)).to_matrix(), report


def unit_element(c: CoendStructure, t: TensorData) -> tuple:
    """Coordinates of the image of the identity on the unit object."""
    d = c.diagram
    if t.unit not in d.dims:
        raise ShapeError(f"unit object {t.unit!r} is not in the diagram")
    if d.dim(t.unit) != 1:
        raise ShapeError(f"unit object {t.unit!r} must have dimension 1")
    return c.split.projection.col(c.layout.offsets[t.unit])


@dataclass(frozen=True)
class BialgebraData:
    """A coalgebra and an algebra sharing one underlying basis."""

    coalgebra: CoalgebraData
    algebra: AlgebraData

    @property
    def dim(self) -> int:
        return self.coalgebra.dim


def verify_bialgebra(b: BialgebraData) -> CheckReport:
    """All bialgebra axioms: the algebra laws, then
    delta m == (m (x) m)(1 (x) flip (x) 1)(delta (x) delta),
    eps m == eps (x) eps, delta u == u (x) u and eps u == 1."""
    field, n = b.coalgebra.field, b.dim
    report = CheckReport()
    report.extend(verify_algebra(b.algebra))

    delta = SparseMap.from_matrix(b.coalgebra.delta)
    eps = SparseMap.from_matrix(b.coalgebra.epsilon)
    m = SparseMap.from_matrix(b.algebra.product)
    u = SparseMap.from_columns(field, n, [b.algebra.unit])
    one = SparseMap.identity(field, n)
    middle = one.kron(SparseMap.swap(field, n, n)).kron(one)
    report.add_equal(
        "comultiplication multiplicative",
        delta @ m,
        m.kron(m) @ middle @ delta.kron(delta),
        lambda j, key: f"pair {divmod(j, n)}, tensor coordinate {divmod(key, n)}",
    )
    report.add_equal(
        "counit multiplicative", eps @ m, eps.kron(eps), lambda j, _: f"pair {divmod(j, n)}"
    )
    report.add_equal(
        "unit is grouplike", delta @ u, u.kron(u),
        lambda j, k: "coproduct of unit != unit (x) unit",
    )
    eps_unit = field.dot(b.coalgebra.epsilon.row(0) if n else (), b.algebra.unit)
    report.add(
        "counit of unit is 1",
        eps_unit == field.one,
        None if eps_unit == field.one else f"got {field.render(eps_unit)}",
    )
    return report
