"""Shared diagram and coalgebra fixtures for the test suite."""

import json
import pathlib

from hypothesis import strategies as st

from coendcalc import (
    QQ,
    AlgebraData,
    CoendStructure,
    CoalgebraData,
    ComodulePresentation,
    DiagramPresentation,
    Matrix,
    TensorData,
    comatrix_coalgebra,
    grouplike_coalgebra,
    is_coalgebra_map,
)
from coendcalc.errors import ShapeError
from coendcalc.inputdoc import InputDocument, render_matrix
from coendcalc.linalg import SparseMap, kron, rank, rref, unvec_matrix, vec_matrix
from coendcalc.reports import CheckReport


# -- linear-algebra helpers only the tests use ------------------------------


def matrix_from_cols(field, cols) -> Matrix:
    """The matrix whose column j is the vector ``cols[j]``."""
    cols = [tuple(c) for c in cols]
    nrows = len(cols[0]) if cols else 0
    for c in cols:
        if len(c) != nrows:
            raise ShapeError("ragged columns")
    entries = [cols[j][i] for i in range(nrows) for j in range(len(cols))]
    return Matrix(field, nrows, len(cols), entries)


def left_inverse(m: Matrix):
    """A matrix L with ``L @ m = I`` for full-column-rank m, else None."""
    f = m.field
    n = m.cols
    aug = Matrix(
        f,
        m.rows,
        n + m.rows,
        [
            x
            for i in range(m.rows)
            for x in (*m.row(i), *(f.one if j == i else f.zero for j in range(m.rows)))
        ],
    )
    reduced, pivots, _ = rref(aug)
    if pivots[:n] != tuple(range(n)):
        return None
    return Matrix(f, n, m.rows, [x for i in range(n) for x in reduced.row(i)[n:]])


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ShapeError when singular."""
    if m.rows != m.cols:
        raise ShapeError("only square matrices can be inverted")
    inv = left_inverse(m)
    if inv is None:
        raise ShapeError("matrix is singular")
    return inv


def kron_vec(u, v, field) -> tuple:
    """Tensor coordinates of two vectors: (u (x) v)[r*len(v) + s] = u[r]*v[s]."""
    n = len(v)
    out = [field.zero] * (len(u) * n)
    for r, x in enumerate(u):
        if x:
            out[r * n : (r + 1) * n] = field.scale_row(x, v)
    return tuple(out)


def zero_map(field, rows, cols) -> SparseMap:
    """The zero map k^cols -> k^rows."""
    return SparseMap(field, rows, cols, lambda j: {})


def structure_map(c: CoendStructure, name: str) -> Matrix:
    """The structure map i_X: End(F(X)) -> coend, the block of X's columns of P."""
    proj, lo = c.split.projection, c.layout.offsets[name]
    hi = lo + c.layout.dims[name] ** 2
    entries = [x for i in range(proj.rows) for x in proj.row(i)[lo:hi]]
    return Matrix(proj.field, proj.rows, hi - lo, entries)


# -- documents --------------------------------------------------------------


def render_document(doc: InputDocument) -> str:
    """Serialize a document back to canonical JSON text.

    Parsing the output yields a document equal to the input.
    """
    field = doc.field
    data = {"field": field.descriptor()}
    if doc.coalgebra is not None:
        data["coalgebra"] = {
            "dim": doc.coalgebra.dim,
            "delta": render_matrix(field, doc.coalgebra.delta),
            "epsilon": render_matrix(field, doc.coalgebra.epsilon)[0],
            "comodules": [
                {"dim": mod.dim, "rho": render_matrix(field, mod.rho)}
                for mod in doc.comodules or []
            ],
        }
    else:
        diagram = doc.diagram
        data["objects"] = [{"name": n, "dim": d} for n, d in diagram.objects]
        homs = []
        for (src, dst) in sorted(diagram.hom_spans):
            mats = diagram.hom_spans[(src, dst)]
            if not mats:
                continue
            homs.append(
                {
                    "src": src,
                    "dst": dst,
                    "span": [render_matrix(field, m) for m in mats],
                }
            )
        data["homs"] = homs
        if doc.tensor is not None:
            data["tensor"] = {
                "unit": doc.tensor.unit,
                "table": {
                    f"{x},{y}": z for (x, y), z in sorted(doc.tensor.table.items())
                },
                "f2": {
                    f"{x},{y}": render_matrix(field, iso)
                    for (x, y), iso in sorted(doc.tensor.pair_isos.items())
                },
            }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# -- diagrams ------------------------------------------------------------------


def unit_matrix(field, d, i, j):
    """The d x d matrix with a single 1 in row i, column j."""
    return Matrix(
        field, d, d, [field.one if (r, c) == (i, j) else field.zero for r in range(d) for c in range(d)]
    )


def comatrix_diagram(field, d):
    """One object of dimension d whose only span matrix is the identity."""
    return DiagramPresentation(field, [("X", d)], {("X", "X"): [Matrix.identity(field, d)]})


def full_matrix_diagram(field, d):
    """One object of dimension d with the full matrix algebra as span."""
    span = [unit_matrix(field, d, i, j) for i in range(d) for j in range(d)]
    return DiagramPresentation(field, [("X", d)], {("X", "X"): span})


def isolated_points(field, dims):
    """Objects with identity spans and no connecting morphisms."""
    objects = [(f"P{i}", d) for i, d in enumerate(dims)]
    spans = {
        (name, name): [Matrix.identity(field, d)] for name, d in objects if d > 0
    }
    return DiagramPresentation(field, objects, spans)


def connected_pair(field):
    """Two 1-dim objects joined by [1] in both directions."""
    one = Matrix.from_rows(field, [[1]])
    return DiagramPresentation(
        field,
        [("X", 1), ("Y", 1)],
        {
            ("X", "X"): [one],
            ("Y", "Y"): [one],
            ("X", "Y"): [one],
            ("Y", "X"): [one],
        },
    )


def nilpotent_diagram(field):
    """One 2-dim object with span {identity, strictly upper triangular}."""
    n = Matrix.from_rows(field, [[0, 1], [0, 0]])
    return DiagramPresentation(
        field, [("X", 2)], {("X", "X"): [Matrix.identity(field, 2), n]}
    )


def two_object_unsaturated(field):
    """Two 2-dim objects whose composites escape the given spans."""
    return DiagramPresentation(
        field,
        [("X", 2), ("Y", 2)],
        {
            ("X", "X"): [Matrix.identity(field, 2)],
            ("Y", "Y"): [Matrix.identity(field, 2)],
            ("X", "Y"): [unit_matrix(field, 2, 0, 1)],
            ("Y", "X"): [unit_matrix(field, 2, 1, 0)],
        },
    )


def grading_skeleton(field, k):
    """The cyclic grading fixture: k one-dim objects, addition table, trivial
    comparison maps."""
    objects = [(f"g{i}", 1) for i in range(k)]
    spans = {(f"g{i}", f"g{i}"): [Matrix.identity(field, 1)] for i in range(k)}
    diagram = DiagramPresentation(field, objects, spans)
    table = {
        (f"g{i}", f"g{j}"): f"g{(i + j) % k}" for i in range(k) for j in range(k)
    }
    tensor = TensorData.build(diagram, "g0", table)
    return diagram, tensor


def one_directional_z3(field):
    """A Z/3 table whose spans are not closed under the tensor product.

    The only non-identity morphism goes g0 -> g1, so tensoring it with the
    identity of g1 would need a morphism g1 -> g2 that the spans lack;
    naturality closure fails and the coend multiplication is ill-defined.
    """
    objects = [(f"g{i}", 1) for i in range(3)]
    one = Matrix.from_rows(field, [[1]])
    spans = {(f"g{i}", f"g{i}"): [one] for i in range(3)}
    spans[("g0", "g1")] = [one]
    diagram = DiagramPresentation(field, objects, spans)
    table = {
        (f"g{i}", f"g{j}"): f"g{(i + j) % 3}" for i in range(3) for j in range(3)
    }
    tensor = TensorData.build(diagram, "g0", table)
    return diagram, tensor


def regular_comodule_setup(field, d=2):
    """The d x d matrix-coefficient coalgebra with its regular comodule."""
    coalg = comatrix_coalgebra(field, d)
    regular = ComodulePresentation(dim=d * d, rho=coalg.delta)
    return coalg, [regular]


def comatrix_with_two_comodules(field, d=2):
    """The d x d comatrix coalgebra with its regular comodule (dim d^2) and
    its fundamental comodule (dim d, x_j -> sum_i x_i (x) C_ij)."""
    coalg, (regular,) = regular_comodule_setup(field, d)
    n = d * d
    rho = [field.zero] * (d * n * d)
    for i in range(d):
        for j in range(d):
            rho[(i * n + i * d + j) * d + j] = field.one
    fundamental = ComodulePresentation(dim=d, rho=Matrix(field, d * n, d, rho))
    return coalg, [regular, fundamental]


def two_grouplike_setup(field):
    """The two-grouplike coalgebra with its two 1-dim comodules."""
    coalg = grouplike_coalgebra(field, 2)
    m0 = ComodulePresentation(dim=1, rho=Matrix.from_rows(field, [[1], [0]]))
    m1 = ComodulePresentation(dim=1, rho=Matrix.from_rows(field, [[0], [1]]))
    return coalg, [m0, m1]


def all_diagram_fixtures(field, max_comatrix_dim=4):
    """Every named diagram fixture, for the cross-cutting invariants."""
    from coendcalc import diagram_from_comodules, saturate_spans

    fixtures = []
    for d in range(2, max_comatrix_dim + 1):
        fixtures.append((f"comatrix d={d}", comatrix_diagram(field, d)))
    for d in (2, 3):
        fixtures.append((f"full matrix d={d}", full_matrix_diagram(field, d)))
    fixtures.append(("isolated 1+1", isolated_points(field, [1, 1])))
    fixtures.append(("connected pair", connected_pair(field)))
    fixtures.append(("nilpotent", nilpotent_diagram(field)))
    fixtures.append(("two-object saturated", saturate_spans(two_object_unsaturated(field))))
    for k in (2, 3):
        fixtures.append((f"grading Z/{k}", grading_skeleton(field, k)[0]))
    coalg, mods = regular_comodule_setup(field)
    fixtures.append(("regular comodule diagram", diagram_from_comodules(coalg, mods)))
    coalg2, mods2 = two_grouplike_setup(field)
    fixtures.append(("two-grouplike diagram", diagram_from_comodules(coalg2, mods2)))
    return fixtures


def shipped_samples(field):
    """Every document in sample_inputs/, parsed over ``field``, by file name."""
    from coendcalc.inputdoc import parse_document

    samples = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
    return [
        (path.name, parse_document(path.read_text(), field_override=field))
        for path in sorted(samples.glob("*.json"))
    ]


def small_diagrams(field):
    """One to three objects of dim 0 to 2, and up to two random span
    matrices on each ordered pair."""
    if field is QQ:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    else:
        scalar = st.integers(min_value=0, max_value=field.p - 1)

    def spans(dims):
        pairs = [(x, y) for x in range(len(dims)) for y in range(len(dims))]
        mats = [
            st.lists(
                st.lists(scalar, min_size=dims[x] * dims[y], max_size=dims[x] * dims[y]),
                max_size=2,
            )
            for x, y in pairs
        ]
        return st.tuples(st.just(dims), st.just(pairs), st.tuples(*mats))

    def build(case):
        dims, pairs, mats = case
        names = [f"O{i}" for i in range(len(dims))]
        hom_spans = {
            (names[x], names[y]): [Matrix(field, dims[y], dims[x], e) for e in entries]
            for (x, y), entries in zip(pairs, mats)
            if entries
        }
        return DiagramPresentation(field, list(zip(names, dims)), hom_spans)

    return st.lists(st.integers(0, 2), min_size=1, max_size=3).flatmap(spans).map(build)


# -- presentations moved along isomorphisms, for the invariance checks -------


def _generator(field, dim: int, flat: int) -> Matrix:
    """The generator C_ij of flat index i*dim + j, as a matrix."""
    return unvec_matrix(
        field, [field.one if k == flat else field.zero for k in range(dim * dim)], dim, dim
    )


def vectorize_hom(d: DiagramPresentation, name: str, t: Matrix):
    """Coordinates of an endomorphism matrix of F(name) in the C_ij basis.

    Index (i, j), flattened as i*dim + j, carries the coefficient of the
    unit sending basis vector i to basis vector j; as a matrix that unit
    has its single 1 in row j, column i.
    """
    dim = d.dim(name)
    if (t.rows, t.cols) != (dim, dim):
        raise ShapeError(f"expected a {dim}x{dim} matrix for object {name!r}")
    return vec_matrix(t)


def devectorize_hom(d: DiagramPresentation, name: str, v) -> Matrix:
    """Exact inverse of :func:`vectorize_hom`."""
    dim = d.dim(name)
    return unvec_matrix(d.field, v, dim, dim)


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
    if sorted(src.diagram.objects) != sorted(dst.diagram.objects):
        raise ValueError("coends do not share an object set")
    # route each free generator through the block permutation
    cols = []
    for fc in src.split.free:
        name, flat = src.layout.locate(fc)
        cols.append(dst.split.projection.col(dst.layout.offsets[name] + flat))
    if not cols:
        return Matrix(src.diagram.field, dst.dim, 0, [])
    return matrix_from_cols(src.diagram.field, cols)


def dual_algebra(c: CoalgebraData) -> AlgebraData:
    """Convolution algebra on the dual basis: (a.b)(v) = (a (x) b)(delta v)."""
    return AlgebraData(
        dim=c.dim,
        product=c.delta.transpose(),
        unit=tuple(c.epsilon.row(0)),
    )


def conjugation_coalgebra_check(p: Matrix) -> CheckReport:
    """Verify conjugation by an invertible matrix is a coalgebra map.

    On the d x d matrix-coefficient coalgebra, T -> P T P^-1 must commute
    with the coproduct and preserve the counit; the comparison is done on
    structure constants.  Raises ShapeError when P is singular.
    """
    if p.rows != p.cols:
        raise ShapeError("conjugator must be square")
    field, d, p_inv = p.field, p.rows, inverse(p)
    model = comatrix_coalgebra(field, d)
    cols = [vec_matrix(p * _generator(field, d, flat) * p_inv) for flat in range(d * d)]
    phi = matrix_from_cols(field, cols) if cols else Matrix(field, 0, 0, [])
    report = is_coalgebra_map(model, model, phi)
    report.add("bijective", d == 0 or rank(phi) == d * d)
    return report


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
    for fc in src.split.free:
        name, flat = src.layout.locate(fc)
        gen = _generator(field, src.diagram.dim(name), flat)
        moved = vec_matrix(conjugators[name] * gen * inverses[name])
        out = [field.zero] * dst.layout.total
        out[dst.layout.offsets[name] : dst.layout.offsets[name] + len(moved)] = moved
        cols.append(dst.split.projection.apply(out))
    if not cols:
        return Matrix(field, dst.dim, 0, [])
    return matrix_from_cols(field, cols)
