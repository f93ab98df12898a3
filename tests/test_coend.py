import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendcalc import (
    GF,
    QQ,
    CoalgebraData,
    DiagramPresentation,
    Matrix,
    canonical_map,
    coalgebra_structure,
    comatrix_coalgebra,
    compute_coend,
    compute_end,
    diagram_from_comodules,
    duality_isomorphism,
    grouplike_coalgebra,
    induced_coaction,
    is_coalgebra_map,
    relation_space,
    saturate_spans,
    validate_diagram,
    verify_coalgebra,
)
from coendcalc.coend import coaction_naturality, verify_coaction
from coendcalc.diagram import hom_basis
from coendcalc.linalg import rank

from fixtures import (
    all_diagram_fixtures,
    comatrix_with_two_comodules,
    comatrix_diagram,
    connected_pair,
    full_matrix_diagram,
    induced_quotient_map,
    isolated_points,
    kron_vec,
    permute_objects,
    regular_comodule_setup,
    shipped_samples,
    small_diagrams,
    structure_map,
    two_object_unsaturated,
    vectorize_hom,
    zero_map,
)
from oracles import (
    oracle_commutator_span_dim,
    oracle_comatrix_delta,
    oracle_kernel,
    oracle_rank,
    oracle_relation_basis,
    oracle_relation_space,
)


# -- relation space ----------------------------------------------------------


def dense_relations(d):
    """``relation_space(d)`` with each sparse row written out densely."""
    rels = relation_space(d)
    assert all(all(v for v in r.values()) for r in rels)  # rows store no zero
    total = sum(dim * dim for _, dim in d.objects)
    return [tuple(r.get(k, d.field.zero) for k in range(total)) for r in rels]


def test_relations_vanish_for_identity_span():
    rels = dense_relations(comatrix_diagram(QQ, 2))
    assert all(all(x == 0 for x in r) for r in rels)


def test_relations_full_matrix_algebra_are_traceless():
    d = full_matrix_diagram(QQ, 2)
    rels = dense_relations(d)
    assert oracle_rank(QQ, rels) == 3
    assert oracle_commutator_span_dim(QQ, d.span("X", "X"), 2) == 3
    # every relation is a commutator with the identity coordinates removed:
    # its trace (sum of diagonal coordinates (i, i)) vanishes
    for r in rels:
        assert r[0] + r[3] == 0


def test_relations_connected_pair():
    rels = dense_relations(connected_pair(QQ))
    assert oracle_rank(QQ, rels) == 1
    span = {tuple(r) for r in rels if any(x != 0 for x in r)}
    assert span == {(Fraction(1), Fraction(-1))} | span  # e_X - e_Y direction


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_relation_space_matches_product_oracle(field):
    """Direct assembly gives the product-based vectors, in the same order."""
    cases = [("two_object_unsaturated", two_object_unsaturated(field))]
    for name, doc in shipped_samples(field):
        if doc.diagram is None:
            cases.append((name, diagram_from_comodules(doc.coalgebra, doc.comodules)))
        else:
            cases.append((name, doc.diagram))
    for d in (2, 3):
        cases.append((f"regular d={d}", diagram_from_comodules(*regular_comodule_setup(field, d))))
    cases.append(("regular and fundamental d=2",
                  diagram_from_comodules(*comatrix_with_two_comodules(field))))
    for name, d in cases:
        assert dense_relations(d) == oracle_relation_space(d), name


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_unsaturated_coend_equals_saturated_coend(field):
    """r(B*A, T) = r(A, T*B) + r(B, A*T) and r(id, T) = 0, so saturation
    adds no relation: the coend of a diagram that fails closure is the
    coend of its saturation, split for split."""
    d = two_object_unsaturated(field)
    assert not validate_diagram(d).passed
    assert relation_space(d)
    before, after = compute_coend(d), compute_coend(saturate_spans(d))
    assert before.dim == after.dim
    assert before.split.free == after.split.free
    assert before.split.projection == after.split.projection
    assert before.coalgebra.delta == after.coalgebra.delta
    assert before.coalgebra.epsilon == after.coalgebra.epsilon


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_saturation_leaves_the_relation_space_unchanged(field):
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(small_diagrams(field))
    def check(d):
        before, after = dense_relations(d), dense_relations(saturate_spans(d))
        rk = oracle_rank(field, before)
        assert oracle_rank(field, after) == rk
        assert oracle_rank(field, before + after) == rk

    check()


# -- coend dimensions --------------------------------------------------------


def test_coend_dim_identity_span():
    assert compute_coend(comatrix_diagram(QQ, 2)).dim == 4


def test_coend_dim_full_matrix():
    c = compute_coend(full_matrix_diagram(QQ, 2))
    assert c.dim == 1 and c.relation_dim == 3


def test_coend_dim_isolated_points():
    assert compute_coend(isolated_points(QQ, [1, 1])).dim == 2


def test_coend_dim_formula():
    for name, d in all_diagram_fixtures(QQ, max_comatrix_dim=3):
        c = compute_coend(d)
        assert c.dim == c.ambient_dim - c.relation_dim, name


def test_zero_dimensional_diagram():
    d = DiagramPresentation(QQ, [("A", 0), ("B", 0)], {})
    c = compute_coend(d)
    assert c.dim == 0
    coalg = coalgebra_structure(c)
    assert coalg.dim == 0
    assert verify_coalgebra(coalg).passed


def test_zero_dimensional_objects_contribute_nothing():
    d = DiagramPresentation(
        QQ, [("Z", 0), ("X", 2), ("W", 0)], {("X", "X"): [Matrix.identity(QQ, 2)]}
    )
    c = compute_coend(d)
    assert c.dim == 4
    assert c.basis_labels() == ["X:1,1", "X:1,2", "X:2,1", "X:2,2"]
    act = induced_coaction(c, "Z")
    assert (act.rows, act.cols) == (0, 0)


# -- coalgebra structure -----------------------------------------------------


def test_comatrix_structure_constants_match_oracle():
    for dim in (2, 3):
        c = compute_coend(comatrix_diagram(QQ, dim))
        coalg = coalgebra_structure(c)
        delta_rows, eps = oracle_comatrix_delta(QQ, dim)
        n = dim * dim
        expected_delta = Matrix(QQ, n * n, n, [x for row in delta_rows for x in row])
        assert coalg.delta == expected_delta
        assert coalg.epsilon == Matrix(QQ, 1, n, eps)
        assert verify_coalgebra(coalg).passed


def test_trace_collapse_is_grouplike():
    for dim in (2, 3):
        c = compute_coend(full_matrix_diagram(QQ, dim))
        assert c.dim == 1
        coalg = coalgebra_structure(c)
        assert coalg.delta == Matrix.from_rows(QQ, [[1]])
        assert coalg.epsilon == Matrix.from_rows(QQ, [[1]])
        # brute force the coproduct of the trace-1 generator C_11 modulo J:
        # sum_k i(C_1k) (x) i(C_k1) must equal i(C_11) (x) i(C_11)
        imap = structure_map(c, "X")
        u = imap.col(0)
        acc = [Fraction(0)]
        for k in range(dim):
            term = kron_vec(imap.col(0 * dim + k), imap.col(k * dim + 0), QQ)
            acc = [a + t for a, t in zip(acc, term)]
        assert tuple(acc) == kron_vec(u, u, QQ)
        assert verify_coalgebra(coalg).passed


def test_verify_coalgebra_detects_corruption():
    model = comatrix_coalgebra(QQ, 2)
    broken = CoalgebraData(dim=4, delta=model.delta, epsilon=Matrix.zeros(QQ, 1, 4))
    report = verify_coalgebra(broken)
    assert not report.passed
    assert any("counit" in c.name and not c.passed for c in report.checks)
    assert any(c.witness for c in report.failures())


def test_grouplike_helper_verifies():
    coalg = grouplike_coalgebra(QQ, 3)
    assert verify_coalgebra(coalg).passed


def bogus_split_coend():
    """The 2 x 2 full-matrix coend with its split replaced by P = [1 0 0 2],
    which is the identity on ``free`` = (0,) but whose kernel is not J."""
    from coendcalc.coend import CoendStructure
    from coendcalc.linalg import QuotientSplit

    c = compute_coend(full_matrix_diagram(QQ, 2))
    split = QuotientSplit(ambient_dim=4, projection=Matrix(QQ, 1, 4, [1, 0, 0, 2]), free=(0,))
    return CoendStructure(diagram=c.diagram, layout=c.layout, split=split)


def test_coalgebra_well_definedness_guard():
    from coendcalc.errors import WellDefinednessError

    with pytest.raises(WellDefinednessError) as err:
        coalgebra_structure(bogus_split_coend())
    # the generator coproducts are 1, 0, 0 and 4 times the one basis
    # tensor; m S P reads generator (1, 1) everywhere, so (2, 2) differs
    assert str(err.value) == "comultiplication does not vanish on the relation space"
    assert err.value.witness == "generator X:2,2"


def test_canonical_map_descent_names_the_relation():
    from coendcalc.errors import WellDefinednessError

    # the fundamental comodule of the comatrix coalgebra sends generator
    # (i, j) to C_ij, which the commutator relations of the full matrix
    # span do not kill; the trace is the one free generator (2, 2), and
    # J's rref row at pivot (1, 1) is e_(1,1) - e_(2,2)
    c = compute_coend(full_matrix_diagram(QQ, 2))
    assert c.split.free == (3,)
    assert c.split.projection == Matrix.from_rows(QQ, [[1, 0, 0, 1]])
    coalg, (_, fundamental) = comatrix_with_two_comodules(QQ)
    with pytest.raises(WellDefinednessError) as err:
        canonical_map(c, coalg, [fundamental])
    assert str(err.value) == "canonical map does not vanish on the relation space"
    assert err.value.witness == "generator X:1,1"


def test_pairing_descent_names_the_relation():
    from coendcalc.end import EndStructure
    from coendcalc.errors import WellDefinednessError

    # a non-scalar tuple does not commute with the full matrix span: its
    # functional is one on generator (1, 2), J's rref row there, and zero before
    c = compute_coend(full_matrix_diagram(QQ, 2))
    e = compute_end(c)
    bogus = EndStructure(diagram=c.diagram, layout=e.layout, basis=((0, 0, 1, 0),), free=(2,))
    with pytest.raises(WellDefinednessError) as err:
        duality_isomorphism(bogus, c)
    assert str(err.value) == "pairing functional does not vanish on the relation space"
    assert err.value.witness == "generator X:1,2"


def test_descend_reads_each_map_at_the_free_columns():
    from coendcalc.linalg import SparseMap

    c = compute_coend(connected_pair(QQ))
    assert c.dim == 1 and c.ambient_dim == 2
    # both generators are identified, so any map equal on them descends
    m = SparseMap.from_columns(QQ, 2, [(1, 2), (1, 2)])
    counit = SparseMap.from_columns(QQ, 1, [(5,), (5,)])
    assert c.descend(("m", m), ("counit", counit)) == [
        Matrix.from_rows(QQ, [[1], [2]]),
        Matrix.from_rows(QQ, [[5]]),
    ]
    # a zero-dimensional quotient gives maps with no columns
    empty = compute_coend(isolated_points(QQ, [0]))
    assert empty.descend(("m", zero_map(QQ, 2, 0))) == [Matrix(QQ, 2, 0, [])]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_descend_succeeds_exactly_on_maps_killing_the_oracle_relations(field):
    """A map m on V descends exactly when it kills every relation row the
    oracle assembles with products, and then its quotient map D has
    D P = m.  Half the maps are drawn through the oracle's J^perp, so both
    outcomes occur."""
    from coendcalc.errors import WellDefinednessError
    from coendcalc.linalg import SparseMap

    if field is QQ:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    else:
        scalar = st.integers(min_value=0, max_value=field.p - 1)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(small_diagrams(field), st.data())
    def check(d, data):
        c, relations = compute_coend(d), oracle_relation_basis(field, d)
        n, rows = c.ambient_dim, data.draw(st.integers(1, 2))
        j_rows = Matrix(field, len(relations), n, [x for r in relations for x in r])
        perp = oracle_kernel(field, j_rows)
        if perp and data.draw(st.booleans()):  # a map through J^perp
            weights = [[data.draw(scalar) for _ in perp] for _ in range(rows)]
            m = [[field.dot(ws, [v[k] for v in perp]) for k in range(n)] for ws in weights]
        else:
            m = [[data.draw(scalar) for _ in range(n)] for _ in range(rows)]
        kills = all(not field.dot(row, r) for row in m for r in relations)
        sparse = SparseMap.from_columns(field, rows, [[row[k] for row in m] for k in range(n)])
        try:
            (down,) = c.descend(("m", sparse))
        except WellDefinednessError:
            assert not kills
        else:
            assert kills
            assert down * c.split.projection == Matrix.from_rows(field, m)

    check()


def test_cached_coalgebra_raises_on_every_access():
    from coendcalc.errors import WellDefinednessError

    bogus = bogus_split_coend()
    for _ in range(2):  # a failure is not cached
        with pytest.raises(WellDefinednessError):
            bogus.coalgebra


# -- defining relation and surjectivity --------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_defining_relation_on_random_maps(field):
    rng = random.Random(31)
    d = saturate_spans(two_object_unsaturated(field))
    c = compute_coend(d)
    for x in d.names():
        for y in d.names():
            for a in hom_basis(d, x, y).basis:
                dx, dy = d.dim(x), d.dim(y)
                for _ in range(5):
                    t = Matrix(
                        field, dx, dy, [field.coerce(rng.randint(-4, 4)) for _ in range(dx * dy)]
                    )
                    left = structure_map(c, x).apply(vectorize_hom(d, x, t * a))
                    right = structure_map(c, y).apply(vectorize_hom(d, y, a * t))
                    assert left == right


def test_generators_span_coend():
    for name, d in all_diagram_fixtures(QQ, max_comatrix_dim=3):
        c = compute_coend(d)
        assert rank(c.split.projection) == c.dim, name


def test_structure_map_blocks_match_projection():
    # the coaction of a 1-dim object is its structure map, its column of P
    c = compute_coend(connected_pair(QQ))
    assert induced_coaction(c, "X").col(0) == c.split.projection.col(0)
    assert induced_coaction(c, "Y").col(0) == c.split.projection.col(1)


# -- realization uniqueness ---------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_permuting_objects_preserves_structure_constants(field):
    for name, d in all_diagram_fixtures(field, max_comatrix_dim=2):
        if len(d.objects) < 2:
            continue
        perm = list(range(len(d.objects)))[::-1]
        d2 = permute_objects(d, perm)
        c1, c2 = compute_coend(d), compute_coend(d2)
        psi = induced_quotient_map(c1, c2)
        assert rank(psi) == c1.dim == c2.dim, name
        report = is_coalgebra_map(coalgebra_structure(c1), coalgebra_structure(c2), psi)
        assert report.passed, (name, str(report))


# -- induced coactions --------------------------------------------------------


def test_one_dim_coaction_is_grouplike():
    d = DiagramPresentation(QQ, [("X", 1)], {("X", "X"): [Matrix.identity(QQ, 1)]})
    c = compute_coend(d)
    rho = induced_coaction(c, "X")
    assert rho == Matrix.from_rows(QQ, [[1]])


def test_comatrix_coaction_is_standard():
    c = compute_coend(comatrix_diagram(QQ, 2))
    rho = induced_coaction(c, "X")
    # rho(x_j) = sum_i x_i (x) C_ij: coordinate (i*4 + (i*2+j), j) is 1
    expected = Matrix.zeros(QQ, 8, 2)
    entries = list(expected.entries)
    for j in range(2):
        for i in range(2):
            entries[(i * 4 + (i * 2 + j)) * 2 + j] = Fraction(1)
    assert rho == Matrix(QQ, 8, 2, entries)


def test_coactions_and_naturality_on_fixtures():
    for name, d in all_diagram_fixtures(QQ, max_comatrix_dim=3):
        c = compute_coend(d)
        coalg = coalgebra_structure(c)
        coactions = {}
        for obj, _ in d.objects:
            act = induced_coaction(c, obj)
            assert verify_coaction(coalg, act, d.dim(obj)).passed, name
            coactions[obj] = act
        assert coaction_naturality(c, coactions).passed, name


# -- coalgebra map helper ------------------------------------------------------


def test_is_coalgebra_map_detects_bad_map():
    model = comatrix_coalgebra(QQ, 2)
    # swapping two basis vectors arbitrarily is not a coalgebra map
    perm = Matrix.from_rows(
        QQ, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    report = is_coalgebra_map(model, model, perm)
    assert not report.passed
