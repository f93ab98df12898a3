import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendcalc import (
    GF,
    QQ,
    AlgebraData,
    BialgebraData,
    DiagramPresentation,
    Matrix,
    ShapeError,
    TensorData,
    coalgebra_structure,
    comatrix_coalgebra,
    compute_coend,
    coend_multiplication,
    is_coalgebra_map,
    saturate_spans,
    unit_element,
    validate_tensor,
    verify_bialgebra,
)
from coendcalc.linalg import rank

from fixtures import (
    conjugate_diagram,
    conjugate_tensor_data,
    conjugation_coalgebra_check,
    conjugation_quotient_map,
    dual_algebra,
    grading_skeleton,
    kron_vec,
    one_directional_z3,
    two_object_unsaturated,
)
from oracles import oracle_coherence


def test_grading_skeleton_is_valid():
    d, t = grading_skeleton(QQ, 2)
    assert validate_tensor(d, t).passed


def test_non_associative_table_reported():
    d, t = grading_skeleton(QQ, 3)
    table = dict(t.table)
    table[("g1", "g1")] = "g1"  # breaks (g1 g1) g2 == g1 (g1 g2)
    broken = TensorData.build(d, "g0", table)
    report = validate_tensor(d, broken)
    bad = [c for c in report.checks if not c.passed]
    assert any("associativity" in c.name for c in bad)
    assert all(c.witness for c in bad)
    # coherence compares maps into O, the sum of the F(x): its two sides
    # land in the blocks of (xy)z and x(yz), so it fails at the same triple
    witnesses = {c.name: c.witness for c in bad}
    assert witnesses["coherence"] == witnesses["monoid associativity"] == "triple (g1, g1, g2)"


def test_non_invertible_comparison_map_reported():
    d, t = grading_skeleton(QQ, 2)
    isos = dict(t.pair_isos)
    isos[("g1", "g1")] = Matrix.zeros(QQ, 1, 1)
    singular = TensorData("g0", dict(t.table), isos)
    report = validate_tensor(d, singular)
    assert any("invertible" in c.name and not c.passed for c in report.checks)
    assert singular.inverses[("g1", "g1")] is None
    with pytest.raises(ShapeError):
        coend_multiplication(compute_coend(d), singular)


def test_each_comparison_map_is_inverted_once(monkeypatch):
    d, t = grading_skeleton(QQ, 3)
    # a freshly parsed one per pair, so an inversion names the map it inverts
    t = TensorData("g0", dict(t.table), {pair: Matrix(QQ, 1, 1, ["1"]) for pair in t.pair_isos})
    c = compute_coend(d)
    inverted, inv = [], QQ.inv
    monkeypatch.setattr(QQ, "inv", lambda a: inverted.append(a) or inv(a))
    assert validate_tensor(d, t).passed
    assert coend_multiplication(c, t)[1].passed
    per_pair = [sum(a is iso.entries[0] for a in inverted) for iso in t.pair_isos.values()]
    assert per_pair == [1] * 9  # once per object pair


def test_corrupted_comparison_map_breaks_coherence():
    # on Z/3 the scaling f(g1,g1) = 2 fails the cocycle condition at
    # (g1, g1, g2); note that on Z/2 the same corruption would be a valid
    # 2-cocycle twist and nothing would break.  Every other comparison
    # scalar is a freshly parsed one, equal to the field's one but not the
    # same object, as in a document read from JSON: at the failing triple
    # both sides multiply by such a unit, which the check skips.
    for pair, scalar, witness in (
        (("g1", "g1"), 2, "triple (g1, g1, g2)"),
        (("g1", "g2"), 3, "triple (g1, g1, g1)"),
    ):
        d, t = grading_skeleton(QQ, 3)
        isos = {p: Matrix(QQ, 1, 1, ["1"]) for p in t.pair_isos}
        isos[pair] = Matrix(QQ, 1, 1, [scalar])
        assert isos[("g2", "g2")][0, 0] is not QQ.one
        broken = TensorData("g0", dict(t.table), isos)
        witnesses = {c.name: c.witness for c in validate_tensor(d, broken).failures()}
        assert witnesses == {"coherence": witness}
        assert "triple (%s, %s, %s)" % oracle_coherence(d, broken) == witness


def cocycle_tensor(field, k, scale, twist):
    """The Z/k grading with comparison scalars from a normalized 2-cocycle:
    f(i, j) = c(i) c(j) / c(i + j), times ``twist`` where i + j wraps."""
    d, t = grading_skeleton(field, k)
    c = [field.one, *scale[: k - 1]]
    isos = {}
    for i in range(k):
        for j in range(k):
            f = field.mul(field.mul(c[i], c[j]), field.inv(c[(i + j) % k]))
            isos[(f"g{i}", f"g{j}")] = Matrix(field, 1, 1, [
                field.mul(f, twist) if i + j >= k else f
            ])
    return d, TensorData("g0", dict(t.table), isos)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1)], ids=repr)
def test_coherence_matches_oracle_on_cocycle_data(field):
    if field is QQ:
        nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    else:
        nonzero = st.integers(min_value=1, max_value=field.p - 1)
    verdicts = set()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        k = data.draw(st.integers(1, 5))
        d, t = cocycle_tensor(
            field, k, data.draw(st.lists(nonzero, min_size=4, max_size=4)), data.draw(nonzero)
        )
        pair = (f"g{data.draw(st.integers(0, k - 1))}", f"g{data.draw(st.integers(0, k - 1))}")
        corrupt = data.draw(st.sampled_from(["none", "scalar", "table"]))
        if corrupt == "scalar":
            new = data.draw(nonzero.filter(lambda x: field.coerce(x) != t.pair_isos[pair][0, 0]))
            t.pair_isos[pair] = Matrix(field, 1, 1, [new])
        elif corrupt == "table":
            names = [name for name in d.names() if name != t.table[pair]]
            if names:
                t.table[pair] = data.draw(st.sampled_from(names))
        coherence = {c.name: c for c in validate_tensor(d, t).checks}["coherence"]
        expected = oracle_coherence(d, t)
        assert coherence.passed or corrupt != "none"  # cocycle data is coherent
        assert coherence.passed == (expected is None)
        assert coherence.witness == (expected and "triple (%s, %s, %s)" % expected)
        verdicts.add(coherence.passed)

    check()
    assert verdicts == {True, False}


def test_unit_normalization_required():
    d, t = grading_skeleton(QQ, 2)
    isos = dict(t.pair_isos)
    isos[("g0", "g1")] = Matrix.from_rows(QQ, [[3]])
    report = validate_tensor(d, TensorData("g0", dict(t.table), isos))
    assert any(
        "unit comparison" in c.name and not c.passed for c in report.checks
    )


def test_naturality_closure_violation_reported():
    d, t = one_directional_z3(QQ)
    report = validate_tensor(d, t)
    assert not report.passed
    bad = [c for c in report.failures() if "naturality" in c.name]
    assert bad and bad[0].witness


def test_wrong_shape_comparison_map_is_hard_error():
    d, t = grading_skeleton(QQ, 2)
    isos = dict(t.pair_isos)
    isos[("g1", "g1")] = Matrix.identity(QQ, 2)
    with pytest.raises(ShapeError):
        validate_tensor(d, TensorData("g0", dict(t.table), isos))
    with pytest.raises(ShapeError):  # only 1x1 and 0x0 maps are inverted
        TensorData("g0", dict(t.table), isos).inverses


@pytest.mark.parametrize("k", [2, 3])
def test_grading_multiplication_is_group_algebra(k):
    d, t = grading_skeleton(QQ, k)
    c = compute_coend(d)
    assert c.dim == k
    product, report = coend_multiplication(c, t)
    assert report.passed
    # oracle: J = 0, so the product of the classes of the identity
    # endomorphisms lands on the class of the table's product object
    for a in range(k):
        for b in range(k):
            expected = [QQ.zero] * k
            expected[(a + b) % k] = QQ.one
            assert list(product.col(a * k + b)) == expected
    eta = unit_element(c, t)
    assert list(eta) == [QQ.one] + [QQ.zero] * (k - 1)


def test_unit_law_on_grading():
    d, t = grading_skeleton(QQ, 3)
    c = compute_coend(d)
    product, _ = coend_multiplication(c, t)
    eta = unit_element(c, t)
    n = c.dim
    for a in range(n):
        basis_vec = [QQ.one if i == a else QQ.zero for i in range(n)]
        left = product.apply(kron_vec(eta, basis_vec, QQ))
        right = product.apply(kron_vec(basis_vec, eta, QQ))
        assert list(left) == basis_vec == list(right)


def test_trivial_monoid():
    d, t = grading_skeleton(QQ, 1)
    c = compute_coend(d)
    assert c.dim == 1
    product, report = coend_multiplication(c, t)
    assert report.passed
    assert product == Matrix.from_rows(QQ, [[1]])
    assert unit_element(c, t) == (Fraction(1),)


def test_multiplication_ill_defined_with_witness():
    d, t = one_directional_z3(QQ)
    c = compute_coend(d)
    assert c.dim == 2  # g0 and g1 collapse to one class
    product, report = coend_multiplication(c, t)
    assert not report.passed
    bad = report.failures()
    assert bad and bad[0].witness


@pytest.mark.parametrize("left_zero", [True, False])
def test_multiplication_checks_each_side(left_zero):
    """The relations e ~ a ~ c in the monoid {e, a, b, c} where a, b and c
    are left zeros (x y = x) or right zeros (x y = y): only one side of the
    multiplication kills J, and the report says which, at the first pair
    of generators (left, then right) where M differs from M(SP (x) 1) or
    M(1 (x) SP): e against b on the left, b against e on the right."""
    one = Matrix.from_rows(QQ, [[1]])
    spans = {(x, x): [one] for x in "eabc"}
    spans[("e", "a")] = spans[("e", "c")] = [one]
    d = DiagramPresentation(QQ, [(x, 1) for x in "eabc"], spans)
    table = {(x, y): (x if left_zero else y) for x in "abc" for y in "abc"}
    table.update({(x, "e"): x for x in "eabc"})
    table.update({("e", x): x for x in "eabc"})
    c = compute_coend(d)
    assert (c.dim, c.relation_dim) == (2, 2)
    _, report = coend_multiplication(c, TensorData.build(d, "e", table))
    failing = (
        ("annihilates J (x) V", "generator e:1,1 against generator b:1,1")
        if left_zero
        else ("annihilates V (x) J", "generator b:1,1 against generator e:1,1")
    )
    assert [(f.name, f.witness) for f in report.failures()] == [failing]


def test_unit_element_requires_unit_object():
    d, t = grading_skeleton(QQ, 2)
    c = compute_coend(d)
    with pytest.raises(ShapeError):
        unit_element(c, TensorData("nope", dict(t.table), dict(t.pair_isos)))


def test_bialgebra_axioms_on_grading():
    d, t = grading_skeleton(QQ, 2)
    c = compute_coend(d)
    coalg = coalgebra_structure(c)
    product, _ = coend_multiplication(c, t)
    eta = unit_element(c, t)
    b = BialgebraData(
        coalgebra=coalg,
        algebra=AlgebraData(dim=c.dim, product=product, unit=tuple(eta)),
    )
    report = verify_bialgebra(b)
    assert report.passed, str(report)


def test_bialgebra_detects_incompatible_product():
    # the matrix-coefficient coproduct is not multiplicative for the
    # matrix-unit product of the dual algebra
    coalg = comatrix_coalgebra(QQ, 2)
    alg = dual_algebra(coalg)
    report = verify_bialgebra(BialgebraData(coalgebra=coalg, algebra=alg))
    assert not report.passed
    assert any(
        "comultiplication multiplicative" in c.name and not c.passed
        for c in report.checks
    )


def test_one_dimensional_bialgebra_passes():
    d, t = grading_skeleton(QQ, 1)
    c = compute_coend(d)
    product, _ = coend_multiplication(c, t)
    b = BialgebraData(
        coalgebra=coalgebra_structure(c),
        algebra=AlgebraData(dim=1, product=product, unit=tuple(unit_element(c, t))),
    )
    assert verify_bialgebra(b).passed


def test_conjugation_by_identity_and_diagonal_and_swap():
    assert conjugation_coalgebra_check(Matrix.identity(QQ, 2)).passed
    assert conjugation_coalgebra_check(Matrix.from_rows(QQ, [[1, 0], [0, 2]])).passed
    assert conjugation_coalgebra_check(Matrix.from_rows(QQ, [[0, 1], [1, 0]])).passed


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("dim", [2, 3])
def test_conjugation_random_invertible(field, dim):
    rng = random.Random(1234 + dim)
    found = 0
    while found < 5:
        p = Matrix(
            field, dim, dim, [field.coerce(rng.randint(-6, 6)) for _ in range(dim * dim)]
        )
        if rank(p) < dim:
            continue
        found += 1
        assert conjugation_coalgebra_check(p).passed


def test_conjugation_rejects_singular():
    with pytest.raises(ShapeError):
        conjugation_coalgebra_check(Matrix.from_rows(QQ, [[1, 1], [1, 1]]))


def test_conjugated_diagram_has_same_coalgebra():
    d = saturate_spans(two_object_unsaturated(QQ))
    conj = {
        "X": Matrix.from_rows(QQ, [[1, 1], [0, 1]]),
        "Y": Matrix.from_rows(QQ, [[2, 0], [1, 1]]),
    }
    d2 = conjugate_diagram(d, conj)
    c1, c2 = compute_coend(d), compute_coend(d2)
    assert c1.dim == c2.dim
    psi = conjugation_quotient_map(c1, c2, conj)
    assert rank(psi) == c1.dim
    report = is_coalgebra_map(coalgebra_structure(c1), coalgebra_structure(c2), psi)
    assert report.passed, str(report)


def test_conjugated_tensor_fixture_keeps_structure_constants():

    d, t = grading_skeleton(QQ, 3)
    # the unit object must be fixed or the unit normalization gauge breaks
    conj = {name: Matrix.from_rows(QQ, [[c]]) for name, c in zip(d.names(), (1, 3, 5))}
    d2 = conjugate_diagram(d, conj)
    t2 = conjugate_tensor_data(d, t, conj)
    assert validate_tensor(d2, t2).passed
    c1, c2 = compute_coend(d), compute_coend(d2)
    psi = conjugation_quotient_map(c1, c2, conj)
    # scalar conjugators leave the generators fixed
    assert psi == Matrix.identity(QQ, 3)
    p1, _ = coend_multiplication(c1, t)
    p2, _ = coend_multiplication(c2, t2)
    assert p1 == p2
    assert coalgebra_structure(c1) == coalgebra_structure(c2)
    assert unit_element(c1, t) == unit_element(c2, t2)
