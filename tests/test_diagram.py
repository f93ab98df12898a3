import random
from fractions import Fraction

import pytest

from coendcalc import (
    GF,
    QQ,
    DiagramPresentation,
    Matrix,
    ShapeError,
    kron,
    saturate_spans,
    validate_diagram,
)
from coendcalc.diagram import hom_basis

from fixtures import (
    comatrix_diagram,
    connected_pair,
    devectorize_hom,
    nilpotent_diagram,
    two_object_unsaturated,
    unit_matrix,
    vectorize_hom,
)
from oracles import oracle_saturated_span_dims


def test_validate_identity_only():
    assert validate_diagram(comatrix_diagram(QQ, 2)).passed


def test_validate_nilpotent():
    # N^2 = 0 lies in every span, so {I, N} is closed
    assert validate_diagram(nilpotent_diagram(QQ)).passed


def test_validate_connected_pair():
    assert validate_diagram(connected_pair(QQ)).passed


def test_validate_closure_failure_has_witness():
    report = validate_diagram(two_object_unsaturated(QQ))
    assert not report.passed
    bad = report.failures()[0]
    assert "closure" in bad.name
    assert bad.witness


def test_missing_identity_flagged():
    d = DiagramPresentation(QQ, [("X", 2)], {("X", "X"): [unit_matrix(QQ, 2, 0, 0)]})
    report = validate_diagram(d)
    assert any("identity" in c.name and not c.passed for c in report.checks)


def test_shape_errors_are_hard():
    with pytest.raises(ShapeError):
        DiagramPresentation(QQ, [("X", 2)], {("X", "X"): [Matrix.identity(QQ, 3)]})
    with pytest.raises(ShapeError):
        DiagramPresentation(QQ, [("X", 1), ("X", 2)], {})
    with pytest.raises(ShapeError):
        DiagramPresentation(QQ, [("X", 1)], {("X", "Y"): []})


def test_saturate_fixpoint():
    d = comatrix_diagram(QQ, 2)
    sat = saturate_spans(d)
    assert len(sat.span("X", "X")) == 1
    assert saturate_spans(sat).hom_spans == sat.hom_spans


def test_saturate_generates_full_matrix_algebra():
    # E12 and E21 generate all of M2: E12*E21 = E11, E21*E12 = E22
    d = DiagramPresentation(
        QQ,
        [("X", 2)],
        {("X", "X"): [Matrix.identity(QQ, 2), unit_matrix(QQ, 2, 0, 1), unit_matrix(QQ, 2, 1, 0)]},
    )
    expected = oracle_saturated_span_dims(QQ, d)
    sat = saturate_spans(d)
    assert len(sat.span("X", "X")) == expected[("X", "X")] == 4
    assert validate_diagram(sat).passed


def test_saturate_group_generator_of_order_three():
    # the cyclic shift of order 3: its powers {I, r, r^2} stay independent
    r = Matrix.from_rows(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert r * r * r == Matrix.identity(QQ, 3)
    d = DiagramPresentation(QQ, [("X", 3)], {("X", "X"): [r]})
    # oracle: enumerate powers of the generator and rank their span
    powers = [Matrix.identity(QQ, 3)]
    while True:
        nxt = powers[-1] * r
        if nxt == powers[0]:
            break
        powers.append(nxt)
    from oracles import flatten_row_major, oracle_rank

    assert oracle_rank(QQ, [flatten_row_major(p) for p in powers]) == 3
    expected = oracle_saturated_span_dims(QQ, d)
    sat = saturate_spans(d)
    assert len(sat.span("X", "X")) == expected[("X", "X")] == 3


def test_saturate_order_three_rotation_collapses():
    # over the rationals the 2-dim rotation satisfies r^2 = -r - I, so the
    # generated span is only 2-dimensional
    r = Matrix.from_rows(QQ, [[0, -1], [1, -1]])
    assert r * r * r == Matrix.identity(QQ, 2)
    d = DiagramPresentation(QQ, [("X", 2)], {("X", "X"): [r]})
    expected = oracle_saturated_span_dims(QQ, d)
    sat = saturate_spans(d)
    assert len(sat.span("X", "X")) == expected[("X", "X")] == 2


def test_saturate_two_object_fixture():
    d = two_object_unsaturated(QQ)
    expected = oracle_saturated_span_dims(QQ, d)
    sat = saturate_spans(d)
    for (x, y), dim in expected.items():
        assert len(sat.span(x, y)) == dim
    assert validate_diagram(sat).passed


def test_saturation_monotone():
    d = two_object_unsaturated(QQ)
    sat = saturate_spans(d)
    for pair, mats in d.hom_spans.items():
        assert len(sat.span(*pair)) >= len(hom_basis(d, *pair).basis)


def test_vectorize_examples():
    d1 = DiagramPresentation(QQ, [("X", 1)], {("X", "X"): [Matrix.identity(QQ, 1)]})
    assert vectorize_hom(d1, "X", Matrix.from_rows(QQ, [[7]])) == (Fraction(7),)

    d2 = comatrix_diagram(QQ, 2)
    e21 = unit_matrix(QQ, 2, 1, 0)  # 1 in row 2, col 1 (1-based)
    coords = vectorize_hom(d2, "X", e21)
    # coordinate 1 sits at (i=1, j=2) 1-based, flat index 0*2+1
    assert coords == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))


def test_vectorize_round_trip():
    rng = random.Random(5)
    d = comatrix_diagram(QQ, 3)
    for _ in range(10):
        t = Matrix(QQ, 3, 3, [Fraction(rng.randint(-5, 5)) for _ in range(9)])
        assert devectorize_hom(d, "X", vectorize_hom(d, "X", t)) == t


def test_vectorize_shape_check():
    d = comatrix_diagram(QQ, 2)
    with pytest.raises(ShapeError):
        vectorize_hom(d, "X", Matrix.identity(QQ, 3))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_multiplication_operators_are_kron_built(field):
    rng = random.Random(23)
    dx, dy = 2, 3
    a = Matrix(field, dy, dx, [field.coerce(rng.randint(-4, 4)) for _ in range(dy * dx)])
    for _ in range(10):
        t = Matrix(field, dx, dy, [field.coerce(rng.randint(-4, 4)) for _ in range(dx * dy)])
        from coendcalc.linalg import vec_matrix

        left = kron(Matrix.identity(field, dy), a).apply(vec_matrix(t))
        assert left == vec_matrix(a * t)
        right = kron(a.transpose(), Matrix.identity(field, dx)).apply(vec_matrix(t))
        assert right == vec_matrix(t * a)


def test_zero_dimensional_object_allowed():
    d = DiagramPresentation(QQ, [("X", 0), ("Y", 1)], {("Y", "Y"): [Matrix.identity(QQ, 1)]})
    assert validate_diagram(d).passed
    sat = saturate_spans(d)
    assert sat.dim("X") == 0


def test_hom_basis_is_canonical():
    ident = Matrix.identity(QQ, 2)
    d1 = DiagramPresentation(QQ, [("X", 2)], {("X", "X"): [ident, ident.scale(2)]})
    d2 = DiagramPresentation(QQ, [("X", 2)], {("X", "X"): [ident.scale(3)]})
    assert hom_basis(d1, "X", "X").basis == hom_basis(d2, "X", "X").basis
    assert hom_basis(d1, "X", "X").dim == 1
