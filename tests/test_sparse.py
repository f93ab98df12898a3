"""The sparse map type against the dense operations, and the axiom checks
stated with it against corrupted structure constants."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendcalc import (
    GF,
    QQ,
    AlgebraData,
    BialgebraData,
    CoalgebraData,
    Matrix,
    coalgebra_structure,
    coend_multiplication,
    compute_coend,
    comatrix_coalgebra,
    kron,
    unit_element,
    verify_bialgebra,
    verify_coalgebra,
    verify_comodule,
)
from coendcalc.linalg import SparseMap

from fixtures import grading_skeleton, kron_vec, regular_comodule_setup, zero_map

FIELDS = [QQ, GF(7), GF(2**31 - 1)]


def dense(m: SparseMap) -> Matrix:
    """The matrix of a sparse map, after checking that no column stores a zero."""
    entries = [m.field.zero] * (m.rows * m.cols)
    for j in range(m.cols):
        column = m.column(j)
        assert all(column.values()) and all(0 <= r < m.rows for r in column)
        for r, x in column.items():
            entries[r * m.cols + j] = x
    canonical = Matrix(m.field, m.rows, m.cols, entries)
    assert canonical.entries == tuple(entries)
    return canonical


def matrices(field, rows, cols):
    """Matrices of one shape, about half of their entries zero, sometimes
    with a whole row and a whole column zeroed."""
    if field is QQ:
        scalar = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    else:
        scalar = st.integers(min_value=0, max_value=field.p - 1)
    entry = st.one_of(st.just(field.zero), st.just(field.one), scalar)

    def build(case):
        entries, zero_row, zero_col = case
        entries = [
            field.zero if i == zero_row or j == zero_col else entries[i * cols + j]
            for i in range(rows)
            for j in range(cols)
        ]
        return Matrix(field, rows, cols, entries)

    return st.tuples(
        st.lists(entry, min_size=rows * cols, max_size=rows * cols),
        st.one_of(st.none(), st.integers(0, max(rows - 1, 0))),
        st.one_of(st.none(), st.integers(0, max(cols - 1, 0))),
    ).map(build)


def matrix_chains(field):
    """Two composable matrices and two more, every dimension 0..5, so that
    several columns of a right factor share left-factor columns."""
    dims = st.integers(0, 5)
    return st.tuples(dims, dims, dims, dims, dims).flatmap(
        lambda s: st.tuples(
            matrices(field, s[0], s[1]),
            matrices(field, s[1], s[2]),
            matrices(field, s[3], s[4]),
            matrices(field, s[4], s[2]),
        )
    )


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sparse_products_match_dense(field):
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(matrix_chains(field))
    def check(case):
        a, b, c, d = case
        sa, sb, sc, sd = map(SparseMap.from_matrix, case)
        own = [[dict(m.column(j)) for j in range(m.cols)] for m in (sa, sb, sc, sd)]
        assert dense(sa) == a
        assert dense(sa @ sb) == a * b
        assert dense(sa.kron(sc)) == kron(a, c)
        assert dense(sc.kron(sa)) == kron(c, a)
        # lazy maps composed with lazy maps: the mixed-product identity
        assert dense(sa.kron(sc) @ sb.kron(sd)) == kron(a * b, c * d)
        one = SparseMap.identity(field, a.rows)
        assert dense(one) == Matrix.identity(field, a.rows)
        assert dense(one @ sa) == a and dense(sa @ SparseMap.identity(field, a.cols)) == a
        assert dense(zero_map(field, a.rows, b.cols)) == Matrix.zeros(field, a.rows, b.cols)
        assert sa.to_matrix() == a and (sa @ sb).to_matrix() == a * b
        cols = [a.col(j) for j in range(a.cols)]
        assert dense(SparseMap.from_columns(field, a.rows, cols)) == a
        # a Kronecker product with an identity factor shifts indices, on
        # either side of a composite, and with an identity on both sides
        products = [sa @ sb, sa.kron(sc) @ sb.kron(sd)]
        for n in range(4):
            one_n, ident = SparseMap.identity(field, n), Matrix.identity(field, n)
            shifted = [
                one_n.kron(sa), sa.kron(one_n),
                one_n.kron(sa) @ one_n.kron(sb), sa.kron(one_n) @ sb.kron(one_n),
                one_n.kron(one),
            ]
            assert [dense(p) for p in shifted] == [
                kron(ident, a), kron(a, ident),
                kron(ident, a * b), kron(a * b, ident),
                Matrix.identity(field, n * a.rows),
            ]
            products += shifted
        # callers only read the dicts: a second reading, in reverse order,
        # sees the same columns, and the factors' own columns are untouched
        for p in products:
            first = [p.column(j) for j in range(p.cols)]
            assert [p.column(j) for j in reversed(range(p.cols))] == first[::-1]
        assert [[m.column(j) for j in range(m.cols)] for m in (sa, sb, sc, sd)] == own

    check()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_swap_flips_tensor_factors(field):
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.integers(0, 3).flatmap(lambda p: st.integers(0, 3).flatmap(
        lambda q: st.tuples(matrices(field, p, 1), matrices(field, q, 1)))))
    def check(case):
        u, v = (m.col(0) for m in case)
        tau = SparseMap.swap(field, len(u), len(v))
        flipped = tau @ SparseMap.from_columns(field, len(u) * len(v), [kron_vec(u, v, field)])
        assert dense(flipped).col(0) == kron_vec(v, u, field)
        assert dense(SparseMap.swap(field, len(v), len(u)) @ tau) == Matrix.identity(
            field, len(u) * len(v)
        )

    check()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_first_difference_matches_equality(field):
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda s: st.tuples(matrices(field, *s), matrices(field, *s), st.booleans())))
    def check(case):
        a, b, same = case
        if same:
            b = a
        diff = SparseMap.from_matrix(a).first_difference(SparseMap.from_matrix(b))
        assert (diff is None) == (a == b)
        cells = [(j, i) for j in range(a.cols) for i in range(a.rows) if a[i, j] != b[i, j]]
        assert diff == (cells[0] if cells else None)

    check()


def products(field):
    """Maps m: k^n (x) k^n -> k^n for n = 0..3, as lists of n^2 column
    dicts: the cyclic group table with unit weights or with the weights
    c(a) c(b) / c(a + b) of a 2-cocycle (associative, its products equal
    from unequal factors), or random columns of zero, one or several
    terms, then up to two columns replaced by random ones, so most tables
    are not associative.  Unit weights come as the field's one and as
    freshly built equal objects (``Fraction(1)`` over QQ; small ints are
    shared objects, so over GF(p) they are the one itself)."""
    if field is QQ:
        scalar = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
        unit = st.builds(Fraction, st.just(1))
    else:
        scalar = st.integers(min_value=1, max_value=field.p - 1)
        unit = st.just(1)
    weight = st.one_of(unit, st.just(field.one), scalar)

    def columns(n):
        row = st.integers(0, n - 1)
        column = st.one_of(
            st.just({}),
            st.builds(lambda r, w: {r: w}, row, weight),
            st.dictionaries(row, st.one_of(unit, scalar), min_size=2, max_size=n),
        ) if n > 1 else st.one_of(st.just({}), st.builds(lambda w: {0: w}, weight))
        cyclic = st.lists(unit, min_size=n * n, max_size=n * n).map(
            lambda ws: [{(a + b) % n: ws[a * n + b]} for a in range(n) for b in range(n)]
        )
        cocycle = st.lists(scalar, min_size=n, max_size=n).map(lambda c: [
            {(a + b) % n: field.div(field.mul(c[a], c[b]), c[(a + b) % n])}
            for a in range(n) for b in range(n)
        ])
        random = st.lists(column, min_size=n * n, max_size=n * n)
        patches = st.dictionaries(st.integers(0, n * n - 1), column, max_size=2)
        return st.tuples(st.one_of(cyclic, cocycle, random), patches if n else st.just({}))

    def build(case):
        n, (cols, patches) = case
        cols = [patches.get(k, c) for k, c in enumerate(cols)]
        return n, cols

    return st.integers(0, 3).flatmap(lambda n: st.tuples(st.just(n), columns(n))).map(build)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_associativity_difference_matches_the_composites(field):
    seen = set()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(products(field))
    def check(case):
        n, cols = case
        counted, muls, kernels = copy.copy(field), [], []
        counted.mul = lambda a, b: muls.append(1) or field.mul(a, b)
        counted.products_equal = lambda *ws: kernels.append(1) or field.products_equal(*ws)
        own = [dict(c) for c in cols]
        diff = SparseMap(counted, n, n * n, cols.__getitem__).associativity_difference()
        assert cols == own  # the check only reads m's columns
        single = [w for column in cols if len(column) == 1 for w in column.values()]
        if len(single) == len(cols):  # all four columns read are single-term: no product
            assert not muls
        # weights equal to one, whether the one object or not, are never multiplied
        if all(w == field.one for w in single):
            assert not muls and not kernels
        m, one = SparseMap(field, n, n * n, cols.__getitem__), SparseMap.identity(field, n)
        lhs, rhs = m @ m.kron(one), m @ one.kron(m)
        assert diff == lhs.first_difference(rhs)
        seen.update(min(len(column), 2) for column in cols)
        if diff is None:
            seen.add("associative" if all(w == field.one for w in single) else
                     "associative, a weight not one")
        else:
            j, r = diff
            a, b = lhs.column(j), rhs.column(j)
            seen.add("values differ" if r in a and r in b else "rows differ")

    check()
    assert seen == {0, 1, 2, "associative", "associative, a weight not one",
                    "values differ", "rows differ"}


def test_first_difference_rejects_other_shapes_and_fields():
    from coendcalc import FieldMismatchError, ShapeError

    with pytest.raises(ShapeError):
        SparseMap.identity(QQ, 2).first_difference(SparseMap.identity(QQ, 3))
    with pytest.raises(FieldMismatchError):
        SparseMap.identity(QQ, 2).first_difference(SparseMap.identity(GF(7), 2))
    with pytest.raises(ShapeError):
        SparseMap.identity(QQ, 2) @ SparseMap.identity(QQ, 3)


# -- corrupted structure constants ------------------------------------------


def bumped(m: Matrix, i: int, j: int) -> Matrix:
    """``m`` with one added to entry (i, j)."""
    entries = list(m.entries)
    entries[i * m.cols + j] = m.field.add(entries[i * m.cols + j], m.field.one)
    return Matrix(m.field, m.rows, m.cols, entries)


def cells(m: Matrix):
    return [(i, j) for i in range(m.rows) for j in range(m.cols)]


def assert_caught(report):
    failures = report.failures()
    assert failures, str(report)
    assert all(c.witness for c in failures), str(report)


def grading_bialgebra(field):
    d, t = grading_skeleton(field, 3)
    c = compute_coend(d)
    product, _ = coend_multiplication(c, t)
    algebra = AlgebraData(dim=c.dim, product=product, unit=tuple(unit_element(c, t)))
    return BialgebraData(coalgebra=coalgebra_structure(c), algebra=algebra)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_corrupted_comatrix_coalgebra_fails(field):
    co = comatrix_coalgebra(field, 2)
    assert verify_coalgebra(co).passed
    for i, j in cells(co.delta):
        assert_caught(verify_coalgebra(CoalgebraData(co.dim, bumped(co.delta, i, j), co.epsilon)))
    for i, j in cells(co.epsilon):
        assert_caught(verify_coalgebra(CoalgebraData(co.dim, co.delta, bumped(co.epsilon, i, j))))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_corrupted_grading_bialgebra_fails(field):
    b = grading_bialgebra(field)
    assert b.dim == 3 and verify_bialgebra(b).passed
    co, alg = b.coalgebra, b.algebra
    for i, j in cells(alg.product):
        wrong = AlgebraData(alg.dim, bumped(alg.product, i, j), alg.unit)
        assert_caught(verify_bialgebra(BialgebraData(co, wrong)))
    for k in range(alg.dim):
        unit = list(alg.unit)
        unit[k] = field.add(unit[k], field.one)
        wrong = AlgebraData(alg.dim, alg.product, tuple(unit))
        assert_caught(verify_bialgebra(BialgebraData(co, wrong)))
    for i, j in cells(co.delta):
        wrong = CoalgebraData(co.dim, bumped(co.delta, i, j), co.epsilon)
        assert_caught(verify_bialgebra(BialgebraData(wrong, alg)))
    for i, j in cells(co.epsilon):
        wrong = CoalgebraData(co.dim, co.delta, bumped(co.epsilon, i, j))
        assert_caught(verify_bialgebra(BialgebraData(wrong, alg)))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_corrupted_regular_comodule_fails(field):
    coalg, (regular,) = regular_comodule_setup(field)
    assert verify_comodule(coalg, regular).passed
    for i, j in cells(regular.rho):
        wrong = type(regular)(dim=regular.dim, rho=bumped(regular.rho, i, j))
        assert_caught(verify_comodule(coalg, wrong))


def test_grading_bialgebra_witnesses_name_the_corrupted_pair():
    b = grading_bialgebra(QQ)
    co, alg = b.coalgebra, b.algebra
    # add g0 to the product g1 * g2; only the pair (1, 2) is touched
    wrong = AlgebraData(alg.dim, bumped(alg.product, 0, 1 * 3 + 2), alg.unit)
    report = verify_bialgebra(BialgebraData(co, wrong))
    witnesses = {c.name: c.witness for c in report.failures()}
    assert witnesses["comultiplication multiplicative"].startswith("pair (1, 2), ")
    assert witnesses["counit multiplicative"] == "pair (1, 2)"
    assert witnesses["associativity"] == "triple (1, 1, 1), coordinate 0"
