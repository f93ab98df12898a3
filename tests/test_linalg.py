import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendcalc import GF, QQ, Matrix, ShapeError, kernel_basis, kron, quotient_split, rref
from coendcalc.linalg import (
    VectorSpan,
    rank,
    unvec_matrix,
    vec_matrix,
)

from fixtures import inverse, left_inverse
from oracles import (
    oracle_apply,
    oracle_kernel,
    oracle_kron,
    oracle_matmul,
    oracle_rank,
    oracle_rref,
)

KERNEL_FIELDS = [QQ, GF(7), GF(2**31 - 1)]


def random_matrix(field, rows, cols, rng):
    if field is QQ:
        return Matrix(
            field, rows, cols,
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rows * cols)],
        )
    return Matrix(field, rows, cols, [rng.randint(0, 4) for _ in range(rows * cols)])


def test_rref_identity():
    ident = Matrix.identity(QQ, 2)
    reduced, pivots, rk = rref(ident)
    assert reduced == ident and pivots == (0, 1) and rk == 2


def test_rref_proportional_rows():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    reduced, pivots, rk = rref(m)
    assert reduced == Matrix.from_rows(QQ, [[1, 2], [0, 0]])
    assert pivots == (0,) and rk == 1


def test_rref_zero():
    z = Matrix.zeros(QQ, 2, 3)
    reduced, pivots, rk = rref(z)
    assert reduced == z and pivots == () and rk == 0


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_rref_idempotent(field):
    rng = random.Random(7)
    for _ in range(25):
        m = random_matrix(field, rng.randint(0, 5), rng.randint(0, 5), rng)
        reduced = rref(m)[0]
        assert rref(reduced)[0] == reduced


def sparse_rows(m):
    """The rows of ``m`` in the form ``kernel_basis`` takes."""
    return [m.row_terms(i) for i in range(m.rows)]


def test_kernel_examples():
    assert kernel_basis(QQ, 3, sparse_rows(Matrix.identity(QQ, 3))) == []
    (v,) = kernel_basis(QQ, 2, sparse_rows(Matrix.from_rows(QQ, [[1, 1]])))
    assert v[0] == -v[1] and v[1] != 0
    (w,) = kernel_basis(QQ, 2, sparse_rows(Matrix.from_rows(QQ, [[1, 2], [2, 4]])))
    assert w[0] * Fraction(-1) == w[1] * 2  # proportional to (2, -1)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_kernel_property(field):
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(field, rng.randint(1, 5), rng.randint(1, 5), rng)
        basis = kernel_basis(field, m.cols, sparse_rows(m))
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert all(x == field.zero for x in m.apply(v))


def test_kron_examples():
    b = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert kron(Matrix.from_rows(QQ, [[2]]), b) == b.scale(2)
    assert kron(Matrix.identity(QQ, 2), Matrix.identity(QQ, 2)) == Matrix.identity(QQ, 4)
    c = kron(b, b)
    assert (c.rows, c.cols) == (4, 4)
    # block-row-major convention
    assert c[0, 0] == 1 and c[0, 2] == 2 and c[2, 0] == 3


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_kron_mixed_product(field):
    rng = random.Random(13)
    for _ in range(15):
        a = random_matrix(field, 2, 3, rng)
        c = random_matrix(field, 3, 2, rng)
        b = random_matrix(field, 2, 2, rng)
        d = random_matrix(field, 2, 3, rng)
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_vec_convention():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    # vec[i*rows + j] = m[j, i]: columns stacked
    assert vec_matrix(m) == (1, 3, 2, 4)
    assert unvec_matrix(QQ, vec_matrix(m), 2, 2) == m


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_vec_of_product_identity(field):
    rng = random.Random(17)
    for _ in range(15):
        a = random_matrix(field, 2, 3, rng)
        t = random_matrix(field, 3, 2, rng)
        b = random_matrix(field, 2, 3, rng)
        lhs = vec_matrix(a * t * b)
        rhs = kron(b.transpose(), a).apply(vec_matrix(t))
        assert lhs == rhs


def test_quotient_split_line():
    split = quotient_split(QQ, 2, [{0: Fraction(1), 1: Fraction(1)}])
    assert split.quotient_dim == 1
    assert split.projection.apply((1, 1)) == (Fraction(0),)
    assert (split.projection_map @ split.section).to_matrix() == Matrix.identity(QQ, 1)


def test_quotient_split_trivial_cases():
    empty = quotient_split(QQ, 3, [])
    assert empty.quotient_dim == 3
    assert empty.projection == Matrix.identity(QQ, 3)
    full = quotient_split(QQ, 2, [{0: Fraction(1)}, {1: Fraction(1)}])
    assert full.quotient_dim == 0


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_quotient_split_invariants(field):
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(0, 6)
        vecs = [tuple(random_matrix(field, 1, n, rng).row(0)) for _ in range(rng.randint(0, 4))]
        split = quotient_split(field, n, [{i: x for i, x in enumerate(v) if x} for v in vecs])
        assert split.quotient_dim == n - rank(Matrix(field, len(vecs), n, [x for v in vecs for x in v]))
        for v in vecs:
            assert all(x == field.zero for x in split.projection.apply(v))
        identity = (split.projection_map @ split.section).to_matrix()
        assert identity == Matrix.identity(field, split.quotient_dim)


def sparse_row_sets(field):
    """An ambient dimension and up to eight sparse rows in it."""
    if field is QQ:
        scalar = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
    else:
        scalar = st.integers(min_value=1, max_value=field.p - 1)
    return st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.dictionaries(st.integers(0, max(n - 1, 0)), scalar, max_size=n), max_size=8),
        )
    )


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_quotient_split_properties(field):
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(sparse_row_sets(field))
    def check(case):
        n, rows = case
        dense = [tuple(r.get(c, field.zero) for c in range(n)) for r in rows]
        split = quotient_split(field, n, rows)
        proj = split.projection
        # the projection kills every row and is the identity on ``free``
        for v in dense:
            assert not any(proj.apply(v))
        assert [[proj[a, fc] for fc in split.free] for a in range(proj.rows)] == (
            Matrix.identity(field, len(split.free)).row_list()
        )
        # SP is the projector along J: the identity at each free column c,
        # and e_c - SP e_c at each other column c is the rref row of J at
        # pivot c; and the dims add up
        reduced, pivots, rk = rref(Matrix(field, len(dense), n, [x for v in dense for x in v]))
        sp = split.section @ split.projection_map
        assert sorted(split.free + pivots) == list(range(n))
        for fc in split.free:
            assert sp.column(fc) == {fc: field.one}
        rows = [
            tuple(field.sub(field.one if i == c else field.zero, sp.column(c).get(i, field.zero))
                  for i in range(n))
            for c in pivots
        ]
        assert rows == [reduced.row(i) for i in range(rk)]
        assert all(all(sp.column(c).values()) for c in range(n))  # stores no zero
        assert split.quotient_dim == n - rk
        assert_canonical(field, [*proj.entries, *(x for v in rows for x in v)])

    check()


def test_solve_and_inverse():
    # m x = b is solvable exactly when b lies in the span of the columns of m
    m = Matrix.from_rows(QQ, [[2, 1], [1, 1]])
    columns = VectorSpan(QQ, 2)
    for j in range(2):
        columns.add(m.col(j))
    assert columns.contains((3, 2))
    assert inverse(m).apply((3, 2)) == (Fraction(1), Fraction(1))
    assert m.apply(inverse(m).apply((3, 2))) == (Fraction(3), Fraction(2))
    assert inverse(m) * m == Matrix.identity(QQ, 2)
    singular = VectorSpan(QQ, 2)
    singular.add((1, 1))
    assert not singular.contains((0, 1))
    with pytest.raises(ShapeError):
        inverse(Matrix.from_rows(QQ, [[1, 1], [1, 1]]))


def test_left_inverse():
    m = Matrix.from_rows(QQ, [[1, 0], [1, 1], [0, 1]])
    l = left_inverse(m)
    assert l * m == Matrix.identity(QQ, 2)
    assert left_inverse(Matrix.from_rows(QQ, [[1, 1], [2, 2]])) is None


def test_zero_dimensional_edges():
    z = Matrix(QQ, 0, 3, [])
    assert len(kernel_basis(QQ, 3, sparse_rows(z))) == 3
    assert rref(z)[2] == 0
    assert kron(z, Matrix.identity(QQ, 2)).rows == 0
    assert quotient_split(QQ, 0, []).quotient_dim == 0
    e = Matrix(QQ, 0, 0, [])
    assert e * e == e


def test_vector_span():
    span = VectorSpan(QQ, 3)
    assert span.add((1, 1, 0))
    assert not span.add((2, 2, 0))
    assert span.add((0, 1, 1))
    assert span.dim == 2
    assert span.contains((1, 0, -1))
    assert not span.contains((0, 0, 1))
    # integer input comes back as canonical Fractions
    assert_canonical(QQ, [x for row in span.basis() for x in row])


def test_matrix_shape_errors():
    with pytest.raises(ShapeError):
        Matrix(QQ, 2, 2, [1, 2, 3])
    with pytest.raises(ShapeError):
        Matrix.from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix.identity(QQ, 2) * Matrix.identity(QQ, 3)


def test_matrix_immutable():
    m = Matrix.identity(QQ, 2)
    with pytest.raises(AttributeError):
        m.rows = 3


# -- row kernels against plain loops ---------------------------------------


def random_scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return rng.randrange(field.p)


def sparse_matrix(field, rows, cols, rng):
    """Mostly zero entries, and about one row in four entirely zero."""
    entries = []
    for _ in range(rows):
        zero_row = rng.random() < 0.25
        entries += [
            0 if zero_row or rng.random() < 0.6 else random_scalar(field, rng)
            for _ in range(cols)
        ]
    return Matrix(field, rows, cols, entries)


def assert_canonical(field, values):
    """Fractions over QQ, residues in [0, p) over GF(p): what render expects."""
    for x in values:
        if field is QQ:
            assert type(x) is Fraction, x
        else:
            assert type(x) is int and 0 <= x < field.p, x


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_products_and_kron_match_plain_loops(field):
    rng = random.Random(23)
    for _ in range(40):
        n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a, b = sparse_matrix(field, n, k, rng), sparse_matrix(field, k, m, rng)
        v = sparse_matrix(field, 1, k, rng).row(0)
        product, image, tensor = a * b, a.apply(v), kron(a, b)
        assert list(product.entries) == oracle_matmul(field, a, b)
        assert image == oracle_apply(field, a, v)
        assert list(tensor.entries) == oracle_kron(field, a, b)
        for values in (product.entries, image, tensor.entries):
            assert_canonical(field, values)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_eliminations_match_plain_loops(field):
    rng = random.Random(29)
    for _ in range(40):
        m = sparse_matrix(field, rng.randint(0, 7), rng.randint(0, 7), rng)
        reduced, pivots, rk = rref(m)
        rows, oracle_pivots = oracle_rref(field, m.row_list())
        assert reduced.row_list() == rows
        assert list(pivots) == oracle_pivots and rk == len(oracle_pivots)
        basis = kernel_basis(field, m.cols, sparse_rows(m))
        assert basis == oracle_kernel(field, m)
        assert_canonical(field, reduced.entries)
        assert_canonical(field, [x for v in basis for x in v])


def low_rank_matrix(field, rows, cols, r, rng):
    """L . R with L rows x r and R r x cols, then about one row in five
    zeroed and one in five replaced by a copy of an earlier row."""
    left = Matrix(field, rows, r, [random_scalar(field, rng) for _ in range(rows * r)])
    right = Matrix(field, r, cols, [random_scalar(field, rng) for _ in range(r * cols)])
    entries = oracle_matmul(field, left, right)
    out = [entries[i * cols : (i + 1) * cols] for i in range(rows)]
    for i in range(rows):
        roll = rng.random()
        if roll < 0.2:
            out[i] = [field.zero] * cols
        elif roll < 0.4 and i:
            out[i] = list(out[rng.randrange(i)])
    return Matrix(field, rows, cols, [x for row in out for x in row])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_kernel_of_tall_low_rank_systems(field):
    rng = random.Random(37)
    shapes = [(0, 5, 0), (0, 1, 0), (6, 0, 0), (0, 0, 0), (8, 8, 8), (40, 6, 6), (3, 3, 3)]
    for _ in range(60):
        cols = rng.randint(1, 8)
        shapes.append((rng.randint(0, 40), cols, rng.randint(0, cols - 1)))
    shuffle = random.Random(41)
    for rows, cols, r in shapes:
        m = low_rank_matrix(field, rows, cols, r, rng)
        # the keys of each row in random order: sums are exact, order is free
        shuffled = [dict(shuffle.sample(list(t.items()), len(t))) for t in sparse_rows(m)]
        basis = kernel_basis(field, cols, shuffled)
        assert basis == oracle_kernel(field, m), (rows, cols, r)
        assert len(basis) == cols - oracle_rank(field, m.row_list())
        assert_canonical(field, [x for v in basis for x in v])
        assert all(not any(oracle_apply(field, m, v)) for v in basis)
    # the full-rank shapes above leave nothing, the empty ones everything
    assert kernel_basis(field, 3, sparse_rows(Matrix(field, 0, 3, []))) == [
        tuple(field.one if i == j else field.zero for i in range(3)) for j in range(3)
    ]
    assert kernel_basis(field, 4, sparse_rows(Matrix.identity(field, 4))) == []


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_vector_span_matches_plain_loops(field):
    rng = random.Random(31)
    for _ in range(30):
        dim = rng.randint(1, 7)
        span, added = VectorSpan(field, dim), []
        for _ in range(rng.randint(0, 8)):
            # half the time a combination of what is already there
            if added and rng.random() < 0.5:
                c = random_scalar(field, rng)
                v = [field.add(x, field.mul(c, y))
                     for x, y in zip(rng.choice(added), rng.choice(added))]
            else:
                v = sparse_matrix(field, 1, dim, rng).row(0)
            grows = oracle_rank(field, added + [list(v)]) > oracle_rank(field, added)
            assert span.contains(v) is not grows
            assert span.add(v) is grows
            added.append(list(v))
        rows, pivots = oracle_rref(field, added)
        assert span.basis() == [tuple(r) for r in rows[: len(pivots)]]
        assert_canonical(field, [x for r in span.basis() for x in r])


def row_pairs(field):
    """Equal-length rows over ``field``, half their entries zero."""
    if field is QQ:
        scalar = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    else:
        scalar = st.integers(min_value=0, max_value=field.p - 1)
    entry = st.one_of(st.just(field.zero), scalar)
    return st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.lists(entry, min_size=n, max_size=n),
            st.lists(entry, min_size=n, max_size=n),
            scalar,
        )
    )


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_row_kernels_match_field_arithmetic(field):
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(row_pairs(field))
    def check(case):
        xs, ys, c = case
        plain_dot = field.zero
        for x, y in zip(xs, ys):
            plain_dot = field.add(plain_dot, field.mul(x, y))
        assert field.dot(xs, ys) == plain_dot
        assert field.axpy(c, xs, ys) == [field.sub(x, field.mul(c, y)) for x, y in zip(xs, ys)]
        assert field.scale_row(c, xs) == [field.mul(c, x) for x in xs]
        assert_canonical(field, [field.dot(xs, ys), *field.axpy(c, xs, ys), *field.scale_row(c, xs)])
        cx = {i: x for i, x in enumerate(xs) if x}
        cy = {i: y for i, y in enumerate(ys) if y}
        # the second sum cancels c * cx exactly, key by key
        for terms in ([(c, cx), (field.one, cy)], [(c, cx), (field.neg(c), cx), (c, cy)]):
            assert field.lincomb(terms) == plain_lincomb(field, terms)
            assert_canonical(field, field.lincomb(terms).values())

    check()
    # entry 0 cancels: to exactly 0 over QQ, to (p-1)*p unreduced over GF(p)
    if field is QQ:
        terms = [(Fraction(1, 3), {0: Fraction(3, 2), 1: Fraction(2)}), (Fraction(-1, 2), {0: Fraction(1)})]
    else:
        terms = [(field.p - 1, {0: field.p - 1, 1: 2}), (field.p - 1, {0: 1})]
    total = field.lincomb(terms)
    assert total == plain_lincomb(field, terms) == {1: field.mul(terms[0][0], 2)}
    assert_canonical(field, total.values())


def plain_lincomb(field, terms):
    """The sum of ``w * col`` entry by entry with ``add`` and ``mul``, zeros dropped."""
    keys = {r for _, col in terms for r in col}
    total = {}
    for r in keys:
        value = field.zero
        for w, col in terms:
            value = field.add(value, field.mul(w, col.get(r, field.zero)))
        total[r] = value
    return {r: x for r, x in total.items() if x}


# -- the list-built helpers against their definitions ------------------------


def matrices(field, rows=st.integers(0, 4), cols=st.integers(0, 4)):
    """Matrices of every small shape, 0 x n and n x 0 included, half their
    entries zero."""
    if field is QQ:
        scalar = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    else:
        scalar = st.integers(min_value=0, max_value=field.p - 1)
    entry = st.one_of(st.just(field.zero), scalar)
    return st.tuples(rows, cols).flatmap(lambda shape: st.lists(
        entry, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
    ).map(lambda entries: Matrix(field, shape[0], shape[1], entries)))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_vec_and_unvec_invert_each_other(field):
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(matrices(field))
    def check(m):
        v = vec_matrix(m)
        assert type(v) is tuple
        assert v == tuple(m[j, i] for i in range(m.cols) for j in range(m.rows))
        assert unvec_matrix(field, v, m.rows, m.cols) == m
        assert vec_matrix(unvec_matrix(field, v, m.rows, m.cols)) == v

    check()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_vec_of_a_product_is_a_kron_applied_to_vec(field):
    """vec(A T B) = kron(B^t, A) vec(T), as the module docstring states."""
    dims = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(dims.flatmap(lambda d: st.tuples(
        matrices(field, st.just(d[0]), st.just(d[1])),
        matrices(field, st.just(d[1]), st.just(d[2])),
        matrices(field, st.just(d[2]), st.just(d[3])),
    )))
    def check(factors):
        a, t, b = factors
        assert vec_matrix(a * t * b) == kron(b.transpose(), a).apply(vec_matrix(t))

    check()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_col_and_apply_match_their_definitions(field):
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(matrices(field).flatmap(
        lambda m: st.tuples(st.just(m), matrices(field, st.just(1), st.just(m.cols)))
    ))
    def check(case):
        m, v = case[0], case[1].row(0)
        for j in range(m.cols):
            col = m.col(j)
            assert type(col) is tuple and col == tuple(m[i, j] for i in range(m.rows))
        image = m.apply(v)
        assert type(image) is tuple and image == oracle_apply(field, m, v)
        assert_canonical(field, image)

    check()
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        m = Matrix.zeros(field, rows, cols)
        assert [m.col(j) for j in range(cols)] == [()] * cols
        assert m.apply((field.zero,) * cols) == (field.zero,) * rows
