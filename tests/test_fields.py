import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendcalc import GF, QQ, FieldMismatchError, InputFormatError, Matrix
from coendcalc.fields import PrimeField


def test_fraction_addition():
    assert QQ.add(QQ.parse("1/2"), QQ.parse("1/3")) == Fraction(5, 6)


def test_prime_inverse():
    f5 = GF(5)
    assert f5.inv(2) == 3
    assert f5.mul(2, 3) == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.div(QQ.one, QQ.zero)
    with pytest.raises(ZeroDivisionError):
        GF(7).div(3, 0)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2), GF(97)])
def test_render_parse_round_trip(field):
    rng = random.Random(20240801)
    samples = [field.zero, field.one, field.neg(field.one)]
    for _ in range(50):
        if field is QQ:
            samples.append(Fraction(rng.randint(-40, 40), rng.randint(1, 23)))
        else:
            samples.append(field.coerce(rng.randint(-100, 100)))
    for s in samples:
        assert field.parse(field.render(s)) == s


def test_parse_normalizes_unreduced_and_signed():
    assert QQ.parse("-4/6") == Fraction(-2, 3)
    assert QQ.parse("+3") == Fraction(3)
    assert QQ.render(QQ.parse("-4/6")) == "-2/3"
    f5 = GF(5)
    assert f5.parse("-1") == 4
    assert f5.parse("7/3") == f5.div(2, 3)


def test_parse_rejects_garbage():
    for bad in ("1.5", "a", "1/2/3", "", "2 + 3"):
        with pytest.raises(InputFormatError):
            QQ.parse(bad)
    with pytest.raises(InputFormatError):
        GF(5).parse("x")


def test_prime_field_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        GF(5).parse("1/5")


@pytest.mark.parametrize("field", [QQ, GF(5), GF(31)])
def test_field_axioms_sampled(field):
    rng = random.Random(99)

    def sample():
        if field is QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return field.coerce(rng.randint(0, 1000))

    for _ in range(60):
        a, b, c = sample(), sample(), sample()
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one


def test_modulus_must_be_prime():
    for bad in (0, 1, 4, 6, 9, 1000000):
        with pytest.raises(InputFormatError):
            PrimeField(bad)
    PrimeField(2)
    PrimeField(2147483647)  # largest prime below 2**31


def test_modulus_upper_bound():
    with pytest.raises(InputFormatError):
        PrimeField(2147483659)  # smallest prime above 2**31


def test_mixed_fields_rejected_at_container_boundary():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(GF(5), 2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_canonical_residues():
    f5 = GF(5)
    m = Matrix.from_rows(f5, [[7, -1], [5, 12]])
    assert m.entries == (2, 4, 0, 2)


def factors(field):
    """Scalars over QQ with denominators, or residues over GF(p) both
    small and close to p, where a product leaves [0, p)."""
    if field is QQ:
        return st.fractions(min_value=-9, max_value=9, max_denominator=12)
    return st.one_of(st.integers(0, min(20, field.p - 1)), st.integers(max(0, field.p - 20), field.p - 1))


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1)], ids=repr)
def test_products_equal_matches_the_products(field):
    verdicts = set()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.tuples(factors(field), factors(field), factors(field), factors(field)), st.booleans())
    def check(quad, balance):
        w, x, y, z = quad
        if balance and y:  # equal products, from factors that need not be equal
            z = field.div(field.mul(w, x), y)
        if field is QQ:
            want = Fraction(w) * Fraction(x) == Fraction(y) * Fraction(z)
        else:
            want = w * x % field.p == y * z % field.p
        assert field.products_equal(w, x, y, z) == want
        verdicts.add(want)

    check()
    assert verdicts == {True, False}


# -- the dot and lincomb kernels against plain Fraction and residue sums ----

KERNEL_FIELDS = [QQ, GF(7), GF(2**31 - 1)]

# denominators with many shared factors, so the running lcm is often
# neither the product of two denominators nor one of them
SHARED_DENOMINATORS = (1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36)


def kernel_scalars(field):
    """Rationals whose denominators share factors, or residues near 0 and
    near p, where an unreduced sum leaves [0, p)."""
    if field is QQ:
        return st.builds(Fraction, st.integers(-20, 20), st.sampled_from(SHARED_DENOMINATORS))
    return factors(field)


def reference_dot(field, xs, ys):
    if field is QQ:
        return sum((Fraction(x) * Fraction(y) for x, y in zip(xs, ys)), Fraction(0))
    return sum(x * y for x, y in zip(xs, ys)) % field.p


def reference_lincomb(field, terms):
    acc = {}
    for w, col in terms:
        for r, x in col.items():
            acc[r] = acc.get(r, 0) + (Fraction(w) * Fraction(x) if field is QQ else w * x)
    if field is not QQ:
        acc = {r: x % field.p for r, x in acc.items()}
    return {r: x for r, x in acc.items() if x}


def assert_canonical_scalar(field, x):
    if field is QQ:
        assert type(x) is Fraction, x
    else:
        assert type(x) is int and 0 <= x < field.p, x


def cancelled(field, pairs):
    """The pairs, then each with its first factor negated: a zero sum."""
    return pairs + [(field.neg(x), y) for x, y in pairs]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_dot_matches_a_plain_sum(field):
    entry = st.one_of(st.just(field.zero), kernel_scalars(field))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(entry, entry), max_size=9), st.booleans())
    def check(pairs, cancel):
        if cancel:
            pairs = cancelled(field, pairs)
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        got = field.dot(xs, ys)
        assert got == reference_dot(field, xs, ys)
        assert_canonical_scalar(field, got)
        if cancel:
            assert not got and got == field.zero

    check()
    for empty in ([], ()):
        assert field.dot(empty, empty) == field.zero and not field.dot(empty, empty)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_lincomb_matches_a_plain_sum(field):
    column = st.dictionaries(st.integers(0, 5), kernel_scalars(field).filter(bool), max_size=4)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(kernel_scalars(field), column), max_size=6), st.booleans())
    def check(terms, cancel):
        if cancel:
            terms = cancelled(field, terms)
        got = field.lincomb(terms)
        assert got == reference_lincomb(field, terms)
        assert all(got.values()), got  # no zero is stored
        for x in got.values():
            assert_canonical_scalar(field, x)
        if cancel:
            assert got == {}

    check()
    assert field.lincomb([]) == {} and field.lincomb([(field.one, {})]) == {}


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_kernels_on_a_long_row_with_distinct_denominators(field):
    """81 terms, as in a row of the 3 x 3 comatrix kernel: over QQ each
    term has its own denominator, and the result's denominator divides
    the lcm of the term denominators."""
    n = 81

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=2 * n, max_size=2 * n))
    def check(nums):
        if field is QQ:
            xs = [Fraction(a, i + 1) for i, a in enumerate(nums[:n])]
            ys = [Fraction(b, n + 1 - i) for i, b in enumerate(nums[n:])]
        else:
            xs, ys = [field.coerce(a) for a in nums[:n]], [field.coerce(b) for b in nums[n:]]
        got = field.dot(xs, ys)
        assert got == reference_dot(field, xs, ys)
        terms = [(x, {i % 5: y}) for i, (x, y) in enumerate(zip(xs, ys))]
        total = field.lincomb(terms)
        assert total == reference_lincomb(field, terms)
        if field is QQ:
            common = lcm(*((x * y).denominator for x, y in zip(xs, ys)))
            for value in (got, *total.values()):
                assert common % value.denominator == 0

    check()
