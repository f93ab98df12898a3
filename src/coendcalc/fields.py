"""Exact field arithmetic over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` for the rationals
(always reduced, positive denominator) and canonical ``int`` residues in
``[0, p)`` for a prime field.  The field descriptor travels with container
types (matrices, diagrams), not with each scalar, so element arithmetic
goes through the field object and mixing fields is caught at container
boundaries.

Row kernels work in native operators: ``dot``, ``axpy`` and ``scale_row``
on dense rows, and ``lincomb``, the sum of scaled sparse columns that
``SparseMap`` products and sparse system rows are built with.  ``dot``
and ``lincomb`` reduce once per output entry: over the rationals they add
integer numerators over a running lcm of the term denominators (in two
dicts of ints in ``lincomb``, no pairs) and build one ``Fraction``;
GF(p) reduces ``% p`` once.
``products_equal`` decides w*x == y*z without forming either product:
over the rationals on cross-multiplied numerators and denominators (no
``Fraction``, no gcd), over GF(p) with one residue test.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import lcm
from typing import Union

from .errors import FieldMismatchError, InputFormatError

Scalar = Union[Fraction, int]

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# Residues must fit a machine word so brute-force oracles stay fast.
MAX_PRIME = 2**31

_ZERO, _ONE = Fraction(0), Fraction(1)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3_215_031_751."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7):
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the two supported exact fields."""

    kind: str

    @property
    def zero(self) -> Scalar:
        raise NotImplementedError

    @property
    def one(self) -> Scalar:
        raise NotImplementedError

    def coerce(self, value) -> Scalar:
        raise NotImplementedError

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def neg(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    # Row kernels on canonical scalars; zero is tested by truthiness.
    def dot(self, xs, ys) -> Scalar:
        """The sum of ``xs[i] * ys[i]``."""
        raise NotImplementedError

    def axpy(self, c: Scalar, xs, ys) -> list:
        """The row ``xs - c * ys``."""
        raise NotImplementedError

    def scale_row(self, c: Scalar, xs) -> list:
        """The row ``c * xs``."""
        raise NotImplementedError

    def lincomb(self, terms) -> dict:
        """The sum of ``w * col`` over pairs of a scalar ``w`` and a
        ``{index: value}`` column, as a column that stores no zero."""
        raise NotImplementedError

    def products_equal(self, w: Scalar, x: Scalar, y: Scalar, z: Scalar) -> bool:
        """Whether ``w * x == y * z``, decided without forming either product."""
        raise NotImplementedError

    def parse(self, text: str) -> Scalar:
        """Read a scalar from text, normalizing to canonical form."""
        if isinstance(text, int):
            return self.coerce(text)
        if not isinstance(text, str) or not _SCALAR_RE.match(text.strip()):
            raise InputFormatError(f"not a scalar: {text!r}")
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise InputFormatError(f"zero denominator in scalar {text!r}")
            return self.div(self.coerce(int(num)), self.coerce(int(den)))
        return self.coerce(int(text))

    def render(self, a: Scalar) -> str:
        """Canonical text form; ``parse(render(a)) == a``."""
        return str(a)

    def descriptor(self) -> dict:
        raise NotImplementedError


class RationalField(Field):
    """The field of rational numbers with arbitrary-precision arithmetic."""

    kind = "rational"

    @property
    def zero(self) -> Fraction:
        return _ZERO

    @property
    def one(self) -> Fraction:
        return _ONE

    def coerce(self, value) -> Fraction:
        if isinstance(value, bool):
            raise InputFormatError(f"not a scalar: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        raise InputFormatError(f"cannot coerce {value!r} into the rationals")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in the rationals")
        return a / b

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.div(self.one, a)

    def dot(self, xs, ys):
        num, den = 0, 1
        for x, y in zip(xs, ys):
            a, b = x.as_integer_ratio()
            if a:
                c, d = y.as_integer_ratio()
                if c:
                    b *= d
                    if b != den:  # bring both sides to the lcm of the denominators
                        m = lcm(den, b)
                        num, a, den = num * (m // den), a * (m // b), m
                    num += a * c
        return Fraction(num, den) if num else _ZERO

    def axpy(self, c, xs, ys):
        return [x - c * y if y else x for x, y in zip(xs, ys)]

    def scale_row(self, c, xs):
        return [c * x if x else _ZERO for x in xs]

    def lincomb(self, terms):
        nums, dens = {}, {}
        for w, col in terms:
            a, b = w.as_integer_ratio()
            for r, x in col.items():
                c, d = x.as_integer_ratio()
                c, d = a * c, b * d
                num, den = nums.get(r, 0), dens.get(r, d)
                if d != den:  # bring both sides to the lcm of the denominators
                    m = lcm(den, d)
                    num, c, den = num * (m // den), c * (m // d), m
                nums[r], dens[r] = num + c, den
        return {r: Fraction(x, dens[r]) for r, x in nums.items() if x}

    def products_equal(self, w, x, y, z):
        (a, b), (c, d) = w.as_integer_ratio(), x.as_integer_ratio()
        (e, g), (h, i) = y.as_integer_ratio(), z.as_integer_ratio()
        return a * c * g * i == e * h * b * d

    def descriptor(self) -> dict:
        return {"kind": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """The field of residues modulo a prime p < 2**31."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise InputFormatError(f"modulus must be prime, got {p!r}")
        if p >= MAX_PRIME:
            raise InputFormatError(f"modulus must be < 2**31, got {p}")
        self.p = p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1 % self.p

    def coerce(self, value) -> int:
        if isinstance(value, bool):
            raise InputFormatError(f"not a scalar: {value!r}")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, Fraction):
            return self.div(self.coerce(value.numerator), self.coerce(value.denominator))
        raise InputFormatError(f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, -1, self.p)

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.p

    def axpy(self, c, xs, ys):
        p = self.p
        return [(x - c * y) % p if y else x for x, y in zip(xs, ys)]

    def scale_row(self, c, xs):
        p = self.p
        return [c * x % p for x in xs]

    def lincomb(self, terms):
        acc, p = {}, self.p
        for w, col in terms:
            for r, x in col.items():
                acc[r] = acc.get(r, 0) + w * x
        return {r: y for r, x in acc.items() if (y := x % p)}

    def products_equal(self, w, x, y, z):
        return not (w * x - y * z) % self.p

    def descriptor(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

GF = PrimeField


def same_field(a: Field, b: Field) -> Field:
    """Return the common field of two containers or raise FieldMismatchError."""
    if a is not b and a != b:
        raise FieldMismatchError(f"mixed fields: {a!r} and {b!r}")
    return a


def field_from_descriptor(desc: dict) -> Field:
    """Build a field from its report/input descriptor."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise InputFormatError(f"bad field descriptor: {desc!r}")
    if desc["kind"] == "rational":
        return QQ
    if desc["kind"] == "prime":
        if "p" not in desc:
            raise InputFormatError("prime field descriptor needs 'p'")
        return PrimeField(desc["p"])
    raise InputFormatError(f"unknown field kind {desc['kind']!r}")
