"""Seeded input generators with known answers, one per benchmark workload.

Each generator takes a seed string and a size and returns the JSON text of
one coendcalc input document; the program under test only ever sees that
text.  Each workload also names the subcommand it runs and checks a report
against the answer the construction guarantees.  The generators use only
the standard library, so the known answers do not depend on coendcalc.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

MERSENNE_31 = 2**31 - 1
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _render(x) -> str:
    return str(Fraction(x))


def _identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a: list, b: list) -> list:
    return [
        [sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _kron(a: list, b: list) -> list:
    return [
        [a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
        for i in range(len(a))
        for k in range(len(b))
    ]


def _inverse(m: list) -> list:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _unimodular(rng: random.Random, n: int) -> tuple:
    """A dense random integer matrix of determinant +-1 and its inverse.

    It is a row permutation of L * U, with L and U unit triangular and
    every off-diagonal entry +-1.  So every instance of one size has the
    same sparsity and entries of similar size, and therefore similar
    cost; only signs and order depend on the seed.
    """

    def triangular(below: bool) -> list:
        return [
            [1 if i == j else rng.choice((-1, 1)) if (j < i) == below else 0
             for j in range(n)]
            for i in range(n)
        ]

    order = list(range(n))
    rng.shuffle(order)
    lu = _matmul(triangular(True), triangular(False))
    u = [lu[k] for k in order]
    u_inv = [[int(x) for x in row] for row in _inverse(u)]
    return u, u_inv


def comatrix_delta(d: int) -> list:
    """Coproduct constants of the d x d comatrix coalgebra, (d^4) x (d^2).

    Basis C_ij is index i*d + j; delta(C_ij) = sum_k C_ik (x) C_kj, with
    tensor row r*n + s for C_r (x) C_s.
    """
    n = d * d
    delta = [[0] * n for _ in range(n * n)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                delta[(i * d + k) * n + (k * d + j)][i * d + j] = 1
    return delta


def end_iso_document(seed: str, d: int) -> str:
    """Two isomorphic objects X, Y of dim d joined by P and its inverse.

    P = U * D with U unimodular and D a signed diagonal of the first d
    primes in seeded order, so P^-1 has fractional entries.  The spans
    {I}, {I}, {P}, {P^-1} are closed under composition, and the end and
    coend both have dimension d^2.
    """
    rng = random.Random(seed)
    u, u_inv = _unimodular(rng, d)
    diag = [rng.choice((-1, 1)) * q for q in rng.sample(PRIMES[:d], d)]
    p = [[u[i][j] * diag[j] for j in range(d)] for i in range(d)]
    p_inv = [[Fraction(u_inv[i][j], diag[i]) for j in range(d)] for i in range(d)]

    def mat(m):
        return [[_render(x) for x in row] for row in m]

    doc = {
        "field": {"kind": "rational"},
        "objects": [{"name": "X", "dim": d}, {"name": "Y", "dim": d}],
        "homs": [
            {"src": "X", "dst": "X", "span": [mat(_identity(d))]},
            {"src": "Y", "dst": "Y", "span": [mat(_identity(d))]},
            {"src": "X", "dst": "Y", "span": [mat(p)]},
            {"src": "Y", "dst": "X", "span": [mat(p_inv)]},
        ],
    }
    return json.dumps(doc, sort_keys=True)


def roundtrip_regular_document(seed: str, d: int) -> str:
    """The regular comodule of the d x d comatrix coalgebra in a seeded basis.

    With basis change Q (unimodular, so invertible mod any prime) the coaction is
    rho' = (Q^-1 (x) 1) * delta * Q.  Reconstruction must PASS with coend
    and image dimension d^2.
    """
    rng = random.Random(seed)
    n = d * d
    delta = comatrix_delta(d)
    q, q_inv = _unimodular(rng, n)
    rho = _matmul(_matmul(_kron(q_inv, _identity(n)), delta), q)
    eps = [int(i == j) for i in range(d) for j in range(d)]

    def mat(m):
        return [[str(x % MERSENNE_31) for x in row] for row in m]

    doc = {
        "field": {"kind": "prime", "p": MERSENNE_31},
        "coalgebra": {
            "dim": n,
            "delta": mat(delta),
            "epsilon": [str(x) for x in eps],
            "comodules": [{"dim": n, "rho": mat(rho)}],
        },
    }
    return json.dumps(doc, sort_keys=True)


def grading_document(seed: str, k: int) -> str:
    """The Z/k grading with comparison scalars twisted by a coboundary.

    f2(x, y) = c(x) c(y) / c(xy) with c(unit) = 1, so the unit maps are
    identities and coherence holds.  The bialgebra has dimension k and
    every check passes.
    """
    rng = random.Random(seed)
    # A fixed multiset of magnitudes in seeded order with seeded signs, so
    # every instance of one size does arithmetic on fractions of similar size.
    magnitudes = [Fraction(1 + i % 9, 1 + 5 * i % 8) for i in range(1, k)]
    rng.shuffle(magnitudes)
    c = [Fraction(1)] + [rng.choice((-1, 1)) * x for x in magnitudes]
    names = [f"g{i}" for i in range(k)]
    table, f2 = {}, {}
    for i in range(k):
        for j in range(k):
            key = f"{names[i]},{names[j]}"
            table[key] = names[(i + j) % k]
            f2[key] = [[_render(c[i] * c[j] / c[(i + j) % k])]]
    doc = {
        "field": {"kind": "rational"},
        "objects": [{"name": n, "dim": 1} for n in names],
        "tensor": {"unit": names[0], "table": table, "f2": f2},
    }
    return json.dumps(doc, sort_keys=True)


def _check_end(report: dict, size: int) -> list:
    body = report["end"]
    want = size * size
    return [
        f"{key} {body[key]} != {want}" for key in ("dim", "coend_dim") if body[key] != want
    ]


def _check_roundtrip(report: dict, size: int) -> list:
    body = report["roundtrip"]
    want = size * size
    errors = [] if body["status"] == "PASS" else [f"status {body['status']} != PASS"]
    errors += [
        f"{key} {body[key]} != {want}"
        for key in ("coend_dim", "image_dim")
        if body[key] != want
    ]
    return errors


def _check_bialgebra(report: dict, size: int) -> list:
    body = report["bialgebra"]
    errors = [] if body["dim"] == size else [f"dim {body['dim']} != {size}"]
    if len(body.get("multiplication", [])) != size * size:
        errors.append("multiplication table missing or incomplete")
    return errors


class Workload:
    """One benchmark workload: generator, command, size and known answer."""

    def __init__(self, name, command, field, size, generate, check, dominant):
        self.name = name
        self.command = command
        self.field = field
        self.size = size
        self.generate = generate
        self._check = check
        # The layer predicted to take the most time, outside its callers.
        self.dominant = dominant

    def document(self, seed, index: int, size: int | None = None) -> str:
        return self.generate(f"{self.name}/{seed}/{index}", size or self.size)

    def check(self, code: int, report_text: str, size: int | None = None) -> list:
        """Reasons the report contradicts the known answer; empty if none."""
        if code != 0:
            return [f"exit code {code}"]
        report = json.loads(report_text)
        if report.get("passed") is not True:
            failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
            return [f"checks failed: {failed}"]
        return self._check(report, size or self.size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("end-iso-qq", "end", "QQ", 3, end_iso_document, _check_end,
                 "end.duality_isomorphism"),
        Workload("roundtrip-regular-gf", "roundtrip", "GF(2^31-1)", 3,
                 roundtrip_regular_document, _check_roundtrip,
                 "reconstruct.comodule_hom_span"),
        Workload("bialgebra-grading-qq", "bialgebra", "QQ", 24, grading_document,
                 _check_bialgebra, "tensor.validate_tensor"),
    )
}
