"""Host-speed reference: rescales solve times measured on a shared machine.

On a host shared with other tenants the same computation can take 25%
longer from one half-minute to the next, and 15% longer from one instance
to the next, because neighbours contend for the physical cores.  So
``run.py`` times a fixed reference computation just before every instance,
and a run reports each instance's wall time rescaled to a host on which
the reference takes ``NOMINAL_S``:

    rescaled = wall time * NOMINAL_S / median(reference times just
               before this instance and just before the next one)

The reference is exact elimination over Fractions and over integers mod
a prime, the same kind of interpreted arithmetic that coendcalc does.  It
uses no coendcalc code and runs in ``run.py``'s process, after a garbage
collection, before the instance's worker starts.  So it shares no heap
with coendcalc, and no change to the program can move it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.035
PRIME = 2**31 - 1
SIZE = 20


def _eliminate(rows: list, inv, reduce):
    n = len(rows)
    for c in range(n):
        r = next((r for r in range(c, n) if rows[r][c]), None)
        if r is None:
            continue
        rows[c], rows[r] = rows[r], rows[c]
        pivot = inv(rows[c][c])
        rows[c] = [reduce(x * pivot) for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [reduce(x - f * y) for x, y in zip(rows[r], rows[c])]
    return rows


def reference():
    """The fixed computation; about NOMINAL_S seconds on the nominal host."""
    n = SIZE
    rational = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + 13 * (i == j) for j in range(n)]
        for i in range(n)
    ]
    _eliminate(rational, lambda x: 1 / x, lambda x: x)
    modular = [[(i * 31 + j * 17) % PRIME for j in range(3 * n)] for i in range(3 * n)]
    _eliminate(modular, lambda x: pow(x, -1, PRIME), lambda x: x % PRIME)


def sample(reps: int) -> list:
    """Wall times of ``reps`` reference runs, in seconds."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return times
