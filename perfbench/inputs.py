"""Benchmark inputs, built without any code from the package under test.

A uniform random parking function of length n-1 comes from Pollak's
cyclic-shift argument (Foata & Riordan, Aequationes Math. 10, 1974): of the
n cyclic shifts of a sequence in Z_n^(n-1), exactly one is a parking
function, so drawing the sequence uniformly and taking that shift is
uniform over the n^(n-2) parking functions.
"""

from __future__ import annotations

import random


def is_parking(values) -> bool:
    """Sorted values satisfy v_(k) <= k (1-based) and lie in 1..len+1."""
    length = len(values)
    counts = [0] * (length + 2)
    for v in values:
        if not 1 <= v <= length:
            return False
        counts[v] += 1
    seen = 0
    for k in range(1, length + 1):
        seen += counts[k]
        if seen < k:
            return False
    return True


def pollak_shift(n: int, seq) -> tuple:
    """The unique parking function among the cyclic shifts of seq in Z_n^(n-1).

    Shifting by s sends x to (x - s) mod n, then to 1..n.  With
    d[v] = #{x = v} - 1 the prefix sums of d over the shifted order must stay
    non-negative until the total of -1 at the end; the cycle lemma says the
    one start that works is just after the first minimum of the prefix sums.
    """
    if len(seq) != n - 1 or not all(0 <= x < n for x in seq):
        raise ValueError(f"expected {n - 1} values in 0..{n - 1}")
    counts = [0] * n
    for x in seq:
        counts[x] += 1
    prefix, low, first_min = 0, None, 0
    for v in range(n):
        prefix += counts[v] - 1
        if low is None or prefix < low:
            low, first_min = prefix, v
    start = (first_min + 1) % n
    values = tuple((x - start) % n + 1 for x in seq)
    if not is_parking(values):
        raise ArithmeticError(f"cyclic shift by {start} is not a parking function")
    return values


def random_parking(n: int, rng: random.Random) -> tuple:
    """A uniform random parking function of length n-1, values in 1..n-1."""
    return pollak_shift(n, [rng.randrange(n) for _ in range(n - 1)])


def structured_parking(n: int) -> dict:
    """The three fixed shapes: all ones, increasing and decreasing."""
    return {
        "ones": (1,) * (n - 1),
        "increasing": tuple(range(1, n)),
        "decreasing": tuple(range(n - 1, 0, -1)),
    }
