"""Shared cached fixtures and input strategies for the test suite.

Enumerations at a given order are reused by many tests; cache them once per
session.
"""

from functools import lru_cache

from hypothesis import strategies as st

from planted_sprouts import (
    ParkingFunction,
    endstate_to_tree,
    enumerate_games,
    enumerate_noncrossing_trees,
    parking_to_game,
    replay,
)


@lru_cache(maxsize=None)
def all_plays(n):
    return tuple(enumerate_games(n))


@lru_cache(maxsize=None)
def all_trees(n):
    return tuple(enumerate_noncrossing_trees(n))


def signature_of(play):
    return frozenset(tuple(sorted(arc)) for arc in play.moves)


def pollak_shift(n, seq):
    """The one cyclic shift of seq (n-1 values in 0..n-1) that is a parking
    function, by Pollak's argument (Foata & Riordan, Aequationes Math. 10,
    1974): park car x at the first free spot from x around a circle of n
    spots; one spot e stays empty, and renumbering the spots so that e is
    spot n leaves a parking function."""
    taken = [False] * n
    for x in seq:
        while taken[x]:
            x = (x + 1) % n
        taken[x] = True
    empty = taken.index(False)
    return tuple((x - empty - 1) % n + 1 for x in seq)


@st.composite
def parking_functions(draw, max_n):
    """(n, values) with n in 1..max_n and values a uniform random parking
    function of length n-1, given n."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rng = draw(st.randoms(use_true_random=False))
    return n, pollak_shift(n, [rng.randrange(n) for _ in range(n - 1)])


def tree_of(n, values):
    """The endstate tree of the play a parking function encodes."""
    return endstate_to_tree(replay(parking_to_game(ParkingFunction(n, values))))


class SerialPool:
    """Stands in for ProcessPoolExecutor: maps in this process, in order."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)
