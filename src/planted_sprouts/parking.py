"""Play sequences <-> parking functions of length n-1.

Each move contributes the smaller of the two labels immediately
counterclockwise of the joined arms, read inside the subgame the move was
made in.  The resulting value sequences are exactly the parking functions,
and the map is invertible move by move.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import ge

from .game import PlaySequence, _ccw_pairs, _made, _order


def is_parking_function(n: int, values) -> bool:
    """An int order, length n-1, integer entries in 1..n-1, and sorted entries
    satisfy a'_k <= k, which holds iff for every k at least k entries are at
    most k: read from the counts of the values, in O(n)."""
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)):
        return False
    try:
        values = tuple(values)
    except TypeError:
        return False
    m = len(values)
    if m != n - 1 or not all(map(isinstance, values, repeat(int))):
        return False
    count = [0] * (m + 1)
    for v in values:
        if not 0 < v <= m:
            return False
        count[v] += 1
    return all(map(ge, accumulate(count), range(m + 1)))


@dataclass(frozen=True)
class ParkingFunction:
    n: int
    values: tuple

    def __post_init__(self):
        _order(self.n)
        try:
            values = self.values if type(self.values) is tuple else tuple(self.values)  # read once
        except TypeError:  # not iterable: no parking function
            values = None
        if not is_parking_function(self.n, values):
            raise ValueError(f"not a parking function of length {self.n - 1}: {self.values}")
        if bool in map(type, values):  # accepted as 0 < True <= m, stored as ints
            values = tuple(map(int, values))
        if values is not self.values:  # a tuple, so equal functions compare and hash alike
            object.__setattr__(self, "values", values)


def game_to_parking(play: PlaySequence) -> ParkingFunction:
    """The k-th value is the min of the k-th move's counterclockwise pair:
    a tuple of int labels, checked as a parking function."""
    values = tuple([a for a, _ in _ccw_pairs(play)])
    if not is_parking_function(play.n, values):
        raise ValueError(f"not a parking function of length {play.n - 1}: {values}")
    return _made(ParkingFunction, play.n, "values", values)


def parking_to_game(pf: ParkingFunction) -> PlaySequence:
    """The unique play whose parking values are the given function, move by move.

    With left[x] the number of values still to come that equal x, value v
    joins i = nxt[v] to j = nxt[x], where x is the first arm clockwise from
    i at which the running sum of left - 1 reaches -1: the arms i..x are the
    side the move cuts off, and their own values fill it like a parking
    function.  For a parking function the walk never returns to v.  The
    join's ccw neighbours are v and x, so it swaps their successors.  The
    labels i and j are read from nxt, so each move is a pair of int labels
    in 1..n once it is sorted and i != j.
    """
    n = pf.n
    nxt = [0, *range(2, n + 1), 1]
    left = [0] * (n + 1)
    for v in pf.values:
        left[v] += 1
    moves = []
    for v in pf.values:
        left[v] -= 1
        i = x = nxt[v]
        total = left[x] - 1
        while total != -1:
            x = nxt[x]
            total += left[x] - 1
        j = nxt[x]
        nxt[v], nxt[x] = j, i
        if i == j:
            raise ValueError(f"move {i}-{i} is not a pair of distinct labels in 1..{n}")
        moves.append((i, j) if i < j else (j, i))
    return _made(PlaySequence, n, "moves", tuple(moves))
