"""Play sequences <-> parking functions of length n-1.

Each move contributes the smaller of the two labels immediately
counterclockwise of the joined arms, read inside the subgame the move was
made in.  The resulting value sequences are exactly the parking functions,
and the map is invertible move by move.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, le

from .game import PlaySequence, _ccw_pairs, _made, _order


def _parking_values(n: int, values):
    """`values` read once, as the tuple of ints `ParkingFunction` stores, if
    they are a parking function of order n, an int; else None.  The one
    predicate pass: length n-1, int entries (bools and other int subclasses
    come back as ints), and sorted, 1 <= a'_1 and a'_k <= k."""
    try:
        values = values if type(values) is tuple else tuple(values)
    except TypeError:  # not iterable: no parking function
        return None
    if len(values) != n - 1:
        return None
    if not set(map(type, values)) <= {int}:
        if not all(isinstance(v, int) for v in values):
            return None
        values = tuple(map(int, values))
    rising = sorted(values)
    return values if n < 2 or rising[0] > 0 and all(map(le, rising, range(1, n))) else None


def is_parking_function(n: int, values) -> bool:
    """An int order, length n-1, integer entries in 1..n-1, and sorted entries
    satisfy a'_k <= k: False exactly where `ParkingFunction` raises, by the
    same one pass, in O(n log n)."""
    if isinstance(n, bool) or not isinstance(n, int):
        return False
    return _parking_values(n, values) is not None


@dataclass(frozen=True)
class ParkingFunction:
    n: int
    values: tuple

    def __post_init__(self):
        _order(self.n)
        values = _parking_values(self.n, self.values)
        if values is None:
            raise ValueError(f"not a parking function of length {self.n - 1}: {self.values}")
        if values is not self.values:  # a tuple of ints, so equal functions compare and hash alike
            object.__setattr__(self, "values", values)


def game_to_parking(play: PlaySequence) -> ParkingFunction:
    """The k-th value is the min of the k-th move's counterclockwise pair:
    n-1 int labels in 1..n-1, so only a'_k <= k is checked."""
    values = tuple(map(itemgetter(0), _ccw_pairs(play)))
    if not all(map(le, sorted(values), range(1, play.n))):
        raise ValueError(f"not a parking function of length {play.n - 1}: {values}")
    return _made(ParkingFunction, play.n, "values", values)


def parking_to_game(pf: ParkingFunction) -> PlaySequence:
    """The unique play whose parking values are the given function, move by move.

    With need[x] one less than the number of values still to come that equal
    x, value v joins i = nxt[v] to j = nxt[x], where x is the first arm
    clockwise from i at which the running sum of need reaches -1, and swaps
    the successors of v and x, its ccw neighbours: the arms i..x are the side
    A it cuts off.  The walk ends within a lap on any values in 1..n-1.  Each
    region R holds (as arm labels) at most |R|-1 values to come, and once v is
    taken at most |R|-2, so need sums to <= -2 over R; a step adds >= -1, so
    the sum hits -1 at an x before v.  So x != v and i != j, and A then holds
    exactly |A|-1 values and the other side B at most |B|-1.

    For a parking function, each region read clockwise from its first arm
    (arm 1, or the i of the move that cut it off) is a plane tree's preorder,
    and v cuts off the subtree of its first child left, i.  So a first arm v
    with no value left cuts off all of R but v: x = last[v] is the arm before
    v and j = v, in O(1).  On any values, that A holds at most |A|-1 values,
    as v has none left, B = {v} none, and i != j.
    """
    n = pf.n
    nxt = [0, *range(2, n + 1), 1]
    need = [-1] * (n + 1)
    for v in pf.values:
        need[v] += 1
    last = [0] * (n + 1)  # the arm before each first arm; a move gives i and j new ones
    last[1] = n
    moves = []
    for v in pf.values:
        need[v] -= 1
        i = x = nxt[v]
        if need[v] < 0 and last[v]:  # v opens its region and has no value left
            x, j = last[v], v  # v is left alone, so last[v] is never read again
        else:
            total = need[x]
            while total != -1:
                x = nxt[x]
                total += need[x]
            j = nxt[x]
            if last[j]:
                last[j] = v
        last[i] = x
        nxt[v], nxt[x] = j, i
        moves.append((i, j) if i < j else (j, i))
    return _made(PlaySequence, n, "moves", tuple(moves))
