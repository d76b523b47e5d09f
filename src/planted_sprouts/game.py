"""Exact state machine for the planted sprouts game.

A game of order n starts with arms labeled 1..n attached clockwise to the
inside of a circle.  A move joins two arms of one region with an arc and
sprouts two new arms from a notch on the arc, splitting the region in two.
The game always lasts exactly n-1 moves.

States are purely combinatorial: a subgame is the cyclic sequence of arms
of one region, and every arm carries a short label (1..n) plus a long label
recording its full ancestry.  Long labels are either an int (an original
arm) or a nested pair of long labels.  Short labels are globally unique at
every stage, which is what lets a play be serialized as a bare sequence of
label pairs.  Every arc, arc label and ccw pair is a sorted tuple (i, j)
with i < j, the same form as tree edges, poset covers and transpositions.
"""

from __future__ import annotations

from dataclasses import dataclass


class IllegalMoveError(ValueError):
    """A move in a play sequence cannot be applied to the current state."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"illegal move at index {index}: {reason}")
        self.index = index
        self.reason = reason


@dataclass(frozen=True)
class MoveRecord:
    """One move: its arc label, the counterclockwise-neighbor pair captured
    in the subgame the move was made in (that subgame is destroyed by the
    move, so the pair is recorded eagerly), and the long labels of arms i, j.
    The arc label and the ccw pair are sorted pairs (i, j), i < j.
    """

    arc_label: tuple
    ccw_pair: tuple
    long_pair: tuple


@dataclass(frozen=True)
class GameState:
    """Subgames in increasing order of least label, each clockwise from it."""

    n: int
    subgames: tuple  # tuple of subgames; each subgame is a tuple of (short, long) arms
    history: tuple  # tuple of MoveRecord

    def is_complete(self) -> bool:
        return all(map((1).__eq__, map(len, self.subgames)))


def _order(n) -> None:
    """The one check of a game order: an int, not a bool, and at least 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"game order must be positive, got {n!r}")


def _pairs(n: int, pairs, noun: str) -> tuple:
    """`pairs`, each of two integer labels a < b in 1..n, as a tuple of int
    tuple pairs, so equal values compare and hash alike: the one check of the
    sorted-pair form of moves, transpositions and tree edges.  A tuple of int
    tuple pairs comes back as the same object; a list or a generator is read
    once, and bool labels are stored as ints.  `noun` names an entry in the
    ValueError."""
    _order(n)
    canonical = type(pairs) is tuple
    if not canonical:
        try:
            pairs = tuple(pairs)
        except TypeError:
            raise ValueError(f"{noun}s must be an iterable of pairs, got {pairs!r}") from None
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ValueError(f"{noun} {pair!r} is not a pair of labels") from None
        if type(a) is not int or type(b) is not int:
            if not (isinstance(a, int) and isinstance(b, int)):
                raise ValueError(f"{noun} labels must be integers, got {pair!r}")
            canonical = False  # bools and other int subclasses, stored as ints
        if not 1 <= a < b <= n:
            shape = "sorted pair of labels" if b < a else "pair of distinct labels"
            raise ValueError(f"{noun} {a}-{b} is not a {shape} in 1..{n}")
        canonical = canonical and type(pair) is tuple
    return pairs if canonical else tuple([(int(a), int(b)) for a, b in pairs])


def _sorted(pairs):
    """`pairs` read once, as a list of sorted pairs, or as read if they cannot
    be sorted and as given if not iterable, for `_pairs` to reject."""
    pairs = list(pairs) if hasattr(pairs, "__iter__") else pairs  # a generator, read once
    try:
        return [(b, a) if b < a else (a, b) for a, b in pairs]
    except (TypeError, ValueError):
        return pairs


def _made(cls, n: int, field: str, value):
    """A value object of `cls`, its fields n and `field` put in its instance
    dict without `__post_init__`: the trusted path by which a map builds its
    output.  The map checks in its loop whatever that loop does not guarantee,
    and `value` must be the canonical form the constructor would store (int
    tuple pairs in a tuple or a frozenset, or a tuple of ints)."""
    made = object.__new__(cls)
    fields = made.__dict__
    fields["n"], fields[field] = n, value
    return made


@dataclass(frozen=True)
class PlaySequence:
    """An ordered list of short-label pairs (arc labels), each a sorted
    pair (i, j) with i < j.

    Because short labels are globally unique at every state, this compact
    form determines the entire state evolution, long labels included.
    """

    n: int
    moves: tuple  # of (i, j) tuples with i < j

    def __post_init__(self):
        moves = _pairs(self.n, self.moves, "move")
        if moves is not self.moves:
            object.__setattr__(self, "moves", moves)

    @classmethod
    def of(cls, n: int, pairs) -> "PlaySequence":
        """The play of the given label pairs, each put in sorted order."""
        return cls(n=n, moves=_sorted(pairs))


def _illegal(play: PlaySequence, index: int) -> IllegalMoveError:
    """The error for a move whose labels lie in different regions.  A move
    parts the arms it joins for good, so a repeated arc is always one."""
    arc = i, j = play.moves[index]
    if arc in play.moves[:index]:
        return IllegalMoveError(index, f"arc {i}-{j} repeats an earlier arc")
    return IllegalMoveError(index, f"labels {i} and {j} lie in different subgames")


def _joins(play: PlaySequence) -> tuple:
    """The one move loop of `replay` and the maps: join the moves of `play`
    from the start; return their sorted ccw pairs and the successor arrays.
    nxt[x] is the arm clockwise after x in its region and prv[x] the one
    before (index 0 unused), so each region is a cycle of nxt, at first
    k -> k+1 (mod n).  Joining i and j swaps the successors of their ccw
    neighbours a = prv[i] and b = prv[j], splitting a region or merging two
    (see `enumeration._cycle_steps`); joining them again undoes it.  Then the
    new regions of i and j are walked at once until one closes, so a move
    costs its smaller side, O(n log n) over a play.  A merge leaves i and j on
    one cycle of length L, so x meets j below step L, before either walk
    closes: x == j alone shows a merge, the first illegal move."""
    n, pairs = play.n, []
    nxt, prv = [1, *range(2, n + 1), 1], [n, n, *range(1, n)]
    for i, j in play.moves:
        a, b = prv[i], prv[j]
        nxt[a], nxt[b] = j, i
        prv[i], prv[j] = b, a
        pairs.append((a, b) if a < b else (b, a))
        x, y = nxt[i], nxt[j]
        while x != i and y != j:
            if x == j:
                raise _illegal(play, len(pairs) - 1)
            x, y = nxt[x], nxt[y]
    return tuple(pairs), nxt, prv


def _ccw_pairs(play: PlaySequence) -> tuple:
    """The sorted ccw pair of every move of a complete legal play, by
    `_joins`.  A legal play of n-1 moves leaves one arm in each region, so
    a longer play fails at move n at the latest."""
    if len(play.moves) < play.n - 1:  # before any array of size n
        raise ValueError("play is not complete")
    return _joins(play)[0]


def _walk_plays(n: int, first_arc=None):
    """Every complete play of order n as (arcs, ccw pairs), each a tuple of
    sorted pairs, depth first with arcs in lexicographic order at each stage.
    A region's labels increase clockwise but for one descent, so the arcs
    (x, y), y > x, open at x are nxt[x], nxt[nxt[x]], ... while above x.  The
    scan starts at `first_arc`, or (1, 2), and the path of arcs is the stack:
    undoing its last arc (x, y) resumes the stage below at y's successor.  At
    depth n-2 one region of two arms x < nxt[x] is left: the scan finds the
    last move, whose ccw pair is its own arc.  The walk ends when the scan
    runs out at the root, or once the given first arc is undone."""
    _order(n)
    if n == 1:
        yield (), ()
        return
    x, y = first_arc or (1, 2)
    if not 1 <= x < y <= n:
        return
    nxt, prv = [1, *range(2, n + 1), 1], [n, n, *range(1, n)]  # as in `_joins`
    path, pairs = [], []
    while True:
        if y > x:
            if len(path) < n - 2:
                a, b = prv[x], prv[y]  # join x and y
                nxt[a], nxt[b] = y, x
                prv[x], prv[y] = b, a
                pairs.append((a, b) if a < b else (b, a))
                path.append((x, y))
                x, y = 1, nxt[1]
                continue
            yield (*path, (x, y)), (*pairs, (x, y))
        elif x < n:
            x += 1
            y = nxt[x]
            continue
        if not path:
            return
        x, y = path.pop()
        pairs.pop()
        a, b = prv[x], prv[y]  # the same join undoes it
        nxt[a], nxt[b] = y, x
        prv[x], prv[y] = b, a
        if first_arc and not path:
            return
        y = nxt[y]


def replay(play: PlaySequence) -> GameState:
    """Replay a play from the initial state; raises IllegalMoveError at the
    first move whose labels lie in different regions.

    The moves run through `_joins`, and the state is read off the nxt it
    returns, once: a region's labels increase clockwise from its least one,
    the one k with prv[k] >= k.  A new arm's long label is its old one paired
    with the other arm's.  Once n-1 moves are accepted, each region is one
    arm, so a complete play's regions are read in one zip, without the walk.
    """
    ccws, nxt, prv = _joins(play)
    long, new = list(range(play.n + 1)), object.__new__
    history = []
    for arc, ccw in zip(play.moves, ccws):
        i, j = arc
        pair = li, lj = long[i], long[j]
        long[i], long[j] = pair, (lj, li)
        history.append(record := new(MoveRecord))  # filled as `_made` fills its objects
        fields = record.__dict__
        fields["arc_label"], fields["ccw_pair"], fields["long_pair"] = arc, ccw, pair
    if len(history) == play.n - 1:  # a longer play fails in `_joins`
        return GameState(play.n, tuple(zip(zip(range(1, play.n + 1), long[1:]))), tuple(history))
    subgames = []
    for k in range(1, play.n + 1):
        if prv[k] >= k:
            subgame, x = [(k, long[k])], nxt[k]
            while x != k:
                subgame.append((x, long[x]))
                x = nxt[x]
            subgames.append(tuple(subgame))
    return GameState(n=play.n, subgames=tuple(subgames), history=tuple(history))

