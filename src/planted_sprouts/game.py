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
unordered label pairs.
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
    move, so the pair is recorded eagerly), and the joined arms' long labels.
    """

    arc_label: frozenset
    ccw_pair: frozenset
    long_pair: tuple


@dataclass(frozen=True)
class GameState:
    n: int
    subgames: tuple  # tuple of subgames; each subgame is a tuple of (short, long) arms
    history: tuple  # tuple of MoveRecord

    def is_complete(self) -> bool:
        return all(len(sg) == 1 for sg in self.subgames)


@dataclass(frozen=True)
class PlaySequence:
    """An ordered list of unordered short-label pairs (arc labels).

    Because short labels are globally unique at every state, this compact
    form determines the entire state evolution, long labels included.
    """

    n: int
    moves: tuple  # tuple of frozensets of size 2

    @classmethod
    def of(cls, n: int, pairs) -> "PlaySequence":
        moves = []
        for pair in pairs:
            a, b = sorted(pair)
            if not (isinstance(a, int) and isinstance(b, int)):
                raise ValueError(f"move labels must be integers, got {pair!r}")
            if a == b or not (1 <= a <= n) or not (1 <= b <= n):
                raise ValueError(f"move {a}-{b} is not a pair of distinct labels in 1..{n}")
            moves.append(frozenset((a, b)))
        return cls(n=n, moves=tuple(moves))


def new_game(n: int) -> GameState:
    """Initial state: one subgame with arms 1..n in clockwise order."""
    if n < 1:
        raise ValueError(f"game order must be positive, got {n}")
    subgame = tuple((k, k) for k in range(1, n + 1))
    return GameState(n=n, subgames=(subgame,), history=())


def legal_moves(state: GameState):
    """All (subgame index, (p, q)) position pairs; empty iff the state is complete."""
    out = []
    for si, sg in enumerate(state.subgames):
        m = len(sg)
        for p in range(m):
            for q in range(p + 1, m):
                out.append((si, (p, q)))
    return out


def apply_move(state: GameState, subgame_index: int, p: int, q: int) -> GameState:
    """Join the arms at positions p < q of one subgame, splitting it in two.

    With joined arms carrying short labels i, j and long labels L_i, L_j,
    the two replacement subgames are (new arm i, arms strictly between p
    and q) and (new arm j, the remaining arms in cyclic order).  The new
    arms' long labels are (L_i, L_j) and (L_j, L_i).
    """
    if not 0 <= subgame_index < len(state.subgames):
        raise ValueError(f"no subgame with index {subgame_index}")
    sg = state.subgames[subgame_index]
    m = len(sg)
    if not (0 <= p < q < m):
        raise ValueError(f"positions must satisfy 0 <= p < q < {m}, got p={p} q={q}")
    i, long_i = sg[p]
    j, long_j = sg[q]
    arc = frozenset((i, j))
    if any(rec.arc_label == arc for rec in state.history):
        raise IllegalMoveError(
            len(state.history), f"arc {min(i, j)}-{max(i, j)} repeats an earlier arc"
        )
    ccw = frozenset((sg[(p - 1) % m][0], sg[(q - 1) % m][0]))
    side_a = ((i, (long_i, long_j)),) + sg[p + 1 : q]
    side_b = ((j, (long_j, long_i)),) + sg[q + 1 :] + sg[:p]
    subgames = (
        state.subgames[:subgame_index] + (side_a, side_b) + state.subgames[subgame_index + 1 :]
    )
    record = MoveRecord(arc_label=arc, ccw_pair=ccw, long_pair=(long_i, long_j))
    return GameState(n=state.n, subgames=subgames, history=state.history + (record,))


def locate_labels(state: GameState) -> dict:
    """Map short label -> (subgame index, position).  Labels are globally unique."""
    loc = {}
    for si, sg in enumerate(state.subgames):
        for pos, (short, _) in enumerate(sg):
            loc[short] = (si, pos)
    return loc


class _Arms:
    """A game's arms in successor arrays, index 0 unused.

    nxt[x] is the arm clockwise after x in its region and prv[x] the one
    before, so each region is a cycle of nxt, starting from k -> k+1 (mod n).
    Joining arms i and j swaps the successors of their ccw neighbours
    a = prv[i] and b = prv[j]: the transposition (a b), which splits the
    cycle in two.  The ccw pair is read there only, and joining i and j again
    undoes the move.  region[x] is a region id, kept by `move` relabelling
    the smaller side of each split: O(n log n) over a play.
    """

    __slots__ = ("nxt", "prv", "region", "regions")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"game order must be positive, got {n}")
        self.nxt = [1] + list(range(2, n + 1)) + [1]
        self.prv = [n, n] + list(range(1, n))
        self.region, self.regions = [0] * (n + 1), 1

    def join(self, i: int, j: int):
        """Join arms i and j of one region; return their ccw pair, sorted."""
        nxt, prv = self.nxt, self.prv
        a, b = prv[i], prv[j]
        nxt[a], nxt[b] = j, i
        prv[i], prv[j] = b, a
        return (a, b) if a < b else (b, a)

    def move(self, i: int, j: int):
        """`join`, then give the smaller new region the next region id."""
        pair, nxt = self.join(i, j), self.nxt
        x, y = nxt[i], nxt[j]
        while x != i and y != j:
            x, y = nxt[x], nxt[y]
        for x in self.cycle(i if x == i else j):
            self.region[x] = self.regions
        self.regions += 1
        return pair

    def cycle(self, x: int) -> list:
        """The arms of x's region, clockwise from x."""
        out, y = [x], self.nxt[x]
        while y != x:
            out.append(y)
            y = self.nxt[y]
        return out

    def play(self, play: PlaySequence):
        """Make a play's moves, yielding each one's labels i < j and ccw pair.
        Raises IllegalMoveError with the index of the first bad move if a pair
        repeats or its two labels sit in different subgames at its turn."""
        seen = set()
        for index, arc in enumerate(play.moves):
            i, j = sorted(arc)
            if arc in seen:
                raise IllegalMoveError(index, f"arc {i}-{j} repeats an earlier arc")
            if self.region[i] != self.region[j]:
                raise IllegalMoveError(index, f"labels {i} and {j} lie in different subgames")
            seen.add(arc)
            yield (i, j) + self.move(i, j)


def _ccw_pairs(play: PlaySequence) -> tuple:
    """The sorted ccw pair of every move of a complete legal play."""
    if len(play.moves) < play.n - 1:  # before any array of size n; a longer play fails at move n
        raise ValueError("play is not complete")
    return tuple(step[2:] for step in _Arms(play.n).play(play))


def _walk_plays(n: int, first_arc=None):
    """Every complete play of order n as (arcs, ccw pairs), each a tuple of
    sorted pairs, depth first with arcs in lexicographic order at each stage.
    `first_arc` prunes the root to one move.  A region's labels increase
    clockwise but for one descent, so the arcs (x, y), y > x, open at x are
    nxt[x], nxt[nxt[x]], ... while above x."""
    arms = _Arms(n)
    nxt, join = arms.nxt, arms.join
    root = None if first_arc is None else tuple(first_arc)
    path, pairs = [], []

    def rec():
        if len(path) == n - 1:
            yield tuple(path), tuple(pairs)
            return
        for x in range(1, n + 1):
            y = nxt[x]
            while y > x:
                arc = (x, y)
                if path or root is None or arc == root:
                    pairs.append(join(x, y))
                    path.append(arc)
                    yield from rec()
                    path.pop()
                    pairs.pop()
                    join(x, y)
                y = nxt[y]

    return rec()


def replay(play: PlaySequence) -> GameState:
    """Replay a play from the initial state; equal to the apply_move fold,
    and raises IllegalMoveError at the first bad move (see `_Arms.play`).

    The moves run on `_Arms` and the state is built once, at the end.  Of a
    split region, the side whose joined arm comes first from the region's
    head keeps the region's slot in the subgame order, the other side takes
    a new slot after it, and each side's head is its joined arm.
    """
    arms = _Arms(play.n)
    region = arms.region
    long = list(range(play.n + 1))
    slot = [0]  # each region id's slot
    head, after = [1], [None]  # each slot's first arm and the slot after it
    history = []
    for i, j, a, b in arms.play(play):
        s = slot[region[j] if region[i] == len(slot) else region[i]]
        h = head[s]
        first = i if h == i or (region[h] == region[j] and h != j) else j
        second = i + j - first
        pair = long[first], long[second]
        long[first], long[second] = pair, pair[::-1]
        history.append(MoveRecord(frozenset((i, j)), frozenset((a, b)), pair))
        slot.append(None)
        slot[region[first]], slot[region[second]] = s, len(head)
        head.append(second)
        after.append(after[s])
        head[s], after[s] = first, len(head) - 1
    subgames, s = [], 0
    while s is not None:
        subgames.append(tuple((x, long[x]) for x in arms.cycle(head[s])))
        s = after[s]
    return GameState(n=play.n, subgames=tuple(subgames), history=tuple(history))


def endstate_signature(state: GameState) -> frozenset:
    """The set of n-1 arc labels of a complete game."""
    if not state.is_complete():
        raise ValueError("state is not complete; some subgame still has two or more arms")
    signature = frozenset(rec.arc_label for rec in state.history)
    if len(signature) != state.n - 1:
        raise ValueError(
            f"history has {len(signature)} distinct arc labels; "
            f"a complete game of order {state.n} has {state.n - 1}"
        )
    return signature
