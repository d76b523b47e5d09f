"""Shared cached fixtures and input strategies for the test suite.

Enumerations at a given order are reused by many tests; cache them once per
session.
"""

import bisect
import itertools
import random
from concurrent.futures import Future
from functools import lru_cache

from hypothesis import strategies as st

from planted_sprouts import (
    GameState,
    IllegalMoveError,
    MoveRecord,
    ParkingFunction,
    PlaySequence,
    endstate_to_tree,
    enumerate_games,
    enumerate_noncrossing_trees,
    parking_to_game,
    replay,
)
from planted_sprouts.game import _made


@lru_cache(maxsize=None)
def all_plays(n):
    return tuple(enumerate_games(n))


@lru_cache(maxsize=None)
def all_trees(n):
    return tuple(enumerate_noncrossing_trees(n))


def pollak_shift(n, seq):
    """The one cyclic shift of seq (n-1 values in 0..n-1) that is a parking
    function, by Pollak's argument (Foata & Riordan, Aequationes Math. 10,
    1974): park car x at the first free spot from x around a circle of n
    spots; one spot e stays empty, and renumbering the spots so that e is
    spot n leaves a parking function.  free[x] is x while spot x is free and
    otherwise leads on to the first free spot after it; paths are halved as
    they are followed, so the cars park in about linear time."""
    free = list(range(n))
    for x in seq:
        while free[x] != x:
            free[x] = free[free[x]]
            x = free[x]
        free[x] = (x + 1) % n
    empty = next(x for x in range(n) if free[x] == x)
    return tuple((x - empty - 1) % n + 1 for x in seq)


def initial_state(n):
    """The state of the play with no moves: one region, arms 1..n clockwise."""
    return replay(PlaySequence(n, ()))


def apply_move(state: GameState, subgame_index: int, p: int, q: int) -> GameState:
    """The reference fold that `replay` must match, once re-listed by
    `canonical_state`: join the arms at positions p < q of one subgame,
    splitting it in two.

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
    arc = (min(i, j), max(i, j))
    if any(rec.arc_label == arc for rec in state.history):
        raise IllegalMoveError(len(state.history), f"arc {arc[0]}-{arc[1]} repeats an earlier arc")
    a, b = sg[(p - 1) % m][0], sg[(q - 1) % m][0]
    ccw = (min(a, b), max(a, b))
    side_a = ((i, (long_i, long_j)),) + sg[p + 1 : q]
    side_b = ((j, (long_j, long_i)),) + sg[q + 1 :] + sg[:p]
    subgames = (
        state.subgames[:subgame_index] + (side_a, side_b) + state.subgames[subgame_index + 1 :]
    )
    record = MoveRecord(arc_label=arc, ccw_pair=ccw, long_pair=(long_i, long_j))
    return GameState(n=state.n, subgames=subgames, history=state.history + (record,))


def short_of(long):
    """The short label of an arm with this long label: a new arm's long label
    is its old one paired with the other arm's, so first entries lead back to
    the original arm."""
    while not isinstance(long, int):
        long = long[0]
    return long


def canonical_state(state: GameState) -> GameState:
    """`state` in the layout `replay` gives: its regions in increasing order
    of least short label, each rotated to start at that label, and each move's
    `long_pair` in the order of its arc label."""
    subgames = []
    for sg in state.subgames:
        p = sg.index(min(sg))  # short labels differ, so min compares no long label
        subgames.append(sg[p:] + sg[:p])
    history = tuple(
        rec if short_of(rec.long_pair[0]) == rec.arc_label[0]
        else MoveRecord(rec.arc_label, rec.ccw_pair, rec.long_pair[::-1])
        for rec in state.history
    )
    return GameState(n=state.n, subgames=tuple(sorted(subgames)), history=history)


def locate_labels(state: GameState) -> dict:
    """Map short label -> (subgame index, position).  Labels are globally unique."""
    loc = {}
    for si, sg in enumerate(state.subgames):
        for pos, (short, _) in enumerate(sg):
            loc[short] = (si, pos)
    return loc


def fold_play(play: PlaySequence) -> GameState:
    """The state after `play` by the `apply_move` fold from the initial state,
    in the layout `replay` gives; the play must be legal."""
    state = GameState(play.n, (tuple((k, k) for k in range(1, play.n + 1)),), ())
    for i, j in play.moves:
        loc = locate_labels(state)
        (si, p), (sj, q) = loc[i], loc[j]
        assert si == sj, (play, i, j)
        state = apply_move(state, si, min(p, q), max(p, q))
    return canonical_state(state)


def reference_is_noncrossing_tree(n, edges) -> bool:
    """The tree check read off its definition, with no sort and no sweep:
    n-1 distinct pairs i < j of labels in 1..n, no two of them crossing
    (a < c < b < d, or the mirror case c < a < d < b), and every vertex
    reached from vertex 1 by a depth-first search."""
    edges = list(edges)
    if len(set(edges)) != len(edges) or len(edges) != n - 1:
        return False
    if not all(1 <= a < b <= n for a, b in edges):
        return False
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if a < c < b < d or c < a < d < b:
            return False
    adjacent = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, stack = {1}, [1]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def cycle_count(perm: tuple) -> int:
    """The number of cycles of a permutation given as an image tuple,
    perm[x-1] the image of x: the reference for the split walk."""
    seen = set()
    count = 0
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        count += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x - 1]
    return count


@st.composite
def parking_functions(draw, max_n):
    """(n, values) with n in 1..max_n and values a uniform random parking
    function of length n-1, given n."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    return n, pollak_shift(n, [rng.randrange(n) for _ in range(n - 1)])


def tree_of(n, values):
    """The endstate tree of the play a parking function encodes."""
    return endstate_to_tree(replay(parking_to_game(ParkingFunction(n, values))))


class SerialPool:
    """Stands in for ProcessPoolExecutor: runs each call in this process, in
    order, as it is submitted."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def walk_parking_to_game(pf: ParkingFunction) -> PlaySequence:
    """The reference that `parking_to_game` must match on parking functions:
    each move walks clockwise from i = nxt[v] over the whole side it cuts off,
    to the first arm x at which the running sum of need reaches -1."""
    n = pf.n
    nxt = [0, *range(2, n + 1), 1]
    need = [-1] * (n + 1)
    for v in pf.values:
        need[v] += 1
    moves = []
    for v in pf.values:
        need[v] -= 1
        i = x = nxt[v]
        total = need[x]
        while total != -1:
            x = nxt[x]
            total += need[x]
        j = nxt[x]
        nxt[v], nxt[x] = j, i
        moves.append((i, j) if i < j else (j, i))
    return PlaySequence(n, tuple(moves))


def value_families(n):
    """Structured parking functions of order n, by name, on which
    `walk_parking_to_game` is quadratic (increasing, and (n-1)//2 ones then
    increasing) or linear (ones, decreasing)."""
    h = (n - 1) // 2
    return {
        "increasing": tuple(range(1, n)),
        "ones": (1,) * (n - 1),
        "decreasing": tuple(range(n - 1, 0, -1)),
        "ones-then-increasing": (1,) * h + tuple(range(h + 1, n)),
    }


def tree_families(n):
    """Noncrossing trees on n vertices, by name, as edge lists: the star from
    1, the path along the circle, the zigzag path 1, n, 2, n-1, 3, ..., and
    the comb, a spine 1, 3, 5, ... with each even vertex a tooth on the odd
    vertex before it."""
    zigzag = [k for pair in zip(range(1, n + 1), range(n, 0, -1)) for k in pair][:n]
    return {
        "star": [(1, k) for k in range(2, n + 1)],
        "path": [(k, k + 1) for k in range(1, n)],
        "zigzag": [(min(a, b), max(a, b)) for a, b in zip(zigzag, zigzag[1:])],
        "comb": [(k, k + 2) for k in range(1, n - 1, 2)] + [(k - 1, k) for k in range(2, n + 1, 2)],
    }


def stack_tree_to_canonical_game(tree) -> PlaySequence:
    """The reference that `tree_to_canonical_game` must match at any n: the
    same canonical play, each side of a move pushed on an explicit stack,
    empty sides too, with ccw lists sorted afresh here.  Keys are the negated
    smaller ends of a side's primary edges, ascending, least edge last; one
    bisect at -j parts the keys above j (side b) from those in (i, j)."""
    n = tree.n
    nb = [[] for _ in range(n + 1)]
    for i, j in tree.edges:
        nb[i].append(j)
        nb[j].append(i)
    for v, vs in enumerate(nb):
        vs.sort(key=lambda w: (v - w) % n)  # v-1, v-2, ..., 1, n, ..., v+1
    first = [0] * (n + 1)  # nb[v][first[v]] is v's first unplayed neighbour
    moves = []
    stack = [(1, sorted(-v for v, vs in enumerate(nb) if vs and v < vs[0] and nb[vs[0]][0] == v))]
    while stack:
        low, keys = stack.pop()
        if not keys:
            continue
        i = -keys.pop()
        j = nb[i][first[i]]
        moves.append((i, j))
        first[i] += 1
        first[j] += 1
        k = bisect.bisect_left(keys, -j)
        a, b = keys[k:], keys[:k]
        for v, side in ((i, a), (j, b)):
            if first[v] < len(nb[v]):
                w = nb[v][first[v]]
                if nb[w][first[w]] == v:
                    bisect.insort(side, -min(v, w))
        stack += ((j, b), (i, a)) if low == i else ((i, a), (low, b))
    return PlaySequence(n, tuple(moves))


def level_linear_extensions(poset):
    """The reference that `linear_extensions` must match, with every level
    tested, the last edge's too: all total orders of the tree's edges
    extending the cover relation, in lexicographic order, level by level.
    Edge k of the sorted edges is bit k and need[k] holds the bits of its
    lower covers, so it can come next iff the placed bits, masked to bit k
    and need[k], are exactly need[k]."""
    edges = sorted(poset.tree.edges)
    index = {e: k for k, e in enumerate(edges)}
    need = [0] * len(edges)
    for a, b in poset.covers:
        need[index[b]] |= 1 << index[a]
    steps = [(e, 1 << k, need[k] | 1 << k, need[k]) for k, e in enumerate(edges)]
    orders = [((), 0)]  # (order so far, bits of its edges)
    for _ in edges:
        orders = [
            (order + (e,), placed | bit)
            for order, placed in orders
            for e, bit, mask, req in steps
            if placed & mask == req
        ]
    return [order for order, _ in orders]


def stack_games_with_endstate(tree):
    """The reference that `games_with_endstate` must match, which tests
    every unplayed arc at every prefix and plays the last arc alone: all
    legal plays whose arc set is the tree's edges, by the game rules alone
    (no covers), depth first with unplayed arcs in lexicographic order.
    Moves only split regions, so a prefix that parts the ends of an unplayed
    arc is pruned, and at any other prefix every unplayed arc is legal.

    Regions are cycles of successor arrays, as in `game._joins`: joining x
    and y stores nxt[prv[x]] = y and nxt[prv[y]] = x, so x's new region is
    the run x, nxt[x], ... up to the arm before y, read before the join.
    Arc k of the sorted edges is bit k of `unplayed`, and incident[v] holds
    the bits of the arcs at v.  An unplayed arc other than k is cut iff
    exactly one of its ends lies in that run, which is iff its bit is set in
    the XOR of incident[] over the run; arc k's own bit is set there and is
    not tested.  So a pruned arc costs one walk and no join.  A surviving
    arc is joined only if arcs are left after it, and the backtrack undoes
    it with the same join.

    The walk ends.  At every surviving prefix every unplayed arc lies in one
    region, for any edge set, so the run from x meets y within that region's
    length; if it came back to x instead, a prune was missed, and it raises
    RuntimeError rather than loop.  An explicit stack of played arcs replaces
    the recursion, never deeper than the edge count: undoing the last arc k
    resumes its stage at arc k+1, and a stage's k only rises.  Every move is
    one of the tree's edges, already a sorted pair of int labels."""
    n, edges = tree.n, sorted(tree.edges)
    if not edges:
        return [_made(PlaySequence, n, "moves", ())]
    nxt, prv = [1, *range(2, n + 1), 1], [n, n, *range(1, n)]
    incident = [0] * (n + 1)
    for k, (x, y) in enumerate(edges):
        incident[x] |= 1 << k
        incident[y] |= 1 << k
    out, path, played = [], [], []  # plays found, arcs played, their bits
    unplayed, k = (1 << len(edges)) - 1, 0
    while True:
        if unplayed >> k:  # an unplayed arc at k or above
            if not unplayed >> k & 1:
                k += 1
                continue
            x, y = arc = edges[k]
            cut, z = incident[x], nxt[x]
            while z != y:
                if z == x:
                    raise RuntimeError(f"arc {x}-{y} lies across two regions")
                cut ^= incident[z]
                z = nxt[z]
            rest = unplayed ^ 1 << k
            if cut & rest or not rest:
                if not rest:
                    out.append(_made(PlaySequence, n, "moves", (*path, arc)))
                k += 1
                continue
            path.append(arc)
            played.append(k)
            unplayed, k = rest, 0
        elif played:
            x, y = path.pop()
            k = played.pop()
            unplayed |= 1 << k
            k += 1
        else:
            return out
        a, b = prv[x], prv[y]  # join x and y, or undo their join
        nxt[a], nxt[b] = y, x
        prv[x], prv[y] = b, a
