"""Noncrossing trees and their correspondence with game endstates.

A complete game's arc labels form a noncrossing spanning tree on the circle
vertices.  This module holds the tree type, the primary-edge machinery that
drives the correspondence in both directions, an independent enumerator of
noncrossing trees, and the closed-form endstate count.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .game import PlaySequence, _made, _order, _pairs, _sorted


def _ccw_neighbours(n, edges) -> list:
    """nb[v]: v's tree neighbours counterclockwise from v, i.e. in the order
    v-1, v-2, ..., 1, n, ..., v+1 (index 0 unused).  The only place that
    reads counterclockwise order: nb[v][0] is v's first ccw neighbour, an
    edge swings ccw around v onto the next entry, and clockwise onto the
    entry before."""
    nb = [[] for _ in range(n + 1)]
    order = sorted(edges, reverse=True)
    for i, j in order:
        nb[j].append(i)  # lower neighbours first, descending
    for i, j in order:
        nb[i].append(j)  # then the higher ones, descending
    return nb


_last_ccw = (None, None)  # the last tree asked for and its ccw lists


def _tree_ccw(tree) -> list:
    """The tree's ccw lists (see `_ccw_neighbours`), shared by the tree maps:
    a one-entry cache keyed on the tree object, so the maps called in turn on
    one tree build the lists once.  Holding the tree keeps its id from being
    reused, and the tree and its lists are rebound as one tuple, so a reader
    never pairs one tree with another's lists.  No caller may mutate them."""
    global _last_ccw
    held, nb = _last_ccw
    if held is not tree:
        nb = _ccw_neighbours(tree.n, tree.edges)
        _last_ccw = tree, nb
    return nb


def is_noncrossing_tree(n: int, edges) -> bool:
    """True iff the edges form a spanning tree of 1..n with no two chords
    interleaving cyclically: iff `NoncrossingTree.from_edges` accepts them."""
    try:
        NoncrossingTree.from_edges(n, edges)
    except (TypeError, ValueError):  # TypeError: raised by the caller's own iterator
        return False
    return True


@dataclass(frozen=True)
class NoncrossingTree:
    n: int
    edges: frozenset  # of (i, j) tuples with i < j

    def __post_init__(self):
        n, edges, why = self.n, self.edges, ""
        try:
            edges = tuple(edges)  # a list or a generator, read once
            pairs = _pairs(n, edges, "edge")
            kept = type(self.edges) is frozenset and pairs is edges
            stored = self.edges if kept else frozenset(pairs)
            if len(stored) != len(pairs):  # named, as two equal entries are easy to miss
                why = "; an edge is repeated"
            if why or len(pairs) != n - 1:
                raise ValueError("not n-1 distinct edges")
            # Sweep chords by left end, longest first (two stable sorts on C keys),
            # keeping the right ends of the chords around the sweep point, innermost
            # last: a chord crosses one of them iff it ends past the innermost one open.
            ends, order = [], sorted(pairs, key=itemgetter(1), reverse=True)
            order.sort(key=itemgetter(0))
            for a, b in order:
                while ends and ends[-1] <= a:
                    ends.pop()
                if ends and ends[-1] < b:
                    raise ValueError("two edges cross")
                ends.append(b)
            # connected + n-1 distinct edges => tree
            root = list(range(n + 1))  # union-find, halving paths
            for i, j in pairs:
                while root[i] != i:
                    root[i] = i = root[root[i]]
                while root[j] != j:
                    root[j] = j = root[root[j]]
                if i == j:
                    raise ValueError("the edges close a cycle")
                root[i] = j
        except (TypeError, ValueError):  # TypeError: edges not iterable, or an order no int
            if type(edges) is tuple:
                try:
                    edges = sorted(edges)
                except TypeError:  # labels of mixed types are shown as given
                    edges = list(edges)
            raise ValueError(f"not a noncrossing tree on {n} vertices: {edges}{why}") from None
        if stored is not self.edges:
            object.__setattr__(self, "edges", stored)

    @classmethod
    def from_edges(cls, n: int, edges) -> "NoncrossingTree":
        """The tree of the given edges, each pair put in sorted order."""
        return cls(n=n, edges=_sorted(edges))


_INCOMPLETE = "state is not complete; some subgame still has two or more arms"


def endstate_to_tree(state) -> NoncrossingTree:
    """The noncrossing tree whose edges are a complete game's arc labels; the
    constructor tests that they are n-1 distinct edges."""
    if not state.is_complete():
        raise ValueError(_INCOMPLETE)
    return NoncrossingTree(state.n, tuple(map(attrgetter("arc_label"), state.history)))


def _primary(nb) -> list:
    """Primary edges (v, w), v < w, of a tree given by its ccw lists: the
    pairs that are each other's first counterclockwise neighbour."""
    return [(v, w) for v, vs in enumerate(nb) if vs and v < (w := vs[0]) and nb[w][0] == v]


def primary_edges(tree: NoncrossingTree) -> frozenset:
    return frozenset(_primary(_tree_ccw(tree)))


def is_pivotable_clockwise(tree: NoncrossingTree, edge) -> bool:
    """True iff either endpoint of the edge can swing clockwise onto another
    tree edge, i.e. the other endpoint is not its first ccw neighbour.  Edges
    that cannot are exactly the primary ones.  A tree edge given as a tuple
    of two ints is answered at once, any other edge read as `from_edges` reads one."""
    e = edge
    if (type(e) is not tuple or len(e) != 2 or type(e[0]) is not int
            or type(e[1]) is not int or e not in tree.edges):  # the lookup hashes, so types first
        (e,) = _pairs(tree.n, _sorted([edge]), "edge")
        if e not in tree.edges:
            raise ValueError(f"edge {e} is not in the tree")
    nb = _tree_ccw(tree)
    u, v = e
    return nb[u][0] != v or nb[v][0] != u


def find_primary_edge(tree: NoncrossingTree, start: int = 1):
    """Walk v -> first counterclockwise neighbor of v until the step maps back,
    which happens exactly at a primary edge."""
    if tree.n < 2:
        raise ValueError("a tree with fewer than 2 vertices has no edges")
    if isinstance(start, bool) or not isinstance(start, int) or not 1 <= start <= tree.n:
        raise ValueError(f"start vertex must be in 1..{tree.n}")
    nb = _tree_ccw(tree)
    v = start
    for _ in range(2 * (tree.n - 1)):
        w = nb[v][0]
        if nb[w][0] == v:
            return (min(v, w), max(v, w))
        v = w
    raise RuntimeError("neighbor walk failed to settle on a primary edge")


def tree_to_canonical_game(tree: NoncrossingTree) -> PlaySequence:
    """A deterministic legal play whose endstate tree is the given tree.

    Each subgame plays the lexicographically least primary edge (i, j) of its
    induced subtree, taken in the subgame's own cyclic order, first; the side
    containing the smaller label is then realized before the other.

    A subgame's labels keep the circle's cyclic order, and the edges already
    played at a vertex are a prefix of its ccw list, so playing (i, j) only
    advances the first-neighbour pointers of i and j, and only edges at i or
    j can become primary.  Primary edges form a matching; each subgame keeps
    their negated smaller ends ascending, least edge last.  Side a is the
    cyclic interval [i, j) and no primary edge of the subgame starts below i,
    so side a holds the keys in (i, j), side b those above j, and one bisect
    splits the list.  Side a's least label is i; side b's is the subgame's if
    that is below i, and j otherwise.  No recursion: the loop goes on in the
    side holding the smaller least label and stacks the other only if it has
    keys, so an empty side never waits.  A key is minus the smaller end i of
    its edge, so every move (i, j) is one of the tree's edges, already a
    sorted pair of int labels.
    """
    n = tree.n
    nb = _tree_ccw(tree)
    first = [0] * (n + 1)  # nb[v][first[v]] is v's first unplayed neighbour
    moves, stack = [], []  # stack: (least label, keys) of the sides still to play
    low, keys = 1, sorted(-v for v, _ in _primary(nb))
    while keys or stack:
        if not keys:
            low, keys = stack.pop()
        i = -keys.pop()
        j = nb[i][first[i]]
        moves.append((i, j))
        first[i] += 1
        first[j] += 1
        if not keys:
            a, b = keys, []
        elif 2 * (k := bisect.bisect_left(keys, -j)) < len(keys):  # copy the shorter part
            b = keys[:k]
            del keys[:k]
            a = keys
        else:
            a = keys[k:]
            del keys[k:]
            b = keys
        for v, side in ((i, a), (j, b)):
            if first[v] < len(nb[v]):
                w = nb[v][first[v]]
                if nb[w][first[w]] == v:
                    bisect.insort(side, -min(v, w))
        if low != i:  # the side holding low goes on, the other waits if it has keys
            a, b, j = b, a, i
        if b:
            stack.append((j, b))
        keys = a
    return _made(PlaySequence, n, "moves", tuple(moves))


def enumerate_noncrossing_trees(n: int):
    """All noncrossing trees on n vertices, in lexicographic order of their
    sorted edge lists.  Independent of the game engine.

    Built by interval size from the root decomposition: in a tree on lo..hi
    whose vertex lo has largest neighbour k, an edge from past k into
    lo+1..k-1 would cross (lo, k), and cutting (lo, k) parts lo..k into
    lo..m and m+1..k.  So each tree is exactly one union of trees on lo..m,
    m+1..k and k..hi plus the edge (lo, k), a sorted pair of int labels.
    """
    _order(n)
    trees = {(v, v): [()] for v in range(1, n + 1)}  # edge tuples of each interval
    for size in range(1, n):
        for lo in range(1, n - size + 1):
            hi = lo + size
            trees[lo, hi] = [
                left + right + rest + ((lo, k),)
                for k in range(lo + 1, hi + 1)
                for m in range(lo, k)
                for left in trees[lo, m]
                for right in trees[m + 1, k]
                for rest in trees[k, hi]
            ]
    made, put = [], object.__setattr__  # not `_made`: no 64 B instance dict on kept trees
    for t in sorted(trees[1, n], key=sorted):
        made.append(tree := object.__new__(NoncrossingTree))
        put(tree, "n", n)
        put(tree, "edges", frozenset(t))
    return made


def count_endstates(n: int) -> int:
    """Closed-form endstate count: C(3n-3, n-1) / (2n-1), exact."""
    _order(n)
    numerator = math.comb(3 * n - 3, n - 1)
    denominator = 2 * n - 1
    if numerator % denominator:
        raise ArithmeticError(f"C({3*n-3},{n-1}) is not divisible by {denominator}")
    return numerator // denominator
