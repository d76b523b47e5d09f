"""The edge poset of an endstate tree.

Covers point from an edge to the edge obtained by swinging it
counterclockwise around one endpoint onto the first tree-neighbor of that
endpoint.  A cover e -> e' means the arc for e must be drawn before the arc
for e'; the legal play orders reaching the endstate are exactly the linear
extensions.  Primary edges are the minimal elements.

Note the counterclockwise swing here is the inverse of the clockwise pivot
used to characterize primary edges: e swings counterclockwise onto e' iff
e' pivots clockwise onto e.

The covers are the consecutive pairs of each vertex's ccw neighbour list,
and they form a tree on the edges.  A vertex of degree d gives d-1 covers,
n-2 in all, and no two coincide because two tree edges share at most one
vertex.  The pairs at v link every edge at v and the tree is connected, so
the covers connect all n-1 edges: n-2 links on n-1 nodes make a tree.  A
tree has no cycle, so the covers need no acyclicity check, no pair of them
is implied by others (they are their own Hasse diagram), and no transitive
closure is stored.

The linear extensions are built level by level rather than searched: every
order of k edges, in lexicographic order, is extended by each edge not yet
placed whose lower covers all are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import PlaySequence, _made
from .trees import NoncrossingTree, _tree_ccw


@dataclass(frozen=True)
class EdgePoset:
    tree: NoncrossingTree
    covers: frozenset  # of (e, e') edge pairs, e before e'

    def minimal_elements(self) -> frozenset:
        return self.tree.edges.difference([f for _, f in self.covers])


def build_poset(tree: NoncrossingTree) -> EdgePoset:
    covers = []
    for v, vs in enumerate(_tree_ccw(tree)):
        e = None
        for w in vs:  # {v, e's other end} swings ccw around v onto {v, w}
            f = (v, w) if v < w else (w, v)
            if e:
                covers.append((e, f))
            e = f
    return EdgePoset(tree=tree, covers=frozenset(covers))


def linear_extensions(poset: EdgePoset):
    """All total orders of the tree's edges extending the cover relation, in
    lexicographic order, level by level.  Edge k of the sorted edges is bit
    k and need[k] holds the bits of its lower covers, so it can come next
    iff the placed bits, masked to bit k and need[k], are exactly need[k].
    The levels stop one edge short: the one bit not yet placed is then the
    last edge, and all its lower covers are placed, so it needs no test."""
    edges = sorted(poset.tree.edges)
    if not edges:
        return [()]
    index = {e: k for k, e in enumerate(edges)}
    need = [0] * len(edges)
    for a, b in poset.covers:
        need[index[b]] |= 1 << index[a]
    steps = [(e, 1 << k, need[k] | 1 << k, need[k]) for k, e in enumerate(edges)]
    orders = [((), 0)]  # (order so far, bits of its edges)
    for _ in edges[1:]:
        orders = [
            (order + (e,), placed | bit)
            for order, placed in orders
            for e, bit, mask, req in steps
            if placed & mask == req
        ]
    full = (1 << len(edges)) - 1
    return [(*order, edges[(full ^ placed).bit_length() - 1]) for order, placed in orders]


def games_with_endstate(tree: NoncrossingTree):
    """All legal plays whose arc set is the tree's edges, by the game rules
    alone (no covers), depth first with arcs in lexicographic order.  Moves
    only split regions, so the walk plays only survivors: unplayed arcs that
    part the ends of no other unplayed arc, which could then never be drawn.

    Regions are cycles of successor arrays, as in `game._joins`: joining x
    and y stores nxt[prv[x]] = y and nxt[prv[y]] = x, so x's new region is
    the run A = x, nxt[x], ... up to the arm before y, read before the join.
    Arc k of the sorted edges is bit k of `unplayed`, and incident[v] holds
    the bits of the arcs at v.  Another unplayed arc is cut iff exactly one
    of its ends lies in A, iff its bit is set in the XOR of incident[] over
    A; arc k's own bit is set there too.

    Two facts of the rules, read off the successor arrays for any chord set,
    spare most tests and joins.  (1) Joining a survivor k splits its region
    into A and the rest B, and no unplayed arc has an end in each.  Another
    survivor's new run is its old run with B (or A) spliced out, so it still
    cuts nothing: a prefix inherits its parent's survivors but k, in `ok`,
    and walks only the other unplayed arcs.  (2) The one arc left after a
    survivor is not cut, so it is legal: with two arcs left, each survivor
    and the other arc are written as the last two moves, with no join, no
    undo and no test.

    The walk ends.  At every prefix reached every unplayed arc lies in one
    region, so the run from x meets y within that region's length; if it came
    back to x instead, a cut was missed, and it raises RuntimeError rather
    than loop.  An explicit stack of levels, each with its unplayed arcs, its
    survivors and those not yet tried (by lowest bit), replaces the recursion,
    never deeper than the edge count.  Every move is one of the tree's edges,
    already a sorted pair of int labels."""
    n, edges = tree.n, sorted(tree.edges)
    if len(edges) < 2:  # no arc, or one arc in the one region
        return [_made(PlaySequence, n, "moves", tuple(edges))]
    nxt, prv = [1, *range(2, n + 1), 1], [n, n, *range(1, n)]
    incident = [0] * (n + 1)
    for k, (x, y) in enumerate(edges):
        incident[x] |= 1 << k
        incident[y] |= 1 << k
    out, path, stack, new = [], [], [], object.__new__  # plays, arcs played, levels above
    unplayed, ok, last = (1 << len(edges)) - 1, 0, len(edges) - 2
    while True:
        rest = unplayed ^ ok  # the unplayed arcs not known to survive
        while rest:
            low = rest & -rest
            rest ^= low
            x, y = edges[low.bit_length() - 1]
            cut, z = incident[x], nxt[x]
            while z != y:
                if z == x:
                    raise RuntimeError(f"arc {x}-{y} lies across two regions")
                cut ^= incident[z]
                z = nxt[z]
            if cut & unplayed == low:
                ok |= low
        if len(path) == last:  # two arcs left: each survivor, then the other (fact 2)
            while ok:  # emptied here, so this level tries nothing
                low = ok & -ok
                ok ^= low
                arc, other = edges[low.bit_length() - 1], edges[(unplayed ^ low).bit_length() - 1]
                out.append(play := new(PlaySequence))  # filled as `_made` fills its objects
                fields = play.__dict__
                fields["n"], fields["moves"] = n, (*path, arc, other)
        tries = ok
        while not tries:
            if not path:
                return out
            x, y = path.pop()
            unplayed, ok, tries = stack.pop()
            a, b = prv[x], prv[y]  # undo the join of x and y
            nxt[a], nxt[b] = y, x
            prv[x], prv[y] = b, a
        low = tries & -tries
        x, y = arc = edges[low.bit_length() - 1]
        stack.append((unplayed, ok, tries ^ low))
        path.append(arc)
        unplayed, ok = unplayed ^ low, ok ^ low  # the other survivors still survive (fact 1)
        a, b = prv[x], prv[y]  # join x and y
        nxt[a], nxt[b] = y, x
        prv[x], prv[y] = b, a
