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
    iff the placed bits, masked to bit k and need[k], are exactly need[k]."""
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


def games_with_endstate(tree: NoncrossingTree):
    """All legal plays whose arc set is the tree's edges, by the game rules
    alone (no covers), depth first with unplayed arcs in lexicographic order.
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
