"""The edge poset of an endstate tree.

Covers point from an edge to the edge obtained by swinging it
counterclockwise around one endpoint onto the first tree-neighbor of that
endpoint.  A cover e -> e' means the arc for e must be drawn before the arc
for e'; the legal play orders reaching the endstate are exactly the linear
extensions.  Primary edges are the minimal elements.

Note the counterclockwise swing here is the inverse of the clockwise pivot
used to characterize primary edges: e swings counterclockwise onto e' iff
e' pivots clockwise onto e.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import PlaySequence, _walk_plays
from .trees import NoncrossingTree, _ccw_neighbours


@dataclass(frozen=True)
class EdgePoset:
    tree: NoncrossingTree
    covers: frozenset  # of (e, e') edge pairs, e before e'
    order: frozenset  # strict order: transitive closure of covers

    def precedes(self, e, f) -> bool:
        return (tuple(e), tuple(f)) in self.order

    def minimal_elements(self) -> frozenset:
        covered = {f for _, f in self.covers}
        return frozenset(e for e in self.tree.edges if e not in covered)


def build_poset(tree: NoncrossingTree) -> EdgePoset:
    covers = set()
    for v, vs in enumerate(_ccw_neighbours(tree.n, tree.edges)):
        for w, x in zip(vs, vs[1:]):  # {v, w} swings ccw around v onto {v, x}
            covers.add(((min(v, w), max(v, w)), (min(v, x), max(v, x))))
    successors = {e: set() for e in tree.edges}
    for e, f in covers:
        successors[e].add(f)

    order = set()
    for e in tree.edges:
        stack = list(successors[e])
        reach = set()
        while stack:
            f = stack.pop()
            if f in reach:
                continue
            reach.add(f)
            stack.extend(successors[f])
        if e in reach:
            raise ValueError(f"cover relation is cyclic at edge {e}")
        order.update((e, f) for f in reach)
    return EdgePoset(tree=tree, covers=frozenset(covers), order=frozenset(order))


def linear_extensions(poset: EdgePoset):
    """All total orders of the tree's edges extending the cover relation,
    by backtracking; deterministic (lexicographic at each choice point)."""
    edges = sorted(poset.tree.edges)
    preds = {e: set() for e in edges}
    for a, b in poset.covers:
        preds[b].add(a)
    out = []
    used = set()
    prefix = []

    def rec():
        if len(prefix) == len(edges):
            out.append(tuple(prefix))
            return
        for e in edges:
            if e in used or not preds[e] <= used:
                continue
            used.add(e)
            prefix.append(e)
            rec()
            prefix.pop()
            used.remove(e)

    rec()
    return out


def games_with_endstate(tree: NoncrossingTree):
    """All legal plays whose arc-label set equals the tree's edges, by a
    depth-first search restricted to those arcs."""
    walk = _walk_plays(tree.n, arcs=tree.edges)
    return [PlaySequence(tree.n, tuple(map(frozenset, arcs))) for arcs, _ in walk]


def _hasse_covers(poset: EdgePoset) -> set:
    """Covers with transitively implied pairs removed, for readable output."""
    return {
        (e, f)
        for e, f in poset.covers
        if not any((e, g) in poset.order and (g, f) in poset.order for g in poset.tree.edges)
    }


def poset_to_dot(poset: EdgePoset, hasse: bool = True) -> str:
    tree = poset.tree
    arcs = _hasse_covers(poset) if hasse else set(poset.covers)
    lines = ["digraph edge_poset {"]
    for i, j in sorted(tree.edges):
        lines.append(f'  "{i}-{j}";')
    for (a, b), (c, d) in sorted(arcs):
        lines.append(f'  "{a}-{b}" -> "{c}-{d}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(poset: EdgePoset) -> str:
    import json

    obj = {
        "n": poset.tree.n,
        "edges": sorted(list(e) for e in poset.tree.edges),
        "covers": sorted([list(e), list(f)] for e, f in poset.covers),
    }
    return json.dumps(obj, sort_keys=True)
