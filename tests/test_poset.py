"""Edge posets and their linear extensions vs. compatible play orders."""

import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings

from planted_sprouts import (
    IllegalMoveError,
    NoncrossingTree,
    PlaySequence,
    build_poset,
    endstate_to_tree,
    game,
    games_with_endstate,
    linear_extensions,
    primary_edges,
    replay,
)
from planted_sprouts.formats import poset_to_dot, poset_to_json
from planted_sprouts.poset import EdgePoset

from helpers import (
    all_plays,
    all_trees,
    level_linear_extensions,
    parking_functions,
    stack_games_with_endstate,
    tree_of,
)

EIGHT_VERTEX_TREE = NoncrossingTree.from_edges(
    8, [(1, 8), (2, 8), (2, 4), (3, 4), (5, 8), (5, 6), (5, 7)]
)


def reference_covers(tree):
    """Covers by the rotating scan: swing each edge counterclockwise around
    each endpoint, one circle position at a time, until it meets another
    tree neighbour of that endpoint."""
    n = tree.n
    nbrs = {v: set() for v in range(1, n + 1)}
    for i, j in tree.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    covers = set()
    for u, v in tree.edges:
        for fixed, moving in ((u, v), (v, u)):
            w = (moving - 2) % n + 1
            while w != fixed:
                if w in nbrs[fixed]:
                    covers.add(((u, v), (min(fixed, w), max(fixed, w))))
                    break
                w = (w - 2) % n + 1
    return covers


def closure(covers):
    """The strict order the covers generate, by repeated composition."""
    order = set(covers)
    while True:
        more = {(a, d) for a, b in order for c, d in order if b == c} - order
        if not more:
            return order
        order |= more


def assert_cover_tree(tree):
    """n-2 covers linking all n-1 edges: a tree on the edges."""
    covers = build_poset(tree).covers
    assert len(covers) == max(tree.n - 2, 0)
    linked = {e: set() for e in tree.edges}
    for e, f in covers:
        linked[e].add(f)
        linked[f].add(e)
    seen, stack = set(), list(tree.edges)[:1]
    while stack:
        e = stack.pop()
        if e not in seen:
            seen.add(e)
            stack.extend(linked[e])
    assert seen == tree.edges


class TestBuildPoset:
    def test_single_edge_poset(self):
        poset = build_poset(NoncrossingTree.from_edges(2, [(1, 2)]))
        assert poset.covers == frozenset()
        assert poset.minimal_elements() == {(1, 2)}

    def test_path_n3_single_cover(self):
        poset = build_poset(NoncrossingTree.from_edges(3, [(1, 2), (2, 3)]))
        assert poset.covers == {((1, 2), (2, 3))}

    def test_worked_example_cover(self):
        # {3,4} swings counterclockwise around 4 onto {2,4}
        poset = build_poset(EIGHT_VERTEX_TREE)
        assert ((3, 4), (2, 4)) in poset.covers

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_acyclic_and_minimal_equals_primary(self, n):
        for tree in all_trees(n):
            poset = build_poset(tree)
            assert poset.minimal_elements() == primary_edges(tree)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_covers_match_rotating_scan_on_all_trees(self, n):
        for tree in all_trees(n):
            assert build_poset(tree).covers == reference_covers(tree)

    @settings(deadline=None, max_examples=40)
    @given(parking_functions(max_n=300))
    def test_covers_match_rotating_scan_on_random_trees(self, drawn):
        tree = tree_of(*drawn)
        assert build_poset(tree).covers == reference_covers(tree)


class TestCoverTree:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_covers_are_a_tree_on_all_trees(self, n):
        for tree in all_trees(n):
            assert_cover_tree(tree)

    @settings(deadline=None, max_examples=40)
    @given(parking_functions(max_n=300))
    def test_covers_are_a_tree_on_random_trees(self, drawn):
        assert_cover_tree(tree_of(*drawn))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_closure_of_covers_is_the_order_every_extension_keeps(self, n):
        for tree in all_trees(n):
            poset = build_poset(tree)
            kept = set(itertools.permutations(tree.edges, 2))
            for order in linear_extensions(poset):
                kept &= set(itertools.combinations(order, 2))
            assert kept == closure(poset.covers)


EXTENSION_DIGESTS = {
    1: "dbcd7db8bb337a5d9d5fdbae797b37cb0ad5e15679bf9c5dae1ea1e66813cfe3",
    2: "528f671875139d781b0b6cd773be80c8861cbf623bd39c61e068619b95659424",
    3: "c139f7dba910b16a4c804fc2b5571df9c53d4358e81e317e4143650288f4f816",
    4: "b7d5a22960ee1c6d4800166c6e652f020053ae8402a4a7dbe5e2dadaaf4836b5",
    5: "f3763ca6a470940baa3c00af80bb35d65454da99299da8965a803b9cc5f70925",
    6: "76465d56c1dfbfbc80acda24b6f6cd366ac1770a93e420a5bb13972a88ecfd96",
    7: "900c7c98a26ef1257e99fcef804f51cfcc6f902c83a4d6973877b59e5207c7e6",
}


class TestLinearExtensions:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_antichain_has_factorial_extensions(self, k):
        # a cover-free poset over any k edges must give all k! orders
        tree = NoncrossingTree.from_edges(k + 1, [(i, i + 1) for i in range(1, k + 1)])
        antichain = EdgePoset(tree=tree, covers=frozenset())
        assert len(linear_extensions(antichain)) == math.factorial(k)
        assert linear_extensions(antichain) == list(itertools.permutations(sorted(tree.edges)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_order_pinned(self, n):
        # sha256 of every tree's extensions, in order, from the backtracking
        # search this one replaced
        extensions = repr([linear_extensions(build_poset(t)) for t in all_trees(n)])
        assert hashlib.sha256(extensions.encode()).hexdigest() == EXTENSION_DIGESTS[n]

    def test_n3_trees_have_one_extension_each(self):
        counts = [len(linear_extensions(build_poset(t))) for t in all_trees(3)]
        assert counts == [1, 1, 1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_the_level_loop_on_all_trees(self, n):
        # the last edge placed without a test, against every level tested
        for tree in all_trees(n):
            poset = build_poset(tree)
            assert linear_extensions(poset) == level_linear_extensions(poset), tree

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_extension_counts_sum_to_play_count(self, n):
        total = sum(len(linear_extensions(build_poset(t))) for t in all_trees(n))
        expected = 1 if n == 1 else n ** (n - 2)
        assert total == expected


# sha256 of every tree's plays, in order, from the recursive walk this one
# replaced.  Each tree's plays are its linear extensions in the same order,
# so up to n = 7 these are the extension digests.
PLAY_DIGESTS = {
    **EXTENSION_DIGESTS,
    8: "5aab5c4e2a1d072ca302f6d76448fa82257cbdc95aeb9e68c50d973e61ae5797",
}


def survivors(n, prefix, unplayed):
    """The unplayed arcs that, played after `prefix`, leave every other
    unplayed arc inside one region, read off the regions of `replay`."""
    found = set()
    for arc in unplayed:
        try:
            state = replay(PlaySequence(n, (*prefix, arc)))
        except IllegalMoveError:
            continue
        region = {short: r for r, subgame in enumerate(state.subgames) for short, _ in subgame}
        if all(region[a] == region[b] for a, b in unplayed - {arc}):
            found.add(arc)
    return found


def chord_sets(n):
    """Every set of 1..n-1 chords of the n-gon, as a `NoncrossingTree` built
    unchecked: crossing sets, cycles and forests among them."""
    chords = list(itertools.combinations(range(1, n + 1), 2))
    for size in range(1, n):
        for arcs in itertools.combinations(chords, size):
            yield game._made(NoncrossingTree, n, "edges", frozenset(arcs))


class TestGamesWithEndstate:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_order_pinned(self, n):
        plays = repr([[p.moves for p in games_with_endstate(t)] for t in all_trees(n)])
        assert hashlib.sha256(plays.encode()).hexdigest() == PLAY_DIGESTS[n]

    def test_order_2(self):
        plays = games_with_endstate(NoncrossingTree.from_edges(2, [(1, 2)]))
        assert len(plays) == 1

    def test_n4_play_counts_sum_to_16(self):
        assert sum(len(games_with_endstate(t)) for t in all_trees(4)) == 16

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_partition_of_all_plays(self, n):
        # same plays in the same order as enumerate_games filtered by signature
        by_signature = {}
        for play in all_plays(n):
            by_signature.setdefault(frozenset(play.moves), []).append(play)
        for tree in all_trees(n):
            expected = by_signature.get(tree.edges, [])
            assert [p.moves for p in games_with_endstate(tree)] == [p.moves for p in expected]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_the_stack_walk_on_all_trees(self, n):
        # survivors carried down and the last two moves written at once,
        # against every arc tested at every prefix
        for tree in all_trees(n):
            assert games_with_endstate(tree) == stack_games_with_endstate(tree), tree

    @pytest.mark.parametrize(
        "n, edge_sets", [(n, all_trees) for n in range(1, 7)] + [(n, chord_sets) for n in range(2, 6)]
    )
    def test_a_survivor_survives_another_survivors_move(self, n, edge_sets):
        # the two facts of the walk's docstring, by replay alone: at every
        # prefix of survivors, each survivor but the one played survives the
        # move (fact 1), and the one arc left after a survivor is legal (fact
        # 2); and playing survivors alone reaches every play of the edges
        for edges in edge_sets(n):
            plays, stack = [], [((), frozenset(edges.edges), frozenset())]
            while stack:
                prefix, unplayed, inherited = stack.pop()
                ok = survivors(n, prefix, unplayed)
                assert inherited <= ok, (edges, prefix)
                if len(unplayed) == 1:
                    assert ok == unplayed, (edges, prefix)
                if not unplayed:
                    plays.append(prefix)
                stack.extend(((*prefix, arc), unplayed - {arc}, ok - {arc}) for arc in ok)
            assert sorted(plays) == [p.moves for p in stack_games_with_endstate(edges)], edges

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_extensions_equal_compatible_play_orders(self, n):
        for tree in all_trees(n):
            extensions = set(linear_extensions(build_poset(tree)))
            orders = {play.moves for play in games_with_endstate(tree)}
            assert extensions == orders

    def test_edge_sets_that_are_not_trees(self):
        # every set of 1..n-1 chords at n <= 5, crossing sets, cycles and
        # forests among them: the walk reads no tree property, so it gives
        # exactly the orders of the arcs that replay accepts, in order
        def legal(n, order):
            try:
                replay(PlaySequence(n, order))
            except IllegalMoveError:
                return False
            return True

        sets = 0
        for n in range(1, 6):
            for edges in chord_sets(n):
                sets += 1
                arcs = sorted(edges.edges)
                expected = [o for o in itertools.permutations(arcs) if legal(n, o)]
                assert [p.moves for p in games_with_endstate(edges)] == expected, arcs
        assert sets == 433

    @settings(deadline=None, max_examples=60)
    @given(parking_functions(max_n=8))
    def test_random_trees_plays_are_the_extensions(self, drawn):
        tree = tree_of(*drawn)
        plays = games_with_endstate(tree)
        orders = [play.moves for play in plays]
        assert len(set(orders)) == len(orders)
        assert set(orders) == set(linear_extensions(build_poset(tree)))
        for play in plays:
            assert endstate_to_tree(replay(play)) == tree


class TestOutput:
    def test_dot_emission(self):
        dot = poset_to_dot(build_poset(NoncrossingTree.from_edges(3, [(1, 2), (2, 3)])))
        assert '"1-2" -> "2-3";' in dot

    def test_hasse_reduction_drops_transitive_covers(self):
        # chain of three edges: the closure pair must not appear as an arrow
        poset = build_poset(NoncrossingTree.from_edges(4, [(1, 2), (2, 3), (3, 4)]))
        dot = poset_to_dot(poset)
        assert '"1-2" -> "3-4";' not in dot
        assert '"1-2" -> "2-3";' in dot
        assert '"2-3" -> "3-4";' in dot

    def test_json_covers(self):
        text = poset_to_json(build_poset(NoncrossingTree.from_edges(3, [(1, 2), (2, 3)])))
        assert '"covers": [[[1, 2], [2, 3]]]' in text
