"""Noncrossing trees, primary edges, and the endstate correspondence."""

import hashlib
import json
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from planted_sprouts import (
    NoncrossingTree,
    build_poset,
    count_endstates,
    endstate_to_tree,
    enumerate_noncrossing_trees,
    is_noncrossing_tree,
    primary_edges,
    replay,
    tree_to_canonical_game,
    tree_to_dot,
)
from planted_sprouts.trees import find_primary_edge, is_pivotable_clockwise
from planted_sprouts import cli, game, poset, trees
from planted_sprouts.formats import _from_json, edges_to_json
from planted_sprouts.game import PlaySequence

from helpers import (
    all_plays,
    all_trees,
    parking_functions,
    pollak_shift,
    reference_is_noncrossing_tree,
    stack_tree_to_canonical_game,
    tree_families,
    tree_of,
)

# A completion of the worked eight-vertex example: the named edges are
# {5,8}, {3,4}, {2,4}, {2,8}; the extra edges attach 1, 6, 7 without
# disturbing the named primary edges or the pivots of {2,4}.
EIGHT_VERTEX_TREE = NoncrossingTree.from_edges(
    8, [(1, 8), (2, 8), (2, 4), (3, 4), (5, 8), (5, 6), (5, 7)]
)


def reference_primary_edges(m, edges):
    """Primary edges of a tree on 1..m by their definition: an edge {i, j},
    i < j, is primary iff i has no neighbor in the clockwise interval from j
    back around to i, and j has no neighbor strictly between i and j."""
    nbrs = {v: set() for v in range(1, m + 1)}
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    out = set()
    for i, j in edges:
        inside = set(range(i + 1, j))
        outside = set(range(j + 1, m + 1)) | set(range(1, i))
        if not (nbrs[i] & outside) and not (nbrs[j] & inside):
            out.add((i, j))
    return out


def reference_canonical_moves(tree):
    """The canonical play read literally off its definition: play the least
    primary edge of the rank-relabelled subtree, then realize the side
    holding the smaller label first."""

    def rec(vertices, edges):
        if len(vertices) <= 1:
            return []
        rank = {v: k + 1 for k, v in enumerate(vertices)}
        ranked = {(rank[a], rank[b]) for a, b in edges}
        prim = reference_primary_edges(len(vertices), ranked)
        i, j = min((vertices[a - 1], vertices[b - 1]) for a, b in prim)
        side_a = tuple(v for v in vertices if i <= v < j)
        side_b = tuple(v for v in vertices if not i <= v < j)
        edges_a = {e for e in edges if e[0] in side_a and e[1] in side_a}
        edges_b = edges - edges_a - {(i, j)}
        assert all(e[0] in side_b and e[1] in side_b for e in edges_b)
        first, second = sorted(((side_a, edges_a), (side_b, edges_b)), key=lambda s: s[0][0])
        return [(i, j)] + rec(*first) + rec(*second)

    return rec(tuple(range(1, tree.n + 1)), set(tree.edges))


def brute_force_ncts(n):
    """Independent oracle: filter all (n-1)-subsets of chords."""
    if n == 1:
        return {frozenset()}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    found = set()
    for combo in combinations(pairs, n - 1):
        if is_noncrossing_tree(n, combo):
            found.add(frozenset(combo))
    return found


class TestIsNoncrossingTree:
    def test_path_along_circle(self):
        assert is_noncrossing_tree(4, [(1, 2), (2, 3), (3, 4)])

    def test_crossing_edges_rejected(self):
        assert not is_noncrossing_tree(4, [(1, 3), (2, 4), (1, 2)])

    def test_cycle_rejected(self):
        assert not is_noncrossing_tree(3, [(1, 2), (2, 3), (1, 3)])

    def test_wrong_edge_count(self):
        assert not is_noncrossing_tree(4, [(1, 2), (2, 3)])

    def test_n5_filter_count(self):
        assert len(brute_force_ncts(5)) == 55

    @pytest.mark.parametrize("n", range(1, 7))
    def test_verdict_is_the_definition_on_every_chord_set(self, n):
        # every (n-1)-subset of chords, in lexicographic and in reversed order,
        # against pairwise crossing tests and a search, with no sort and no sweep
        chords = list(combinations(range(1, n + 1), 2))
        accepted = 0
        for edges in combinations(chords, n - 1):
            expected = reference_is_noncrossing_tree(n, edges)
            assert is_noncrossing_tree(n, edges) == expected, edges
            assert is_noncrossing_tree(n, edges[::-1]) == expected, edges
            accepted += expected
        assert accepted == count_endstates(n)

    def test_invalid_tree_constructor(self):
        with pytest.raises(ValueError):
            NoncrossingTree.from_edges(4, [(1, 3), (2, 4), (1, 2)])

    def test_constructor_rejects_reversed_edges(self):
        with pytest.raises(ValueError, match=r"\[\(2, 1\), \(3, 2\)\]"):
            NoncrossingTree(3, frozenset({(2, 1), (3, 2)}))
        tree = NoncrossingTree.from_edges(3, [(2, 1), (3, 2)])
        assert tree.edges == {(1, 2), (2, 3)}
        assert tree == NoncrossingTree(3, frozenset({(1, 2), (2, 3)}))

    @pytest.mark.parametrize("edges", [[(1, 2), (1, 2)], [(1, 2), (2, 1), (2, 3)]])
    def test_repeated_edge_rejected(self, edges):
        assert not is_noncrossing_tree(3, edges)
        with pytest.raises(ValueError, match="repeated"):
            NoncrossingTree.from_edges(3, edges)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_constructor_verdict_on_every_edge_list(self, n):
        # the constructor accepts exactly the noncrossing trees given as
        # sorted pairs, on every list of n-2, n-1 or n ordered pairs
        labels = range(1, n + 1)
        pairs = [(i, j) for i in labels for j in labels if i != j]
        for size in (n - 2, n - 1, n):
            for edges in combinations(pairs, size) if size >= 0 else ():
                expected = is_noncrossing_tree(n, edges) and all(i < j for i, j in edges)
                try:
                    NoncrossingTree(n, edges)
                    accepted = True
                except ValueError as err:
                    assert str(err) == f"not a noncrossing tree on {n} vertices: {sorted(edges)}"
                    accepted = False
                assert accepted == expected, edges

    @pytest.mark.parametrize(
        "n,edges",
        [
            (3, [(1, 2), (1, 2)]),
            (4, [(1, 2), (2, 3), (1, 2)]),
            (3, [(1, 2, 3), (2, 3)]),
            (3, [1, 2]),
            (3, [(1, "2"), (2, 3)]),
            (2, [("a", "b")]),
            (2, [(1.0, 2.0)]),
            (3, [(1, 2.5), (2, 3)]),
            (3, [(1, 2), (2, 3.0)]),
        ],
    )
    def test_constructor_rejects_repeats_and_non_pairs(self, n, edges):
        assert not is_noncrossing_tree(n, edges)
        with pytest.raises(ValueError, match="not a noncrossing tree"):
            NoncrossingTree(n, edges)

    def test_boolean_labels_are_integers(self):
        assert is_noncrossing_tree(2, [(True, 2)])
        assert NoncrossingTree(3, frozenset({(True, 2), (2, 3)})).edges == {(1, 2), (2, 3)}


class TestEndstateToTree:
    def test_signature_becomes_tree(self):
        state = replay(PlaySequence.of(3, [(1, 3), (1, 2)]))
        assert endstate_to_tree(state).edges == frozenset({(1, 3), (1, 2)})

    def test_n4_image_size(self):
        trees = {endstate_to_tree(replay(p)) for p in all_plays(4)}
        assert len(trees) == 12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_signature_is_noncrossing(self, n):
        for play in all_plays(n):
            assert is_noncrossing_tree(n, play.moves)


class TestPrimaryEdges:
    def test_worked_eight_vertex_example(self):
        assert primary_edges(EIGHT_VERTEX_TREE) == {(5, 8), (3, 4)}

    def test_single_edge(self):
        assert primary_edges(NoncrossingTree.from_edges(2, [(1, 2)])) == {(1, 2)}

    def test_star_centered_at_1(self):
        star = NoncrossingTree.from_edges(4, [(1, 2), (1, 3), (1, 4)])
        assert primary_edges(star) == {(1, 4)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_nonempty_for_all_trees(self, n):
        assert all(primary_edges(t) for t in all_trees(n))


class TestPivot:
    def test_worked_example_pivots_both_ways(self):
        assert is_pivotable_clockwise(EIGHT_VERTEX_TREE, (2, 4))

    def test_single_edge_not_pivotable(self):
        assert not is_pivotable_clockwise(NoncrossingTree.from_edges(2, [(1, 2)]), (1, 2))

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            is_pivotable_clockwise(EIGHT_VERTEX_TREE, (1, 2))

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((1, 2), "edge (1, 2) is not in the tree"),
            ((1, 2, 3), "edge (1, 2, 3) is not a pair of labels"),
            (5, "edge 5 is not a pair of labels"),
            (None, "edge None is not a pair of labels"),
            ((1, 3.0), "edge labels must be integers, got (1, 3.0)"),
            (("1", 2), "edge labels must be integers, got ('1', 2)"),
            ((0, 5), "edge 0-5 is not a pair of distinct labels in 1..3"),
            ((2, 2), "edge 2-2 is not a pair of distinct labels in 1..3"),
            ((), "edge () is not a pair of labels"),
            (([1], 3), "edge labels must be integers, got ([1], 3)"),
        ],
    )
    def test_malformed_edge_message(self, edge, message):
        # the edge is read as `from_edges` reads one, so a triple is not
        # taken for its first and last labels
        tree = NoncrossingTree.from_edges(3, [(1, 3), (2, 3)])
        with pytest.raises(ValueError) as exc:
            is_pivotable_clockwise(tree, edge)
        assert str(exc.value) == message

    def test_edge_read_in_either_order(self):
        tree = NoncrossingTree.from_edges(3, [(1, 3), (2, 3)])
        for edge in [(1, 3), (3, 1), [3, 1], (True, 3)]:
            assert is_pivotable_clockwise(tree, edge)
        assert not is_pivotable_clockwise(tree, (3, 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_pivotable_iff_not_primary(self, n):
        for tree in all_trees(n):
            prim = primary_edges(tree)
            for e in tree.edges:
                assert is_pivotable_clockwise(tree, e) == (e not in prim)


class TestFindPrimaryEdge:
    def test_two_vertices(self):
        assert find_primary_edge(NoncrossingTree.from_edges(2, [(1, 2)])) == (1, 2)

    def test_worked_example_every_start(self):
        prim = primary_edges(EIGHT_VERTEX_TREE)
        for start in range(1, 9):
            assert find_primary_edge(EIGHT_VERTEX_TREE, start=start) in prim

    def test_bad_trees_and_starts_raise_value_errors(self):
        with pytest.raises(ValueError, match="^a tree with fewer than 2 vertices has no edges$"):
            find_primary_edge(NoncrossingTree(1, ()))
        for start in (0, 9, -1, "1", 1.5, True, None):
            with pytest.raises(ValueError, match=r"^start vertex must be in 1\.\.8$"):
                find_primary_edge(EIGHT_VERTEX_TREE, start)

    @pytest.mark.parametrize("n", [3, 4])
    def test_walk_on_a_cycle_raises(self, n):
        # a triangle, built past the constructor's checks: no edge is primary,
        # so the neighbour walk goes round it until its step bound runs out
        triangle = game._made(NoncrossingTree, n, "edges", frozenset({(1, 2), (2, 3), (1, 3)}))
        assert not primary_edges(triangle)
        for start in (1, 2, 3):
            with pytest.raises(RuntimeError, match="^neighbor walk failed to settle on a primary edge$"):
                find_primary_edge(triangle, start)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_terminates_at_primary_from_every_start(self, n):
        for tree in all_trees(n):
            prim = primary_edges(tree)
            for start in range(1, n + 1):
                assert find_primary_edge(tree, start=start) in prim


class TestCanonicalRealization:
    def test_two_vertices(self):
        tree = NoncrossingTree.from_edges(2, [(1, 2)])
        assert tree_to_canonical_game(tree) == PlaySequence.of(2, [(1, 2)])

    def test_path_n3(self):
        tree = NoncrossingTree.from_edges(3, [(1, 2), (2, 3)])
        assert tree_to_canonical_game(tree) == PlaySequence.of(3, [(1, 2), (2, 3)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_round_trip_all_trees(self, n):
        for tree in all_trees(n):
            play = tree_to_canonical_game(tree)
            assert endstate_to_tree(replay(play)) == tree

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_reference_on_all_trees(self, n):
        for tree in all_trees(n):
            expected = PlaySequence.of(n, reference_canonical_moves(tree)).moves
            assert tree_to_canonical_game(tree).moves == expected
            assert stack_tree_to_canonical_game(tree).moves == expected

    @settings(deadline=None, max_examples=40)
    @given(parking_functions(max_n=300))
    def test_matches_reference_on_random_trees(self, drawn):
        tree = tree_of(*drawn)
        expected = PlaySequence.of(tree.n, reference_canonical_moves(tree))
        assert tree_to_canonical_game(tree) == expected

    @pytest.mark.parametrize("shape", ["star", "path", "zigzag", "comb", "fan", "random"])
    def test_matches_stack_reference_at_n_2000(self, shape):
        n, m, rng = 2000, 1000, random.Random(5)
        if shape == "fan":
            tree = NoncrossingTree(n, [(min(m, k), max(m, k)) for k in range(1, n + 1) if k != m])
        elif shape == "random":
            tree = tree_of(n, pollak_shift(n, [rng.randrange(n) for _ in range(n - 1)]))
        else:
            tree = NoncrossingTree(n, tree_families(n)[shape])
        assert tree_to_canonical_game(tree) == stack_tree_to_canonical_game(tree)

    def test_round_trip_large_random_tree(self):
        n, rng = 10**4, random.Random(3)
        tree = tree_of(n, pollak_shift(n, [rng.randrange(n) for _ in range(n - 1)]))
        assert endstate_to_tree(replay(tree_to_canonical_game(tree))) == tree


# The five tree maps that read the ccw lists.
TREE_MAPS = (
    lambda tree: tree_to_canonical_game(tree).moves,
    primary_edges,
    lambda tree: [is_pivotable_clockwise(tree, e) for e in sorted(tree.edges)],
    lambda tree: [find_primary_edge(tree, v) for v in range(1, tree.n + 1)] if tree.n > 1 else [],
    lambda tree: build_poset(tree).covers,
)


def tree_maps(tree):
    return [read(tree) for read in TREE_MAPS]


class TestCcwListCache:
    """The tree maps share the ccw lists of the last tree asked for."""

    @staticmethod
    def uncached_maps(monkeypatch, tree_list):
        # every map reads fresh lists from _ccw_neighbours, with no cache
        def fresh(tree):
            return trees._ccw_neighbours(tree.n, tree.edges)

        with monkeypatch.context() as patch:
            patch.setattr(trees, "_tree_ccw", fresh)
            patch.setattr(poset, "_tree_ccw", fresh)
            return [tree_maps(tree) for tree in tree_list]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_maps_match_fresh_lists(self, n, monkeypatch):
        tree_list = all_trees(n)
        expected = self.uncached_maps(monkeypatch, tree_list)
        # all maps on one tree in turn, then each map alone, alternating
        # between trees from both ends of the list
        assert [tree_maps(tree) for tree in tree_list] == expected
        ends = zip(range(len(tree_list)), reversed(range(len(tree_list))))
        order = [k for pair in ends for k in pair]
        for m, read in enumerate(TREE_MAPS):
            for k in order:
                assert read(tree_list[k]) == expected[k][m]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equal_trees_from_different_edge_orders(self, n, monkeypatch):
        tree_list = all_trees(n)
        expected = self.uncached_maps(monkeypatch, tree_list)
        for k, tree in enumerate(tree_list):
            edges = sorted(tree.edges)
            twins = (
                NoncrossingTree.from_edges(n, edges),
                NoncrossingTree.from_edges(n, [(j, i) for i, j in reversed(edges)]),
                NoncrossingTree(n, edges),  # a list, stored as a frozenset of tuples
                tree,
            )
            for twin in twins + twins[::-1]:
                assert tree_maps(twin) == expected[k]

    def test_cache_holds_one_tree(self):
        a, b = all_trees(4)[:2]
        primary_edges(a)
        assert trees._last_ccw[0] is a
        primary_edges(b)
        assert trees._last_ccw[0] is b
        assert trees._last_ccw[1] == trees._ccw_neighbours(4, b.edges)


TREE_DIGESTS = {
    1: "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
    2: "581545a952c2dffa1a215c8e2c1087da7c8271ef52f26aaa11890d5000634ff5",
    3: "2137ccba548fdfefec15e9ce709b25f8c56478c91ac68cdf281b7ae9bb05d198",
    4: "a93e281e04292970357133f865a95431507d2a50226013e94517c0c136a0c885",
    5: "a266bea64bd20560673aaff9688e3d5ae6ecb80e392f46194c531de811bcbb3b",
    6: "61050c4b040deb438da2a3c80df2f00e0950aadf4b8344332a63300acb538223",
    7: "94fafb8fab5d6811a655b6a35386b142e041929ef3a422f2bf2b3a4fdb61cb45",
    8: "2b3e18899516e1736e7d31b67ced767cb79c52a49df350ebf5f37c5382ddaeea",
}


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 1), (3, 3), (4, 12), (5, 55), (6, 273)]
    )
    def test_known_counts(self, n, expected):
        assert len(all_trees(n)) == expected
        assert count_endstates(n) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force_filter(self, n):
        assert {t.edges for t in all_trees(n)} == brute_force_ncts(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_order_pinned(self, n):
        # sha256 of the sorted edge lists, in order, from the backtracking
        # search this enumerator replaced
        edge_lists = repr([sorted(t.edges) for t in all_trees(n)])
        assert hashlib.sha256(edge_lists.encode()).hexdigest() == TREE_DIGESTS[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_trees_are_as_constructed(self, n):
        # built through game._made, without the constructor's checks: each tree
        # is the one the constructor builds, and stores a frozenset of int pairs
        for tree in all_trees(n):
            public = NoncrossingTree(n, sorted(tree.edges))
            assert tree == public and hash(tree) == hash(public)
            assert type(tree.n) is int and type(tree.edges) is frozenset
            assert all(type(a) is int and type(b) is int for a, b in tree.edges)

    def test_order_nine(self):
        trees = enumerate_noncrossing_trees(9)
        assert len({t.edges for t in trees}) == len(trees) == count_endstates(9)
        keys = [sorted(t.edges) for t in trees]
        assert keys == sorted(keys)

    def test_closed_form_n7(self):
        assert count_endstates(7) == math.comb(18, 6) // 13
        assert math.comb(18, 6) % 13 == 0

    def test_count_rejects_zero(self):
        with pytest.raises(ValueError):
            count_endstates(0)

    def test_count_checks_its_division(self, monkeypatch, capsys):
        # a binomial that the closed form's denominator does not divide
        monkeypatch.setattr(trees.math, "comb", lambda n, k: 7)
        with pytest.raises(ArithmeticError, match=r"^C\(6,2\) is not divisible by 5$"):
            count_endstates(3)
        assert cli.main(["counts", "3"]) == 2
        assert capsys.readouterr().err == "error: C(6,2) is not divisible by 5\n"


class TestSerialization:
    def test_json_round_trip(self):
        tree = EIGHT_VERTEX_TREE
        obj = json.loads(edges_to_json(tree.n, tree.edges))
        assert obj["edges"] == sorted(sorted(e) for e in tree.edges)
        assert NoncrossingTree.from_edges(obj["n"], map(tuple, obj["edges"])) == tree

    @pytest.mark.parametrize(
        "text,field",
        [
            ('{"edges": [[1, 2]]}', "'n'"),
            ('{"n": 2}', "'edges'"),
            ('{"n": 2, "edges": {"1": 2}}', "'edges'"),
            ('{"n": 2, "edges": [[1, "2"]]}', "'edges'"),
        ],
    )
    def test_malformed_json_names_the_field(self, text, field):
        with pytest.raises(ValueError, match=field):
            _from_json(text, "edges")

    def test_dot_marks_primary_edges(self):
        dot = tree_to_dot(EIGHT_VERTEX_TREE)
        assert "graph" in dot
        assert "5 -- 8 [primary=true" in dot
        assert "2 -- 4;" in dot
