"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s or -rA)
and asserts the criterion.
"""

import itertools
import math

import pytest

from planted_sprouts import (
    ParkingFunction,
    build_poset,
    count_endstates,
    count_plays,
    endstate_to_tree,
    enumerate_games,
    game_to_parking,
    game_to_transpositions,
    games_with_endstate,
    is_noncrossing_tree,
    is_parking_function,
    linear_extensions,
    parking_to_game,
    primary_edges,
    replay,
    tree_to_canonical_game,
    variant_counts,
)
from planted_sprouts.enumeration import count_plays_recursive
from planted_sprouts.factorizations import compose_in_order, enumerate_factorizations, successor_cycle
from planted_sprouts.trees import find_primary_edge, is_pivotable_clockwise

from helpers import all_plays, all_trees


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_endstate_counts():
    expected = {1: 1, 2: 1, 3: 3, 4: 12, 5: 55, 6: 273, 7: 1428}
    ok = True
    for n in range(1, 8):
        signatures = {frozenset(p.moves) for p in all_plays(n)}
        ok = ok and len(signatures) == expected[n] == count_endstates(n)
    ok = ok and count_endstates(7) == math.comb(18, 6) // 13 == 1428
    report("1 endstate counts (n=1..7)", ok)


def test_criterion_02_play_counts():
    ok = True
    for n in range(1, 8):
        ok = ok and len(all_plays(n)) == count_plays(n)
    # n = 8 streamed: 262,144 plays
    ok = ok and sum(1 for _ in enumerate_games(8)) == 8**6 == count_plays(8)
    report("2 play counts n^(n-2) (n=1..8)", ok)


def test_criterion_03_recursion():
    ok = all(count_plays_recursive(n) == count_plays(n) for n in range(1, 21))
    report("3 recursion equals n^(n-2) (n=1..20)", ok)


def test_criterion_04_tree_bijection():
    ok = True
    for n in range(1, 8):
        signatures = [frozenset(p.moves) for p in all_plays(n)]
        distinct = set(signatures)
        ok = ok and all(is_noncrossing_tree(n, sig) for sig in distinct)
        # injectivity on endstates: distinct signature count equals the
        # endstate count, and the image is exactly the independent NCT set
        ok = ok and distinct == {t.edges for t in all_trees(n)}
        ok = ok and len(distinct) == count_endstates(n)
    report("4 tree bijection image and injectivity (n<=7)", ok)


def test_criterion_05_realization_round_trip():
    ok = True
    for n in range(1, 8):
        for tree in all_trees(n):
            play = tree_to_canonical_game(tree)
            ok = ok and endstate_to_tree(replay(play)) == tree
    report("5 realization round trip (n<=7)", ok)


def test_criterion_06_parking_bijection():
    ok = True
    for n in range(1, 8):
        plays = all_plays(n)
        image = set()
        for play in plays:
            pf = game_to_parking(play)
            image.add(pf.values)
            ok = ok and parking_to_game(pf) == play
        ok = ok and len(image) == len(plays)
        brute = {
            values
            for values in itertools.product(range(1, n), repeat=n - 1)
            if is_parking_function(n, values)
        }
        ok = ok and image == brute and len(brute) == count_plays(n)
        for values in brute:
            ok = ok and game_to_parking(parking_to_game(ParkingFunction(n, values))).values == values
    report("6 parking bijection and round trips (n<=7)", ok)


def test_criterion_07_factorization_bijection():
    ok = True
    expected = {1: 1, 2: 1, 3: 3, 4: 16, 5: 125}
    for n in range(1, 6):
        image = {game_to_transpositions(p).transpositions for p in all_plays(n)}
        brute = {seq.transpositions for seq in enumerate_factorizations(n)}
        ok = ok and len(image) == len(all_plays(n)) == expected[n]
        ok = ok and image == brute
    for n in range(1, 8):
        target = successor_cycle(n)
        for play in all_plays(n):
            seq = game_to_transpositions(play)
            ok = ok and compose_in_order(n, seq.transpositions) == target
    report("7 factorization bijection (image n<=5, product n<=7)", ok)


def test_criterion_08_poset_equivalence():
    ok = True
    for n in range(1, 7):
        total = 0
        for tree in all_trees(n):
            extensions = set(linear_extensions(build_poset(tree)))
            orders = {play.moves for play in games_with_endstate(tree)}
            ok = ok and extensions == orders
            total += len(extensions)
        ok = ok and total == count_plays(n)
    report("8 poset linear extensions equal play orders (n<=6)", ok)


def test_criterion_09_primary_edge_coherence():
    ok = True
    for n in range(2, 8):
        for tree in all_trees(n):
            prim = primary_edges(tree)
            ok = ok and bool(prim)
            for e in tree.edges:
                ok = ok and is_pivotable_clockwise(tree, e) == (e not in prim)
            ok = ok and build_poset(tree).minimal_elements() == prim
            for start in range(1, n + 1):
                ok = ok and find_primary_edge(tree, start=start) in prim
    report("9 primary edges = non-pivotable = poset minima (n<=7)", ok)


def test_criterion_10_variant_counts():
    ok = True
    for n in range(1, 8):
        a, b, plane_a, plane_b = variant_counts(n)
        ok = ok and (a, b) == (count_endstates(n), count_plays(n))
        ok = ok and plane_a == n * a and plane_b == n * b
    report("10 plane-star counts are n times sphere counts (n<=7)", ok)
