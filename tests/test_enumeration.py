"""Enumerators, counting formulas, and the verification harness."""

import hashlib
import itertools
import math

import pytest

from planted_sprouts import (
    PlaySequence,
    cli,
    count_endstates,
    count_plays,
    enumeration,
    enumerate_games,
    game,
    game_to_parking,
    game_to_transpositions,
    games_with_endstate,
    parking_to_game,
    replay,
    transpositions_to_game,
    tree_to_canonical_game,
    variant_counts,
    verify_all,
)
from planted_sprouts.enumeration import count_plays_recursive

from helpers import SerialPool, all_plays, all_trees


# verify_all(n).to_json() for n = 1..7 with the default cutoffs, byte for byte; n = 7
# is the report of `planted-sprouts verify 7 --format json`.
DEFAULT_REPORTS = [
    '{"checks": {"cycle_growth": true, "endstate_count": true, "factorization_image": true, "factorization_product": true, "parking_image": true, "parking_injective": true, "parking_round_trip": true, "play_count_power": true, "play_count_recursion": true, "poset_linear_extensions": true, "primary_edge_coherence": true, "realization_round_trip": true, "signatures_are_noncrossing_trees": true, "tree_bijection_image": true, "variant_formulas": true}, "endstates_distinct": 1, "fact_image_size": 1, "formula_a_n": 1, "formula_b_n": 1, "n": 1, "passed": true, "pf_image_size": 1, "plays_enumerated": 1, "recursion_b_n": 1}',
    '{"checks": {"cycle_growth": true, "endstate_count": true, "factorization_image": true, "factorization_product": true, "parking_image": true, "parking_injective": true, "parking_round_trip": true, "play_count_power": true, "play_count_recursion": true, "poset_linear_extensions": true, "primary_edge_coherence": true, "realization_round_trip": true, "signatures_are_noncrossing_trees": true, "tree_bijection_image": true, "variant_formulas": true}, "endstates_distinct": 1, "fact_image_size": 1, "formula_a_n": 1, "formula_b_n": 1, "n": 2, "passed": true, "pf_image_size": 1, "plays_enumerated": 1, "recursion_b_n": 1}',
    '{"checks": {"cycle_growth": true, "endstate_count": true, "factorization_image": true, "factorization_product": true, "parking_image": true, "parking_injective": true, "parking_round_trip": true, "play_count_power": true, "play_count_recursion": true, "poset_linear_extensions": true, "primary_edge_coherence": true, "realization_round_trip": true, "signatures_are_noncrossing_trees": true, "tree_bijection_image": true, "variant_formulas": true}, "endstates_distinct": 3, "fact_image_size": 3, "formula_a_n": 3, "formula_b_n": 3, "n": 3, "passed": true, "pf_image_size": 3, "plays_enumerated": 3, "recursion_b_n": 3}',
    '{"checks": {"cycle_growth": true, "endstate_count": true, "factorization_image": true, "factorization_product": true, "parking_image": true, "parking_injective": true, "parking_round_trip": true, "play_count_power": true, "play_count_recursion": true, "poset_linear_extensions": true, "primary_edge_coherence": true, "realization_round_trip": true, "signatures_are_noncrossing_trees": true, "tree_bijection_image": true, "variant_formulas": true}, "endstates_distinct": 12, "fact_image_size": 16, "formula_a_n": 12, "formula_b_n": 16, "n": 4, "passed": true, "pf_image_size": 16, "plays_enumerated": 16, "recursion_b_n": 16}',
    '{"checks": {"cycle_growth": true, "endstate_count": true, "factorization_image": true, "factorization_product": true, "parking_image": true, "parking_injective": true, "parking_round_trip": true, "play_count_power": true, "play_count_recursion": true, "poset_linear_extensions": true, "primary_edge_coherence": true, "realization_round_trip": true, "signatures_are_noncrossing_trees": true, "tree_bijection_image": true, "variant_formulas": true}, "endstates_distinct": 55, "fact_image_size": 125, "formula_a_n": 55, "formula_b_n": 125, "n": 5, "passed": true, "pf_image_size": 125, "plays_enumerated": 125, "recursion_b_n": 125}',
    '{"checks": {"cycle_growth": true, "endstate_count": true, "factorization_product": true, "parking_image": true, "parking_injective": true, "parking_round_trip": true, "play_count_power": true, "play_count_recursion": true, "poset_linear_extensions": true, "primary_edge_coherence": true, "realization_round_trip": true, "signatures_are_noncrossing_trees": true, "tree_bijection_image": true, "variant_formulas": true}, "endstates_distinct": 273, "fact_image_size": null, "formula_a_n": 273, "formula_b_n": 1296, "n": 6, "passed": true, "pf_image_size": 1296, "plays_enumerated": 1296, "recursion_b_n": 1296}',
    '{"checks": {"endstate_count": true, "factorization_product": true, "parking_image": true, "parking_injective": true, "parking_round_trip": true, "play_count_power": true, "play_count_recursion": true, "primary_edge_coherence": true, "realization_round_trip": true, "signatures_are_noncrossing_trees": true, "tree_bijection_image": true, "variant_formulas": true}, "endstates_distinct": 1428, "fact_image_size": null, "formula_a_n": 1428, "formula_b_n": 16807, "n": 7, "passed": true, "pf_image_size": 16807, "plays_enumerated": 16807, "recursion_b_n": 16807}',
]


class TestEnumerateGames:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
    def test_counts(self, n, expected):
        assert len(all_plays(n)) == expected

    def test_deterministic(self):
        assert list(enumerate_games(5)) == list(enumerate_games(5))

    def test_no_duplicates(self):
        plays = all_plays(5)
        assert len(set(plays)) == len(plays)

    def test_first_arc_partition(self):
        # the parts, first arcs taken in lexicographic order, are the whole walk in order
        for n in (2, 3, 4, 5, 6):
            parts = []
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    part = [arcs for arcs, _ in game._walk_plays(n, (i, j))]
                    assert part and all(arcs[0] == (i, j) for arcs in part)
                    parts += part
            assert parts == [play.moves for play in all_plays(n)]

    def test_walk_order_pinned(self):
        plays = list(game._walk_plays(6))
        assert len(plays) == 1296
        assert plays[0] == (
            ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
            ((1, 6), (2, 6), (3, 6), (4, 6), (5, 6)),
        )
        assert plays[-1] == (
            ((5, 6), (4, 6), (3, 6), (2, 6), (1, 6)),
            ((4, 5), (3, 4), (2, 3), (1, 2), (1, 6)),
        )
        digest = hashlib.sha256(repr(plays).encode()).hexdigest()
        assert digest == "d3cb56d0c637c4b43c83741305f0faa02b7d910c984b79efcf9aa8b3a49f2425"

    @pytest.mark.parametrize("n", range(2, 9))
    def test_part_sizes_are_the_split_recursion_terms(self, n):
        # the plays whose first arc (i, j) has gap g = j - i number the term
        # C(n-2, g-1) b_g b_(n-g) of count_plays_recursive's split recursion
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                g = j - i
                term = math.comb(n - 2, g - 1) * count_plays(g) * count_plays(n - g)
                assert sum(1 for _ in game._walk_plays(n, (i, j))) == term, (i, j)

    def test_walk_of_order_one_and_bad_first_arcs(self):
        assert list(game._walk_plays(1)) == [((), ())]
        for arc in ((2, 1), (1, 1), (0, 2), (3, 5)):
            assert list(game._walk_plays(4, arc)) == []

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            next(enumerate_games(0))


def _sorted_pairs(pairs):
    return all(type(p) is tuple and len(p) == 2 and p[0] < p[1] for p in pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_arc_is_one_sorted_pair(n):
    # moves, arc labels and ccw pairs have the form of tree edges and
    # transpositions, and enumerate_games passes the walk's arcs on as they are
    plays = list(enumerate_games(n))
    assert [play.moves for play in plays] == [arcs for arcs, _ in game._walk_plays(n)]
    for play in plays:
        made = (
            play,
            PlaySequence.of(n, [(j, i) for i, j in play.moves]),
            parking_to_game(game_to_parking(play)),
            transpositions_to_game(game_to_transpositions(play)),
        )
        assert all(_sorted_pairs(p.moves) and p.moves == play.moves for p in made)
        history = replay(play).history
        assert _sorted_pairs(rec.arc_label for rec in history)
        assert _sorted_pairs(rec.ccw_pair for rec in history)
    for tree in all_trees(n):
        made = [tree_to_canonical_game(tree), *games_with_endstate(tree)]
        assert all(_sorted_pairs(p.moves) for p in made)


class TestCountPlays:
    def test_formula(self):
        assert count_plays(4) == 16
        assert count_plays(2) == 1
        assert count_plays(10) == 100000000

    def test_base_case(self):
        assert count_plays(1) == 1


class TestRecursion:
    def test_hand_value_n3(self):
        # (3/2) * (C(1,0)*1*1 + C(1,1)*1*1) = 3
        assert count_plays_recursive(3) == 3

    def test_base_n2(self):
        assert count_plays_recursive(2) == 1

    def test_matches_power_up_to_20(self):
        for n in range(1, 21):
            assert count_plays_recursive(n) == count_plays(n)

    def test_independent_evaluation(self):
        # recompute the recursion from scratch without the package memo
        b = {1: 1}
        for n in range(2, 13):
            total = sum(math.comb(n - 2, i - 1) * b[i] * b[n - i] for i in range(1, n))
            assert (n * total) % 2 == 0
            b[n] = n * total // 2
        for n, value in b.items():
            assert count_plays_recursive(n) == value


class TestVariantCounts:
    def test_n3(self):
        assert variant_counts(3) == (3, 3, 9, 9)

    def test_n1(self):
        assert variant_counts(1) == (1, 1, 1, 1)

    def test_n6_plane_endstates(self):
        assert variant_counts(6)[2] == 6 * 273 == 1638

    @pytest.mark.parametrize("n", range(1, 8))
    def test_plane_is_n_times_sphere(self, n):
        a, b, plane_a, plane_b = variant_counts(n)
        assert (a, b) == (count_endstates(n), count_plays(n))
        assert (plane_a, plane_b) == (n * a, n * b)


class TestVerifyAll:
    def test_n4_passes(self):
        report = verify_all(4)
        assert report.passed
        assert report.plays_enumerated == 16
        assert report.endstates_distinct == 12
        assert report.pf_image_size == 16
        assert report.fact_image_size == 16

    def test_n6_endstates(self):
        report = verify_all(6)
        assert report.passed
        assert report.endstates_distinct == 273
        # factorization brute force capped below 6
        assert report.fact_image_size is None

    def test_n5_factorization_image(self):
        report = verify_all(5)
        assert report.passed
        assert report.fact_image_size == 125

    def test_selected_checks_only(self):
        report = verify_all(5, checks=["play_count_power", "endstate_count"])
        assert [name for name, _ in report.checks] == ["play_count_power", "endstate_count"]
        assert report.passed

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            verify_all(4, checks=["no_such_check"])

    def test_parallel_matches_serial(self):
        serial = verify_all(5)
        parallel = verify_all(5, jobs=2)
        assert parallel.passed
        assert parallel.plays_enumerated == serial.plays_enumerated
        assert parallel.endstates_distinct == serial.endstates_distinct
        assert dict(parallel.checks) == dict(serial.checks)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_parallel_flags_and_split_walk_match_serial(self, n):
        # real worker processes: the flag arrays merge by OR across parts
        checks = ["parking_injective", "parking_image", "cycle_growth"]
        serial = verify_all(n, checks=checks)
        assert serial.passed and serial.pf_image_size == serial.formula_b_n
        assert verify_all(n, checks=checks, jobs=2).to_json() == serial.to_json()

    def test_report_serialization(self):
        report = verify_all(3)
        assert '"passed": true' in report.to_json()
        assert "overall: PASS" in report.to_table()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_default_report_bytes(self, n):
        assert verify_all(n).to_json() == DEFAULT_REPORTS[n - 1]

    @pytest.mark.parametrize(
        "name,check",
        [
            ("parking_to_game", "parking_round_trip"),
            ("transpositions_to_game", "factorization_image"),
            ("_cycle_steps", "cycle_growth"),
            ("compose_in_order", "factorization_product"),
            ("game_to_parking", "parking_round_trip"),
            ("tree_to_canonical_game", "realization_round_trip"),
            ("games_with_endstate", "poset_linear_extensions"),
            ("count_endstates", "endstate_count"),
            ("is_noncrossing_tree", "signatures_are_noncrossing_trees"),
            ("_parking_flags", "parking_image"),
            ("find_primary_edge", "primary_edge_coherence"),
            ("count_plays_recursive", "play_count_recursion"),
        ],
    )
    def test_wrong_map_fails_only_its_check(self, monkeypatch, capsys, name, check):
        # wrong on the last play or tree enumerated only, which with jobs is in the
        # last part, on the star at vertex 1, on the first parking function or in
        # a count; every check runs at n=5, the ones named here among them
        right, last = getattr(enumeration, name), list(enumerate_games(5))[-1]
        last_ccw = game_to_transpositions(last).transpositions
        first_tree, *_, last_tree = all_trees(5)
        star = frozenset((1, k) for k in range(2, 6))

        def wrong(obj):
            play = right(obj)
            return next(enumerate_games(5)) if play == last else play

        def rejects(obj):
            play = right(obj)
            if play == last:
                raise ValueError("not in the image")
            return play

        def merges(n, ccw):  # the split walk's last step is a merge
            steps = tuple(right(n, ccw))
            return (*steps[:-1], -1) if ccw == last_ccw else steps

        def misplaces(n, ccw):  # the product is not the successor cycle
            product = right(n, ccw)
            return product[::-1] if ccw == last_ccw else product

        # the maps build their outputs without the constructors' checks, so these
        # mutants do too: one reversed pair, which PlaySequence rejects, and a
        # value off by one
        def reverses(pf):
            play = right(pf)
            if play != last:
                return play
            return game._made(PlaySequence, 5, "moves", (*play.moves[:-1], play.moves[-1][::-1]))

        def off_by_one(play):
            pf = right(play)
            if play != last:
                return pf
            return game._made(type(pf), 5, "values", (*pf.values[:-1], pf.values[-1] + 1))

        def elsewhere(tree):  # another tree's play
            return right(first_tree if tree == last_tree else tree)

        def drops(tree):  # one play fewer
            plays = right(tree)
            return plays[:-1] if tree == last_tree else plays

        def rejects_tree(tree, **start):  # the tree maps' own ValueError
            if tree == last_tree:
                raise ValueError("not in the image")
            return right(tree, **start)

        def illegal(tree):  # the last move repeats the first arc, which replay rejects
            play = right(tree)
            if tree != last_tree:
                return play
            return game._made(PlaySequence, 5, "moves", (*play.moves[:-1], play.moves[0]))

        def one_more(n):
            return right(n) + 1

        def rejects_star(n, edges):
            return frozenset(edges) != star and right(n, edges)

        def clears_first(n):  # the flag of the values 1, 1, 1, 1
            flags = right(n)
            flags[0] &= 0xFE
            return flags

        def off_star(tree, start=1):
            return (0, 0) if tree.edges == star else right(tree, start)

        fakes = {
            "count_endstates": (one_more,),
            "count_plays_recursive": (one_more,),
            "is_noncrossing_tree": (rejects_star,),
            "_parking_flags": (clears_first,),
            "find_primary_edge": (off_star, rejects_tree),
            "parking_to_game": (wrong, rejects, reverses),
            "_cycle_steps": (merges,),
            "compose_in_order": (misplaces,),
            "game_to_parking": (off_by_one,),
            "tree_to_canonical_game": (elsewhere, illegal, rejects_tree),
            "games_with_endstate": (drops, rejects_tree),
        }
        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", SerialPool)
        for fake, jobs in itertools.product(fakes.get(name, (wrong, rejects)), (1, 2)):
            monkeypatch.setattr(enumeration, name, fake)
            report = verify_all(5, jobs=jobs)
            verdicts = dict(report.checks)
            assert verdicts.pop(check) is False
            assert len(verdicts) == 14 and all(verdicts.values())
            assert not report.passed
            assert cli.main(["verify", "5", "--jobs", str(jobs)]) == 1
            out = capsys.readouterr().out
            assert f"FAIL  {check}" in out and "overall: FAIL" in out

    @pytest.mark.parametrize(
        "name,failing",
        [
            ("enumerate_noncrossing_trees", {"tree_bijection_image"}),
            (
                "count_plays",
                {"play_count_power", "play_count_recursion", "poset_linear_extensions"},
            ),
            (
                "_walk_plays",
                {
                    "parking_injective",
                    "parking_image",
                    "endstate_count",
                    "factorization_image",
                    "tree_bijection_image",
                },
            ),
        ],
        ids=["tree_bijection_image", "play_count_power", "parking_injective"],
    )
    def test_shared_fault_fails_exactly_these_checks(self, monkeypatch, name, failing):
        # faults in what several checks read: each fails exactly the checks in
        # the README's audit table, serially and with jobs 2 (SerialPool runs
        # the parts in this process, as fork would with the fake in place)
        right = getattr(enumeration, name)

        def first_tree_last(n):  # the first tree in place of the last
            trees = right(n)
            return [*trees[:-1], trees[0]]

        def one_more(n):
            return right(n) + 1

        def first_play_last(n, first_arc=None):  # the last play of the last part
            plays = list(right(n, first_arc))
            if first_arc in (None, (n - 1, n)):
                plays[-1] = next(right(n))
            return iter(plays)

        fakes = {
            "enumerate_noncrossing_trees": first_tree_last,
            "count_plays": one_more,
            "_walk_plays": first_play_last,
        }
        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(enumeration, name, fakes[name])
        for jobs in (1, 2):
            report = verify_all(5, jobs=jobs)
            assert len(report.checks) == 15 and not report.passed
            assert {check for check, ok in report.checks if not ok} == failing

    def test_checks_read_only_what_they_need(self, monkeypatch):
        def unused(*args):
            raise AssertionError("the parking round trip ran")

        monkeypatch.setattr(enumeration, "parking_to_game", unused)
        monkeypatch.setattr(enumeration, "game_to_parking", unused)
        report = verify_all(6, checks=["parking_injective", "parking_image"])
        assert report.passed and report.pf_image_size == 1296

    def test_parking_image_fails_without_any_one_rising_sequence(self, monkeypatch):
        right = enumeration._sorted_parking_functions
        for n, drops in ((5, range(14)), (7, (131,))):
            for drop in drops:

                def short(m):
                    return (r for k, r in enumerate(right(m)) if k != drop)

                monkeypatch.setattr(enumeration, "_sorted_parking_functions", short)
                report = verify_all(n, checks=["parking_image", "parking_injective"])
                assert report.checks == [("parking_injective", True), ("parking_image", False)]

    @pytest.mark.parametrize("fails", [0, 7])
    def test_a_failed_test_is_not_called_again(self, monkeypatch, fails):
        # the per-play test stops at its first failure, on a raise or on a wrong play,
        # while the walk and the other tests go on over every play
        right, calls = enumeration.parking_to_game, []

        def counted(pf):
            calls.append(pf)
            if len(calls) == 1 and not fails:
                raise ValueError("rejected")
            return right(pf) if len(calls) < fails else PlaySequence(pf.n, ())

        monkeypatch.setattr(enumeration, "parking_to_game", counted)
        report = verify_all(5, checks=["parking_round_trip", "factorization_product"])
        assert report.checks == [("parking_round_trip", False), ("factorization_product", True)]
        assert len(calls) == max(fails, 1) and report.plays_enumerated == 125

    def test_round_trip_alone_gathers_no_parking_set(self):
        report = verify_all(5, checks=["parking_round_trip"])
        assert report.passed and report.pf_image_size is None

    def test_round_trip_fails_on_values_that_are_no_parking_function(self, monkeypatch):
        # the check builds its input unchecked: the values n-1, ..., n-1 of a last
        # play with ccw pairs (n-1, n) still map to a play, which cannot read back
        walk, right, returned = enumeration._walk_plays, enumeration.parking_to_game, []

        def last_play_bad(n, first_arc=None):
            plays = list(walk(n, first_arc))
            plays[-1] = plays[-1][0], ((n - 1, n),) * (n - 1)
            yield from plays

        def spied(pf):
            play = right(pf)
            returned.append((pf.values, len(play.moves)))
            return play

        monkeypatch.setattr(enumeration, "_walk_plays", last_play_bad)
        monkeypatch.setattr(enumeration, "parking_to_game", spied)
        report = verify_all(5, checks=["parking_round_trip"])
        assert report.checks == [("parking_round_trip", False)]
        assert len(returned) == 125 and returned[-1] == ((4, 4, 4, 4), 4)
