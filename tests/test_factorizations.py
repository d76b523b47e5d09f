"""Play <-> cycle factorization bijection."""

import itertools

import pytest
from hypothesis import given, settings

from planted_sprouts import (
    ParkingFunction,
    PlaySequence,
    TranspositionSeq,
    game_to_transpositions,
    parking_to_game,
    transpositions_to_game,
)
from planted_sprouts import factorizations
from planted_sprouts.factorizations import compose_in_order, enumerate_factorizations, successor_cycle
from planted_sprouts.enumeration import _cycle_steps
from planted_sprouts.formats import seq_from_text, seq_to_text

from helpers import all_plays, cycle_count, parking_functions


class TestCompose:
    def test_hand_example(self):
        assert compose_in_order(3, [(1, 3), (2, 3)]) == (2, 3, 1)

    def test_empty_product_is_identity(self):
        assert compose_in_order(1, []) == (1,)

    def test_two_elements(self):
        assert compose_in_order(2, [(1, 2)]) == successor_cycle(2) == (2, 1)

    def test_cycle_count(self):
        assert cycle_count((2, 3, 1)) == 1
        assert cycle_count((1, 3, 2)) == 2
        assert cycle_count((1, 2, 3, 4)) == 4


class TestTranspositionSeq:
    def test_validates_product(self):
        with pytest.raises(ValueError):
            TranspositionSeq.of(3, [(1, 2), (1, 2)])

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            TranspositionSeq.of(3, [(1, 4), (2, 3)])

    def test_text_round_trip(self):
        seq = TranspositionSeq.of(3, [(1, 3), (2, 3)])
        assert seq_to_text(seq) == "1:3,2:3"
        assert seq_from_text(3, "1:3,2:3") == seq


class TestGameToTranspositions:
    def test_hand_example(self):
        play = PlaySequence.of(3, [(1, 2), (2, 3)])
        assert game_to_transpositions(play).transpositions == ((1, 3), (2, 3))

    def test_order_2(self):
        play = PlaySequence.of(2, [(1, 2)])
        assert game_to_transpositions(play).transpositions == ((1, 2),)

    def test_n3_image_is_all_factorizations(self):
        image = {game_to_transpositions(p).transpositions for p in all_plays(3)}
        brute = {seq.transpositions for seq in enumerate_factorizations(3)}
        assert len(image) == 3
        assert image == brute

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_products_are_the_successor_cycle(self, n):
        target = successor_cycle(n)
        for play in all_plays(n):
            seq = game_to_transpositions(play)
            assert compose_in_order(n, seq.transpositions) == target

    @pytest.mark.parametrize(
        "pairs",
        [((1, 2), (1, 2), (1, 2)), ((1, 2), (2, 3), (3, 4)), ((1, 4), (1, 3), (1, 2))],
    )
    def test_product_checked_past_the_move_loop(self, monkeypatch, pairs):
        # the ccw pairs of no legal play, past the move loop: a repeated pair and
        # two factorizations of the inverse cycle; the map tests their product itself
        assert compose_in_order(4, pairs) != successor_cycle(4)
        monkeypatch.setattr(factorizations, "_ccw_pairs", lambda play: pairs)
        play = PlaySequence.of(4, [(1, 2), (1, 3), (1, 4)])
        with pytest.raises(ValueError, match="^in-order product is not the successor cycle$"):
            game_to_transpositions(play)


class TestTranspositionsToGame:
    def test_hand_inverse(self):
        seq = TranspositionSeq.of(3, [(2, 3), (1, 2)])
        assert transpositions_to_game(seq) == PlaySequence.of(3, [(1, 3), (1, 2)])

    def test_order_2(self):
        seq = TranspositionSeq.of(2, [(1, 2)])
        assert transpositions_to_game(seq) == PlaySequence.of(2, [(1, 2)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip_both_directions(self, n):
        for play in all_plays(n):
            assert transpositions_to_game(game_to_transpositions(play)) == play
        for seq in enumerate_factorizations(n):
            assert game_to_transpositions(transpositions_to_game(seq)) == seq


@settings(deadline=None)
@given(parking_functions(max_n=2000))
def test_round_trip_large_play(drawn):
    n, values = drawn
    play = parking_to_game(ParkingFunction(n, values))
    seq = game_to_transpositions(play)
    assert compose_in_order(n, seq.transpositions) == successor_cycle(n)
    assert transpositions_to_game(seq) == play


class TestEnumerateFactorizations:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)])
    def test_counts(self, n, expected):
        assert len(enumerate_factorizations(n)) == expected

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bijection_at_desk_scale(self, n):
        image = {game_to_transpositions(p).transpositions for p in all_plays(n)}
        brute = {seq.transpositions for seq in enumerate_factorizations(n)}
        assert len(image) == len(all_plays(n))
        assert image == brute


class TestProperties:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_each_prefix_adds_one_cycle(self, n):
        for play in all_plays(n):
            seq = game_to_transpositions(play).transpositions
            counts = list(itertools.accumulate(_cycle_steps(n, seq), initial=1))
            assert counts == list(range(1, n + 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_split_walk_counts_cycles(self, n):
        # every sequence of up to 4 transpositions, merges included
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        for length in range(5):
            for seq in itertools.product(pairs, repeat=length):
                perm, counts = list(successor_cycle(n)), [1]
                for a, b in seq:
                    perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
                    counts.append(cycle_count(perm))
                assert list(itertools.accumulate(_cycle_steps(n, seq), initial=1)) == counts

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_conjugation_closure(self, n):
        brute = {seq.transpositions for seq in enumerate_factorizations(n)}
        shifted = {
            tuple(tuple(sorted((a % n + 1, b % n + 1))) for a, b in seq) for seq in brute
        }
        assert shifted == brute

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_arc_label_variant_composes_in_reverse(self, n):
        # the arc labels themselves also factor the cycle, but with the
        # last-listed transposition applied first
        target = successor_cycle(n)
        for play in all_plays(n):
            assert compose_in_order(n, play.moves[::-1]) == target
