"""Play <-> parking function bijection."""

import itertools
import math
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from planted_sprouts import (
    NoncrossingTree,
    ParkingFunction,
    enumeration,
    game,
    parking,
    PlaySequence,
    game_to_parking,
    is_parking_function,
    parking_to_game,
    tree_to_canonical_game,
)
from planted_sprouts.formats import parking_from_text, parking_to_text

from helpers import (
    all_plays,
    parking_functions,
    pollak_shift,
    tree_families,
    value_families,
    walk_parking_to_game,
)


def brute_force_parking_functions(n):
    return {
        values
        for values in itertools.product(range(1, n), repeat=n - 1)
        if is_parking_function(n, values)
    }


class Label(int):
    """An int subclass: accepted as an int, stored as one."""


def sorted_rule(n, values):
    """The definition: n-1 integer entries, all at least 1, whose sorted
    entries satisfy a'_k <= k."""
    values = tuple(values)
    if len(values) != n - 1 or not all(isinstance(v, int) for v in values):
        return False
    return all(v >= 1 for v in values) and all(
        v <= k for k, v in enumerate(sorted(values), start=1)
    )


class TestIsParkingFunction:
    def test_sorted_prefix_holds(self):
        assert is_parking_function(3, (1, 2))

    def test_sorted_prefix_fails(self):
        assert not is_parking_function(3, (2, 2))

    def test_out_of_range_value(self):
        assert not is_parking_function(3, (1, 3))
        assert not is_parking_function(3, (0, 1))
        assert not is_parking_function(4, (-1, 1, 2))

    def test_wrong_length(self):
        assert not is_parking_function(4, (1, 2))

    def test_count_n5(self):
        # 125 = 5^3 of the 4^4 candidates
        assert len(brute_force_parking_functions(5)) == 125

    def test_invalid_constructor(self):
        with pytest.raises(ValueError):
            ParkingFunction(3, (2, 2))

    @pytest.mark.parametrize("n", range(0, 7))
    def test_counts_match_sorted_rule_on_every_tuple(self, n):
        # every tuple over -1..n of length n-2, n-1 and n
        for length in (n - 2, n - 1, n):
            for values in itertools.product(range(-1, n + 1), repeat=max(length, 0)):
                assert is_parking_function(n, values) == sorted_rule(n, values), values

    @pytest.mark.parametrize(
        "values",
        [
            (True,),
            (True, True),
            (True, 2),
            (False, 1),
            (1.0, 1),
            (1, 1.5),
            (float("nan"), 1),
            ("1", 1),
            ("a", "b"),
            ((1,), 1),
            ([1], 1),
            (None, 1),
            (1, 2**70),
            (-(2**70), 1),
            (Label(1),),
            (Label(1), Label(1)),
            (Label(2), 1),
            (Label(3), 1),
            (Label(0), 1),
            (True, Label(2)),
            (True, False),
            (0, 1),
            (1, 0),
        ],
    )
    def test_counts_match_sorted_rule_on_other_values(self, values):
        for n in (len(values), len(values) + 1, len(values) + 2):
            assert is_parking_function(n, values) == sorted_rule(n, values)
            assert is_parking_function(n, iter(values)) == sorted_rule(n, values)


def decode_flags(n, flags):
    """The value tuples at the set flags: flag k is bit k & 7 of byte k >> 3,
    read as n-1 digits in base n-1, most significant first, each plus 1."""
    size = (n - 1) ** (n - 1)
    assert len(flags) == (size + 7) >> 3
    out = set()
    for number in (k for k in range(size) if flags[k >> 3] >> (k & 7) & 1):
        digits = []
        for _ in range(n - 1):
            number, digit = divmod(number, n - 1)
            digits.append(digit + 1)
        out.add(tuple(reversed(digits)))
    return out


class TestGeneratedImage:
    """verify's parking image is generated as flags; the filter above is its
    oracle."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_filtered_candidates(self, n):
        flags = enumeration._parking_flags(n)
        assert not int.from_bytes(flags, "little") >> (n - 1) ** (n - 1)  # no bit past the flags
        assert decode_flags(n, flags) == brute_force_parking_functions(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_flags_are_the_plays_values(self, n):
        _, sets, _ = enumeration._play_stats(n, None, {"parkings"})
        assert decode_flags(n, sets["parkings"]) == {
            game_to_parking(play).values for play in all_plays(n)
        }

    @pytest.mark.parametrize("n", range(1, 9))
    def test_catalan_many_rising(self, n):
        rising = list(enumeration._sorted_parking_functions(n))
        assert len(rising) == len(set(rising)) == math.comb(2 * n - 2, n - 1) // n
        assert all(list(r) == sorted(r) for r in rising)


class TestGameToParking:
    def test_hand_example_increasing(self):
        play = PlaySequence.of(3, [(1, 2), (2, 3)])
        assert game_to_parking(play).values == (1, 2)

    def test_hand_example_repeated(self):
        play = PlaySequence.of(3, [(2, 3), (1, 3)])
        assert game_to_parking(play).values == (1, 1)

    def test_n3_image_is_all_parking_functions(self):
        image = {game_to_parking(p).values for p in all_plays(3)}
        assert image == {(1, 2), (2, 1), (1, 1)}
        assert len(all_plays(3)) == 3

    @pytest.mark.parametrize(
        "pairs,parks",
        [
            (((1, 2), (1, 3), (1, 4)), True),
            (((3, 4), (1, 4), (1, 2)), True),
            (((2, 3), (2, 4), (2, 4)), False),
            (((3, 4), (3, 4), (1, 2)), False),
            (((1, 2), (3, 4), (3, 4)), False),
            (((2, 3), (3, 4), (2, 4)), False),
        ],
    )
    def test_values_pass_the_sorted_rule_or_raise(self, monkeypatch, pairs, parks):
        # the ccw pairs of no legal play, past the move loop: the map tests the
        # values' sorted rule itself, as its pairs fix their type and range
        monkeypatch.setattr(parking, "_ccw_pairs", lambda play: pairs)
        play = PlaySequence.of(4, [(1, 2), (1, 3), (1, 4)])
        values = tuple(a for a, _ in pairs)
        if parks:
            assert game_to_parking(play) == ParkingFunction(4, values)
        else:
            message = f"not a parking function of length 3: {values}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                game_to_parking(play)

    def test_incomplete_play_rejected(self):
        with pytest.raises(ValueError):
            game_to_parking(PlaySequence.of(4, [(1, 2)]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_values_never_reach_n(self, n):
        for play in all_plays(n):
            assert all(1 <= v <= n - 1 for v in game_to_parking(play).values)


class TestParkingToGame:
    def test_hand_inverse(self):
        play = parking_to_game(ParkingFunction(3, (2, 1)))
        assert play == PlaySequence.of(3, [(1, 3), (1, 2)])

    def test_order_2(self):
        assert parking_to_game(ParkingFunction(2, (1,))) == PlaySequence.of(2, [(1, 2)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_round_trip_both_directions(self, n):
        for play in all_plays(n):
            assert parking_to_game(game_to_parking(play)) == play
        for values in brute_force_parking_functions(n) if n > 1 else {()}:
            pf = ParkingFunction(n, values)
            assert game_to_parking(parking_to_game(pf)).values == values

    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_ends_on_any_values(self, n):
        # the termination argument of the docstring, on every value tuple in 1..n-1,
        # a parking function or not (46,656 at n = 7): n-1 sorted pairs of distinct labels
        for values in itertools.product(range(1, n), repeat=n - 1):
            moves = parking_to_game(game._made(ParkingFunction, n, "values", values)).moves
            assert len(moves) == n - 1 and all(1 <= a < b <= n for a, b in moves), values

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_the_walk_on_every_parking_function(self, n):
        # the O(1) cut, taken when v opens its region and has no value left,
        # gives the play the walk over the cut side gives
        for play in all_plays(n):
            pf = game_to_parking(play)
            assert parking_to_game(pf) == walk_parking_to_game(pf) == play

    @pytest.mark.parametrize("family", [*value_families(3), *tree_families(3)])
    def test_equals_the_walk_on_structured_families(self, family):
        # n = 2000: the walk alone is quadratic on increasing, ones then
        # increasing, the path, the zigzag and the comb, linear on the others
        n = 2000
        if family in value_families(n):
            pf = ParkingFunction(n, value_families(n)[family])
        else:
            pf = game_to_parking(tree_to_canonical_game(NoncrossingTree(n, tree_families(n)[family])))
        assert parking_to_game(pf) == walk_parking_to_game(pf)

    def test_no_walk_over_the_cut_side_on_increasing_values(self):
        # each move of increasing values cuts off all of its region but v, which
        # the reference walks over, n^2/2 steps in all; the cut takes none, so it
        # is about 150 times as fast at n = 3000, and a bound of 20 leaves room
        pf = ParkingFunction(3000, value_families(3000)["increasing"])

        def seconds(to_game):
            start = time.perf_counter()
            to_game(pf)
            return time.perf_counter() - start

        assert 20 * min(seconds(parking_to_game) for _ in range(3)) < seconds(walk_parking_to_game)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_bijective_at_desk_scale(self, n):
        image = {game_to_parking(p).values for p in all_plays(n)}
        assert len(image) == len(all_plays(n)) == n ** (n - 2)
        assert image == brute_force_parking_functions(n)


@given(st.data())
def test_round_trip_random_parking_function(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    # build a parking function constructively: sorted values with a'_k <= k,
    # then scramble
    sorted_vals = [data.draw(st.integers(min_value=1, max_value=k + 1)) for k in range(n - 1)]
    sorted_vals.sort()
    order = data.draw(st.permutations(range(n - 1)))
    values = tuple(sorted_vals[k] for k in order)
    pf = ParkingFunction(n, values)
    assert game_to_parking(parking_to_game(pf)).values == values


def probing_pollak_shift(n, seq):
    """Pollak's shift with each car probing spot by spot, about n^1.5 steps."""
    taken = [False] * n
    for x in seq:
        while taken[x]:
            x = (x + 1) % n
        taken[x] = True
    empty = taken.index(False)
    return tuple((x - empty - 1) % n + 1 for x in seq)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pollak_shift_matches_probing(n):
    for seq in itertools.product(range(n), repeat=n - 1):
        assert pollak_shift(n, seq) == probing_pollak_shift(n, seq), seq


@settings(deadline=None)
@given(parking_functions(max_n=2000))
def test_round_trip_large_parking_function(drawn):
    n, values = drawn
    assert game_to_parking(parking_to_game(ParkingFunction(n, values))).values == values


class TestText:
    def test_round_trip(self):
        pf = ParkingFunction(4, (1, 3, 1))
        assert parking_from_text(4, parking_to_text(pf)) == pf

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            parking_from_text(3, "2,2")
