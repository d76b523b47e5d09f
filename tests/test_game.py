"""Core state machine: moves, splitting, labels, replay, serialization."""

import dataclasses
import itertools
import re

import pytest
from hypothesis import given, settings

from planted_sprouts import (
    GameState,
    IllegalMoveError,
    MoveRecord,
    NoncrossingTree,
    ParkingFunction,
    PlaySequence,
    TranspositionSeq,
    count_endstates,
    count_plays,
    endstate_to_tree,
    enumerate_noncrossing_trees,
    game_to_parking,
    game_to_transpositions,
    games_with_endstate,
    is_noncrossing_tree,
    is_parking_function,
    parking_to_game,
    play_from_text,
    play_to_text,
    replay,
    transpositions_to_game,
    tree_to_canonical_game,
)
from planted_sprouts import game
from planted_sprouts.formats import (
    parking_from_text,
    play_from_json,
    play_to_json,
    read_play,
    seq_from_text,
    tree_from_text,
    write,
)
from planted_sprouts.enumeration import count_plays_recursive
from planted_sprouts.factorizations import enumerate_factorizations
from helpers import (
    all_plays,
    all_trees,
    apply_move,
    canonical_state,
    initial_state,
    locate_labels,
    parking_functions,
    short_of,
    tree_of,
)


def shorts(state):
    return [tuple(short for short, _ in sg) for sg in state.subgames]


class TestNewGame:
    """The state of the play with no moves, which every play starts from."""

    def test_order_4(self):
        state = initial_state(4)
        assert shorts(state) == [(1, 2, 3, 4)]
        assert state.history == ()
        assert all(long == short for sg in state.subgames for short, long in sg)

    def test_order_1_already_complete(self):
        assert initial_state(1).is_complete()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            initial_state(0)


class TestApplyMove:
    def test_split_order_4(self):
        state = apply_move(initial_state(4), 0, 0, 2)
        assert shorts(state) == [(1, 2), (3, 4)]

    def test_split_order_3_ccw_pair(self):
        state = apply_move(initial_state(3), 0, 1, 2)  # join 2 and 3
        assert shorts(state) == [(2,), (3, 1)]
        assert state.history[-1].ccw_pair == (1, 2)

    def test_wraparound_neighbor(self):
        for n in (3, 5, 8):
            state = apply_move(initial_state(n), 0, 0, 1)  # join 1 and 2
            assert shorts(state) == [(1,), tuple(range(2, n + 1))]
            assert state.history[-1].ccw_pair == (1, n)

    def test_long_labels_record_ancestry(self):
        state = apply_move(initial_state(4), 0, 0, 2)
        # new arms carry (old_i, old_j) and (old_j, old_i)
        assert state.subgames[0][0] == (1, (1, 3))
        assert state.subgames[1][0] == (3, (3, 1))

    def test_invalid_positions(self):
        with pytest.raises(ValueError):
            apply_move(initial_state(4), 0, 2, 2)
        with pytest.raises(ValueError):
            apply_move(initial_state(4), 1, 0, 1)


class TestReplay:
    def test_complete_n3(self):
        state = replay(PlaySequence.of(3, [(1, 2), (2, 3)]))
        assert state.is_complete()
        assert sorted(shorts(state)) == [(1,), (2,), (3,)]

    def test_illegal_second_move(self):
        with pytest.raises(IllegalMoveError) as exc:
            replay(PlaySequence.of(3, [(1, 2), (1, 3)]))
        assert exc.value.index == 1
        assert "different subgames" in exc.value.reason

    def test_repeated_arc(self):
        with pytest.raises(IllegalMoveError) as exc:
            replay(PlaySequence.of(4, [(1, 3), (1, 3)]))
        assert exc.value.index == 1
        assert "repeats" in exc.value.reason

    @pytest.mark.parametrize(
        "n,pairs,index,reason",
        [
            (3, [(1, 2), (1, 3)], 1, "labels 1 and 3 lie in different subgames"),
            (4, [(1, 3), (1, 3), (2, 3)], 1, "arc 1-3 repeats an earlier arc"),
            (5, [(1, 3), (3, 5), (1, 2), (3, 1)], 3, "arc 1-3 repeats an earlier arc"),
            (5, [(1, 3), (3, 5), (1, 2), (4, 5)], 3, "labels 4 and 5 lie in different subgames"),
            # longer than any play: the first illegal move, not the last
            (3, [(1, 2), (1, 3), (2, 3), (1, 2)], 1, "labels 1 and 3 lie in different subgames"),
            (3, [(1, 2), (2, 3), (1, 3), (1, 2), (2, 3)], 2, "labels 1 and 3 lie in different subgames"),
        ],
    )
    def test_every_map_rejects_alike(self, n, pairs, index, reason):
        play = PlaySequence.of(n, pairs)
        for fn in (replay, game_to_parking, game_to_transpositions):
            with pytest.raises(IllegalMoveError) as exc:
                fn(play)
            assert (exc.value.index, exc.value.reason) == (index, reason)

    def test_empty_play_order_1(self):
        assert replay(PlaySequence.of(1, [])).is_complete()

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ccw_pairs_agree_with_replay(self, n, extra):
        # every sequence of n-1 (extra 0) or n (extra 1) sorted pairs: replay
        # and both maps share the move loop `game._joins`, so each is held to
        # the positional fold, which shares no code with it
        for moves, ccw, error in fold_outcomes(n, n - 1 + extra):
            play = PlaySequence(n, moves)
            for fn, read, expected in (
                (replay, lambda state: tuple(rec.ccw_pair for rec in state.history), ccw),
                (game_to_parking, lambda pf: pf.values, ccw and tuple(a for a, _ in ccw)),
                (game_to_transpositions, lambda seq: seq.transpositions, ccw),
            ):
                try:
                    outcome = read(fn(play)), None
                except IllegalMoveError as err:
                    outcome = None, (err.index, err.reason)
                assert outcome == (expected, error), (fn.__name__, moves)


def fold_outcomes(n, length):
    """Every sequence of `length` sorted pairs of labels in 1..n, in the order
    of `itertools.product`, as (moves, ccw pairs, None) when the positional
    fold `apply_move` plays it, and as (moves, None, (index, reason)) at its
    first move whose labels it locates in different subgames.  Each prefix
    is folded once."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))

    def extend(moves, state, error):
        if len(moves) == length:
            yield moves, None if error else tuple(rec.ccw_pair for rec in state.history), error
            return
        for i, j in pairs:
            after, failed = state, error
            if not error:
                loc = locate_labels(state)
                (si, p), (sj, q) = loc[i], loc[j]
                if si == sj:
                    after = apply_move(state, si, min(p, q), max(p, q))
                elif (i, j) in moves:
                    failed = len(moves), f"arc {i}-{j} repeats an earlier arc"
                else:
                    failed = len(moves), f"labels {i} and {j} lie in different subgames"
            yield from extend(moves + ((i, j),), after, failed)

    start = GameState(n, (tuple((k, k) for k in range(1, n + 1)),), ())
    yield from extend((), start, None)


class TestEndstateSignature:
    # a complete game's arc set, its endstate signature, as `endstate_to_tree` reads it
    def test_n3(self):
        state = replay(PlaySequence.of(3, [(1, 2), (2, 3)]))
        assert endstate_to_tree(state).edges == {(1, 2), (2, 3)}

    def test_incomplete_rejected(self):
        message = "state is not complete; some subgame still has two or more arms"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            endstate_to_tree(initial_state(3))

    def test_reversed_order_of_this_play_is_illegal(self):
        # the same arc set played as [{2,3},{1,2}] strands labels 1 and 2
        with pytest.raises(IllegalMoveError):
            replay(PlaySequence.of(3, [(2, 3), (1, 2)]))

    @staticmethod
    def _complete_state(*arcs):
        # a hand-built complete state of order 3 whose history draws the given arcs
        history = tuple(MoveRecord(arc_label=arc, ccw_pair=arc, long_pair=arc) for arc in arcs)
        state = GameState(n=3, subgames=(((1, 1),), ((2, 2),), ((3, 3),)), history=history)
        assert state.is_complete()
        return state

    def test_repeated_arc_in_history_rejected(self):
        message = "not a noncrossing tree on 3 vertices: [(1, 2), (1, 2)]; an edge is repeated"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            endstate_to_tree(self._complete_state((1, 2), (1, 2)))

    def test_short_history_rejected(self):
        message = "not a noncrossing tree on 3 vertices: [(1, 2)]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            endstate_to_tree(self._complete_state((1, 2)))

    def test_n4_signature_count(self):
        sigs = {endstate_to_tree(replay(p)).edges for p in all_plays(4)}
        assert len(all_plays(4)) == 16
        assert len(sigs) == 12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_edges_are_the_arcs(self, n):
        for play in all_plays(n):
            assert endstate_to_tree(replay(play)).edges == frozenset(play.moves)


def _cyclically_increasing(labels):
    m = len(labels)
    if m <= 1:
        return True
    descents = sum(1 for k in range(m) if labels[k] > labels[(k + 1) % m])
    return descents <= 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_state_invariants_exhaustive(n):
    for play in all_plays(n):
        state = initial_state(n)
        seen_arcs = set()
        for k, (i, j) in enumerate(play.moves):
            loc = locate_labels(state)
            si, p = loc[i]
            sj, q = loc[j]
            assert si == sj
            state = apply_move(state, si, min(p, q), max(p, q))
            # global label uniqueness and conservation
            labels = [short for sg in state.subgames for short, _ in sg]
            assert sorted(labels) == list(range(1, n + 1))
            # subgame count and arm count after k+1 moves
            assert len(state.subgames) == k + 2
            assert sum(len(sg) for sg in state.subgames) == n
            # cyclic consistency of each subgame
            for sg in state.subgames:
                assert _cyclically_increasing([short for short, _ in sg])
            # no repeated arc labels
            assert state.history[-1].arc_label not in seen_arcs
            seen_arcs.add(state.history[-1].arc_label)
            # replaying the prefix, complete or not, gives the same state,
            # listed in its canonical layout
            assert replay(PlaySequence(n, play.moves[: k + 1])) == canonical_state(state)
        assert state.is_complete()
        assert len(state.history) == n - 1
        # replaying the history arc labels reproduces the state exactly
        again = replay(PlaySequence(n, tuple(rec.arc_label for rec in state.history)))
        assert again == canonical_state(state)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_replay_layout_is_canonical(n):
    # no region and no arm comes first in the game; `replay` lists regions in
    # increasing order of least label, each region's arms increasing, which
    # is clockwise from its least label, and each long_pair in arc order
    for play in all_plays(n):
        for k in range(n):
            state = replay(PlaySequence(n, play.moves[:k]))
            firsts = [sg[0][0] for sg in state.subgames]
            assert firsts == sorted(firsts) and len(firsts) == k + 1, (play, k)
            for sg in state.subgames:
                labels = [short for short, _ in sg]
                assert labels == sorted(labels), (play, k)
                assert all(short_of(long) == short for short, long in sg), (play, k)
            for rec in state.history:
                assert tuple(map(short_of, rec.long_pair)) == rec.arc_label, (play, k)


class TestSerialization:
    def test_text_round_trip(self):
        play = PlaySequence.of(4, [(1, 3), (3, 4), (1, 2)])
        assert play_to_text(play) == "n=4: 1-3,3-4,1-2"
        assert play_from_text(play_to_text(play)) == play

    def test_empty_play_text(self):
        play = PlaySequence.of(1, [])
        assert play_from_text(play_to_text(play)) == play

    def test_json_round_trip_and_canonical_pairs(self):
        play = PlaySequence.of(3, [(2, 1), (3, 2)])
        text = play_to_json(play)
        assert '"moves": [[1, 2], [2, 3]]' in text
        assert play_from_json(text) == play

    def test_direct_construction_rejects_reversed_pairs(self):
        with pytest.raises(ValueError, match="move 2-1 is not a sorted pair"):
            PlaySequence(3, ((2, 1), (3, 2)))
        assert PlaySequence.of(3, [(2, 1), (3, 2)]) == PlaySequence(3, ((1, 2), (2, 3)))

    @pytest.mark.parametrize("moves", [((0, 2),), ((1, 1),), ((1, 4),), ((1.0, 2),)])
    def test_direct_construction_checks_like_of(self, moves):
        with pytest.raises(ValueError) as direct:
            PlaySequence(3, moves)
        with pytest.raises(ValueError) as of:
            PlaySequence.of(3, moves)
        assert str(direct.value) == str(of.value)

    def test_bad_text_rejected(self):
        with pytest.raises(ValueError):
            play_from_text("1-2,2-3")
        with pytest.raises(ValueError):
            play_from_text("n=3: 1/2")


class TestCanonicalForm:
    """Each value type stores one form, whatever iterable it was given, so
    equal values compare equal, hash alike and survive the round trips."""

    CASES = [
        (PlaySequence, 3, ((1, 2), (2, 3))),
        (NoncrossingTree, 3, frozenset({(1, 2), (2, 3)})),
        (ParkingFunction, 3, (1, 1)),
        (TranspositionSeq, 3, ((1, 3), (2, 3))),
    ]

    @pytest.mark.parametrize("kind,n,canonical", CASES)
    def test_any_iterable_stores_the_canonical_form(self, kind, n, canonical):
        expected = kind(n, canonical)
        items = sorted(canonical)
        nested = [list(x) for x in items] if isinstance(items[0], tuple) else items
        for given in (items, nested, tuple(nested), iter(items), (x for x in nested)):
            value = kind(n, given)
            assert value == expected and hash(value) == hash(expected)
            assert {value: 0} == {expected: 0}

    def test_round_trips_of_list_built_values(self):
        tree = NoncrossingTree(3, [(1, 2), (2, 3)])
        assert endstate_to_tree(replay(tree_to_canonical_game(tree))) == tree
        pf = ParkingFunction(3, [1, 1])
        assert game_to_parking(parking_to_game(pf)) == pf
        seq = TranspositionSeq(3, [(1, 3), (2, 3)])
        assert game_to_transpositions(transpositions_to_game(seq)) == seq
        play = PlaySequence(3, [(1, 3), (1, 2)])
        assert transpositions_to_game(game_to_transpositions(play)) == play

    @pytest.mark.parametrize("kind,n,canonical", [c for c in CASES if c[0] != ParkingFunction])
    def test_reversed_pairs_still_rejected(self, kind, n, canonical):
        for given in ([(b, a) for a, b in sorted(canonical)], [[b, a] for a, b in canonical]):
            with pytest.raises(ValueError):
                kind(n, given)

    READERS = {
        PlaySequence: lambda n, text: read_play(text),
        NoncrossingTree: lambda n, text: tree_from_text(n, text.partition(":")[2]),
        ParkingFunction: parking_from_text,
        TranspositionSeq: seq_from_text,
    }

    @pytest.mark.parametrize("kind,n,canonical", CASES)
    def test_labels_are_stored_as_ints_or_rejected(self, kind, n, canonical):
        def relabel(label):  # label 1 replaced by `label`, in the canonical value's container
            def swap(v):
                return label if v == 1 else v

            return type(canonical)(
                tuple(map(swap, x)) if type(x) is tuple else swap(x) for x in canonical
            )

        value = kind(n, relabel(True))
        assert value == kind(n, canonical) and hash(value) == hash(kind(n, canonical))
        stored = getattr(value, dataclasses.fields(value)[1].name)
        assert all(type(v) is int for x in stored for v in (x if type(x) is tuple else (x,)))
        text = write(value, "text")
        assert "True" not in text and "true" not in write(value, "json")
        assert self.READERS[kind](n, text.strip()) == value
        for label in (1.0, "1", None):
            with pytest.raises(ValueError):
                kind(n, relabel(label))

    @pytest.mark.parametrize("kind,n,canonical", CASES)
    def test_bad_orders_and_fields_raise_value_errors(self, kind, n, canonical):
        # the order is checked once, by game._order, before the field is read
        message = "not a noncrossing tree" if kind is NoncrossingTree else "game order must be"
        for order in (0, -1, True, 1.0, "1", str(n), None):
            for field in ((), canonical):
                with pytest.raises(ValueError, match=message):
                    kind(order, field)
        with pytest.raises(ValueError):
            kind(n, 5)

    def test_a_callers_iterator_error_passes_constructors_and_fails_predicates(self):
        # the pair sorter passes on as given only input that is no iterable, so an
        # error raised while reading the caller's iterator builds no other value
        def pairs():
            yield (1, 2)
            raise TypeError("from the caller")

        for make in (PlaySequence.of, TranspositionSeq.of, NoncrossingTree.from_edges):
            with pytest.raises(TypeError, match="^from the caller$"):
                make(3, pairs())
        assert not is_noncrossing_tree(3, pairs())
        assert not is_parking_function(3, (v for v, _ in pairs()))

    def test_parking_predicate_agrees_with_its_constructor(self):
        # is_parking_function is True exactly when ParkingFunction constructs, and
        # the constructor stores a tuple of ints equal to the values given
        class Label(int):
            pass

        fields = ((), (1, 1), 5, None, (True, 1), (1.0, 1), ("1", 1), (None, 1))
        fields += (
            *((0, 1), (1, 0), (3, 1), (1, 3), (2, 2), (1, 2), [2, 1], (1,), (1, 1, 1)),
            *((True, True), (False, 1), (True, 2), (2, True)),
            *((Label(1), 1), (Label(2), Label(1)), (Label(0), 1), (Label(3), 1)),
            *((1, 2, 3), (1, 1, 4), (4, 1, 1), (0, 1, 2), (Label(3), True, 1), (1, 1, 1, 1)),
        )
        for order in (0, -1, True, 1.0, "1", "3", None, 1, 2, 3, 4):
            for values in fields:
                try:
                    made = ParkingFunction(order, values)
                except ValueError:
                    made = None
                assert is_parking_function(order, values) is (made is not None), (order, values)
                if made is not None:
                    assert made.values == tuple(values), (order, values)
                    assert all(type(v) is int for v in made.values), (order, values)

    def test_bad_input_messages_name_what_was_given(self):
        with pytest.raises(ValueError, match=r"got \[1, 'x'\]"):
            PlaySequence(3, [[1, "x"]])
        with pytest.raises(ValueError, match=r": \[1, 1, 5\]"):
            ParkingFunction(4, [1, 1, 5])
        with pytest.raises(ValueError, match=r"\[\(1, 2\), \(1, 2\)\]"):
            NoncrossingTree(3, [(1, 2), (1, 2)])
        for make, message in (
            (lambda: PlaySequence(3, 5), "moves must be an iterable of pairs, got 5"),
            (lambda: TranspositionSeq(3, 5), "transpositions must be an iterable of pairs, got 5"),
            (lambda: ParkingFunction(3, 5), "not a parking function of length 2: 5"),
            (lambda: PlaySequence("3", ((1, 2),)), "game order must be positive, got '3'"),
            (lambda: ParkingFunction("3", (1, 1)), "game order must be positive, got '3'"),
            (lambda: TranspositionSeq(1.0, ()), "game order must be positive, got 1.0"),
            (lambda: PlaySequence(0, ()), "game order must be positive, got 0"),
            (lambda: NoncrossingTree(True, ()), "not a noncrossing tree on True vertices: []"),
            # the pair sorter of `.of` and `from_edges` passes what it cannot sort on as given
            (lambda: PlaySequence.of(3, [1]), "move 1 is not a pair of labels"),
            (lambda: PlaySequence.of(3, 5), "moves must be an iterable of pairs, got 5"),
            (lambda: PlaySequence.of(3, [(2, "1")]), "move labels must be integers, got (2, '1')"),
            (lambda: TranspositionSeq.of(3, [1, 2]), "transposition 1 is not a pair of labels"),
            (
                lambda: TranspositionSeq.of(3, [(1, "2"), (2, 3)]),
                "transposition labels must be integers, got (1, '2')",
            ),
            (
                lambda: NoncrossingTree.from_edges(3, [1, 2]),
                "not a noncrossing tree on 3 vertices: [1, 2]",
            ),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make()


@pytest.mark.parametrize(
    "count",
    [
        initial_state,
        lambda n: next(game._walk_plays(n)),
        count_plays,
        count_plays_recursive,
        count_endstates,
        enumerate_noncrossing_trees,
        enumerate_factorizations,
    ],
)
def test_every_order_is_checked_alike(count):
    for order in (0, -2, True, 2.0, "2"):
        message = f"game order must be positive, got {order!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            count(order)


def assert_as_constructed(made):
    """A map's output, a `replay` record or an enumerated tree, built without
    its constructor's checks, equals, hashes like and (but for a tree) prints
    like the object the public constructor builds from the same fields (a
    map's entries given as a list), holds exactly its fields and stays
    frozen.  A map's output stores its field in the canonical form, a tuple
    of int tuple pairs or a tuple of ints, a tree its edges as a frozenset of
    int tuple pairs, and a record its arc label and ccw pair as int tuple
    pairs."""

    def is_int_pair(entry):
        return type(entry) is tuple and len(entry) == 2 and all(type(x) is int for x in entry)

    fields = [getattr(made, f.name) for f in dataclasses.fields(made)]
    for name in vars(made):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, name, None)
    record = type(made) is MoveRecord
    tree = type(made) is NoncrossingTree
    public = MoveRecord(*fields) if record else type(made)(made.n, list(fields[1]))
    assert made == public and hash(made) == hash(public) and {made: 0} == {public: 0}
    assert vars(made) == vars(public)
    assert tree or repr(made) == repr(public)  # a frozenset prints in the order it was filled
    if record:
        assert is_int_pair(made.arc_label) and is_int_pair(made.ccw_pair)
        return
    assert write(made, "text") == write(public, "text")
    assert write(made, "json") == write(public, "json")
    assert type(made.n) is int and type(fields[1]) is (frozenset if tree else tuple)
    for entry in fields[1]:
        assert type(entry) is int or is_int_pair(entry)


class TestMapOutputs:
    """Each map builds its output through `game._made`, without the output
    type's checks; the object is still the one the constructor would build."""

    @staticmethod
    def assert_play_maps(play):
        pf, seq = game_to_parking(play), game_to_transpositions(play)
        for made in (pf, parking_to_game(pf), seq, transpositions_to_game(seq)):
            assert_as_constructed(made)
        for record in replay(play).history:
            assert_as_constructed(record)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_play(self, n):
        for play in all_plays(n):
            self.assert_play_maps(play)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_tree(self, n):
        for tree in all_trees(n):
            assert_as_constructed(tree)
            assert_as_constructed(tree_to_canonical_game(tree))
            for play in games_with_endstate(tree):
                assert_as_constructed(play)

    @settings(deadline=None, max_examples=50)
    @given(parking_functions(max_n=1000))
    def test_large_objects(self, drawn):
        n, values = drawn
        play = parking_to_game(ParkingFunction(n, values))
        self.assert_play_maps(play)
        assert_as_constructed(tree_to_canonical_game(tree_of(n, values)))
