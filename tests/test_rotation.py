"""Rotation k -> k mod n + 1 is a symmetry of the game and of its trees.

Turning every label one step clockwise turns a legal play into a legal play,
and every pair the maps read (arcs, ccw pairs, tree edges, poset covers)
into the turned pair, sorted again.  The oracle is the relabelling alone, so
it shares no code with the engine.  `replay` lists a state canonically, by
least label, so the turned play's state equals the turned state exactly.
(Parking values do not simply shift, since a ccw pair that wraps past n
gets the value 1.)

The mirror k -> n+1-k alone is not a symmetry of the labels: it makes every
play at n = 3..7 illegal (16,807 at n = 7).  Composed with reversing the
move order it is one: every play to n = 7, mirrored and reversed, is legal,
and on every tree T to n = 7 (1428 trees at n = 7) the plays reaching the
mirrored tree are exactly T's plays mirrored and reversed.  So the mirror
turns each cover (e, f) of T's edge poset into the cover (m f, m e) of its
mirror's, which is the dual poset, checked on every tree to n = 8, and the
two have equally many linear extensions.  The oracle is the relabelling and
the reversal alone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planted_sprouts import (
    GameState,
    IllegalMoveError,
    MoveRecord,
    NoncrossingTree,
    ParkingFunction,
    PlaySequence,
    build_poset,
    endstate_to_tree,
    game_to_transpositions,
    games_with_endstate,
    linear_extensions,
    parking_to_game,
    primary_edges,
    replay,
    transpositions_to_game,
)
from helpers import all_plays, all_trees, canonical_state, parking_functions


def turn(n, k):
    return k % n + 1


def turn_pair(n, pair):
    a, b = turn(n, pair[0]), turn(n, pair[1])
    return (a, b) if a < b else (b, a)


def turn_long(up, long, turned):
    """The long label with every label k turned to up[k].  Long labels share
    their parts and recur across plays (4362 differ among all plays at n=7),
    so each is turned once and kept in `turned`."""
    if type(long) is int:
        return up[long]
    done = turned.get(long)
    if done is None:
        own, other = long
        done = turned[long] = turn_long(up, own, turned), turn_long(up, other, turned)
    return done


def turn_play(play):
    return PlaySequence(play.n, tuple(turn_pair(play.n, move) for move in play.moves))


def turn_state(state, turned):
    """The state with every label turned, listed as `replay` lists a state;
    `turned` keeps the long labels turned so far (see `turn_long`)."""
    n = state.n
    up = [turn(n, k) for k in range(n + 1)]
    subgames = tuple(
        tuple((up[short], turn_long(up, long, turned)) for short, long in sg)
        for sg in state.subgames
    )
    history = tuple(
        MoveRecord(
            turn_pair(n, rec.arc_label),
            turn_pair(n, rec.ccw_pair),
            turn_long(up, rec.long_pair, turned),
        )
        for rec in state.history
    )
    return canonical_state(GameState(n, subgames, history))


def turn_tree(tree):
    return NoncrossingTree(tree.n, frozenset(turn_pair(tree.n, e) for e in tree.edges))


def turn_covers(n, covers):
    return {(turn_pair(n, e), turn_pair(n, f)) for e, f in covers}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_turned_play_replays_to_the_turned_state(n):
    # each play's orbit is walked once, n turns round to the play itself
    seen, turned_longs = set(), {}
    for play in all_plays(n):
        if play.moves in seen:
            continue
        start, state = play, replay(play)
        for _ in range(n):
            turned_play = turn_play(play)
            turned = replay(turned_play)  # legal: replay raises otherwise
            assert turned == turn_state(state, turned_longs), play
            arcs = {turn_pair(n, rec.arc_label) for rec in state.history}
            assert endstate_to_tree(turned).edges == arcs, play
            seen.add(turned_play.moves)
            play, state = turned_play, turned
        assert play == start
    assert len(seen) == len(all_plays(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_primary_edges_and_covers_commute_with_turning(n):
    for tree in all_trees(n):
        turned = turn_tree(tree)
        assert primary_edges(turned) == {turn_pair(n, e) for e in primary_edges(tree)}, tree
        assert build_poset(turned).covers == turn_covers(n, build_poset(tree).covers), tree


def mirror_pair(n, pair):
    return n + 1 - pair[1], n + 1 - pair[0]


def mirror_tree(tree):
    return NoncrossingTree(tree.n, frozenset(mirror_pair(tree.n, e) for e in tree.edges))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_mirrored_play_is_legal_reversed_and_illegal_as_it_stands(n):
    for play in all_plays(n):
        mirrored = tuple(mirror_pair(n, move) for move in play.moves)
        replay(PlaySequence(n, mirrored[::-1]))  # legal: replay raises otherwise
        if n >= 3:
            with pytest.raises(IllegalMoveError):
                replay(PlaySequence(n, mirrored))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_mirror_turns_covers_into_dual_covers(n):
    for tree in all_trees(n):
        dual = {(mirror_pair(n, f), mirror_pair(n, e)) for e, f in build_poset(tree).covers}
        assert build_poset(mirror_tree(tree)).covers == dual, tree


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_mirrored_tree_is_reached_by_the_mirrored_plays_reversed(n):
    for tree in all_trees(n):
        mirrored = mirror_tree(tree)
        reflected = {
            tuple(mirror_pair(n, move) for move in reversed(play.moves))
            for play in games_with_endstate(tree)
        }
        assert {play.moves for play in games_with_endstate(mirrored)} == reflected, tree
        count = len(linear_extensions(build_poset(tree)))
        assert len(linear_extensions(build_poset(mirrored))) == count, tree


@settings(deadline=None, max_examples=10)
@given(parking_functions(max_n=2000), st.integers(min_value=0))
def test_turning_at_large_n(case, cut):
    # long labels are left out here: an arm's long label nests every arc it
    # took part in, and each of those the other arm's, so its tree can grow
    # far past n; they are compared exactly above
    n, values = case
    play = parking_to_game(ParkingFunction(n, values))
    turned_play = turn_play(play)
    state, turned = replay(play), replay(turned_play)
    assert [rec.ccw_pair for rec in turned.history] == [
        turn_pair(n, rec.ccw_pair) for rec in state.history
    ]
    seq = game_to_transpositions(turned_play)
    assert seq.transpositions == tuple(
        turn_pair(n, t) for t in game_to_transpositions(play).transpositions
    )
    assert transpositions_to_game(seq) == turned_play
    tree = endstate_to_tree(state)
    turned_tree = endstate_to_tree(turned)
    assert turned_tree == turn_tree(tree)
    assert primary_edges(turned_tree) == {turn_pair(n, e) for e in primary_edges(tree)}
    assert build_poset(turned_tree).covers == turn_covers(n, build_poset(tree).covers)
    # a prefix leaves regions of many arms, each listed from its least label
    k = cut % n
    prefix = replay(PlaySequence(n, play.moves[:k]))
    turned_prefix = replay(PlaySequence(n, turned_play.moves[:k]))
    assert [tuple(short for short, _ in sg) for sg in turned_prefix.subgames] == sorted(
        tuple(sorted(turn(n, short) for short, _ in sg)) for sg in prefix.subgames
    )
