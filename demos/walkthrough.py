"""A narrated tour of the planted sprouts machinery at n = 4.

Run with: python3 demos/walkthrough.py
"""

from planted_sprouts import (
    PlaySequence,
    build_poset,
    count_endstates,
    count_plays,
    endstate_to_tree,
    enumerate_games,
    game_to_parking,
    game_to_transpositions,
    games_with_endstate,
    linear_extensions,
    parking_to_game,
    play_from_text,
    play_to_text,
    primary_edges,
    replay,
    transpositions_to_game,
    tree_to_canonical_game,
    verify_all,
)

N = 4


def section(title):
    print()
    print(f"== {title} ==")


section("Playing a game")
start = replay(PlaySequence(N, ()))
print(f"start: {len(start.subgames)} region, arms {[short for short, _ in start.subgames[0]]}")

play = play_from_text("n=4: 1-3,1-2,3-4")
final = replay(play)
print(f"play {play_to_text(play)} ends with {len(final.subgames)} regions")
print("arcs drawn:", [m.arc_label for m in final.history])
print("ccw neighbor pairs:", [m.ccw_pair for m in final.history])

section("Endstates are noncrossing trees")
tree = endstate_to_tree(final)
print("tree edges:", sorted(tree.edges))
print("primary edges:", sorted(primary_edges(tree)))
canonical = tree_to_canonical_game(tree)
print("canonical play reaching it:", play_to_text(canonical))
assert endstate_to_tree(replay(canonical)) == tree

section("Plays are parking functions")
pf = game_to_parking(play)
print(f"{play_to_text(play)}  ->  parking function {pf.values}")
back = parking_to_game(pf)
print(f"inverse recovers: {play_to_text(back)}")
assert back == play

section("Plays factor the cycle 1->2->3->4->1")
seq = game_to_transpositions(play)
print("transpositions, applied first to last:", seq.transpositions)
assert transpositions_to_game(seq) == play

section("The edge poset schedules the arcs")
poset = build_poset(tree)
print("cover relations:", sorted(poset.covers))
exts = linear_extensions(poset)
print(f"{len(exts)} linear extensions = "
      f"{len(games_with_endstate(tree))} plays reaching this endstate")

section("Counting")
print(f"n={N}: {count_endstates(N)} endstates, {count_plays(N)} plays")
by_tree = {}
for p in enumerate_games(N):
    by_tree.setdefault(endstate_to_tree(replay(p)).edges, 0)
    by_tree[endstate_to_tree(replay(p)).edges] += 1
print("plays per endstate:", sorted(by_tree.values(), reverse=True))

section("Full cross-check")
print(verify_all(N).to_table())
