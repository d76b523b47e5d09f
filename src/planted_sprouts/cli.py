"""Command-line front end.

Exit codes: 0 success, 1 verification check failure, 2 usage or input error.
Plays are read from --play or stdin, in either the text form
``n=<n>: i-j,i-j,...`` or the JSON form ``{"n": n, "moves": [[i,j],...]}``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from . import enumeration, factorizations, game, parking, poset, trees


def _read_play(args) -> game.PlaySequence:
    text = args.play if getattr(args, "play", None) else sys.stdin.read()
    text = text.strip()
    if text.startswith("{"):
        return game.play_from_json(text)
    return game.play_from_text(text)


def _parse_edges(text: str):
    return game._pairs_from_text(text.strip(), "edge", "i-j")


def _edges_text(edges) -> str:
    return ",".join(f"{i}-{j}" for i, j in sorted(tuple(sorted(e)) for e in edges))


def _cmd_counts(args) -> int:
    a, b, plane_a, plane_b = enumeration.variant_counts(args.n)
    if args.format == "json":
        print(
            json.dumps(
                {"n": args.n, "a": a, "b": b, "plane_a": plane_a, "plane_b": plane_b},
                sort_keys=True,
            )
        )
    else:
        print(f"a={a} b={b} plane_a={plane_a} plane_b={plane_b}")
    return 0


def _cmd_enumerate_games(args) -> int:
    for play in enumeration.enumerate_games(args.n):
        print(game.play_to_json(play) if args.format == "json" else game.play_to_text(play))
    return 0


def _cmd_enumerate_endstates(args) -> int:
    signatures = {frozenset(arcs) for arcs, _ in game._walk_plays(args.n)}
    for sig in sorted(signatures, key=lambda s: sorted(s)):
        if args.format == "json":
            print(game.edges_to_json(args.n, sig))
        else:
            print(f"n={args.n}: {_edges_text(sig)}")
    return 0


def _cmd_to_tree(args) -> int:
    play = _read_play(args)
    if len(play.moves) < play.n - 1:  # before replay builds arrays of size n
        raise ValueError("state is not complete; some subgame still has two or more arms")
    tree = trees.endstate_to_tree(game.replay(play))
    if args.format == "dot":
        print(trees.tree_to_dot(tree), end="")
    elif args.format == "json":
        print(game.edges_to_json(tree.n, tree.edges))
    else:
        print(f"n={tree.n}: {_edges_text(tree.edges)}")
    return 0


def _cmd_to_parking(args) -> int:
    pf = parking.game_to_parking(_read_play(args))
    print(json.dumps(list(pf.values)) if args.format == "json" else parking.parking_to_text(pf))
    return 0


def _cmd_to_transpositions(args) -> int:
    seq = factorizations.game_to_transpositions(_read_play(args))
    if args.format == "json":
        print(json.dumps([list(t) for t in seq.transpositions]))
    else:
        print(factorizations.seq_to_text(seq))
    return 0


def _emit_play(play: game.PlaySequence, fmt: str):
    print(game.play_to_json(play) if fmt == "json" else game.play_to_text(play))


def _cmd_from_parking(args) -> int:
    text = args.values if args.values else sys.stdin.read()
    pf = parking.parking_from_text(args.n, text)
    _emit_play(parking.parking_to_game(pf), args.format)
    return 0


def _cmd_from_transpositions(args) -> int:
    text = args.transpositions if args.transpositions else sys.stdin.read()
    seq = factorizations.seq_from_text(args.n, text)
    _emit_play(factorizations.transpositions_to_game(seq), args.format)
    return 0


def _cmd_realize_tree(args) -> int:
    tree = trees.NoncrossingTree.from_edges(args.n, _parse_edges(args.edges))
    _emit_play(trees.tree_to_canonical_game(tree), args.format)
    return 0


def _cmd_poset(args) -> int:
    tree = trees.NoncrossingTree.from_edges(args.n, _parse_edges(args.tree))
    edge_poset = poset.build_poset(tree)
    if args.dot or args.format == "dot":
        print(poset.poset_to_dot(edge_poset), end="")
    else:
        print(poset.poset_to_json(edge_poset))
    return 0


def _cmd_verify(args) -> int:
    checks = args.checks.split(",") if args.checks else None
    report = enumeration.verify_all(args.n, checks=checks, jobs=args.jobs)
    print(report.to_json() if args.format == "json" else report.to_table())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planted-sprouts",
        description="Exact engine and bijections for the planted sprouts circle game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, fmt_choices=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=fmt_choices, default="text")
        return p

    p = add("counts", _cmd_counts, "endstate, play, and plane-variant counts")
    p.add_argument("n", type=int)

    p = add("enumerate-games", _cmd_enumerate_games, "stream every complete play, one per line")
    p.add_argument("n", type=int)

    p = add("enumerate-endstates", _cmd_enumerate_endstates, "stream every distinct endstate")
    p.add_argument("n", type=int)

    for name, func, help_text in (
        ("to-tree", _cmd_to_tree, "endstate tree of a complete play"),
        ("to-parking", _cmd_to_parking, "parking function of a complete play"),
        ("to-transpositions", _cmd_to_transpositions, "transposition sequence of a complete play"),
    ):
        fmt = ("text", "json", "dot") if name == "to-tree" else ("text", "json")
        p = add(name, func, help_text, fmt)
        p.add_argument("--play", help="play text or JSON; read from stdin if omitted")

    p = add("from-parking", _cmd_from_parking, "unique play realizing a parking function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--values", help="comma-separated values; read from stdin if omitted")

    p = add("from-transpositions", _cmd_from_transpositions, "unique play with given transpositions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--transpositions", help="a:b,a:b,...; read from stdin if omitted")

    p = add("realize-tree", _cmd_realize_tree, "canonical play reaching a noncrossing tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edges", required=True, help="edge list i-j,i-j,...")

    p = add("poset", _cmd_poset, "edge poset of a noncrossing tree", ("text", "json", "dot"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tree", required=True, help="edge list i-j,i-j,...")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")

    p = add("verify", _cmd_verify, "run the cross-check suite at order n")
    p.add_argument("n", type=int)
    p.add_argument("--checks", help="comma-separated check names (forces them past cutoffs)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for play enumeration")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    if hasattr(signal, "SIGPIPE"):  # absent on Windows; a closed stdout then ends the run quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
