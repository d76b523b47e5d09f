"""Command-line front end.

Exit codes: 0 success, 1 verification check failure, 2 usage or input error.
Plays are read from --play or stdin, in either the text form
``n=<n>: i-j,i-j,...`` or the JSON form ``{"n": n, "moves": [[i,j],...]}``.
Each subcommand is a generator of its results, and `main` writes them.
"""

from __future__ import annotations

import argparse
import signal
import sys

from . import enumeration, factorizations, formats, game, parking, poset, trees


def _cmd_counts(args):
    a, b, plane_a, plane_b = enumeration.variant_counts(args.n)
    yield {"n": args.n, "a": a, "b": b, "plane_a": plane_a, "plane_b": plane_b}


def _cmd_enumerate_games(args):
    yield from enumeration.enumerate_games(args.n)


def _cmd_enumerate_endstates(args):
    yield from trees.enumerate_noncrossing_trees(args.n)


def _cmd_to_tree(args):
    play = formats.read_play(args.play or sys.stdin.read())
    if len(play.moves) < play.n - 1:  # before replay builds arrays of size n
        raise ValueError(trees._INCOMPLETE)
    yield trees.endstate_to_tree(game.replay(play))


def _cmd_to_parking(args):
    yield parking.game_to_parking(formats.read_play(args.play or sys.stdin.read()))


def _cmd_to_transpositions(args):
    yield factorizations.game_to_transpositions(formats.read_play(args.play or sys.stdin.read()))


def _cmd_from_parking(args):
    pf = formats.parking_from_text(args.n, args.values or sys.stdin.read())
    yield parking.parking_to_game(pf)


def _cmd_from_transpositions(args):
    seq = formats.seq_from_text(args.n, args.transpositions or sys.stdin.read())
    yield factorizations.transpositions_to_game(seq)


def _cmd_realize_tree(args):
    yield trees.tree_to_canonical_game(formats.tree_from_text(args.n, args.edges))


def _cmd_poset(args):
    yield poset.build_poset(formats.tree_from_text(args.n, args.tree))


def _cmd_verify(args):
    checks = args.checks.split(",") if args.checks else None
    yield enumeration.verify_all(args.n, checks=checks, jobs=args.jobs)


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
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:  # lifted for this call only: counts are exact; b_1400 has 4406 digits
        sys.set_int_max_str_digits(0)
    fmt = "dot" if getattr(args, "dot", False) else args.format
    code = 0
    try:
        for result in args.func(args):
            print(formats.write(result, fmt), end="")
            if isinstance(result, enumeration.CountReport) and not result.passed:
                code = 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


def main_entry():
    if hasattr(signal, "SIGPIPE"):  # absent on Windows; a closed stdout then ends the run quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
