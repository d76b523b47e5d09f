"""Command-line front end.

Exit codes: 0 success, 1 verification check failure, 2 usage or input error.
Plays are read from --play or stdin, in either the text form
``n=<n>: i-j,i-j,...`` or the JSON form ``{"n": n, "moves": [[i,j],...]}``.
Each subcommand is a row of `_COMMANDS`, and `main` writes the row's results.
"""

from __future__ import annotations

import argparse
import signal
import sys

from . import enumeration, factorizations, formats, game, parking, poset, trees


class _Parser(argparse.ArgumentParser):
    """Reads `--opt=--` as the text '--', as 3.13 does; 3.10-3.12 store [] for it."""

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.nargs is None:  # only `--opt=--` gives this
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _read(text):
    """A text flag's value, or stdin when the flag is omitted: '' is a value."""
    return sys.stdin.read() if text is None else text


def _counts(args):
    a, b, plane_a, plane_b = enumeration.variant_counts(args.n)
    return [{"n": args.n, "a": a, "b": b, "plane_a": plane_a, "plane_b": plane_b}]


def _to_tree(args):
    play = formats.read_play(_read(args.play))
    if len(play.moves) < play.n - 1:  # before replay builds arrays of size n
        raise ValueError(trees._INCOMPLETE)
    return [trees.endstate_to_tree(game.replay(play))]


_N = (("n", {"type": int}),)
_FLAG_N = (("--n", {"type": int, "required": True}),)
_PLAY = (("--play", {"help": "play text or JSON; read from stdin if omitted"}),)
_EDGES = {"required": True, "help": "edge list i-j,i-j,..."}

# name, help, extra --format choices, (flag, add_argument kwargs) pairs, args -> results.
# The rows call the maps through their modules, so a patched or traced map is the one run.
_COMMANDS = (
    ("counts", "endstate, play, and plane-variant counts", (), _N, _counts),
    ("enumerate-games", "stream every complete play, one per line", (), _N,
     lambda a: enumeration.enumerate_games(a.n)),
    ("enumerate-endstates", "stream every distinct endstate", (), _N,
     lambda a: trees.enumerate_noncrossing_trees(a.n)),
    ("to-tree", "endstate tree of a complete play", ("dot",), _PLAY, _to_tree),
    ("to-parking", "parking function of a complete play", (), _PLAY,
     lambda a: [parking.game_to_parking(formats.read_play(_read(a.play)))]),
    ("to-transpositions", "transposition sequence of a complete play", (), _PLAY,
     lambda a: [factorizations.game_to_transpositions(formats.read_play(_read(a.play)))]),
    ("from-parking", "unique play realizing a parking function", (),
     _FLAG_N + (("--values", {"help": "comma-separated values; read from stdin if omitted"}),),
     lambda a: [parking.parking_to_game(formats.parking_from_text(a.n, _read(a.values)))]),
    ("from-transpositions", "unique play with given transpositions", (),
     _FLAG_N + (("--transpositions", {"help": "a:b,a:b,...; read from stdin if omitted"}),),
     lambda a: [factorizations.transpositions_to_game(
         formats.seq_from_text(a.n, _read(a.transpositions)))]),
    ("realize-tree", "canonical play reaching a noncrossing tree", (),
     _FLAG_N + (("--edges", _EDGES),),
     lambda a: [trees.tree_to_canonical_game(formats.tree_from_text(a.n, a.edges))]),
    ("poset", "edge poset of a noncrossing tree", ("dot",),
     _FLAG_N + (("--tree", _EDGES),
                ("--dot", {"action": "store_true", "help": "emit DOT (same as --format dot)"})),
     lambda a: [poset.build_poset(formats.tree_from_text(a.n, a.tree))]),
    ("verify", "run the cross-check suite at order n", (),
     _N + (("--checks", {"help": "comma-separated check names (forces them past cutoffs)"}),
           ("--jobs", {"type": int, "default": 1,
                       "help": "parallel workers for play enumeration"})),
     lambda a: [enumeration.verify_all(
         a.n, checks=None if a.checks is None else a.checks.split(","), jobs=a.jobs)]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="planted-sprouts",
        description="Exact engine and bijections for the planted sprouts circle game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, extra_formats, arguments, func in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json") + extra_formats, default="text")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:  # lifted for this call only: counts are exact; b_1400 has 4406 digits
        sys.set_int_max_str_digits(0)
    code, dot = 0, getattr(args, "dot", False)  # `poset --dot` spells `--format dot`
    fmt = "dot" if dot else args.format
    try:
        if dot and args.format == "json":
            raise ValueError("--dot conflicts with --format json")
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
