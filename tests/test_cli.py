"""Command-line interface: verbs, formats, round trips, exit codes."""

import argparse
import contextlib
import decimal
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planted_sprouts import NoncrossingTree, endstate_to_tree, enumeration, game, play_from_text, replay
from planted_sprouts import parking, trees
from planted_sprouts.cli import build_parser, main
from planted_sprouts.formats import write

from helpers import SerialPool

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCounts:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "counts", "6")
        assert code == 0
        assert "a=273" in out and "b=1296" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "counts", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 4, "a": 12, "b": 16, "plane_a": 48, "plane_b": 64}


class TestEnumerate:
    def test_games_line_count(self, capsys):
        code, out, _ = run(capsys, "enumerate-games", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 16

    def test_endstates_line_count_json(self, capsys):
        code, out, _ = run(capsys, "enumerate-endstates", "4", "--format", "json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        assert all(json.loads(line)["n"] == 4 for line in lines)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_endstates_are_the_plays_endstates(self, capsys, n):
        # the listing the command made from the play walk: every play's arc
        # set once, in order of sorted edge list
        signatures = {frozenset(arcs) for arcs, _ in game._walk_plays(n)}
        listed = [NoncrossingTree(n, sig) for sig in sorted(signatures, key=sorted)]
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "enumerate-endstates", str(n), "--format", fmt)
            assert (code, err) == (0, "")
            assert out == "".join(write(tree, fmt) for tree in listed)


class TestConversions:
    def test_to_parking_from_stdin(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "to-parking", stdin="n=3: 2-3,1-3", monkeypatch=monkeypatch
        )
        assert code == 0
        assert out.strip() == "1,1"

    def test_to_tree(self, capsys):
        code, out, _ = run(capsys, "to-tree", "--play", "n=3: 1-2,2-3")
        assert code == 0
        assert out.strip() == "n=3: 1-2,2-3"

    def test_to_tree_of_a_short_play_has_the_endstate_message(self, capsys):
        # the CLI rejects a short play before replay, with the message
        # endstate_to_tree gives for the incomplete state it would reach
        code, out, err = run(capsys, "to-tree", "--play", "n=4: 1-2")
        with pytest.raises(ValueError) as raised:
            endstate_to_tree(replay(play_from_text("n=4: 1-2")))
        assert (code, out, err) == (2, "", f"error: {raised.value}\n")

    def test_to_transpositions(self, capsys):
        code, out, _ = run(capsys, "to-transpositions", "--play", "n=3: 1-2,2-3")
        assert code == 0
        assert out.strip() == "1:3,2:3"

    def test_from_parking(self, capsys):
        code, out, _ = run(capsys, "from-parking", "--n", "3", "--values", "2,1")
        assert code == 0
        assert out.strip() == "n=3: 1-3,1-2"

    def test_from_transpositions(self, capsys):
        code, out, _ = run(capsys, "from-transpositions", "--n", "3", "--transpositions", "2:3,1:2")
        assert code == 0
        assert out.strip() == "n=3: 1-3,1-2"

    def test_realize_tree(self, capsys):
        code, out, _ = run(capsys, "realize-tree", "--n", "3", "--edges", "1-2,2-3")
        assert code == 0
        assert out.strip() == "n=3: 1-2,2-3"

    def test_json_play_input(self, capsys):
        play_json = '{"moves": [[1, 2], [2, 3]], "n": 3}'
        code, out, _ = run(capsys, "to-parking", "--play", play_json)
        assert code == 0
        assert out.strip() == "1,2"

    def test_from_parking_large_all_ones(self, capsys):
        # deep enough to overflow a recursive inverse
        values = ",".join(["1"] * 2999)
        code, play_text, _ = run(capsys, "from-parking", "--n", "3000", "--values", values)
        assert code == 0
        code, pf_text, _ = run(capsys, "to-parking", "--play", play_text.strip())
        assert code == 0
        assert pf_text.strip() == values

    def test_realize_tree_deep_star(self):
        # every move of the star's realization nests inside the last one,
        # deep enough to overflow a recursive realization
        n = 3000
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        edges = ",".join(f"1-{k}" for k in range(2, n + 1))
        result = subprocess.run(
            [sys.executable, "-m", "planted_sprouts.cli", "realize-tree", "--n", str(n), "--edges", edges],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
        tree = endstate_to_tree(replay(play_from_text(result.stdout)))
        assert tree.edges == {(1, k) for k in range(2, n + 1)}

    def test_round_trip_through_text_forms(self, capsys):
        code, play_text, _ = run(capsys, "from-parking", "--n", "4", "--values", "1,3,1")
        assert code == 0
        code, pf_text, _ = run(capsys, "to-parking", "--play", play_text.strip())
        assert code == 0
        assert pf_text.strip() == "1,3,1"


class TestPoset:
    def test_json_covers(self, capsys):
        code, out, _ = run(capsys, "poset", "--n", "3", "--tree", "1-2,2-3")
        assert code == 0
        assert json.loads(out)["covers"] == [[[1, 2], [2, 3]]]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "poset", "--n", "3", "--tree", "1-2,2-3", "--dot")
        assert code == 0
        assert '"1-2" -> "2-3";' in out


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "4")
        assert code == 0
        assert "plays enumerated  16" in out
        assert "endstates         12" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "3", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["plays_enumerated"] == 3

    def test_selected_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "--checks", "play_count_power")
        assert code == 0
        assert "PASS  play_count_power" in out

    def test_large_order_runs_the_formula_checks(self, capsys):
        # the recursion b_n is built bottom up, so no recursion-depth limit
        code, out, _ = run(capsys, "verify", "400")
        assert code == 0
        assert out.endswith("PASS  variant_formulas\noverall: PASS\n")

    def test_jobs_capped_at_first_arcs(self, capsys, monkeypatch):
        # one worker per first arc at most: n=2 has one, n=4 has six
        workers = []

        class CountingPool(SerialPool):
            def __init__(self, max_workers):
                workers.append(max_workers)

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", CountingPool)
        assert run(capsys, "verify", "2", "--jobs", "64")[0] == 0
        code, out, _ = run(capsys, "verify", "4", "--jobs", "64")
        assert code == 0 and workers == [1, 6]
        assert out == run(capsys, "verify", "4")[1]


class TestErrors:
    def test_bad_parking_function(self, capsys):
        code, _, err = run(capsys, "from-parking", "--n", "3", "--values", "2,2")
        assert code == 2
        assert "not a parking function" in err

    def test_bad_play_text(self, capsys):
        code, _, err = run(capsys, "to-parking", "--play", "garbage")
        assert code == 2
        assert "error:" in err

    def test_illegal_play(self, capsys):
        code, _, err = run(capsys, "to-parking", "--play", "n=3: 1-2,1-3")
        assert code == 2
        assert "different subgames" in err

    def test_bad_tree(self, capsys):
        code, _, err = run(capsys, "realize-tree", "--n", "4", "--edges", "1-3,2-4,1-2")
        assert code == 2
        assert "not a noncrossing tree" in err

    @pytest.mark.parametrize(
        "play,field",
        [
            ('{"n":3}', "'moves'"),
            ('{"n":3,"moves":5}', "'moves'"),
            ('{"n":3,"moves":[[1,"2"]]}', "'moves'"),
            ('{"n":[3],"moves":[]}', "'n'"),
            ('{"n":true,"moves":[]}', "'n'"),
            ('{"n":2,"moves":[[true,2]]}', "'moves'"),
        ],
    )
    def test_malformed_json_play(self, capsys, play, field):
        code, _, err = run(capsys, "to-parking", "--play", play)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("poset", "--n", "2", "--tree", "1-2,1-2"),
            ("realize-tree", "--n", "3", "--edges", "1-2,2-1,2-3"),
        ],
    )
    def test_repeated_edge(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "repeated" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counts"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,stdin,expected",
    [
        (["from-parking", "--n", "1", "--values", ""], "2,1", (0, "n=1:\n", "")),
        (
            ["from-transpositions", "--n", "1", "--transpositions", ""],
            "2:3,1:2",
            (0, "n=1:\n", ""),
        ),
        (
            ["to-parking", "--play", ""],
            "n=3: 1-2,2-3",
            (2, "", "error: expected a play of the form 'n=<n>: i-j,i-j,...', got ''\n"),
        ),
    ],
    ids=["values", "transpositions", "play"],
)
def test_an_empty_flag_is_read_and_stdin_is_not(capsys, monkeypatch, argv, stdin, expected):
    # stdin stands in for an omitted flag only; '' given on the command line is the input
    assert run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch) == expected
    assert sys.stdin.read() == stdin


def test_the_maps_are_looked_up_when_a_command_runs(capsys, monkeypatch):
    # perfbench's tracer and the tests replace module attributes; a subcommand that held
    # the function it found at import would still run the original
    def refuse(play):
        raise ValueError("refused")

    monkeypatch.setattr(trees, "enumerate_noncrossing_trees", lambda n: [])
    monkeypatch.setattr(parking, "game_to_parking", refuse)
    assert run(capsys, "enumerate-endstates", "3") == (0, "", "")
    assert run(capsys, "to-parking", "--play", "n=3: 1-2,2-3") == (2, "", "error: refused\n")


_HELP = (
    "_HelpAction", ("-h", "--help"), "help", None, False, argparse.SUPPRESS, None,
    "show this help message and exit",
)
_FORMAT = ("_StoreAction", ("--format",), "format", None, False, "text", ("text", "json"), None)
_FORMAT_DOT = _FORMAT[:6] + (("text", "json", "dot"), None)
_ORDER = ("_StoreAction", (), "n", int, True, None, None, None)
_ORDER_FLAG = ("_StoreAction", ("--n",), "n", int, True, None, None, None)


def _text_flag(flag, help_text, required=False):
    return ("_StoreAction", (flag,), flag[2:], None, required, None, None, help_text)


_PLAY_FLAG = _text_flag("--play", "play text or JSON; read from stdin if omitted")
_EDGE_HELP = "edge list i-j,i-j,..."

# Every subcommand in --help order: its help, then each of its actions as
# (class, option strings, dest, type, required, default, choices, help).
PARSER_SPEC = {
    "counts": ("endstate, play, and plane-variant counts", [_FORMAT, _ORDER]),
    "enumerate-games": ("stream every complete play, one per line", [_FORMAT, _ORDER]),
    "enumerate-endstates": ("stream every distinct endstate", [_FORMAT, _ORDER]),
    "to-tree": ("endstate tree of a complete play", [_FORMAT_DOT, _PLAY_FLAG]),
    "to-parking": ("parking function of a complete play", [_FORMAT, _PLAY_FLAG]),
    "to-transpositions": ("transposition sequence of a complete play", [_FORMAT, _PLAY_FLAG]),
    "from-parking": (
        "unique play realizing a parking function",
        [_FORMAT, _ORDER_FLAG, _text_flag("--values", "comma-separated values; read from stdin if omitted")],
    ),
    "from-transpositions": (
        "unique play with given transpositions",
        [_FORMAT, _ORDER_FLAG, _text_flag("--transpositions", "a:b,a:b,...; read from stdin if omitted")],
    ),
    "realize-tree": (
        "canonical play reaching a noncrossing tree",
        [_FORMAT, _ORDER_FLAG, _text_flag("--edges", _EDGE_HELP, required=True)],
    ),
    "poset": (
        "edge poset of a noncrossing tree",
        [
            _FORMAT_DOT,
            _ORDER_FLAG,
            _text_flag("--tree", _EDGE_HELP, required=True),
            ("_StoreTrueAction", ("--dot",), "dot", None, False, False, None, "emit DOT (same as --format dot)"),
        ],
    ),
    "verify": (
        "run the cross-check suite at order n",
        [
            _FORMAT,
            _ORDER,
            _text_flag("--checks", "comma-separated check names (forces them past cutoffs)"),
            ("_StoreAction", ("--jobs",), "jobs", int, False, 1, None, "parallel workers for play enumeration"),
        ],
    ),
}


def test_parser_spec():
    # what --help prints, field by field, so a mistyped row shows on any Python
    parser = build_parser()
    assert parser.prog == "planted-sprouts"
    assert parser.description == "Exact engine and bijections for the planted sprouts circle game."
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    assert [(c.dest, c.help) for c in sub._choices_actions] == [
        (name, help_text) for name, (help_text, _) in PARSER_SPEC.items()
    ]
    for name, (_, actions) in PARSER_SPEC.items():
        got = [
            (type(a).__name__, tuple(a.option_strings), a.dest, a.type, a.required, a.default)
            + (None if a.choices is None else tuple(a.choices), a.help)
            for a in sub.choices[name]._actions
        ]
        assert got == [_HELP, *actions], name


def call(argv):
    """cli.main on argv with empty stdin; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO("")):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


_CHECKS = (
    "play_count_power play_count_recursion endstate_count signatures_are_noncrossing_trees "
    "tree_bijection_image realization_round_trip parking_injective parking_image "
    "parking_round_trip factorization_product factorization_image cycle_growth "
    "poset_linear_extensions primary_edge_coherence variant_formulas"
).split()
_TABLE_TAIL = "".join(f"PASS  {name}\n" for name in _CHECKS) + "overall: PASS\n"
_CHECKS_JSON = (
    '{"checks": {"cycle_growth": true, "endstate_count": true, "factorization_image": true, '
    '"factorization_product": true, "parking_image": true, "parking_injective": true, '
    '"parking_round_trip": true, "play_count_power": true, "play_count_recursion": true, '
    '"poset_linear_extensions": true, "primary_edge_coherence": true, '
    '"realization_round_trip": true, "signatures_are_noncrossing_trees": true, '
    '"tree_bijection_image": true, "variant_formulas": true}, '
)
_P4 = "'n=4: 1-3,1-2,3-4'"
_P4_JSON = """'{"moves": [[1, 3], [1, 2], [3, 4]], "n": 4}'"""
_DOT4 = (
    'graph noncrossing_tree {\n  layout=neato;\n  1 [pos="0.0000,1.0000!"];\n'
    '  2 [pos="1.0000,0.0000!"];\n  3 [pos="0.0000,-1.0000!"];\n  4 [pos="-1.0000,-0.0000!"];\n'
    "  1 -- 2;\n  1 -- 3 [primary=true, penwidth=2];\n  3 -- 4;\n}\n"
)
_POSET4 = '{"covers": [[[1, 3], [1, 2]], [[1, 3], [3, 4]]], "edges": [[1, 2], [1, 3], [3, 4]], "n": 4}\n'
_POSET4_DOT = 'digraph edge_poset {\n  "1-2";\n  "1-3";\n  "3-4";\n  "1-3" -> "1-2";\n  "1-3" -> "3-4";\n}\n'
_POSET1 = '{"covers": [], "edges": [], "n": 1}\n'

# Exact stdout and stderr bytes, with the exit code, of every subcommand in
# every format it accepts, at n = 1 and at one larger order.  Stdin is empty.
GOLDEN = {
    "counts 1": (0, "a=1 b=1 plane_a=1 plane_b=1\n", ""),
    "counts 1 --format json": (0, '{"a": 1, "b": 1, "n": 1, "plane_a": 1, "plane_b": 1}\n', ""),
    "counts 4": (0, "a=12 b=16 plane_a=48 plane_b=64\n", ""),
    "counts 4 --format json": (0, '{"a": 12, "b": 16, "n": 4, "plane_a": 48, "plane_b": 64}\n', ""),
    "verify 1": (
        0,
        "n                 1\nplays enumerated  1\nendstates         1\nformula a_n       1\n"
        "formula b_n       1\nrecursion b_n     1\nparking image     1\nfactorizations    1\n"
        + _TABLE_TAIL,
        "",
    ),
    "verify 1 --format json": (
        0,
        _CHECKS_JSON + '"endstates_distinct": 1, "fact_image_size": 1, "formula_a_n": 1, '
        '"formula_b_n": 1, "n": 1, "passed": true, "pf_image_size": 1, '
        '"plays_enumerated": 1, "recursion_b_n": 1}\n',
        "",
    ),
    "verify 4": (
        0,
        "n                 4\nplays enumerated  16\nendstates         12\nformula a_n       12\n"
        "formula b_n       16\nrecursion b_n     16\nparking image     16\nfactorizations    16\n"
        + _TABLE_TAIL,
        "",
    ),
    "verify 4 --format json": (
        0,
        _CHECKS_JSON + '"endstates_distinct": 12, "fact_image_size": 16, "formula_a_n": 12, '
        '"formula_b_n": 16, "n": 4, "passed": true, "pf_image_size": 16, '
        '"plays_enumerated": 16, "recursion_b_n": 16}\n',
        "",
    ),
    "enumerate-games 1": (0, "n=1:\n", ""),
    "enumerate-games 1 --format json": (0, '{"moves": [], "n": 1}\n', ""),
    "enumerate-games 3": (0, "n=3: 1-2,2-3\nn=3: 1-3,1-2\nn=3: 2-3,1-3\n", ""),
    "enumerate-games 3 --format json": (
        0,
        '{"moves": [[1, 2], [2, 3]], "n": 3}\n{"moves": [[1, 3], [1, 2]], "n": 3}\n'
        '{"moves": [[2, 3], [1, 3]], "n": 3}\n',
        "",
    ),
    "enumerate-endstates 1": (0, "n=1: \n", ""),
    "enumerate-endstates 1 --format json": (0, '{"edges": [], "n": 1}\n', ""),
    "enumerate-endstates 3": (0, "n=3: 1-2,1-3\nn=3: 1-2,2-3\nn=3: 1-3,2-3\n", ""),
    "enumerate-endstates 3 --format json": (
        0,
        '{"edges": [[1, 2], [1, 3]], "n": 3}\n{"edges": [[1, 2], [2, 3]], "n": 3}\n'
        '{"edges": [[1, 3], [2, 3]], "n": 3}\n',
        "",
    ),
    "to-tree --play n=1:": (0, "n=1: \n", ""),
    "to-tree --play n=1: --format json": (0, '{"edges": [], "n": 1}\n', ""),
    "to-tree --play n=1: --format dot": (
        0,
        'graph noncrossing_tree {\n  layout=neato;\n  1 [pos="0.0000,1.0000!"];\n}\n',
        "",
    ),
    f"to-tree --play {_P4}": (0, "n=4: 1-2,1-3,3-4\n", ""),
    f"to-tree --play {_P4_JSON} --format json": (0, '{"edges": [[1, 2], [1, 3], [3, 4]], "n": 4}\n', ""),
    f"to-tree --play {_P4} --format dot": (0, _DOT4, ""),
    "to-parking --play n=1:": (0, "\n", ""),
    "to-parking --play n=1: --format json": (0, "[]\n", ""),
    f"to-parking --play {_P4_JSON}": (0, "2,1,3\n", ""),
    f"to-parking --play {_P4} --format json": (0, "[2, 1, 3]\n", ""),
    "to-transpositions --play n=1:": (0, "\n", ""),
    "to-transpositions --play n=1: --format json": (0, "[]\n", ""),
    f"to-transpositions --play {_P4}": (0, "2:4,1:2,3:4\n", ""),
    f"to-transpositions --play {_P4_JSON} --format json": (0, "[[2, 4], [1, 2], [3, 4]]\n", ""),
    "from-parking --n 1 --values ''": (0, "n=1:\n", ""),
    "from-parking --n 1 --values '' --format json": (0, '{"moves": [], "n": 1}\n', ""),
    "from-parking --n 4 --values 1,3,1": (0, "n=4: 2-3,1-4,1-3\n", ""),
    "from-parking --n 4 --values 1,3,1 --format json": (
        0,
        '{"moves": [[2, 3], [1, 4], [1, 3]], "n": 4}\n',
        "",
    ),
    "from-transpositions --n 1 --transpositions ''": (0, "n=1:\n", ""),
    "from-transpositions --n 1 --transpositions '' --format json": (0, '{"moves": [], "n": 1}\n', ""),
    "from-transpositions --n 4 --transpositions 1:4,2:4,3:4": (0, "n=4: 1-2,2-3,3-4\n", ""),
    "from-transpositions --n 4 --transpositions 1:4,2:4,3:4 --format json": (
        0,
        '{"moves": [[1, 2], [2, 3], [3, 4]], "n": 4}\n',
        "",
    ),
    "realize-tree --n 1 --edges ''": (0, "n=1:\n", ""),
    "realize-tree --n 1 --edges '' --format json": (0, '{"moves": [], "n": 1}\n', ""),
    "realize-tree --n 4 --edges 1-2,1-3,3-4": (0, "n=4: 1-3,1-2,3-4\n", ""),
    "realize-tree --n 4 --edges 1-2,1-3,3-4 --format json": (
        0,
        '{"moves": [[1, 3], [1, 2], [3, 4]], "n": 4}\n',
        "",
    ),
    "poset --n 1 --tree ''": (0, _POSET1, ""),
    "poset --n 1 --tree '' --format json": (0, _POSET1, ""),
    "poset --n 1 --tree '' --format dot": (0, "digraph edge_poset {\n}\n", ""),
    "poset --n 1 --tree '' --dot": (0, "digraph edge_poset {\n}\n", ""),
    "poset --n 4 --tree 1-2,1-3,3-4": (0, _POSET4, ""),
    "poset --n 4 --tree 1-2,1-3,3-4 --format json": (0, _POSET4, ""),
    "poset --n 4 --tree 1-2,1-3,3-4 --format dot": (0, _POSET4_DOT, ""),
    "poset --n 4 --tree 1-2,1-3,3-4 --dot": (0, _POSET4_DOT, ""),
    # one malformed input for each reader
    "to-parking --play 'n=3: 1/2'": (2, "", "error: bad move token '1/2'; expected 'i-j'\n"),
    """to-parking --play '{"n":3,"moves":5}'""": (
        2,
        "",
        "error: JSON field 'moves' must be a list of [i, j] pairs, got 5\n",
    ),
    "realize-tree --n 3 --edges 1-2,2/3": (2, "", "error: bad edge token '2/3'; expected 'i-j'\n"),
    "realize-tree --n 2 --edges ''": (2, "", "error: not a noncrossing tree on 2 vertices: []\n"),
    "from-transpositions --n 3 --transpositions 1-2": (
        2,
        "",
        "error: bad transposition token '1-2'; expected 'a:b'\n",
    ),
    "from-transpositions --n 3 --transpositions ' 1-2 '": (
        2,
        "",
        "error: bad transposition token '1-2'; expected 'a:b'\n",
    ),
    "from-parking --n 3 --values 1,x": (2, "", "error: invalid literal for int() with base 10: 'x'\n"),
    "verify 3 --jobs 0": (2, "", "error: jobs must be at least 1, got 0\n"),
    "verify 3 --jobs -5": (2, "", "error: jobs must be at least 1, got -5\n"),
}


@pytest.mark.parametrize("command", GOLDEN)
def test_golden_bytes(command):
    assert call(shlex.split(command)) == GOLDEN[command]


_PLAY_FORM = "error: expected a play of the form 'n=<n>: i-j,i-j,...', got '--'\n"
_BAD_EDGE = "error: bad edge token '--'; expected 'i-j'\n"

# `--flag=--` on each text flag: Python 3.13's argparse reads the value as the
# text '--', 3.10-3.12's store [] unless the parser reads it as 3.13 does
DOUBLE_DASH = {
    "to-tree --play=--": (2, "", _PLAY_FORM),
    "to-parking --play=--": (2, "", _PLAY_FORM),
    "to-transpositions --play=--": (2, "", _PLAY_FORM),
    "from-parking --n 3 --values=--": (2, "", "error: invalid literal for int() with base 10: '--'\n"),
    "from-transpositions --n 3 --transpositions=--": (
        2,
        "",
        "error: bad transposition token '--'; expected 'a:b'\n",
    ),
    "realize-tree --n 3 --edges=--": (2, "", _BAD_EDGE),
    "poset --n 3 --tree=--": (2, "", _BAD_EDGE),
    "verify 3 --checks=--": (2, "", f"error: unknown checks: ['--']; known: {_CHECKS}\n"),
}


@pytest.mark.parametrize("command", DOUBLE_DASH)
def test_a_text_flag_of_double_dash_is_read_as_text(command):
    assert call(shlex.split(command)) == DOUBLE_DASH[command]


@pytest.mark.parametrize(
    "command,message",
    [
        ("verify 3 --jobs=--", "argument --jobs: invalid int value: '--'"),
        ("poset --n=-- --tree 1-2", "argument --n: invalid int value: '--'"),
        ("counts 3 --format=--", "argument --format: invalid choice: '--'"),
    ],
)
def test_an_option_of_double_dash_is_a_usage_error(capsys, command, message):
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(command))
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"planted-sprouts {command.split()[0]}: error: {message}")


def test_an_empty_check_list_names_one_unknown_check():
    # '' is a selection like any other value, not the default suite
    expected = f"error: unknown checks: ['']; known: {_CHECKS}\n"
    assert call(["verify", "3", "--checks", ""]) == (2, "", expected)


def test_poset_dot_conflicts_with_format_json_only():
    argv = ["poset", "--n", "4", "--tree", "1-2,1-3,3-4"]
    assert call(argv + ["--format", "json", "--dot"]) == (
        2,
        "",
        "error: --dot conflicts with --format json\n",
    )
    for extra in (["--dot"], ["--format", "dot"], ["--format", "text", "--dot"]):
        assert call(argv + extra) == (0, _POSET4_DOT, ""), extra


def test_counts_print_exact_integers_of_any_size():
    # b_1400 has 4406 digits, past Python's default limit on int -> str; the
    # digits are read back as a Decimal, which that limit does not cover
    code, out, err = call(["counts", "1400", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out, parse_int=decimal.Decimal)["b"] == 1400**1398


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit before 3.11"
)
def test_main_leaves_the_int_digit_limit_as_it_found_it():
    # main lifts the limit only while it writes; a value of this test's own
    # shows a main that switched the limit off and left it off
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for argv in (["counts", "3"], ["counts", "1400"], ["counts", "-1"]):
            call(argv)
            assert sys.get_int_max_str_digits() == 5000, argv
    finally:
        sys.set_int_max_str_digits(before)


def assert_clean_exit(argv):
    code, _, err = call(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


# Orders stay small, and junk has no "=" to spell one, so each example runs
# fast; TestProcess covers a play of huge order.
_label = st.integers(-2, 9) | st.booleans() | st.none() | st.text("12-", max_size=2)
_pairs = st.lists(st.lists(_label, max_size=3) | _label, max_size=8)
_json = st.fixed_dictionaries({}, optional={"n": _label, "moves": _pairs | _label, "edges": _pairs})
_token = st.tuples(st.integers(-2, 9), st.sampled_from("-:,; "), st.integers(-2, 9))
_pair_text = st.lists(_token.map(lambda t: "%d%s%d" % t), max_size=8).map(",".join)
_play_text = st.tuples(st.integers(0, 8), _pair_text).map(lambda t: "n=%d: %s" % t)
_values = st.lists(st.integers(-2, 9), max_size=8).map(lambda v: ",".join(map(str, v)))
_junk = st.text("0123456789-:,n {}[]\"t\n", max_size=12)
_text = _json.map(json.dumps) | _play_text | _pair_text | _values | _junk
_formats = st.sampled_from(["text", "json", "dot"])
_PLAY_VERBS = ("to-tree", "to-parking", "to-transpositions")
_N_VERBS = (
    ("from-parking", "--values"),
    ("from-transpositions", "--transpositions"),
    ("realize-tree", "--edges"),
    ("poset", "--tree"),
)
_ORDER_VERBS = ("counts", "enumerate-games", "enumerate-endstates", "verify")


def _with_format(argv, fmt):
    """argv plus a --format its subcommand accepts."""
    if fmt == "dot" and argv[0] not in ("to-tree", "poset"):
        fmt = "json"
    return argv + ["--format", fmt]


class TestFuzz:
    @pytest.mark.parametrize(
        "argv",
        [
            ["to-tree", '--play={"n":true,"moves":[]}'],
            ["to-transpositions", '--play={"n":3,"moves":[[1,2],[1,2]]}'],
            ["to-parking", "--play=n=3: 1-2,1-2"],
            ["to-tree", "--play=n=3: 1-2"],
            ["to-parking", "--play=n=0:"],
            ["to-transpositions", "--play=n=3: 1-4,2-3"],
            ["to-tree", "--play=[1, 2]"],
            ["realize-tree", "--n", "3", "--edges", "1-1,2-3"],
            ["poset", "--n", "0", "--tree", "1-2"],
            ["poset", "--n", "3", "--tree", "1-2-3"],
            ["from-parking", "--n", "3", "--values=-1,1"],
            ["from-parking", "--n", "3", "--values", "1,x"],
            ["from-parking", "--n", "0", "--values", "1"],
            ["from-transpositions", "--n", "3", "--transpositions", "1:2,1:2"],
            ["from-transpositions", "--n", "3", "--transpositions", "1:3,2:4"],
            ["from-transpositions", "--n", "2", "--transpositions", "1-2"],
            ["verify", "3", "--checks", "nonsense"],
            ["counts", "0"],
            ["enumerate-endstates", "-1"],
        ],
    )
    def test_malformed_input_exits_0_or_2(self, argv):
        assert_clean_exit(argv)

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(_PLAY_VERBS), _text, _formats)
    def test_play_verbs(self, verb, text, fmt):
        assert_clean_exit(_with_format([verb, f"--play={text}"], fmt))

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(_N_VERBS), st.integers(-1, 8), _text, _formats)
    def test_verbs_with_order(self, verb, n, text, fmt):
        name, option = verb
        assert_clean_exit(_with_format([name, f"--n={n}", f"{option}={text}"], fmt))

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(_ORDER_VERBS), st.integers(-2, 4), _formats)
    def test_verbs_of_order_alone(self, verb, n, fmt):
        assert_clean_exit(_with_format([verb, str(n)], fmt))


def _cli(*argv):
    """argv for `python -m planted_sprouts.cli`, and an environment that finds src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "planted_sprouts.cli", *argv], env


class TestProcess:
    @pytest.mark.parametrize("verb", _PLAY_VERBS)
    def test_short_play_of_huge_order(self, verb):
        # rejected before anything of size n is built: under a 1 GB address
        # space, one list of 10**12 labels would end in MemoryError
        resource = pytest.importorskip("resource")
        limit = 1 << 30
        argv, env = _cli(verb, "--play", "n=1000000000000:")
        result = subprocess.run(
            argv,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "not complete" in result.stderr

    def test_closed_stdout_ends_quietly(self):
        argv, env = _cli("enumerate-games", "7")
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()  # like `| head -n 1`
            err = proc.stderr.read()
        finally:
            proc.stderr.close()
            proc.wait(timeout=60)
        assert first.startswith(b"n=7: ")
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
