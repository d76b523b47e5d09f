"""Every text, JSON and DOT form of the package's objects, in one place.

Plays are ``n=<n>: i-j,...`` or JSON; trees are written ``n=<n>: i-j,...``,
JSON or DOT and read as ``i-j,...``; parking functions are ``1,3,1`` and
transpositions ``1:3,2:3``.  `write` gives the command line's form of a result.
"""

import json
import math
import re

from .enumeration import CountReport
from .factorizations import TranspositionSeq
from .game import PlaySequence
from .parking import ParkingFunction
from .poset import EdgePoset
from .trees import NoncrossingTree, primary_edges

_PLAY_RE = re.compile(r"^\s*n\s*=\s*(\d+)\s*:\s*(.*?)\s*$")


def _pairs_to_text(pairs, sep: str = "-") -> str:
    return ",".join(f"{a}{sep}{b}" for a, b in pairs)


def _pairs_from_text(body: str, noun: str, form: str) -> list:
    """Integer pairs from comma-separated tokens shaped like `form`, 'i-j' or 'a:b'."""
    body = body.strip()
    pairs = []
    for token in body.split(",") if body else ():
        parts = token.strip().split(form[1])
        if len(parts) != 2:
            raise ValueError(f"bad {noun} token {token!r}; expected {form!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def _from_json(text: str, key: str):
    """(n, pairs) from {"n": n, key: [[i, j], ...]}; ValueError names a bad field."""
    obj = json.loads(text)
    for name in ("n", key):
        if not isinstance(obj, dict) or name not in obj:
            raise ValueError(f"JSON field {name!r} is missing")
    n, pairs = obj["n"], obj[key]
    if type(n) is not int:  # JSON true is a bool, not 1
        raise ValueError(f"JSON field 'n' must be an integer, got {n!r}")
    if not isinstance(pairs, list):
        raise ValueError(f"JSON field {key!r} must be a list of [i, j] pairs, got {pairs!r}")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair)):
            raise ValueError(f"JSON field {key!r} holds {pair!r}; expected a pair of integers")
    return n, [tuple(pair) for pair in pairs]


def play_to_text(play: PlaySequence) -> str:
    body = _pairs_to_text(play.moves)
    return f"n={play.n}: {body}" if body else f"n={play.n}:"


def play_from_text(text: str) -> PlaySequence:
    m = _PLAY_RE.match(text)
    if not m:
        raise ValueError(f"expected a play of the form 'n=<n>: i-j,i-j,...', got {text!r}")
    return PlaySequence.of(int(m.group(1)), _pairs_from_text(m.group(2), "move", "i-j"))


def play_to_json(play: PlaySequence) -> str:
    obj = {"n": play.n, "moves": play.moves}
    return json.dumps(obj, sort_keys=True)


def play_from_json(text: str) -> PlaySequence:
    return PlaySequence.of(*_from_json(text, "moves"))


def read_play(text: str) -> PlaySequence:
    """A play in either form: JSON if it starts with '{', text otherwise."""
    text = text.strip()
    return play_from_json(text) if text.startswith("{") else play_from_text(text)


def tree_to_text(tree: NoncrossingTree) -> str:
    """Edges sorted, after ``n=<n>: `` even when there are none."""
    return f"n={tree.n}: {_pairs_to_text(sorted(tree.edges))}"


def tree_from_text(n: int, text: str) -> NoncrossingTree:
    return NoncrossingTree.from_edges(n, _pairs_from_text(text, "edge", "i-j"))


def edges_to_json(n: int, edges) -> str:
    """Canonical JSON for an edge set: pairs sorted ascending, list sorted."""
    pairs = sorted(sorted(e) for e in edges)
    return json.dumps({"n": n, "edges": pairs}, sort_keys=True)


def parking_to_text(pf: ParkingFunction) -> str:
    return ",".join(map(str, pf.values))


def parking_from_text(n: int, text: str) -> ParkingFunction:
    body = text.strip()
    values = tuple(int(tok) for tok in body.split(",")) if body else ()
    return ParkingFunction(n=n, values=values)


def seq_to_text(seq: TranspositionSeq) -> str:
    return _pairs_to_text(seq.transpositions, ":")


def seq_from_text(n: int, text: str) -> TranspositionSeq:
    return TranspositionSeq.of(n, _pairs_from_text(text, "transposition", "a:b"))


def tree_to_dot(tree: NoncrossingTree) -> str:
    """DOT form with circular position hints; primary edges carry primary=true."""
    prim = primary_edges(tree)
    lines = ["graph noncrossing_tree {", "  layout=neato;"]
    for v in range(1, tree.n + 1):
        angle = 2 * math.pi * (v - 1) / tree.n
        x, y = math.sin(angle), math.cos(angle)
        lines.append(f'  {v} [pos="{x:.4f},{y:.4f}!"];')
    for i, j in sorted(tree.edges):
        attrs = " [primary=true, penwidth=2]" if (i, j) in prim else ""
        lines.append(f"  {i} -- {j}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_dot(poset: EdgePoset) -> str:
    lines = ["digraph edge_poset {"]
    for i, j in sorted(poset.tree.edges):
        lines.append(f'  "{i}-{j}";')
    for (a, b), (c, d) in sorted(poset.covers):
        lines.append(f'  "{a}-{b}" -> "{c}-{d}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(poset: EdgePoset) -> str:
    obj = {
        "n": poset.tree.n,
        "edges": sorted(list(e) for e in poset.tree.edges),
        "covers": sorted([list(e), list(f)] for e, f in poset.covers),
    }
    return json.dumps(obj, sort_keys=True)


# Each result type's text and JSON writers; `counts` yields a dict.
_FORMS = {
    PlaySequence: (play_to_text, play_to_json),
    NoncrossingTree: (tree_to_text, lambda tree: edges_to_json(tree.n, tree.edges)),
    ParkingFunction: (parking_to_text, lambda pf: json.dumps(pf.values)),
    TranspositionSeq: (seq_to_text, lambda seq: json.dumps(seq.transpositions)),
    EdgePoset: (poset_to_json, poset_to_json),
    CountReport: (CountReport.to_table, CountReport.to_json),
    dict: (
        lambda counts: " ".join(f"{k}={v}" for k, v in counts.items() if k != "n"),
        lambda counts: json.dumps(counts, sort_keys=True),
    ),
}


def write(obj, fmt: str) -> str:
    """A result in form `fmt` ('text', 'json' or 'dot'), ending in one newline."""
    if fmt == "dot":
        return tree_to_dot(obj) if isinstance(obj, NoncrossingTree) else poset_to_dot(obj)
    text, as_json = _FORMS[type(obj)]
    return (as_json if fmt == "json" else text)(obj) + "\n"
