"""Spans around the package's public calls, recorded from outside.

While a Recorder is installed, each traced function is replaced, in every
loaded module of the package that binds it, by a wrapper that records a
span (name, start, end, parent index, tag).  Calls the package makes to
itself through those bindings (verify_all calling replay, game_to_parking
calling replay) therefore nest under their caller.  The program source is
not changed, and uninstall puts every original binding back.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "planted_sprouts"

# (module, function) pairs; the span name is "module.function".
TRACED = (
    ("cli", "main"),
    ("enumeration", "verify_all"),
    ("trees", "enumerate_noncrossing_trees"),
    ("trees", "tree_to_canonical_game"),
    ("trees", "endstate_to_tree"),
    ("trees", "primary_edges"),
    ("game", "replay"),
    ("parking", "game_to_parking"),
    ("parking", "parking_to_game"),
    ("factorizations", "game_to_transpositions"),
    ("factorizations", "transpositions_to_game"),
    ("poset", "build_poset"),
    ("poset", "linear_extensions"),
    ("poset", "games_with_endstate"),
)
SPAN_NAMES = tuple(f"{module}.{func}" for module, func in TRACED)
MODULES = ("cli", "enumeration", "game", "trees", "parking", "factorizations", "poset")

# The single-object maps whose per-call time is fitted against n.
SCALED = (
    "trees.tree_to_canonical_game",
    "game.replay",
    "trees.endstate_to_tree",
    "parking.game_to_parking",
    "parking.parking_to_game",
    "factorizations.game_to_transpositions",
    "factorizations.transpositions_to_game",
    "trees.primary_edges",
    "poset.build_poset",
)


class Recorder:
    """In-memory span store; `tag` labels the spans of the current object."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.tag = None
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.tag)

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == PACKAGE]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def summarize(spans) -> dict:
    """Per-span-name calls and inclusive seconds, per-module self seconds,
    and the n=1000 / n=250 per-call exponent of each scaled map."""
    out = {}
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        inclusive[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        self_time[name.split(".")[0]] += end - start - child_time[index]
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = inclusive[name]
    for module in MODULES:
        out[f"{module}.s"] = self_time[module]
    by_size = defaultdict(list)
    for name, start, end, _, tag in spans:
        if tag in ("random-250", "random-1000"):
            by_size[name, tag].append(end - start)
    for name in SCALED:
        small, large = by_size[name, "random-250"], by_size[name, "random-1000"]
        exponent = 0.0
        if small and large:
            ratio = (sum(large) / len(large)) / (sum(small) / len(small))
            exponent = math.log(ratio, 4)
        out[f"{name}.exponent"] = exponent
    return out


def per_layer_names() -> list:
    names = [f"{name}.{kind}" for name in SPAN_NAMES for kind in ("calls", "s")]
    names += [f"{module}.s" for module in MODULES]
    names += [f"{name}.exponent" for name in SCALED]
    return names
