"""The workloads and the output gate each pass goes through.

A pass is timed in parts (`Laps`): the whole verify command, the tree
enumeration and batches of trees, or one large object.  The reference
loop (reference.py) is timed before, during and after each part, so run.py
can report it in reference seconds, which the host's load moves little.

Every call into the package goes through a module attribute
(`pkg.trees.tree_to_canonical_game`, not a name bound at import), so the
spans of tracing.Recorder see the benchmark's calls as well as the
package's calls to itself.  Each result is checked as soon as it is made
and then dropped: holding thousands of GameStates slows later calls
through gen-2 garbage collection.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from time import perf_counter

from inputs import random_parking, structured_parking
from reference import Speedometer


class Laps:
    """Durations of the named parts of one pass, each with the mean time of
    the reference loops run before, during and after it."""

    def __init__(self):
        self.parts = {}  # name -> (seconds, reference loop seconds)

    @contextlib.contextmanager
    def part(self, name):
        speed = Speedometer()
        speed.start()
        start = perf_counter()
        try:
            yield
        finally:
            seconds = perf_counter() - start
            speed.stop()
            self.parts[name] = (seconds - speed.spent_s, speed.loop_s)


class Tally:
    """Operations attempted and failed; keeps the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)

    def chain(self, what, fn, *args):
        """Run one chain of checks as one operation; an exception fails it.
        `what` names the input and is formatted only on failure.  Returns
        the chain's result, or None when it failed."""
        try:
            failures, result = fn(*args)
        except Exception as exc:  # any raise is a failed operation, counted
            self.op(False, f"{what}: {type(exc).__name__}: {exc}")
            return None
        self.op(not failures, f"{what}: {', '.join(failures)}")
        return None if failures else result


def successor_product_ok(n: int, transpositions) -> bool:
    """Independent check that the in-order product is k -> k+1 (mod n)."""
    image = list(range(n + 1))  # image[x] after the transpositions so far
    source = list(range(n + 1))  # source[y] = x with image[x] == y
    for a, b in transpositions:
        xa, xb = source[a], source[b]
        image[xa], image[xb] = b, a
        source[a], source[b] = xb, xa
    return all(image[x] == x % n + 1 for x in range(1, n + 1))


def _sorted_arcs(moves):
    return tuple(tuple(sorted(arc)) for arc in moves)


def _realization_ok(pkg, tree, failures):
    """tree_to_canonical_game, replay, endstate_to_tree gives the tree back."""
    play = pkg.trees.tree_to_canonical_game(tree)
    if pkg.trees.endstate_to_tree(pkg.game.replay(play)) != tree:
        failures.append("realization round trip")
    return play


def _factorization_ok(pkg, play, failures):
    seq = pkg.factorizations.game_to_transpositions(play)
    if not successor_product_ok(play.n, seq.transpositions):
        failures.append("transposition product")
    if pkg.factorizations.transpositions_to_game(seq).moves != play.moves:
        failures.append("transposition round trip")


def _primary_ok(pkg, tree, failures):
    prim = pkg.trees.primary_edges(tree)
    edge_poset = pkg.poset.build_poset(tree)
    if not prim or edge_poset.minimal_elements() != prim:
        failures.append("primary edges are the poset minima")
    return edge_poset


def tree_chain(pkg, tree):
    """Endstate chain from a noncrossing tree.  Returns (failed checks,
    number of linear extensions)."""
    parking, poset = pkg.parking, pkg.poset
    failures = []
    play = _realization_ok(pkg, tree, failures)
    if parking.parking_to_game(parking.game_to_parking(play)).moves != play.moves:
        failures.append("parking round trip")
    _factorization_ok(pkg, play, failures)
    edge_poset = _primary_ok(pkg, tree, failures)
    extensions = poset.linear_extensions(edge_poset)
    orders = {_sorted_arcs(p.moves) for p in poset.games_with_endstate(tree)}
    if set(extensions) != orders or len(orders) != len(extensions):
        failures.append("linear extensions are the play orders")
    return failures, len(extensions)


def parking_chain(pkg, n: int, values):
    """The same chain without extensions, entered at parking_to_game;
    game_to_parking must give the input back.  Returns (failed checks, None)."""
    parking = pkg.parking
    failures = []
    play = parking.parking_to_game(parking.ParkingFunction(n, values))
    if parking.game_to_parking(play).values != values:
        failures.append("parking round trip")
    tree = pkg.trees.endstate_to_tree(pkg.game.replay(play))
    _realization_ok(pkg, tree, failures)
    _factorization_ok(pkg, play, failures)
    _primary_ok(pkg, tree, failures)
    return failures, None


class VerifyWorkload:
    """In-process `planted-sprouts verify`, JSON report captured and gated."""

    def __init__(self, argv, expected):
        self.argv = list(argv)
        self.expected = dict(expected)

    def make_inputs(self, seed: int):
        # The command line fixes the input; the seed selects nothing.
        return self.argv

    def run_pass(self, pkg, argv, index: int, tally: Tally, laps: Laps, recorder=None) -> int:
        buf = io.StringIO()
        try:
            with laps.part("verify"), contextlib.redirect_stdout(buf):
                code = pkg.cli.main(argv)
            report = json.loads(buf.getvalue())
        except Exception as exc:  # a crash fails the pass, counted
            tally.op(False, f"verify raised {type(exc).__name__}: {exc}")
            return 0
        tally.op(code == 0, f"verify exit code {code}")
        tally.op(report.get("passed") is True, "report not passed")
        for name, ok in sorted(report.get("checks", {}).items()):
            tally.op(ok is True, f"check {name} FAIL")
        for key, want in self.expected.items():
            tally.op(report.get(key) == want, f"{key} = {report.get(key)}, want {want}")
        plays = report.get("plays_enumerated")
        return plays if isinstance(plays, int) else 0


class EndstatesWorkload:
    """Every noncrossing tree at n through the full endstate chain."""

    def __init__(self, n: int, trees: int, plays: int, batch: int):
        self.n, self.trees, self.plays, self.batch = n, trees, plays, batch

    def make_inputs(self, seed: int):
        order = list(range(self.trees))
        random.Random(seed).shuffle(order)
        return order

    def run_pass(self, pkg, order, index: int, tally: Tally, laps: Laps, recorder=None) -> int:
        with laps.part("enumerate"):
            all_trees = pkg.trees.enumerate_noncrossing_trees(self.n)
        tally.op(len(all_trees) == self.trees, f"{len(all_trees)} trees, want {self.trees}")
        if len(all_trees) != self.trees:
            return 0
        total = 0
        for first in range(0, len(order), self.batch):
            with laps.part(f"trees {first}+"):
                for k in order[first : first + self.batch]:
                    count = tally.chain(all_trees[k], tree_chain, pkg, all_trees[k])
                    total += count or 0
        tally.op(total == self.plays, f"{total} linear extensions, want {self.plays}")
        return len(order)


class ObjectsWorkload:
    """A few large parking functions through the chain, one at a time.

    The cost of a random object depends much on its shape (up to 1.7x
    between seeds at n=1000), so the seed draws `sets` sets of random objects and pass k uses
    set k mod `sets`: a run's mean part time then spans several shapes.
    """

    def __init__(self, random_sizes, structured_size: int, sets: int):
        self.random_sizes = tuple(random_sizes)
        self.structured_size = structured_size
        self.sets = sets

    def make_inputs(self, seed: int):
        rng = random.Random(seed)
        n = self.structured_size
        structured = [(f"{shape}-{n}", n, v) for shape, v in structured_parking(n).items()]
        return [
            [(f"random-{n}", n, random_parking(n, rng)) for n in self.random_sizes] + structured
            for _ in range(self.sets)
        ]

    def run_pass(self, pkg, object_sets, index: int, tally: Tally, laps: Laps, recorder=None) -> int:
        objects = object_sets[index % len(object_sets)]
        for tag, n, values in objects:
            if recorder is not None:
                recorder.tag = tag
            with laps.part(tag):
                tally.chain(tag, parking_chain, pkg, n, values)
        if recorder is not None:
            recorder.tag = None
        return len(objects)


WORKLOADS = {
    "verify-n7": VerifyWorkload(
        ["verify", "7", "--format", "json"],
        {"plays_enumerated": 16807, "endstates_distinct": 1428, "pf_image_size": 16807},
    ),
    "endstates-n7": EndstatesWorkload(7, trees=1428, plays=16807, batch=102),
    "objects-large": ObjectsWorkload((250, 1000), structured_size=400, sets=8),
}
