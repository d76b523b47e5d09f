"""Exhaustive enumeration, counting formulas, and the cross-check suite.

Everything here is exact integer arithmetic at desk scale.  verify_all runs
every counting theorem and bijection against independent brute-force
oracles and reports one pass/fail per check.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from .factorizations import (
    TranspositionSeq,
    compose_in_order,
    enumerate_factorizations,
    successor_cycle,
    transpositions_to_game,
)
from .game import PlaySequence, _made, _order, _walk_plays, replay
from .parking import ParkingFunction, game_to_parking, parking_to_game
from .poset import build_poset, games_with_endstate, linear_extensions
from .trees import (
    count_endstates,
    endstate_to_tree,
    enumerate_noncrossing_trees,
    find_primary_edge,
    is_noncrossing_tree,
    is_pivotable_clockwise,
    primary_edges,
    tree_to_canonical_game,
)

def enumerate_games(n: int):
    """Every complete legal play exactly once, depth-first, trying arcs in
    lexicographic order at each stage."""
    for arcs, _ in _walk_plays(n):
        yield PlaySequence(n, arcs)


def count_plays(n: int) -> int:
    """Closed form n^(n-2); the empty product gives 1 at n = 1."""
    _order(n)
    return 1 if n == 1 else n ** (n - 2)


def count_plays_recursive(n: int) -> int:
    """Play count by the split recursion: half of m times the sum over first
    split sizes i of C(m-2, i-1) * b_i * b_(m-i), built up order by order."""
    _order(n)
    b = [0, 1]
    for m in range(2, n + 1):
        # the terms at i and m-i are equal, so sum the first half and double it
        half = sum(math.comb(m - 2, i - 1) * b[i] * b[m - i] for i in range(1, (m + 1) // 2))
        total = 2 * half + (math.comb(m - 2, m // 2 - 1) * b[m // 2] ** 2 if m % 2 == 0 else 0)
        b.append(m * total // 2)
    return b[n]


def variant_counts(n: int) -> tuple:
    """(sphere endstates, sphere plays, plane endstates, plane plays).

    The star-on-a-sphere game is the disk game in disguise; the plane-star
    counts are n times the sphere counts.
    """
    a, b = count_endstates(n), count_plays(n)
    return (a, b, n * a, n * b)


# The report's figures in table order, each as (JSON key, table label).
_REPORT_FIELDS = (
    ("n", "n"),
    ("plays_enumerated", "plays enumerated"),
    ("endstates_distinct", "endstates"),
    ("formula_a_n", "formula a_n"),
    ("formula_b_n", "formula b_n"),
    ("recursion_b_n", "recursion b_n"),
    ("pf_image_size", "parking image"),
    ("fact_image_size", "factorizations"),
)


@dataclass
class CountReport:
    n: int
    formula_a_n: int
    formula_b_n: int
    recursion_b_n: int
    plays_enumerated: int | None = None
    endstates_distinct: int | None = None
    pf_image_size: int | None = None
    fact_image_size: int | None = None
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_json(self) -> str:
        obj = {key: getattr(self, key) for key, _ in _REPORT_FIELDS}
        obj.update(checks={name: ok for name, ok in self.checks}, passed=self.passed)
        return json.dumps(obj, sort_keys=True)

    def to_table(self) -> str:
        lines = [f"{label:<18}{getattr(self, key)}" for key, label in _REPORT_FIELDS]
        for name, ok in self.checks:
            lines.append(f"{'PASS' if ok else 'FAIL'}  {name}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _cycle_steps(n: int, transpositions):
    """The change, +1 or -1, in the cycle count of successor-cycle ∘ t_1 ∘
    ... ∘ t_k at each k, for any pairs a < b of labels in 1..n: the split
    walk of the `cycle_growth` check, apart from the move loop `game._joins`.

    Composing with (a b) changes the cycle count by exactly one: it splits
    the cycle holding a if b is on it, and merges the cycles of a and b
    otherwise (Dénes, Publ. Math. Inst. Hungar. Acad. Sci. 4, 1959).  So
    walk from a until b, or back to a, then swap.  A join is this swap by
    its ccw pair, so a move is legal iff its step is +1.  The successor
    cycle is one cycle and only the identity has n, so n-1 steps are all +1
    iff the product is the identity: iff every move of the play split a
    region, and iff the pairs, in order, factor the successor cycle.
    """
    perm = [0, *range(2, n + 1), 1]  # perm[x]: the image of x, from x -> x+1 (mod n)
    for a, b in transpositions:
        x = perm[a]
        while x != a and x != b:
            x = perm[x]
        perm[a], perm[b] = perm[b], perm[a]  # perm = perm ∘ (a b)
        yield 1 if x == b else -1


def _play_stats(n, first_arc, reads):
    """The play count, the play sets and the per-play test verdicts named in
    `reads`, over the plays with a given first arc (or all plays), in one
    loop that reads each play as its arcs and its ccw pairs.  `signatures`
    holds the plays' arc sets and `factorizations` their ccw pairs.  Each
    test must hold on every play, and is not called again once it fails.

    The parking values are not kept as a set: a play's values v_1..v_(n-1)
    are the number sum((v_k - 1) (n-1)^(n-1-k)) in base n-1, and `parkings`
    is a flag array of (n-1)^(n-1) bits, eight to a byte, with bit r & 7 of
    byte r >> 3 set for each play's number r.

    `cycle_growth` is the split walk `_cycle_steps` over the ccw pairs, with
    no TranspositionSeq: it implies the product condition (see there)."""
    successor, first = successor_cycle(n), operator.itemgetter(0)

    def parking_round_trip(arcs, ccw):
        values = tuple(map(first, ccw))
        # unchecked: `parking_to_game` ends on any values in 1..n-1; only parking ones come back
        back = parking_to_game(_made(ParkingFunction, n, "values", values))
        return back.moves == arcs and game_to_parking(back).values == values

    def transposition_round_trip(arcs, ccw):
        return transpositions_to_game(TranspositionSeq(n, ccw)).moves == arcs

    tests = {
        "parking_round_trip": parking_round_trip,
        "factorization_product": lambda arcs, ccw: compose_in_order(n, ccw) == successor,
        "cycle_growth": lambda arcs, ccw: -1 not in _cycle_steps(n, ccw),
        "transposition_round_trip": transposition_round_trip,
    }
    sets = {name: set() for name in ("signatures", "factorizations") if name in reads}
    signatures, factorizations = sets.get("signatures"), sets.get("factorizations")
    holds = {name: True for name in tests if name in reads}
    running = [(name, tests[name]) for name in holds]  # the tests that still hold
    if "parkings" in reads:
        sets["parkings"] = bytearray(((n - 1) ** (n - 1) + 7) >> 3)
    flags, base = sets.get("parkings"), n - 1
    count = 0
    for arcs, ccw in _walk_plays(n, first_arc):
        count += 1
        if signatures is not None:
            signatures.add(frozenset(arcs))
        if factorizations is not None:
            factorizations.add(ccw)
        if flags is not None:
            rank = 0
            for a, _ in ccw:
                rank = rank * base + a - 1
            flags[rank >> 3] |= 1 << (rank & 7)
        for name, test in running:
            try:  # a map that rejects a play of the walk fails its test
                ok = test(arcs, ccw)
            except ValueError:
                ok = False
            if not ok:  # the verdict is in: no further call
                holds[name], running = False, [entry for entry in running if entry[0] != name]
    return count, sets, holds


def _all_play_stats(n, reads, jobs):
    """_play_stats over every play, split by first arc across `jobs` processes
    and merged in the order the parts finish, so no finished part waits in
    memory: counts add, sets unite in place, flag arrays merge by OR through
    their integer values, and verdicts must all hold."""
    if jobs < 2 or n < 2:
        return _play_stats(n, None, reads)
    first_arcs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    with ProcessPoolExecutor(max_workers=min(jobs, len(first_arcs))) as pool:
        parts = as_completed([pool.submit(_play_stats, n, arc, reads) for arc in first_arcs])
        count, sets, holds = next(parts).result()
        for part in parts:
            part_count, part_sets, part_holds = part.result()
            count += part_count
            for name, found in part_sets.items():
                if name == "parkings":
                    flags = int.from_bytes(sets[name], "big") | int.from_bytes(found, "big")
                    sets[name] = flags.to_bytes(len(found), "big")
                else:
                    sets[name] |= found
            for name, ok in part_holds.items():
                holds[name] = holds[name] and ok
    return count, sets, holds


def _primary_coherent(tree) -> bool:
    """The primary edges exist, are the edges that cannot pivot clockwise and
    the poset's minima, and every neighbour walk settles on one of them."""
    prim = primary_edges(tree)
    return (
        bool(prim)
        and not any((e in prim) == is_pivotable_clockwise(tree, e) for e in tree.edges)
        and build_poset(tree).minimal_elements() == prim
        and all(find_primary_edge(tree, start=v) in prim for v in range(1, tree.n + 1))
    )


def _sorted_parking_functions(n: int):
    """The weakly increasing parking functions of length n-1, a_k <= k:
    Catalan-many, out of the C(2n-3, n-1) weakly increasing sequences."""
    for rising in itertools.combinations_with_replacement(range(1, n), n - 1):
        if all(map(operator.le, rising, range(1, n))):
            yield rising


def _parking_flags(n: int) -> bytearray:
    """Every parking function of length n-1, as a set bit at its number in
    base n-1 in a flag array of (n-1)^(n-1) bits (see `_play_stats`).  They are
    the rearrangements of the weakly increasing ones (Foata & Riordan,
    Aequationes Math. 10, 1974).  The distinct rearrangements of a sorted
    tuple are each distinct value v in front of those of the rest, so v adds
    (v - 1) times its place value to the number of the rest."""
    base = n - 1
    flags = bytearray((base**base + 7) >> 3)

    @functools.lru_cache(maxsize=None)
    def numbers(values):  # of the rearrangements of a short sorted tuple
        if not values:
            return (0,)
        place = base ** (len(values) - 1)
        return tuple(
            (v - 1) * place + rest
            for k, v in enumerate(values)
            if k == 0 or values[k - 1] != v
            for rest in numbers(values[:k] + values[k + 1 :])
        )

    def mark(values, offset):
        # only short tuples are cached: at n=9 the long ones would hold
        # every parking function several times over
        if len(values) <= 4:
            for number in numbers(values):
                rank = offset + number
                flags[rank >> 3] |= 1 << (rank & 7)
            return
        place = base ** (len(values) - 1)
        for k, v in enumerate(values):
            if k == 0 or values[k - 1] != v:
                mark(values[:k] + values[k + 1 :], offset + (v - 1) * place)

    for rising in _sorted_parking_functions(n):
        mark(rising, 0)
    return flags


def _parking_image(r, got) -> bool:
    """The plays' values are every parking function."""
    return got["parkings"] == _parking_flags(r.n)


def _factorization_image(r, got) -> bool:
    """The plays' ccw pairs are every factorization, once each, and each
    maps back to its play."""
    seqs = got["factorizations"]
    brute = {seq.transpositions for seq in enumerate_factorizations(r.n)}
    return seqs == brute and len(seqs) == got["plays"] and got["transposition_round_trip"]


def _extensions_are_plays(r, got) -> bool:
    """Each tree's linear extensions are the plays reaching it, n^(n-2) in all."""
    total = 0
    for tree in got["trees"]:
        extensions = set(linear_extensions(build_poset(tree)))
        orders = {p.moves for p in games_with_endstate(tree)}
        if extensions != orders:
            return False
        total += len(extensions)
    return total == r.formula_b_n


# Every check, in report order: its default cutoff (the largest n it runs at
# unless named), what it reads ("plays" for the play count, the play sets and
# per-play tests of _play_stats, "trees" for every noncrossing tree) and its
# final predicate over the report and what was read, or None for a check
# that is a per-play test, whose verdict is the walk's.
_CHECKS = {
    "play_count_power": (9, ("plays",), lambda r, got: got["plays"] == r.formula_b_n),
    "play_count_recursion": (math.inf, (), lambda r, got: r.recursion_b_n == r.formula_b_n),
    "endstate_count": (7, ("signatures",), lambda r, got: len(got["signatures"]) == r.formula_a_n),
    "signatures_are_noncrossing_trees": (
        7,
        ("signatures",),
        lambda r, got: all(is_noncrossing_tree(r.n, sig) for sig in got["signatures"]),
    ),
    "tree_bijection_image": (
        7,
        ("signatures", "trees"),
        lambda r, got: got["signatures"] == {tree.edges for tree in got["trees"]},
    ),
    "realization_round_trip": (
        7,
        ("trees",),
        lambda r, got: all(
            endstate_to_tree(replay(tree_to_canonical_game(tree))) == tree for tree in got["trees"]
        ),
    ),
    "parking_injective": (
        7,
        ("plays", "parkings"),
        lambda r, got: r.pf_image_size == got["plays"],
    ),
    "parking_image": (7, ("parkings",), _parking_image),
    "parking_round_trip": (7, ("parking_round_trip",), None),
    "factorization_product": (7, ("factorization_product",), None),
    "factorization_image": (
        5,
        ("plays", "factorizations", "transposition_round_trip"),
        _factorization_image,
    ),
    "cycle_growth": (6, ("cycle_growth",), None),
    "poset_linear_extensions": (6, ("trees",), _extensions_are_plays),
    "primary_edge_coherence": (
        7,
        ("trees",),
        lambda r, got: r.n < 2 or all(map(_primary_coherent, got["trees"])),
    ),
    # definitional: variant_counts multiplies the same two counts the report's
    # formulas come from, so this check cannot fail
    "variant_formulas": (
        math.inf,
        (),
        lambda r, got: variant_counts(r.n)
        == (r.formula_a_n, r.formula_b_n, r.n * r.formula_a_n, r.n * r.formula_b_n),
    ),
}
CHECK_NAMES = tuple(_CHECKS)


def verify_all(n: int, checks=None, jobs: int = 1) -> CountReport:
    """Run the whole cross-check suite at order n and return a CountReport.

    By default each check runs only up to its desk-scale cutoff; naming a
    check explicitly in `checks` forces it regardless of the cutoff.  One
    walk over the plays gathers just what the checks that run read, split
    across `jobs` processes; `jobs` below 1 is a ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if checks is not None:
        unknown = set(checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}; known: {list(CHECK_NAMES)}")
    report = CountReport(
        n=n,
        formula_a_n=count_endstates(n),
        formula_b_n=count_plays(n),
        recursion_b_n=count_plays_recursive(n),
    )
    run = [
        (name, final)
        for name, (limit, _, final) in _CHECKS.items()
        if (name in checks if checks is not None else n <= limit)
    ]
    reads = {read for name, _ in run for read in _CHECKS[name][1]}
    got = {}
    if reads - {"trees"}:  # all but the trees come from the play walk
        count, sets, holds = _all_play_stats(n, reads, jobs)
        got.update(sets, **holds, plays=count)
        report.plays_enumerated = count
    if "trees" in reads:
        got["trees"] = enumerate_noncrossing_trees(n)
    report.endstates_distinct, report.fact_image_size = (
        len(got[name]) if name in got else None for name in ("signatures", "factorizations")
    )
    if "parkings" in got:  # the number of set flags
        report.pf_image_size = int.from_bytes(got["parkings"], "big").bit_count()
    report.checks = []
    for name, final in run:
        try:  # a map that rejects what it was given fails its check, as in `_play_stats`
            report.checks.append((name, final(report, got) if final else got[name]))
        except ValueError:
            report.checks.append((name, False))
    return report
