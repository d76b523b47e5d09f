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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .factorizations import (
    TranspositionSeq,
    compose_in_order,
    enumerate_factorizations,
    prefix_cycle_counts,
    successor_cycle,
    transpositions_to_game,
)
from .game import PlaySequence, _walk_plays, replay
from .parking import ParkingFunction, game_to_parking, is_parking_function, parking_to_game
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

# Default desk-scale cutoffs per check; selecting a check by name overrides.
SIGNATURE_LIMIT = 7
PARKING_LIMIT = 7
FACTORIZATION_IMAGE_LIMIT = 5
FACTORIZATION_PRODUCT_LIMIT = 7
POSET_LIMIT = 6
CYCLE_GROWTH_LIMIT = 6
PRIMARY_LIMIT = 7
PLAY_LIMIT = 9


def enumerate_games(n: int, first_arc=None):
    """Every complete legal play exactly once, depth-first, trying arcs in
    lexicographic order at each stage.  Optionally restricted to plays whose
    first move draws `first_arc` (for partitioned runs)."""
    for arcs, _ in _walk_plays(n, first_arc):
        yield PlaySequence(n, tuple(map(frozenset, arcs)))


def count_plays(n: int) -> int:
    """Closed form n^(n-2); the empty product gives 1 at n = 1."""
    if n < 1:
        raise ValueError(f"game order must be positive, got {n}")
    return 1 if n == 1 else n ** (n - 2)


@functools.cache
def count_plays_recursive(n: int) -> int:
    """Play count by the split recursion: half of n times the sum over first
    split sizes i of C(n-2, i-1) * b_i * b_(n-i)."""
    if n < 1:
        raise ValueError(f"game order must be positive, got {n}")
    if n == 1:
        return 1
    total = sum(
        math.comb(n - 2, i - 1) * count_plays_recursive(i) * count_plays_recursive(n - i)
        for i in range(1, n)
    )
    if (n * total) % 2:
        raise ArithmeticError(f"recursion sum for n={n} is not divisible by 2 after scaling")
    return n * total // 2


def variant_counts(n: int) -> tuple:
    """(sphere endstates, sphere plays, plane endstates, plane plays).

    The star-on-a-sphere game is the disk game in disguise; the plane-star
    counts are n times the sphere counts.
    """
    a, b = count_endstates(n), count_plays(n)
    return (a, b, n * a, n * b)


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
        obj = {
            "n": self.n,
            "plays_enumerated": self.plays_enumerated,
            "endstates_distinct": self.endstates_distinct,
            "formula_a_n": self.formula_a_n,
            "formula_b_n": self.formula_b_n,
            "recursion_b_n": self.recursion_b_n,
            "pf_image_size": self.pf_image_size,
            "fact_image_size": self.fact_image_size,
            "checks": {name: ok for name, ok in self.checks},
            "passed": self.passed,
        }
        return json.dumps(obj, sort_keys=True)

    def to_table(self) -> str:
        lines = [
            f"n                 {self.n}",
            f"plays enumerated  {self.plays_enumerated}",
            f"endstates         {self.endstates_distinct}",
            f"formula a_n       {self.formula_a_n}",
            f"formula b_n       {self.formula_b_n}",
            f"recursion b_n     {self.recursion_b_n}",
            f"parking image     {self.pf_image_size}",
            f"factorizations    {self.fact_image_size}",
        ]
        for name, ok in self.checks:
            lines.append(f"{'PASS' if ok else 'FAIL'}  {name}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _play_stats(n, first_arc, flags):
    """Aggregates over the plays with a given first arc (or all plays)."""
    stats = {"count": 0, "signatures": set(), "parkings": set(), "transposition_seqs": set()}
    for key in ("parking_roundtrip_ok", "products_ok", "growth_ok", "transposition_roundtrip_ok"):
        stats[key] = True
    successor = successor_cycle(n)
    for arcs, ccw in _walk_plays(n, first_arc):
        stats["count"] += 1
        if flags.get("signatures"):
            stats["signatures"].add(frozenset(arcs))
        if not any(flags.get(key) for key in ("parking", "product", "image", "growth")):
            continue
        moves = tuple(map(frozenset, arcs))
        if flags.get("parking"):
            values = tuple(a for a, _ in ccw)
            stats["parkings"].add(values)
            back = parking_to_game(ParkingFunction(n, values))
            if back.moves != moves or game_to_parking(back).values != values:
                stats["parking_roundtrip_ok"] = False
        if flags.get("product") or flags.get("image") or flags.get("growth"):
            if compose_in_order(n, ccw) != successor:
                stats["products_ok"] = False
                continue
            if flags.get("growth"):
                counts = prefix_cycle_counts(TranspositionSeq(n, ccw))
                if counts != list(range(1, n + 1)):
                    stats["growth_ok"] = False
            if flags.get("image"):
                stats["transposition_seqs"].add(ccw)
                back = transpositions_to_game(TranspositionSeq(n, ccw))
                if back.moves != moves:
                    stats["transposition_roundtrip_ok"] = False
    return stats


def _merge_stats(parts):
    """Counts add, sets unite and flags must all hold."""
    merged = parts[0]
    for part in parts[1:]:
        for key, value in part.items():
            if isinstance(value, bool):
                merged[key] = merged[key] and value
            elif isinstance(value, set):
                merged[key] |= value
            else:
                merged[key] += value
    return merged


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


CHECK_NAMES = (
    "play_count_power",
    "play_count_recursion",
    "endstate_count",
    "signatures_are_noncrossing_trees",
    "tree_bijection_image",
    "realization_round_trip",
    "parking_injective",
    "parking_image",
    "parking_round_trip",
    "factorization_product",
    "factorization_image",
    "cycle_growth",
    "poset_linear_extensions",
    "primary_edge_coherence",
    "variant_formulas",
)


def verify_all(n: int, checks=None, jobs: int = 1) -> CountReport:
    """Run the whole cross-check suite at order n and return a CountReport.

    By default each check runs only up to its desk-scale cutoff; naming a
    check explicitly in `checks` forces it regardless of the cutoff.
    """
    if checks is not None:
        unknown = set(checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}; known: {list(CHECK_NAMES)}")
    selected = set(checks) if checks is not None else None

    def want(name, limit):
        return name in selected if selected is not None else n <= limit

    report = CountReport(
        n=n,
        formula_a_n=count_endstates(n),
        formula_b_n=count_plays(n),
        recursion_b_n=count_plays_recursive(n),
    )
    checks_out = report.checks
    all_trees = functools.cache(lambda: enumerate_noncrossing_trees(n))  # built on first use

    flags = {
        "signatures": want("endstate_count", SIGNATURE_LIMIT)
        or want("signatures_are_noncrossing_trees", SIGNATURE_LIMIT)
        or want("tree_bijection_image", SIGNATURE_LIMIT),
        "parking": want("parking_injective", PARKING_LIMIT)
        or want("parking_image", PARKING_LIMIT)
        or want("parking_round_trip", PARKING_LIMIT),
        "product": want("factorization_product", FACTORIZATION_PRODUCT_LIMIT),
        "image": want("factorization_image", FACTORIZATION_IMAGE_LIMIT),
        "growth": want("cycle_growth", CYCLE_GROWTH_LIMIT),
    }

    stats = None
    if want("play_count_power", PLAY_LIMIT) or any(flags.values()):
        if jobs > 1 and n >= 2:
            first_arcs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            with ProcessPoolExecutor(max_workers=min(jobs, len(first_arcs))) as pool:
                args = (itertools.repeat(n), first_arcs, itertools.repeat(flags))
                parts = list(pool.map(_play_stats, *args))
            stats = _merge_stats(parts)
        else:
            stats = _play_stats(n, None, flags)
        report.plays_enumerated = stats["count"]

    if want("play_count_power", PLAY_LIMIT) and stats is not None:
        checks_out.append(("play_count_power", stats["count"] == count_plays(n)))
    if selected is None or "play_count_recursion" in selected:
        checks_out.append(("play_count_recursion", count_plays_recursive(n) == count_plays(n)))

    if flags["signatures"] and stats is not None:
        signatures = stats["signatures"]
        report.endstates_distinct = len(signatures)
        if want("endstate_count", SIGNATURE_LIMIT):
            checks_out.append(("endstate_count", len(signatures) == count_endstates(n)))
        if want("signatures_are_noncrossing_trees", SIGNATURE_LIMIT):
            ok = all(is_noncrossing_tree(n, sig) for sig in signatures)
            checks_out.append(("signatures_are_noncrossing_trees", ok))
        if want("tree_bijection_image", SIGNATURE_LIMIT):
            ncts = {tree.edges for tree in all_trees()}
            checks_out.append(("tree_bijection_image", signatures == ncts))

    if want("realization_round_trip", SIGNATURE_LIMIT):
        ok = all(
            endstate_to_tree(replay(tree_to_canonical_game(tree))) == tree
            for tree in all_trees()
        )
        checks_out.append(("realization_round_trip", ok))

    if flags["parking"] and stats is not None:
        parkings = stats["parkings"]
        report.pf_image_size = len(parkings)
        if want("parking_injective", PARKING_LIMIT):
            checks_out.append(("parking_injective", len(parkings) == stats["count"]))
        if want("parking_image", PARKING_LIMIT):
            candidates = itertools.product(range(1, n), repeat=n - 1)
            brute = {values for values in candidates if is_parking_function(n, values)}
            checks_out.append(("parking_image", parkings == brute))
        if want("parking_round_trip", PARKING_LIMIT):
            checks_out.append(("parking_round_trip", stats["parking_roundtrip_ok"]))

    if flags["product"] and stats is not None:
        checks_out.append(("factorization_product", stats["products_ok"]))
    if flags["image"] and stats is not None:
        brute = {seq.transpositions for seq in enumerate_factorizations(n)}
        ok = (
            stats["transposition_seqs"] == brute
            and len(stats["transposition_seqs"]) == stats["count"]
            and stats["transposition_roundtrip_ok"]
        )
        report.fact_image_size = len(stats["transposition_seqs"])
        checks_out.append(("factorization_image", ok))
    if flags["growth"] and stats is not None:
        checks_out.append(("cycle_growth", stats["growth_ok"]))

    if want("poset_linear_extensions", POSET_LIMIT):
        ok = True
        total = 0
        for tree in all_trees():
            extensions = set(linear_extensions(build_poset(tree)))
            orders = {tuple(tuple(sorted(arc)) for arc in p.moves) for p in games_with_endstate(tree)}
            total += len(extensions)
            if extensions != orders:
                ok = False
                break
        checks_out.append(("poset_linear_extensions", ok and total == count_plays(n)))

    if want("primary_edge_coherence", PRIMARY_LIMIT):
        ok = all(_primary_coherent(tree) for tree in all_trees() if n >= 2)
        checks_out.append(("primary_edge_coherence", ok))

    if selected is None or "variant_formulas" in selected:
        a, b, plane_a, plane_b = variant_counts(n)
        checks_out.append(
            ("variant_formulas", plane_a == n * a and plane_b == n * b and a == count_endstates(n))
        )

    return report
