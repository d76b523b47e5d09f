"""Play sequences <-> minimal transposition factorizations of the n-cycle.

The k-th move's counterclockwise pair, read as a transposition, turns a
play into a sequence of n-1 transpositions whose product (first move
applied first) is the successor cycle k -> k+1 (mod n).  The map is a
bijection onto all such factorizations, and each transposition determines
the move that produced it, which gives the inverse.

Permutations are plain image tuples: perm[x-1] is the image of x, with n
implied by the length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .game import PlaySequence, _ccw_pairs, _made, _order, _pairs, _sorted


def successor_cycle(n: int) -> tuple:
    """The cycle k -> k+1 (mod n) as an image tuple, n >= 1."""
    return (*range(2, n + 1), 1)


def compose_in_order(n: int, transpositions) -> tuple:
    """Product applying the first-listed transposition first."""
    image = list(range(n + 1))  # image[x] so far
    source = list(range(n + 1))  # source[y]: the x with image[x] == y
    for a, b in transpositions:
        x, y = source[a], source[b]
        image[x], image[y] = b, a
        source[a], source[b] = y, x
    return tuple(image[1:])


@dataclass(frozen=True)
class TranspositionSeq:
    """n-1 transpositions whose in-order product is the successor cycle."""

    n: int
    transpositions: tuple  # ordered; each entry (a, b) with a < b

    def __post_init__(self):
        seq = _pairs(self.n, self.transpositions, "transposition")
        if seq is not self.transpositions:
            object.__setattr__(self, "transpositions", seq)
        if len(seq) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} transpositions, got {len(seq)}")
        if compose_in_order(self.n, seq) != successor_cycle(self.n):
            raise ValueError("in-order product is not the successor cycle")

    @classmethod
    def of(cls, n: int, pairs) -> "TranspositionSeq":
        return cls(n=n, transpositions=_sorted(pairs))


def game_to_transpositions(play: PlaySequence) -> TranspositionSeq:
    """Counterclockwise pairs of the play's moves, in order: n-1 sorted pairs
    of int labels, whose in-order product is checked."""
    n, pairs = play.n, _ccw_pairs(play)
    if compose_in_order(n, pairs) != successor_cycle(n):
        raise ValueError("in-order product is not the successor cycle")
    return _made(TranspositionSeq, n, "transpositions", pairs)


def transpositions_to_game(seq: TranspositionSeq) -> PlaySequence:
    """Reconstruct the unique play: each transposition {i', j'} is produced by
    joining the arms immediately clockwise of labels i' and j' in the one
    subgame containing both.  That join swaps the successors by the
    transposition, and every swap splits a region as the product is the
    n-cycle (see `enumeration._cycle_steps`), so only the successors are read.
    i and j are the images of a != b under the permutation nxt, so each move
    is a pair of distinct int labels once it is sorted.
    """
    nxt = [0, *range(2, seq.n + 1), 1]
    moves = []
    for a, b in seq.transpositions:
        i, j = nxt[a], nxt[b]
        nxt[a], nxt[b] = j, i
        moves.append((i, j) if i < j else (j, i))
    return _made(PlaySequence, seq.n, "moves", tuple(moves))


def enumerate_factorizations(n: int):
    """Brute force: all (n-1)-sequences of transpositions whose in-order
    product is the successor cycle.  Candidate space is C(n,2)^(n-1), so keep
    n small (n <= 5 is instant)."""
    _order(n)
    target = successor_cycle(n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for combo in itertools.product(pairs, repeat=n - 1):
        if compose_in_order(n, combo) == target:
            out.append(TranspositionSeq(n, combo))
    return out

