"""Exact engine and bijections for the planted sprouts circle game.

The game of order n starts with arms 1..n inside a circle; each move joins
two arms of one region and splits it.  This package provides the exact state
machine, the endstate <-> noncrossing-tree correspondence, the play <->
parking-function and play <-> cycle-factorization bijections, the edge poset
whose linear extensions are the plays reaching a given endstate, and an
exhaustive verification suite for all the counting identities.
"""

from .enumeration import (
    CountReport,
    count_plays,
    enumerate_games,
    variant_counts,
    verify_all,
)
from .factorizations import (
    TranspositionSeq,
    game_to_transpositions,
    transpositions_to_game,
)
from .formats import (
    play_from_text,
    play_to_text,
    poset_to_dot,
    tree_to_dot,
)
from .game import (
    GameState,
    IllegalMoveError,
    MoveRecord,
    PlaySequence,
    replay,
)
from .parking import (
    ParkingFunction,
    game_to_parking,
    is_parking_function,
    parking_to_game,
)
from .poset import (
    EdgePoset,
    build_poset,
    games_with_endstate,
    linear_extensions,
)
from .trees import (
    NoncrossingTree,
    count_endstates,
    endstate_to_tree,
    enumerate_noncrossing_trees,
    is_noncrossing_tree,
    primary_edges,
    tree_to_canonical_game,
)

__version__ = "0.1.0"
