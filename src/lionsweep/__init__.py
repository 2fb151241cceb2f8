"""Lions and contamination on grid graphs: simulation, sweep strategies,
isoperimetric machinery, Cheeger bounds, and exhaustive solving."""

from .cheeger import CheegerResult, cheeger_constant, lion_bound, polite_lion_bound
from .dynamics import (STAY, InvalidMoveError, SimState, Trace, initial_state,
                       is_monotone, is_swept, read_moves, read_trace, run, step,
                       validate_moves, write_moves, write_trace)
from .errors import (InfeasibleWalkError, ParseError, ResourceLimitError,
                     WalkParityError, WalkTooShortError)
from .graphs import (Graph, boundary, build_circulant, build_square_grid,
                     build_tri_lattice, build_triangle, has_odd_cycle,
                     is_connected, load_graph, make_graph, save_graph)
from .isoperimetry import (ConjectureReport, FallDownReport, IsoProfile,
                           conjecture_report, fall_down, falldown_check,
                           falldown_mismatches, iso_profile, packing, triangular)
from .search import (LemmaReport, MinLionsResult, SearchLimits, SearchVerdict,
                     can_clear, min_lions, verify_lemma_bounds)
from .strategies import (MovePlan, caffeinated_wall_moves, column_positions,
                         exact_length_walk, naive_column_sweep_moves,
                         row_sweep_moves,
                         simultaneous_repositioning, wall_positions)

__all__ = [
    "STAY", "Graph", "SimState", "Trace", "MovePlan",
    "CheegerResult", "ConjectureReport", "FallDownReport", "IsoProfile",
    "LemmaReport", "MinLionsResult", "SearchLimits", "SearchVerdict",
    "InvalidMoveError", "InfeasibleWalkError", "ParseError",
    "ResourceLimitError", "WalkParityError", "WalkTooShortError",
    "boundary", "build_circulant", "build_square_grid",
    "build_tri_lattice", "build_triangle", "caffeinated_wall_moves",
    "can_clear", "cheeger_constant", "column_positions", "conjecture_report",
    "exact_length_walk", "fall_down", "falldown_check", "falldown_mismatches",
    "has_odd_cycle",
    "initial_state", "iso_profile", "is_connected", "is_monotone", "is_swept",
    "lion_bound", "load_graph", "make_graph", "min_lions",
    "naive_column_sweep_moves", "packing",
    "polite_lion_bound", "read_moves", "read_trace", "row_sweep_moves", "run",
    "save_graph", "simultaneous_repositioning", "step", "triangular",
    "validate_moves", "verify_lemma_bounds", "wall_positions", "write_moves",
    "write_trace",
]
