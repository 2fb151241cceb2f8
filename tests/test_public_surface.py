"""The library's public names and the fields of its public dataclasses."""
import dataclasses

import lionsweep

# lionsweep.__all__, and the field names of each public dataclass in order.
PINNED_SURFACE = {
    "__all__": [
        "STAY", "Graph", "SimState", "Trace", "MovePlan",
        "CheegerResult", "ConjectureReport", "FallDownReport", "IsoProfile",
        "LemmaReport", "MinLionsResult", "SearchLimits", "SearchVerdict",
        "InvalidMoveError", "InfeasibleWalkError", "ParseError",
        "ResourceLimitError", "WalkParityError", "WalkTooShortError",
        "boundary", "boundary_in_both", "build_circulant", "build_square_grid",
        "build_tri_lattice", "build_triangle", "caffeinated_wall_moves",
        "can_clear", "cheeger_constant", "column_positions", "conjecture_report",
        "exact_length_walk", "fall_down", "falldown_check", "falldown_mismatches",
        "has_odd_cycle",
        "initial_state", "iso_profile", "is_connected", "is_monotone", "is_swept",
        "lion_bound", "load_graph", "make_graph", "min_lions",
        "naive_column_sweep_moves", "packing", "parity_distances",
        "polite_lion_bound", "read_moves", "read_trace", "row_sweep_moves", "run",
        "save_graph", "simultaneous_repositioning", "step", "triangular",
        "validate_moves", "verify_lemma_bounds", "wall_positions", "write_moves",
        "write_trace",
    ],
    "Graph": ["n", "adj", "coords"],
    "SimState": ["time", "lions", "cleared"],
    "Trace": ["states", "moves"],
    "MovePlan": ["moves", "formation_steps"],
    "CheegerResult": ["value", "witness"],
    "ConjectureReport": ["rows", "lion_threshold", "window_size", "window_threshold",
                         "window_min_boundary"],
    "FallDownReport": ["subsets_checked", "monotone_violations", "boundary_match_violations"],
    "IsoProfile": ["min_boundary", "witness"],
    "LemmaReport": ["violations", "steps_checked"],
    "MinLionsResult": ["k", "verdict"],
    "SearchLimits": ["max_states", "dominance_pruning"],
    "SearchVerdict": ["status", "trace", "states_explored", "peak_frontier", "detail"],
}


def test_public_surface_is_pinned():
    """The package exports exactly the names in PINNED_SURFACE, and each
    public dataclass has exactly the fields listed there.

    A public name or field is a promise that every later change must keep,
    and one that nothing reads only restates another fact or waits to go
    stale, so a new one must edit this table, and CHANGES.md must name its
    reader outside the tests.
    """
    surface = {"__all__": list(lionsweep.__all__)}
    for name in lionsweep.__all__:
        obj = getattr(lionsweep, name)
        if dataclasses.is_dataclass(obj):
            surface[name] = [field.name for field in dataclasses.fields(obj)]
    assert surface == PINNED_SURFACE
