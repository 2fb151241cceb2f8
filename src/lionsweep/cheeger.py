"""Exact vertex-isoperimetric Cheeger constant and the lion lower bounds it implies.

All arithmetic is exact rational: the bound thresholds are inclusive
inequalities that can land exactly on an integer.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .graphs import Graph
from .isoperimetry import iso_profile


@dataclass(frozen=True)
class CheegerResult:
    """The minimum of |boundary(S)| / min(|S|, |complement|) and one witness."""

    value: Fraction
    witness: frozenset


def cheeger_constant(g: Graph) -> CheegerResult:
    """Exact minimum over all nonempty proper subsets, as the minimum over
    sizes s of profile[s] / min(s, |V| - s) on the isoperimetric profile.

    Ties break to the lexicographically smallest sorted witness: a subset
    attaining the value has the minimum boundary of its size, so the
    profile's per-size witnesses contain the smallest one.
    Connected graphs give 0 < value <= 1; disconnected graphs give 0.
    """
    if g.n < 2:
        raise ValueError("the Cheeger constant needs at least 2 vertices")
    profile = iso_profile(g)
    value, witness = min((Fraction(profile.min_boundary[s], min(s, g.n - s)),
                          sorted(profile.witness[s])) for s in range(1, g.n))
    return CheegerResult(value, frozenset(witness))


def polite_lion_bound(g_val: Fraction, num_vertices: int) -> int:
    """Largest k excluded for polite lions: floor(1/2 * floor(|V|/2) * g)."""
    return floor(Fraction(1, 2) * (num_vertices // 2) * Fraction(g_val))


def lion_bound(g_val: Fraction, num_vertices: int) -> int:
    """Largest k excluded for unrestricted lions: floor(g|V| / (4+g))."""
    g_val = Fraction(g_val)
    return floor(g_val * num_vertices / (4 + g_val))
