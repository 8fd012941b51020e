"""Homogeneous bundles on G/P for a maximal parabolic P.

A bundle is named by the L-dominant highest weight of the irreducible
P-representation inducing it.  Crossing node k removes it from the Levi;
twisting by O(t) adds t at the crossed coordinate.
"""

from __future__ import annotations

from typing import NamedTuple

from .characters import Character, brauer_klimyk, decompose, irrep_character, weyl_dim
from .errors import EngineError
from .lie_core import RootSystem, Subsystem, Weight, require_int

# A direct sum of irreducible bundles, canonically ordered.
GradedBundle = list[tuple[Weight, int]]


class ParabolicSetup(NamedTuple):
    """A root system with one crossed node and the derived geometry constants."""

    rs: RootSystem
    crossed: int
    levi: Subsystem
    dim_x: int   # number of positive roots off the Levi
    index: int   # crossed coordinate of their sum; c1 of the anticanonical bundle


def make_setup(rs: RootSystem, crossed: int) -> ParabolicSetup:
    crossed = require_int(crossed, "crossed node")
    levi = Subsystem.levi(rs.rank, crossed)
    nilradical = [r for r in rs.positive_roots if r.simple_coords[crossed - 1] > 0]
    dim_x = len(nilradical)
    index = sum(r.weight[crossed - 1] for r in nilradical)
    return ParabolicSetup(rs, crossed, levi, dim_x, index)


def check_bundle(setup: ParabolicSetup, w: Weight) -> Weight:
    return setup.rs.require_dominant(setup.levi, w)


def bundle_rank(setup: ParabolicSetup, w: Weight) -> int:
    return weyl_dim(setup.rs, setup.levi, w)


def bundle_char(setup: ParabolicSetup, w: Weight) -> Character:
    return irrep_character(setup.rs, setup.levi, w)


def bundle_dual(setup: ParabolicSetup, w: Weight) -> Weight:
    return setup.rs.dual_dominant(setup.levi, w)


def twist(setup: ParabolicSetup, w: Weight, t: int) -> Weight:
    w = setup.rs.check_rank(w)
    i = setup.crossed - 1
    return w[:i] + (w[i] + require_int(t, "a twist"),) + w[i + 1:]


def bundle_c1(setup: ParabolicSetup, w: Weight) -> int:
    """First Chern class in units of the ample generator."""
    i = setup.crossed - 1
    return sum(m * wt[i] for wt, m in bundle_char(setup, w).items())


def levi_tensor(setup: ParabolicSetup, a: Weight, b: Weight) -> GradedBundle:
    """Decomposition of E_a (x) E_b into irreducible bundles, lowest weight first.

    The Brauer-Klimyk sum over the weights of the smaller factor, with the
    other factor's highest weight on top; every multiplicity must be positive.
    """
    a = check_bundle(setup, a)
    b = check_bundle(setup, b)
    if bundle_rank(setup, a) > bundle_rank(setup, b):
        a, b = b, a
    acc = brauer_klimyk(setup.rs, setup.levi, bundle_char(setup, a), b)
    if any(m <= 0 for m in acc.values()):
        raise EngineError(f"tensor product of {a} and {b} has a non-positive multiplicity")
    return sorted(acc.items(), key=lambda t: setup.rs.sort_key(t[0]))


def branch(setup: ParabolicSetup, lam: Weight) -> GradedBundle:
    """Restriction of the full-system irreducible V_lam to the Levi.

    The underlying weight multiset is unchanged; only the grouping into
    irreducibles changes, which is exactly a decomposition over the Levi.
    """
    rs = setup.rs
    return decompose(rs, setup.levi, irrep_character(rs, rs.full, lam))
