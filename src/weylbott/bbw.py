"""Cohomology of irreducible homogeneous bundles by the dotted Weyl action.

For an L-dominant weight w, either w + rho is singular for the full
system and every cohomology group vanishes, or there is exactly one
nonzero group: degree = number of reflections needed to make w + rho
dominant, underlying module the irreducible with the resulting highest
weight.  Ext tables between bundles follow by tensoring with the dual.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .characters import weyl_dim
from .errors import EngineError
from .lie_core import Weight
from .parabolic import GradedBundle, ParabolicSetup, bundle_dual, check_bundle, levi_tensor


class CohomologyResult(NamedTuple):
    """Cohomology of one irreducible bundle: at most one nonzero degree."""

    degree: Optional[int]
    g_weight: Optional[Weight]
    dim: int

    @property
    def is_zero(self) -> bool:
        return self.degree is None


def cohomology(setup: ParabolicSetup, w: Weight) -> CohomologyResult:
    w = check_bundle(setup, w)
    rs = setup.rs
    res = rs.dotted_to_dominant(rs.full, w)
    if res is None:
        return CohomologyResult(None, None, 0)
    length, g = res
    if not 0 <= length <= setup.dim_x:
        raise EngineError(f"cohomology degree {length} of {w} outside 0..{setup.dim_x}")
    return CohomologyResult(length, g, weyl_dim(rs, rs.full, g))


class ExtTable(NamedTuple):
    """Ext^k for k = 0..dim X: the dimension, and the G-modules (highest
    weight, multiplicity) in increasing weight order, degree by degree."""

    dims: list[int]
    weights: list[list[tuple[Weight, int]]]


def cohomology_table(setup: ParabolicSetup, summands: GradedBundle) -> ExtTable:
    """H^k(X, E) for E a direct sum of irreducible bundles, degree by degree:
    each summand adds its one nonzero group, if any, times its multiplicity."""
    dims = [0] * (setup.dim_x + 1)
    modules: list[dict[Weight, int]] = [{} for _ in dims]
    for w, mult in summands:
        res = cohomology(setup, w)
        if not res.is_zero:
            dims[res.degree] += res.dim * mult
            found = modules[res.degree]
            found[res.g_weight] = found.get(res.g_weight, 0) + mult
    return ExtTable(dims, [sorted(found.items()) for found in modules])


def ext_table(setup: ParabolicSetup, a: Weight, b: Weight) -> ExtTable:
    """Ext^k(E_a, E_b) = H^k(X, E_a^dual (x) E_b), degree by degree."""
    return cohomology_table(setup, levi_tensor(setup, bundle_dual(setup, a), b))
