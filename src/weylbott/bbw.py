"""Cohomology of irreducible homogeneous bundles by the dotted Weyl action.

For an L-dominant weight w, either w + rho is singular for the full
system and every cohomology group vanishes, or there is exactly one
nonzero group: degree = number of reflections needed to make w + rho
dominant, underlying module the irreducible with the resulting highest
weight.  Ext tables between bundles follow by tensoring with the dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .characters import weyl_dim
from .errors import EngineError
from .lie_core import Subsystem, Weight
from .parabolic import (
    GradedBundle,
    ParabolicSetup,
    bundle_dual,
    check_bundle,
    levi_tensor,
)


@dataclass(frozen=True)
class CohomologyResult:
    """Cohomology of one irreducible bundle: at most one nonzero degree."""

    degree: Optional[int]
    g_weight: Optional[Weight]
    dim: int

    @property
    def is_zero(self) -> bool:
        return self.degree is None

    @classmethod
    def zero(cls) -> "CohomologyResult":
        return cls(None, None, 0)


def cohomology(setup: ParabolicSetup, w: Weight) -> CohomologyResult:
    w = check_bundle(setup, w)
    rs = setup.rs
    full = Subsystem.full(rs.rank)
    res = rs.dotted_to_dominant(full, w)
    if res is None:
        return CohomologyResult.zero()
    length, g = res
    if not 0 <= length <= setup.dim_x:
        raise EngineError(f"cohomology degree {length} of {w} outside 0..{setup.dim_x}")
    return CohomologyResult(length, g, weyl_dim(rs, full, g))


class ExtTable:
    """Per-degree dimensions and contributing dominant weights, degrees 0..dim X."""

    __slots__ = ("dim_x", "dims", "weights")

    def __init__(self, dim_x: int):
        self.dim_x = dim_x
        self.dims: list[int] = [0] * (dim_x + 1)
        self.weights: list[list[tuple[Weight, int]]] = [[] for _ in range(dim_x + 1)]

    def add(self, degree: int, g_weight: Weight, dim: int, mult: int) -> None:
        self.dims[degree] += dim * mult
        for idx, (w, m) in enumerate(self.weights[degree]):
            if w == g_weight:
                self.weights[degree][idx] = (w, m + mult)
                break
        else:
            self.weights[degree].append((g_weight, mult))
            self.weights[degree].sort()

    def __getitem__(self, degree: int) -> int:
        return self.dims[degree]

    def euler(self) -> int:
        return sum(d if k % 2 == 0 else -d for k, d in enumerate(self.dims))

    def nonzero_degrees(self) -> list[int]:
        return [k for k, d in enumerate(self.dims) if d]

    def total(self) -> int:
        return sum(self.dims)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtTable)
            and self.dims == other.dims
            and self.weights == other.weights
        )


def cohomology_graded(setup: ParabolicSetup, graded: GradedBundle) -> ExtTable:
    table = ExtTable(setup.dim_x)
    for w, mult in graded:
        res = cohomology(setup, w)
        if not res.is_zero:
            table.add(res.degree, res.g_weight, res.dim, mult)
    return table


def ext_table(setup: ParabolicSetup, a: Weight, b: Weight) -> ExtTable:
    """Ext^k(E_a, E_b) = H^k(X, E_a^dual (x) E_b), degree by degree."""
    return cohomology_graded(setup, levi_tensor(setup, bundle_dual(setup, a), b))
