"""Exact Lie-theoretic engine for homogeneous vector bundles.

Builds root systems from Cartan matrices in pure integer arithmetic,
computes characters, tensor decompositions and dotted-Weyl cohomology
degrees, and certifies strong exceptionality of bundle collections on
rational homogeneous spaces G/P.
"""

from .errors import (
    EngineError,
    GuardrailExceeded,
    NotDecomposable,
    NotDominant,
    NotFiniteType,
    ParseError,
)
from .lie_core import CartanMatrix, PositiveRoot, RootSystem, Subsystem, Weight
from .presets import get_preset, preset_names

__all__ = [
    "CartanMatrix",
    "EngineError",
    "GuardrailExceeded",
    "NotDecomposable",
    "NotDominant",
    "NotFiniteType",
    "ParseError",
    "PositiveRoot",
    "RootSystem",
    "Subsystem",
    "Weight",
    "get_preset",
    "preset_names",
]
