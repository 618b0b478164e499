"""Exact string cones and string polytopes in Lie types A, B and C.

The package computes string cones from reduced words of the longest Weyl
element by enumerating rigorous paths on wiring diagrams, folds them into
types B and C through symplectic wiring diagrams, and analyses the
resulting cones and polytopes with an exact rational polyhedral kernel.
"""

from .weyl import (
    LieType,
    ReducedWord,
    Weight,
    braid_variant_word,
    cartan_pairing,
    contract,
    enumerate_reduced_words,
    gt_adapted_word,
    is_reduced,
    lift,
    longest_length,
)

__all__ = [
    "LieType",
    "ReducedWord",
    "Weight",
    "braid_variant_word",
    "cartan_pairing",
    "contract",
    "enumerate_reduced_words",
    "gt_adapted_word",
    "is_reduced",
    "lift",
    "longest_length",
]

__version__ = "0.1.0"
