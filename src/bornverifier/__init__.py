"""Quantum-measurement simulation library and verification harness.

The package rebuilds, numerically and against exact ground truth, the
chain from five operational assumptions to squared-amplitude
probabilities: envariance, segment convexity, dyadic linearity, the
affine Bloch response and its POVM form, the ideal-detector probability
rule, the coordinate-interval generalization, and the counterexample
rules showing each assumption is load-bearing.
"""

__version__ = "0.1.0"

from .qcore import BlochVector
from .detectors import EffectDetector, extract_affine, linear_extension, probe_fclick, to_povm
from .derivation import run_full_suite

__all__ = [
    "BlochVector",
    "EffectDetector",
    "extract_affine",
    "linear_extension",
    "probe_fclick",
    "to_povm",
    "run_full_suite",
]
