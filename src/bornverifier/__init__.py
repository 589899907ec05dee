"""Quantum-measurement simulation library and verification harness.

The package rebuilds, numerically and against exact ground truth, the
chain from five operational assumptions to squared-amplitude
probabilities: envariance, segment convexity, dyadic linearity, the
affine Bloch response and its POVM form, the ideal-detector probability
rule, the coordinate-interval generalization, and the counterexample
rules showing each assumption is load-bearing.
"""

__version__ = "0.1.0"

from .qcore import (
    BlochVector,
    DimensionError,
    StateVector,
    bell_state,
    bloch_polarization,
    envariance_unitary,
    purify,
    purify_batch,
    random_state,
    reduced_density,
    spin_pair_state,
    tensor_product,
)
from .detectors import (
    AffineResponse,
    AncillaDetector,
    Detector,
    EffectDetector,
    PovmEffect,
    click_probabilities,
    click_probability,
    extract_affine,
    linear_extension,
    mixed_click_probability,
    outcome_probabilities,
    probe_fclick,
    to_povm,
)
from .circuits import (
    Circuit,
    Gate,
    Measure,
    MeasurementRecord,
    evaluate,
    evaluate_full,
    sg_measure,
)
from .derivation import (
    DyadicProfile,
    run_full_suite,
    verify_envariance,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3_dyadic,
    verify_theorem1,
    verify_theorem2,
)
from .counterexamples import BatteryResult, p1_rule, p2_rule, p2_rules, p3_rule, run_battery
from .coordinate import (
    IntervalDecomposition,
    IntervalDetector,
    Wavefunction1D,
    born_integral,
    decompose_interval,
    isospin_polarization,
    verify_isospin_born,
)
from .dsl import DslParseError, ExperimentSpec, parse, parse_file, print_spec
from .reporting import ReportDocument, VerificationReport, canonical_json

__all__ = [name for name in dir() if not name.startswith("_")]
