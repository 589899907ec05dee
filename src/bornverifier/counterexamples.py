"""Alternative probability rules and the assumption-necessity battery.

Three rules replace the squared-amplitude probabilities: a threshold
rule driven by an external random stream, a modified-inner-product rule,
and a cubic reshaping.  ``run_battery`` checks the seven bracket
identities under a rule and records which of them survive.  It runs the
derivation suite's own sweep, ``circuits.sweep_identities``: the
brackets are exact ground-truth values, and the rule reads them, in one
way for a bracket compared with a single other bracket and in another
for a bracket that enters a sum or a product.  The squared-amplitude
rule, ``BornRule``, comes from ``circuits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuits, detectors as _det, qcore
from .circuits import IDENTITY_NAMES, BornRule
from .qcore import DEFAULT_TOL


def p1_rule(p0: float, x: float) -> float:
    """Threshold rule: 1 when the reference probability exceeds the
    stream value, else 0.  The paired outcome takes the complement."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"probability out of range: {p0}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"stream value out of range: {x}")
    return 1.0 if p0 > x else 0.0


def p2_rule(a: np.ndarray, phi: np.ndarray, psi: np.ndarray) -> float:
    """Modified-inner-product rule |<phi|A|psi>|^2 / <psi|A|psi>."""
    a = np.asarray(a, dtype=complex)
    _validate_positive_hermitian(a)
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    denom = float(np.real(np.conj(psi) @ a @ psi))
    if denom <= 0.0:
        raise ValueError("state has non-positive modified norm")
    num = abs(np.conj(phi) @ a @ psi) ** 2
    return float(num / denom)


def modified_outcome_pair(a: np.ndarray, unitary: np.ndarray | None = None):
    """Outcome vectors (phi_up, phi_down) that are orthonormal under the
    modified inner product: phi_k = A^(-1/2) u_k for orthonormal u_k."""
    a = np.asarray(a, dtype=complex)
    _validate_positive_hermitian(a)
    eigvals, eigvecs = np.linalg.eigh(a)
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T
    basis = np.eye(2, dtype=complex) if unitary is None else np.asarray(unitary)
    return inv_sqrt @ basis[:, 0], inv_sqrt @ basis[:, 1]


def _validate_positive_hermitian(a: np.ndarray) -> None:
    if a.shape != (2, 2):
        raise ValueError("modified-product operator must be 2x2")
    if np.max(np.abs(a - a.conj().T)) > 1e-9:
        raise ValueError("modified-product operator must be Hermitian")
    if np.linalg.eigvalsh(a)[0] <= 1e-12:
        raise ValueError("modified-product operator must be positive definite")


def p3_rule(p0: float) -> float:
    """Cubic reshaping (3 - 2p) p^2: monotone on [0, 1] with fixed
    points 0, 1/2, 1."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"probability out of range: {p0}")
    return (3.0 - 2.0 * p0) * p0 * p0


@dataclass(frozen=True)
class CubicRule:
    """Reads every bracket p as p3(p)."""

    name: str = "cubic3"

    def compared(self, p: float) -> float:
        return p3_rule(p)

    combined = compared

    def for_instance(self, rng) -> "CubicRule":
        return self


@dataclass(frozen=True)
class RandomThresholdRule:
    """Threshold rule with an explicit stream of x values, which feeds the
    battery's notes and ``born_deviation``.  ``for_instance`` reads one
    random instance with a value x drawn from the battery's generator."""

    stream: tuple[float, ...]
    name: str = "random1"

    def for_instance(self, rng) -> "ThresholdReading":
        return ThresholdReading(float(rng.uniform()))


@dataclass(frozen=True)
class ThresholdReading:
    """The threshold rule on one instance: a bracket compared with a
    single other bracket reads as p1(p, x); a bracket that enters a sum or
    a product reads at the rule's expectation over a uniform stream, which
    is the reference probability p itself."""

    x: float

    def compared(self, p: float) -> float:
        return p1_rule(p, self.x)

    def combined(self, p: float) -> float:
        return p


@dataclass(frozen=True)
class ModifiedInnerRule:
    operator: np.ndarray
    name: str = "modified2"

    def __post_init__(self):
        a = np.array(self.operator, dtype=complex)
        _validate_positive_hermitian(a)
        a.setflags(write=False)
        object.__setattr__(self, "operator", a)


ProbabilityRule = BornRule | CubicRule | RandomThresholdRule | ModifiedInnerRule


@dataclass(frozen=True)
class BatteryResult:
    """Per-identity verdicts for one rule, plus its distance from the
    squared-amplitude baseline."""

    rule: str
    identity_status: tuple[tuple[str, str], ...]
    deviations: tuple[tuple[str, float], ...]
    born_deviation: float
    tolerance: float
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        names = {k for k, _ in self.identity_status}
        if names != set(IDENTITY_NAMES):
            raise ValueError(f"identity map must cover {IDENTITY_NAMES}, got {names}")

    @property
    def status(self) -> dict[str, str]:
        return dict(self.identity_status)

    @property
    def passed(self) -> bool:
        return all(v != "fail" for _, v in self.identity_status)

    def to_dict(self) -> dict:
        return {
            "kind": "battery",
            "name": f"counterexample:{self.rule}",
            "rule": self.rule,
            "identities": self.status,
            "deviations": {k: v for k, v in self.deviations},
            "born_deviation": self.born_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "notes": list(self.notes),
        }


def tilted_projector(angle: float) -> _det.EffectDetector:
    """Projective click along a direction tilted by ``angle`` from the
    vertical axis, in the xz plane."""
    direction = qcore.BlochVector(math.sin(angle), 0.0, math.cos(angle))
    return _det.EffectDetector(qcore.density_from_bloch(direction))


def run_battery(
    rule: ProbabilityRule, seed: int = 42, tolerance: float = DEFAULT_TOL
) -> BatteryResult:
    """Check the seven bracket identities with brackets read through the
    rule.

    ``circuits.sweep_identities`` draws the derivation suite's kind of
    random instance and reads each through ``rule.for_instance``; the
    brackets are exact ground-truth values.  A hand-checked witness
    follows: the decomposition at lambda = 0.3 with a projective click
    tilted 60 degrees from vertical.  Special cases:
      - the threshold rule reads a bracket compared with a single other
        bracket with one stream value per instance, and a bracket that
        enters a sum or a product at its expectation over the stream (the
        reference probability), so its composite identities hold; its
        notes witness that one state gives different values on successive
        stream events, and its stream adds to ``born_deviation``;
      - the modified-inner-product rule runs state-level checks only
        (``_modified_battery``);
      - a failing cubic a5-decomposition gets a note on its possible
        attributions.
    """
    if isinstance(rule, ModifiedInnerRule):
        return _modified_battery(rule, seed, tolerance)

    rng = qcore.as_rng(np.random.SeedSequence((seed, 0xBA7)))
    deviations, born_deviation = circuits.sweep_identities(rng, 20, tolerance, rule)
    witness = circuits.check_identity_a5_decomposition(
        0.3, tilted_projector(math.pi / 3), (), tolerance, rule.for_instance(rng)
    )
    deviations["a5-decomposition"] = max(deviations["a5-decomposition"], witness.max_deviation)

    notes: list[str] = []
    if isinstance(rule, RandomThresholdRule):
        notes.append(
            "threshold rule: identities compared with a shared stream value; "
            "composite identities hold at expectation level over the stream"
        )
        notes.append(_a1_violation_note(rule))
        born_deviation = max(born_deviation, _stream_born_deviation(rule, rng))
    if isinstance(rule, CubicRule) and deviations["a5-decomposition"] > tolerance:
        notes.append(
            "a5-decomposition failure admits three attributions (multiplication/"
            "addition rules, no-signalling under unread measurement, or the "
            "reference post-state rule); raw identity failures reported"
        )

    status = tuple(
        (name, "pass" if deviations[name] <= tolerance else "fail")
        for name in IDENTITY_NAMES
    )
    return BatteryResult(
        rule=rule.name,
        identity_status=status,
        deviations=tuple(sorted(deviations.items())),
        born_deviation=born_deviation,
        tolerance=tolerance,
        notes=tuple(notes),
    )


def _a1_violation_note(rule: RandomThresholdRule) -> str:
    """Demonstrate the state-function failure: one bracket, two stream
    events, different values, scanning the stream from its start."""
    p = 0.6
    events = (p1_rule(p, x) for x in rule.stream)
    first = next(events, None)
    for second in events:
        if second != first:
            return (
                "state-function violation: identical state and measurement gave "
                f"{first:g} then {second:g} on successive events, so the "
                "probability is not determined by the state alone"
            )
    return "state-function violation not witnessed within the stream"


def _stream_born_deviation(rule: RandomThresholdRule, rng) -> float:
    probs = rng.uniform(size=16)
    return float(max(abs(p1_rule(p, x) - p) for p, x in zip(probs, rule.stream)))


def _modified_battery(
    rule: ModifiedInnerRule, seed: int, tolerance: float
) -> BatteryResult:
    """State-level checks only: the outcome pair sums to one, and the
    probabilities drift from the squared-amplitude baseline unless the
    operator is a multiple of the identity.  Identities that need
    modified dynamics are reported as skipped."""
    rng = qcore.as_rng(np.random.SeedSequence((seed, 0x2)))
    phi_up, phi_down = modified_outcome_pair(rule.operator)
    unit_up = phi_up / np.linalg.norm(phi_up)
    norm_dev = 0.0
    born_dev = 0.0
    for _ in range(200):
        psi = qcore.random_state((2,), rng).amplitudes
        up = p2_rule(rule.operator, phi_up, psi)
        down = p2_rule(rule.operator, phi_down, psi)
        norm_dev = max(norm_dev, abs(up + down - 1.0))
        born_dev = max(born_dev, abs(up - abs(np.conj(unit_up) @ psi) ** 2))
    status = tuple(
        (name, "skipped") for name in IDENTITY_NAMES if name != "normalization"
    ) + (("normalization", "pass" if norm_dev <= tolerance else "fail"),)
    notes = (
        "modified-product rule: only state-level checks run; evolution under "
        "the modified product is out of scope",
    )
    return BatteryResult(
        rule=rule.name,
        identity_status=status,
        deviations=(("normalization", norm_dev),),
        born_deviation=born_dev,
        tolerance=tolerance,
        notes=notes,
    )


def uniform_stream(n: int, seed: int = 42) -> tuple[float, ...]:
    """Deterministic stream of uniform [0, 1] values for the threshold
    rule."""
    rng = qcore.as_rng(np.random.SeedSequence((seed, 0x51)))
    return tuple(float(v) for v in rng.uniform(size=n))


def rule_by_name(name: str, operator: np.ndarray | None = None, seed: int = 42) -> ProbabilityRule:
    key = name.strip().lower()
    if key == "born":
        return BornRule()
    if key == "cubic3":
        return CubicRule()
    if key == "random1":
        return RandomThresholdRule(uniform_stream(64, seed))
    if key == "modified2":
        if operator is None:
            operator = np.diag([2.0, 2.0 / 3.0]).astype(complex)
        return ModifiedInnerRule(operator)
    raise ValueError(f"unknown rule {name!r} (expected born, random1, modified2, cubic3)")
