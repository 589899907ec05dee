"""Alternative probability rules and the assumption-necessity battery.

Three rules replace the squared-amplitude probabilities: a threshold
rule driven by an external random stream (``p1_rule``), a
modified-inner-product rule (``p2_rules``, for K outcome vectors on N
states at once) and a cubic reshaping (``p3_rule``).  ``run_battery``
checks the seven bracket identities under a rule and records which of
them survive.  It runs the derivation suite's own sweep,
``identities.sweep_identities``: the brackets are exact ground-truth
values, and the rule reads them, in one way for a bracket compared with
a single other bracket and in another for a bracket that enters a sum or
a product.  The squared-amplitude rule, ``BornRule``, comes from
``identities``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuits, detectors as _det, identities, qcore
from .identities import IDENTITY_NAMES, BornRule
from .qcore import DEFAULT_TOL, POSITIVE_FLOOR


def p1_rule(p0, x):
    """Threshold rule, elementwise: 1 where the reference probability
    exceeds the stream value, else 0.  The paired outcome takes the
    complement."""
    _check_unit(p0, "probability")
    _check_unit(x, "stream value")
    return (p0 > x) * 1.0


def _check_unit(values, what: str) -> None:
    """Raise on the first entry of ``values`` outside [0, 1], NaN included."""
    values = np.asarray(values)
    outside = ~((0.0 <= values) & (values <= 1.0))
    if outside.any():
        raise ValueError(f"{what} out of range: {values[outside][0]}")


def p2_rules(a: np.ndarray, phis: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """The rule for K outcome vectors on N states, as an (N, K) array,
    with ``a`` checked once.  Each entry is the lone formula's value to
    the bit: every product is a stack of one-row products, as in the
    formula, since a plain (N, 2) @ (2, 2) takes another BLAS path."""
    a = np.asarray(a, dtype=complex)
    _validate_positive_hermitian(a)
    kets = np.asarray(psis, dtype=complex)[:, None, :, None]
    denoms = (kets.swapaxes(2, 3).conj() @ a @ kets)[..., 0, 0].real
    if (denoms <= 0.0).any():
        raise ValueError("state has non-positive modified norm")
    return _abs_squared((np.conj(phis)[:, None, :] @ a @ kets)[..., 0, 0]) / denoms


def _abs_squared(z: np.ndarray) -> np.ndarray:
    """|z|^2 rounded as ``abs(z) ** 2``: hypot as abs() (np.abs differs in
    the last bit), then libm pow, which is not always z * z."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


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
    qcore.check_matrix(a, "modified-product operator", "Hermitian")
    if not np.linalg.eigvalsh(a)[0] > POSITIVE_FLOOR:
        raise ValueError("modified-product operator must be positive definite")


def p3_rule(p0):
    """Cubic reshaping (3 - 2p) p^2, elementwise: monotone on [0, 1] with
    fixed points 0, 1/2, 1."""
    _check_unit(p0, "probability")
    return (3.0 - 2.0 * p0) * p0 * p0


@dataclass(frozen=True)
class CubicRule:
    """Reads every bracket p as p3(p); draws nothing."""

    name: str = "cubic3"

    def draw(self, rng) -> float:
        return 0.0

    def compared(self, p: np.ndarray, x: np.ndarray) -> np.ndarray:
        return p3_rule(p)

    combined = compared


@dataclass(frozen=True)
class RandomThresholdRule:
    """Threshold rule with an explicit stream of x values, which feeds the
    battery's notes and ``born_deviation``.  Each random instance draws
    its own x from the battery's generator.  A bracket compared with a
    single other bracket reads as p1(p, x); a bracket that enters a sum
    or a product reads at the rule's expectation over a uniform stream,
    which is the reference probability p itself."""

    stream: tuple[float, ...]
    name: str = "random1"

    def draw(self, rng) -> float:
        return float(rng.uniform())

    def compared(self, p: np.ndarray, x: np.ndarray) -> np.ndarray:
        return p1_rule(p, x)

    def combined(self, p: np.ndarray, x: np.ndarray) -> np.ndarray:
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

    ``identities.sweep_identities`` draws the derivation suite's kind of
    random instance, each with its ``rule.draw``, and the rule reads the
    exact ground-truth brackets of all instances at once.  A hand-checked witness
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
    deviations, _, born_deviation = identities.sweep_identities(rng, 20, rule)
    probe = circuits.Measure(0, "m", tilted_projector(math.pi / 3))
    witness = float(identities.check_a5([0.3], probe, (), rule, rule.draw(rng))[0][0])
    deviations["a5-decomposition"] = max(deviations["a5-decomposition"], witness)

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
    events = p1_rule(0.6, np.array(rule.stream))
    changed = np.flatnonzero(events != events[:1])
    if changed.size:
        return (
            "state-function violation: identical state and measurement gave "
            f"{events[0]:g} then {events[changed[0]]:g} on successive events, so the "
            "probability is not determined by the state alone"
        )
    return "state-function violation not witnessed within the stream"


def _stream_born_deviation(rule: RandomThresholdRule, rng) -> float:
    probs = rng.uniform(size=16)[: len(rule.stream)]
    return float(np.max(np.abs(p1_rule(probs, np.array(rule.stream[:16])) - probs)))


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
    psis = qcore.random_amplitudes((2,), 200, rng)
    up, down = p2_rules(rule.operator, np.stack([phi_up, phi_down]), psis).T
    born = _abs_squared((unit_up.conj() @ psis[:, :, None])[:, 0])
    norm_dev = float(np.max(np.abs(up + down - 1.0)))
    born_dev = float(np.max(np.abs(up - born)))
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


def rule_by_name(name: str, seed: int = 42) -> ProbabilityRule:
    key = name.strip().lower()
    if key == "born":
        return BornRule()
    if key == "cubic3":
        return CubicRule()
    if key == "random1":
        return RandomThresholdRule(uniform_stream(64, seed))
    if key == "modified2":
        return ModifiedInnerRule(np.diag([2.0, 2.0 / 3.0]).astype(complex))
    raise ValueError(f"unknown rule {name!r} (expected born, random1, modified2, cubic3)")
