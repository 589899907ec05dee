"""Alternative probability rules and the assumption-necessity battery.

Three rules replace the squared-amplitude probabilities: a threshold
rule driven by an external random stream, a modified-inner-product rule,
and a cubic reshaping.  ``run_battery`` re-evaluates the seven bracket
identities with outcome probabilities transformed by a rule and records
which identities survive; the ground-truth brackets themselves come from
the exact circuit evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import circuits, detectors as _det, qcore
from .circuits import IDENTITY_NAMES, ConditionalExperiment
from .qcore import StateVector


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
class BornRule:
    name: str = "born"

    def outcome_pair(self, p_first: float, x: float | None = None):
        return p_first, 1.0 - p_first

    def transform(self, p: float, x: float | None = None) -> float:
        return p


@dataclass(frozen=True)
class CubicRule:
    name: str = "cubic3"

    def outcome_pair(self, p_first: float, x: float | None = None):
        return p3_rule(p_first), p3_rule(1.0 - p_first)

    def transform(self, p: float, x: float | None = None) -> float:
        return p3_rule(p)


@dataclass
class RandomThresholdRule:
    """Threshold rule with an explicit stream of x values, consumed one
    per measurement event in order (single-threaded by construction)."""

    stream: tuple[float, ...]
    name: str = "random1"
    _cursor: int = field(default=0, repr=False)

    def next_x(self) -> float:
        if self._cursor >= len(self.stream):
            raise ValueError("random stream exhausted")
        x = self.stream[self._cursor]
        self._cursor += 1
        return x

    def outcome_pair(self, p_first: float, x: float | None = None):
        up = self.transform(p_first, x)
        return up, 1.0 - up

    def transform(self, p: float, x: float | None = None) -> float:
        return p1_rule(p, self.next_x() if x is None else x)


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
    rule: ProbabilityRule,
    seed: int = 42,
    tolerance: float = 1e-9,
    lam: float = 0.3,
    instances: int = 20,
) -> BatteryResult:
    """Evaluate the seven bracket identities with probabilities
    transformed by the rule.

    Probabilities of single brackets are the exact ground-truth values
    passed through the rule.  Composite identities transform each
    bracket separately, exactly as the identities are written; the
    threshold rule shares one stream value per comparison and its
    composite identities are checked at expectation level over the
    stream (where the rule averages back to the reference probability).
    """
    if isinstance(rule, ModifiedInnerRule):
        return _modified_battery(rule, seed, tolerance)

    rng = qcore.as_rng(np.random.SeedSequence((seed, 0xBA7)))
    per_x = isinstance(rule, RandomThresholdRule)
    deviations = {name: 0.0 for name in IDENTITY_NAMES}
    notes: list[str] = []
    born_deviation = 0.0

    def transform(p: float, x: float | None) -> float:
        if per_x:
            return p1_rule(p, x)
        return rule.transform(p)

    def outcome_pair(p: float, x: float | None):
        if per_x:
            up = p1_rule(p, x)
            return up, 1.0 - up
        return rule.outcome_pair(p)

    for _ in range(instances):
        det = _det.random_detector(rng)
        env = int(rng.choice([2, 3]))
        psi = qcore.random_state((2, env), rng)
        pair = qcore.random_state((2, 2), rng)
        single = qcore.random_state((2,), rng)
        phi = qcore.random_state((2,), rng)
        x = float(rng.uniform()) if per_x else None

        # Single-bracket identities: both sides share one ground truth.
        base = circuits.evaluate(
            circuits.Circuit(single, (circuits.Measure(0, "m", det),)), {"m": "click"}
        )
        joint_state = qcore.tensor_product(phi, single)
        extended = circuits.evaluate(
            circuits.Circuit(joint_state, (circuits.Measure(1, "m", det),)),
            {"m": "click"},
        )
        deviations["a1-extension"] = max(
            deviations["a1-extension"],
            abs(transform(base, x) - transform(extended, x)),
        )
        born_deviation = max(born_deviation, abs(transform(base, x) - base))

        up_prob, down_prob = outcome_pair(
            circuits.evaluate(
                circuits.Circuit(psi, (circuits.Measure(0, "m"),)), {"m": "u"}
            ),
            x,
        )
        deviations["normalization"] = max(
            deviations["normalization"], abs(up_prob + down_prob - 1.0)
        )

        u_env = qcore.random_unitary(env, rng)
        plain = circuits.evaluate(
            circuits.Circuit(psi, (circuits.Measure(0, "m", det),)), {"m": "click"}
        )
        with_later = circuits.evaluate(
            circuits.Circuit(
                psi, (circuits.Measure(0, "m", det), circuits.Gate((1,), u_env))
            ),
            {"m": "click"},
        )
        with_before = circuits.evaluate(
            circuits.Circuit(
                psi, (circuits.Gate((1,), u_env), circuits.Measure(0, "m", det))
            ),
            {"m": "click"},
        )
        unread = circuits.evaluate(
            circuits.Circuit(
                pair, (circuits.Measure(1, "s"), circuits.Measure(0, "m", det))
            ),
            {"m": "click"},
        )
        pair_plain = circuits.evaluate(
            circuits.Circuit(pair, (circuits.Measure(0, "m", det),)), {"m": "click"}
        )
        deviations["causality"] = max(
            deviations["causality"], abs(transform(plain, x) - transform(with_later, x))
        )
        deviations["nosignal-unitary"] = max(
            deviations["nosignal-unitary"],
            abs(transform(plain, x) - transform(with_before, x)),
        )
        deviations["nosignal-measure"] = max(
            deviations["nosignal-measure"],
            abs(transform(pair_plain, x) - transform(unread, x)),
        )

        # Composite identities: every bracket transformed separately.
        # The threshold rule averages back to the reference value over
        # its uniform stream, so its composite check is expectation
        # level and coincides with the reference identity.
        sg_outcome = str(rng.choice(["u", "d"]))
        two_step = circuits.Circuit(
            pair, (circuits.Measure(1, "a"), circuits.Measure(0, "b", det))
        )
        joint = circuits.evaluate(two_step, {"a": sg_outcome, "b": "click"})
        marginal = circuits.evaluate(
            circuits.Circuit(pair, (circuits.Measure(1, "a"),)), {"a": sg_outcome}
        )
        record = next(
            r for r in circuits.sg_measure(pair, 1) if r.outcome == sg_outcome
        )
        conditional = (
            0.0
            if record.post_state is None
            else circuits.evaluate(
                circuits.Circuit(
                    record.post_state, (circuits.Measure(0, "b", det),)
                ),
                {"b": "click"},
            )
        )
        if per_x:
            mult_dev = abs(joint - marginal * conditional)
        else:
            mult_dev = abs(
                rule.transform(joint) - rule.transform(marginal) * rule.transform(conditional)
            )
        deviations["multiplication"] = max(deviations["multiplication"], mult_dev)

    # Correlated-pair decomposition at fixed lambda, with a tilted
    # conditional experiment plus random ones.
    a5_rng = qcore.as_rng(np.random.SeedSequence((seed, 0xA5)))
    experiments = [ConditionalExperiment(detector=tilted_projector(math.pi / 3))]
    for _ in range(4):
        experiments.append(
            ConditionalExperiment(
                detector=_det.random_detector(a5_rng),
                unitaries=(qcore.random_unitary(2, a5_rng),),
            )
        )
    pair = qcore.spin_pair_state(lam)
    a_lam = next(
        r for r in circuits.sg_measure(pair, 1) if r.outcome == "u"
    ).probability
    up = StateVector((2,), qcore.UP)
    down = StateVector((2,), qcore.DOWN)
    for experiment in experiments:
        lhs = experiment.run(pair, wire=0)
        cond_u = experiment.run(up)
        cond_d = experiment.run(down)
        if per_x:
            lhs_t, rhs_t = lhs, a_lam * cond_u + (1.0 - a_lam) * cond_d
        else:
            w_up, w_down = rule.outcome_pair(a_lam)
            lhs_t = rule.transform(lhs)
            rhs_t = w_up * rule.transform(cond_u) + w_down * rule.transform(cond_d)
        deviations["a5-decomposition"] = max(
            deviations["a5-decomposition"], abs(lhs_t - rhs_t)
        )

    if per_x:
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
    events, different values.  Scans the stream from its start with
    explicit values, so the rule's own cursor is left untouched."""
    p = 0.6
    events = (rule.transform(p, x) for x in rule.stream)
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
