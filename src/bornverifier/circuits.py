"""Circuit probability semantics: preparations, gates, measurements,
and bracketed outcome queries.

A circuit is an initial state plus an ordered list of steps.  Evaluating
a query walks the steps over an ensemble of weighted branches: gates act
unitarily, a queried measurement selects its branch and multiplies the
running probability (multiplication rule), and an unqueried measurement
sums over branches (additive rule).  Measured spins stay in the state,
collapsed onto the outcome eigenstate.

The ``check_identity_*`` family replays, against exact ground truth, the
bracket identities that encode the five assumptions behind the harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import detectors as _det
from . import qcore
from .detectors import Detector
from .qcore import StateVector, DEFAULT_TOL
from .reporting import VerificationReport

SG_OUTCOMES = ("u", "d")
DETECTOR_OUTCOMES = ("click", "noclick")
# The seven bracket identities; ``check_identity_*`` reports each one as
# "identity:<name>".
IDENTITY_NAMES = (
    "a1-extension",
    "normalization",
    "multiplication",
    "causality",
    "nosignal-unitary",
    "nosignal-measure",
    "a5-decomposition",
)

_ZERO_BRANCH = 1e-24


@dataclass(frozen=True)
class Gate:
    wires: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Measure:
    """Measurement step; ``detector`` None means the reference
    Stern-Gerlach apparatus, otherwise a black-box click detector."""

    wire: int
    label: str
    detector: Detector | None = None

    @property
    def outcomes(self) -> tuple[str, str]:
        return SG_OUTCOMES if self.detector is None else DETECTOR_OUTCOMES


Step = Gate | Measure


@dataclass(frozen=True)
class MeasurementRecord:
    """One outcome branch: its label, probability, and post state (None
    when the branch has zero probability)."""

    outcome: str
    probability: float
    post_state: StateVector | None


@dataclass(frozen=True)
class Circuit:
    initial: StateVector
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        dims = self.initial.factor_dims
        seen_labels = set()
        for step in self.steps:
            if isinstance(step, Gate):
                if not step.wires or len(set(step.wires)) != len(step.wires):
                    raise ValueError("gate wires must be distinct and non-empty")
                if any(not 0 <= w < len(dims) for w in step.wires):
                    raise ValueError(f"gate wires {step.wires} out of range")
                span = math.prod(dims[w] for w in step.wires)
                if step.matrix.shape != (span, span):
                    raise ValueError(
                        f"gate matrix shape {step.matrix.shape} does not match "
                        f"wire dimensions (expected {span}x{span})"
                    )
                if not qcore.is_unitary(step.matrix, DEFAULT_TOL):
                    raise ValueError("gate matrix is not unitary")
            elif isinstance(step, Measure):
                if not 0 <= step.wire < len(dims):
                    raise ValueError(f"measure wire {step.wire} out of range")
                if dims[step.wire] != 2:
                    raise ValueError("only spin wires (dimension 2) are measurable")
                if not step.label:
                    raise ValueError("measurement label must be non-empty")
                if step.label in seen_labels:
                    raise ValueError(f"duplicate measurement label {step.label!r}")
                seen_labels.add(step.label)
            else:
                raise TypeError(f"unknown step type {type(step).__name__}")

    @property
    def measure_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.steps if isinstance(s, Measure))


@dataclass(frozen=True)
class OutcomeQuery:
    """Required outcome per measurement label; unmentioned labels are
    marginalized."""

    assignments: tuple[tuple[str, str], ...]

    @staticmethod
    def of(mapping: Mapping[str, str] | None) -> "OutcomeQuery":
        if mapping is None:
            return OutcomeQuery(())
        return OutcomeQuery(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignments)


@dataclass(frozen=True)
class EvalResult:
    probability: float
    conditional_undefined: bool
    undefined_labels: tuple[str, ...] = ()


def apply_unitary(psi: StateVector, wires: Sequence[int], matrix: np.ndarray) -> StateVector:
    """Apply a unitary acting on the listed wires (in the given order).

    A matrix that does not preserve the state's norm is rejected."""
    wires = tuple(wires)
    dims = psi.factor_dims
    tens = np.moveaxis(psi.as_tensor(), wires, range(len(wires)))
    span = math.prod(dims[w] for w in wires)
    flat = tens.reshape(span, -1)
    flat = np.asarray(matrix, dtype=complex) @ flat
    tens = flat.reshape([dims[w] for w in wires] + [-1]).reshape(tens.shape)
    tens = np.moveaxis(tens, range(len(wires)), wires)
    out = tens.reshape(-1)
    norm = np.linalg.norm(out)
    if not abs(norm - 1.0) <= qcore.NORM_TOL:
        raise ValueError(f"matrix is not unitary: it maps the state to norm {norm!r}")
    return StateVector._trusted(dims, out)


def sg_measure(psi: StateVector, wire: int) -> list[MeasurementRecord]:
    """Ground-truth vertical-projection measurement: branch probabilities
    are the squared norms of the two projected components, and the post
    state keeps the measured spin collapsed on its outcome."""
    qcore._check_spin_factor(psi, wire)
    tens = np.moveaxis(psi.as_tensor(), wire, 0)
    records = []
    for idx, outcome in enumerate(SG_OUTCOMES):
        branch = np.zeros_like(tens)
        branch[idx] = tens[idx]
        prob = float(np.vdot(branch, branch).real)
        if prob <= _ZERO_BRANCH:
            records.append(MeasurementRecord(outcome, 0.0, None))
            continue
        post = np.moveaxis(branch / math.sqrt(prob), 0, wire).reshape(-1)
        records.append(
            MeasurementRecord(outcome, min(prob, 1.0), StateVector._trusted(psi.factor_dims, post))
        )
    return records


def detector_measure(psi: StateVector, wire: int, det: Detector) -> list[MeasurementRecord]:
    """Click/no-click branches for a black-box detector.

    Probabilities come from the detector oracle.  Post states use the
    principal square root of the ground-truth effect as the measurement
    operator; probabilities of any later steps never depend on this
    choice, it only keeps mid-circuit evaluation well defined.
    """
    p_click = _det.click_probability(det, psi, wire)
    rest = _rest_shape(psi, wire)
    tens = np.moveaxis(psi.as_tensor(), wire, 0).reshape(2, -1)
    records = []
    for outcome, prob, kraus in zip(
        DETECTOR_OUTCOMES, (p_click, 1.0 - p_click), det.kraus_pair
    ):
        if prob <= _ZERO_BRANCH:
            records.append(MeasurementRecord(outcome, 0.0, None))
            continue
        branch = kraus @ tens
        post = np.moveaxis(branch.reshape((2,) + rest), 0, wire).reshape(-1)
        post = post / np.linalg.norm(post)
        records.append(
            MeasurementRecord(outcome, min(prob, 1.0), StateVector._trusted(psi.factor_dims, post))
        )
    return records


def _rest_shape(psi: StateVector, wire: int) -> tuple[int, ...]:
    return tuple(d for i, d in enumerate(psi.factor_dims) if i != wire)


def measure_records(psi: StateVector, step: Measure) -> list[MeasurementRecord]:
    if step.detector is None:
        return sg_measure(psi, step.wire)
    return detector_measure(psi, step.wire, step.detector)


def evaluate_full(circuit: Circuit, query: OutcomeQuery | Mapping[str, str] | None) -> EvalResult:
    """Exact bracket probability of the queried outcome assignment."""
    if not isinstance(query, OutcomeQuery):
        query = OutcomeQuery.of(query)
    wanted = query.as_dict()
    labels = set(circuit.measure_labels)
    for label, outcome in wanted.items():
        if label not in labels:
            raise ValueError(f"query references unknown measurement {label!r}")
    for step in circuit.steps:
        if isinstance(step, Measure) and step.label in wanted:
            if wanted[step.label] not in step.outcomes:
                raise ValueError(
                    f"outcome {wanted[step.label]!r} invalid for measurement "
                    f"{step.label!r} (expected one of {step.outcomes})"
                )

    branches: list[tuple[float, StateVector]] = [(1.0, circuit.initial)]
    undefined: list[str] = []
    for step in circuit.steps:
        if isinstance(step, Gate):
            branches = [
                (w, apply_unitary(state, step.wires, step.matrix))
                for w, state in branches
            ]
            continue
        next_branches: list[tuple[float, StateVector]] = []
        for weight, state in branches:
            records = measure_records(state, step)
            if step.label in wanted:
                rec = next(r for r in records if r.outcome == wanted[step.label])
                if rec.post_state is None:
                    undefined.append(step.label)
                    continue
                next_branches.append((weight * rec.probability, rec.post_state))
            else:
                for rec in records:
                    if rec.post_state is None:
                        continue
                    next_branches.append((weight * rec.probability, rec.post_state))
        branches = next_branches
    probability = float(sum(w for w, _ in branches))
    return EvalResult(
        probability=min(max(probability, 0.0), 1.0),
        conditional_undefined=bool(undefined),
        undefined_labels=tuple(undefined),
    )


def evaluate(circuit: Circuit, query: OutcomeQuery | Mapping[str, str] | None) -> float:
    return evaluate_full(circuit, query).probability


def sample_outcomes(circuit: Circuit, rng, shots: int = 1) -> list[dict[str, str]]:
    """Monte-Carlo outcome sampling, for demonstration only (verification
    always uses exact evaluation)."""
    rng = qcore.as_rng(rng)
    results = []
    for _ in range(shots):
        state = circuit.initial
        shot: dict[str, str] = {}
        for step in circuit.steps:
            if isinstance(step, Gate):
                state = apply_unitary(state, step.wires, step.matrix)
                continue
            records = measure_records(state, step)
            probs = [r.probability for r in records]
            pick = records[int(rng.choice(len(records), p=np.array(probs) / sum(probs)))]
            shot[step.label] = pick.outcome
            state = pick.post_state
        results.append(shot)
    return results


# ---------------------------------------------------------------------------
# Identity checks (exact ground truth).


def _measured_circuit(
    psi: StateVector, wire: int, det: Detector | None, label: str = "m"
) -> Circuit:
    return Circuit(psi, (Measure(wire, label, det),))


def check_identity_a1(
    psi: StateVector,
    ancilla_phi: StateVector,
    det: Detector | None = None,
    outcome: str | None = None,
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """Adding an untouched ancilla system leaves the probability unchanged."""
    if outcome is None:
        outcome = "u" if det is None else "click"
    lhs = evaluate(_measured_circuit(psi, 0, det), {"m": outcome})
    joint = qcore.tensor_product(ancilla_phi, psi)
    rhs = evaluate(
        _measured_circuit(joint, ancilla_phi.num_factors, det), {"m": outcome}
    )
    return VerificationReport.from_deviation(
        "identity:a1-extension",
        f"dims={psi.factor_dims}+{ancilla_phi.factor_dims} outcome={outcome}",
        abs(lhs - rhs),
        tolerance,
        (("lhs", lhs), ("rhs", rhs)),
    )


def check_identity_normalization(
    psi: StateVector,
    det: Detector | None = None,
    wire: int = 0,
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """Probabilities of the exhaustive outcome pair sum to one."""
    circuit = _measured_circuit(psi, wire, det)
    outcomes = circuit.steps[0].outcomes
    total = sum(evaluate(circuit, {"m": o}) for o in outcomes)
    return VerificationReport.from_deviation(
        "identity:normalization",
        f"dims={psi.factor_dims} wire={wire}",
        abs(total - 1.0),
        tolerance,
        (("sum", total),),
    )


def check_identity_multiplication(
    psi: StateVector,
    det: Detector,
    sg_wire: int = 1,
    det_wire: int = 0,
    sg_outcome: str = "u",
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """Joint probability factors into marginal times conditional, where
    the conditional runs on the recorded post-measurement state."""
    joint_circuit = Circuit(
        psi, (Measure(sg_wire, "a"), Measure(det_wire, "b", det))
    )
    joint = evaluate(joint_circuit, {"a": sg_outcome, "b": "click"})
    marginal = evaluate(_measured_circuit(psi, sg_wire, None, "a"), {"a": sg_outcome})
    record = next(
        r for r in sg_measure(psi, sg_wire) if r.outcome == sg_outcome
    )
    if record.post_state is None:
        deviation = abs(joint)
        conditional = 0.0
    else:
        conditional = evaluate(
            _measured_circuit(record.post_state, det_wire, det, "b"), {"b": "click"}
        )
        deviation = abs(joint - marginal * conditional)
    return VerificationReport.from_deviation(
        "identity:multiplication",
        f"dims={psi.factor_dims} a={sg_outcome}",
        deviation,
        tolerance,
        (("joint", joint), ("marginal", marginal), ("conditional", conditional)),
    )


def check_identity_causality(
    psi: StateVector,
    det: Detector,
    post_unitary: np.ndarray,
    det_wire: int = 0,
    unitary_wires: Sequence[int] = (1,),
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """A unitary applied after the measurement cannot change its
    probability."""
    base = evaluate(_measured_circuit(psi, det_wire, det), {"m": "click"})
    with_later = evaluate(
        Circuit(
            psi,
            (Measure(det_wire, "m", det), Gate(tuple(unitary_wires), post_unitary)),
        ),
        {"m": "click"},
    )
    return VerificationReport.from_deviation(
        "identity:causality",
        f"dims={psi.factor_dims}",
        abs(base - with_later),
        tolerance,
        (("without", base), ("with_later_unitary", with_later)),
    )


def check_identity_nosignal_unitary(
    psi: StateVector,
    det: Detector,
    pre_unitary: np.ndarray,
    det_wire: int = 0,
    unitary_wires: Sequence[int] = (1,),
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """A unitary on the non-measured subsystem, applied before the
    measurement, cannot change its probability."""
    base = evaluate(_measured_circuit(psi, det_wire, det), {"m": "click"})
    with_unitary = evaluate(
        Circuit(
            psi,
            (Gate(tuple(unitary_wires), pre_unitary), Measure(det_wire, "m", det)),
        ),
        {"m": "click"},
    )
    return VerificationReport.from_deviation(
        "identity:nosignal-unitary",
        f"dims={psi.factor_dims}",
        abs(base - with_unitary),
        tolerance,
        (("without", base), ("with_prior_unitary", with_unitary)),
    )


def check_identity_nosignal_measure(
    psi: StateVector,
    det: Detector,
    det_wire: int = 0,
    sg_wire: int = 1,
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """An unread measurement elsewhere cannot change the probability, and
    the unread case equals the sum over its outcomes."""
    alone = evaluate(_measured_circuit(psi, det_wire, det), {"m": "click"})
    two_step = Circuit(psi, (Measure(sg_wire, "s"), Measure(det_wire, "m", det)))
    marginal = evaluate(two_step, {"m": "click"})
    joint_u = evaluate(two_step, {"s": "u", "m": "click"})
    joint_d = evaluate(two_step, {"s": "d", "m": "click"})
    deviation = max(abs(marginal - (joint_u + joint_d)), abs(alone - marginal))
    return VerificationReport.from_deviation(
        "identity:nosignal-measure",
        f"dims={psi.factor_dims}",
        deviation,
        tolerance,
        (
            ("alone", alone),
            ("marginalized", marginal),
            ("joint_up", joint_u),
            ("joint_down", joint_d),
        ),
    )


@dataclass(frozen=True)
class ConditionalExperiment:
    """Single-spin experiment: optional 2x2 gates, then one detector
    measurement with a required outcome."""

    detector: Detector
    unitaries: tuple[np.ndarray, ...] = ()
    outcome: str = "click"

    def steps(self, wire: int) -> tuple[Step, ...]:
        gates = tuple(Gate((wire,), u) for u in self.unitaries)
        return gates + (Measure(wire, "exp", self.detector),)

    def run(self, psi: StateVector, wire: int = 0) -> float:
        return evaluate(Circuit(psi, self.steps(wire)), {"exp": self.outcome})


def check_identity_a5_decomposition(
    lam: float,
    experiment: ConditionalExperiment,
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """The correlated-pair bracket splits into reference-branch-weighted
    conditionals on the collapsed single-spin states."""
    pair = qcore.spin_pair_state(lam)
    lhs = experiment.run(pair, wire=0)
    a_lam = next(r for r in sg_measure(pair, 1) if r.outcome == "u").probability
    up = StateVector((2,), qcore.UP)
    down = StateVector((2,), qcore.DOWN)
    rhs = a_lam * experiment.run(up) + (1.0 - a_lam) * experiment.run(down)
    return VerificationReport.from_deviation(
        "identity:a5-decomposition",
        f"lambda={lam}",
        abs(lhs - rhs),
        tolerance,
        (("lhs", lhs), ("rhs", rhs), ("a_lambda", a_lam)),
    )
