"""Circuit probability semantics: preparations, gates, measurements,
and bracketed outcome queries.

A circuit is an initial state plus an ordered list of steps.
``outcome_distribution`` walks the steps once, depth first: gates act
unitarily, and each measurement branches, multiplying the running
probability (multiplication rule).  Measured spins stay in the state,
collapsed onto the outcome eigenstate.  A query's bracket is the sum
over the branches that agree with it (additive rule).

The seven bracket identities that encode the five assumptions behind
the harness are defined here once, each as the ground-truth brackets it
evaluates plus the comparison it makes.  The comparison reads the
brackets through a rule: the derivation suite uses the default,
``BornRule`` (the squared-amplitude rule), and the counterexample battery
the alternative rules.  ``check_identity_states`` checks six identities
on one instance and ``check_identity_a5_decomposition`` the seventh;
``sweep_identities`` checks all seven on random instances for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from . import detectors as _det
from . import qcore
from .detectors import Detector
from .qcore import StateVector, DEFAULT_TOL, ZERO_BRANCH
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
                if not qcore.matrix_is(step.matrix, "unitary"):
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
class EvalResult:
    probability: float
    undefined_labels: tuple[str, ...] = ()

    @property
    def conditional_undefined(self) -> bool:
        """Whether a queried branch has zero probability."""
        return bool(self.undefined_labels)


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
        if prob <= ZERO_BRANCH:
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
    tens = psi.as_tensor()
    if wire:
        tens = np.moveaxis(tens, wire, 0)
    records = []
    for outcome, prob, kraus in zip(
        DETECTOR_OUTCOMES, (p_click, 1.0 - p_click), det.kraus_pair
    ):
        if prob <= ZERO_BRANCH:
            records.append(MeasurementRecord(outcome, 0.0, None))
            continue
        branch = (kraus @ tens.reshape(2, -1)).reshape(tens.shape)
        post = (np.moveaxis(branch, 0, wire) if wire else branch).reshape(-1)
        post = post / np.linalg.norm(post)
        records.append(
            MeasurementRecord(outcome, min(prob, 1.0), StateVector._trusted(psi.factor_dims, post))
        )
    return records


def outcome_distribution(
    circuit: Circuit, fixed: Mapping[str, str] | None = None
) -> dict[tuple[str, ...], float | None]:
    """One walk of the circuit: the probability of every outcome
    sequence, one outcome per measurement in step order, that agrees
    with ``fixed``.  A branch that ``fixed`` rules out is never entered;
    a branch of zero probability ends at that measurement, with the
    value None.  Sequences come in the walk's depth-first order."""
    fixed = dict(fixed or {})
    steps = circuit.steps
    out: dict[tuple[str, ...], float | None] = {}

    def walk(state: StateVector, start: int, outcomes: tuple[str, ...], weight: float) -> None:
        for index in range(start, len(steps)):
            step = steps[index]
            if isinstance(step, Gate):
                state = apply_unitary(state, step.wires, step.matrix)
                continue
            if step.detector is None:
                records = sg_measure(state, step.wire)
            else:
                records = detector_measure(state, step.wire, step.detector)
            for rec in records:
                if fixed.get(step.label, rec.outcome) != rec.outcome:
                    continue
                if rec.post_state is None:
                    out[outcomes + (rec.outcome,)] = None
                else:
                    walk(rec.post_state, index + 1, outcomes + (rec.outcome,), weight * rec.probability)
            return
        out[outcomes] = weight

    walk(circuit.initial, 0, (), 1.0)
    return out


def _mass(distribution: Mapping[tuple[str, ...], float | None], *prefix: str) -> float:
    """Clamped probability of the sequences that start with ``prefix``."""
    total = sum(
        p for key, p in distribution.items() if p is not None and key[: len(prefix)] == prefix
    )
    return min(max(float(total), 0.0), 1.0)


def evaluate_full(circuit: Circuit, query: Mapping[str, str] | None) -> EvalResult:
    """Exact bracket probability of the queried outcome assignment;
    measurements the query does not mention are summed over.  A queried
    branch of zero probability is listed in ``undefined_labels``, once
    per branch that reaches it, in step order."""
    wanted = dict(query or {})
    labels = circuit.measure_labels
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
    distribution = outcome_distribution(circuit, wanted)
    ended = sorted((key for key, p in distribution.items() if p is None), key=len)
    undefined = tuple(labels[len(key) - 1] for key in ended if labels[len(key) - 1] in wanted)
    return EvalResult(_mass(distribution), undefined)


def evaluate(circuit: Circuit, query: Mapping[str, str] | None) -> float:
    return evaluate_full(circuit, query).probability


# ---------------------------------------------------------------------------
# Bracket identities: exact ground-truth brackets, read through a rule.


class Reading(Protocol):
    """How an identity reads a ground-truth bracket ``p``: ``compared``
    when the bracket is compared with a single other bracket, ``combined``
    when it enters a sum or a product."""

    def compared(self, p: float) -> float: ...

    def combined(self, p: float) -> float: ...


@dataclass(frozen=True)
class BornRule:
    """The squared-amplitude rule: both readings are the exact bracket."""

    name: str = "born"

    def compared(self, p: float) -> float:
        return p

    combined = compared

    def for_instance(self, rng) -> "BornRule":
        """The reading of one random instance; this rule draws nothing."""
        return self


BORN = BornRule()


def check_identity_states(
    det: Detector | None,
    single: StateVector,
    ancilla: StateVector,
    psi: StateVector,
    env_unitary: np.ndarray,
    pair: StateVector,
    sg_outcome: str,
    tolerance: float = DEFAULT_TOL,
    rule: Reading = BORN,
) -> list[VerificationReport]:
    """The six state identities on one instance, in ``IDENTITY_NAMES``
    order, evaluating each distinct bracket once.

    ``det`` (None: the reference apparatus) measures spin 0, and every
    bracket asks for its first outcome, the click.
      - a1-extension: ``single`` alone, and with ``ancilla`` prepended;
      - normalization: the click and no-click brackets of ``psi`` sum to 1;
      - causality, nosignal-unitary: ``env_unitary`` on wire 1 of ``psi``,
        after or before the measurement, leaves the click unchanged;
      - multiplication (the classical product and sum rules): on ``pair``,
        the joint bracket of ``sg_outcome`` on wire 1 and a click is the
        marginal times the click on the recorded post state, and the
        bracket with wire 1 measured but unread is the sum of both joints;
      - nosignal-measure: that unread measurement leaves the click
        unchanged.
    """
    probe = Measure(0, "m", det)
    click, no_click = probe.outcomes
    gate = Gate((1,), env_unitary)

    def bracket(state: StateVector, steps: tuple[Step, ...] = (probe,)) -> float:
        return evaluate(Circuit(state, steps), {"m": click})

    lhs = bracket(single)
    extended = qcore.tensor_product(ancilla, single)
    rhs = bracket(extended, (Measure(ancilla.num_factors, "m", det),))
    measured = outcome_distribution(Circuit(psi, (probe,)))
    hit, miss = _mass(measured, click), _mass(measured, no_click)
    later = bracket(psi, (probe, gate))
    before = bracket(psi, (gate, probe))
    alone = bracket(pair)
    both = outcome_distribution(Circuit(pair, (Measure(1, "s"), probe)), {"m": click})
    unread = _mass(both)
    joint = {o: _mass(both, o) for o in SG_OUTCOMES}
    record = next(r for r in sg_measure(pair, 1) if r.outcome == sg_outcome)
    conditional = 0.0 if record.post_state is None else bracket(record.post_state)

    def report(name: str, inputs: str, deviation: float, **details: float) -> VerificationReport:
        return VerificationReport.from_deviation(
            f"identity:{name}", inputs, deviation, tolerance, tuple(details.items())
        )

    c, s = rule.compared, rule.combined
    product = abs(s(joint[sg_outcome]) - s(record.probability) * s(conditional))
    additivity = abs(s(unread) - (s(joint["u"]) + s(joint["d"])))
    dims = f"dims={psi.factor_dims}"
    pair_dims = f"dims={pair.factor_dims}"
    return [
        report(
            "a1-extension",
            f"dims={single.factor_dims}+{ancilla.factor_dims}",
            abs(c(lhs) - c(rhs)),
            lhs=lhs,
            rhs=rhs,
        ),
        report("normalization", dims, abs(s(hit) + s(miss) - 1.0), click=hit, no_click=miss),
        report(
            "multiplication",
            f"{pair_dims} a={sg_outcome}",
            max(product, additivity),
            joint_up=joint["u"],
            joint_down=joint["d"],
            unread=unread,
            marginal=record.probability,
            conditional=conditional,
        ),
        report("causality", dims, abs(c(hit) - c(later)), without=hit, with_later=later),
        report("nosignal-unitary", dims, abs(c(hit) - c(before)), without=hit, with_prior=before),
        report(
            "nosignal-measure", pair_dims, abs(c(alone) - c(unread)), alone=alone, unread=unread
        ),
    ]


def check_identity_a5_decomposition(
    lam: float,
    det: Detector,
    unitaries: Sequence[np.ndarray] = (),
    tolerance: float = DEFAULT_TOL,
    rule: Reading = BORN,
) -> VerificationReport:
    """The correlated-pair bracket splits into reference-branch-weighted
    conditionals on the collapsed single-spin states.  Each bracket
    applies the 2x2 ``unitaries`` to spin 0 and then asks ``det`` for a
    click on it."""
    steps = tuple(Gate((0,), u) for u in unitaries) + (Measure(0, "m", det),)

    def click(state: StateVector) -> float:
        return evaluate(Circuit(state, steps), {"m": "click"})

    pair = qcore.spin_pair_state(lam)
    lhs = click(pair)
    a_lam = next(r for r in sg_measure(pair, 1) if r.outcome == "u").probability
    up = click(StateVector((2,), qcore.UP))
    down = click(StateVector((2,), qcore.DOWN))
    s = rule.combined
    rhs = s(a_lam) * s(up) + s(1.0 - a_lam) * s(down)
    return VerificationReport.from_deviation(
        "identity:a5-decomposition",
        f"lambda={lam}",
        abs(s(lhs) - rhs),
        tolerance,
        (("lhs", lhs), ("a_lambda", a_lam), ("up", up), ("down", down)),
    )


def sweep_identities(
    rng, instances: int, tolerance: float = DEFAULT_TOL, rule=BORN
) -> tuple[dict[str, float], float]:
    """The seven identities on ``instances`` random instances from ``rng``.

    Each instance draws a random detector, states and unitaries, and its
    reading ``rule.for_instance(rng)``, then checks the six state
    identities and the decomposition at a random weight.  Returns the
    worst deviation of each identity, and ``born_deviation``: the worst
    distance between the reading of the single-spin click and the click
    itself."""
    worst = dict.fromkeys(IDENTITY_NAMES, 0.0)
    born_deviation = 0.0
    for _ in range(instances):
        det = _det.random_detector(rng)
        env = int(rng.choice([2, 3, 4]))
        psi = qcore.random_state((2, env), rng)
        pair = qcore.random_state((2, 2), rng)
        single = qcore.random_state((2,), rng)
        ancilla = qcore.random_state((2,), rng)
        sg_outcome = str(rng.choice(SG_OUTCOMES))
        u_env = qcore.random_unitary(env, rng)
        u_spin = qcore.random_unitary(2, rng)
        lam = float(rng.uniform())
        reading = rule.for_instance(rng)
        reports = check_identity_states(
            det, single, ancilla, psi, u_env, pair, sg_outcome, tolerance, reading
        )
        reports.append(check_identity_a5_decomposition(lam, det, (u_spin,), tolerance, reading))
        for report in reports:
            name = report.name.removeprefix("identity:")
            worst[name] = max(worst[name], report.max_deviation)
        click = dict(reports[0].details)["lhs"]  # a1-extension: the click of ``single``
        born_deviation = max(born_deviation, abs(reading.compared(click) - click))
    return worst, born_deviation
