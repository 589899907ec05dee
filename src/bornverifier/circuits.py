"""Circuit probability semantics: preparations, gates, measurements,
and bracketed outcome queries.

A circuit is an initial state plus an ordered list of steps.
``outcome_distribution`` walks the steps once, depth first: gates act
unitarily, and each measurement branches, multiplying the running
probability (multiplication rule).  Measured spins stay in the state,
collapsed onto the outcome eigenstate; a measurement that is the walk's
last step yields only its probabilities, from the same function, since
no step reads its post states.  A query's bracket is the sum
over the branches that agree with it (additive rule).  The walk takes N
initial states as one (N, *factor_dims) tensor, with per-row gates, and
per-row detectors as one ``detectors.ModelStacks``; a ``Circuit`` is one
state, checked, and a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import detectors as _det
from . import qcore
from .detectors import Detector
from .qcore import StateVector, ZERO_BRANCH

SG_OUTCOMES = ("u", "d")
DETECTOR_OUTCOMES = ("click", "noclick")
# The reference apparatus's projectors on up and down, shaped to act on
# the (N, 2, rest) spin-first amplitudes of both branches at once.
_PROJECTORS = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)[:, None]


@dataclass(frozen=True)
class Gate:
    """A unitary on the listed wires: one (s, s) matrix, or an (N, s, s)
    stack with one matrix per row of a batched walk."""

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
    Stern-Gerlach apparatus, otherwise a black-box click detector, or the
    ``ModelStacks`` of N detectors of any families, one per row of a
    batched walk."""

    wire: int
    label: str
    detector: Detector | _det.ModelStacks | None = None

    @property
    def outcomes(self) -> tuple[str, str]:
        return SG_OUTCOMES if self.detector is None else DETECTOR_OUTCOMES

    @cached_property
    def kraus(self) -> np.ndarray:
        """The (2, N, 2, 2) operators of both outcomes, one pair per row,
        or (2, 1, 2, 2) for every row alike; built on first use, by the
        post states, which a walk builds only for a measurement that a
        later step follows."""
        if self.detector is None:
            return _PROJECTORS
        stacked = isinstance(self.detector, _det.ModelStacks)
        return _det.kraus_pairs(self.detector.detectors if stacked else [self.detector])

    def on_rows(self, index: Sequence[int]) -> "Measure":
        """This measurement on the listed rows of its batch: per-row
        detectors are picked row by row, and a lone one serves them all."""
        if not isinstance(self.detector, _det.ModelStacks):
            return self
        return Measure(self.wire, self.label, self.detector.on_rows(index))


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
    """One initial state and the steps that act on it, checked: each gate
    one unitary, each measurement one detector or the reference apparatus."""

    initial: StateVector
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not isinstance(self.initial, StateVector):
            raise TypeError(f"a circuit takes one initial StateVector, not a {type(self.initial).__name__}")
        dims = self.initial.factor_dims
        seen_labels = set()
        for step in self.steps:
            if isinstance(step, Gate):
                if not step.wires or len(set(step.wires)) != len(step.wires):
                    raise ValueError("gate wires must be distinct and non-empty")
                if any(not 0 <= w < len(dims) for w in step.wires):
                    raise ValueError(f"gate wires {step.wires} out of range")
                if step.matrix.ndim != 2:
                    raise ValueError(f"a circuit's gate takes one matrix, not a stack of shape {step.matrix.shape}")
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
                if not (step.detector is None or isinstance(step.detector, Detector)):
                    raise TypeError(f"a circuit's measurement takes one detector, not a {type(step.detector).__name__}")
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


def _to_front(tens: np.ndarray, axes: tuple[int, ...]) -> tuple[np.ndarray, list[int]]:
    """A view of ``tens`` with the listed axes moved, in order, right after
    the row axis, and the axis order that moves them back."""
    order = (0, *axes) + tuple(i for i in range(1, tens.ndim) if i not in axes)
    return tens.transpose(order), [order.index(i) for i in range(len(order))]


def apply_unitaries(tens: np.ndarray, wires: Sequence[int], matrix: np.ndarray) -> np.ndarray:
    """Apply a unitary, or an (N, s, s) stack of them, to the listed wires
    (in the given order) of N stacked states, an (N, *factor_dims)
    tensor.  A matrix that does not preserve a state's norm is rejected."""
    moved, back = _to_front(tens, tuple(w + 1 for w in wires))
    flat = moved.reshape(len(tens), math.prod(moved.shape[1 : len(wires) + 1]), -1)
    # Contiguous, so that later reductions sum in the state's own order.
    out = np.ascontiguousarray((matrix @ flat).reshape(moved.shape).transpose(back))
    norms = np.linalg.norm(out.reshape(len(out), -1), axis=1)
    bad = ~(np.abs(norms - 1.0) <= qcore.NORM_TOL)
    if bad.any():
        raise ValueError(f"matrix is not unitary: it maps the state to norm {norms[bad][0]!r}")
    return out


def apply_unitary(psi: StateVector, wires: Sequence[int], matrix: np.ndarray) -> StateVector:
    """Apply a unitary acting on the listed wires (in the given order): a
    batch of one of ``apply_unitaries``."""
    out = apply_unitaries(psi.as_tensor()[None], tuple(wires), np.asarray(matrix, dtype=complex))
    return StateVector._trusted(psi.factor_dims, out[0].reshape(-1))


def probabilities(amps: np.ndarray, measure: Measure) -> np.ndarray:
    """The (2, N) probabilities of both outcomes of one measurement of N
    states, given by their ``qcore.spin_first`` amplitudes: 0 where a branch
    has zero probability.  The reference apparatus's are the squared
    norms of the projected components; a detector's come from its oracle,
    which never reads ``measure.kraus``."""
    if measure.detector is None:
        raw = _squared_norms(_PROJECTORS @ amps)
    else:
        raw = _det.outcome_probabilities(measure.detector, amps)
    return np.where(raw > ZERO_BRANCH, np.minimum(raw, 1.0), 0.0)


def _squared_norms(branches: np.ndarray) -> np.ndarray:
    """The (2, N) squared norms of (2, N, 2, rest) branches, summed as
    numpy's one-dimensional vdot sums them, so that a row's value does not
    depend on the batch it is in."""
    flat = branches.reshape(2, branches.shape[1], -1)
    return (flat.conj()[..., None, :] @ flat[..., :, None])[..., 0, 0].real


def branches(tens: np.ndarray, measure: Measure) -> tuple[np.ndarray, np.ndarray]:
    """Both outcome branches of one measurement of N stacked states: the
    ``probabilities`` of the two outcomes, and their (2, N, *factor_dims)
    post tensors, each divided by its own norm (arbitrary on the rows of a
    zero branch).  A branch whose Kraus image is 0 has zero probability,
    whatever the oracle reads.

    The reference apparatus (no detector) projects the measured spin on
    up and down.  A detector's branches come from ``measure.kraus``, the
    principal square roots of the ground-truth effect: probabilities of
    later steps never depend on that choice, it only keeps mid-circuit
    evaluation well defined."""
    moved, back = _to_front(tens, (measure.wire + 1,))
    amps = moved.reshape(len(tens), 2, -1)
    images = measure.kraus @ amps
    norms = _squared_norms(images)
    probs = np.where(norms > 0.0, probabilities(amps, measure), 0.0)
    scale = np.sqrt(np.where(probs > 0.0, norms, 1.0))
    # Contiguous, so that later reductions sum in the state's own order.
    posts = images.reshape((2,) + moved.shape).transpose([0] + [i + 1 for i in back])
    return probs, np.ascontiguousarray(posts) / scale.reshape(scale.shape + (1,) * (tens.ndim - 1))


def _records(psi: StateVector, measure: Measure) -> list[MeasurementRecord]:
    """The records of one measured state: a batch of one of the walk's
    measurement."""
    qcore.check_spin_factor(psi, measure.wire)
    probs, posts = branches(psi.as_tensor()[None], measure)
    return [
        MeasurementRecord(outcome, float(p), StateVector._trusted(psi.factor_dims, post[0].ravel()))
        if p > 0.0
        else MeasurementRecord(outcome, 0.0, None)
        for outcome, p, post in zip(measure.outcomes, probs[:, 0], posts)
    ]


def sg_measure(psi: StateVector, wire: int) -> list[MeasurementRecord]:
    """Ground-truth vertical-projection measurement: branch probabilities
    are the squared norms of the two projected components, and the post
    state keeps the measured spin collapsed on its outcome."""
    return _records(psi, Measure(wire, "s"))


def detector_measure(psi: StateVector, wire: int, det: Detector) -> list[MeasurementRecord]:
    """Click/no-click branches for a black-box detector: probabilities from
    the detector oracle, post states from ``Measure.kraus``."""
    return _records(psi, Measure(wire, "m", det))


def outcome_distribution(
    tens: np.ndarray, steps: Sequence[Step], fixed: Mapping[str, str] | None = None
) -> dict[tuple[str, ...], np.ndarray]:
    """One walk of ``steps`` over N initial states, the rows of an (N,
    *factor_dims) tensor: the (N,) probabilities of every outcome
    sequence, one outcome per measurement in step order, that agrees with
    ``fixed``.  A branch that ``fixed`` rules out is never entered.  A
    branch of zero probability ends at that measurement, row by row: on
    the rows that ended there, its sequence holds NaN, and every longer
    sequence holds 0.  Sequences come in the walk's depth-first order."""
    fixed = dict(fixed or {})
    total = len(tens)
    out: dict[tuple[str, ...], np.ndarray] = {}

    def put(key: tuple[str, ...], rows: np.ndarray, values: np.ndarray) -> None:
        if key not in out and len(rows) == total:
            out[key] = values
        else:
            out.setdefault(key, np.zeros(total))[rows] = values

    def walk(tens: np.ndarray, rows: np.ndarray, start: int, outcomes: tuple[str, ...], weight):
        for index in range(start, len(steps)):
            step = steps[index]
            if isinstance(step, Gate):
                matrix = step.matrix if step.matrix.ndim == 2 else step.matrix[rows]
                tens = apply_unitaries(tens, step.wires, matrix)
                continue
            measure = step if len(rows) == total else step.on_rows(rows)
            last = index + 1 == len(steps)
            if last:  # no later step reads the post states
                probs = probabilities(qcore.spin_first(tens, step.wire), measure)
            else:
                probs, posts = branches(tens, measure)
            weights = weight * probs
            for k, outcome in enumerate(step.outcomes):
                if fixed.get(step.label, outcome) != outcome:
                    continue
                key = outcomes + (outcome,)
                live = probs[k] > 0.0
                alive = np.count_nonzero(live)
                if alive < len(rows):
                    put(key, rows, np.where(live, 0.0, np.nan))
                    if not alive:
                        continue
                on = slice(None) if alive == len(rows) else live
                if last:
                    put(key, rows[on], weights[k][on])
                else:
                    walk(posts[k][on], rows[on], index + 1, key, weights[k][on])
            return
        put(outcomes, rows, weight)

    walk(tens, np.arange(total), 0, (), np.ones(total))
    return out


def mass(distribution: Mapping[tuple[str, ...], np.ndarray], *prefix: str) -> np.ndarray:
    """Clamped (N,) probability of the sequences that start with
    ``prefix``; a row that ended counts 0."""
    total = 0.0
    for key, p in distribution.items():
        if key[: len(prefix)] == prefix:
            total = total + np.fmax(p, 0.0)  # fmax reads NaN, an ended row, as 0
    return np.minimum(np.maximum(total, 0.0), 1.0)


def evaluate_full(circuit: Circuit, query: Mapping[str, str] | None) -> EvalResult:
    """Exact bracket probability of the queried outcome assignment (a
    batch of one of the walk); measurements the query does not mention
    are summed over.  A queried branch of zero probability is listed in
    ``undefined_labels``, once per branch that reaches it, in step order."""
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
    distribution = outcome_distribution(circuit.initial.as_tensor()[None], circuit.steps, wanted)
    ended = sorted((key for key, p in distribution.items() if math.isnan(p[0])), key=len)
    undefined = tuple(labels[len(key) - 1] for key in ended if labels[len(key) - 1] in wanted)
    return EvalResult(float(mass(distribution)[0]), undefined)


def evaluate(circuit: Circuit, query: Mapping[str, str] | None) -> float:
    return evaluate_full(circuit, query).probability
