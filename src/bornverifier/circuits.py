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
initial states as one (N, *factor_dims) tensor, with per-row gates and
detectors; a ``Circuit`` is one state, checked, and a batch of one.

The seven bracket identities that encode the five assumptions behind
the harness are defined here once, each as the ground-truth brackets it
evaluates plus the comparison it makes.  The comparison reads the
brackets through a rule: the derivation suite uses the default,
``BornRule`` (the squared-amplitude rule), and the counterexample battery
the alternative rules, each reading whole arrays of brackets at once.
``check_identity_states`` checks six identities on one instance and
``check_identity_a5_decomposition`` the seventh, both under the
squared-amplitude rule; ``sweep_identities`` checks all seven on random
instances for both, in one batch whatever the detectors' families.
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
from .qcore import StateVector, DEFAULT_TOL, ZERO_BRANCH
from .reporting import VerificationReport

SG_OUTCOMES = ("u", "d")
DETECTOR_OUTCOMES = ("click", "noclick")
# The reference apparatus's projectors on up and down, shaped to act on
# the (N, 2, rest) spin-first amplitudes of both branches at once.
_PROJECTORS = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)[:, None]
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
    Stern-Gerlach apparatus, otherwise a black-box click detector, or a
    sequence of N detectors of any families, one per row of a batched
    walk."""

    wire: int
    label: str
    detector: Detector | Sequence[Detector] | None = None

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
        if "_picked_from" in self.__dict__:  # rows or a wire of another measurement
            source, index = self.__dict__["_picked_from"]
            return source.kraus[:, index]
        return _det.kraus_pairs(self.detector if _per_row(self.detector) else [self.detector])

    @cached_property
    def models(self) -> _det.ModelStacks:
        """A detector sequence's ``ModelStacks``, built once per measurement."""
        return _det.ModelStacks.of(self.detector)

    def on_rows(self, index: Sequence[int]) -> "Measure":
        """This measurement on the listed rows of its batch: a detector
        sequence and its model stacks are picked row by row, and so is its
        Kraus stack, once some step needs it."""
        if not _per_row(self.detector):
            return self
        picked = Measure(self.wire, self.label, [self.detector[i] for i in index])
        picked.__dict__.update(models=self.models.on_rows(index), _picked_from=(self, index))
        return picked

    def on_wire(self, wire: int) -> "Measure":
        """This measurement of another wire, sharing its model stacks, and
        its Kraus stack once some step needs it."""
        moved = Measure(wire, self.label, self.detector)
        if _per_row(self.detector):
            moved.__dict__.update(models=self.models, _picked_from=(self, slice(None)))
        return moved


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
                if _per_row(step.detector):
                    raise TypeError("a circuit's measurement takes one detector, not a detector sequence")
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


def _per_row(detector) -> bool:
    """Whether a measurement's ``detector`` is a sequence, one per row."""
    return not (detector is None or isinstance(detector, Detector))


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


def _spin_first(tens: np.ndarray, wire: int) -> np.ndarray:
    """The (N, 2, rest) amplitudes of N stacked states, an (N,
    *factor_dims) tensor, with spin ``wire`` first: a view."""
    return _to_front(tens, (wire + 1,))[0].reshape(len(tens), 2, -1)


def _probabilities(amps: np.ndarray, measure: Measure) -> np.ndarray:
    """The (2, N) probabilities of both outcomes of one measurement of N
    states, given by their ``_spin_first`` amplitudes: 0 where a branch
    has zero probability.  The reference apparatus's are the squared
    norms of the projected components; a detector's come from its oracle,
    which never reads ``measure.kraus``."""
    if measure.detector is None:
        raw = _squared_norms(_PROJECTORS @ amps)
    else:
        detector = measure.detector
        click = _det.click_probabilities(measure.models if _per_row(detector) else detector, amps)
        raw = np.array([click, 1.0 - click])
    return np.where(raw > ZERO_BRANCH, np.minimum(raw, 1.0), 0.0)


def _squared_norms(branches: np.ndarray) -> np.ndarray:
    """The (2, N) squared norms of (2, N, 2, rest) branches, summed as
    numpy's one-dimensional vdot sums them, so that a row's value does not
    depend on the batch it is in."""
    flat = branches.reshape(2, branches.shape[1], -1)
    return (flat.conj()[..., None, :] @ flat[..., :, None])[..., 0, 0].real


def _branches(tens: np.ndarray, measure: Measure) -> tuple[np.ndarray, np.ndarray]:
    """Both outcome branches of one measurement of N stacked states: the
    ``_probabilities`` of the two outcomes, and their (2, N, *factor_dims)
    post tensors, each divided by its own norm (arbitrary on the rows of a
    zero branch).

    The reference apparatus (no detector) projects the measured spin on
    up and down.  A detector's branches come from ``measure.kraus``, the
    principal square roots of the ground-truth effect: probabilities of
    later steps never depend on that choice, it only keeps mid-circuit
    evaluation well defined."""
    moved, back = _to_front(tens, (measure.wire + 1,))
    amps = moved.reshape(len(tens), 2, -1)
    probs = _probabilities(amps, measure)
    branches = measure.kraus @ amps
    scale = np.sqrt(np.where(probs > 0.0, _squared_norms(branches), 1.0))
    # Contiguous, so that later reductions sum in the state's own order.
    posts = branches.reshape((2,) + moved.shape).transpose([0] + [i + 1 for i in back])
    return probs, np.ascontiguousarray(posts) / scale.reshape(scale.shape + (1,) * (tens.ndim - 1))


def _records(psi: StateVector, measure: Measure) -> list[MeasurementRecord]:
    """The records of one measured state: a batch of one of the walk's
    measurement."""
    qcore._check_spin_factor(psi, measure.wire)
    probs, posts = _branches(psi.as_tensor()[None], measure)
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
                probs = _probabilities(_spin_first(tens, step.wire), measure)
            else:
                probs, posts = _branches(tens, measure)
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


def _mass(distribution: Mapping[tuple[str, ...], np.ndarray], *prefix: str) -> np.ndarray:
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
    return EvalResult(float(_mass(distribution)[0]), undefined)


def evaluate(circuit: Circuit, query: Mapping[str, str] | None) -> float:
    return evaluate_full(circuit, query).probability


# ---------------------------------------------------------------------------
# Bracket identities: exact ground-truth brackets, read through a rule.
# A rule reads the brackets ``p`` of N instances elementwise, with each
# instance's draw ``x``: ``compared`` for a bracket compared with a single
# other bracket, ``combined`` for one that enters a sum or a product.
# ``draw(rng)`` takes one instance's draw from the sweep's stream.


@dataclass(frozen=True)
class BornRule:
    """The squared-amplitude rule: both readings are the exact bracket,
    and it draws nothing."""

    name: str = "born"

    def draw(self, rng) -> float:
        return 0.0

    def compared(self, p: np.ndarray, x: np.ndarray) -> np.ndarray:
        return p

    combined = compared


BORN = BornRule()


# The brackets each state identity reports, in ``IDENTITY_NAMES`` order.
_DETAILS = (
    ("lhs", "rhs"),
    ("click", "no_click"),
    ("joint_up", "joint_down", "unread", "marginal", "conditional"),
    ("click", "later"),
    ("click", "before"),
    ("alone", "unread"),
)


def _check_states(probe, single, ancilla, psi, env_unitary, pair, sg_outcome, rule, x):
    """``check_identity_states`` on N rows at once, read through ``rule``
    with the draws ``x``: ``single``, ``ancilla`` and ``pair`` are
    (N, *factor_dims) tensors, ``psi`` N tensors, the rest N values each,
    except ``probe``, the ``Measure`` "m" of wire 0 by one detector, None,
    or one per row.  Each distinct circuit is walked once, the ``psi``
    circuits once per shape.  Returns the (6, N) deviations of the six
    identities, in ``IDENTITY_NAMES`` order, and the brackets read."""
    rows = len(single)
    click, no_click = probe.outcomes

    def bracket(tens, steps=(probe,)) -> np.ndarray:
        return _mass(outcome_distribution(tens, steps, {"m": click}))

    b = {"lhs": bracket(single)}
    # Products and recorded posts of valid rows are valid by construction.
    outer = ancilla.reshape(rows, -1, 1) * single.reshape(rows, 1, -1)
    b["rhs"] = bracket(outer.reshape(ancilla.shape + single.shape[1:]), (probe.on_wire(ancilla.ndim - 1),))
    b["click"], b["no_click"], b["later"], b["before"] = np.zeros((4, rows))
    for shape in {state.shape for state in psi}:
        index = [i for i, state in enumerate(psi) if state.shape == shape]
        tens = np.array([psi[i] for i in index])
        probe_rows = probe.on_rows(index)
        gate = Gate((1,), np.stack([env_unitary[i] for i in index]))
        measured = outcome_distribution(tens, (probe_rows,))
        b["click"][index], b["no_click"][index] = _mass(measured, click), _mass(measured, no_click)
        b["later"][index] = bracket(tens, (probe_rows, gate))
        b["before"][index] = bracket(tens, (gate, probe_rows))
    b["alone"] = bracket(pair)
    both = outcome_distribution(pair, (Measure(1, "s"), probe), {"m": click})
    b["unread"], b["joint_up"], b["joint_down"] = _mass(both), _mass(both, "u"), _mass(both, "d")
    chosen = (np.asarray(sg_outcome) == "d") * 1  # the index of each outcome in SG_OUTCOMES
    probs, posts = _branches(pair, Measure(1, "s"))
    b["marginal"], b["conditional"] = probs[chosen, np.arange(rows)], np.zeros(rows)
    live = np.flatnonzero(b["marginal"])
    if live.size:
        b["conditional"][live] = bracket(posts[chosen[live], live], (probe.on_rows(live),))

    c, s = (lambda k: rule.compared(b[k], x)), (lambda k: rule.combined(b[k], x))
    product = np.abs(np.where(chosen, s("joint_down"), s("joint_up")) - s("marginal") * s("conditional"))
    additivity = np.abs(s("unread") - (s("joint_up") + s("joint_down")))
    return np.abs([
        c("lhs") - c("rhs"),
        s("click") + s("no_click") - 1.0,
        np.maximum(product, additivity),
        c("click") - c("later"),
        c("click") - c("before"),
        c("alone") - c("unread"),
    ]), b


def check_identity_states(
    det: Detector | None,
    single: StateVector,
    ancilla: StateVector,
    psi: StateVector,
    env_unitary: np.ndarray,
    pair: StateVector,
    sg_outcome: str,
    tolerance: float = DEFAULT_TOL,
) -> list[VerificationReport]:
    """The six state identities on one instance, in ``IDENTITY_NAMES``
    order, under the squared-amplitude rule, evaluating each distinct
    bracket once.

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
    if sg_outcome not in SG_OUTCOMES:
        raise ValueError(f"sg_outcome must be one of {SG_OUTCOMES}, got {sg_outcome!r}")
    probe = Measure(0, "m", det)
    for state, steps in ((single, (probe,)), (psi, (Gate((1,), env_unitary), probe)), (pair, (Measure(1, "s"), probe))):
        Circuit(state, steps)  # the checks that the batched walk skips
    batch = [state.as_tensor()[None] for state in (single, ancilla, pair)]
    deviations, b = _check_states(probe, *batch[:2], [psi.as_tensor()], [env_unitary], batch[2], [sg_outcome], BORN, 0.0)
    psi_dims, pair_dims = f"dims={psi.factor_dims}", f"dims={pair.factor_dims}"
    inputs = (f"dims={single.factor_dims}+{ancilla.factor_dims}", psi_dims,
              f"{pair_dims} a={sg_outcome}", psi_dims, psi_dims, pair_dims)
    return [
        VerificationReport.from_deviation(
            f"identity:{name}", shown, deviation, tolerance, tuple((k, float(b[k][0])) for k in keys)
        )
        for name, shown, deviation, keys in zip(IDENTITY_NAMES, inputs, deviations[:, 0], _DETAILS)
    ]


def _check_a5(lam, probe, unitaries, rule, x) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``check_identity_a5_decomposition`` on N rows at once, read through
    ``rule``: ``lam`` and ``x`` hold N values, ``probe`` is the ``Measure``
    "m" of wire 0, and each of ``unitaries`` is a 2x2 matrix or an (N, 2, 2)
    stack.  Returns the (N,) deviations and the (N,) arrays of the brackets
    read."""
    steps = tuple(Gate((0,), u) for u in unitaries) + (probe,)

    def click(tens) -> np.ndarray:
        return _mass(outcome_distribution(tens, steps, {"m": "click"}))

    pairs = qcore.spin_pair_states(lam).reshape(-1, 2, 2)
    b = {"lhs": click(pairs), "a_lambda": _probabilities(_spin_first(pairs, 1), Measure(1, "s"))[0]}
    b["up"], b["down"] = (click(np.tile(v, (len(lam), 1))) for v in (qcore.UP, qcore.DOWN))
    s, a = (lambda p: rule.combined(p, x)), b["a_lambda"]
    return np.abs(s(b["lhs"]) - (s(a) * s(b["up"]) + s(1.0 - a) * s(b["down"]))), b


def check_identity_a5_decomposition(
    lam: float,
    det: Detector,
    unitaries: Sequence[np.ndarray] = (),
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """The correlated-pair bracket splits into reference-branch-weighted
    conditionals on the collapsed single-spin states, under the
    squared-amplitude rule.  Each bracket applies the 2x2 ``unitaries``
    to spin 0 and then asks ``det`` for a click on it."""
    probe = Measure(0, "m", det)
    Circuit(qcore.spin_pair_state(lam), (*(Gate((0,), u) for u in unitaries), probe))  # the checks the batch skips
    deviation, b = _check_a5([lam], probe, unitaries, BORN, 0.0)
    details = tuple((k, float(v[0])) for k, v in b.items())
    return VerificationReport.from_deviation(
        "identity:a5-decomposition", f"lambda={lam}", deviation[0], tolerance, details
    )


def sweep_identities(rng, instances: int, rule=BORN) -> tuple[dict[str, float], dict[str, int], float]:
    """The seven identities on ``instances`` random instances from ``rng``.

    Each instance draws the raw numbers of a random detector, states and
    unitaries, and ``rule.draw(rng)``, in this stream order; then all are
    built in stacks of equal shape, and all instances are checked as one
    batch, read through ``rule``: the six state identities, and the
    decomposition at each instance's random weight.  Returns the worst
    deviation of each identity, the index of the instance that reached
    it (the first, on a tie), and ``born_deviation``: the worst distance
    between the reading of the single-spin click and the click itself."""
    if instances < 1:
        raise ValueError("instances must be >= 1")
    det_draws, state_draws, unitary_draws, rest = [], [], [], []
    for _ in range(instances):
        det_draws.append(_det.draw_detector(rng))
        env = (2, 3, 4)[rng.integers(3)]  # the stream of rng.choice, without its overhead
        for dims in ((2, env), (2, 2), (2,), (2,)):  # psi, pair, single, ancilla
            state_draws.append((dims, rng.standard_normal((2, math.prod(dims)))))
        sg_outcome = SG_OUTCOMES[rng.integers(2)]
        unitary_draws += [rng.standard_normal((2, d, d)) for d in (env, 2)]  # u_env, u_spin
        rest.append((sg_outcome, float(rng.uniform()), rule.draw(rng)))
    dets = _det.build_detectors(det_draws)
    states, unitaries = qcore.build_states(state_draws), qcore.build_unitaries(unitary_draws)
    psi = [row.reshape(dims) for row, (dims, _) in zip(states[::4], state_draws[::4])]
    pair, single, ancilla = np.array(states[1::4]).reshape(-1, 2, 2), np.array(states[2::4]), np.array(states[3::4])
    u_env, u_spin = unitaries[::2], unitaries[1::2]
    sg_outcome, lam, x = map(np.array, zip(*rest))
    probe = Measure(0, "m", dets)  # one Kraus stack and one ModelStacks for the whole sweep
    deviations, b = _check_states(probe, single, ancilla, psi, u_env, pair, sg_outcome, rule, x)
    deviations = np.vstack([deviations, _check_a5(lam, probe, (np.stack(u_spin),), rule, x)[0]])
    worst = dict(zip(IDENTITY_NAMES, deviations.max(axis=1).tolist()))
    worst_instance = dict(zip(IDENTITY_NAMES, deviations.argmax(axis=1).tolist()))
    born_deviation = float(np.max(np.abs(rule.compared(b["lhs"], x) - b["lhs"])))
    return worst, worst_instance, born_deviation
