"""The seven bracket identities that encode the five assumptions behind
the harness, each defined once as the ground-truth brackets it evaluates,
from the walk of ``circuits``, plus the comparison it makes.

The comparison reads the brackets through a rule: the derivation suite
uses the default, ``BornRule`` (the squared-amplitude rule), and the
counterexample battery the alternative rules, each reading whole arrays
of brackets at once.  ``check_identity_states`` checks six identities on
one instance and ``check_identity_a5_decomposition`` the seventh, both
under the squared-amplitude rule; ``sweep_identities`` checks all seven
on random instances for both, in one batch whatever the detectors'
families.  A rule reads the brackets ``p`` of N instances elementwise,
with each instance's draw ``x``: ``compared`` for a bracket compared
with a single other bracket, ``combined`` for one that enters a sum or a
product.  ``draw(rng)`` takes one instance's draw from the sweep's stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import circuits, detectors as _det, qcore
from .circuits import SG_OUTCOMES, Circuit, Gate, Measure, branches, mass, probabilities
from .detectors import Detector
from .qcore import StateVector, DEFAULT_TOL
from .reporting import VerificationReport

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


def check_states(probe, single, ancilla, psi, env_unitary, pair, sg_outcome, rule, x):
    """``check_identity_states`` on N rows at once, read through ``rule``
    with the draws ``x``: ``single``, ``ancilla`` and ``pair`` are
    (N, *factor_dims) tensors, ``psi`` N tensors, the rest N values each,
    except ``probe``, the ``Measure`` "m" of wire 0 by one detector, None,
    or a ``ModelStacks``.  Each distinct circuit is walked once, the ``psi``
    circuits once per shape.  Returns the (6, N) deviations of the six
    identities, in ``IDENTITY_NAMES`` order, and the brackets read."""
    rows = len(single)
    click, no_click = probe.outcomes

    def bracket(tens, steps=(probe,)) -> np.ndarray:
        return mass(circuits.outcome_distribution(tens, steps, {"m": click}))

    b = {"lhs": bracket(single)}
    # Products and recorded posts of valid rows are valid by construction.
    outer = (ancilla.reshape(rows, -1, 1) * single.reshape(rows, 1, -1)).reshape(ancilla.shape + single.shape[1:])
    b["rhs"] = bracket(outer, (Measure(ancilla.ndim - 1, "m", probe.detector),))
    b["click"], b["no_click"], b["later"], b["before"] = np.zeros((4, rows))
    for shape in {state.shape for state in psi}:
        index = [i for i, state in enumerate(psi) if state.shape == shape]
        tens = np.array([psi[i] for i in index])
        probe_rows = probe.on_rows(index)
        gate = Gate((1,), np.stack([env_unitary[i] for i in index]))
        measured = circuits.outcome_distribution(tens, (probe_rows,))
        b["click"][index], b["no_click"][index] = mass(measured, click), mass(measured, no_click)
        b["later"][index] = bracket(tens, (probe_rows, gate))
        b["before"][index] = bracket(tens, (gate, probe_rows))
    b["alone"] = bracket(pair)
    both = circuits.outcome_distribution(pair, (Measure(1, "s"), probe), {"m": click})
    b["unread"], b["joint_up"], b["joint_down"] = mass(both), mass(both, "u"), mass(both, "d")
    chosen = (np.asarray(sg_outcome) == "d") * 1  # the index of each outcome in SG_OUTCOMES
    probs, posts = branches(pair, Measure(1, "s"))
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
    deviations, b = check_states(probe, *batch[:2], [psi.as_tensor()], [env_unitary], batch[2], [sg_outcome], BORN, 0.0)
    psi_dims, pair_dims = f"dims={psi.factor_dims}", f"dims={pair.factor_dims}"
    inputs = (f"dims={single.factor_dims}+{ancilla.factor_dims}", psi_dims,
              f"{pair_dims} a={sg_outcome}", psi_dims, psi_dims, pair_dims)
    return [
        VerificationReport.from_deviation(
            f"identity:{name}", shown, deviation, tolerance, tuple((k, float(b[k][0])) for k in keys)
        )
        for name, shown, deviation, keys in zip(IDENTITY_NAMES, inputs, deviations[:, 0], _DETAILS)
    ]


def check_a5(lam, probe, unitaries, rule, x) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``check_identity_a5_decomposition`` on N rows at once, read through
    ``rule``: ``lam`` and ``x`` hold N values, ``probe`` is the ``Measure``
    "m" of wire 0, and each of ``unitaries`` is a 2x2 matrix or an (N, 2, 2)
    stack.  Returns the (N,) deviations and the (N,) arrays of the brackets
    read."""
    steps = tuple(Gate((0,), u) for u in unitaries) + (probe,)

    def click(tens) -> np.ndarray:
        return mass(circuits.outcome_distribution(tens, steps, {"m": "click"}))

    pairs = qcore.spin_pair_states(lam).reshape(-1, 2, 2)
    b = {"lhs": click(pairs), "a_lambda": probabilities(qcore.spin_first(pairs, 1), Measure(1, "s"))[0]}
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
    deviation, b = check_a5([lam], probe, unitaries, BORN, 0.0)
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
    probe = Measure(0, "m", _det.ModelStacks.of(dets))  # one ModelStacks for the whole sweep
    deviations, b = check_states(probe, single, ancilla, psi, u_env, pair, sg_outcome, rule, x)
    deviations = np.vstack([deviations, check_a5(lam, probe, (np.stack(u_spin),), rule, x)[0]])
    worst = dict(zip(IDENTITY_NAMES, deviations.max(axis=1).tolist()))
    worst_instance = dict(zip(IDENTITY_NAMES, deviations.argmax(axis=1).tolist()))
    born_deviation = float(np.max(np.abs(rule.compared(b["lhs"], x) - b["lhs"])))
    return worst, worst_instance, born_deviation
