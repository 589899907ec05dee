"""The seven bracket identities that encode the five assumptions behind
the harness, each defined once as the ground-truth brackets it evaluates,
from the walk of ``circuits``, plus the comparison it makes.

The comparison reads the brackets through a rule: the derivation suite
uses the default, ``BornRule`` (the squared-amplitude rule), and the
counterexample battery the alternative rules, each reading whole arrays
of brackets at once.  ``check_states`` checks six identities on N
instances and ``check_a5`` the seventh; ``sweep_identities`` checks all
seven on random instances for both, in one batch whatever the detectors'
families.  None of them builds a report: ``derivation`` and
``counterexamples`` do.  A rule reads the brackets ``p`` of N instances
elementwise, with each instance's draw ``x``: ``compared`` for a bracket
compared with a single other bracket, ``combined`` for one that enters a
sum or a product.  ``draw(rng)`` takes one instance's draw from the
sweep's stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuits, detectors as _det, qcore
from .circuits import SG_OUTCOMES, Gate, Measure, branches, mass, probabilities

# The seven bracket identities, in the order of the checks' deviation rows;
# the reports name each one "identity:<name>".
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


def check_states(probe, single, ancilla, psi, env_unitary, pair, sg_outcome, rule, x):
    """The six state identities on N rows at once, read through ``rule``
    with the draws ``x``: ``single``, ``ancilla`` and ``pair`` are
    (N, *factor_dims) tensors, ``psi`` N tensors, the rest N values each,
    except ``probe``, the ``Measure`` "m" of wire 0 by one detector, None
    (the reference apparatus), or a ``ModelStacks``.  Every bracket asks
    the probe for its first outcome, the click:
      - a1-extension: ``single`` alone, and with ``ancilla`` prepended;
      - normalization: the click and no-click brackets of ``psi`` sum to 1;
      - multiplication (the classical product and sum rules): on ``pair``,
        the joint bracket of ``sg_outcome`` on wire 1 and a click is the
        marginal times the click on the recorded post state, and the
        bracket with wire 1 measured but unread is the sum of both joints;
      - causality, nosignal-unitary: ``env_unitary`` on wire 1 of ``psi``,
        after or before the measurement, leaves the click unchanged;
      - nosignal-measure: that unread measurement leaves the click
        unchanged.
    Nothing checks the circuits, so the rows must be valid.  Each
    distinct circuit is walked once, the ``psi`` circuits once per shape.
    Returns the (6, N) deviations of the six identities, in
    ``IDENTITY_NAMES`` order, and the brackets read."""
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


def check_a5(lam, probe, unitaries, rule, x) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The decomposition identity on N rows at once, read through
    ``rule``: the correlated-pair bracket splits into reference-branch-
    weighted conditionals on the collapsed single-spin states.  ``lam``
    and ``x`` hold N values, ``probe`` is the ``Measure`` "m" of wire 0,
    and each of ``unitaries``, applied to spin 0 before the probe, is a 2x2
    matrix or an (N, 2, 2) stack.  Returns the (N,) deviations and the
    (N,) arrays of the brackets read."""
    steps = tuple(Gate((0,), u) for u in unitaries) + (probe,)

    def click(tens) -> np.ndarray:
        return mass(circuits.outcome_distribution(tens, steps, {"m": "click"}))

    pairs = qcore.spin_pair_states(lam).reshape(-1, 2, 2)
    a_up, a_down = probabilities(qcore.spin_first(pairs, 1), Measure(1, "s"))  # both reference branch weights
    b = {"lhs": click(pairs), "a_lambda": a_up}
    b["up"], b["down"] = (click(np.tile(v, (len(lam), 1))) for v in (qcore.UP, qcore.DOWN))
    s = lambda p: rule.combined(p, x)
    return np.abs(s(b["lhs"]) - (s(a_up) * s(b["up"]) + s(a_down) * s(b["down"]))), b


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
