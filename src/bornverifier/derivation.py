"""Executable replays of the linearity derivation.

Each verifier rebuilds one lemma or theorem numerically against exact
ground truth and reports the worst deviation found.  ``STEPS`` is the
paper's chain as a table of them, and ``run_full_suite`` runs its steps;
given the same seed it is fully deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import SeedSequence

from . import circuits, coordinate, detectors as _det, identities, qcore
from .detectors import Detector
from .qcore import DEFAULT_TOL, DEGENERACY_TOL, FLAT_SEGMENT_THRESHOLD, BlochVector
from .reporting import VerificationReport, merge_reports

DEFAULT_SEED = 42
DEFAULT_DYADIC_DEPTH = 20
# The deepest dyadic profile: 2.0**depth overflows a double above it.
MAX_DYADIC_DEPTH = 1023

# Exhaustive dyadic sweeps above this depth would need millions of
# probes per segment; beyond it the bound is checked on sampled points.
_EXHAUSTIVE_DYADIC_DEPTH = 10
_ENV_DIM = 4
# Theorem 1's fixed probes, the six poles of the Bloch ball.
_POLES = np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], dtype=float)


@dataclass(frozen=True)
class DyadicProfile:
    """Samples (x, f(x), 2^-depth) of the normalized response along a
    segment, witnessing the dyadic pinning of f(x) = x."""

    depth: int
    samples: tuple[tuple[float, float, float], ...]


def verify_envariance(
    det: Detector,
    trials: int = 200,
    seed: int = DEFAULT_SEED,
    tolerance: float = DEFAULT_TOL,
    name: str = "envariance",
) -> VerificationReport:
    """Environment-assisted invariance: two states sharing Schmidt data
    have equal click probability, and the constructed environment
    unitary maps one onto the other."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = qcore.as_rng(seed)
    # The loop only draws; trial 0 is the exact-equality case, trial 1 has c2 = 0.
    thetas, zs, sources, targets = [math.pi / 4, 0.0][:trials], [], [], []
    for trial in range(trials):
        if trial > 1:
            thetas.append(rng.uniform(0.0, math.pi / 2))
        zs.append(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        sources.append(rng.standard_normal((2, _ENV_DIM, _ENV_DIM)))
        if trial:  # trial 0 maps the source pair onto itself
            targets.append(rng.standard_normal((2, _ENV_DIM, _ENV_DIM)))
    a1 = qcore.fix_global_phase(np.array(zs) / np.linalg.norm(zs, axis=1, keepdims=True))
    # The environment pairs b1, b2: the first two columns of Haar unitaries.
    sources, targets = (
        qcore.haar_unitaries(np.array(g))[:, :, :2] for g in (sources, sources[:1] + targets)
    )
    # psi' and psi'', c1 |a1>|b1> + c2 |a2>|b2> over the source and the
    # target environment pairs: two (trials, 2, env) stacks, each row
    # normalized and checked as ``StateVector.from_amplitudes`` would.
    c = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)[:, :, None, None]
    a = np.stack([a1, np.stack([-a1[:, 1].conj(), a1[:, 0].conj()], axis=1)], axis=1)[..., None]
    terms = [c * (a * b.transpose(0, 2, 1)[:, :, None, :]) for b in (sources, targets)]
    amps = np.array([t[:, 0] + t[:, 1] for t in terms])
    norms = np.linalg.norm(amps, axis=(2, 3), keepdims=True)
    amps = amps / np.where(norms > 0.0, norms, np.nan)
    for states in amps:
        qcore.checked_rows((2, _ENV_DIM), states.reshape(trials, -1))
    clicks = [_det.click_probabilities(det, states) for states in amps]
    worst_prob = float(np.max(np.abs(clicks[0] - clicks[1])))
    unitaries = qcore.envariance_unitaries(sources, targets)
    mapped = circuits.apply_unitaries(amps[0], (1,), unitaries)
    residuals = np.linalg.norm(mapped - amps[1], axis=(1, 2))
    worst_map = float(np.max(residuals))
    details = (("probability_deviation", worst_prob), ("mapping_residual", worst_map))
    return VerificationReport.from_deviation(
        name, f"trials={trials} env_dim={_ENV_DIM}", max(worst_prob, worst_map), tolerance, details)


def verify_lemma1(
    det: Detector,
    p0: BlochVector,
    p1: BlochVector,
    lam: float,
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """Convexity along segments, replayed through the four-spin
    construction (a batch of one of ``_lemma1``).

    (a) the four-spin state carries the interpolated polarization,
    (b) the relabelling unitary maps it onto |uu> (x) the correlated
        pair,
    (c) the interpolated response equals the branch-weighted mixture of
        the endpoint responses,
    (d) the interpolated response lies between the endpoint values.
    """
    worst, details = _lemma1([(det, p0, p1, lam)])
    shown = tuple((key, float(values[0])) for key, values in details.items())
    return VerificationReport.from_deviation("lemma1", f"lambda={lam:.6g}", worst[0], tolerance, shown)


def _lemma1(instances) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``verify_lemma1`` on N (det, p0, p1, lam) instances at once: the
    states and the relabelling unitaries are built in stacks, and the
    oracle is asked twice, for the ends and midpoints of every segment
    and for every four-spin state, each detector on its own rows; every
    pair's up and down weights come from one reference measurement.
    Returns the (N,) deviations and the (N,) arrays of their details."""
    dets, p0, p1, lams = zip(*instances)
    n = len(instances)
    pairs = qcore.spin_pair_states(lams).reshape(n, 2, 2)
    lam = np.array(lams)[:, None]
    c0, c1 = np.sqrt(1.0 - lam), np.sqrt(lam)
    ends = np.array([(a.as_array(), b.as_array()) for a, b in zip(p0, p1)])
    mids = (1.0 - lam) * ends[:, 0] + lam * ends[:, 1]
    psi0, psi1 = qcore.purify_batch(ends.reshape(-1, 3)).reshape(n, 2, 4).transpose(1, 0, 2)

    # The four-spin state sqrt(1-lam) |psi0>|uu> + sqrt(lam) |psi1>|dd>.
    amps = np.zeros((n, 4, 4), dtype=complex)
    amps[:, :, 0], amps[:, :, 3] = c0 * psi0, c1 * psi1
    amps = amps.reshape(n, 16)
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    qcore.checked_rows((2,) * 4, amps)

    # The relabelling maps |psi0>|u> and |psi1>|d> on spins 0-2 onto
    # |uuu> and |uud>.
    sources = np.zeros((n, 4, 2, 2), dtype=complex)
    sources[:, :, 0, 0], sources[:, :, 1, 1] = psi0, psi1
    targets = np.broadcast_to(np.eye(8)[:, :2], (n, 8, 2))
    relabel = qcore.envariance_unitaries(sources.reshape(n, 8, 2), targets)
    relabelled = circuits.apply_unitaries(amps.reshape(n, 2, 2, 2, 2), (0, 1, 2), relabel)
    expected = np.zeros((n, 16))
    expected[:, 0], expected[:, 3] = c0[:, 0], c1[:, 0]

    points = np.concatenate([ends, mids[:, None]], axis=1).reshape(3 * n, 3)
    models = _det.ModelStacks.of(dets)
    f0, f1, f_mid = _det.probe_fclick(models.on_rows(np.repeat(np.arange(n), 3)), points).reshape(n, 3).T
    f_big = _det.click_probabilities(models, amps.reshape(n, 2, 8))
    a_lam, a_down = circuits.probabilities(qcore.spin_first(pairs, 1), circuits.Measure(1, "s"))  # "u", "d"
    low, high = np.minimum(f0, f1), np.maximum(f0, f1)
    details = {
        "polarization_deviation": np.abs(qcore.bloch_polarizations(amps.reshape(n, 2, 8)) - mids).max(1),
        "relabelling_residual": np.linalg.norm(relabelled.reshape(n, 16) - expected, axis=1),
        "mixture_deviation": np.abs(f_mid - (a_lam * f0 + a_down * f1)),
        "four_spin_probe_deviation": np.abs(f_big - f_mid),
        "betweenness_violation": np.maximum(low - f_mid, f_mid - high).clip(0.0),
    }
    return np.max(list(details.values()), axis=0), details | {"a_lambda": a_lam}


def verify_lemma2(
    det: Detector,
    p0: BlochVector,
    p1: BlochVector,
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """Midpoint identity, plus the balanced-pair branch weight 1/2 (a
    batch of one of ``_lemma2``)."""
    worst, details = _lemma2([(det, p0, p1)])
    shown = tuple((key, float(values[0])) for key, values in details.items())
    return VerificationReport.from_deviation("lemma2", "midpoint", worst[0], tolerance, shown)


def _lemma2(instances) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``verify_lemma2`` on N (det, p0, p1, ...) instances at once: every
    midpoint and end is probed in one call, and the balanced weight is
    measured once.  Returns the (N,) deviations and their details."""
    dets, p0, p1 = list(zip(*instances))[:3]
    ends = np.array([(a.as_array(), b.as_array()) for a, b in zip(p0, p1)])
    points = np.concatenate([0.5 * (ends[:, :1] + ends[:, 1:]), ends], axis=1).reshape(-1, 3)
    models = _det.ModelStacks.of(dets).on_rows(np.repeat(np.arange(len(dets)), 3))
    f_mid, f0, f1 = _det.probe_fclick(models, points).reshape(-1, 3).T
    a_half = circuits.sg_measure(qcore.bell_state(), 1)[0].probability  # outcome "u"
    dev_mid = np.abs(f_mid - 0.5 * (f0 + f1))
    details = {"midpoint_deviation": dev_mid, "balanced_weight": np.full(len(dets), a_half)}
    return np.maximum(dev_mid, abs(a_half - 0.5)), details


def verify_lemma3_dyadic(
    det: Detector,
    p0: BlochVector,
    p1: BlochVector,
    depth: int = DEFAULT_DYADIC_DEPTH,
    seed: int = DEFAULT_SEED,
    n_random: int = 100,
    tolerance: float = DEFAULT_TOL,
) -> tuple[DyadicProfile, VerificationReport]:
    """Dyadic pinning of the normalized segment response f(x).

    Checks f at every dyadic rational up to a tractable depth, monotone
    ordering over that grid, and at random points the sandwich bound
    |f(x) - x| <= 2^-depth together with the neighbor ordering
    f(x-) <= f(x) <= f(x+) at the full depth.  Segments with equal
    endpoint responses route to the flat case, where the response must
    stay constant.
    """
    if not 1 <= depth <= MAX_DYADIC_DEPTH:
        raise ValueError(f"depth must lie in [1, {MAX_DYADIC_DEPTH}], got {depth}")
    if n_random < 0:
        raise ValueError("n_random must be >= 0")
    rng = qcore.as_rng(seed)
    a, b = p0.as_array(), p1.as_array()
    f0, f1 = _det.probe_fclick(det, np.array([a, b])).tolist()
    delta = f1 - f0

    def probe_segment(xs: np.ndarray) -> np.ndarray:
        """Oracle at the segment points (1 - x) p0 + x p1, one batch."""
        return _det.probe_fclick(det, (1.0 - xs)[:, None] * a + xs[:, None] * b)

    if abs(delta) <= FLAT_SEGMENT_THRESHOLD:
        drift = np.abs(probe_segment(np.linspace(0.0, 1.0, 65)) - f0)
        worst = max(float(np.max(drift - abs(delta))), 0.0)
        details = (("endpoint_gap", abs(delta)),)
        return DyadicProfile(depth, ()), VerificationReport.from_deviation(
            "lemma3-flat", f"|dF|={abs(delta):.3g}", worst, tolerance, details)

    def f(xs: np.ndarray) -> np.ndarray:
        return (probe_segment(xs) - f0) / delta

    sweep_depth = min(depth, _EXHAUSTIVE_DYADIC_DEPTH)
    grid = np.arange(2**sweep_depth + 1) / 2.0**sweep_depth
    values = f(grid)
    dev_dyadic = float(np.max(np.abs(values - grid)))
    dev_monotone = float(np.max(np.maximum(values[:-1] - values[1:], 0.0)))

    bound = 2.0**-depth
    xs = rng.uniform(size=n_random)
    lower = np.floor(xs * 2.0**depth) / 2.0**depth
    upper = np.minimum(lower + bound, 1.0)
    fx, f_lower, f_upper = np.split(f(np.concatenate([xs, lower, upper])), 3)
    dev_sandwich = max(
        float(np.max(np.abs(fx - xs) - bound, initial=0.0)),
        float(np.max(f_lower - fx, initial=0.0)),
        float(np.max(fx - f_upper, initial=0.0)),
    )
    profile = DyadicProfile(depth, tuple(zip(xs.tolist(), fx.tolist(), [bound] * n_random)))
    details = {"dyadic_deviation": dev_dyadic, "monotonicity_violation": dev_monotone,
               "sandwich_excess": dev_sandwich, "endpoint_gap": abs(delta)}
    return profile, VerificationReport.from_deviation(
        "lemma3-dyadic", f"depth={depth} sweep_depth={sweep_depth}",
        max(dev_dyadic, dev_monotone, dev_sandwich), tolerance, tuple(details.items()))


def verify_theorem1(
    det: Detector,
    n_points: int = 100,
    seed: int = DEFAULT_SEED,
    tolerance: float = DEFAULT_TOL,
    name: str = "theorem1",
) -> VerificationReport:
    """Affine response: tomography prediction matches the probed click
    probability across the ball, on the poles, and on mixtures (a batch
    of one of ``_theorems``)."""
    return _theorems([(det, (name, seed), None)], n_points, 0, tolerance)[0]


def verify_theorem2(
    det: Detector,
    n_states: int = 1000,
    seed: int = DEFAULT_SEED,
    tolerance: float = DEFAULT_TOL,
    name: str = "theorem2",
) -> VerificationReport:
    """Squared-amplitude rule for ideal two-outcome devices, and its
    max/min-probability generalization otherwise.

    Locates the predictable spinors from the affine response, checks
    their orthogonality and extremal probabilities, then compares the
    oracle on random pure states and mixtures against
    (Pmax - Pmin) |<phi|psi>|^2 + Pmin, which reduces to the squared
    amplitude when Pmax = 1 and Pmin = 0.  The no-click outcome, read
    from the same oracle, must satisfy the mirrored extremal relations.  A
    batch of one of ``_theorems``.
    """
    return _theorems([(det, None, (name, seed))], 0, n_states, tolerance)[0]


def _theorems(rows, n_points: int, n_states: int, tolerance: float) -> list[VerificationReport]:
    """Theorems 1 and 2 as one stacked pass over (det, theorem1, theorem2)
    ``rows``, each theorem a (report name, seed) or None.

    Each report draws from its own seed's stream in its verifier's order:
    theorem 1 its points, then its mixtures; theorem 2 its pure states,
    then its mixtures.  Both outcomes of every detector are tomographed in
    one probe, and each kind of probe goes to the oracle in one call on
    rows of one ``ModelStacks`` of the rows' detectors: theorem 1's points,
    its mixture members, and theorem 2's extremes, pure states and mixture
    members together.  Predictions and reports are made report by report."""
    if n_points < 0:
        raise ValueError("n_points must be >= 0")
    if n_states < 0:
        raise ValueError("n_states must be >= 0")
    th1, th2 = ([(k, *row[t]) for k, row in enumerate(rows) if row[t]] for t in (1, 2))
    models = _det.ModelStacks.of([det for det, _, _ in rows])
    resps, resps_down = _det.extract_affines(models)

    draws1 = []
    for _, _, seed in th1:
        rng = qcore.as_rng(seed)
        points = np.concatenate([_POLES, qcore.random_bloch_points(rng, n_points)])
        draws1.append((points, *_draw_mixtures(rng, 5, (2, 2))))
    rows1 = [k for k, _, _ in th1]
    at_points = _oracle(_det.probe_fclick, models, rows1, [d[0] for d in draws1])
    at_members = _oracle(_det.click_probabilities, models, rows1, [d[2].reshape(-1, 2, 2) for d in draws1])
    reports = []
    for (k, name, _), (points, weights, members, starts), p_clicks, m_clicks in zip(th1, draws1, at_points, at_members):
        resp = resps[k]
        dev_points = float(np.max(np.abs(p_clicks - (points @ resp.alpha + resp.beta))))
        # alpha . p + beta at each mixture's mean polarization p.
        polarizations = qcore.bloch_polarizations(members.reshape(-1, 2, 2))
        predicted = np.add.reduceat(weights[:, None] * polarizations, starts) @ resp.alpha + resp.beta
        dev_mixed = _law_gap(weights, m_clicks, starts, predicted)
        details = {"pointwise_deviation": dev_points, "mixture_deviation": dev_mixed,
                   "alpha_norm": resp.alpha_norm, "beta": resp.beta}
        reports.append(VerificationReport.from_deviation(
            name, f"points={len(points)}", max(dev_points, dev_mixed), tolerance, tuple(details.items())
        ))

    draws2 = []
    for k, _, seed in th2:
        rng = qcore.as_rng(seed)
        resp = resps[k]
        axis = resp.alpha / resp.alpha_norm if resp.alpha_norm > DEGENERACY_TOL else (0.0, 0.0, 1.0)
        _, phis = qcore.eig2x2_hermitian(qcore.density_from_bloch(BlochVector.from_array(axis)))
        draws2.append((phis.T, qcore.random_amplitudes((2,), n_states, rng), *_draw_mixtures(rng, 20, (2,))))
    probes = [np.concatenate([phis, states, members])[:, :, None] for phis, states, _, members, _ in draws2]
    at_probes = _oracle(_det.click_probabilities, models, [k for k, _, _ in th2], probes)
    for (k, name, _), (phis, states, weights, members, starts), clicks in zip(th2, draws2, at_probes):
        resp, resp_down = resps[k], resps_down[k]
        p_max, p_min = resp.beta + resp.alpha_norm, resp.beta - resp.alpha_norm
        dev_orth = float(abs(np.vdot(*phis)))
        dev_extremes = float(np.max(np.abs(clicks[:2] - [p_max, p_min])))
        ideal = abs(p_max - 1.0) <= tolerance and abs(p_min) <= tolerance
        span, bra = p_max - p_min, np.conj(phis[0])  # <phi_up|
        predicted = span * np.abs(states @ bra) ** 2 + p_min
        dev_pure = float(np.max(np.abs(clicks[2 : 2 + n_states] - predicted), initial=0.0))
        # The pure-state rule at each mixture's density matrix: its
        # members' squared overlaps with phi_up, weighted.
        predicted = span * np.add.reduceat(weights * np.abs(members @ bra) ** 2, starts) + p_min
        dev_mixed = _law_gap(weights, clicks[2 + n_states :], starts, predicted)
        dev_complement = max(
            abs((resp_down.beta + resp_down.alpha_norm) - (1.0 - p_min)),
            abs((resp_down.beta - resp_down.alpha_norm) - (1.0 - p_max)),
            float(np.max(np.abs(resp_down.alpha + resp.alpha))),
        )
        details = {"orthogonality": dev_orth, "extremal_deviation": dev_extremes, "pure_state_deviation": dev_pure,
                   "mixed_state_deviation": dev_mixed, "complement_deviation": dev_complement,
                   "p_max": p_max, "p_min": p_min}
        worst = max(dev_orth, dev_extremes, dev_pure, dev_mixed, dev_complement)
        reports.append(VerificationReport.from_deviation(
            name, f"states={n_states} ideal={ideal}", worst, tolerance, tuple(details.items())
        ))
    return reports


def _draw_mixtures(rng, count: int, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` random mixtures of states of ``dims``: each draws its
    size, its weights and its members in this stream order.  Returns the
    weights and the members of all mixtures, concatenated (the members
    normalized in one call), and the row where each mixture starts."""
    weights, gaussians = [], []
    for _ in range(count):
        k = int(rng.integers(2, 5))
        w = rng.uniform(size=k)
        weights.append(w / w.sum())
        gaussians.append(rng.standard_normal((k, 2, math.prod(dims))))  # random_amplitudes' stream
    starts = np.cumsum([0] + [len(w) for w in weights[:-1]])
    return np.concatenate(weights), qcore.normalized_amplitudes(np.concatenate(gaussians)), starts


def _law_gap(weights: np.ndarray, clicks: np.ndarray, starts: np.ndarray, predicted: np.ndarray) -> float:
    """Worst gap between each mixture's law-of-total-probability click
    chance and its prediction, mixture k starting at row ``starts[k]``."""
    return float(np.max(np.abs(np.add.reduceat(weights * clicks, starts) - predicted)))


def _oracle(probe, models: _det.ModelStacks, rows: list[int], stacks: list[np.ndarray]) -> list[np.ndarray]:
    """``probe`` (``probe_fclick`` or ``click_probabilities``) on every report's
    stack in one call, report k's on the model of row ``rows[k]``, split back."""
    if not stacks:
        return []
    sizes = [len(stack) for stack in stacks]
    values = probe(models.on_rows(np.repeat(rows, sizes)), np.concatenate(stacks))
    return np.split(values, np.cumsum(sizes)[:-1])


# The battery's named detectors in report order: each label and the maker of a fresh detector.
_NAMED_BATTERY = (
    ("effect:sg-up", _det.sg_up_detector),
    ("effect:sigma-x", lambda: _det.EffectDetector(0.5 * (qcore.IDENTITY_2 + qcore.SIGMA_X))),
    ("effect:constant-half", lambda: _det.EffectDetector(0.5 * qcore.IDENTITY_2)),
    ("effect:never", lambda: _det.EffectDetector(np.zeros((2, 2)))),
    ("effect:always", lambda: _det.EffectDetector(qcore.IDENTITY_2)),
    ("effect:noisy", lambda: _det.EffectDetector(0.8 * np.diag([1.0, 0.0]) + 0.1 * qcore.IDENTITY_2)),
    ("ancilla:cnot-up", _det.cnot_click_detector),
)


def _battery_labels(n_random: int = 4) -> list[str]:
    """The labels of ``standard_battery``'s detectors, in its order."""
    named = [label for label, _ in _NAMED_BATTERY]
    return named + [f"{family}:random-{i}" for family in ("effect", "ancilla") for i in range(n_random)]


def standard_battery(seed: int, n_random: int = 4) -> list[tuple[str, Detector]]:
    """Named detectors plus seeded random ones from both ground-truth
    families."""
    rng = qcore.as_rng(np.random.SeedSequence((seed, 0xD37)))
    named = [make() for _, make in _NAMED_BATTERY]
    draws = [_det.draw_detector(rng, family) for family in ("effect", "ancilla") for _ in range(n_random)]
    return list(zip(_battery_labels(n_random), named + _det.build_detectors(draws), strict=True))


def _segments(rng, count: int, extra) -> list[tuple]:
    """``count`` random (detector, p0, p1, ``extra(rng)``) segments, all
    drawn in this stream order before their detectors are built in one
    batch."""
    draws = [(_det.draw_detector(rng), qcore.random_bloch(rng), qcore.random_bloch(rng), extra(rng))
             for _ in range(count)]
    dets = _det.build_detectors([draw[0] for draw in draws])
    return [(det, *rest) for det, (_, *rest) in zip(dets, draws)]


def _identity_reports(stream, tolerance: float, instances: int) -> list[VerificationReport]:
    """Random-instance sweep of the seven bracket identities."""
    worst, _, _ = identities.sweep_identities(qcore.as_rng(stream), instances)
    inputs, details = f"instances={instances}", (("instances", float(instances)),)
    return [
        VerificationReport.from_deviation(f"identity:{name}", inputs, worst[name], tolerance, details)
        for name in sorted(worst)
    ]


class Context(NamedTuple):
    """A step's inputs: the run's settings and its own stream's seed sequences."""

    seed: int
    tolerance: float
    depth: int
    wavefunctions: tuple[tuple[str, coordinate.Wavefunction1D], ...]
    streams: tuple[SeedSequence, ...] = ()


class Step(NamedTuple):
    """One step of the paper's chain: ``names(ctx)`` declares its reports in
    a run, ``stream(seed)`` gives the seed sequences it draws from, and
    ``run(ctx, selected)`` makes at least the selected reports."""

    names: Callable[[Context], tuple[str, ...]]
    stream: Callable[[int], tuple[SeedSequence, ...]]
    run: Callable[[Context, list[str]], list[VerificationReport]]


class ReportNameClash(ValueError):
    """Two reports of one run would share a name."""


def _run_envariance(ctx: Context, selected: list[str]) -> list[VerificationReport]:
    det = _det.random_detector(qcore.as_rng(ctx.streams[0]))
    return [verify_envariance(det, trials=200, seed=ctx.streams[1], tolerance=ctx.tolerance, name="envariance")]


def _run_lemmas(ctx: Context, selected: list[str]) -> list[VerificationReport]:
    instances = _segments(qcore.as_rng(ctx.streams[0]), 30, lambda rng: float(rng.uniform()))
    return [merge_reports(name, "instances=30", ctx.tolerance, check(instances)[0])
            for name, check in (("lemma1", _lemma1), ("lemma2", _lemma2)) if name in selected]


def _run_lemma3(ctx: Context, selected: list[str]) -> list[VerificationReport]:
    instances = _segments(qcore.as_rng(ctx.streams[0]), 3, lambda rng: rng.integers(2**31))
    runs = [verify_lemma3_dyadic(det, p0, p1, depth=ctx.depth, seed=s, n_random=50, tolerance=ctx.tolerance)[1]
            for det, p0, p1, s in instances]
    return [merge_reports(selected[0], "segments=3", ctx.tolerance, [r.max_deviation for r in runs])]


def _run_theorems(ctx: Context, selected: list[str]) -> list[VerificationReport]:
    """The battery rows with a selected report, as one pass; each report
    draws from its own child of its theorem's stream."""
    battery = standard_battery(ctx.seed)
    seeds = zip(*(stream.spawn(len(battery)) for stream in ctx.streams))
    rows = [(det, *(((name, s) if (name := f"theorem{t}[{label}]") in selected else None) for t, s in zip((1, 2), ss)))
            for (label, det), ss in zip(battery, seeds)]
    return _theorems([row for row in rows if row[1] or row[2]], 40, 200, ctx.tolerance)


# The built-in isospin cases, each made only when it runs: the wavefunction
# and its interval.
_ISOSPIN = {
    "gaussian": lambda: (coordinate.gaussian_wavefunction(-8.0, 8.0, 20000, sigma=1.0), (-1.0, 1.0)),
    "uniform": lambda: (coordinate.uniform_wavefunction(0.0, 1.0, 1000), (0.0, 0.4995)),
}


def _run_isospin(ctx: Context, selected: list[str]) -> list[VerificationReport]:
    """The interval rule on each selected case; an extra wavefunction's
    interval is the middle 40% of its grid."""
    reports = []
    for label, wf in [*_ISOSPIN.items(), *ctx.wavefunctions]:  # a built-in case is a maker
        if (name := f"isospin-born[{label}]") in selected:
            wf, span = wf() if callable(wf) else (wf, [wf.x_min + t * (wf.x_max - wf.x_min) for t in (0.3, 0.7)])
            interval = coordinate.IntervalDetector(*span)
            reports.append(coordinate.verify_isospin_born(_det.sg_up_detector(), wf, interval, ctx.tolerance, name))
    return reports


def _run_identities(ctx: Context, selected: list[str]) -> list[VerificationReport]:
    return _identity_reports(ctx.streams[0], ctx.tolerance, 200)


# The paper's chain in its order: envariance, segment convexity and the
# midpoint identity, dyadic linearity, the affine response and the
# squared-amplitude rule, the interval rule, then the bracket identities
# that encode assumptions (a)-(e).  Every step draws from its own stream;
# the battery's detectors come from (seed, 0xD37) in ``standard_battery``.
STEPS: tuple[Step, ...] = (
    Step(lambda ctx: ("envariance",),
         lambda seed: (SeedSequence(seed, spawn_key=(0,)), SeedSequence(seed, spawn_key=(1,))), _run_envariance),
    Step(lambda ctx: ("lemma1", "lemma2"), lambda seed: (SeedSequence(seed, spawn_key=(2,)),), _run_lemmas),
    Step(lambda ctx: (f"lemma3[depth={ctx.depth}]",), lambda seed: (SeedSequence(seed, spawn_key=(3,)),), _run_lemma3),
    Step(lambda ctx: tuple(f"theorem{t}[{label}]" for label in _battery_labels() for t in (1, 2)),
         lambda seed: (SeedSequence((seed, 0x71)), SeedSequence((seed, 0x72))), _run_theorems),
    Step(lambda ctx: tuple(f"isospin-born[{label}]" for label in [*_ISOSPIN, *(wf[0] for wf in ctx.wavefunctions)]),
         lambda seed: (), _run_isospin),
    Step(lambda ctx: tuple(f"identity:{name}" for name in identities.IDENTITY_NAMES),
         lambda seed: (SeedSequence((seed, 0x1D)),), _run_identities),
)


def run_full_suite(
    seed: int = DEFAULT_SEED, tolerance: float = DEFAULT_TOL, subset: str | None = None,
    depth: int = DEFAULT_DYADIC_DEPTH, wavefunctions: list[tuple[str, coordinate.Wavefunction1D]] | None = None,
) -> list[VerificationReport]:
    """Run each step of ``STEPS`` that declares a report whose name contains
    ``subset`` (every step without it), and keep those reports, sorted by
    name.  Deterministic given the seed, whatever steps are skipped."""
    ctx = Context(seed, tolerance, depth, tuple(wavefunctions or ()))
    declared = [step.names(ctx) for step in STEPS]
    if twice := sorted(n for n, count in Counter(sum(declared, ())).items() if count > 1):
        raise ReportNameClash(f"report {twice[0]!r} is declared twice")
    reports: list[VerificationReport] = []
    for step, names in zip(STEPS, declared):
        if not (selected := [name for name in names if not subset or subset in name]):
            continue
        made = step.run(ctx._replace(streams=step.stream(seed)), selected)
        if undeclared := sorted({r.name for r in made} - set(names)):
            raise RuntimeError(f"step {names} made undeclared reports {undeclared}")
        if dropped := sorted(set(selected) - {r.name for r in made}):
            raise RuntimeError(f"step {names} did not make selected reports {dropped}")
        reports += [r for r in made if r.name in selected]
    return sorted(reports, key=lambda r: r.name)
