"""Executable replays of the linearity derivation.

Each verifier rebuilds one lemma or theorem numerically against exact
ground truth and reports the worst deviation found.  ``run_full_suite``
runs everything over a standard battery of detectors; given the same
seed it is fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuits, coordinate, detectors as _det, qcore
from .detectors import Detector
from .qcore import DEFAULT_TOL, DEGENERACY_TOL, FLAT_SEGMENT_THRESHOLD, BlochVector, StateVector
from .reporting import VerificationReport, merge_reports

DEFAULT_SEED = 42
DEFAULT_DYADIC_DEPTH = 20

# Exhaustive dyadic sweeps above this depth would need millions of
# probes per segment; beyond it the bound is checked on sampled points.
_EXHAUSTIVE_DYADIC_DEPTH = 10
_ENV_DIM = 4


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
        qcore._checked((2, _ENV_DIM), states.reshape(trials, -1))
    clicks = [_det.click_probabilities(det, states) for states in amps]
    worst_prob = float(np.max(np.abs(clicks[0] - clicks[1])))
    unitaries = qcore.envariance_unitaries(sources, targets)
    mapped = circuits.apply_unitaries(amps[0], (1,), unitaries)
    residuals = np.linalg.norm(mapped - amps[1], axis=(1, 2))
    worst_map = float(np.max(residuals))
    return VerificationReport.from_deviation(
        name,
        f"trials={trials} env_dim={_ENV_DIM}",
        max(worst_prob, worst_map),
        tolerance,
        (("probability_deviation", worst_prob), ("mapping_residual", worst_map)),
    )


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
    return _lemma1([(det, p0, p1, lam)], tolerance)[0]


def _lemma1(instances, tolerance: float) -> list[VerificationReport]:
    """``verify_lemma1`` on N (det, p0, p1, lam) instances at once: the
    states and the relabelling unitaries are built in stacks, and the
    oracle is asked twice, for the ends and midpoints of every segment
    and for every four-spin state, each detector on its own rows; every
    a_lambda comes from one reference measurement of the stacked pairs."""
    dets, p0, p1, lams = zip(*instances)
    pairs = qcore.spin_pair_states(lams)
    n = len(instances)
    lam = np.array(lams)[:, None]
    c0, c1 = np.sqrt(1.0 - lam), np.sqrt(lam)
    ends = np.array([_stacked(a, b) for a, b in zip(p0, p1)])
    mids = (1.0 - lam) * ends[:, 0] + lam * ends[:, 1]
    psi0, psi1 = qcore.purify_batch(ends.reshape(-1, 3)).reshape(n, 2, 4).transpose(1, 0, 2)

    # The four-spin state sqrt(1-lam) |psi0>|uu> + sqrt(lam) |psi1>|dd>.
    amps = np.zeros((n, 4, 4), dtype=complex)
    amps[:, :, 0], amps[:, :, 3] = c0 * psi0, c1 * psi1
    amps = amps.reshape(n, 16)
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    bigs = StateVector.stack((2,) * 4, amps)

    # The relabelling maps |psi0>|u> and |psi1>|d> on spins 0-2 onto
    # |uuu> and |uud>.
    sources = np.zeros((n, 4, 2, 2), dtype=complex)
    sources[:, :, 0, 0], sources[:, :, 1, 1] = psi0, psi1
    targets = np.broadcast_to(np.eye(8)[:, :2], (n, 8, 2))
    relabel = qcore.envariance_unitaries(sources.reshape(n, 8, 2), targets)
    relabelled = circuits.apply_unitaries(amps.reshape(n, 2, 2, 2, 2), (0, 1, 2), relabel)
    expected = np.zeros((n, 16))
    expected[:, 0], expected[:, 3] = c0[:, 0], c1[:, 0]
    dev_b = np.linalg.norm(relabelled.reshape(n, 16) - expected, axis=1).tolist()

    points = np.concatenate([ends, mids[:, None]], axis=1).reshape(3 * n, 3)
    probes = _det.probe_fclick([det for det in dets for _ in range(3)], points).reshape(n, 3)
    f_big = _det.click_probabilities(dets, amps.reshape(n, 2, 8)).tolist()
    a_lams = circuits._branches(circuits._stack(pairs), 1, None)[0][0].tolist()  # outcome "u"
    reports = []
    for i, (big, a_lam, (f0, f1, f_mid)) in enumerate(zip(bigs, a_lams, probes.tolist())):
        dev_a = float(np.max(np.abs(qcore.bloch_polarization(big, 0).as_array() - mids[i])))
        dev_c = abs(f_mid - (a_lam * f0 + (1.0 - a_lam) * f1))
        dev_big = abs(f_big[i] - f_mid)
        dev_d = max(0.0, min(f0, f1) - f_mid, f_mid - max(f0, f1))
        reports.append(VerificationReport.from_deviation(
            "lemma1",
            f"lambda={lams[i]:.6g}",
            max(dev_a, dev_b[i], dev_c, dev_big, dev_d),
            tolerance,
            (
                ("polarization_deviation", dev_a),
                ("relabelling_residual", dev_b[i]),
                ("mixture_deviation", dev_c),
                ("four_spin_probe_deviation", dev_big),
                ("betweenness_violation", dev_d),
                ("a_lambda", a_lam),
            ),
        ))
    return reports


def _stacked(*points: BlochVector) -> np.ndarray:
    return np.array([p.as_array() for p in points])


def verify_lemma2(
    det: Detector,
    p0: BlochVector,
    p1: BlochVector,
    tolerance: float = DEFAULT_TOL,
) -> VerificationReport:
    """Midpoint identity, plus the balanced-pair branch weight 1/2."""
    mid = BlochVector.from_array(0.5 * (p0.as_array() + p1.as_array()))
    f_mid, f0, f1 = _det.probe_fclick(det, _stacked(mid, p0, p1)).tolist()
    dev_mid = abs(f_mid - 0.5 * (f0 + f1))
    a_half = next(
        r for r in circuits.sg_measure(qcore.bell_state(), 1) if r.outcome == "u"
    ).probability
    dev_half = abs(a_half - 0.5)
    return VerificationReport.from_deviation(
        "lemma2",
        "midpoint",
        max(dev_mid, dev_half),
        tolerance,
        (("midpoint_deviation", dev_mid), ("balanced_weight", a_half)),
    )


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
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = qcore.as_rng(seed)
    f0, f1 = _det.probe_fclick(det, _stacked(p0, p1)).tolist()
    delta = f1 - f0
    a, b = p0.as_array(), p1.as_array()

    def probe_segment(xs: np.ndarray) -> np.ndarray:
        """Oracle at the segment points (1 - x) p0 + x p1, one batch."""
        return _det.probe_fclick(det, (1.0 - xs)[:, None] * a + xs[:, None] * b)

    if abs(delta) <= FLAT_SEGMENT_THRESHOLD:
        drift = np.abs(probe_segment(np.linspace(0.0, 1.0, 65)) - f0)
        report = VerificationReport.from_deviation(
            "lemma3-flat",
            f"|dF|={abs(delta):.3g}",
            max(float(np.max(drift - abs(delta))), 0.0),
            tolerance,
            (("endpoint_gap", abs(delta)),),
        )
        return DyadicProfile(depth, ()), report

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
    samples = [(x, v, bound) for x, v in zip(xs.tolist(), fx.tolist())]
    profile = DyadicProfile(depth, tuple(samples))
    worst = max(dev_dyadic, dev_monotone, dev_sandwich)
    report = VerificationReport.from_deviation(
        "lemma3-dyadic",
        f"depth={depth} sweep_depth={sweep_depth}",
        worst,
        tolerance,
        (
            ("dyadic_deviation", dev_dyadic),
            ("monotonicity_violation", dev_monotone),
            ("sandwich_excess", dev_sandwich),
            ("endpoint_gap", abs(delta)),
        ),
    )
    return profile, report


def verify_theorem1(
    det: Detector,
    n_points: int = 100,
    seed: int = DEFAULT_SEED,
    tolerance: float = DEFAULT_TOL,
    name: str = "theorem1",
) -> VerificationReport:
    """Affine response: tomography prediction matches the probed click
    probability across the ball, on the poles, and on mixtures."""
    rng = qcore.as_rng(seed)
    resp = _det.extract_affine(det)
    poles = [
        BlochVector(*v)
        for v in [
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        ]
    ]
    points = _stacked(*poles, *(qcore.random_bloch(rng) for _ in range(n_points)))
    # The affine prediction alpha . p + beta, evaluated for all points at
    # once; the probes themselves go through the oracle.
    predicted = points @ resp.alpha + resp.beta
    dev_points = float(np.max(np.abs(_det.probe_fclick(det, points) - predicted)))

    def mixture_prediction(weights: np.ndarray, members: np.ndarray) -> float:
        """alpha . p + beta at the mixture's mean polarization p."""
        states = zip(weights.tolist(), StateVector.stack((2, 2), members))
        mean_p = sum(w * qcore.bloch_polarization(s, 0).as_array() for w, s in states)
        return mean_p @ resp.alpha + resp.beta

    dev_mixed = _mixture_deviation(det, rng, 5, (2, 2), mixture_prediction)
    return VerificationReport.from_deviation(
        name,
        f"points={len(points)}",
        max(dev_points, dev_mixed),
        tolerance,
        (
            ("pointwise_deviation", dev_points),
            ("mixture_deviation", dev_mixed),
            ("alpha_norm", resp.alpha_norm),
            ("beta", resp.beta),
        ),
    )


def _mixture_deviation(det: Detector, rng, count: int, dims: tuple[int, ...], predict) -> float:
    """Worst gap, over ``count`` random mixtures of states of ``dims``,
    between the law-of-total-probability click chance and
    ``predict(weights, members)``.  Each mixture draws its size, its
    weights and its members in this stream order; then all members are
    probed in one call, spin factor 0 first."""
    mixtures = []
    for _ in range(count):
        k = int(rng.integers(2, 5))
        weights = rng.uniform(size=k)
        mixtures.append((weights / weights.sum(), qcore.random_amplitudes(dims, k, rng)))
    members = np.concatenate([m for _, m in mixtures])
    clicks = _det.click_probabilities(det, members.reshape(len(members), 2, -1))
    ends = np.cumsum([len(w) for w, _ in mixtures[:-1]])
    per_mixture = zip(mixtures, np.split(clicks, ends))
    return max(abs(float(w @ c) - predict(w, m)) for (w, m), c in per_mixture)


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
    amplitude when Pmax = 1 and Pmin = 0.  The complement outcome must
    satisfy the mirrored extremal relations.
    """
    rng = qcore.as_rng(seed)
    resp = _det.extract_affine(det)
    p_max = resp.beta + resp.alpha_norm
    p_min = resp.beta - resp.alpha_norm
    if resp.alpha_norm > DEGENERACY_TOL:
        axis = BlochVector.from_array(resp.alpha / resp.alpha_norm)
    else:
        axis = BlochVector(0.0, 0.0, 1.0)
    _, eigvecs = qcore.eig2x2_hermitian(qcore.density_from_bloch(axis))
    phi_up = eigvecs[:, 0]
    phi_down = eigvecs[:, 1]
    dev_orth = abs(np.vdot(phi_up, phi_down))

    extremes = _det.click_probabilities(det, np.stack([phi_up, phi_down])[:, :, None])
    dev_extremes = float(np.max(np.abs(extremes - [p_max, p_min])))

    ideal = abs(p_max - 1.0) <= tolerance and abs(p_min) <= tolerance
    span = p_max - p_min
    states = qcore.random_amplitudes((2,), n_states, rng)
    predicted = span * np.abs(states @ np.conj(phi_up)) ** 2 + p_min
    oracle = _det.click_probabilities(det, states[:, :, None])
    dev_pure = float(np.max(np.abs(oracle - predicted), initial=0.0))

    def mixture_prediction(weights: np.ndarray, members: np.ndarray) -> float:
        """The pure-state rule at the mixture's density matrix."""
        rho = np.einsum("k,ki,kj->ij", weights, members, members.conj())
        return span * float((np.conj(phi_up) @ rho @ phi_up).real) + p_min

    dev_mixed = _mixture_deviation(det, rng, 20, (2,), mixture_prediction)

    resp_down = _det.extract_affine(_det.complement_detector(det))
    dev_complement = max(
        abs((resp_down.beta + resp_down.alpha_norm) - (1.0 - p_min)),
        abs((resp_down.beta - resp_down.alpha_norm) - (1.0 - p_max)),
        float(np.max(np.abs(resp_down.alpha + resp.alpha))),
    )

    worst = max(dev_orth, dev_extremes, dev_pure, dev_mixed, dev_complement)
    return VerificationReport.from_deviation(
        name,
        f"states={n_states} ideal={ideal}",
        worst,
        tolerance,
        (
            ("orthogonality", float(dev_orth)),
            ("extremal_deviation", dev_extremes),
            ("pure_state_deviation", dev_pure),
            ("mixed_state_deviation", dev_mixed),
            ("complement_deviation", dev_complement),
            ("p_max", p_max),
            ("p_min", p_min),
        ),
    )


def standard_battery(seed: int, n_random: int = 4) -> list[tuple[str, Detector]]:
    """Named detectors plus seeded random ones from both ground-truth
    families."""
    rng = qcore.as_rng(np.random.SeedSequence((seed, 0xD37)))
    battery: list[tuple[str, Detector]] = [
        ("effect:sg-up", _det.sg_up_detector()),
        ("effect:sigma-x", _det.EffectDetector(0.5 * (qcore.IDENTITY_2 + qcore.SIGMA_X))),
        ("effect:constant-half", _det.EffectDetector(0.5 * qcore.IDENTITY_2)),
        ("effect:never", _det.EffectDetector(np.zeros((2, 2)))),
        ("effect:always", _det.EffectDetector(qcore.IDENTITY_2)),
        (
            "effect:noisy",
            _det.EffectDetector(0.8 * np.diag([1.0, 0.0]) + 0.1 * qcore.IDENTITY_2),
        ),
        ("ancilla:cnot-up", _det.cnot_click_detector()),
    ]
    families = [family for family in ("effect", "ancilla") for _ in range(n_random)]
    draws = [_det.draw_detector(rng, family) for family in families]
    names = [f"{family}:random-{i % n_random}" for i, family in enumerate(families)]
    return battery + list(zip(names, _det.build_detectors(draws)))


def _segments(rng, count: int, extra) -> list[tuple]:
    """``count`` random (detector, p0, p1, ``extra(rng)``) segments, all
    drawn in this stream order before their detectors are built in one
    batch."""
    draws = [(_det.draw_detector(rng), qcore.random_bloch(rng), qcore.random_bloch(rng), extra(rng))
             for _ in range(count)]
    dets = _det.build_detectors([draw[0] for draw in draws])
    return [(det, *rest) for det, (_, *rest) in zip(dets, draws)]


def _identity_reports(seed: int, tolerance: float, instances: int) -> list[VerificationReport]:
    """Random-instance sweep of the seven bracket identities."""
    rng = qcore.as_rng(np.random.SeedSequence((seed, 0x1D)))
    worst, _ = circuits.sweep_identities(rng, instances, tolerance)
    return [
        VerificationReport.from_deviation(
            f"identity:{name}",
            f"instances={instances}",
            deviation,
            tolerance,
            (("instances", float(instances)),),
        )
        for name, deviation in sorted(worst.items())
    ]


def run_full_suite(
    seed: int = DEFAULT_SEED,
    tolerance: float = DEFAULT_TOL,
    subset: str | None = None,
    depth: int = DEFAULT_DYADIC_DEPTH,
    wavefunctions: list[tuple[str, coordinate.Wavefunction1D]] | None = None,
) -> list[VerificationReport]:
    """Run every verifier over the standard battery; deterministic given
    the seed.  ``subset`` keeps only reports whose name contains it.

    Each check family declares the names of the reports it makes, and
    runs only when ``subset`` matches one of them.  Every family draws
    from its own seed sequence, so skipping one leaves the others'
    reports unchanged."""
    children = np.random.SeedSequence(seed).spawn(8)

    def identities(*names: str) -> list[VerificationReport]:
        return _identity_reports(seed, tolerance, instances=200)

    def envariance(name: str) -> list[VerificationReport]:
        det = _det.random_detector(qcore.as_rng(children[0]))
        return [
            verify_envariance(
                det, trials=200, seed=children[1], tolerance=tolerance, name=name
            )
        ]

    def lemmas12(name1: str, name2: str) -> list[VerificationReport]:
        instances = _segments(qcore.as_rng(children[2]), 30, lambda rng: float(rng.uniform()))
        lemma1_runs = _lemma1(instances, tolerance)
        lemma2_runs = [verify_lemma2(det, p0, p1, tolerance) for det, p0, p1, _ in instances]
        return [
            merge_reports(name1, "instances=30", tolerance, lemma1_runs),
            merge_reports(name2, "instances=30", tolerance, lemma2_runs),
        ]

    def lemma3(name: str) -> list[VerificationReport]:
        instances = _segments(qcore.as_rng(children[3]), 3, lambda rng: rng.integers(2**31))
        runs = [
            verify_lemma3_dyadic(
                det, p0, p1, depth=depth, seed=s, n_random=50, tolerance=tolerance
            )[1]
            for det, p0, p1, s in instances
        ]
        return [merge_reports(name, "segments=3", tolerance, runs)]

    families = [
        (tuple(f"identity:{name}" for name in circuits.IDENTITY_NAMES), identities),
        (("envariance",), envariance),
        (("lemma1", "lemma2"), lemmas12),
        ((f"lemma3[depth={depth}]",), lemma3),
    ]

    battery = standard_battery(seed)
    th1_seeds = np.random.SeedSequence((seed, 0x71)).spawn(len(battery))
    th2_seeds = np.random.SeedSequence((seed, 0x72)).spawn(len(battery))
    for (label, det), s1, s2 in zip(battery, th1_seeds, th2_seeds):
        families.append((
            (f"theorem1[{label}]",),
            lambda name, det=det, s=s1: [
                verify_theorem1(det, n_points=40, seed=s, tolerance=tolerance, name=name)
            ],
        ))
        families.append((
            (f"theorem2[{label}]",),
            lambda name, det=det, s=s2: [
                verify_theorem2(det, n_states=200, seed=s, tolerance=tolerance, name=name)
            ],
        ))

    coord_cases = [
        ("gaussian", coordinate.gaussian_wavefunction(-8.0, 8.0, 20000, sigma=1.0), (-1.0, 1.0)),
        ("uniform", coordinate.uniform_wavefunction(0.0, 1.0, 1000), (0.0, 0.4995)),
    ]
    for label, wf in wavefunctions or []:
        lo = wf.x_min + 0.3 * (wf.x_max - wf.x_min)
        hi = wf.x_min + 0.7 * (wf.x_max - wf.x_min)
        coord_cases.append((label, wf, (lo, hi)))
    for label, wf, (lo, hi) in coord_cases:
        families.append((
            (f"isospin-born[{label}]",),
            lambda name, wf=wf, lo=lo, hi=hi: [
                coordinate.verify_isospin_born(
                    _det.sg_up_detector(),
                    wf,
                    coordinate.IntervalDetector(lo, hi),
                    tolerance=tolerance,
                    name=name,
                )
            ],
        ))

    reports: list[VerificationReport] = []
    for names, run in families:
        if subset and not any(subset in name for name in names):
            continue
        made = run(*names)
        undeclared = sorted({r.name for r in made} - set(names))
        if undeclared:
            raise RuntimeError(f"check family {names} made undeclared reports {undeclared}")
        reports.extend(made)

    reports.sort(key=lambda r: r.name)
    if subset:
        reports = [r for r in reports if subset in r.name]
    return reports
