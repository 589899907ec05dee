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
from .qcore import DEFAULT_TOL, BlochVector, StateVector
from .reporting import VerificationReport, merge_reports

DEFAULT_SEED = 42
DEFAULT_DYADIC_DEPTH = 20

# Exhaustive dyadic sweeps above this depth would need millions of
# probes per segment; beyond it the bound is checked on sampled points.
_EXHAUSTIVE_DYADIC_DEPTH = 10
_FLAT_SEGMENT_THRESHOLD = 1e-4


def _random_unit(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


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
    env_dim: int = 4,
    tolerance: float = DEFAULT_TOL,
    name: str = "envariance",
) -> VerificationReport:
    """Environment-assisted invariance: two states sharing Schmidt data
    have equal click probability, and the constructed environment
    unitary maps one onto the other."""
    rng = qcore.as_rng(seed)
    worst_prob = 0.0
    worst_map = 0.0
    for trial in range(trials):
        if trial == 0:
            theta = math.pi / 4  # identical bases, exact-equality case
        elif trial == 1:
            theta = 0.0  # product state, c2 = 0
        else:
            theta = rng.uniform(0.0, math.pi / 2)
        c1, c2 = math.cos(theta), math.sin(theta)
        a1 = qcore.fix_global_phase(_random_unit(rng, 2))
        a2 = np.array([-np.conj(a1[1]), np.conj(a1[0])])
        if trial == 0:
            basis = qcore.random_unitary(env_dim, rng)
            b1p, b2p = basis[:, 0], basis[:, 1]
            b1pp, b2pp = b1p, b2p
        else:
            src = qcore.random_unitary(env_dim, rng)
            dst = qcore.random_unitary(env_dim, rng)
            b1p, b2p = src[:, 0], src[:, 1]
            b1pp, b2pp = dst[:, 0], dst[:, 1]
        psi_p = StateVector.from_amplitudes(
            (2, env_dim), c1 * np.kron(a1, b1p) + c2 * np.kron(a2, b2p)
        )
        psi_pp = StateVector.from_amplitudes(
            (2, env_dim), c1 * np.kron(a1, b1pp) + c2 * np.kron(a2, b2pp)
        )
        worst_prob = max(
            worst_prob,
            abs(
                _det.click_probability(det, psi_p, 0)
                - _det.click_probability(det, psi_pp, 0)
            ),
        )
        u = qcore.envariance_unitary(b1p, b2p, b1pp, b2pp)
        mapped = circuits.apply_unitary(psi_p, (1,), u)
        worst_map = max(
            worst_map,
            float(np.linalg.norm(mapped.amplitudes - psi_pp.amplitudes)),
        )
    return VerificationReport.from_deviation(
        name,
        f"trials={trials} env_dim={env_dim}",
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
    construction.

    (a) the four-spin state carries the interpolated polarization,
    (b) the relabelling unitary maps it onto |uu> (x) the correlated
        pair,
    (c) the interpolated response equals the branch-weighted mixture of
        the endpoint responses,
    (d) the interpolated response lies between the endpoint values.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    psi0 = qcore.purify(p0)
    psi1 = qcore.purify(p1)
    up_pair = qcore.basis_state((2, 2), (0, 0))
    down_pair = qcore.basis_state((2, 2), (1, 1))
    amps = math.sqrt(1.0 - lam) * np.kron(
        psi0.amplitudes, up_pair.amplitudes
    ) + math.sqrt(lam) * np.kron(psi1.amplitudes, down_pair.amplitudes)
    big = StateVector.from_amplitudes((2, 2, 2, 2), amps)

    p_mid = BlochVector.from_array(
        (1.0 - lam) * p0.as_array() + lam * p1.as_array()
    )
    dev_a = float(
        np.max(np.abs(qcore.bloch_polarization(big, 0).as_array() - p_mid.as_array()))
    )

    src1 = np.kron(psi0.amplitudes, qcore.UP)
    src2 = np.kron(psi1.amplitudes, qcore.DOWN)
    target1 = np.zeros(8, dtype=complex)
    target1[0] = 1.0  # |uuu>
    target2 = np.zeros(8, dtype=complex)
    target2[1] = 1.0  # |uud>
    v = qcore.envariance_unitary(src1, src2, target1, target2)
    relabelled = circuits.apply_unitary(big, (0, 1, 2), v)
    expected = math.sqrt(1.0 - lam) * _basis8_16(0) + math.sqrt(lam) * _basis8_16(3)
    dev_b = float(np.linalg.norm(relabelled.amplitudes - expected))

    pair = qcore.spin_pair_state(lam)
    a_lam = next(
        r for r in circuits.sg_measure(pair, 1) if r.outcome == "u"
    ).probability
    f0, f1, f_mid = _det.probe_fclick(det, _stacked(p0, p1, p_mid)).tolist()
    dev_c = abs(f_mid - (a_lam * f0 + (1.0 - a_lam) * f1))
    dev_big = abs(_det.click_probability(det, big, 0) - f_mid)

    low, high = min(f0, f1), max(f0, f1)
    dev_d = max(0.0, low - f_mid, f_mid - high)

    worst = max(dev_a, dev_b, dev_c, dev_big, dev_d)
    return VerificationReport.from_deviation(
        "lemma1",
        f"lambda={lam:.6g}",
        worst,
        tolerance,
        (
            ("polarization_deviation", dev_a),
            ("relabelling_residual", dev_b),
            ("mixture_deviation", dev_c),
            ("four_spin_probe_deviation", dev_big),
            ("betweenness_violation", dev_d),
            ("a_lambda", a_lam),
        ),
    )


def _stacked(*points: BlochVector) -> np.ndarray:
    return np.array([p.as_array() for p in points])


def _basis8_16(index: int) -> np.ndarray:
    v = np.zeros(16, dtype=complex)
    v[index] = 1.0
    return v


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

    if abs(delta) <= _FLAT_SEGMENT_THRESHOLD:
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
    dev_mixed = 0.0
    for _ in range(5):
        k = int(rng.integers(2, 5))
        weights = rng.uniform(size=k)
        weights /= weights.sum()
        members = [qcore.random_state((2, 2), rng) for _ in range(k)]
        ensemble = list(zip(weights.tolist(), members))
        mean_p = BlochVector.from_array(
            sum(w * qcore.bloch_polarization(s, 0).as_array() for w, s in ensemble)
        )
        dev_mixed = max(
            dev_mixed,
            abs(
                _det.mixed_click_probability(ensemble, det)
                - (mean_p.as_array() @ resp.alpha + resp.beta)
            ),
        )
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
    if resp.alpha_norm > 1e-12:
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
    dev_mixed = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 5))
        weights = rng.uniform(size=k)
        weights /= weights.sum()
        members = qcore.random_amplitudes((2,), k, rng)
        rho = np.einsum("k,ki,kj->ij", weights, members, members.conj())
        predicted = span * float((np.conj(phi_up) @ rho @ phi_up).real) + p_min
        ensemble = [(w, StateVector((2,), m)) for w, m in zip(weights.tolist(), members)]
        oracle = _det.mixed_click_probability(ensemble, det)
        dev_mixed = max(dev_mixed, abs(oracle - predicted))

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
    for i in range(n_random):
        battery.append((f"effect:random-{i}", _det.random_effect_detector(rng)))
    for i in range(n_random):
        battery.append((f"ancilla:random-{i}", _det.random_ancilla_detector(rng)))
    return battery


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
        rng = qcore.as_rng(children[2])
        lemma1_runs = []
        lemma2_runs = []
        for _ in range(30):
            det = _det.random_detector(rng)
            p0 = qcore.random_bloch(rng)
            p1 = qcore.random_bloch(rng)
            lemma1_runs.append(verify_lemma1(det, p0, p1, float(rng.uniform()), tolerance))
            lemma2_runs.append(verify_lemma2(det, p0, p1, tolerance))
        return [
            merge_reports(name1, "instances=30", tolerance, lemma1_runs),
            merge_reports(name2, "instances=30", tolerance, lemma2_runs),
        ]

    def lemma3(name: str) -> list[VerificationReport]:
        rng = qcore.as_rng(children[3])
        runs = []
        for _ in range(3):
            det = _det.random_detector(rng)
            _, rep = verify_lemma3_dyadic(
                det,
                qcore.random_bloch(rng),
                qcore.random_bloch(rng),
                depth=depth,
                seed=rng.integers(2**31),
                n_random=50,
                tolerance=tolerance,
            )
            runs.append(rep)
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
