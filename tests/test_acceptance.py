"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line on success (run with ``pytest -s``
to see them); deviations and runtimes are asserted, not just reported.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from bornverifier import (
    cli,
    circuits,
    coordinate,
    counterexamples as cx,
    derivation,
    detectors,
    dsl,
    qcore,
)

GOLDEN = Path(__file__).parent / "golden"


def _passline(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def test_c01_bell_state_balance():
    circuits.sg_measure(qcore.bell_state(), 0)  # warm up
    start = time.perf_counter()
    records = circuits.sg_measure(qcore.bell_state(), 0)
    elapsed = time.perf_counter() - start
    up = next(r for r in records if r.outcome == "u").probability
    assert abs(up - 0.5) < 1e-12
    assert elapsed < 1e-3
    _passline(1, "bell-state balance", f"deviation {abs(up - 0.5):.1e}, {elapsed * 1e6:.0f} us")


def test_c02_affine_response_linearity():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        det = detectors.random_detector(rng)
        resp = detectors.extract_affine(det)
        for _ in range(100):
            p = qcore.random_bloch(rng)
            worst = max(worst, abs(detectors.probe_fclick(det, p) - resp.predict(p)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 30.0
    _passline(2, "affine linearity", f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_c03_envariance():
    rng = np.random.default_rng(303)
    worst_prob = 0.0
    worst_map = 0.0
    for _ in range(1000):
        det = detectors.random_detector(rng)
        theta = rng.uniform(0.0, math.pi / 2)
        c1, c2 = math.cos(theta), math.sin(theta)
        a_basis = qcore.random_unitary(2, rng)
        a1, a2 = a_basis[:, 0], a_basis[:, 1]
        src = qcore.random_unitary(4, rng)
        dst = qcore.random_unitary(4, rng)
        psi_p = qcore.StateVector.from_amplitudes(
            (2, 4), c1 * np.kron(a1, src[:, 0]) + c2 * np.kron(a2, src[:, 1])
        )
        psi_pp = qcore.StateVector.from_amplitudes(
            (2, 4), c1 * np.kron(a1, dst[:, 0]) + c2 * np.kron(a2, dst[:, 1])
        )
        worst_prob = max(
            worst_prob,
            abs(
                detectors.click_probability(det, psi_p, 0)
                - detectors.click_probability(det, psi_pp, 0)
            ),
        )
        u = qcore.envariance_unitary(src[:, 0], src[:, 1], dst[:, 0], dst[:, 1])
        mapped = circuits.apply_unitary(psi_p, (1,), u)
        worst_map = max(
            worst_map, float(np.linalg.norm(mapped.amplitudes - psi_pp.amplitudes))
        )
    assert worst_prob < 1e-9
    assert worst_map < 1e-9
    _passline(3, "envariance", f"prob {worst_prob:.2e}, mapping {worst_map:.2e}")


def test_c04_lemma_replays():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(200):
        det = detectors.random_detector(rng)
        report = derivation.verify_lemma1(
            det, qcore.random_bloch(rng), qcore.random_bloch(rng), float(rng.uniform())
        )
        assert report.passed, dict(report.details)

    bound = 2.0**-20 + 1e-9
    segments = 0
    while segments < 20:
        det = detectors.random_detector(rng)
        profile, report = derivation.verify_lemma3_dyadic(
            det,
            qcore.random_bloch(rng),
            qcore.random_bloch(rng),
            depth=20,
            seed=int(rng.integers(2**31)),
            n_random=100,
        )
        if report.name != "lemma3-dyadic":
            continue  # flat segment: retry with a fresh draw
        assert report.passed, dict(report.details)
        assert len(profile.samples) == 100
        assert all(abs(fx - x) <= bound for x, fx, _ in profile.samples)
        segments += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passline(4, "lemma replays", f"200 interpolations + 20 dyadic segments, {elapsed:.1f}s")


def test_c05_probability_rule_for_ideal_and_noisy_detectors():
    rng = np.random.default_rng(505)
    battery = derivation.standard_battery(seed=42)
    ideal = []
    for name, det in battery:
        resp = detectors.extract_affine(det)
        if abs(resp.beta + resp.alpha_norm - 1) < 1e-9 and abs(resp.beta - resp.alpha_norm) < 1e-9:
            ideal.append((name, det, resp))
    assert len(ideal) >= 3
    worst = 0.0
    for name, det, resp in ideal:
        axis = qcore.BlochVector.from_array(resp.alpha / resp.alpha_norm)
        _, eigvecs = qcore.eig2x2_hermitian(qcore.density_from_bloch(axis))
        phi_up = eigvecs[:, 0]
        for _ in range(1000):
            psi = qcore.random_state((2,), rng)
            predicted = abs(np.vdot(phi_up, psi.amplitudes)) ** 2
            worst = max(
                worst, abs(detectors.click_probability(det, psi, 0) - predicted)
            )
        for _ in range(50):
            k = int(rng.integers(2, 5))
            weights = rng.uniform(size=k)
            weights /= weights.sum()
            members = [qcore.random_state((2,), rng) for _ in range(k)]
            rho = sum(
                w * np.outer(s.amplitudes, s.amplitudes.conj())
                for w, s in zip(weights, members)
            )
            predicted = float((phi_up.conj() @ rho @ phi_up).real)
            oracle = detectors.mixed_click_probability(
                list(zip(weights.tolist(), members)), det
            )
            worst = max(worst, abs(oracle - predicted))
    assert worst < 1e-9

    noisy = detectors.EffectDetector(0.8 * np.diag([1.0, 0.0]) + 0.1 * qcore.IDENTITY_2)
    worst_noisy = 0.0
    for _ in range(1000):
        psi = qcore.random_state((2,), rng)
        predicted = (0.9 - 0.1) * abs(psi.amplitudes[0]) ** 2 + 0.1
        worst_noisy = max(
            worst_noisy, abs(detectors.click_probability(noisy, psi, 0) - predicted)
        )
    assert worst_noisy < 1e-9
    _passline(
        5,
        "squared-amplitude rule",
        f"{len(ideal)} ideal detectors {worst:.2e}, noisy {worst_noisy:.2e}",
    )


def test_c06_effect_positivity_across_battery():
    extremes = []
    for name, det in derivation.standard_battery(seed=42, n_random=8):
        effect = detectors.to_povm(detectors.extract_affine(det))
        eigvals = effect.eigenvalues()
        extremes.append((float(eigvals[0]), float(eigvals[-1])))
        assert eigvals[0] >= -1e-12, name
        assert eigvals[-1] <= 1.0 + 1e-12, name
    low = min(e[0] for e in extremes)
    high = max(e[1] for e in extremes)
    _passline(6, "effect positivity", f"eigenvalues within [{low:.1e}, {high:.10f}]")


def test_c07_counterexample_separation():
    cubic = cx.run_battery(cx.CubicRule(), seed=42)
    deviations = dict(cubic.deviations)
    assert cubic.status["a5-decomposition"] == "fail"
    assert deviations["a5-decomposition"] > 1e-2
    for name in ("normalization", "causality", "nosignal-unitary", "nosignal-measure"):
        assert cubic.status[name] == "pass", name
        assert deviations[name] <= 1e-9
    born = cx.run_battery(cx.BornRule(), seed=42)
    assert set(born.status.values()) == {"pass"}
    _passline(
        7,
        "counterexample separation",
        f"cubic decomposition gap {deviations['a5-decomposition']:.4f}",
    )


def test_c08_integral_probability_rule():
    start = time.perf_counter()
    wf = coordinate.gaussian_wavefunction(-8.0, 8.0, 100000, sigma=1.0)
    interval = coordinate.IntervalDetector(-1.0, 1.0)
    mass = coordinate.born_integral(wf, interval)
    assert abs(mass - math.erf(1.0 / math.sqrt(2.0))) < 1e-4
    decomp = coordinate.decompose_interval(wf, interval)
    assert decomp.c1_squared == mass  # same quadrature, bit-exact
    report = coordinate.verify_isospin_born(detectors.sg_up_detector(), wf, interval)
    assert report.passed
    assert report.max_deviation < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passline(
        8,
        "integral rule",
        f"grid error {abs(mass - math.erf(1 / math.sqrt(2))):.2e}, {elapsed:.2f}s",
    )


def test_c09_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "--seed", "42", "--out", str(a)]) == 0
    assert cli.main(["verify", "--seed", "42", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _passline(9, "report determinism", f"{len(a.read_bytes())} bytes identical")


def test_c10_dsl_golden_corpus():
    files = sorted(GOLDEN.glob("*.qexp"))
    assert len(files) >= 30
    for path in files:
        spec = dsl.parse(path.read_text())
        printed = dsl.print_spec(spec)
        assert dsl.parse(printed) == spec, path.name
    corpus = "\n".join(p.read_text() for p in files)
    # The reference experiments must be present: the correlated-pair
    # preparation, reference-apparatus measurements, and the four-spin
    # interpolation circuit.
    assert "sqrt(0.75)*|uu> + sqrt(0.25)*|dd>" in corpus
    assert "measure w1 SG" in corpus
    lemma = dsl.parse_file(GOLDEN / "11_lemma1_four_spin.qexp")
    assert len(lemma.wires) == 4
    assert any(isinstance(s, dsl.GateRef) for s in lemma.steps)
    assert circuits.evaluate(
        lemma.to_circuit(), lemma.query("up_branch")
    ) == pytest.approx(0.7, abs=1e-12)
    _passline(10, "experiment-format corpus", f"{len(files)} files round-trip")
