import numpy as np
import pytest

from bornverifier import circuits, derivation, detectors, qcore, reporting
from bornverifier.derivation import (
    run_full_suite,
    standard_battery,
    verify_envariance,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3_dyadic,
    verify_theorem1,
    verify_theorem2,
)
from bornverifier.qcore import BlochVector


@pytest.fixture(scope="module")
def full_suite_42():
    return run_full_suite(seed=42)


class TestEnvariance:
    def test_random_detector_passes(self):
        det = detectors.random_detector(np.random.default_rng(1))
        report = verify_envariance(det, trials=100, seed=2)
        assert report.passed
        assert report.max_deviation < 1e-9

    def test_ancilla_detector_passes(self):
        det = detectors.random_ancilla_detector(np.random.default_rng(3))
        assert verify_envariance(det, trials=50, seed=4).passed

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_envariance(detectors.sg_up_detector(), trials=0)

    def test_mapping_is_orthonormal_to_rounding(self):
        # A completion that loses orthogonality shows at this seed: the
        # mapping residual was 1.38e-14, about 60 ulps.
        (report,) = run_full_suite(seed=1234, subset="envariance")
        assert report.max_deviation <= 2e-15


class TestLemma1:
    def test_endpoint_weights(self):
        det = detectors.random_detector(np.random.default_rng(5))
        rng = np.random.default_rng(6)
        p0, p1 = qcore.random_bloch(rng), qcore.random_bloch(rng)
        for lam in (0.0, 1.0):
            report = verify_lemma1(det, p0, p1, lam)
            assert report.passed, dict(report.details)

    def test_random_instances_and_branch_weight(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            det = detectors.random_detector(rng)
            lam = float(rng.uniform())
            report = verify_lemma1(
                det, qcore.random_bloch(rng), qcore.random_bloch(rng), lam
            )
            assert report.passed, dict(report.details)
            # The reference-branch weight is an oracle property, never
            # assumed by the construction itself.
            assert dict(report.details)["a_lambda"] == pytest.approx(
                1.0 - lam, abs=1e-10
            )

    def test_invalid_weight_rejected(self):
        det = detectors.sg_up_detector()
        with pytest.raises(ValueError):
            verify_lemma1(det, BlochVector(0, 0, 0), BlochVector(0, 0, 1), 1.5)

    def test_stack_matches_per_instance_runs(self):
        # Both detector families and several ancilla shapes in one stack.
        rng = np.random.default_rng(29)
        instances = derivation._segments(rng, 30, lambda rng: float(rng.uniform()))
        deviations, details = derivation._lemma1(instances)
        for i, x in enumerate(instances):
            alone = verify_lemma1(*x)
            assert deviations[i] == alone.max_deviation
            assert [(key, values[i]) for key, values in details.items()] == list(alone.details)


class TestLemma2:
    def test_equal_points(self):
        det = detectors.random_detector(np.random.default_rng(8))
        p = qcore.random_bloch(np.random.default_rng(9))
        assert verify_lemma2(det, p, p).passed

    def test_antipodal_points(self):
        det = detectors.random_detector(np.random.default_rng(10))
        p = qcore.random_bloch(np.random.default_rng(11))
        anti = BlochVector(-p.px, -p.py, -p.pz)
        report = verify_lemma2(det, p, anti)
        assert report.passed
        assert dict(report.details)["balanced_weight"] == pytest.approx(0.5, abs=1e-12)

    def test_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            det = detectors.random_detector(rng)
            assert verify_lemma2(
                det, qcore.random_bloch(rng), qcore.random_bloch(rng)
            ).passed

    def test_stack_matches_per_instance_runs(self, monkeypatch):
        # Both detector families in one stack, probed in one oracle call.
        instances = derivation._segments(np.random.default_rng(31), 30, lambda rng: None)
        calls = []
        real = detectors.probe_fclick
        monkeypatch.setattr(detectors, "probe_fclick", lambda d, p: calls.append(len(p)) or real(d, p))
        deviations, details = derivation._lemma2(instances)
        assert calls == [90]
        for i, (det, p0, p1, _) in enumerate(instances):
            alone = verify_lemma2(det, p0, p1)
            assert deviations[i] == alone.max_deviation
            assert [(key, values[i]) for key, values in details.items()] == list(alone.details)


class TestLemma3:
    def test_midpoint_at_depth_one(self):
        det = detectors.sg_up_detector()
        profile, report = verify_lemma3_dyadic(
            det, BlochVector(0, 0, -1), BlochVector(0, 0, 1), depth=1, seed=13
        )
        assert report.passed
        assert profile.depth == 1
        for x, fx, bound in profile.samples:
            assert bound == 0.5
            assert abs(fx - x) <= bound + 1e-9

    def test_deep_profile_on_random_segment(self):
        rng = np.random.default_rng(14)
        det = detectors.random_effect_detector(rng)
        profile, report = verify_lemma3_dyadic(
            det, qcore.random_bloch(rng), qcore.random_bloch(rng), depth=20, seed=15
        )
        if report.name == "lemma3-dyadic":
            assert report.passed, dict(report.details)
            assert all(abs(fx - x) <= 2**-20 + 1e-9 for x, fx, _ in profile.samples)

    def test_flat_segment_routed(self):
        det = detectors.EffectDetector(qcore.IDENTITY_2 / 2)
        rng = np.random.default_rng(16)
        profile, report = verify_lemma3_dyadic(
            det, qcore.random_bloch(rng), qcore.random_bloch(rng), depth=20, seed=17
        )
        assert report.name == "lemma3-flat"
        assert report.passed
        assert profile.samples == ()

    def test_endpoints_pinned(self):
        rng = np.random.default_rng(18)
        det = detectors.sg_up_detector()
        p0, p1 = BlochVector(0, 0, -0.8), BlochVector(0, 0, 0.9)
        f0 = detectors.probe_fclick(det, p0)
        f1 = detectors.probe_fclick(det, p1)
        assert (f0 - f0) / (f1 - f0) == 0.0
        assert (f1 - f0) / (f1 - f0) == 1.0

    def test_sample_count_checked(self):
        # Zero random points still leaves the exhaustive dyadic grid to check.
        det, ends = detectors.sg_up_detector(), (BlochVector(0, 0, -1), BlochVector(0, 0, 1))
        with pytest.raises(ValueError, match="n_random must be >= 0"):
            verify_lemma3_dyadic(det, *ends, depth=4, n_random=-1)
        profile, report = verify_lemma3_dyadic(det, *ends, depth=4, n_random=0)
        assert report.passed and profile.samples == ()


class TestTheorem1:
    def test_projective_detector(self):
        report = verify_theorem1(detectors.sg_up_detector(), n_points=50, seed=19)
        assert report.passed

    def test_constant_detector_recovers_zero_slope(self):
        report = verify_theorem1(
            detectors.EffectDetector(0.3 * np.eye(2)), n_points=50, seed=20
        )
        assert report.passed
        assert dict(report.details)["alpha_norm"] < 1e-12

    def test_random_ancilla_model(self):
        det = detectors.random_ancilla_detector(np.random.default_rng(21))
        assert verify_theorem1(det, n_points=50, seed=22).passed

    def test_point_count_checked(self):
        # Zero random points still leaves the six poles and the mixtures.
        det = detectors.sg_up_detector()
        with pytest.raises(ValueError, match="n_points must be >= 0"):
            verify_theorem1(det, n_points=-1)
        report = verify_theorem1(det, n_points=0)
        assert report.passed and report.inputs == "points=6"


class TestMixtures:
    @pytest.mark.parametrize("count, dims", [(5, (2, 2)), (20, (2,))])
    def test_one_probe_matches_the_per_mixture_loop(self, count, dims, monkeypatch):
        # The theorems' mixtures: drawn in the stream order of one loop over
        # them (size, weights, members), then probed in one oracle call and
        # predicted in one pass; each prediction here is the first weight.
        det = detectors.random_detector(np.random.default_rng(29))

        def predict(weights, members, starts):
            return weights[starts]

        def loop(rng):
            deviations = []
            for _ in range(count):
                k = int(rng.integers(2, 5))
                weights = rng.uniform(size=k)
                weights /= weights.sum()
                members = qcore.StateVector.stack(dims, qcore.random_amplitudes(dims, k, rng))
                click = detectors.mixed_click_probability(list(zip(weights.tolist(), members)), det)
                deviations.append(abs(click - predict(weights, None, 0)))
            return max(deviations)

        batched_rng, loop_rng = np.random.default_rng(30), np.random.default_rng(30)
        batches = []
        real = detectors.click_probabilities
        monkeypatch.setattr(
            detectors, "click_probabilities", lambda d, amps: batches.append(len(amps)) or real(d, amps)
        )
        deviation = derivation._mixture_deviation(det, batched_rng, count, dims, predict)
        assert len(batches) == 1 and 2 * count <= batches[0] <= 4 * count
        assert deviation == pytest.approx(loop(loop_rng), abs=1e-15)
        assert batched_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("verify, dims", [(verify_theorem1, (2, 2)), (verify_theorem2, (2,))])
    def test_one_pass_predictions_match_each_mixture(self, verify, dims, monkeypatch):
        # Each theorem predicts all its mixtures in one pass.  For a click
        # of 0.8 |u><u| + 0.1, both predictions are 0.8 <u|rho|u> + 0.1 at
        # each mixture's reduced density matrix rho of spin 0.
        det = detectors.EffectDetector(np.diag([0.9, 0.1]))
        predictors = []
        real = derivation._mixture_deviation
        monkeypatch.setattr(derivation, "_mixture_deviation", lambda *a: predictors.append(a[-1]) or real(*a))
        verify(det, seed=34)
        rng = np.random.default_rng(35)
        sizes = [2, 3, 4, 2]
        weights = [w / w.sum() for w in (rng.uniform(size=k) for k in sizes)]
        members = [qcore.random_amplitudes(dims, k, rng) for k in sizes]
        starts = np.cumsum([0] + sizes[:-1])
        predicted = predictors[0](np.concatenate(weights), np.concatenate(members), starts)
        for w, m, value in zip(weights, members, predicted, strict=True):
            up = (np.abs(m.reshape(len(m), 2, -1)[:, 0]) ** 2).sum(axis=1)
            assert value == pytest.approx(0.8 * float(w @ up) + 0.1, abs=1e-14)


class TestTheorem2:
    def test_reference_apparatus_squared_amplitude(self):
        report = verify_theorem2(detectors.sg_up_detector(), n_states=300, seed=23)
        assert report.passed
        details = dict(report.details)
        assert details["p_max"] == pytest.approx(1.0, abs=1e-12)
        assert details["p_min"] == pytest.approx(0.0, abs=1e-12)

    def test_x_basis_detector(self):
        det = detectors.EffectDetector((qcore.IDENTITY_2 + qcore.SIGMA_X) / 2)
        report = verify_theorem2(det, n_states=300, seed=24)
        assert report.passed

    def test_noisy_detector_generalized_formula(self):
        noisy = detectors.EffectDetector(
            0.8 * np.diag([1.0, 0.0]) + 0.1 * qcore.IDENTITY_2
        )
        report = verify_theorem2(noisy, n_states=300, seed=25)
        assert report.passed
        details = dict(report.details)
        assert details["p_max"] == pytest.approx(0.9, abs=1e-9)
        assert details["p_min"] == pytest.approx(0.1, abs=1e-9)

    def test_extremes_match_effect_eigenvalues(self):
        rng = np.random.default_rng(26)
        for _ in range(15):
            det = detectors.random_effect_detector(rng)
            report = verify_theorem2(det, n_states=50, seed=27)
            assert report.passed
            eigvals = np.linalg.eigvalsh(det.effect)
            details = dict(report.details)
            assert details["p_max"] == pytest.approx(eigvals[-1], abs=1e-9)
            assert details["p_min"] == pytest.approx(eigvals[0], abs=1e-9)

    def test_ideal_matches_branch_norms(self):
        det = detectors.sg_up_detector()
        rng = np.random.default_rng(28)
        for _ in range(50):
            psi = qcore.random_state((2,), rng)
            branch = next(
                r for r in circuits.sg_measure(psi, 0) if r.outcome == "u"
            ).probability
            assert detectors.click_probability(det, psi, 0) == pytest.approx(
                branch, abs=1e-10
            )


class TestFullSuite:
    def test_default_run_passes_and_is_deterministic(self):
        first = run_full_suite(seed=42)
        second = run_full_suite(seed=42)
        assert [r.name for r in first] == [r.name for r in second]
        assert [r.max_deviation for r in first] == [r.max_deviation for r in second]
        assert all(r.passed for r in first)
        names = [r.name for r in first]
        assert names == sorted(names)

    def test_zero_tolerance_forces_failures(self):
        reports = run_full_suite(seed=42, tolerance=0.0)
        assert any(not r.passed for r in reports)

    def test_subset_filter(self):
        reports = run_full_suite(seed=42, subset="lemma3", depth=12)
        assert reports
        assert all("lemma3" in r.name for r in reports)

    @pytest.mark.parametrize(
        "subset",
        ["envariance", "isospin", "identity:", "lemma", "theorem1[effect:sg-up]",
         "theorem2[effect:noisy]"],
    )
    def test_subset_run_equals_filtered_full_run(self, subset, full_suite_42):
        def documents(reports):
            return [reporting.canonical_json(r.to_dict()) for r in reports]

        expected = [r for r in full_suite_42 if subset in r.name]
        assert expected
        assert documents(run_full_suite(seed=42, subset=subset)) == documents(expected)

    def test_subset_skips_other_families(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a skipped family ran")

        for name in ("verify_envariance", "verify_lemma1", "_lemma1", "verify_lemma3_dyadic",
                     "verify_theorem1", "verify_theorem2", "_identity_reports"):
            monkeypatch.setattr(derivation, name, boom)
        reports = run_full_suite(seed=42, subset="isospin")
        assert [r.name for r in reports] == ["isospin-born[gaussian]", "isospin-born[uniform]"]

    def test_identity_sweep_evaluation_budget(self, monkeypatch):
        # Each counted call is one batched walk over all 200 instances,
        # whatever their detectors' families: 3 single-spin circuits and 5
        # two-spin ones, and 3 ``psi`` circuits per environment dimension.
        calls = []
        real = circuits.outcome_distribution
        monkeypatch.setattr(circuits, "outcome_distribution", lambda *a: calls.append(a) or real(*a))
        reports = derivation._identity_reports(42, 1e-9, 200)
        assert len(reports) == len(circuits.IDENTITY_NAMES)
        assert len(calls) <= 17
        groups = [_walk_group(circuit) for circuit, *_ in calls]
        assert max(groups.count(g) for g in groups) <= 11
        assert sum(len(circuit.states) for circuit, *_ in calls) == 200 * 11

    @pytest.mark.parametrize("subset, budget", [("identity", 12), (None, 30)])
    def test_unitaries_are_built_in_stacks(self, subset, budget, monkeypatch):
        # Every random unitary is drawn first and built by one batched QR
        # per dimension and family: the sweep's detectors, its environment
        # and spin unitaries, the battery, envariance and the lemmas.
        calls = []
        real = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(a) or real(*a, **k))
        run_full_suite(42, subset=subset)
        assert len(calls) <= budget

    def test_undeclared_report_name_raises(self, monkeypatch):
        real = derivation.verify_envariance
        monkeypatch.setattr(
            derivation, "verify_envariance",
            lambda *args, **kwargs: real(*args, **{**kwargs, "name": "renamed"}),
        )
        with pytest.raises(RuntimeError, match="undeclared"):
            run_full_suite(seed=42, subset="envariance")

    def test_battery_composition(self):
        battery = standard_battery(seed=42)
        kinds = {type(det).__name__ for _, det in battery}
        assert kinds == {"EffectDetector", "AncillaDetector"}
        names = [name for name, _ in battery]
        assert len(names) == len(set(names))


def _walk_group(circuit):
    """The group of a batched walk: the factor dims of its initial states,
    since detectors of every family share one walk."""
    return circuit.states[0].factor_dims
