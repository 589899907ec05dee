import math

import numpy as np
import pytest

from bornverifier import circuits, coordinate, derivation, detectors, identities, qcore, reporting
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

    def test_mixture_fails_on_a_skewed_down_projector(self, monkeypatch):
        # The mixture weighs the lambda end by the reference apparatus's
        # own down reading, not 1 - a_lambda: a down projector off by 1e-6
        # breaks it.
        det, p0, p1 = detectors.EffectDetector(np.diag([0.0, 1.0])), BlochVector(0, 0, 1), BlochVector(0, 0, -1)
        assert verify_lemma1(det, p0, p1, 0.5).passed
        skewed = circuits._PROJECTORS * np.array([1.0, 1.0 + 1e-6])[:, None, None, None]
        monkeypatch.setattr(circuits, "_PROJECTORS", skewed)
        report = verify_lemma1(det, p0, p1, 0.5)
        assert not report.passed and dict(report.details)["mixture_deviation"] > 1e-7

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

    def test_depth_checked(self):
        # 2.0**depth overflows a double above depth 1023.
        det, ends = detectors.sg_up_detector(), (BlochVector(0, 0, -1), BlochVector(0, 0, 1))
        for depth in (0, 1024):
            with pytest.raises(ValueError, match=rf"^depth must lie in \[1, 1023\], got {depth}$"):
                verify_lemma3_dyadic(det, *ends, depth=depth)
        profile, report = verify_lemma3_dyadic(det, *ends, depth=1023, n_random=5)
        assert report.passed and profile.depth == 1023 and len(profile.samples) == 5


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
    def test_one_probe_matches_the_per_mixture_loop(self, count, dims):
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
                members = [qcore.StateVector(dims, row) for row in qcore.random_amplitudes(dims, k, rng)]
                click = detectors.mixed_click_probability(list(zip(weights.tolist(), members)), det)
                deviations.append(abs(click - predict(weights, None, 0)))
            return max(deviations)

        batched_rng, loop_rng = np.random.default_rng(30), np.random.default_rng(30)
        weights, members, starts = derivation._draw_mixtures(batched_rng, count, dims)
        assert len(starts) == count and 2 * count <= len(members) <= 4 * count
        clicks = detectors.click_probabilities(det, members.reshape(len(members), 2, -1))
        deviation = derivation._law_gap(weights, clicks, starts, predict(weights, members, starts))
        assert deviation == pytest.approx(loop(loop_rng), abs=1e-15)
        assert batched_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("verify, dims", [(verify_theorem1, (2, 2)), (verify_theorem2, (2,))])
    def test_one_pass_predictions_match_each_mixture(self, verify, dims, monkeypatch):
        # Each theorem predicts all its mixtures in one pass.  For a click
        # of 0.8 |u><u| + 0.1, both predictions are 0.8 <u|rho|u> + 0.1 at
        # each mixture's reduced density matrix rho of spin 0, read here
        # from the mixtures the theorem drew.
        det = detectors.EffectDetector(np.diag([0.9, 0.1]))
        drawn, predictions = [], []
        draw, gap = derivation._draw_mixtures, derivation._law_gap
        monkeypatch.setattr(derivation, "_draw_mixtures", lambda *a: drawn.append(draw(*a)) or drawn[-1])
        monkeypatch.setattr(derivation, "_law_gap", lambda *a: predictions.append(a[-1]) or gap(*a))
        verify(det, seed=34)
        [(weights, members, starts)], [predicted] = drawn, predictions
        assert members.shape[1] == math.prod(dims) and len(predicted) == len(starts) > 0
        for w, m, value in zip(np.split(weights, starts[1:]), np.split(members, starts[1:]), predicted, strict=True):
            up = (np.abs(m.reshape(len(m), 2, -1)[:, 0]) ** 2).sum(axis=1)
            assert value == pytest.approx(0.8 * float(w @ up) + 0.1, abs=1e-14)


class TestTheorem2:
    def test_state_count_checked(self):
        # Zero random states still leaves the extremes, the mixtures and
        # the complement.
        det = detectors.sg_up_detector()
        with pytest.raises(ValueError, match="n_states must be >= 0"):
            verify_theorem2(det, n_states=-1)
        report = verify_theorem2(det, n_states=0)
        assert report.passed and report.inputs == "states=0 ideal=True"
        assert dict(report.details)["pure_state_deviation"] == 0.0

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

    def test_unselected_families_build_nothing(self, monkeypatch):
        # The battery and the isospin wavefunctions are made inside the
        # families that use them, so a run of envariance makes neither.
        called = []
        monkeypatch.setattr(derivation, "standard_battery", lambda *a, **k: called.append("battery"))
        monkeypatch.setattr(coordinate, "gaussian_wavefunction", lambda *a, **k: called.append("gaussian"))
        assert [r.name for r in run_full_suite(42, subset="envariance")] == ["envariance"]
        assert called == []

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
                     "verify_theorem1", "verify_theorem2", "_theorems", "_identity_reports"):
            monkeypatch.setattr(derivation, name, boom)
        reports = run_full_suite(seed=42, subset="isospin")
        assert [r.name for r in reports] == ["isospin-born[gaussian]", "isospin-born[uniform]"]

    @pytest.mark.parametrize("seed", [42, 7])
    def test_stacked_theorems_match_each_verifier(self, seed):
        # Bit for bit, every field: the suite's one pass over the battery
        # against each detector's verify_theorem1 and verify_theorem2.
        battery = standard_battery(seed)
        seeds = [np.random.SeedSequence((seed, tag)).spawn(len(battery)) for tag in (0x71, 0x72)]
        expected = []
        for (label, det), s1, s2 in zip(battery, *seeds, strict=True):
            expected.append(verify_theorem1(det, n_points=40, seed=s1, name=f"theorem1[{label}]"))
            expected.append(verify_theorem2(det, n_states=200, seed=s2, name=f"theorem2[{label}]"))
        stacked = run_full_suite(seed, subset="theorem")
        assert stacked == sorted(expected, key=lambda r: r.name)
        # And every detail equals the per-detector code the pass replaced,
        # written out from the oracle.
        found = {r.name: dict(r.details) for r in stacked}
        for (label, det), s1, s2 in zip(battery, *seeds):
            th1, th2 = _former_theorems(det, s1, s2)
            assert found[f"theorem1[{label}]"] == th1
            assert found[f"theorem2[{label}]"] == th2

    def test_theorem_oracle_budget(self, monkeypatch):
        # One tomography probe of both outcomes, theorem 1's points, its
        # mixture members, and theorem 2's extremes, pure states and
        # mixtures: four oracle calls for the whole battery, on rows of one
        # ModelStacks of the battery's detectors alone.
        calls, stacks = [], []
        real_oracle, real_of = detectors._oracle, detectors.ModelStacks.of.__func__
        monkeypatch.setattr(detectors, "_oracle", lambda d, a, k: calls.append((len(a), k)) or real_oracle(d, a, k))
        monkeypatch.setattr(
            detectors.ModelStacks, "of", classmethod(lambda cls, dets: stacks.append(len(dets)) or real_of(cls, dets))
        )
        reports = run_full_suite(42, subset="theorem")
        battery = len(standard_battery(42))
        assert len(reports) == 2 * battery
        assert len(calls) == 4 and calls[0] == (4 * battery, slice(None))
        assert all(k == slice(1) for _, k in calls[1:])  # the probes read the click row alone
        assert stacks == [battery]

    @pytest.mark.parametrize("subset", ["theorem1[effect:sg-up]", "theorem2[effect:noisy]"])
    def test_theorem_subset_stacks_only_matched_rows(self, subset, monkeypatch):
        # One detector, whose model serves both outcomes: no other battery
        # row is tomographed or probed.
        stacks, rows = [], []
        real_of, real_oracle = detectors.ModelStacks.of.__func__, detectors._oracle
        monkeypatch.setattr(
            detectors.ModelStacks, "of", classmethod(lambda cls, dets: stacks.append(len(dets)) or real_of(cls, dets))
        )
        monkeypatch.setattr(detectors, "_oracle", lambda d, a, k: rows.append(len(a)) or real_oracle(d, a, k))
        assert [r.name for r in run_full_suite(42, subset=subset)] == [subset]
        assert stacks == [1] and rows[0] == 4

    def test_identity_sweep_evaluation_budget(self, monkeypatch):
        # Each counted call is one batched walk over all 200 instances,
        # whatever their detectors' families: 3 single-spin circuits and 5
        # two-spin ones, and 3 ``psi`` circuits per environment dimension.
        calls = []
        real = circuits.outcome_distribution
        monkeypatch.setattr(circuits, "outcome_distribution", lambda *a: calls.append(a) or real(*a))
        reports = derivation._identity_reports(derivation.STEPS[-1].stream(42)[0], 1e-9, 200)
        assert len(reports) == len(identities.IDENTITY_NAMES)
        assert len(calls) <= 17
        groups = [_walk_group(tens) for tens, *_ in calls]
        assert max(groups.count(g) for g in groups) <= 11
        assert sum(len(tens) for tens, *_ in calls) == 200 * 11

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


class TestSteps:
    """The check registry: the paper's chain as one table of steps."""

    @staticmethod
    def context(seed=42):
        extra = (("w.txt", coordinate.uniform_wavefunction(0.0, 1.0, 200)),)
        return derivation.Context(seed, qcore.DEFAULT_TOL, derivation.DEFAULT_DYADIC_DEPTH, extra)

    def test_steps_are_in_paper_order(self):
        names = [step.names(self.context()) for step in derivation.STEPS]
        assert names[:3] == [("envariance",), ("lemma1", "lemma2"), ("lemma3[depth=20]",)]
        assert names[3] == tuple(f"theorem{t}[{label}]" for label, _ in standard_battery(42) for t in (1, 2))
        assert names[4] == ("isospin-born[gaussian]", "isospin-born[uniform]", "isospin-born[w.txt]")
        assert names[5] == tuple(f"identity:{name}" for name in identities.IDENTITY_NAMES)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_each_step_makes_exactly_its_declared_names(self, seed):
        ctx = self.context(seed)
        for step in derivation.STEPS:
            declared = step.names(ctx)
            made = step.run(ctx._replace(streams=step.stream(seed)), list(declared))
            assert sorted(r.name for r in made) == sorted(declared)

    def test_step_streams_are_pairwise_distinct(self):
        # Distinct from each other and from the battery's own stream, so a
        # skipped step leaves every other step's draws unchanged.
        streams = [s for step in derivation.STEPS for s in step.stream(42)]
        streams.append(np.random.SeedSequence((42, 0xD37)))
        assert len(streams) == 8
        assert len({tuple(s.generate_state(4)) for s in streams}) == len(streams)

    def test_one_selected_name_runs_only_its_step(self, monkeypatch):
        ran = []
        steps = tuple(
            step._replace(run=lambda ctx, selected, k=k, run=step.run: ran.append(k) or run(ctx, selected))
            for k, step in enumerate(derivation.STEPS)
        )
        monkeypatch.setattr(derivation, "STEPS", steps)
        ctx = self.context()
        for k, step in enumerate(steps):
            for name in {step.names(ctx)[0], step.names(ctx)[-1]}:
                ran.clear()
                assert [r.name for r in run_full_suite(42, subset=name, wavefunctions=list(ctx.wavefunctions))] == [name]
                assert ran == [k]

    def test_dropped_report_raises(self, monkeypatch):
        lemmas = derivation.STEPS[1]
        dropping = lemmas._replace(run=lambda ctx, selected: lemmas.run(ctx, selected)[1:])
        monkeypatch.setattr(derivation, "STEPS", (*derivation.STEPS[:1], dropping, *derivation.STEPS[2:]))
        with pytest.raises(RuntimeError, match=r"did not make selected reports \['lemma1'\]"):
            run_full_suite(seed=42, subset="lemma")


def _former_theorems(det, seed1, seed2, n_points=40, n_states=200):
    """The details of theorems 1 and 2 on one detector, as the former
    per-detector verifiers computed them: four-point tomography of the
    detector and its complement, scalar Bloch draws, and one oracle call
    per kind of probe."""

    def tomography(d):
        values = detectors.probe_fclick(d, np.vstack([np.zeros(3), np.eye(3)]))
        return values[1:] - float(values[0]), float(values[0])

    def mixtures(rng, count, size):
        weights, gaussians = [], []
        for _ in range(count):
            k = int(rng.integers(2, 5))
            w = rng.uniform(size=k)
            weights.append(w / w.sum())
            gaussians.append(rng.standard_normal((k, 2, size)))
        weights, members = np.concatenate(weights), qcore.normalized_amplitudes(np.concatenate(gaussians))
        starts = np.cumsum([0] + [len(g) for g in gaussians[:-1]])
        law = np.add.reduceat(weights * detectors.click_probabilities(det, members.reshape(len(members), 2, -1)), starts)
        return weights, members, starts, law

    alpha, beta = tomography(det)
    norm = float(np.linalg.norm(alpha))
    rng = np.random.default_rng(seed1)
    draws = []
    for _ in range(n_points):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        draws.append(rng.uniform() ** (1.0 / 3.0) * v)
    poles = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    points = np.array(poles + draws, dtype=float)
    dev_points = float(np.max(np.abs(detectors.probe_fclick(det, points) - (points @ alpha + beta))))
    weights, members, starts, law = mixtures(rng, 5, 4)
    polarizations = qcore.bloch_polarizations(members.reshape(-1, 2, 2))
    predicted = np.add.reduceat(weights[:, None] * polarizations, starts) @ alpha + beta
    th1 = {"pointwise_deviation": dev_points, "mixture_deviation": float(np.max(np.abs(law - predicted))),
           "alpha_norm": norm, "beta": beta}

    rng = np.random.default_rng(seed2)
    p_max, p_min = beta + norm, beta - norm
    axis = BlochVector.from_array(alpha / norm) if norm > qcore.DEGENERACY_TOL else BlochVector(0.0, 0.0, 1.0)
    phi_up, phi_down = qcore.eig2x2_hermitian(qcore.density_from_bloch(axis))[1].T
    extremes = detectors.click_probabilities(det, np.stack([phi_up, phi_down])[:, :, None])
    states = qcore.random_amplitudes((2,), n_states, rng)
    pure = detectors.click_probabilities(det, states[:, :, None])
    span = p_max - p_min
    weights, members, starts, law = mixtures(rng, 20, 2)
    overlaps = np.abs(members @ np.conj(phi_up)) ** 2
    alpha_down, beta_down = tomography(_complement(det))
    norm_down = float(np.linalg.norm(alpha_down))
    th2 = {
        "orthogonality": float(abs(np.vdot(phi_up, phi_down))),
        "extremal_deviation": float(np.max(np.abs(extremes - [p_max, p_min]))),
        "pure_state_deviation": float(np.max(np.abs(pure - (span * np.abs(states @ np.conj(phi_up)) ** 2 + p_min)))),
        "mixed_state_deviation": float(np.max(np.abs(law - (span * np.add.reduceat(weights * overlaps, starts) + p_min)))),
        "complement_deviation": max(
            abs((beta_down + norm_down) - (1.0 - p_min)),
            abs((beta_down - norm_down) - (1.0 - p_max)),
            float(np.max(np.abs(alpha_down + alpha))),
        ),
        "p_max": p_max,
        "p_min": p_min,
    }
    return th1, th2


def _complement(det):
    """A detector whose click is ``det``'s no-click, built from its model."""
    if isinstance(det, detectors.EffectDetector):
        return detectors.EffectDetector(qcore.IDENTITY_2 - det.effect)
    return detectors.AncillaDetector(det.ancilla_dim, det.coupling, np.eye(det.ancilla_dim) - det.projector)


def _walk_group(tens):
    """The group of a batched walk: the factor dims of its initial states,
    since detectors of every family share one walk."""
    return tens.shape[1:]
