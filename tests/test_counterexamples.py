import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornverifier import counterexamples as cx
from bornverifier import circuits, qcore, reporting

probabilities = st.floats(0.0, 1.0, allow_nan=False)


class TestP1:
    def test_threshold_cases(self):
        assert cx.p1_rule(0.75, 0.5) == 1.0
        assert cx.p1_rule(0.0, 0.5) == 0.0
        assert cx.p1_rule(0.0, 0.0) == 0.0  # strict inequality
        assert cx.p1_rule(0.5, 0.5) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cx.p1_rule(1.5, 0.5)
        with pytest.raises(ValueError):
            cx.p1_rule(0.5, -0.1)

    def test_grid_average_is_exact(self):
        # Midpoint grid integral of the indicator recovers p exactly.
        n = 10**6
        xs = (np.arange(n) + 0.5) / n
        total = np.count_nonzero(0.75 > xs)
        assert abs(total / n - 0.75) <= 1e-6

    def test_monte_carlo_rate(self):
        rng = np.random.default_rng(1)
        p = 0.37
        errors = []
        for n in (10**3, 10**5):
            xs = rng.uniform(size=n)
            errors.append(abs(np.mean([cx.p1_rule(p, x) for x in xs]) - p))
        # Two decades of samples buy about one decade of error.
        assert errors[1] < errors[0]
        assert errors[1] < 5.0 / math.sqrt(10**5)


class TestP2:
    def test_identity_operator_reduces_to_squared_amplitude(self):
        rng = np.random.default_rng(2)
        eye = np.eye(2, dtype=complex)
        phi_up, phi_down = cx.modified_outcome_pair(eye)
        for _ in range(20):
            psi = qcore.random_state((2,), rng).amplitudes
            assert cx.p2_rule(eye, phi_up, psi) == pytest.approx(
                abs(np.conj(phi_up) @ psi) ** 2, abs=1e-12
            )

    def test_worked_diagonal_example(self):
        a = np.diag([2.0, 2.0 / 3.0]).astype(complex)
        phi_up = np.array([1 / math.sqrt(2), 0], dtype=complex)
        phi_down = np.array([0, math.sqrt(1.5)], dtype=complex)
        psi = np.array([1.0, 0.0], dtype=complex)
        assert cx.p2_rule(a, phi_up, psi) == pytest.approx(1.0, abs=1e-12)
        assert cx.p2_rule(a, phi_down, psi) == pytest.approx(0.0, abs=1e-12)

    def test_outcome_pair_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            w = qcore.random_unitary(2, rng)
            eigvals = rng.uniform(0.2, 3.0, size=2)
            a = w @ np.diag(eigvals) @ w.conj().T
            phi_up, phi_down = cx.modified_outcome_pair(a, qcore.random_unitary(2, rng))
            psi = qcore.random_state((2,), rng).amplitudes
            total = cx.p2_rule(a, phi_up, psi) + cx.p2_rule(a, phi_down, psi)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_pair_satisfies_modified_orthonormality(self):
        a = np.diag([2.0, 2.0 / 3.0]).astype(complex)
        phi_up, phi_down = cx.modified_outcome_pair(a)
        assert (np.conj(phi_up) @ a @ phi_up).real == pytest.approx(1.0, abs=1e-12)
        assert (np.conj(phi_down) @ a @ phi_down).real == pytest.approx(1.0, abs=1e-12)
        assert abs(np.conj(phi_up) @ a @ phi_down) < 1e-12

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            cx.p2_rule(np.diag([1.0, 0.0]), np.array([1, 0]), np.array([1, 0]))
        with pytest.raises(ValueError):
            cx.p2_rule(np.array([[1, 1], [0, 1]]), np.array([1, 0]), np.array([1, 0]))


class TestP3:
    def test_fixed_points(self):
        assert cx.p3_rule(0.0) == 0.0
        assert cx.p3_rule(1.0) == 1.0
        assert cx.p3_rule(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_worked_value(self):
        assert cx.p3_rule(0.25) == pytest.approx(0.15625, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(probabilities)
    def test_complement_consistency(self, p):
        assert cx.p3_rule(p) + cx.p3_rule(1.0 - p) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_monotone_on_dense_grid(self):
        grid = np.linspace(0.0, 1.0, 5001)
        values = [cx.p3_rule(float(p)) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cx.p3_rule(-0.1)


class TestBattery:
    def test_reference_rule_passes_everything(self):
        result = cx.run_battery(cx.BornRule(), seed=42)
        assert result.passed
        assert set(result.status.values()) == {"pass"}
        assert result.born_deviation == 0.0

    def test_cubic_separation(self):
        result = cx.run_battery(cx.CubicRule(), seed=42)
        status = result.status
        deviations = dict(result.deviations)
        assert status["a5-decomposition"] == "fail"
        assert deviations["a5-decomposition"] > 1e-2
        assert deviations["a5-decomposition"] > 10 * result.tolerance
        for name in ("normalization", "causality", "nosignal-unitary", "nosignal-measure", "a1-extension"):
            assert status[name] == "pass", name
            assert deviations[name] <= 1e-9
        assert any("three attributions" in note for note in result.notes)

    def test_cubic_tilted_conditional_value(self):
        # Hand-computed two-branch decomposition at lambda = 0.3 with a
        # projective detector tilted 60 degrees from vertical:
        # lhs = p3(0.6), rhs = p3(0.7) p3(0.75) + p3(0.3) p3(0.25).
        lhs = cx.p3_rule(0.6)
        rhs = cx.p3_rule(0.7) * cx.p3_rule(0.75) + cx.p3_rule(0.3) * cx.p3_rule(0.25)
        expected_gap = abs(lhs - rhs)
        assert expected_gap == pytest.approx(0.04725, abs=1e-12)
        result = cx.run_battery(cx.CubicRule(), seed=42)
        assert dict(result.deviations)["a5-decomposition"] >= expected_gap - 1e-12

    def test_threshold_rule_flags_state_dependence(self):
        result = cx.run_battery(cx.rule_by_name("random1"), seed=42)
        assert result.status["normalization"] == "pass"
        assert result.status["a5-decomposition"] == "pass"
        assert result.born_deviation > 0.01
        assert any("state-function violation" in note for note in result.notes)

    def test_reused_threshold_rule_gives_identical_batteries(self):
        def document(rule):
            return reporting.canonical_json(cx.run_battery(rule, seed=42).to_dict())

        fresh = document(cx.rule_by_name("random1"))
        rule = cx.rule_by_name("random1")
        documents = [document(rule) for _ in range(30)]
        assert documents == [fresh] * 30
        assert rule == cx.rule_by_name("random1")

    def test_modified_rule_state_level_only(self):
        result = cx.run_battery(cx.rule_by_name("modified2"), seed=42)
        assert result.status["normalization"] == "pass"
        skipped = [k for k, v in result.status.items() if v == "skipped"]
        assert len(skipped) == 6
        assert result.born_deviation > 0.01

    def test_modified_identity_operator_is_born(self):
        rule = cx.ModifiedInnerRule(np.eye(2, dtype=complex))
        result = cx.run_battery(rule, seed=42)
        assert result.born_deviation < 1e-10

    def test_map_covers_all_identities(self):
        for name in ("born", "cubic3", "random1", "modified2"):
            result = cx.run_battery(cx.rule_by_name(name), seed=7)
            assert set(result.status) == set(cx.IDENTITY_NAMES)

    @pytest.mark.parametrize("name", ["born", "random1", "cubic3"])
    def test_bracket_evaluation_budget(self, name, monkeypatch):
        # Each of the 20 instances walks its 8 distinct state circuits and
        # its 3 a5 circuits once, and the tilted witness its 3.
        calls = []
        real = circuits.outcome_distribution
        monkeypatch.setattr(circuits, "outcome_distribution", lambda *a: calls.append(a) or real(*a))
        cx.run_battery(cx.rule_by_name(name, seed=3), seed=3)
        assert len(calls) == 20 * 11 + 3

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            cx.rule_by_name("bogus")


class TestBatteryResultInvariants:
    def test_incomplete_map_rejected(self):
        with pytest.raises(ValueError):
            cx.BatteryResult(
                rule="x",
                identity_status=(("normalization", "pass"),),
                deviations=(),
                born_deviation=0.0,
                tolerance=1e-9,
            )
