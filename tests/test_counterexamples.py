import math
import re

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
            errors.append(abs(np.mean(cx.p1_rule(p, xs)) - p))
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


def reference_p2(a, phi, psi):
    """The scalar rule as it read before ``p2_rules``, kept verbatim as
    the reference."""
    denom = float(np.real(np.conj(psi) @ a @ psi))
    num = abs(np.conj(phi) @ a @ psi) ** 2
    return float(num / denom)


def reference_modified_battery(a, seed):
    """(norm_dev, born_dev) of the former scalar ``_modified_battery`` loop."""
    rng = qcore.as_rng(np.random.SeedSequence((seed, 0x2)))
    phi_up, phi_down = cx.modified_outcome_pair(a)
    unit_up = phi_up / np.linalg.norm(phi_up)
    norm_dev = born_dev = 0.0
    for psi in qcore.random_amplitudes((2,), 200, rng):
        up, down = reference_p2(a, phi_up, psi), reference_p2(a, phi_down, psi)
        norm_dev = max(norm_dev, abs(up + down - 1.0))
        born_dev = max(born_dev, abs(up - abs(np.conj(unit_up) @ psi) ** 2))
    return norm_dev, born_dev


# A positive Hermitian operator with complex off-diagonal entries.
NON_DIAGONAL = np.array([[2.0, 0.3 - 0.4j], [0.3 + 0.4j, 0.7]])


def battery_deviations(a, seed):
    result = cx._modified_battery(cx.ModifiedInnerRule(a), seed, qcore.DEFAULT_TOL)
    return dict(result.deviations)["normalization"], result.born_deviation


class TestP2Rules:
    @pytest.mark.parametrize("a", [np.diag([2.0, 2.0 / 3.0]), NON_DIAGONAL], ids=["diagonal", "non-diagonal"])
    def test_rows_are_their_batches_of_one_and_the_reference(self, a):
        rng = np.random.default_rng(8)
        psis = qcore.random_amplitudes((2,), 300, rng)
        phis = np.stack([*cx.modified_outcome_pair(a), rng.standard_normal(2) + 1j * rng.standard_normal(2)])
        table = cx.p2_rules(a, phis, psis)
        assert table.shape == (300, 3)
        for n, psi in enumerate(psis):
            for k, phi in enumerate(phis):
                assert table[n, k] == cx.p2_rule(a, phi, psi) == reference_p2(a, phi, psi)

    @pytest.mark.parametrize("seed", [42, 7, 1234])
    def test_battery_equals_the_scalar_loop_to_the_bit(self, seed):
        a = cx.rule_by_name("modified2").operator
        assert battery_deviations(a, seed) == reference_modified_battery(a, seed)

    def test_non_diagonal_battery_within_two_ulp_of_the_scalar_loop(self):
        # The deviations difference O(1) probabilities, so an ulp of 1 is
        # their unit of rounding.
        for seed in range(50):
            got = battery_deviations(NON_DIAGONAL, seed)
            want = reference_modified_battery(NON_DIAGONAL, seed)
            assert np.all(np.abs(np.subtract(got, want)) <= 2 * np.spacing(1.0)), seed

    def test_battery_checks_the_operator_once(self, monkeypatch):
        rule = cx.rule_by_name("modified2")
        calls = []
        real = qcore.check_matrix
        monkeypatch.setattr(qcore, "check_matrix", lambda *a: calls.append(a) or real(*a))
        cx._modified_battery(rule, 42, qcore.DEFAULT_TOL)
        assert 1 <= len(calls) <= 3

    def test_non_positive_operator_rejected(self):
        psis = qcore.random_amplitudes((2,), 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="^modified-product operator must be positive definite$"):
            cx.p2_rules(np.diag([1.0, -1.0]), psis[:2], psis)

    def test_state_of_non_positive_modified_norm_rejected(self):
        psis = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="^state has non-positive modified norm$"):
            cx.p2_rules(np.eye(2), psis[:1], psis)
        with pytest.raises(ValueError, match="^state has non-positive modified norm$"):
            cx.p2_rule(np.eye(2), psis[0], psis[1])


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


class TestRuleContract:
    """A rule reads (N,) brackets elementwise: each entry of an array
    reading is the scalar reading of that entry, to the bit."""

    RULES = ["born", "cubic3", "random1"]

    @staticmethod
    def brackets():
        """About 1,000 brackets and draws, with 0, 1 and ties p == x."""
        rng = np.random.default_rng(2401)
        p, x = rng.uniform(size=(2, 1000))
        p[:4], x[:4] = [0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]
        x[4:300:3] = p[4:300:3]
        return p, x

    @pytest.mark.parametrize("rule_name", RULES)
    def test_array_readings_equal_scalar_readings_bit_for_bit(self, rule_name):
        rule = cx.rule_by_name(rule_name)
        p, x = self.brackets()
        for read in (rule.compared, rule.combined):
            scalar = np.array([read(float(a), float(b)) for a, b in zip(p, x)], dtype=float)
            assert np.asarray(read(p, x), dtype=float).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("rule_name", RULES)
    def test_draw_takes_what_a_reading_object_took(self, rule_name):
        # random1 draws one uniform value per instance; born and cubic3
        # draw nothing and read with 0.0.
        rule = cx.rule_by_name(rule_name)
        drawn, reference = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(5):
            expected = float(reference.uniform()) if rule_name == "random1" else 0.0
            assert rule.draw(drawn) == expected
        assert drawn.uniform() == reference.uniform()

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), -1e-300])
    @pytest.mark.parametrize("at", [0, 7, 999])
    def test_any_out_of_range_entry_raises(self, bad, at):
        p, x = self.brackets()
        p_bad, x_bad = p.copy(), x.copy()
        p_bad[at], x_bad[at] = bad, bad
        with pytest.raises(ValueError, match=f"^probability out of range: {bad}$"):
            cx.p1_rule(p_bad, x)
        with pytest.raises(ValueError, match=f"^stream value out of range: {bad}$"):
            cx.p1_rule(p, x_bad)
        with pytest.raises(ValueError, match=f"^probability out of range: {bad}$"):
            cx.p3_rule(p_bad)

    @pytest.mark.parametrize("bad, shown", [(1.5, "1.5"), (-0.1, "-0.1"), (float("nan"), "nan"),
                                            (1e20, "1e+20"), (2, "2"), (float("inf"), "inf")])
    def test_scalar_messages_are_unchanged(self, bad, shown):
        with pytest.raises(ValueError, match=f"^probability out of range: {re.escape(shown)}$"):
            cx.p1_rule(bad, 0.5)
        with pytest.raises(ValueError, match=f"^stream value out of range: {re.escape(shown)}$"):
            cx.p1_rule(0.5, bad)
        with pytest.raises(ValueError, match=f"^probability out of range: {re.escape(shown)}$"):
            cx.p3_rule(bad)


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
        # Each counted call is one batched walk: the 20 instances walk
        # their 11 circuits as one batch whatever their detectors'
        # families (the ``psi`` circuits per environment dimension), and
        # the tilted witness walks its 3 as batches of one.
        calls = []
        real = circuits.outcome_distribution
        monkeypatch.setattr(circuits, "outcome_distribution", lambda *a: calls.append(a) or real(*a))
        cx.run_battery(cx.rule_by_name(name, seed=3), seed=3)
        assert len(calls) <= 17 + 3
        assert sum(len(tens) for tens, *_ in calls) == 20 * 11 + 3
        groups = [_walk_group(tens) for tens, *_ in calls]
        assert max(groups.count(g) for g in groups) <= 11

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


def _walk_group(tens):
    """The group of a batched walk: the factor dims of its initial states,
    since detectors of every family share one walk."""
    return tens.shape[1:]
