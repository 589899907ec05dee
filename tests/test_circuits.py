import numpy as np
import pytest

from bornverifier import circuits, detectors, qcore
from bornverifier.circuits import (
    Circuit,
    Gate,
    Measure,
    check_identity_a5_decomposition,
    check_identity_states,
    evaluate,
    evaluate_full,
    sg_measure,
)
from bornverifier import counterexamples as cx
from bornverifier.counterexamples import CubicRule, p3_rule
from bornverifier.qcore import StateVector, spin_pair_state

UP = StateVector((2,), [1, 0])


class TestSgMeasure:
    def test_correlated_pair_branches(self):
        records = sg_measure(spin_pair_state(0.25), 1)
        by_outcome = {r.outcome: r for r in records}
        assert by_outcome["u"].probability == pytest.approx(0.75, abs=1e-12)
        assert by_outcome["d"].probability == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(
            np.abs(by_outcome["u"].post_state.amplitudes), [1, 0, 0, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            np.abs(by_outcome["d"].post_state.amplitudes), [0, 0, 0, 1], atol=1e-12
        )

    def test_pure_up_is_certain(self):
        records = sg_measure(UP, 0)
        probs = {r.outcome: r.probability for r in records}
        assert probs["u"] == 1.0
        assert probs["d"] == 0.0

    def test_balanced_pair(self):
        records = sg_measure(qcore.bell_state(), 0)
        assert records[0].probability == pytest.approx(0.5, abs=1e-12)

    def test_zero_branch_has_no_post_state(self):
        records = sg_measure(UP, 0)
        down = next(r for r in records if r.outcome == "d")
        assert down.post_state is None

    def test_branches_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            psi = qcore.random_state((2, 3), rng)
            records = sg_measure(psi, 0)
            assert all(r.probability >= 0 for r in records)
            assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)

    def test_wire_out_of_range(self):
        with pytest.raises(ValueError):
            sg_measure(UP, 3)


class TestDetectorMeasure:
    def test_probability_matches_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            det = detectors.random_detector(rng)
            psi = qcore.random_state((2, 2), rng)
            records = circuits.detector_measure(psi, 0, det)
            click = next(r for r in records if r.outcome == "click")
            assert click.probability == pytest.approx(
                detectors.click_probability(det, psi, 0), abs=1e-12
            )
            assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)
            for r in records:
                if r.post_state is not None:
                    assert abs(np.linalg.norm(r.post_state.amplitudes) - 1) < 1e-10


class TestEvaluate:
    def test_prepared_eigenstate(self):
        circuit = Circuit(UP, (Measure(0, "m"),))
        assert evaluate(circuit, {"m": "u"}) == 1.0

    def test_correlated_pair_chain(self):
        circuit = Circuit(
            spin_pair_state(0.25), (Measure(1, "a"), Measure(0, "b"))
        )
        assert evaluate(circuit, {"a": "u", "b": "u"}) == pytest.approx(0.75, abs=1e-12)
        assert evaluate(circuit, {"a": "u", "b": "d"}) == 0.0

    def test_fully_marginalized_is_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            psi = qcore.random_state((2, 2, 2), rng)
            circuit = Circuit(
                psi,
                (
                    Gate((1,), qcore.random_unitary(2, rng)),
                    Measure(0, "a"),
                    Measure(2, "b", detectors.random_detector(rng)),
                    Measure(1, "c"),
                ),
            )
            assert evaluate(circuit, None) == pytest.approx(1.0, abs=1e-10)

    def test_identity_gate_insertion_is_invariant(self):
        rng = np.random.default_rng(11)
        psi = qcore.random_state((2, 2), rng)
        u = qcore.random_unitary(2, rng)
        base = Circuit(psi, (Gate((0,), u), Measure(0, "m")))
        padded = Circuit(
            psi,
            (
                Gate((1,), np.eye(2, dtype=complex)),
                Gate((0,), u),
                Gate((0, 1), np.eye(4, dtype=complex)),
                Measure(0, "m"),
            ),
        )
        assert abs(evaluate(base, {"m": "u"}) - evaluate(padded, {"m": "u"})) < 1e-12

    def test_disjoint_gates_commute(self):
        rng = np.random.default_rng(12)
        psi = qcore.random_state((2, 2), rng)
        u0 = qcore.random_unitary(2, rng)
        u1 = qcore.random_unitary(2, rng)
        ab = Circuit(psi, (Gate((0,), u0), Gate((1,), u1), Measure(0, "m")))
        ba = Circuit(psi, (Gate((1,), u1), Gate((0,), u0), Measure(0, "m")))
        assert abs(evaluate(ab, {"m": "u"}) - evaluate(ba, {"m": "u"})) < 1e-12

    def test_zero_probability_conditioning_flagged(self):
        circuit = Circuit(UP, (Measure(0, "m"),))
        result = evaluate_full(circuit, {"m": "d"})
        assert result.probability == 0.0
        assert result.conditional_undefined
        assert result.undefined_labels == ("m",)
        # Conditioning mid-circuit on the impossible branch.
        chained = Circuit(
            spin_pair_state(0.0), (Measure(1, "a"), Measure(0, "b"))
        )
        result = evaluate_full(chained, {"a": "d", "b": "d"})
        assert result.probability == 0.0
        assert result.conditional_undefined

    def test_query_mapping_order_and_absent_query(self):
        circuit = Circuit(spin_pair_state(0.3), (Measure(1, "a"), Measure(0, "b")))
        forward = evaluate_full(circuit, {"a": "u", "b": "u"})
        assert evaluate_full(circuit, {"b": "u", "a": "u"}) == forward
        assert forward.probability == pytest.approx(0.7, abs=1e-12)
        assert evaluate(circuit, None) == evaluate(circuit, {}) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_label_rejected(self):
        circuit = Circuit(UP, (Measure(0, "m"),))
        with pytest.raises(ValueError):
            evaluate(circuit, {"nope": "u"})

    def test_invalid_outcome_rejected(self):
        circuit = Circuit(UP, (Measure(0, "m"),))
        with pytest.raises(ValueError):
            evaluate(circuit, {"m": "click"})

    def test_gate_wire_order_semantics(self):
        # The first listed wire is the most significant index of the
        # gate matrix.
        rng = np.random.default_rng(14)
        psi = qcore.random_state((2, 2, 2), rng)
        u = qcore.random_unitary(4, rng)
        out = circuits.apply_unitary(psi, (2, 0), u)
        oracle = psi.as_tensor().transpose(2, 0, 1).reshape(4, 2)
        oracle = (u @ oracle).reshape(2, 2, 2).transpose(1, 2, 0)
        np.testing.assert_allclose(out.as_tensor(), oracle, atol=1e-14)

    def test_apply_unitary_rejects_norm_change(self):
        psi = qcore.random_state((2, 2), 15)
        for matrix in (0.5 * qcore.IDENTITY_2, np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="not unitary"):
                circuits.apply_unitary(psi, (1,), matrix)

    def test_gate_after_measure_allowed(self):
        psi = qcore.random_state((2, 2), 13)
        circuit = Circuit(
            psi, (Measure(0, "m"), Gate((1,), qcore.SIGMA_X))
        )
        base = Circuit(psi, (Measure(0, "m"),))
        assert evaluate(circuit, {"m": "u"}) == pytest.approx(
            evaluate(base, {"m": "u"}), abs=1e-12
        )


class TestCircuitValidation:
    def test_non_unitary_gate_rejected(self):
        with pytest.raises(ValueError):
            Circuit(UP, (Gate((0,), np.array([[1, 1], [0, 1]], dtype=complex)),))

    def test_wire_range_checked(self):
        with pytest.raises(ValueError):
            Circuit(UP, (Measure(1, "m"),))

    def test_duplicate_labels_rejected(self):
        psi = qcore.random_state((2, 2), 3)
        with pytest.raises(ValueError):
            Circuit(psi, (Measure(0, "m"), Measure(1, "m")))

    def test_gate_dimension_mismatch(self):
        psi = qcore.random_state((2, 3), 3)
        with pytest.raises(ValueError):
            Circuit(psi, (Gate((1,), np.eye(2, dtype=complex)),))

    def test_measure_requires_spin(self):
        psi = qcore.random_state((2, 3), 3)
        with pytest.raises(ValueError):
            Circuit(psi, (Measure(1, "m"),))


def _states(det, psi=None, env_unitary=None, pair=None, sg_outcome="u", **kw):
    """The six state identities by name, on fixed states where not given."""
    psi = psi if psi is not None else spin_pair_state(0.3)
    env_unitary = env_unitary if env_unitary is not None else np.eye(psi.factor_dims[1])
    pair = pair if pair is not None else spin_pair_state(0.6)
    reports = check_identity_states(det, UP, UP, psi, env_unitary, pair, sg_outcome, **kw)
    return {r.name.removeprefix("identity:"): r for r in reports}


class TestIdentityFamilies:
    """Ground-truth identity checks over many random instances."""

    N = 1000

    def test_all_families_pass_at_tolerance(self):
        rng = np.random.default_rng(2024)
        worst = {}
        for _ in range(self.N):
            det = detectors.random_detector(rng)
            env = int(rng.choice([2, 3]))
            psi = qcore.random_state((2, env), rng)
            pair = qcore.random_state((2, 2), rng)
            single = qcore.random_state((2,), rng)
            phi = qcore.random_state((2,), rng)
            u_env = qcore.random_unitary(env, rng)
            sg_outcome = str(rng.choice(["u", "d"]))
            # ``None`` measures with the reference apparatus instead.
            reports = [
                *check_identity_states(det, single, phi, psi, u_env, pair, sg_outcome),
                *check_identity_states(None, single, phi, psi, u_env, pair, sg_outcome),
                check_identity_a5_decomposition(float(rng.uniform()), det),
            ]
            for report in reports:
                assert report.passed, (report.name, report.max_deviation)
                worst[report.name] = max(
                    worst.get(report.name, 0.0), report.max_deviation
                )
        assert len(worst) == 7
        assert all(v <= 1e-9 for v in worst.values())

    def test_states_in_identity_order(self):
        det = detectors.random_detector(np.random.default_rng(52))
        reports = check_identity_states(
            det, UP, UP, spin_pair_state(0.3), np.eye(2), spin_pair_state(0.6), "d"
        )
        names = [r.name for r in reports]
        assert names == [f"identity:{n}" for n in circuits.IDENTITY_NAMES[:-1]]

    def test_a5_decomposition_edge_weights(self):
        det = detectors.random_detector(np.random.default_rng(50))
        for lam in (0.0, 1.0):
            report = check_identity_a5_decomposition(lam, det)
            assert report.passed
            details = dict(report.details)
            assert details["a_lambda"] == pytest.approx(1.0 - lam, abs=1e-12)

    def test_nosignal_unitary_with_countertransformation(self):
        # The environment-side inverse of a spin-side rotation must also
        # leave the click probability unchanged.
        rng = np.random.default_rng(51)
        det = detectors.random_detector(rng)
        basis_a = qcore.random_unitary(2, rng)
        basis_b = qcore.random_unitary(2, rng)
        psi = StateVector.from_amplitudes(
            (2, 2),
            0.8 * np.kron(basis_a[:, 0], basis_b[:, 0])
            + 0.6 * np.kron(basis_a[:, 1], basis_b[:, 1]),
        )
        counter = qcore.envariance_unitary(
            basis_b[:, 0], basis_b[:, 1], basis_b[:, 1], basis_b[:, 0]
        )
        report = _states(det, psi=psi, env_unitary=counter)["nosignal-unitary"]
        assert report.passed

    def test_multiplication_on_reference_pair(self):
        # Assumption-5 post-states make the chain rule exact on the pair.
        det = detectors.sg_up_detector()
        for lam in (0.0, 0.3, 0.75, 1.0):
            report = _states(det, pair=spin_pair_state(lam))["multiplication"]
            assert report.passed


class TestRuleReadings:
    """The comparisons read brackets through a rule; the Born rule is the
    default."""

    @staticmethod
    def cubic_instance():
        rng = np.random.default_rng(77)
        det = detectors.random_detector(rng)
        psi = qcore.random_state((2, 3), rng)
        pair = qcore.random_state((2, 2), rng)
        return det, psi, qcore.random_unitary(3, rng), pair

    def test_born_brackets_pass(self):
        det, psi, u_env, pair = self.cubic_instance()
        reports = _states(det, psi=psi, env_unitary=u_env, pair=pair)
        assert all(r.passed for r in reports.values())
        assert reports == _states(
            det, psi=psi, env_unitary=u_env, pair=pair, rule=circuits.BornRule()
        )

    def test_cubic_brackets_break_additivity_under_multiplication(self):
        # p3 is not additive: the unread bracket read through p3 is not the
        # sum of the two joint brackets read through p3.  That is the
        # classical sum rule, so multiplication fails; an unread
        # measurement still leaves the click bracket unchanged.
        det, psi, u_env, pair = self.cubic_instance()
        reports = _states(det, psi=psi, env_unitary=u_env, pair=pair, rule=CubicRule())
        two_step = Circuit(pair, (Measure(1, "s"), Measure(0, "m", det)))
        unread = evaluate(two_step, {"m": "click"})
        up = evaluate(two_step, {"s": "u", "m": "click"})
        down = evaluate(two_step, {"s": "d", "m": "click"})
        gap = abs(p3_rule(unread) - p3_rule(up) - p3_rule(down))
        assert gap > 1e-3
        multiplication = reports["multiplication"]
        assert multiplication.max_deviation >= gap - 1e-15
        assert multiplication.max_deviation > multiplication.tolerance
        assert not multiplication.passed
        assert reports["nosignal-measure"].max_deviation <= reports["nosignal-measure"].tolerance


class TestBatchedWalk:
    """The grouped sweep and the batched walk against per-instance loops
    over their batches of one."""

    @staticmethod
    def draw(rng, rule):
        """One instance, drawn in the sweep's stream order."""
        det = detectors.random_detector(rng)
        env = int(rng.choice([2, 3, 4]))
        psi, pair, single, ancilla = (qcore.random_state(d, rng) for d in ((2, env), (2, 2), (2,), (2,)))
        sg_outcome = str(rng.choice(["u", "d"]))
        u_env, u_spin = qcore.random_unitary(env, rng), qcore.random_unitary(2, rng)
        lam = float(rng.uniform())
        return (det, single, ancilla, psi, u_env, pair, sg_outcome), (u_spin, lam, rule.for_instance(rng))

    @pytest.mark.parametrize("seed", [42, 7, 1234])
    @pytest.mark.parametrize("rule_name", ["born", "cubic3", "random1"])
    def test_grouped_sweep_matches_per_instance_checks(self, seed, rule_name):
        rule = cx.rule_by_name(rule_name, seed=seed)
        instances = 60
        rng = np.random.default_rng(seed)
        drawn = [self.draw(rng, rule) for _ in range(instances)]
        single = [
            check_identity_states(*states, rule=reading)
            + [check_identity_a5_decomposition(lam, states[0], (u_spin,), rule=reading)]
            for states, (u_spin, lam, reading) in drawn
        ]

        groups = {}
        for k, (states, _) in enumerate(drawn):
            groups.setdefault((type(states[0]), getattr(states[0], "ancilla_dim", 0)), []).append(k)
        assert len(groups) == 3
        for index in groups.values():
            columns = list(zip(*(drawn[k][0] for k in index)))
            u_spin, lam, readings = zip(*(drawn[k][1] for k in index))
            states = circuits._check_states(*columns, 1e-9, readings)
            a5 = circuits._check_a5(lam, columns[0], (np.stack(u_spin),), 1e-9, readings)
            for k, grouped in zip(index, (r + [a] for r, a in zip(states, a5))):
                for one, many in zip(single[k], grouped, strict=True):
                    assert (many.name, many.inputs) == (one.name, one.inputs)
                    assert many.max_deviation == pytest.approx(one.max_deviation, abs=1e-14)
                    assert [key for key, _ in many.details] == [key for key, _ in one.details]
                    for (key, value), (_, expected) in zip(many.details, one.details):
                        assert value == pytest.approx(expected, abs=1e-14), (one.name, key)

        worst, born_deviation = circuits.sweep_identities(np.random.default_rng(seed), instances, rule=rule)
        for name in circuits.IDENTITY_NAMES:
            expected = max(r.max_deviation for reports in single for r in reports
                           if r.name == f"identity:{name}")
            assert worst[name] == pytest.approx(expected, abs=1e-14), name
        clicks = [(dict(reports[0].details)["lhs"], d[1][2]) for reports, d in zip(single, drawn)]
        expected_born = max(abs(reading.compared(click) - click) for click, reading in clicks)
        assert born_deviation == pytest.approx(expected_born, abs=1e-14)

    @pytest.mark.parametrize("seed", [42, 7, 1234])
    @pytest.mark.parametrize("rule_name", ["born", "cubic3", "random1"])
    def test_stacked_builds_match_per_instance_builds(self, seed, rule_name):
        # The sweep as it ran when each instance built its detector, states
        # and unitaries while drawing: the same groups and the same checks.
        rule = cx.rule_by_name(rule_name, seed=seed)
        rng = np.random.default_rng(seed)
        groups = {}
        for states, extra in (self.draw(rng, rule) for _ in range(20)):
            key = (type(states[0]), getattr(states[0], "ancilla_dim", 0))
            groups.setdefault(key, []).append(states + extra)
        worst = dict.fromkeys(circuits.IDENTITY_NAMES, 0.0)
        born_deviation = 0.0
        for group in groups.values():
            *columns, u_spin, lam, readings = zip(*group)
            states = circuits._check_states(*columns, 1e-9, readings)
            a5 = circuits._check_a5(lam, columns[0], (np.stack(u_spin),), 1e-9, readings)
            for reports, reading in zip((r + [a] for r, a in zip(states, a5)), readings):
                for report in reports:
                    name = report.name.removeprefix("identity:")
                    worst[name] = max(worst[name], report.max_deviation)
                click = dict(reports[0].details)["lhs"]
                born_deviation = max(born_deviation, abs(reading.compared(click) - click))

        swept = circuits.sweep_identities(np.random.default_rng(seed), 20, rule=rule)
        assert swept == (worst, born_deviation)

    def test_rows_walk_as_their_batches_of_one(self):
        # Bit for bit, for both families: a detector, a gate, then the
        # reference apparatus on a stack of single spins.
        rng = np.random.default_rng(7)
        for _ in range(20):
            det = detectors.random_detector(rng)
            states = [qcore.random_state((2,), rng) for _ in range(64)]
            steps = (Measure(0, "m", det), Gate((0,), qcore.random_unitary(2, rng)), Measure(0, "s"))
            stacked = circuits.outcome_distribution(Circuit(states, steps))
            for i, psi in enumerate(states):
                alone = circuits.outcome_distribution(Circuit(psi, steps))
                assert list(alone) == list(stacked)
                for key, values in alone.items():
                    assert values[0] == stacked[key][i], (type(det).__name__, i, key)

    def test_ended_rows_next_to_live_rows(self):
        # Row 0: |uu>, whose "d" branch has zero probability, measured by a
        # detector that never clicks; row 1 is live everywhere.
        rng = np.random.default_rng(81)
        never = detectors.EffectDetector(np.zeros((2, 2)))
        live = detectors.random_effect_detector(rng)
        uu = qcore.basis_state((2, 2), (0, 0))
        other = qcore.random_state((2, 2), rng)
        steps = (Measure(1, "s"), Measure(0, "m", [never, live]))
        distribution = circuits.outcome_distribution(Circuit([uu, other], steps))

        assert np.isnan(distribution[("d",)][0]) and distribution[("d",)][1] == 0.0
        assert np.isnan(distribution[("u", "click")][0])
        assert distribution[("d", "click")][0] == 0.0
        assert distribution[("d", "noclick")][0] == 0.0
        assert distribution[("u", "noclick")][0] == 1.0
        assert circuits._mass(distribution, "d")[0] == 0.0
        assert circuits._mass(distribution, "u", "click")[0] == 0.0
        single = Circuit(other, (Measure(1, "s"), Measure(0, "m", live)))
        for key, values in distribution.items():
            if len(key) == 2:
                query = {"s": key[0], "m": key[1]}
                assert values[1] == pytest.approx(evaluate(single, query), abs=1e-15)

        one = Circuit(uu, (Measure(1, "s"), Measure(0, "m", never)))
        assert evaluate_full(one, {"s": "d", "m": "click"}).undefined_labels == ("s",)
        assert evaluate_full(one, {"m": "click"}).undefined_labels == ("m",)
        assert evaluate_full(one, {"m": "click"}).probability == 0.0
        records = circuits.detector_measure(uu, 0, never)
        assert [(r.probability, r.post_state) for r in records][0] == (0.0, None)

    def test_stacked_gate_and_detectors_need_one_per_row(self):
        pair = qcore.random_state((2, 2), 82)
        with pytest.raises(ValueError):
            Circuit([pair, pair], (Gate((0,), np.stack([np.eye(2)] * 3)),))
        with pytest.raises(ValueError):
            Circuit([pair, pair], (Measure(0, "m", [detectors.sg_up_detector()]),))
        with pytest.raises(ValueError):
            Circuit([pair, UP], (Measure(0, "m"),))
