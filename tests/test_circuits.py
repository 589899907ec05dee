import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from bornverifier import circuits, derivation, detectors, dsl, identities, qcore
from bornverifier.circuits import Circuit, Gate, Measure, evaluate, evaluate_full, sg_measure
from bornverifier.identities import check_identity_a5_decomposition, check_identity_states
from bornverifier import counterexamples as cx
from bornverifier.counterexamples import CubicRule, p3_rule
from bornverifier.qcore import StateVector, spin_pair_state
from bornverifier.reporting import VerificationReport

UP = StateVector((2,), [1, 0])
GOLDEN = Path(__file__).parent / "golden"
# The reference apparatus with its down projector off by 1e-6.
SKEWED_PROJECTORS = circuits._PROJECTORS * np.array([1.0, 1.0 + 1e-6])[:, None, None, None]


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


def _states(det, psi=None, env_unitary=None, pair=None, sg_outcome="u", rule=None):
    """The six state identities by name, on fixed states where not given;
    with a ``rule`` that draws nothing, read through it by the batched
    check, with empty inputs strings."""
    psi = psi if psi is not None else spin_pair_state(0.3)
    env_unitary = env_unitary if env_unitary is not None else np.eye(psi.factor_dims[1])
    pair = pair if pair is not None else spin_pair_state(0.6)
    if rule is None:
        reports = check_identity_states(det, UP, UP, psi, env_unitary, pair, sg_outcome)
    else:
        reports = _read_one(rule, 0.0, det, UP, UP, psi, env_unitary, pair, sg_outcome)
    return {r.name.removeprefix("identity:"): r for r in reports}


def _read_one(rule, x, det, single, ancilla, psi, env_unitary, pair, sg_outcome, a5=None):
    """One instance's state identities, and with ``a5 = (u_spin, lam)`` its
    decomposition too, read through ``rule`` with the draw ``x`` by the
    batched checks on a batch of one: reports as the single-instance
    checks make them, with empty inputs strings."""
    probe = Measure(0, "m", det)
    batch = [state.as_tensor()[None] for state in (single, ancilla, pair)]
    deviations, b = identities.check_states(
        probe, *batch[:2], [psi.as_tensor()], [env_unitary], batch[2], [sg_outcome], rule, x
    )
    rows = [(deviation, b, keys) for deviation, keys in zip(deviations[:, 0], identities._DETAILS)]
    if a5 is not None:
        deviation, b5 = identities.check_a5([a5[1]], probe, (a5[0],), rule, x)
        rows.append((deviation[0], b5, tuple(b5)))
    return [
        VerificationReport.from_deviation(
            f"identity:{name}", "", deviation, qcore.DEFAULT_TOL, tuple((k, float(read[k][0])) for k in keys)
        )
        for name, (deviation, read, keys) in zip(identities.IDENTITY_NAMES, rows)
    ]


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
        assert names == [f"identity:{n}" for n in identities.IDENTITY_NAMES[:-1]]

    def test_single_instance_checks_its_circuits(self):
        # The batched walk checks nothing, so the single-instance checks
        # still run each circuit's checks on their inputs.
        det, pair = detectors.random_detector(np.random.default_rng(53)), spin_pair_state(0.3)
        four = StateVector((4,), [1, 0, 0, 0])
        with pytest.raises(ValueError, match="^only spin wires"):
            check_identity_states(det, four, UP, pair, np.eye(2), pair, "u")
        with pytest.raises(ValueError, match="^gate matrix shape"):
            check_identity_states(det, UP, UP, pair, np.eye(3), pair, "u")
        with pytest.raises(ValueError, match="^gate matrix is not unitary$"):
            check_identity_a5_decomposition(0.3, det, (np.diag([1.0, 0.5]),))
        with pytest.raises(ValueError, match="^sg_outcome must be one of"):
            check_identity_states(det, UP, UP, pair, np.eye(2), pair, "x")

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

    @pytest.mark.parametrize("family", ["effect", "ancilla"])
    def test_normalization_fails_on_a_skewed_no_click_model(self, family):
        # The no-click bracket is the oracle's own no-click reading, not
        # 1 - click: a detector whose no-click model is off by 1e-6 breaks
        # normalization and nothing else.
        det = detectors.random_effect_detector(5) if family == "effect" else detectors.random_ancilla_detector(5)
        skewed = object.__new__(type(det))
        vars(skewed)["_model"] = det._model * [[[1.0]], [[1.0 + 1e-6]]]
        fine, broken = _states(det), _states(skewed)
        assert fine["normalization"].passed
        assert not broken["normalization"].passed and broken["normalization"].max_deviation > 1e-8
        assert all(broken[name].passed for name in broken if name != "normalization")

    # Clicks on spin down, so the decomposition's down branch carries weight.
    DOWN_CLICKS = [detectors.EffectDetector(np.diag([0.0, 1.0])),
                   detectors.AncillaDetector(2, detectors.cnot_click_detector().coupling, np.diag([0.0, 1.0]))]

    @pytest.mark.parametrize("det", DOWN_CLICKS, ids=["effect", "ancilla"])
    def test_a5_decomposition_fails_on_a_skewed_down_projector(self, det, monkeypatch):
        # The decomposition weighs the down branch by the reference
        # apparatus's own down reading, not 1 - up: a down projector off
        # by 1e-6 breaks it.
        assert check_identity_a5_decomposition(0.5, det).passed
        monkeypatch.setattr(circuits, "_PROJECTORS", SKEWED_PROJECTORS)
        report = check_identity_a5_decomposition(0.5, det)
        assert not report.passed and report.max_deviation > 1e-7

    def test_suite_a5_decomposition_fails_on_a_skewed_down_projector(self, monkeypatch):
        (fine,) = derivation.run_full_suite(42, subset="identity:a5-decomposition")
        monkeypatch.setattr(circuits, "_PROJECTORS", SKEWED_PROJECTORS)
        (broken,) = derivation.run_full_suite(42, subset="identity:a5-decomposition")
        assert fine.passed and not broken.passed and broken.max_deviation > 1e-8

    @pytest.mark.parametrize("seed", [42, 7, 1234])
    def test_suite_normalization_reads_round_off(self, seed):
        # Click and no-click come from two models, so the suite's worst
        # normalization gap is round-off, not an exact 0.
        (report,) = derivation.run_full_suite(seed, subset="identity:normalization")
        assert 0.0 < report.max_deviation <= 1e-14

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
        assert {k: dataclasses.replace(r, inputs="") for k, r in reports.items()} == _states(
            det, psi=psi, env_unitary=u_env, pair=pair, rule=identities.BornRule()
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
        return (det, single, ancilla, psi, u_env, pair, sg_outcome), (u_spin, lam, rule.draw(rng))

    @staticmethod
    def table(drawn, rule):
        """The (7, N) deviation table and the single-spin clicks of drawn
        instances, checked in one batch per detector family and shape."""
        groups = {}
        for k, (states, _) in enumerate(drawn):
            groups.setdefault((type(states[0]), getattr(states[0], "ancilla_dim", 0)), []).append(k)
        table, brackets = np.zeros((7, len(drawn))), [None] * len(drawn)
        for index in groups.values():
            dets, single, ancilla, psi, u_env, pair, sg_outcome = zip(*(drawn[k][0] for k in index))
            u_spin, lam, x = zip(*(drawn[k][1] for k in index))
            probe = circuits.Measure(0, "m", detectors.ModelStacks.of(dets))
            tensors = [np.array([state.as_tensor() for state in column]) for column in (single, ancilla, pair)]
            states, b = identities.check_states(
                probe, *tensors[:2], [state.as_tensor() for state in psi], u_env, tensors[2], sg_outcome, rule, np.array(x)
            )
            a5, b5 = identities.check_a5(lam, probe, (np.stack(u_spin),), rule, np.array(x))
            table[:, index] = np.vstack([states, a5])
            for column, k in enumerate(index):
                brackets[k] = ({key: v[column] for key, v in b.items()}, {key: v[column] for key, v in b5.items()})
        return table, brackets, len(groups)

    def test_sweep_stacks_its_detectors_once(self, monkeypatch):
        # One ModelStacks serves the state checks, the ancilla-extended
        # states on another wire and the decomposition, so the sweep groups
        # its 200 models once.  Only the psi circuits, whose gate follows the
        # probe, need Kraus pairs: one stack per psi shape, on disjoint rows,
        # so that each row's pair is built exactly once.
        stacked, paired = [], []
        real_of, real_pairs = detectors.ModelStacks.of.__func__, detectors.kraus_pairs
        monkeypatch.setattr(
            detectors.ModelStacks, "of", classmethod(lambda cls, dets: stacked.append(len(dets)) or real_of(cls, dets))
        )
        monkeypatch.setattr(detectors, "kraus_pairs", lambda dets: paired.append(list(dets)) or real_pairs(dets))
        identities.sweep_identities(np.random.default_rng(42), 200)
        assert stacked == [200]
        assert len(paired) == 3  # environment dimensions 2, 3 and 4
        assert sum(len(dets) for dets in paired) == 200
        assert len({id(det) for dets in paired for det in dets}) == 200  # no detector twice

    def test_sweep_builds_no_state_objects(self, monkeypatch):
        # The sweep's states stay amplitude tensors from draw to walk.
        built = []
        real_trusted, real_init = StateVector._trusted.__func__, StateVector.__post_init__
        monkeypatch.setattr(
            StateVector, "_trusted", classmethod(lambda cls, *a: built.append(a) or real_trusted(cls, *a))
        )
        monkeypatch.setattr(StateVector, "__post_init__", lambda self: built.append(self) or real_init(self))
        identities.sweep_identities(np.random.default_rng(42), 200)
        assert len(built) == 0

    @pytest.mark.parametrize("rest", [1, 3, 8])
    def test_picked_rows_keep_their_lone_clicks(self, rest):
        # Bit for bit: a row picked from a measurement's ModelStacks, in any
        # order, repeated, or picked twice over, gets the clicks and the
        # Kraus pair of its detector alone.
        rng = np.random.default_rng(48)
        dets = detectors.build_detectors([detectors.draw_detector(rng) for _ in range(60)])
        dets[5] = dets[0]  # a shared detector serves two rows
        amps = qcore.random_amplitudes((2, rest), len(dets), rng).reshape(len(dets), 2, rest)
        lone = [detectors.click_probabilities(det, amps[i : i + 1]) for i, det in enumerate(dets)]
        lone_kraus = [detectors.kraus_pairs([det]) for det in dets]

        def assert_lone(measure, index):
            assert list(measure.detector.detectors) == [dets[i] for i in index]
            clicks = detectors.click_probabilities(measure.detector, amps[index])
            assert clicks.tobytes() == np.array([lone[i][0] for i in index]).tobytes()
            assert measure.kraus.shape == (2, len(index), 2, 2)
            for k, i in enumerate(index):
                assert measure.kraus[:, k].tobytes() == lone_kraus[i][:, 0].tobytes()

        measure = Measure(0, "m", detectors.ModelStacks.of(dets))
        assert_lone(measure, np.arange(60))
        picks = [np.arange(60), np.arange(60)[::-1], rng.permutation(60), rng.permutation(60)[:25],
                 np.flatnonzero(rng.uniform(size=60) < 0.3), np.array([7, 7, 3, 0, 5]), np.array([], dtype=int)]
        for index in picks:
            picked = measure.on_rows(index)
            assert_lone(picked, index)
            positions = np.arange(len(index))[::-2]  # a pick of the pick
            assert_lone(picked.on_rows(positions), index[positions])

    @pytest.mark.parametrize("seed", [42, 7, 1234])
    @pytest.mark.parametrize("rule_name", ["born", "cubic3", "random1"])
    def test_grouped_sweep_matches_per_instance_checks(self, seed, rule_name):
        rule = cx.rule_by_name(rule_name, seed=seed)
        instances = 60
        rng = np.random.default_rng(seed)
        drawn = [self.draw(rng, rule) for _ in range(instances)]
        single = [_read_one(rule, x, *states, a5=(u_spin, lam)) for states, (u_spin, lam, x) in drawn]
        if rule_name == "born":  # the single-instance checks are these batches of one
            for (states, (u_spin, lam, _)), reports in zip(drawn, single):
                public = check_identity_states(*states) + [check_identity_a5_decomposition(lam, states[0], (u_spin,))]
                assert [dataclasses.replace(r, inputs="") for r in public] == reports

        # Each column of the table is its instance's batch of one.
        table, brackets, groups = self.table(drawn, rule)
        assert groups == 3
        for k, reports in enumerate(single):
            for row, (one, deviation) in enumerate(zip(reports, table[:, k], strict=True)):
                assert deviation == pytest.approx(one.max_deviation, abs=1e-14), one.name
                read = brackets[k][row == 6]  # the decomposition reads its own brackets
                for key, expected in one.details:
                    assert read[key] == pytest.approx(expected, abs=1e-14), (one.name, key)

        worst, worst_instance, born_deviation = identities.sweep_identities(
            np.random.default_rng(seed), instances, rule=rule
        )
        for row, name in enumerate(identities.IDENTITY_NAMES):
            deviations = [reports[row].max_deviation for reports in single]
            assert worst[name] == pytest.approx(max(deviations), abs=1e-14), name
            # The argmax names an instance whose batch of one reaches the worst.
            assert deviations[worst_instance[name]] == pytest.approx(max(deviations), abs=1e-14), name
        clicks = [(dict(reports[0].details)["lhs"], d[1][2]) for reports, d in zip(single, drawn)]
        expected_born = max(abs(rule.compared(click, x) - click) for click, x in clicks)
        assert born_deviation == pytest.approx(expected_born, abs=1e-14)

    @pytest.mark.parametrize("seed", [42, 7, 1234])
    @pytest.mark.parametrize("rule_name", ["born", "cubic3", "random1"])
    def test_stacked_builds_match_per_instance_builds(self, seed, rule_name):
        # The sweep as it ran when each instance built its detector, states
        # and unitaries while drawing: the same groups and the same checks.
        rule = cx.rule_by_name(rule_name, seed=seed)
        rng = np.random.default_rng(seed)
        drawn = [self.draw(rng, rule) for _ in range(20)]
        table, brackets, _ = self.table(drawn, rule)
        names = identities.IDENTITY_NAMES
        clicks = [(float(states["lhs"]), extra[2]) for (states, _), (_, extra) in zip(brackets, drawn)]
        expected = (
            dict(zip(names, table.max(axis=1).tolist())),
            dict(zip(names, table.argmax(axis=1).tolist())),
            max(abs(rule.compared(click, x) - click) for click, x in clicks),
        )
        assert identities.sweep_identities(np.random.default_rng(seed), 20, rule=rule) == expected

    def test_sweep_needs_an_instance(self):
        with pytest.raises(ValueError, match="instances must be >= 1"):
            identities.sweep_identities(np.random.default_rng(0), 0)

    @pytest.mark.parametrize("options", [(2, 3, 4), ("u", "d"), (2, 4)])
    def test_indexed_draws_keep_the_stream_of_choice(self, options):
        # The sweep and ``draw_detector`` index by ``integers(n)`` where
        # they once called ``choice``: the same values and the same stream.
        chosen, indexed = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(1000):
            assert options[indexed.integers(len(options))] == chosen.choice(options)
        assert indexed.uniform() == chosen.uniform()

    def test_rows_walk_as_their_batches_of_one(self):
        # Bit for bit, for both families: a detector, a gate, then the
        # reference apparatus on a stack of single spins.
        rng = np.random.default_rng(7)
        for _ in range(20):
            det = detectors.random_detector(rng)
            states = [qcore.random_state((2,), rng) for _ in range(64)]
            steps = (Measure(0, "m", det), Gate((0,), qcore.random_unitary(2, rng)), Measure(0, "s"))
            stacked = circuits.outcome_distribution(np.array([psi.as_tensor() for psi in states]), steps)
            for i, psi in enumerate(states):
                alone = circuits.outcome_distribution(psi.as_tensor()[None], steps)
                assert list(alone) == list(stacked)
                for key, values in alone.items():
                    assert values[0] == stacked[key][i], (type(det).__name__, i, key)

    def test_ended_rows_next_to_live_rows(self):
        # Row 0: |uu>, whose "d" branch has zero probability, measured by a
        # detector that never clicks; row 1 is live everywhere.
        rng = np.random.default_rng(81)
        never = detectors.EffectDetector(np.zeros((2, 2)))
        live = detectors.random_effect_detector(rng)
        uu = StateVector((2, 2), [1, 0, 0, 0])
        other = qcore.random_state((2, 2), rng)
        steps = (Measure(1, "s"), Measure(0, "m", detectors.ModelStacks.of([never, live])))
        distribution = circuits.outcome_distribution(np.array([uu.as_tensor(), other.as_tensor()]), steps)

        assert np.isnan(distribution[("d",)][0]) and distribution[("d",)][1] == 0.0
        assert np.isnan(distribution[("u", "click")][0])
        assert distribution[("d", "click")][0] == 0.0
        assert distribution[("d", "noclick")][0] == 0.0
        assert distribution[("u", "noclick")][0] == 1.0
        assert circuits.mass(distribution, "d")[0] == 0.0
        assert circuits.mass(distribution, "u", "click")[0] == 0.0
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

    def test_circuit_rejects_batched_inputs(self):
        # Stacks of states, gates and detectors are the walk's own input; a
        # circuit is one state, and each error names what it was given.
        pair = qcore.random_state((2, 2), 82)
        with pytest.raises(TypeError, match="^a circuit takes one initial StateVector, not a list$"):
            Circuit([pair, pair], (Measure(0, "m"),))
        with pytest.raises(ValueError, match=r"^a circuit's gate takes one matrix, not a stack of shape \(3, 2, 2\)$"):
            Circuit(pair, (Gate((0,), np.stack([np.eye(2)] * 3)),))
        det = detectors.sg_up_detector()
        for given in ([det], (det,), detectors.ModelStacks.of([det]), "sg-up", np.eye(2)):
            with pytest.raises(
                TypeError, match=f"^a circuit's measurement takes one detector, not a {type(given).__name__}$"
            ):
                Circuit(pair, (Measure(0, "m", given),))


def _assert_post_states_change_nothing(tens, steps, fixed=None):
    """The walk of ``steps`` equals, bit for bit, the walk with a trailing
    identity gate, which builds the post states of every measurement."""
    fast = circuits.outcome_distribution(tens, steps, fixed)
    full = circuits.outcome_distribution(tens, (*steps, Gate((0,), np.eye(tens.shape[1]))), fixed)
    assert list(fast) == list(full)
    for key, values in fast.items():
        assert values.dtype == full[key].dtype and values.tobytes() == full[key].tobytes(), key


class TestLastMeasurement:
    """A measurement that ends its walk yields only its probabilities."""

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.qexp")), ids=lambda path: path.stem)
    def test_golden_walks(self, path):
        spec = dsl.parse_file(path)
        circuit = spec.to_circuit()
        for query in (None, *(spec.query(name) for name in sorted(spec.queries))):
            _assert_post_states_change_nothing(circuit.initial.as_tensor()[None], circuit.steps, query)

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_walks_with_mixed_detectors(self, seed):
        rng = np.random.default_rng(900 + seed)
        draws = [detectors.draw_detector(rng, ancilla_dim=int(rng.choice([2, 3, 4]))) for _ in range(10)]
        never, always = detectors.EffectDetector(np.zeros((2, 2))), detectors.EffectDetector(np.eye(2))
        cnot = detectors.cnot_click_detector().coupling
        ancilla_never, ancilla_always = (detectors.AncillaDetector(2, cnot, np.diag(p)) for p in ([0.0, 0.0], [1.0, 1.0]))
        dets = [*detectors.build_detectors(draws), never, always, never, always, ancilla_never, ancilla_always]
        # Random states for the never and always rows too, whose oracle
        # reads a click of 1 - 1.1e-16 on some: each outcome's model reads
        # its own probability, so the branch whose Kraus operator is 0
        # reads 0 whether or not a step follows.
        tens = np.array([qcore.random_state((2, 2, 3), rng).as_tensor() for _ in dets])
        probe = Measure(0, "m", detectors.ModelStacks.of(dets))
        u_env = np.stack([qcore.random_unitary(6, rng) for _ in dets])
        for steps in [
            (probe,),
            (Measure(0, "s"),),
            (Measure(1, "s"), probe),
            (Gate((0, 2), u_env), probe),
            (probe, Measure(1, "s")),
            (Measure(0, "s"), probe, Measure(1, "t")),
        ]:
            for fixed in (None, {"m": "click"}, {"m": "noclick"}, {"s": "u"}, {"s": "d", "t": "u"}):
                _assert_post_states_change_nothing(tens, steps, fixed)

    @pytest.mark.parametrize("effect", [np.zeros((2, 2)), np.eye(2), np.diag([1.0, 0.0])], ids=["never", "always", "up"])
    def test_zero_probability_branches(self, effect):
        det = detectors.EffectDetector(effect)
        tens = np.array([UP.as_tensor(), StateVector((2,), [0, 1]).as_tensor(), UP.as_tensor()])
        for steps in [(Measure(0, "m", det),), (Measure(0, "s"),), (Measure(0, "s"), Measure(0, "m", det))]:
            for fixed in (None, {"m": "click"}, {"m": "noclick"}, {"s": "d"}):
                _assert_post_states_change_nothing(tens, steps, fixed)
                _assert_post_states_change_nothing(tens[:1], steps, fixed)

    def test_live_branch_of_a_zero_kraus_operator(self):
        # The oracle reads "always" on this state as a click of 1 - 1.1e-16,
        # and its no-click, from the model 1 - E = 0, as 0: the no-click
        # branch, whose Kraus operator is 0, ends there, with no 0/0 post state.
        det, psi = detectors.EffectDetector(np.eye(2)), qcore.random_state((2,), 1)
        click, no_click = circuits.probabilities(psi.as_tensor().reshape(1, 2, 1), Measure(0, "m", det))[:, 0]
        assert 0.0 < 1.0 - click and no_click == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert evaluate(Circuit(psi, (Measure(0, "m", det), Gate((0,), np.eye(2)))), {"m": "noclick"}) == 0.0

    def test_a_lambda_reads_the_reference_branch(self):
        rng = np.random.default_rng(950)
        lam = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(size=9)])
        expected = circuits.branches(qcore.spin_pair_states(lam).reshape(-1, 2, 2), Measure(1, "s"))[0][0]
        dets = [detectors.random_detector(rng) for _ in lam]
        _, b = identities.check_a5(lam, Measure(0, "m", detectors.ModelStacks.of(dets)), (), identities.BORN, 0.0)
        assert b["a_lambda"].tobytes() == expected.tobytes()
        instances = [(det, qcore.random_bloch(rng), qcore.random_bloch(rng), float(x)) for det, x in zip(dets, lam)]
        _, details = derivation._lemma1(instances)
        assert details["a_lambda"].tobytes() == expected.tobytes()

    def test_no_click_of_always_reads_the_same_with_or_without_a_following_gate(self):
        source = (
            "wire w : 2\n"
            "detector always = effect [[1, 0], [0, 1]]\n"
            "unitary X = [[0, 1], [1, 0]]\n"
            "state s = sqrt(0.1)*|u> + sqrt(0.9)*|d>\n"
            "prepare s\n"
            "measure w det always -> m\n"
            "{gate}query q : m = noclick\n"
        )
        readings = []
        for gate in ("gate X on w\n", ""):
            spec = dsl.parse(source.format(gate=gate))
            readings.append(evaluate(spec.to_circuit(), spec.query("q")))
        assert readings == [0.0, 0.0]
