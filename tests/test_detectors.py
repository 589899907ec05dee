
import weakref

import numpy as np
import pytest

from bornverifier import circuits, derivation, detectors, qcore
from bornverifier.detectors import (
    AffineResponse,
    AncillaDetector,
    EffectDetector,
    click_probabilities,
    click_probability,
    cnot_click_detector,
    complement_detector,
    equivalent_effect,
    extract_affine,
    linear_extension,
    mixed_click_probability,
    probe_fclick,
    random_ancilla_detector,
    random_detector,
    random_effect_detector,
    sg_up_detector,
    to_povm,
)
from bornverifier.qcore import BlochVector, StateVector, spin_pair_state, tensor_product

UP = StateVector((2,), [1, 0])
DOWN = StateVector((2,), [0, 1])


class TestClickProbability:
    def test_projective_eigenstate(self):
        psi = tensor_product(UP, qcore.random_state((3,), 1))
        assert click_probability(sg_up_detector(), psi, 0) == pytest.approx(1.0, abs=1e-12)

    def test_trivial_half_effect(self):
        det = EffectDetector(qcore.IDENTITY_2 / 2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            psi = qcore.random_state((2, 4), rng)
            assert click_probability(det, psi, 0) == pytest.approx(0.5, abs=1e-12)

    def test_ancilla_copy_model_on_pair(self):
        assert click_probability(
            cnot_click_detector(), spin_pair_state(0.25), 0
        ) == pytest.approx(0.75, abs=1e-12)

    def test_ancilla_matches_equivalent_effect(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            det = random_ancilla_detector(rng)
            eq = EffectDetector(equivalent_effect(det))
            psi = qcore.random_state((2, int(rng.integers(2, 5))), rng)
            assert click_probability(det, psi, 0) == pytest.approx(
                click_probability(eq, psi, 0), abs=1e-10
            )

    def test_single_spin_states_accepted(self):
        det = sg_up_detector()
        assert click_probability(det, UP, 0) == 1.0
        assert click_probability(det, DOWN, 0) == 0.0


class TestProbe:
    def test_pole(self):
        assert probe_fclick(sg_up_detector(), BlochVector(0, 0, 1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_center(self):
        assert probe_fclick(sg_up_detector(), BlochVector(0, 0, 0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_aligned_x_effect(self):
        det = EffectDetector((qcore.IDENTITY_2 + qcore.SIGMA_X) / 2)
        assert probe_fclick(det, BlochVector(1, 0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            probe_fclick(sg_up_detector(), BlochVector(0, 0, 1.5))

    def test_purification_independence(self):
        # Any purification of the same polarization must click equally.
        rng = np.random.default_rng(4)
        for _ in range(30):
            det = random_detector(rng)
            p = qcore.random_bloch(rng)
            canonical = qcore.purify(p)
            rotated = circuits.apply_unitary(
                canonical, (1,), qcore.random_unitary(2, rng)
            )
            bigger = tensor_product(rotated, qcore.random_state((3,), rng))
            assert click_probability(det, canonical, 0) == pytest.approx(
                click_probability(det, rotated, 0), abs=1e-9
            )
            assert click_probability(det, canonical, 0) == pytest.approx(
                click_probability(det, bigger, 0), abs=1e-9
            )


class TestExtractAffine:
    def test_projective(self):
        resp = extract_affine(sg_up_detector())
        np.testing.assert_allclose(resp.alpha, [0, 0, 0.5], atol=1e-12)
        assert resp.beta == pytest.approx(0.5, abs=1e-12)

    def test_constant(self):
        resp = extract_affine(EffectDetector(qcore.IDENTITY_2 / 2))
        np.testing.assert_allclose(resp.alpha, [0, 0, 0], atol=1e-12)
        assert resp.beta == pytest.approx(0.5, abs=1e-12)

    def test_never_clicks(self):
        resp = extract_affine(EffectDetector(np.zeros((2, 2))))
        np.testing.assert_allclose(resp.alpha, [0, 0, 0], atol=1e-12)
        assert resp.beta == pytest.approx(0.0, abs=1e-12)

    def test_linearity_over_random_detectors(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            det = random_detector(rng)
            resp = extract_affine(det)
            for _ in range(20):
                p = qcore.random_bloch(rng)
                assert abs(probe_fclick(det, p) - resp.predict(p)) < 1e-9


class TestLinearExtension:
    def test_origin_returns_offset(self):
        resp = AffineResponse(np.array([0.1, -0.2, 0.3]), 0.45)
        assert linear_extension(resp, BlochVector(0, 0, 0)) == pytest.approx(
            0.45, abs=1e-12
        )

    def test_exterior_pole(self):
        resp = extract_affine(sg_up_detector())
        assert linear_extension(resp, BlochVector(0, 0, -1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_dot_product_oracle_case(self):
        resp = AffineResponse(np.array([0.0, 0.0, 0.5]), 0.5)
        assert linear_extension(resp, BlochVector(0.3, 0.4, 0.5)) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_matches_dot_product_everywhere(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            resp = extract_affine(random_detector(rng))
            for _ in range(25):
                p = qcore.random_bloch(rng)
                assert abs(linear_extension(resp, p) - resp.predict(p)) < 1e-9
            for pole in [(1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, 0, 0)]:
                p = BlochVector(*pole)
                assert abs(linear_extension(resp, p) - resp.predict(p)) < 1e-9

    def test_tetrahedron_faces_and_vertices(self):
        resp = extract_affine(random_detector(np.random.default_rng(66)))
        for p in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0.25, 0.25, 0.5), (0.5, 0.5, 0.0)]:
            point = BlochVector(*p)
            assert abs(linear_extension(resp, point) - resp.predict(point)) < 1e-12

    def test_surface_points(self):
        rng = np.random.default_rng(7)
        resp = extract_affine(random_detector(rng))
        for _ in range(50):
            p = qcore.random_bloch(rng, surface=True)
            assert abs(linear_extension(resp, p) - resp.predict(p)) < 1e-9

    def test_outside_ball_rejected(self):
        resp = extract_affine(sg_up_detector())
        with pytest.raises(ValueError):
            linear_extension(resp, BlochVector(2, 0, 0))


class TestToPovm:
    def test_projective_assembly(self):
        effect = to_povm(AffineResponse(np.array([0.0, 0.0, 0.5]), 0.5))
        np.testing.assert_allclose(effect.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_always_clicks(self):
        effect = to_povm(AffineResponse(np.array([0.0, 0.0, 0.0]), 1.0))
        np.testing.assert_allclose(effect.matrix, np.eye(2), atol=1e-12)

    def test_x_aligned_assembly(self):
        effect = to_povm(AffineResponse(np.array([0.5, 0.0, 0.0]), 0.5))
        np.testing.assert_allclose(
            effect.matrix, (qcore.IDENTITY_2 + qcore.SIGMA_X) / 2, atol=1e-12
        )

    def test_reproduces_probabilities(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            det = random_detector(rng)
            effect = to_povm(extract_affine(det))
            psi = qcore.random_state((2, 3), rng)
            rho = qcore.reduced_density(psi, 0)
            assert np.trace(effect.matrix @ rho).real == pytest.approx(
                click_probability(det, psi, 0), abs=1e-9
            )

    def test_positivity_over_random_detectors(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            effect = to_povm(extract_affine(random_detector(rng)))
            eigvals = effect.eigenvalues()
            assert eigvals[0] >= -1e-12
            assert eigvals[-1] <= 1.0 + 1e-12

    def test_non_physical_response_rejected(self):
        with pytest.raises(ValueError, match="non-physical"):
            to_povm(AffineResponse(np.array([0.9, 0.0, 0.0]), 0.5))


class TestMixedClick:
    def test_single_member_matches_pure(self):
        det = random_detector(np.random.default_rng(10))
        psi = qcore.random_state((2, 2), 11)
        assert mixed_click_probability([(1.0, psi)], det) == pytest.approx(
            click_probability(det, psi, 0), abs=1e-12
        )

    def test_balanced_up_down_mixture(self):
        mix = [(0.5, UP), (0.5, DOWN)]
        assert mixed_click_probability(mix, sg_up_detector()) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_affine_formula_on_polarized_mixture(self):
        mix = [(0.75, UP), (0.25, DOWN)]  # mean polarization (0, 0, 0.5)
        assert mixed_click_probability(mix, sg_up_detector()) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            mixed_click_probability([(0.7, UP), (0.7, DOWN)], sg_up_detector())
        with pytest.raises(ValueError):
            mixed_click_probability([(-0.5, UP), (1.5, DOWN)], sg_up_detector())

    def test_one_oracle_batch_matches_member_sum(self, monkeypatch):
        rng = np.random.default_rng(13)
        for det in (random_effect_detector(rng), random_ancilla_detector(rng)):
            weights = rng.uniform(size=4)
            weights /= weights.sum()
            members = [qcore.random_state((3, 2), rng) for _ in range(4)]
            expected = sum(
                w * click_probability(det, psi, 1) for w, psi in zip(weights, members)
            )
            batches = []
            core = detectors.click_probabilities
            monkeypatch.setattr(
                detectors, "click_probabilities",
                lambda d, amps: batches.append(len(amps)) or core(d, amps),
            )
            mix = list(zip(weights.tolist(), members))
            assert mixed_click_probability(mix, det, 1) == pytest.approx(expected, abs=1e-12)
            assert batches == [4]
            monkeypatch.undo()

    def test_members_must_share_dimensions(self):
        psi = qcore.random_state((2, 2), 14)
        with pytest.raises(ValueError, match="factor dimensions"):
            mixed_click_probability([(0.5, UP), (0.5, psi)], sg_up_detector())


class TestComplement:
    def test_probabilities_complement(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            det = random_detector(rng)
            psi = qcore.random_state((2, 2), rng)
            total = click_probability(det, psi, 0) + click_probability(
                complement_detector(det), psi, 0
            )
            assert total == pytest.approx(1.0, abs=1e-10)


class TestDetectorValidation:
    def test_effect_must_be_bounded(self):
        with pytest.raises(ValueError):
            EffectDetector(2.0 * np.eye(2))
        with pytest.raises(ValueError):
            EffectDetector(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_ancilla_model_validated(self):
        with pytest.raises(ValueError):
            AncillaDetector(2, np.eye(3), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            AncillaDetector(2, np.eye(4), np.diag([1.0, 0.5]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.nan)])
    def test_effect_entries_must_be_finite(self, bad):
        for index in [(0, 0), (0, 1), (1, 1)]:
            effect = np.zeros((2, 2), dtype=complex)
            effect[index] = bad
            with pytest.raises(ValueError, match="finite"):
                EffectDetector(effect)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_ancilla_entries_must_be_finite(self, bad):
        projector = np.diag([1.0, 0.0]).astype(complex)
        projector[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            AncillaDetector(2, np.eye(4), projector)
        coupling = np.eye(4, dtype=complex)
        coupling[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            AncillaDetector(2, coupling, np.diag([1.0, 0.0]))

    def test_random_effect_is_valid(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            det = random_effect_detector(rng)
            eigvals = np.linalg.eigvalsh(det.effect)
            assert eigvals[0] >= -1e-12 and eigvals[-1] <= 1 + 1e-12


def _model_effect(det):
    """2x2 click effect read from the model in plain numpy:
    E_ij = <i,0| U^dagger (1 (x) P) U |j,0> for an ancilla model."""
    if isinstance(det, EffectDetector):
        return np.asarray(det.effect)
    m = det.ancilla_dim
    block = det.coupling.conj().T @ np.kron(np.eye(2), det.projector) @ det.coupling
    return block[::m, ::m]


def _probe_points(rng):
    def on_sphere(n):
        v = rng.standard_normal((n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    surface = on_sphere(40)
    near_origin = 1e-13 * on_sphere(6)
    poles = np.vstack([np.eye(3), -np.eye(3)])
    inside = on_sphere(40) * rng.uniform(size=(40, 1)) ** (1 / 3)
    points = np.vstack([inside, np.zeros((1, 3)), near_origin, poles, surface])
    assert np.any(surface[:, 2] >= 0) and np.any(surface[:, 2] < 0)
    return points


class TestDetectorDraws:
    @pytest.mark.parametrize(
        "draw, make",
        [
            (detectors.draw_detector, random_detector),
            (lambda rng: detectors.draw_detector(rng, "effect"), random_effect_detector),
            (lambda rng: detectors.draw_detector(rng, "ancilla", ancilla_dim=2),
             lambda rng: random_ancilla_detector(rng, ancilla_dim=2)),
            (lambda rng: detectors.draw_detector(rng, "ancilla", ancilla_dim=4),
             lambda rng: random_ancilla_detector(rng, ancilla_dim=4)),
        ],
        ids=["mixed", "effect", "ancilla-2", "ancilla-4"],
    )
    def test_built_detectors_match_successive_constructors(self, draw, make):
        rng = np.random.default_rng(33)
        built = detectors.build_detectors([draw(rng) for _ in range(12)])
        rng = np.random.default_rng(33)
        for det in built:
            expected = make(rng)
            assert type(det) is type(expected)
            for name in ("effect", "coupling", "projector"):
                if hasattr(expected, name):
                    np.testing.assert_array_equal(getattr(det, name), getattr(expected, name))


class TestBatchedOracle:
    @pytest.mark.parametrize("make", [random_effect_detector, random_ancilla_detector])
    def test_batch_scalar_and_plain_trace_agree(self, make):
        rng = np.random.default_rng(30)
        for _ in range(5):
            det = make(rng)
            effect = _model_effect(det)
            points = _probe_points(rng)
            rho = 0.5 * (
                np.eye(2)
                + np.einsum("nk,kij->nij", points, [qcore.SIGMA_X, qcore.SIGMA_Y, qcore.SIGMA_Z])
            )
            plain = np.einsum("ij,nji->n", effect, rho).real
            batched = probe_fclick(det, points)
            scalar = np.array([probe_fclick(det, BlochVector.from_array(p)) for p in points])
            assert batched.shape == (len(points),)
            assert np.max(np.abs(batched - plain)) < 1e-12
            assert np.max(np.abs(scalar - plain)) < 1e-12

    @pytest.mark.parametrize("det", [sg_up_detector(), cnot_click_detector()])
    def test_batches_of_zero_and_one(self, det):
        assert probe_fclick(det, np.empty((0, 3))).shape == (0,)
        one = probe_fclick(det, np.array([[0.0, 0.0, 1.0]]))
        assert one.shape == (1,) and one[0] == pytest.approx(1.0, abs=1e-12)
        assert click_probabilities(det, np.empty((0, 2, 3), dtype=complex)).shape == (0,)

    def test_click_batch_matches_scalar_states(self):
        rng = np.random.default_rng(31)
        for det in (random_effect_detector(rng), random_ancilla_detector(rng)):
            states = [qcore.random_state((2, 3), rng) for _ in range(10)]
            batched = click_probabilities(det, np.stack([s.amplitudes.reshape(2, 3) for s in states]))
            scalar = [click_probability(det, s, 0) for s in states]
            np.testing.assert_allclose(batched, scalar, atol=1e-12)

    @pytest.mark.parametrize("rest", [1, 2, 3, 8])
    def test_mixed_families_give_each_row_its_lone_value(self, rest):
        # Bit for bit: a row's value does not depend on its batch, alone,
        # among rows of its own detector or in a stack of mixed families.
        rng = np.random.default_rng(42)
        makers = [
            random_effect_detector,
            lambda r: random_ancilla_detector(r, 2),
            lambda r: random_ancilla_detector(r, 4),
        ]
        dets = [makers[k](rng) for k in rng.permutation(np.arange(15) % 3)]
        dets[3] = dets[0]  # a shared detector serves two rows
        amps = qcore.random_amplitudes((2, rest), len(dets), rng).reshape(len(dets), 2, rest)
        mixed = click_probabilities(dets, amps)
        assert mixed.shape == (len(dets),)
        for i, det in enumerate(dets):
            assert mixed[i] == click_probabilities(det, amps)[i]
            assert mixed[i] == click_probabilities(det, amps[i : i + 1])[0]

    @pytest.mark.parametrize("intruder", ["detector", np.eye(2), None])
    def test_sequence_with_a_non_detector_rejected(self, intruder):
        amps = qcore.random_amplitudes((2, 2), 2, 43).reshape(2, 2, 2)
        with pytest.raises(TypeError):
            click_probabilities([sg_up_detector(), intruder], amps)

    def test_bad_point_arrays_rejected(self):
        det = sg_up_detector()
        with pytest.raises(ValueError):
            probe_fclick(det, np.zeros(3))
        with pytest.raises(ValueError):
            probe_fclick(det, np.array([[0.0, 0.0, 1.5]]))
        with pytest.raises(ValueError):
            probe_fclick(det, np.array([[np.nan, 0.0, 0.0]]))


class TestBlackBoxContract:
    def test_tomography_and_verifiers_use_only_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(32)
        dets = [random_effect_detector(rng), random_ancilla_detector(rng)]
        expected = [to_povm(extract_affine(det)).matrix for det in dets]

        def hidden(*args, **kwargs):
            raise AssertionError("the hidden model was read")

        monkeypatch.setattr(detectors, "equivalent_effect", hidden)
        monkeypatch.setattr(AffineResponse, "predict", hidden)
        for det, matrix in zip(dets, expected):
            resp = extract_affine(det)
            np.testing.assert_allclose(to_povm(resp).matrix, matrix, atol=1e-12)
            assert 0.0 <= linear_extension(resp, qcore.random_bloch(rng)) <= 1.0
            assert derivation.verify_theorem1(det, n_points=30, seed=33).passed
            _, report = derivation.verify_lemma3_dyadic(
                det, qcore.random_bloch(rng), qcore.random_bloch(rng), depth=12, seed=34
            )
            assert report.passed, dict(report.details)

    @pytest.mark.parametrize("family", [random_effect_detector, random_ancilla_detector])
    def test_oracle_call_counts(self, family, monkeypatch):
        # Tomography asks the oracle once, for its four reference points;
        # the linear extension rebuilds a value from those alone.
        rng = np.random.default_rng(35)
        det = family(rng)
        batches = []
        real = detectors.click_probabilities
        monkeypatch.setattr(
            detectors, "click_probabilities",
            lambda d, amps: batches.append(len(amps)) or real(d, amps),
        )
        resp = extract_affine(det)
        assert batches == [4]
        linear_extension(resp, qcore.random_bloch(rng))
        assert batches == [4]


class TestDetectorCaches:
    def test_caches_live_on_the_instance(self):
        det = random_ancilla_detector(np.random.default_rng(35))
        probe_fclick(det, BlochVector(0.1, 0.2, 0.3))
        psi = qcore.random_state((2, 2), 36)
        circuits.detector_measure(psi, 0, det)
        assert {"click_map", "kraus_pair"} <= set(vars(det))

    def test_equivalent_effect_read_once_per_detector(self, monkeypatch):
        calls = []
        original = detectors.equivalent_effect
        monkeypatch.setattr(
            detectors, "equivalent_effect", lambda det: calls.append(det) or original(det)
        )
        rng = np.random.default_rng(37)
        det = random_detector(rng)
        circuit = circuits.Circuit(
            qcore.random_state((2, 2), rng),
            (circuits.Measure(1, "s"), circuits.Measure(0, "m", det)),
        )
        for _ in range(5):
            circuits.evaluate(circuit, {"m": "click"})
        assert calls == [det]

    @pytest.mark.parametrize("make", [sg_up_detector, cnot_click_detector])
    def test_deleted_detector_is_freed(self, make):
        det = make()
        extract_affine(det)
        circuits.detector_measure(qcore.random_state((2, 2), 39), 0, det)
        ref = weakref.ref(det)
        del det
        assert ref() is None

    def test_detectors_never_share_derived_data(self):
        a = cnot_click_detector()
        b = cnot_click_detector()
        c = complement_detector(a)
        for det in (a, b, c):
            probe_fclick(det, BlochVector(0.0, 0.0, 1.0))
            circuits.detector_measure(qcore.random_state((2,), 40), 0, det)
        assert a.click_map is not b.click_map
        assert a.kraus_pair is not b.kraus_pair
        np.testing.assert_allclose(a.kraus_pair[0], b.kraus_pair[0])
        np.testing.assert_allclose(c.kraus_pair[0], a.kraus_pair[1], atol=1e-12)
        assert not np.allclose(c.click_map, a.click_map)
