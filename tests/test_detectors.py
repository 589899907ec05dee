
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


# Edge cases of the closed-form purification (the center, the z axis and
# points within the degeneracy threshold of it), then the ball's slack.
_EDGE_POINTS = [[0, 0, 0], [1e-13, 0, 0], [0, 0, -1e-13], [0, 0, 1], [0, 0, -1]] + [
    [1e-13, 0, -1], [0, 1e-13, 1], [1e-13, 0, -0.5], [0.6, 0, -0.8]
] + [[0, 0, 1 + 1e-10], [0, 0, -1 - 1e-10], [0.6, -0.8 - 5e-10, 0]]


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

    @pytest.mark.parametrize("family", ["Effect", "", "ancila"])
    def test_unknown_family_rejected(self, family):
        with pytest.raises(ValueError, match=r"^family must be 'effect', 'ancilla' or None, got "):
            detectors.draw_detector(np.random.default_rng(0), family)

    @pytest.mark.parametrize("ancilla_dim", [0, 1, -2])
    def test_ancilla_dim_below_two_rejected(self, ancilla_dim):
        with pytest.raises(ValueError, match=rf"^ancilla_dim must be >= 2, got {ancilla_dim}$"):
            random_ancilla_detector(np.random.default_rng(0), ancilla_dim=ancilla_dim)
        with pytest.raises(ValueError, match="^ancilla_dim must be >= 2"):
            detectors.draw_detector(np.random.default_rng(0), None, ancilla_dim)


def _model_args(det):
    """A detector's model, as the arguments of its family's initializer."""
    if isinstance(det, EffectDetector):
        return (det.effect,)
    return (det.ancilla_dim, det.coupling, det.projector)


def _stacked(models):
    """The detectors of models of one family and shape, built as one stack."""
    columns = [np.array(column) for column in zip(*models)]
    if len(models[0]) == 1:
        return EffectDetector.stack(*columns)
    return AncillaDetector.stack(columns[0][0], *columns[1:])


def _kron_click_map(det):
    """(1 (x) P) U restricted to ancilla input |0>, written out with np.kron."""
    return np.kron(np.eye(2), det.projector) @ det.coupling[:, :: det.ancilla_dim]


class TestStackedBuild:
    FIELDS = ("effect", "ancilla_dim", "coupling", "projector", "click_map")

    @staticmethod
    def named():
        """The battery's named detectors: sg-up, sigma-x, constant-half,
        never, always, noisy and cnot-up."""
        return [det for name, det in derivation.standard_battery(0) if "random" not in name]

    def assert_same(self, stacked, lone):
        assert type(stacked) is type(lone)
        for name in self.FIELDS:
            if hasattr(lone, name):
                assert np.asarray(getattr(stacked, name)).tobytes() == np.asarray(getattr(lone, name)).tobytes(), name
        if isinstance(lone, AncillaDetector):
            assert lone.click_map.tobytes() == _kron_click_map(lone).tobytes()

    def test_random_stacks_equal_lone_constructors_bit_for_bit(self):
        rng = np.random.default_rng(41)
        built = detectors.build_detectors([detectors.draw_detector(rng) for _ in range(300)])
        assert {type(det) for det in built} == {EffectDetector, AncillaDetector}
        assert {det.ancilla_dim for det in built if isinstance(det, AncillaDetector)} == {2, 4}
        for det in built:
            self.assert_same(det, type(det)(*_model_args(det)))

    def test_named_stacks_equal_lone_constructors_bit_for_bit(self):
        named = self.named()
        effects = [det for det in named if isinstance(det, EffectDetector)]
        ancillas = [det for det in named if isinstance(det, AncillaDetector)]
        for group in (effects, ancillas):
            for stacked, lone in zip(_stacked([_model_args(det) for det in group]), group, strict=True):
                self.assert_same(stacked, lone)

    @pytest.mark.parametrize(
        "bad",
        [
            (np.array([[np.nan, 0], [0, 0.5]]),),
            (np.array([[0.5, 0.3], [0.1, 0.5]]),),
            (np.diag([0.25, 1.5]),),
            (np.diag([-0.5, 0.75]),),
            (2, np.diag([1.0, 1.0, 1.0, 2.0]), np.diag([1.0, 0.0])),
            (2, np.diag([1.0, 1.0, 1.0, np.inf]), np.diag([1.0, 0.0])),
            (2, np.eye(4), np.diag([1.0, 0.5])),
            (2, np.eye(4), np.array([[1.0, 1.0], [0.0, 0.0]])),
            (2, np.eye(4), np.diag([np.nan, 0.0])),
        ],
        ids=["effect-nan", "non-hermitian", "eigenvalue-high", "eigenvalue-low", "non-unitary",
             "coupling-inf", "non-idempotent", "projector-non-hermitian", "projector-nan"],
    )
    def test_one_bad_member_raises_the_lone_message(self, bad):
        family = EffectDetector if len(bad) == 1 else AncillaDetector
        with pytest.raises(ValueError) as lone:
            family(*bad)
        rng = np.random.default_rng(42)
        good = [_model_args(detectors.random_effect_detector(rng) if len(bad) == 1
                            else random_ancilla_detector(rng, ancilla_dim=2)) for _ in range(6)]
        with pytest.raises(ValueError) as stacked:
            _stacked(good[:3] + [bad] + good[3:])
        assert str(stacked.value) == str(lone.value)

    def test_stacks_take_real_models_as_complex(self):
        (effect,) = EffectDetector.stack([np.diag([1.0, 0.0])])
        (ancilla,) = AncillaDetector.stack(2.0, [cnot_click_detector().coupling.real], [np.diag([1.0, 0.0])])
        self.assert_same(effect, sg_up_detector())
        self.assert_same(ancilla, cnot_click_detector())

    def test_eigenvalue_message_names_the_bad_member(self):
        effects = [det.effect for det in self.named() if isinstance(det, EffectDetector)]
        with pytest.raises(ValueError, match=r"^effect eigenvalues \[0\. 2\.\] outside \[0, 1\]$"):
            EffectDetector.stack(np.array(effects + [np.diag([0.0, 2.0])] + effects))

    def test_members_share_no_memory(self):
        rng = np.random.default_rng(45)
        built = detectors.build_detectors([detectors.draw_detector(rng) for _ in range(40)])
        arrays = [(k, getattr(det, name)) for k, det in enumerate(built) for name in self.FIELDS
                  if isinstance(getattr(det, name, None), np.ndarray)]
        for k, a in arrays:
            assert a.flags.owndata and not a.flags.writeable  # a copy, not a view into the stack
            assert all(not np.shares_memory(a, b) for j, b in arrays if j != k)

    @pytest.mark.parametrize("family", ["effect", "ancilla"])
    def test_deleted_stacked_detector_is_freed(self, family):
        rng = np.random.default_rng(46)
        built = detectors.build_detectors([detectors.draw_detector(rng, family) for _ in range(5)])
        extract_affine(built[2])
        circuits.detector_measure(qcore.random_state((2, 2), 47), 0, built[2])
        ref = weakref.ref(built[2])
        del built[2]
        assert ref() is None

    def test_empty_stacks(self):
        assert detectors.build_detectors([]) == []
        assert EffectDetector.stack(np.empty((0, 2, 2))) == []
        assert AncillaDetector.stack(4, np.empty((0, 8, 8)), np.empty((0, 4, 4))) == []
        assert detectors.kraus_pairs([]).shape == (2, 0, 2, 2)
        stacks = detectors.ModelStacks.of([])
        assert click_probabilities(stacks, np.empty((0, 2, 3), dtype=complex)).shape == (0,)
        assert stacks.groups == () and stacks.detectors.shape == (0,)
        picked = stacks.on_rows(np.array([], dtype=int))
        assert picked.groups == () and picked.detectors.shape == (0,)
        assert detectors.extract_affines(stacks) == []


class TestKrausPairs:
    @staticmethod
    def fresh_detectors():
        """The battery's named detectors (sg-up, sigma-x, constant-half,
        never, always, noisy, cnot-up) and 300 random ones of both
        families, built afresh."""
        named = [det for name, det in derivation.standard_battery(0) if "random" not in name]
        rng = np.random.default_rng(41)
        return named + detectors.build_detectors([detectors.draw_detector(rng) for _ in range(300)])

    @staticmethod
    def principal_sqrt(m):
        """One matrix's square root by its own eigh, as each detector once took it."""
        eigvals, eigvecs = np.linalg.eigh(m)
        return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T

    def test_stack_equals_each_detectors_pair_bit_for_bit(self):
        stacked = detectors.kraus_pairs(self.fresh_detectors())
        alone = self.fresh_detectors()
        assert stacked.shape == (2, len(alone), 2, 2)
        for k, det in enumerate(alone):
            effect = equivalent_effect(det)
            reference = (self.principal_sqrt(effect), self.principal_sqrt(np.eye(2) - effect))
            one = detectors.kraus_pairs([det])
            for outcome in range(2):
                assert stacked[outcome, k].tobytes() == one[outcome, 0].tobytes()
                assert one[outcome, 0].tobytes() == reference[outcome].tobytes()


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

    @pytest.mark.parametrize("make", [random_effect_detector, random_ancilla_detector])
    def test_probe_rows_are_their_batches_of_one(self, make):
        # Bit for bit: a probe does not depend on its batch, and a
        # BlochVector probe is a batch of one of the same path.
        rng = np.random.default_rng(32)
        det = make(rng)
        points = np.vstack([_probe_points(rng), _EDGE_POINTS])
        batched = probe_fclick(det, points)
        for k, p in enumerate(points):
            assert probe_fclick(det, BlochVector.from_array(p)) == batched[k], p
            assert probe_fclick(det, points[k : k + 1])[0] == batched[k], p

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
        mixed = click_probabilities(detectors.ModelStacks.of(dets), amps)
        assert mixed.shape == (len(dets),)
        for i, det in enumerate(dets):
            assert mixed[i] == click_probabilities(det, amps)[i]
            assert mixed[i] == click_probabilities(det, amps[i : i + 1])[0]

    @pytest.mark.parametrize("intruder", ["detector", np.eye(2), None, sg_up_detector()])
    def test_sequence_with_a_non_detector_rejected(self, intruder):
        # ModelStacks.of names the element that is not a detector; the
        # oracle and the tomography take no plain sequence, and say how to
        # stack one.
        if not isinstance(intruder, detectors.Detector):
            with pytest.raises(TypeError, match=f"^ModelStacks.of takes detectors, not a {type(intruder).__name__}$"):
                detectors.ModelStacks.of([sg_up_detector(), intruder])
        amps = qcore.random_amplitudes((2, 2), 2, 43).reshape(2, 2, 2)
        for given in ([sg_up_detector(), intruder], (sg_up_detector(), intruder)):
            message = rf"^expected a Detector or a ModelStacks\.of\(detectors\), not a {type(given).__name__}$"
            with pytest.raises(TypeError, match=message):
                click_probabilities(given, amps)
            with pytest.raises(TypeError, match=message):
                probe_fclick(given, np.zeros((2, 3)))
            with pytest.raises(TypeError, match=message):
                probe_fclick(given, BlochVector(0.0, 0.0, 1.0))
            with pytest.raises(TypeError, match=message):
                detectors.extract_affines(given)

    def test_bad_point_arrays_rejected(self):
        det = sg_up_detector()
        with pytest.raises(ValueError, match=r"^expected an \(N, 3\) array of Bloch points, got shape \(3,\)$"):
            probe_fclick(det, np.zeros(3))
        with pytest.raises(ValueError, match=r"^\|p\| = 1\.5 lies outside the Bloch ball$"):
            probe_fclick(det, np.array([[0.0, 0.0, 1.5]]))
        with pytest.raises(ValueError, match=r"^\|p\| = nan lies outside the Bloch ball$"):
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
        assert "click_map" in vars(det)

    def _effect_reads(self, monkeypatch, steps) -> list:
        # The detectors whose ground-truth effect five evaluations read.
        calls = []
        original = detectors.equivalent_effect
        monkeypatch.setattr(
            detectors, "equivalent_effect", lambda det: calls.append(det) or original(det)
        )
        circuit = circuits.Circuit(qcore.random_state((2, 2), np.random.default_rng(38)), steps)
        for _ in range(5):
            circuits.evaluate(circuit, {"m": "click"})
        return calls

    def test_equivalent_effect_read_once_per_detector(self, monkeypatch):
        # A later step reads the post states, so each walk's branches of
        # the detector need its Kraus pair: built once per measurement.
        det = random_detector(np.random.default_rng(37))
        steps = (circuits.Measure(1, "s"), circuits.Measure(0, "m", det), circuits.Gate((0,), np.eye(2)))
        assert self._effect_reads(monkeypatch, steps) == [det]

    def test_last_measurement_reads_no_effect(self, monkeypatch):
        # Nothing follows the detector, so no walk builds its post states.
        det = random_detector(np.random.default_rng(37))
        steps = (circuits.Measure(1, "s"), circuits.Measure(0, "m", det))
        assert self._effect_reads(monkeypatch, steps) == []

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
        assert not np.allclose(c.click_map, a.click_map)
