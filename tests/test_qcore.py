import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornverifier import circuits, qcore
from bornverifier.qcore import (
    BlochVector,
    DimensionError,
    StateVector,
    bloch_polarization,
    envariance_unitary,
    purify,
    random_state,
    reduced_density,
    spin_pair_state,
    tensor_product,
)

UP = StateVector((2,), [1, 0])
DOWN = StateVector((2,), [0, 1])
_E3 = np.eye(3, dtype=complex)
# Edge cases of the closed-form purification: the center, the z axis and
# points within the degeneracy threshold of it, in both hemispheres.
_EDGE_POINTS = [[0, 0, 0], [1e-13, 0, 0], [0, 0, -1e-13], [0, 0, 1], [0, 0, -1]] + [
    [1e-13, 0, -1], [0, 1e-13, 1], [1e-13, 0, -0.5], [0.6, 0, -0.8]
]
# Points just outside the unit sphere within the ball's slack, negative poles, signed zeros.
_SLACK_POINTS = [[0, 0, 1 + 1e-10], [0, 0, -1 - 1e-10], [0.6, -0.8 - 5e-10, 0]] + [
    [-1, 0, 0], [0, -1, 0], [-0.0, 0.5, -0.0], [0.5, -0.0, -0.3]
]


_FORMER_SIGNS = np.array([[1.0], [-1.0]])


def former_purify_batch(points) -> np.ndarray:
    """``qcore.purify_batch`` before its numpy calls were made cheaper,
    frozen as the reference the current one must match byte for byte."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array of Bloch points, got shape {pts.shape}")
    px, py, pz = pts.T
    transverse = np.hypot(px, py)
    radius = np.hypot(pz, transverse)
    inside = radius <= 1.0 + qcore.PHYSICAL_SLACK
    if not inside.all():
        raise ValueError(f"|p| = {radius[~inside][0]} lies outside the Bloch ball")
    north = pz >= 0.0
    big = radius + np.abs(pz)
    scale = np.sqrt(2.0 * radius * big)
    on_axis = transverse <= 2.0 * qcore.DEGENERACY_TOL
    cs = np.where(north, (big, transverse), (transverse, big))
    phase = (px + 1j * py) / np.where(on_axis, 1.0, transverse)
    if on_axis.any():
        upper = north[on_axis] | (radius[on_axis] <= 2.0 * qcore.DEGENERACY_TOL)
        cs[:, on_axis] = upper, ~upper
        scale[on_axis] = 1.0
        phase[on_axis] = np.where(upper, -1.0, 1.0)
    cs /= scale
    c = np.sqrt(np.minimum(np.maximum(0.5 + 0.5 * radius * _FORMER_SIGNS, 0.0), 1.0))
    out = np.empty((len(pts), 4), dtype=complex)
    out.T[:2] = c * cs
    out.T[2:] = (c * cs[::-1] * _FORMER_SIGNS) * phase
    return out


def partial_trace_oracle(psi: StateVector, keep: int) -> np.ndarray:
    # Independent route: full density matrix, then einsum over the rest.
    tens = psi.as_tensor()
    moved = np.moveaxis(tens, keep, 0)
    flat = moved.reshape(moved.shape[0], -1)
    return np.einsum("ik,jk->ij", flat, flat.conj())


def pauli_expectation_oracle(psi: StateVector, spin_factor: int) -> np.ndarray:
    dims = psi.factor_dims
    values = []
    for sigma in (qcore.SIGMA_X, qcore.SIGMA_Y, qcore.SIGMA_Z):
        op = np.eye(1, dtype=complex)
        for i, d in enumerate(dims):
            op = np.kron(op, sigma if i == spin_factor else np.eye(d))
        values.append((psi.amplitudes.conj() @ op @ psi.amplitudes).real)
    return np.array(values)


class TestTensorProduct:
    def test_basis_states(self):
        result = tensor_product(UP, DOWN)
        assert result.factor_dims == (2, 2)
        np.testing.assert_array_equal(result.amplitudes, [0, 1, 0, 0])

    def test_dimension_cap(self):
        big = random_state([2] * 10, 1)  # exactly at the cap
        with pytest.raises(DimensionError):
            tensor_product(big, UP)

    def test_mixed_operands_rejected(self):
        for a, b in ((UP, np.eye(2)), (np.eye(2), np.eye(2))):
            with pytest.raises(TypeError):
                tensor_product(a, b)


class TestReducedDensity:
    def test_product_state(self):
        psi = tensor_product(UP, random_state((3,), 5))
        np.testing.assert_allclose(
            reduced_density(psi, 0), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_maximally_entangled(self):
        np.testing.assert_allclose(
            reduced_density(qcore.bell_state(), 0), np.eye(2) / 2, atol=1e-12
        )

    def test_correlated_pair(self):
        rho = reduced_density(spin_pair_state(0.25), 0)
        np.testing.assert_allclose(rho, np.diag([0.75, 0.25]), atol=1e-12)

    def test_matches_partial_trace_oracle(self):
        rng = np.random.default_rng(2)
        for dims in [(2, 2), (2, 5), (2, 2, 3), (3, 2, 2)]:
            spin = dims.index(2)
            psi = random_state(dims, rng)
            np.testing.assert_allclose(
                reduced_density(psi, spin),
                partial_trace_oracle(psi, spin),
                atol=1e-12,
            )

    def test_errors(self):
        psi = random_state((2, 3), 1)
        with pytest.raises(ValueError):
            reduced_density(psi, 2)
        with pytest.raises(ValueError):
            reduced_density(psi, 1)  # dimension 3 is not a spin


class TestBlochPolarization:
    def test_up_state(self):
        psi = tensor_product(UP, random_state((4,), 3))
        p = bloch_polarization(psi, 0)
        np.testing.assert_allclose(p.as_array(), [0, 0, 1], atol=1e-12)

    def test_singlet_is_unpolarized(self):
        singlet = StateVector.from_amplitudes((2, 2), [0, 1, -1, 0])
        np.testing.assert_allclose(
            bloch_polarization(singlet, 0).as_array(), [0, 0, 0], atol=1e-12
        )

    def test_correlated_pair(self):
        p = bloch_polarization(spin_pair_state(0.25), 0)
        np.testing.assert_allclose(p.as_array(), [0, 0, 0.5], atol=1e-12)

    def test_matches_expectation_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            psi = random_state((2, int(rng.integers(2, 6))), rng)
            np.testing.assert_allclose(
                bloch_polarization(psi, 0).as_array(),
                pauli_expectation_oracle(psi, 0),
                atol=1e-12,
            )

    def test_density_bloch_relation(self):
        # rho == (1 + sigma . p) / 2 entrywise.
        rng = np.random.default_rng(8)
        for _ in range(50):
            psi = random_state((2, 4), rng)
            p = bloch_polarization(psi, 0)
            np.testing.assert_allclose(
                reduced_density(psi, 0), qcore.density_from_bloch(p), atol=1e-10
            )


class TestEnvarianceUnitary:
    def test_identity_case(self):
        basis = qcore.random_unitary(4, 5)
        u = envariance_unitary(basis[:, 0], basis[:, 1], basis[:, 0], basis[:, 1])
        np.testing.assert_allclose(u @ basis[:, 0], basis[:, 0], atol=1e-12)
        np.testing.assert_allclose(u @ basis[:, 1], basis[:, 1], atol=1e-12)

    def test_swap_case(self):
        e0, e1 = np.eye(2, dtype=complex)
        u = envariance_unitary(e0, e1, e1, e0)
        np.testing.assert_allclose(u, [[0, 1], [1, 0]], atol=1e-12)

    def test_random_pairs_postconditions(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            src = qcore.random_unitary(4, rng)
            dst = qcore.random_unitary(4, rng)
            u = envariance_unitary(src[:, 0], src[:, 1], dst[:, 0], dst[:, 1])
            np.testing.assert_allclose(u @ src[:, 0], dst[:, 0], atol=1e-10)
            np.testing.assert_allclose(u @ src[:, 1], dst[:, 1], atol=1e-10)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)

    def test_non_orthogonal_rejected(self):
        e0, e1 = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            envariance_unitary(e0, e0, e0, e1)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_stack_rows_match_successive_calls(self, dim):
        rng = np.random.default_rng(dim)
        sources, targets = (
            qcore.haar_unitaries(rng.standard_normal((6, 2, dim, dim)))[:, :, :2] for _ in range(2)
        )
        stacked = qcore.envariance_unitaries(sources, targets)
        for u, src, dst in zip(stacked, sources, targets):
            np.testing.assert_array_equal(u, envariance_unitary(*src.T, *dst.T))
            np.testing.assert_allclose(u @ src, dst, atol=2e-15)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=2e-15)

    @pytest.mark.parametrize(
        "vectors, message",
        [
            ((_E3[0], 2.0 * _E3[1], _E3[0], _E3[1]), "unit vectors"),
            ((_E3[0], _E3[0], _E3[0], _E3[1]), "pairs must be orthogonal"),
            ((_E3[0], _E3[1], _E3[2], _E3[2]), "pairs must be orthogonal"),
            ((_E3[0], _E3[1], _E3[0, :2], _E3[1, :2]), "must have equal dimension"),
        ],
        ids=["unnormalized", "non-orthogonal-source", "non-orthogonal-target", "unequal-dimensions"],
    )
    def test_stack_rejects_as_one_call(self, vectors, message):
        with pytest.raises(ValueError, match=message):
            envariance_unitary(*vectors)
        with pytest.raises(ValueError, match=message):
            qcore.envariance_unitaries(
                np.stack(vectors[:2], axis=1)[None], np.stack(vectors[2:], axis=1)[None]
            )


class TestPurify:
    def test_pure_pole(self):
        psi = purify(BlochVector(0, 0, 1))
        rho = reduced_density(psi, 0)
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_center_is_maximally_entangled(self):
        psi = purify(BlochVector(0, 0, 0))
        np.testing.assert_allclose(
            reduced_density(psi, 0), np.eye(2) / 2, atol=1e-12
        )

    def test_halfway_pole_weights(self):
        # Branch weights 0.75 and 0.25 on the up and down spin axes.
        rho = reduced_density(purify(BlochVector(0, 0, 0.5)), 0)
        np.testing.assert_allclose(rho, np.diag([0.75, 0.25]), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        ).filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0)
    )
    def test_roundtrip_identity(self, components):
        p = BlochVector(*components)
        recovered = bloch_polarization(purify(p), 0)
        assert np.max(np.abs(recovered.as_array() - p.as_array())) < 1e-9

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            purify(BlochVector(1.0, 1.0, 0.0))

    def test_batch_matches_eigendecomposition(self):
        # Reference: weight eig2x2_hermitian's eigenvectors by the square
        # roots of their eigenvalues, as a loop over points.
        rng = np.random.default_rng(20)
        points = np.array(
            [qcore.random_bloch(rng).as_array() for _ in range(50)]
            + [qcore.random_bloch(rng, surface=True).as_array() for _ in range(50)]
            + _EDGE_POINTS
        )
        for p, row in zip(points, qcore.purify_batch(points)):
            eigvals, eigvecs = qcore.eig2x2_hermitian(
                qcore.density_from_bloch(BlochVector.from_array(p))
            )
            c = np.sqrt(np.clip(eigvals, 0.0, 1.0))
            want = c[0] * np.kron(eigvecs[:, 0], qcore.UP) + c[1] * np.kron(eigvecs[:, 1], qcore.DOWN)
            tens = row.reshape(2, 2)
            # On the sphere c2 is the square root of rounding noise, so
            # only the c1 column is compared there.
            columns = 1 if np.linalg.norm(p) > 1.0 - 1e-9 else 2
            np.testing.assert_allclose(
                tens[:, :columns], want.reshape(2, 2)[:, :columns], atol=1e-12
            )
            np.testing.assert_allclose(
                tens @ tens.conj().T, qcore.density_from_bloch(BlochVector.from_array(p)), atol=1e-12
            )

    def test_rows_are_their_batches_of_one(self):
        # Bit for bit, sign bits included: a row does not depend on its
        # batch, and purify is a batch of one of the same path.
        rng = np.random.default_rng(24)
        points = np.array(
            [qcore.random_bloch(rng).as_array() for _ in range(20)] + _EDGE_POINTS + _SLACK_POINTS
        )
        rows = qcore.purify_batch(points)
        assert rows.shape == (len(points), 4)
        for k, p in enumerate(points):
            one = qcore.purify_batch(points[k : k + 1])[0]
            for alone in (one, purify(BlochVector.from_array(p)).amplitudes):
                assert np.array_equal(rows[k], alone) and rows[k].tobytes() == alone.tobytes(), p
        assert qcore.purify_batch(np.empty((0, 3))).shape == (0, 4)

    def test_rows_match_the_former_closed_form_byte_for_byte(self):
        rng = np.random.default_rng(27)
        normals = rng.standard_normal((120_000, 3))
        directions = normals / np.linalg.norm(normals, axis=1)[:, None]
        ball = directions[:100_000] * np.cbrt(rng.uniform(size=(100_000, 1)))
        sphere = directions[100_000:]
        # Transverse parts up to 3 DEGENERACY_TOL, so both sides of the
        # 2 DEGENERACY_TOL threshold, at heights from the poles to the center.
        axis = np.column_stack([
            rng.uniform(-2.0, 2.0, (20_000, 2)) * qcore.DEGENERACY_TOL,
            rng.uniform(-1.0, 1.0, 20_000) * rng.choice([1.0, 1e-11, 1e-12, 0.0, -0.0], 20_000),
        ])
        components = [0.0, -0.0, 0.6, -0.6, 0.8, -0.8, 1.0, -1.0, 1e-13, -1e-13, 5e-324]
        signed_zeros = [p for p in itertools.product(components, repeat=3) if math.hypot(*p) <= 1.0]
        special = np.array(_EDGE_POINTS + _SLACK_POINTS + signed_zeros, dtype=float)
        for points in (ball, sphere, axis, special):
            assert qcore.purify_batch(points).tobytes() == former_purify_batch(points).tobytes()
        for p in np.concatenate([special, ball[:300], sphere[:300], axis[:300]]):
            assert qcore.purify_batch(p[None]).tobytes() == former_purify_batch(p[None]).tobytes(), p

    @pytest.mark.parametrize(
        "points, message",
        [
            (np.zeros(3), "expected an (N, 3) array of Bloch points, got shape (3,)"),
            ([[0.0, 0.0]], "expected an (N, 3) array of Bloch points, got shape (1, 2)"),
            ([[0.0, 0.0, 0.5], [1.0, 1.0, 0.0]], "|p| = 1.4142135623730951 lies outside the Bloch ball"),
            ([[0.0, 0.0, -1.0 - 2e-9]], "|p| = 1.000000002 lies outside the Bloch ball"),
            ([[0.0, np.nan, 0.0]], "|p| = nan lies outside the Bloch ball"),
            ([[np.inf, 0.0, 0.0]], "|p| = inf lies outside the Bloch ball"),
        ],
    )
    def test_bad_points_keep_their_messages(self, points, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qcore.purify_batch(points)


class TestRandomState:
    def test_deterministic_given_seed(self):
        a = random_state((2, 3), 17)
        b = random_state((2, 3), 17)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_normalized(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            psi = random_state((2, 2), rng)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_mean_polarization_vanishes(self):
        # Unitary invariance: the single-spin polarization averages to zero.
        rng = np.random.default_rng(19)
        n = 10**5
        amps = qcore.random_amplitudes((2,), n, rng)
        # bloch_polarization per row: rho_01 = a0 conj(a1).
        off = amps[:, 0] * amps[:, 1].conj()
        polarization = np.stack(
            [2.0 * off.real, -2.0 * off.imag, np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, 1]) ** 2],
            axis=1,
        )
        np.testing.assert_allclose(
            polarization[:3],
            [bloch_polarization(StateVector((2,), row), 0).as_array() for row in amps[:3]],
            atol=1e-15,
        )
        assert np.max(np.abs(polarization.sum(axis=0) / n)) < 3.0 / math.sqrt(n)


class TestRandomAmplitudes:
    def test_rows_match_successive_random_states(self):
        rows = qcore.random_amplitudes((2, 3), 5, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        for row in rows:
            np.testing.assert_array_equal(row, random_state((2, 3), rng).amplitudes)

    def test_negative_count_rejected_by_name(self):
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError, match="count must be >= 0"):
            qcore.random_amplitudes((2,), -1, rng)
        assert qcore.random_amplitudes((2,), 0, rng).shape == (0, 2)


class TestRandomBlochPoints:
    @staticmethod
    def scalar_draw(rng, surface):
        """The scalar draw the sampler replaced, written out: three normals
        divided by their norm, then scaled by the cube root of a uniform."""
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        r = 1.0 if surface else rng.uniform() ** (1.0 / 3.0)
        return r * v

    @pytest.mark.parametrize("surface, n", [(False, 20_000), (True, 10_000)])
    def test_points_match_the_scalar_formula_bit_for_bit(self, surface, n):
        stacked_rng, scalar_rng = np.random.default_rng(61), np.random.default_rng(61)
        points = qcore.random_bloch_points(stacked_rng, n, surface)
        expected = np.array([self.scalar_draw(scalar_rng, surface) for _ in range(n)])
        assert points.shape == (n, 3)
        np.testing.assert_array_equal(points, expected)
        assert stacked_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("surface", [False, True])
    def test_random_bloch_is_a_batch_of_one(self, surface):
        lone_rng, stacked_rng = np.random.default_rng(62), np.random.default_rng(62)
        lone = [qcore.random_bloch(lone_rng, surface).as_array() for _ in range(50)]
        np.testing.assert_array_equal(lone, qcore.random_bloch_points(stacked_rng, 50, surface))
        assert lone_rng.bit_generator.state == stacked_rng.bit_generator.state
        assert qcore.random_bloch_points(stacked_rng, 0).shape == (0, 3)


class TestStackedBuilds:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_haar_rows_match_successive_random_unitaries(self, dim):
        rows = qcore.haar_unitaries(np.random.default_rng(24).standard_normal((6, 2, dim, dim)))
        rng = np.random.default_rng(24)
        for row in rows:
            np.testing.assert_array_equal(row, qcore.random_unitary(dim, rng))

    def test_mixed_shapes_come_back_in_draw_order(self):
        rng = np.random.default_rng(25)
        dims = [(2, 3), (2,), (2, 2), (2, 3), (2,), (2, 4)]
        states = qcore.build_states([(d, rng.standard_normal((2, math.prod(d)))) for d in dims])
        sizes = [2, 4, 3, 2, 8, 3]
        unitaries = qcore.build_unitaries([rng.standard_normal((2, n, n)) for n in sizes])
        rng = np.random.default_rng(25)
        for d, row in zip(dims, states):
            expected = random_state(d, rng)
            assert row.shape == expected.amplitudes.shape
            np.testing.assert_array_equal(row, expected.amplitudes)
            assert not row.flags.writeable
        for n, u in zip(sizes, unitaries):
            np.testing.assert_array_equal(u, qcore.random_unitary(n, rng))

    @pytest.mark.parametrize(
        "dims, rows",
        [
            ((2,), [[1.0, 0.0], [np.nan, 0.0]]),
            ((2,), [[1.0, 0.0], [1.0, 1.0]]),
            ((2,), [[1.0, 0.0], [1e200, 0.0]]),
            ((2, 2), [[1.0, 0.0], [0.0, 1.0]]),
            ((2,) * 11, [[1.0] + [0.0] * 2047]),
        ],
        ids=["non-finite", "unnormalized", "overflowing", "bad-length", "oversize"],
    )
    def test_stack_rejects_as_the_initializer(self, dims, rows):
        with pytest.raises(ValueError) as one:
            StateVector(dims, rows[-1])
        with pytest.raises(type(one.value), match=f"^{re.escape(str(one.value))}$"):
            qcore.checked_rows(dims, rows)

    def test_stack_of_the_wrong_rank_names_its_shape(self):
        message = "expected (N, 2) amplitude rows for dims (2,), got shape (2,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qcore.checked_rows((2,), [1, 0])

    def test_spin_pairs_match_successive_builds(self):
        weights = [0.0, 0.3, 0.5, 1.0]
        for row, lam in zip(qcore.spin_pair_states(weights), weights):
            np.testing.assert_array_equal(row, spin_pair_state(lam).amplitudes)
        with pytest.raises(ValueError, match=r"^mixing weight must lie in \[0, 1\], got 1.5$"):
            qcore.spin_pair_states([0.3, 1.5])


    def test_polarization_rows_match_one_state_at_a_time(self):
        amps = qcore.random_amplitudes((2, 2, 3), 50, np.random.default_rng(27))
        rows = qcore.bloch_polarizations(amps.reshape(50, 2, 6))
        for row, psi in zip(rows, (StateVector((2, 2, 3), a) for a in amps)):
            rho = reduced_density(psi, 0)
            expected = [2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
            assert row.tobytes() == np.array(expected).tobytes()


class TestTrustedStates:
    def test_operations_return_frozen_valid_states(self):
        psi = random_state((2, 3), 22)
        u = qcore.random_unitary(3, 23)
        for out in [circuits.apply_unitary(psi, (1,), u)] + [
            r.post_state for r in circuits.sg_measure(psi, 0)
        ]:
            assert out.factor_dims == (2, 3)
            assert not out.amplitudes.flags.writeable
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestEig2x2:
    def test_matches_numpy_on_random_hermitian(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = (z + z.conj().T) / 2
            eigvals, eigvecs = qcore.eig2x2_hermitian(h)
            np.testing.assert_allclose(
                eigvals, np.linalg.eigvalsh(h)[::-1], atol=1e-12
            )
            for k in range(2):
                residual = h @ eigvecs[:, k] - eigvals[k] * eigvecs[:, k]
                assert np.linalg.norm(residual) < 1e-10

    def test_degenerate_returns_standard_basis(self):
        eigvals, eigvecs = qcore.eig2x2_hermitian(np.eye(2, dtype=complex) / 2)
        np.testing.assert_array_equal(eigvecs, np.eye(2))
        np.testing.assert_allclose(eigvals, [0.5, 0.5])


class TestStateVectorValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector((2,), [1.0, 1.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            StateVector((2, 2), [1.0, 0.0])

    def test_rejects_tiny_factor(self):
        with pytest.raises(ValueError):
            StateVector((1, 4), [1, 0, 0, 0])

    def test_amplitudes_are_immutable(self):
        psi = random_state((2,), 3)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0
