"""Exact dense complex linear algebra for small tensor-product spin systems.

States are complex amplitude vectors over an ordered list of factors
(spins of dimension 2, plus optional larger environment factors).
Amplitude ordering is big-endian over the factor list: the first factor
is the most significant index, and each spin factor uses basis order
(up, down).  All values are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_TOTAL_DIM = 1024

# Tolerances: every threshold the package compares against, one name per
# purpose, each with its reason.  One double rounding near 1 is ~1e-16.

# Default --tolerance: exact replays deviate by 1e-15 at most, violations by far more.
DEFAULT_TOL = 1e-9
# Model checks (Hermitian, unitary, effect, unit norm, weights): typed decimals err ~1e-16.
MODEL_TOL = 1e-9
# Slack of the Bloch ball, and of [0, 1] for a response: computed by a few roundings.
PHYSICAL_SLACK = 1e-9
# State norm (a wavefunction's squared norm) from 1: amplitudes from text carry rounding.
NORM_TOL = 1e-6
# Grid spacing error, relative to max(dx, 1): decimal grid coordinates differ by rounding.
GRID_SPACING_TOL = 1e-9
# A gap, component or vector this short gives no direction: it is rounding, not signal.
DEGENERACY_TOL = 1e-12
# Least eigenvalue of a modified product: A^(-1/2) would amplify rounding a millionfold.
POSITIVE_FLOOR = 1e-12
# Zero interval weight: normalizing by its root would amplify rounding a millionfold.
ZERO_WEIGHT = 1e-12
# Zero branch probability: DEGENERACY_TOL squared, the weight of a rounding amplitude.
ZERO_BRANCH = 1e-24
# Round-off of the convex construction on the reference tetrahedron, coordinates <= 1.
TETRA_SLACK = 1e-12
# A few ulps of 1: a coordinate this near a vertex is it, a slope this near 0 is parallel.
ULP_SLACK = 1e-15
# Flat segment: a larger endpoint gap divides rounding to far below the 2^-20 dyadic bound.
FLAT_SEGMENT_THRESHOLD = 1e-4

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)


class DimensionError(ValueError):
    """Raised when a tensor product would exceed the configured size cap."""


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a tensor product of factors.

    ``factor_dims`` lists the dimension of each factor in order;
    ``amplitudes`` has length ``prod(factor_dims)`` in big-endian order.
    """

    factor_dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims, rows = checked_rows(self.factor_dims, [self.amplitudes])
        object.__setattr__(self, "factor_dims", dims)
        object.__setattr__(self, "amplitudes", rows[0])

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def num_factors(self) -> int:
        return len(self.factor_dims)

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per factor."""
        return self.amplitudes.reshape(self.factor_dims)

    @classmethod
    def _trusted(cls, factor_dims: tuple[int, ...], amplitudes: np.ndarray) -> "StateVector":
        """Build without revalidating.

        Only for amplitudes derived from valid states or checked rows and
        valid by construction: finite, of matching length, and normalized
        (a norm-checked unitary image, a branch divided by its own norm, a
        product of valid states).  Every public construction goes through
        the checked initializer.
        """
        state = object.__new__(cls)
        amplitudes.setflags(write=False)
        object.__setattr__(state, "factor_dims", factor_dims)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    @staticmethod
    def from_amplitudes(factor_dims: Sequence[int], amplitudes) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(tuple(factor_dims), amps / norm)


def checked_rows(factor_dims, rows) -> tuple[tuple[int, ...], np.ndarray]:
    """``StateVector``'s checks: factor dims of at least 2 within the size
    cap, then (N, size) amplitude rows of matching length, finite and of
    unit norm.  Returns the dims and the read-only rows."""
    dims = tuple(int(d) for d in factor_dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"factor dimensions must all be >= 2, got {dims}")
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        raise DimensionError(f"total dimension {total} exceeds the maximum {MAX_TOTAL_DIM}")
    rows = np.array(rows, dtype=complex)
    rows.setflags(write=False)
    if rows.ndim != 2:
        raise ValueError(f"expected (N, {total}) amplitude rows for dims {dims}, got shape {rows.shape}")
    if rows.shape[1] != total:
        raise ValueError(f"amplitude length {rows.shape[1]} does not match factor dims {dims}")
    parts = rows.view(float)
    if not np.isfinite(parts).all():
        raise ValueError("amplitudes must be finite")
    # Compared as floats, which costs a batch of one less than array operations.
    for norm in np.sqrt(np.einsum("ij,ij->i", parts, parts)).tolist():  # inf on overflow
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state is not normalized (norm={norm!r})")
    return dims, rows


@dataclass(frozen=True)
class BlochVector:
    """Spin polarization vector; physical values satisfy |p| <= 1."""

    px: float
    py: float
    pz: float

    def __post_init__(self):
        for v in (self.px, self.py, self.pz):
            if not math.isfinite(v):
                raise ValueError("polarization components must be finite")

    @property
    def norm(self) -> float:
        return math.sqrt(self.px**2 + self.py**2 + self.pz**2)

    def as_array(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz])

    @staticmethod
    def from_array(p) -> "BlochVector":
        x, y, z = np.asarray(p, dtype=float)
        return BlochVector(float(x), float(y), float(z))


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states, concatenating their factor lists."""
    if not (isinstance(a, StateVector) and isinstance(b, StateVector)):
        raise TypeError("tensor_product operands must both be states")
    # The constructor enforces the size cap.
    return StateVector(a.factor_dims + b.factor_dims, np.kron(a.amplitudes, b.amplitudes))


def reduced_density(psi: StateVector, spin_factor: int = 0) -> np.ndarray:
    """Reduced 2x2 density matrix of one spin factor (partial trace over
    the rest)."""
    check_spin_factor(psi, spin_factor)
    moved = spin_first(psi.as_tensor()[None], spin_factor)[0]
    return moved @ moved.conj().T


def bloch_polarization(psi: StateVector, spin_factor: int = 0) -> BlochVector:
    """Pauli expectation values of the designated spin factor (a batch of
    one of ``bloch_polarizations``)."""
    check_spin_factor(psi, spin_factor)
    return BlochVector.from_array(bloch_polarizations(spin_first(psi.as_tensor()[None], spin_factor))[0])


def bloch_polarizations(amps: np.ndarray) -> np.ndarray:
    """(N, 3) Pauli expectation values of the spin on axis 1 of (N, 2,
    rest) stacked amplitudes."""
    rho = amps @ amps.conj().swapaxes(1, 2)
    off = rho[:, 0, 1]
    return np.stack([2.0 * off.real, -2.0 * off.imag, (rho[:, 0, 0] - rho[:, 1, 1]).real], axis=1)


def spin_first(tens: np.ndarray, wire: int) -> np.ndarray:
    """The (N, 2, rest) amplitudes of N stacked states, an (N,
    *factor_dims) tensor, with spin ``wire`` first: a view where numpy can
    make one.  ``wire`` is not checked (see ``check_spin_factor``)."""
    order = (0, wire + 1) + tuple(i for i in range(1, tens.ndim) if i != wire + 1)
    return tens.transpose(order).reshape(len(tens), 2, -1)


def density_from_bloch(p: BlochVector) -> np.ndarray:
    """2x2 density matrix (1 + sigma.p) / 2."""
    return 0.5 * (
        IDENTITY_2 + p.px * SIGMA_X + p.py * SIGMA_Y + p.pz * SIGMA_Z
    )


def eig2x2_hermitian(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of a 2x2 Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues descending and
    eigenvectors as columns, phase-fixed so the first component above
    threshold is real positive.  Near-degenerate spectra fall back to the
    standard basis.
    """
    a = rho[0, 0].real
    d = rho[1, 1].real
    b = rho[0, 1]
    mean = 0.5 * (a + d)
    half_gap = math.hypot(0.5 * (a - d), abs(b))
    mu1 = mean + half_gap
    mu2 = mean - half_gap
    if half_gap <= DEGENERACY_TOL:
        vecs = np.eye(2, dtype=complex)
    elif abs(b) <= DEGENERACY_TOL:
        vecs = np.eye(2, dtype=complex) if a >= d else np.eye(2, dtype=complex)[:, ::-1]
    else:
        # Pick the row formula whose leading component avoids the
        # cancellation mu1 - max(a, d), so near-basis eigenvectors keep
        # their tiny transverse parts.
        if a >= d:
            v1 = np.array([mu1 - d, np.conj(b)], dtype=complex)
        else:
            v1 = np.array([b, mu1 - a], dtype=complex)
        v1 /= np.linalg.norm(v1)
        v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])])
        vecs = np.column_stack([v1, v2])
    vecs = fix_global_phase(vecs.T).T
    return np.array([mu1, mu2]), vecs


def fix_global_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector, or each row of a stack, so that its first
    component above ``DEGENERACY_TOL`` is real positive."""
    above = np.abs(v) > DEGENERACY_TOL
    anchor = np.take_along_axis(v, np.argmax(above, axis=-1)[..., None], axis=-1)
    anchor = np.where(above.any(axis=-1, keepdims=True), anchor, 1.0)
    return v * (anchor.conj() / np.abs(anchor))


def envariance_unitary(
    b1p: np.ndarray,
    b2p: np.ndarray,
    b1pp: np.ndarray,
    b2pp: np.ndarray,
) -> np.ndarray:
    """Unitary on the environment mapping {b1', b2'} onto {b1'', b2''}
    (a batch of one of ``envariance_unitaries``)."""
    vectors = [np.asarray(v, dtype=complex) for v in (b1p, b2p, b1pp, b2pp)]
    if any(v.shape != vectors[0].shape or v.ndim != 1 for v in vectors):
        raise ValueError("all environment vectors must have equal dimension")
    columns = np.stack(vectors, axis=1)[None]
    return envariance_unitaries(columns[:, :, :2], columns[:, :, 2:])[0]


def envariance_unitaries(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(N, d, d) unitaries, row k mapping the orthonormal pair of
    ``sources[k]`` onto that of ``targets[k]``; both are (N, d, 2) stacks
    of pairs as columns.

    Each pair b1, b2 is completed to a basis Q by one complete QR of
    [b1 b2 | 1], the first two columns of Q phase-fixed from R's
    diagonal back onto b1 and b2; then U = Q_target Q_source^dagger.
    """
    sources, targets = (np.asarray(p, dtype=complex) for p in (sources, targets))
    if sources.shape != targets.shape or sources.ndim != 3 or sources.shape[2] != 2:
        raise ValueError("all environment vectors must have equal dimension")
    pairs = np.stack([sources, targets])
    if not np.all(np.abs(np.linalg.norm(pairs, axis=2) - 1.0) <= MODEL_TOL):
        raise ValueError("environment vectors must be unit vectors")
    overlaps = np.einsum("tki,tki->tk", pairs[..., 0].conj(), pairs[..., 1])
    if not np.all(np.abs(overlaps) <= MODEL_TOL):
        raise ValueError("environment vector pairs must be orthogonal")
    dim = pairs.shape[2]
    identity = np.broadcast_to(np.eye(dim), pairs.shape[:2] + (dim, dim))
    q, r = np.linalg.qr(np.concatenate([pairs, identity], axis=3), mode="complete")
    diag = np.diagonal(r[..., :2], axis1=2, axis2=3)
    q[..., :2] *= (diag / np.abs(diag))[:, :, None, :]
    return q[1] @ q[0].conj().swapaxes(1, 2)


def purify(p: BlochVector) -> StateVector:
    """Canonical two-spin purification with the given spin polarization
    (a batch of one of ``purify_batch``)."""
    return StateVector((2, 2), purify_batch(p.as_array()[None])[0])


_SIGNS = np.array([[1.0], [-1.0]])  # the +- in c1^2, c2^2 = (1 +- |p|)/2 and a2's minus
_HALF_SIGNS = 0.5 * _SIGNS
# One-element array operands: a ufunc converts a Python scalar on every call.
_BALL_EDGE, _AXIS_WIDTH = np.array([1.0 + PHYSICAL_SLACK]), np.array([2.0 * DEGENERACY_TOL])
_ZERO, _HALF, _ONE, _I = np.array([0.0]), np.array([0.5]), np.array([1.0]), np.array([1j])


def purify_batch(points) -> np.ndarray:
    """Canonical two-spin purifications of an (N, 3) array of Bloch
    points, returned as (N, 4) amplitude rows over (spin, environment).

    Row k is c1 |a1>|up> + c2 |a2>|down>, with c1^2, c2^2 = (1 +- |p|)/2
    and the eigenvectors of (1 + sigma.p)/2 in closed form,
    a1 = (cos t, e^{i phi} sin t) and a2 = (sin t, -e^{i phi} cos t),
    where 2t and phi are the polar and azimuthal angles of p, phase-fixed
    as ``eig2x2_hermitian`` fixes them.  cos t and sin t come
    from |p| + |pz|, free of cancellation in either hemisphere.  Points
    within the degeneracy threshold of the z axis take the standard basis
    (swapped in the southern hemisphere), and points as close to the
    center take it unswapped.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array of Bloch points, got shape {pts.shape}")
    px, py, pz = pts.T
    transverse = np.hypot(px, py)
    radius = np.hypot(pz, transverse)
    inside = radius <= _BALL_EDGE  # also false for non-finite components
    if np.count_nonzero(inside) < len(pts):
        raise ValueError(f"|p| = {radius[~inside][0]} lies outside the Bloch ball")
    north = pz >= _ZERO
    big = radius + np.abs(pz)
    # Rows (cos t, sin t) are (big, transverse) / scale in the north and
    # (transverse, big) / scale in the south.
    scale = np.sqrt((radius + radius) * big)
    on_axis = transverse <= _AXIS_WIDTH
    pair = np.array((big, transverse))
    cs = np.where(north, pair, pair[::-1])
    phase = px + _I * py
    if np.count_nonzero(on_axis):
        upper = north[on_axis] | (radius[on_axis] <= _AXIS_WIDTH)
        cs[:, on_axis] = upper, ~upper
        scale[on_axis] = transverse[on_axis] = 1.0  # unit divisors of cs and phase
        phase[on_axis] = np.where(upper, -1.0, 1.0)
    cs /= scale
    phase /= transverse
    # Rows c1, c2.  Clipping |p| to 1 on the boundary slack of the ball
    # plays the part of normalizing the amplitudes (0.5 +- 0.5|p| is then in [0, 1]).
    c = np.sqrt(_HALF + np.minimum(radius, _ONE) * _HALF_SIGNS)
    # kron(a1, UP) + kron(a2, DOWN) in big-endian order, written as columns.
    out = np.empty((len(pts), 4), dtype=complex)
    out.T[:2] = c * cs
    out.T[2:] = (c * cs[::-1] * _SIGNS) * phase
    return out


def random_state(factor_dims: Sequence[int], rng) -> StateVector:
    """Haar-random pure state (normalized independent complex Gaussians);
    a batch of one of ``random_amplitudes``."""
    return StateVector(tuple(factor_dims), random_amplitudes(factor_dims, 1, rng)[0])


def random_amplitudes(factor_dims: Sequence[int], count: int, rng) -> np.ndarray:
    """``count`` Haar-random pure states as rows of normalized amplitudes.

    Draws the same stream as ``count`` successive ``random_state`` calls,
    so row k is the state the k-th call would return.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    n = math.prod(int(d) for d in factor_dims)
    return normalized_amplitudes(as_rng(rng).standard_normal((count, 2, n)))


def normalized_amplitudes(gaussians: np.ndarray) -> np.ndarray:
    """Normalized (N, size) amplitude rows from (N, 2, size) Gaussians: a
    state's draw is ``rng.standard_normal((2, size))``, real parts first."""
    norms = np.sqrt(np.einsum("kjn,kjn->k", gaussians, gaussians))[:, None]
    if not norms.all():
        raise ValueError("cannot normalize the zero vector")
    return (gaussians[:, 0] + 1j * gaussians[:, 1]) / norms


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary: a batch of one of ``haar_unitaries``."""
    return haar_unitaries(as_rng(rng).standard_normal((1, 2, dim, dim)))[0]


def haar_unitaries(gaussians: np.ndarray) -> np.ndarray:
    """Haar-random (N, d, d) unitaries from (N, 2, d, d) Gaussians (a draw is
    ``rng.standard_normal((2, d, d))``), by one QR, R's diagonal phase-fixed."""
    q, r = np.linalg.qr(gaussians[:, 0] + 1j * gaussians[:, 1])
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def in_stacks(items: Sequence, key, build) -> list:
    """``build(stack)`` on each stack of ``items`` that share ``key(item)``,
    one result per item, returned in the order of ``items``."""
    keys = [key(item) for item in items]
    built = {k: iter(build([x for x, kx in zip(items, keys) if kx == k])) for k in set(keys)}
    return [next(built[k]) for k in keys]


def build_unitaries(gaussians: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``haar_unitaries`` of (2, d, d) draws, one call per dimension."""
    return in_stacks(gaussians, np.shape, lambda stack: haar_unitaries(np.stack(stack)))


def build_states(draws: Sequence[tuple[tuple[int, ...], np.ndarray]]) -> list[np.ndarray]:
    """Amplitude rows of (factor_dims, (2, size) Gaussians) draws: one
    normalization and one ``checked_rows`` per stack of equal factor dims."""
    return in_stacks(draws, lambda draw: draw[0], lambda stack: checked_rows(
        stack[0][0], normalized_amplitudes(np.stack([g for _, g in stack]))
    )[1])


def random_bloch(rng, surface: bool = False) -> BlochVector:
    """Uniform point of the Bloch ball (or its boundary sphere): a batch
    of one of ``random_bloch_points``."""
    return BlochVector(*random_bloch_points(rng, 1, surface)[0].tolist())


def random_bloch_points(rng, n: int, surface: bool = False) -> np.ndarray:
    """(n, 3) uniform points of the Bloch ball (or its boundary sphere),
    drawn point by point: three normals, then the radius.  The arithmetic
    is on Python floats, as in the scalar draw; array forms move last bits."""
    rng = as_rng(rng)
    points = np.empty((n, 3))
    for k in range(n):
        v = rng.standard_normal(3)
        norm = math.sqrt(v.dot(v))
        r = 1.0 if surface else rng.uniform() ** (1.0 / 3.0)
        x, y, z = v.tolist()
        points[k] = (x / norm * r, y / norm * r, z / norm * r)
    return points


def as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spin_pair_state(lam: float) -> StateVector:
    """Two-spin state sqrt(1-lam)|uu> + sqrt(lam)|dd> for lam in [0, 1]
    (a batch of one of ``spin_pair_states``)."""
    return StateVector._trusted((2, 2), spin_pair_states([lam])[0])


def spin_pair_states(lams: Sequence[float]) -> np.ndarray:
    """(N, 4) rows of ``spin_pair_state`` of each weight, checked as one stack."""
    for lam in lams:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    amps = np.zeros((len(lams), 4), dtype=complex)
    amps[:, 0] = [math.sqrt(1.0 - lam) for lam in lams]
    amps[:, 3] = [math.sqrt(lam) for lam in lams]
    return checked_rows((2, 2), amps)[1]


def bell_state() -> StateVector:
    """(|uu> + |dd>) / sqrt(2)."""
    return spin_pair_state(0.5)


_MATRIX_DEFECTS = {
    "Hermitian": lambda m: m - m.conj().swapaxes(-1, -2),
    "unitary": lambda m: m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1]),
    "idempotent": lambda m: m @ m - m,
}


def matrix_is(m: np.ndarray, prop: str) -> bool:
    """Whether the square matrix ``m``, or every matrix of an (N, s, s)
    stack, is "Hermitian", "unitary" or "idempotent" to within
    ``MODEL_TOL``: the one check of every model matrix.  Entries so large
    that the defect overflows, or non-finite ones, fail it without a
    numpy warning; an empty stack passes."""
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(_MATRIX_DEFECTS[prop](m)).max(initial=0.0)  # the method skips np.max's dispatch
    return bool(defect <= MODEL_TOL)  # false for NaN


def check_matrix(m: np.ndarray, name: str, *props: str) -> None:
    """Raise a ``ValueError`` naming ``name`` unless the model matrix
    ``m`` has finite entries and each of ``props`` (see ``matrix_is``)."""
    if not np.isfinite(m).all():
        raise ValueError(f"{name} entries must be finite")
    for prop in props:
        if not matrix_is(m, prop):
            raise ValueError(f"{name} must be {prop}")


def check_spin_factor(psi: StateVector, spin_factor: int) -> None:
    """Raise a ``ValueError`` unless factor ``spin_factor`` of ``psi`` is a spin."""
    if not 0 <= spin_factor < psi.num_factors:
        raise ValueError(
            f"factor index {spin_factor} out of range for {psi.num_factors} factors"
        )
    if psi.factor_dims[spin_factor] != 2:
        raise ValueError(
            f"factor {spin_factor} has dimension {psi.factor_dims[spin_factor]}, "
            "expected a spin (dimension 2)"
        )
