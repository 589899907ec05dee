"""Black-box spin detectors and the tomography that recovers their
affine Bloch response and POVM effect.

A detector is a probability oracle: it reports the chance of a "click"
when fed the spin factor of a composite state.  Two hidden ground-truth
models exist (a 2x2 effect operator, or an ancilla coupling followed by
a projector), but the tomography path only ever calls the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qcore
from .qcore import (
    BlochVector,
    StateVector,
    DEFAULT_TOL,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
)

_CENTROID = np.array([0.25, 0.25, 0.25])
# Tomography probes: the ball center and the three positive axis poles.
_REFERENCE_POINTS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


class _DerivedData:
    """Data derived from a detector's hidden model, computed on first use
    and stored on the instance itself, so it lives and dies with the
    detector and is never shared between two detectors."""

    @cached_property
    def kraus_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Principal square roots of the ground-truth effect E and of
        1 - E: the measurement operators of the circuit evaluator's
        post-measurement states."""
        effect = equivalent_effect(self)
        return _hermitian_sqrt(effect), _hermitian_sqrt(IDENTITY_2 - effect)


@dataclass(frozen=True)
class EffectDetector(_DerivedData):
    """Detector whose hidden model is an effect operator 0 <= M <= 1."""

    effect: np.ndarray

    def __post_init__(self):
        m = np.array(self.effect, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("effect must be a 2x2 matrix")
        if not np.isfinite(m).all():
            raise ValueError("effect entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-9:
            raise ValueError("effect must be Hermitian")
        eigvals = np.linalg.eigvalsh(m)
        if eigvals[0] < -1e-9 or eigvals[-1] > 1.0 + 1e-9:
            raise ValueError(f"effect eigenvalues {eigvals} outside [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "effect", m)


@dataclass(frozen=True)
class AncillaDetector(_DerivedData):
    """Detector whose hidden model couples the spin to an ancilla and
    projects the ancilla; the click probability is simulated exactly."""

    ancilla_dim: int
    coupling: np.ndarray
    projector: np.ndarray

    def __post_init__(self):
        m = int(self.ancilla_dim)
        coupling = np.array(self.coupling, dtype=complex)
        projector = np.array(self.projector, dtype=complex)
        if not (np.isfinite(coupling).all() and np.isfinite(projector).all()):
            raise ValueError("coupling and projector entries must be finite")
        if coupling.shape != (2 * m, 2 * m):
            raise ValueError("coupling must act on the spin+ancilla space")
        if not qcore.is_unitary(coupling, 1e-9):
            raise ValueError("coupling must be unitary")
        if projector.shape != (m, m):
            raise ValueError("projector must act on the ancilla space")
        if np.max(np.abs(projector - projector.conj().T)) > 1e-9:
            raise ValueError("projector must be Hermitian")
        if not np.max(np.abs(projector @ projector - projector)) <= 1e-9:
            raise ValueError("projector must be idempotent")
        coupling.setflags(write=False)
        projector.setflags(write=False)
        object.__setattr__(self, "ancilla_dim", m)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "projector", projector)

    @cached_property
    def click_map(self) -> np.ndarray:
        """(2m, 2) map (1 (x) P) U restricted to ancilla input |0>: it
        takes the spin amplitudes to the projected spin+ancilla ones."""
        return np.kron(IDENTITY_2, self.projector) @ self.coupling[:, :: self.ancilla_dim]


Detector = EffectDetector | AncillaDetector


@dataclass(frozen=True)
class AffineResponse:
    """Affine click response alpha . p + beta over the Bloch ball."""

    alpha: np.ndarray
    beta: float

    def __post_init__(self):
        a = np.array(self.alpha, dtype=float)
        if a.shape != (3,):
            raise ValueError("alpha must be a real 3-vector")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def alpha_norm(self) -> float:
        return float(np.linalg.norm(self.alpha))

    def is_physical(self, tol: float = DEFAULT_TOL) -> bool:
        return (
            self.beta + self.alpha_norm <= 1.0 + tol
            and self.beta - self.alpha_norm >= -tol
        )

    def predict(self, p: BlochVector) -> float:
        """Direct dot-product evaluation (the oracle for linear_extension)."""
        return float(self.alpha @ p.as_array() + self.beta)


@dataclass(frozen=True)
class PovmEffect:
    """Click effect operator assembled from an affine response."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def click_probability(det: Detector, psi: StateVector, spin_factor: int = 0) -> float:
    """Probability that the detector clicks on the given spin factor (a
    batch of one of ``click_probabilities``)."""
    return float(click_probabilities(det, _spin_amplitudes(psi, spin_factor)[None])[0])


def _spin_amplitudes(psi: StateVector, spin_factor: int) -> np.ndarray:
    """(2, rest) amplitudes: the measured spin first, every other factor
    flattened."""
    qcore._check_spin_factor(psi, spin_factor)
    tens = psi.as_tensor()
    if spin_factor:
        tens = np.moveaxis(tens, spin_factor, 0)
    return tens.reshape(2, -1)


def click_probabilities(det: Detector, amps: np.ndarray) -> np.ndarray:
    """Click probabilities of N stacked states.

    ``amps`` has shape (N, 2, rest): axis 1 is the measured spin and
    axis 2 runs over every other factor.  An effect detector gives
    sum_r <a_r|E|a_r>; an ancilla detector is simulated exactly, as the
    squared norm of its projected spin+ancilla amplitudes.
    """
    if isinstance(det, EffectDetector):
        p = np.einsum("nir,ij,njr->n", amps.conj(), det.effect, amps).real
    elif isinstance(det, AncillaDetector):
        projected = np.einsum("ki,nir->nkr", det.click_map, amps)
        p = np.einsum("nkr,nkr->n", projected.conj(), projected).real
    else:
        raise TypeError(f"not a detector: {type(det).__name__}")
    return np.clip(p, 0.0, 1.0)


def equivalent_effect(det: Detector) -> np.ndarray:
    """Ground-truth 2x2 effect of a detector.

    Reads the hidden model; it exists for consistency tests and for the
    circuit evaluator's post-measurement states, never for tomography.
    """
    if isinstance(det, EffectDetector):
        return np.array(det.effect)
    # <i, anc0| U^dagger (1 (x) P) U |j, anc0> = (M^dagger M)_ij for the
    # click map M, since 1 (x) P is a projector.
    return det.click_map.conj().T @ det.click_map


def complement_detector(det: Detector) -> Detector:
    """Detector whose click is the original's no-click outcome."""
    if isinstance(det, EffectDetector):
        return EffectDetector(IDENTITY_2 - det.effect)
    return AncillaDetector(
        det.ancilla_dim, det.coupling, np.eye(det.ancilla_dim) - det.projector
    )


def probe_fclick(det: Detector, p):
    """Click probability at a Bloch point, probed through the canonical
    purification (purification independence is tested, not assumed).

    ``p`` is a BlochVector, giving a float, or an (N, 3) array of
    points, giving an array of N probabilities.
    """
    if isinstance(p, BlochVector):
        return float(probe_fclick(det, p.as_array()[None])[0])
    amps = qcore.purify_batch(p)
    return click_probabilities(det, amps.reshape(-1, 2, 2))


def extract_affine(det: Detector) -> AffineResponse:
    """Tomography from four reference probes: the ball center and the
    three positive axis poles."""
    values = probe_fclick(det, _REFERENCE_POINTS)
    beta = float(values[0])
    return AffineResponse(alpha=values[1:] - beta, beta=beta)


def linear_extension(resp: AffineResponse, p: BlochVector, tol: float = DEFAULT_TOL) -> float:
    """Click probability at ``p`` rebuilt by the four-step convex
    construction from the four reference values only.

    (i) interpolate along the x segment, (ii) lift into the xy triangle,
    (iii) lift into the reference tetrahedron, (iv) for points outside
    the tetrahedron, extrapolate along the line through the tetrahedron
    centroid.  The shortcut dot product lives in ``AffineResponse.predict``
    and serves as the independent oracle.
    """
    if p.norm > 1.0 + tol:
        raise ValueError(f"|p| = {p.norm} lies outside the Bloch ball")
    point = p.as_array()
    if _in_tetrahedron(point):
        return _step_tetrahedron(resp, _clip_tetra(point))
    t_lo, t_hi = _clip_line_to_tetrahedron(point)
    if t_hi - t_lo < 1e-12:
        raise ValueError("degenerate line: tetrahedron intersection is a point")
    direction = _CENTROID - point
    q1 = _clip_tetra(point + t_lo * direction)
    q2 = _clip_tetra(point + t_hi * direction)
    lam = t_lo / t_hi
    f_q1 = _step_tetrahedron(resp, q1)
    f_q2 = _step_tetrahedron(resp, q2)
    return (f_q1 - lam * f_q2) / (1.0 - lam)


def _step_segment(resp: AffineResponse, px: float) -> float:
    f_o = resp.beta
    f_a = resp.beta + resp.alpha[0]
    return (1.0 - px) * f_o + px * f_a


def _step_triangle(resp: AffineResponse, px: float, py: float) -> float:
    f_b = resp.beta + resp.alpha[1]
    if py >= 1.0 - 1e-15:
        return f_b
    base = _step_segment(resp, px / (1.0 - py))
    return (1.0 - py) * base + py * f_b


def _step_tetrahedron(resp: AffineResponse, point: np.ndarray) -> float:
    f_c = resp.beta + resp.alpha[2]
    px, py, pz = point
    if pz >= 1.0 - 1e-15:
        return f_c
    base = _step_triangle(resp, px / (1.0 - pz), py / (1.0 - pz))
    return (1.0 - pz) * base + pz * f_c


def _in_tetrahedron(point: np.ndarray, slack: float = 1e-12) -> bool:
    return bool(np.all(point >= -slack) and point.sum() <= 1.0 + slack)


def _clip_tetra(point: np.ndarray) -> np.ndarray:
    # Absorb clipping round-off so the step functions see clean inputs.
    cleaned = np.where(np.abs(point) < 1e-12, 0.0, point)
    return np.clip(cleaned, 0.0, None)


def _clip_line_to_tetrahedron(point: np.ndarray) -> tuple[float, float]:
    """Parameter interval [t_lo, t_hi] where point + t*(centroid - point)
    lies inside the reference tetrahedron."""
    direction = _CENTROID - point
    t_lo, t_hi = -math.inf, math.inf
    # Four half-spaces: x >= 0, y >= 0, z >= 0, x + y + z <= 1.
    normals = [
        (np.array([1.0, 0, 0]), 0.0, 1),
        (np.array([0, 1.0, 0]), 0.0, 1),
        (np.array([0, 0, 1.0]), 0.0, 1),
        (np.array([1.0, 1.0, 1.0]), 1.0, -1),
    ]
    for normal, offset, sign in normals:
        value = sign * (normal @ point - offset)
        slope = sign * (normal @ direction)
        if abs(slope) < 1e-15:
            if value < -1e-12:
                return (0.0, 0.0)
            continue
        crossing = -value / slope
        if slope > 0:
            t_lo = max(t_lo, crossing)
        else:
            t_hi = min(t_hi, crossing)
    return (max(t_lo, 0.0), t_hi)


def to_povm(resp: AffineResponse, tol: float = DEFAULT_TOL) -> PovmEffect:
    """Assemble the click effect alpha . sigma + beta * 1."""
    if not resp.is_physical(tol):
        raise ValueError(
            "non-physical affine response: probabilities leave [0, 1] "
            f"(beta={resp.beta}, |alpha|={resp.alpha_norm})"
        )
    ax, ay, az = resp.alpha
    matrix = ax * SIGMA_X + ay * SIGMA_Y + az * SIGMA_Z + resp.beta * IDENTITY_2
    return PovmEffect(matrix)


def mixed_click_probability(
    ensemble: list[tuple[float, StateVector]], det: Detector, spin_factor: int = 0
) -> float:
    """Law-of-total-probability click chance for a statistical mixture:
    the weighted click probabilities of its members, probed in one batch.
    The members must share their factor dimensions."""
    weights = np.array([w for w, _ in ensemble], dtype=float)
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("ensemble weights must be non-negative and sum to 1")
    if len({psi.factor_dims for _, psi in ensemble}) > 1:
        raise ValueError("ensemble members must share their factor dimensions")
    amps = np.stack([_spin_amplitudes(psi, spin_factor) for _, psi in ensemble])
    return float(weights @ click_probabilities(det, amps))


def sg_up_detector() -> EffectDetector:
    """Projective click on spin-up (the reference apparatus's upper exit)."""
    return EffectDetector(np.diag([1.0, 0.0]).astype(complex))


def cnot_click_detector() -> AncillaDetector:
    """Ancilla model equivalent to the spin-up projector: copy the spin
    onto a qubit ancilla, then project the ancilla on its up state."""
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    return AncillaDetector(2, cnot, np.diag([1.0, 0.0]).astype(complex))


def random_effect_detector(rng) -> EffectDetector:
    """Random valid effect: Haar basis with eigenvalues uniform in [0, 1]."""
    rng = qcore.as_rng(rng)
    w = qcore.random_unitary(2, rng)
    eigvals = rng.uniform(0.0, 1.0, size=2)
    return EffectDetector(w @ np.diag(eigvals) @ w.conj().T)


def random_ancilla_detector(rng, ancilla_dim: int | None = None) -> AncillaDetector:
    """Random ancilla model: Haar coupling on spin+ancilla plus a random
    rank-deficient projector."""
    rng = qcore.as_rng(rng)
    m = int(ancilla_dim) if ancilla_dim else int(rng.choice([2, 4]))
    coupling = qcore.random_unitary(2 * m, rng)
    rank = int(rng.integers(1, m))
    basis = qcore.random_unitary(m, rng)
    projector = basis[:, :rank] @ basis[:, :rank].conj().T
    return AncillaDetector(m, coupling, projector)


def random_detector(rng) -> Detector:
    """Even mix of the two ground-truth families."""
    rng = qcore.as_rng(rng)
    if rng.uniform() < 0.5:
        return random_effect_detector(rng)
    return random_ancilla_detector(rng)


def _hermitian_sqrt(m: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(m)
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T
