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
from typing import Sequence

import numpy as np

from . import qcore
from .qcore import (
    BlochVector,
    StateVector,
    IDENTITY_2,
    MODEL_TOL,
    PHYSICAL_SLACK,
    TETRA_SLACK,
    ULP_SLACK,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
)

_CENTROID = np.array([0.25, 0.25, 0.25])
_ZERO, _ONE = np.array([0.0]), np.array([1.0])  # ufunc operands without a scalar's conversion
# Tomography probes: canonical purifications of the ball center and the +x, +y, +z poles.
_REFERENCE_STATES = qcore.purify_batch(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
).reshape(4, 2, 2)


class _DerivedData:
    """Data derived from a detector's hidden model, computed on first use
    or at a stacked build (alone, or in a batch with other detectors) and
    stored on the instance itself as its own arrays, so it lives and dies
    with the detector and is never shared between two detectors."""

    def _hold(self, **fields) -> "Detector":
        """Store a checked model, each array the detector's own, read-only."""
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        vars(self).update(fields)
        return self


@dataclass(frozen=True)
class EffectDetector(_DerivedData):
    """Detector whose hidden model is an effect operator 0 <= M <= 1."""

    effect: np.ndarray

    def __post_init__(self):
        m = np.array(self.effect, dtype=complex)
        self._check(m[None])
        self._hold(effect=m)

    @staticmethod
    def _check(effects: np.ndarray) -> None:
        """The family's checks, on an (N, 2, 2) stack of effects."""
        if effects.shape[1:] != (2, 2):
            raise ValueError("effect must be a 2x2 matrix")
        qcore.check_matrix(effects, "effect", "Hermitian")
        eigvals = np.linalg.eigvalsh(effects)
        for k, (low, high) in enumerate(eigvals.tolist()):  # floats: cheaper for a batch of one
            if low < -MODEL_TOL or high > 1.0 + MODEL_TOL:
                raise ValueError(f"effect eigenvalues {eigvals[k]} outside [0, 1]")

    @classmethod
    def stack(cls, effects: np.ndarray) -> list["EffectDetector"]:
        """Detectors of an (N, 2, 2) stack of effects, checked as one."""
        effects = np.asarray(effects, dtype=complex)
        cls._check(effects)
        return [object.__new__(cls)._hold(effect=e.copy()) for e in effects]

    _model = property(lambda self: self.effect)  # what the family's formula takes

    @staticmethod
    def _clicks(effect: np.ndarray, amps: np.ndarray) -> np.ndarray:
        """The family's one formula, unclipped: sum_r <a_r|E|a_r> per row."""
        return np.einsum("nir,nir->n", amps.conj(), effect @ amps).real


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
        self._check(m, coupling[None], projector[None])
        self._hold(ancilla_dim=m, coupling=coupling, projector=projector)

    @staticmethod
    def _check(m: int, couplings: np.ndarray, projectors: np.ndarray) -> None:
        """The family's checks, on stacks of N couplings and N projectors."""
        if couplings.shape[1:] != (2 * m, 2 * m):
            raise ValueError("coupling must act on the spin+ancilla space")
        qcore.check_matrix(couplings, "coupling", "unitary")
        if projectors.shape[1:] != (m, m):
            raise ValueError("projector must act on the ancilla space")
        qcore.check_matrix(projectors, "projector", "Hermitian", "idempotent")

    @classmethod
    def stack(cls, m: int, couplings: np.ndarray, projectors: np.ndarray) -> list["AncillaDetector"]:
        """Detectors of N couplings and N projectors, checked as one, with click maps."""
        m, couplings, projectors = int(m), np.asarray(couplings, dtype=complex), np.asarray(projectors, dtype=complex)
        cls._check(m, couplings, projectors)
        return [object.__new__(cls)._hold(ancilla_dim=m, coupling=u.copy(), projector=p.copy(), click_map=c.copy())
                for u, p, c in zip(couplings, projectors, cls._click_maps(couplings, projectors))]

    @staticmethod
    def _click_maps(couplings: np.ndarray, projectors: np.ndarray) -> np.ndarray:
        """(N, 2m, 2) click maps (1 (x) P) U of a stack, U restricted to
        ancilla input |0>: P applied to each half of U's two columns."""
        n, size = couplings.shape[:2]
        halves = couplings[:, :, :: size // 2].reshape(n, 2, size // 2, 2)
        return (projectors[:, None] @ halves).reshape(n, size, 2)

    @cached_property
    def click_map(self) -> np.ndarray:
        """(2m, 2) map (1 (x) P) U, ancilla input |0>, from spin amplitudes to
        projected spin+ancilla ones (a batch of one of ``_click_maps``)."""
        return self._click_maps(self.coupling[None], self.projector[None])[0]

    _model = property(lambda self: self.click_map)  # what the family's formula takes

    @staticmethod
    def _clicks(click_map: np.ndarray, amps: np.ndarray) -> np.ndarray:
        """The family's one formula, unclipped: |M a|^2 per row."""
        projected = click_map @ amps
        return np.einsum("nkr,nkr->n", projected.conj(), projected).real


Detector = EffectDetector | AncillaDetector


@dataclass(frozen=True)
class ModelStacks:
    """N rows' detectors, an (N,) object array, and their models stacked by
    family and shape: per stack the family, each row's slot (-1 off it) and the models."""

    detectors: np.ndarray
    groups: tuple[tuple[type, np.ndarray, np.ndarray], ...]

    @classmethod
    def of(cls, dets: Sequence[Detector]) -> "ModelStacks":
        rows: dict[tuple, list[int]] = {}
        for i, det in enumerate(dets):
            if not isinstance(det, Detector):
                raise TypeError(f"ModelStacks.of takes detectors, not a {type(det).__name__}")
            rows.setdefault((type(det), det._model.shape), []).append(i)
        groups = []
        for (family, _), index in rows.items():
            slot = np.full(len(dets), -1)
            slot[index] = np.arange(len(index))
            groups.append((family, slot, np.stack([dets[i]._model for i in index])))
        return cls(np.array(dets, dtype=object), tuple(groups))

    def on_rows(self, index: Sequence[int]) -> "ModelStacks":
        """The stacks of the listed rows, in the order of ``index``."""
        return ModelStacks(self.detectors[index], tuple((f, slot[index], m) for f, slot, m in self.groups))


def _stacks(det) -> ModelStacks:
    if isinstance(det, ModelStacks):
        return det
    raise TypeError(f"expected a Detector or a ModelStacks.of(detectors), not a {type(det).__name__}")


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

    def is_physical(self) -> bool:
        return (
            self.beta + self.alpha_norm <= 1.0 + PHYSICAL_SLACK
            and self.beta - self.alpha_norm >= -PHYSICAL_SLACK
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
    qcore.check_spin_factor(psi, spin_factor)
    return float(click_probabilities(det, qcore.spin_first(psi.as_tensor()[None], spin_factor))[0])


def click_probabilities(det: Detector | ModelStacks, amps: np.ndarray) -> np.ndarray:
    """Click probabilities of N stacked states.

    ``amps`` has shape (N, 2, rest): axis 1 is the measured spin and
    axis 2 runs over every other factor.  ``det`` is one detector for
    every row, or the ``ModelStacks`` of N detectors of any families, one
    per row.  An effect detector gives sum_r <a_r|E|a_r>; an
    ancilla detector is simulated exactly, as the squared norm of its
    projected spin+ancilla amplitudes.  A family's one formula takes its
    model matrix alone or stacked one per row, so a row's value never
    depends on its batch.
    """
    if isinstance(det, Detector):
        p = det._clicks(det._model, amps)
    else:
        p = np.empty(len(amps))
        for family, slot, models in _stacks(det).groups:
            rows = np.flatnonzero(slot >= 0)
            p[rows] = family._clicks(models[slot[rows]], amps[rows])
    return np.minimum(np.maximum(p, _ZERO), _ONE)  # np.clip, without its call and scalar-conversion overhead


def kraus_pairs(dets: Sequence[Detector]) -> np.ndarray:
    """The (2, N, 2, 2) Kraus pairs of N detectors, stacked by outcome in
    a fresh array: the principal square roots of each ground-truth effect
    E and of 1 - E, from one batched ``eigh``.  They are the measurement
    operators of the circuit evaluator's post-measurement states."""
    effects = np.array([equivalent_effect(d) for d in dets]).reshape(-1, 2, 2)
    eigvals, eigvecs = np.linalg.eigh(np.stack([effects, IDENTITY_2 - effects]))
    return (eigvecs * np.sqrt(eigvals.clip(0.0))[..., None, :]) @ eigvecs.conj().swapaxes(2, 3)


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


def probe_fclick(det: Detector | ModelStacks, p):
    """Click probability at a Bloch point, probed through the canonical
    purification (purification independence is tested, not assumed).

    ``p`` is a BlochVector, giving a float, or an (N, 3) array of
    points, giving an array of N probabilities; ``det`` is taken as by
    ``click_probabilities``.
    """
    if isinstance(p, BlochVector):
        return float(probe_fclick(det, np.array([[p.px, p.py, p.pz]]))[0])
    amps = qcore.purify_batch(p)
    return click_probabilities(det, amps.reshape(-1, 2, 2))


def extract_affine(det: Detector) -> AffineResponse:
    """Tomography from four reference probes: the ball center and the
    three positive axis poles (a batch of one of ``extract_affines``)."""
    return extract_affines(det)[0]


def extract_affines(det: Detector | ModelStacks) -> list[AffineResponse]:
    """Tomography of one detector, or of each row's of a ``ModelStacks``, in
    one oracle call on four reference rows per detector."""
    stacked = not isinstance(det, Detector)
    count = len(_stacks(det).detectors) if stacked else 1
    rows = det.on_rows(np.repeat(np.arange(count), 4)) if stacked else det
    values = click_probabilities(rows, np.tile(_REFERENCE_STATES, (count, 1, 1))).reshape(count, 4)
    alphas = values[:, 1:] - values[:, :1]
    return [AffineResponse(alpha=a, beta=b) for a, b in zip(alphas, values[:, 0].tolist())]


def linear_extension(resp: AffineResponse, p: BlochVector) -> float:
    """Click probability at ``p`` rebuilt by the four-step convex
    construction from the four reference values only.

    (i) interpolate along the x segment, (ii) lift into the xy triangle,
    (iii) lift into the reference tetrahedron, (iv) for points outside
    the tetrahedron, extrapolate along the line through the tetrahedron
    centroid.  The shortcut dot product lives in ``AffineResponse.predict``
    and serves as the independent oracle.
    """
    if p.norm > 1.0 + PHYSICAL_SLACK:
        raise ValueError(f"|p| = {p.norm} lies outside the Bloch ball")
    point = p.as_array()
    if _in_tetrahedron(point):
        return _step_tetrahedron(resp, _clip_tetra(point))
    t_lo, t_hi = _clip_line_to_tetrahedron(point)
    if t_hi - t_lo < TETRA_SLACK:
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
    if py >= 1.0 - ULP_SLACK:
        return f_b
    base = _step_segment(resp, px / (1.0 - py))
    return (1.0 - py) * base + py * f_b


def _step_tetrahedron(resp: AffineResponse, point: np.ndarray) -> float:
    f_c = resp.beta + resp.alpha[2]
    px, py, pz = point
    if pz >= 1.0 - ULP_SLACK:
        return f_c
    base = _step_triangle(resp, px / (1.0 - pz), py / (1.0 - pz))
    return (1.0 - pz) * base + pz * f_c


def _in_tetrahedron(point: np.ndarray) -> bool:
    return bool(np.all(point >= -TETRA_SLACK) and point.sum() <= 1.0 + TETRA_SLACK)


def _clip_tetra(point: np.ndarray) -> np.ndarray:
    # Absorb clipping round-off so the step functions see clean inputs.
    cleaned = np.where(np.abs(point) < TETRA_SLACK, 0.0, point)
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
        if abs(slope) < ULP_SLACK:
            if value < -TETRA_SLACK:
                return (0.0, 0.0)
            continue
        crossing = -value / slope
        if slope > 0:
            t_lo = max(t_lo, crossing)
        else:
            t_hi = min(t_hi, crossing)
    return (max(t_lo, 0.0), t_hi)


def to_povm(resp: AffineResponse) -> PovmEffect:
    """Assemble the click effect alpha . sigma + beta * 1."""
    if not resp.is_physical():
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
    if np.any(weights < 0) or not abs(weights.sum() - 1.0) <= MODEL_TOL:
        raise ValueError("ensemble weights must be non-negative and sum to 1")
    if len({psi.factor_dims for _, psi in ensemble}) > 1:
        raise ValueError("ensemble members must share their factor dimensions")
    for _, psi in ensemble:
        qcore.check_spin_factor(psi, spin_factor)
    amps = np.concatenate([qcore.spin_first(psi.as_tensor()[None], spin_factor) for _, psi in ensemble])
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


def draw_detector(rng, family: str | None = None, ancilla_dim: int | None = None) -> tuple:
    """The raw numbers of a random detector in stream order: its ancilla
    dimension (0 for an effect), the Gaussians of its Haar unitaries, and
    the effect's eigenvalues, uniform in [0, 1], or the rank of its random
    projector.  No ``family`` ("effect" or "ancilla") is an even mix, no
    ``ancilla_dim`` (at least 2) an even mix of 2 and 4."""
    if family not in (None, "effect", "ancilla"):
        raise ValueError(f"family must be 'effect', 'ancilla' or None, got {family!r}")
    if ancilla_dim is not None and int(ancilla_dim) < 2:
        raise ValueError(f"ancilla_dim must be >= 2, got {ancilla_dim!r}")
    rng = qcore.as_rng(rng)
    family = family or ("effect" if rng.uniform() < 0.5 else "ancilla")
    if family == "effect":
        basis = rng.standard_normal((2, 2, 2))
        return 0, (basis,), rng.uniform(0.0, 1.0, size=2)
    m = int(ancilla_dim) if ancilla_dim is not None else (2, 4)[rng.integers(2)]  # rng.choice's stream
    coupling = rng.standard_normal((2, 2 * m, 2 * m))
    rank = int(rng.integers(1, m))
    return m, (coupling, rng.standard_normal((2, m, m))), rank


def build_detectors(draws: Sequence[tuple]) -> list[Detector]:
    """The detectors of ``draw_detector`` draws: the unitaries of all draws
    in one ``haar_unitaries`` call per dimension, then the models of each
    family, ancilla dimension and rank as one ``stack`` of the family."""
    unitaries = iter(qcore.build_unitaries([g for _, gaussians, _ in draws for g in gaussians]))
    drawn = [(m, spectrum, *(next(unitaries) for _ in gaussians)) for m, gaussians, spectrum in draws]

    def build(stack: list[tuple]) -> list[Detector]:
        m, rank = stack[0][:2]  # an effect's "rank" is its spectrum
        w = np.array([d[2] for d in stack])
        if not m:
            spectra = np.array([d[1] for d in stack])[:, None, :]
            return EffectDetector.stack((w * spectra) @ w.conj().swapaxes(1, 2))  # bit for bit w diag(s) w^dagger
        basis = np.array([d[3][:, :rank] for d in stack])
        return AncillaDetector.stack(m, w, basis @ basis.conj().swapaxes(1, 2))

    return qcore.in_stacks(drawn, lambda d: (d[0], d[1] if d[0] else 0), build)


def random_effect_detector(rng) -> EffectDetector:
    """Random valid effect: a batch of one of ``build_detectors``."""
    return build_detectors([draw_detector(rng, "effect")])[0]


def random_ancilla_detector(rng, ancilla_dim: int | None = None) -> AncillaDetector:
    """Random ancilla model: a batch of one of ``build_detectors``."""
    return build_detectors([draw_detector(rng, "ancilla", ancilla_dim)])[0]


def random_detector(rng) -> Detector:
    """Even mix of the two ground-truth families."""
    return build_detectors([draw_detector(rng)])[0]

