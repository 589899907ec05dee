"""Interval detection on a discretized 1-D wavefunction, and the isospin
mapping that reduces it to the spin machinery.

Grids are uniform left-edge points x_i = x_min + i * dx with
dx = (x_max - x_min) / n, and all quadrature is the left-point Riemann
sum, whose cell for x_i is [x_i, x_i + dx).  A grid point belongs to a
detector interval [x1, x2] when x1 <= x_i < x2, so the point at x2,
whose cell lies outside the interval, is left out; endpoints falling
between grid points are not interpolated.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import detectors as _det, dsl, qcore
from .detectors import Detector
from .qcore import GRID_SPACING_TOL, MODEL_TOL, NORM_TOL, ZERO_WEIGHT, BlochVector, StateVector
from .reporting import VerificationReport


@dataclass(frozen=True)
class Wavefunction1D:
    """Complex amplitudes on a uniform grid, normalized so that
    sum |psi_i|^2 dx = 1."""

    x_min: float
    x_max: float
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("wavefunction needs at least two grid values")
        if not self.x_max > self.x_min:
            raise ValueError("grid requires x_max > x_min")
        with np.errstate(over="ignore", invalid="ignore"):
            dx = (self.x_max - self.x_min) / values.size
            norm = float(np.sum(np.abs(values) ** 2) * dx)
        if not math.isfinite(dx):
            raise ValueError("grid extent x_max - x_min must be finite")
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"wavefunction is not normalized (norm^2={norm!r})")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + np.arange(self.n) * self.dx

    @staticmethod
    def from_values(x_min: float, x_max: float, values) -> "Wavefunction1D":
        """Build with exact grid normalization applied."""
        values = np.asarray(values, dtype=complex)
        dx = (float(x_max) - float(x_min)) / values.size
        with np.errstate(over="ignore", invalid="ignore"):
            norm = math.sqrt(float(np.sum(np.abs(values) ** 2) * dx))
        if not 0.0 < norm < math.inf:
            raise ValueError(f"cannot normalize a wavefunction of norm {norm!r}")
        return Wavefunction1D(x_min, x_max, values / norm)


@dataclass(frozen=True)
class IntervalDetector:
    """Ideal beeper for the coordinate range [x1, x2]."""

    x1: float
    x2: float

    def __post_init__(self):
        if not self.x2 > self.x1:
            raise ValueError("interval requires x1 < x2")


@dataclass(frozen=True)
class IntervalDecomposition:
    """Split into the outside part phi0 and inside part phi1 with
    weights c0, c1; an undefined branch (zero weight) is None and its
    name is listed in ``undefined``.

    ``c1_squared`` is the interval mass from the same quadrature as
    ``born_integral`` (bit-identical), so it is the value to compare
    exactly; c1 is its square root.
    """

    c0: float
    c1: float
    c0_squared: float
    c1_squared: float
    phi0: Wavefunction1D | None
    phi1: Wavefunction1D | None
    undefined: tuple[str, ...] = ()


def uniform_wavefunction(x_min: float, x_max: float, n: int) -> Wavefunction1D:
    return Wavefunction1D.from_values(x_min, x_max, np.ones(n))


def gaussian_wavefunction(
    x_min: float, x_max: float, n: int, sigma: float = 1.0, center: float = 0.0
) -> Wavefunction1D:
    """Amplitude whose squared magnitude is the normal density with the
    given center and standard deviation, renormalized on the grid."""
    dx = (x_max - x_min) / n
    xs = x_min + np.arange(n) * dx
    values = np.exp(-((xs - center) ** 2) / (4.0 * sigma**2))
    return Wavefunction1D.from_values(x_min, x_max, values)


def load_wavefunction(path) -> Wavefunction1D:
    """Read a plain-text wavefunction: two columns (x, re) or three
    columns (x, re, im), one grid point per line, '#' comments.  The
    values must already be normalized on the grid."""
    try:
        text = dsl.read_utf8(path)
    except dsl.DslParseError as exc:
        raise ValueError(f"{path}:{exc.line}: {exc.message}") from None
    rows = []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 2 or 3 columns, got {len(parts)}")
        try:
            nums = [dsl.read_real(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, nums)):
            raise ValueError(f"{path}:{lineno}: values must be finite, got {line!r}")
        rows.append(nums)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two grid points")
    xs = np.array([r[0] for r in rows])
    values = np.array([complex(*r[1:]) for r in rows])
    with np.errstate(over="ignore", invalid="ignore"):
        dx = float(xs[1] - xs[0])
        spacing_error = np.max(np.abs(np.diff(xs) - dx))
        x_max = float(xs[0] + dx * len(xs))
    if not math.isfinite(dx):
        raise ValueError(f"{path}: grid spacing overflows")
    if not (dx > 0 and spacing_error <= GRID_SPACING_TOL * max(dx, 1.0)):
        raise ValueError(f"{path}: grid must be uniformly spaced and increasing")
    try:
        return Wavefunction1D(float(xs[0]), x_max, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def interval_mask(psi: Wavefunction1D, det: IntervalDetector) -> np.ndarray:
    """Grid points x1 <= x_i < x2: those whose left-point cells the
    interval covers."""
    return (psi.xs >= det.x1) & (psi.xs < det.x2)


def born_integral(psi: Wavefunction1D, det: IntervalDetector) -> float:
    """Probability mass of the interval: the left-point Riemann sum of
    |psi|^2 over the grid points x1 <= x_i < x2."""
    mask = interval_mask(psi, det)
    return float(np.sum(np.abs(psi.values[mask]) ** 2) * psi.dx)


def decompose_interval(
    psi: Wavefunction1D, det: IntervalDetector
) -> IntervalDecomposition:
    """Split psi into normalized inside/outside parts; the weights use
    the same quadrature as ``born_integral`` so c1^2 matches it exactly."""
    mask = interval_mask(psi, det)
    inside = np.where(mask, psi.values, 0.0)
    outside = np.where(mask, 0.0, psi.values)
    c1_sq = float(np.sum(np.abs(psi.values[mask]) ** 2) * psi.dx)
    c0_sq = float(np.sum(np.abs(psi.values[~mask]) ** 2) * psi.dx)
    undefined = []
    if c1_sq > ZERO_WEIGHT:
        phi1 = Wavefunction1D(psi.x_min, psi.x_max, inside / math.sqrt(c1_sq))
    else:
        phi1, c1_sq = None, max(c1_sq, 0.0)
        undefined.append("phi1")
    if c0_sq > ZERO_WEIGHT:
        phi0 = Wavefunction1D(psi.x_min, psi.x_max, outside / math.sqrt(c0_sq))
    else:
        phi0, c0_sq = None, max(c0_sq, 0.0)
        undefined.append("phi0")
    return IntervalDecomposition(
        c0=math.sqrt(c0_sq),
        c1=math.sqrt(c1_sq),
        c0_squared=c0_sq,
        c1_squared=c1_sq,
        phi0=phi0,
        phi1=phi1,
        undefined=tuple(undefined),
    )


def isospin_polarization(chi0: np.ndarray, chi1: np.ndarray) -> BlochVector:
    """Effective spin polarization of the two-component expansion with
    environment vectors chi0 (never-beeps branch) and chi1 (beeps
    branch)."""
    chi0 = np.asarray(chi0, dtype=complex)
    chi1 = np.asarray(chi1, dtype=complex)
    w0 = float(np.vdot(chi0, chi0).real)
    w1 = float(np.vdot(chi1, chi1).real)
    if not abs(w0 + w1 - 1.0) <= MODEL_TOL:
        raise ValueError("environment components must carry unit total weight")
    overlap = np.vdot(chi1, chi0)
    return BlochVector(2.0 * overlap.real, 2.0 * overlap.imag, w1 - w0)


def isospin_state(chi0: np.ndarray, chi1: np.ndarray) -> StateVector:
    """Spin+environment state carrying the isospin: the up component
    holds chi1 and the down component holds chi0."""
    chi0 = np.asarray(chi0, dtype=complex)
    chi1 = np.asarray(chi1, dtype=complex)
    if chi0.shape != chi1.shape or chi0.ndim != 1:
        raise ValueError("environment components must be equal-length vectors")
    return StateVector((2, chi0.size), np.concatenate([chi1, chi0]))


def verify_isospin_born(
    det_click_model: Detector,
    psi: Wavefunction1D,
    interval: IntervalDetector,
    tolerance: float = qcore.DEFAULT_TOL,
    name: str = "isospin-born",
) -> VerificationReport:
    """Map the interval decomposition onto a spin-1/2 plus environment,
    run the detector machinery on the isospin, and confirm the click
    probability equals the interval mass c1^2."""
    up = StateVector((2,), qcore.UP)
    down = StateVector((2,), qcore.DOWN)
    dev_ideal = max(
        abs(_det.click_probability(det_click_model, up, 0) - 1.0),
        abs(_det.click_probability(det_click_model, down, 0)),
    )
    if dev_ideal > tolerance:
        raise ValueError(
            "detector model is not an ideal beeps-on-up click device "
            f"(deviation {dev_ideal})"
        )
    decomp = decompose_interval(psi, interval)
    mass = born_integral(psi, interval)
    dev_quadrature = abs(decomp.c1_squared - mass)

    chi0 = decomp.c0 * np.array([1.0, 0.0], dtype=complex)
    chi1 = decomp.c1 * np.array([0.0, 1.0], dtype=complex)
    mapped = isospin_state(chi0, chi1)
    pol = isospin_polarization(chi0, chi1)
    dev_polarization = float(
        np.max(np.abs(qcore.bloch_polarization(mapped, 0).as_array() - pol.as_array()))
    )

    direct = _det.click_probability(det_click_model, mapped, 0)
    resp = _det.extract_affine(det_click_model)
    extended = _det.linear_extension(resp, pol)
    target = decomp.c1_squared
    dev_click = abs(direct - target)
    dev_extension = abs(extended - target)

    worst = max(dev_quadrature, dev_polarization, dev_click, dev_extension)
    return VerificationReport.from_deviation(
        name,
        f"n={psi.n} interval=[{interval.x1:.6g},{interval.x2:.6g}]",
        worst,
        tolerance,
        (
            ("interval_mass", mass),
            ("quadrature_gap", dev_quadrature),
            ("polarization_deviation", dev_polarization),
            ("click_deviation", dev_click),
            ("extension_deviation", dev_extension),
        ),
    )
