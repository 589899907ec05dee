import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bornverifier import coordinate as co
from bornverifier import detectors, qcore
from bornverifier.coordinate import (
    IntervalDetector,
    Wavefunction1D,
    born_integral,
    decompose_interval,
    gaussian_wavefunction,
    isospin_polarization,
    isospin_state,
    load_wavefunction,
    uniform_wavefunction,
    verify_isospin_born,
)


def wavefunction_texts():
    """Arbitrary text, lines of numeric and junk tokens, and uniform
    grids normalized where they can be, from tiny to overflowing."""
    number = st.floats(allow_nan=False, allow_infinity=False)
    token = st.one_of(
        number.map(repr),
        st.sampled_from(["1e308", "-1e308", "1e200", "nan", "-inf", "0", "#"]),
        st.text(max_size=3),
    )
    lines = st.lists(st.lists(token, min_size=1, max_size=4).map(" ".join), max_size=5)

    def grid(x0, dx, values):
        scale = math.sqrt(sum(v * v for v in values) * abs(dx)) or 1.0
        if not math.isfinite(scale):
            scale = 1.0
        return "".join(f"{x0 + i * dx!r} {v / scale!r}\n" for i, v in enumerate(values))

    grids = st.builds(grid, number, number, st.lists(number, min_size=2, max_size=5))
    return st.one_of(st.text(max_size=40), lines.map("\n".join), grids)


class TestBornIntegral:
    def test_uniform_half_mass(self):
        # Endpoint 0.4995 sits between grid points 0.499 and 0.5, so the
        # membership x1 <= x < x2 captures exactly half the 1000 points.
        wf = uniform_wavefunction(0.0, 1.0, 1000)
        assert born_integral(wf, IntervalDetector(0.0, 0.4995)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_full_line(self):
        wf = gaussian_wavefunction(-6, 6, 4000)
        assert born_integral(wf, IntervalDetector(-100.0, 100.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_empty_overlap(self):
        wf = uniform_wavefunction(0.0, 1.0, 100)
        assert born_integral(wf, IntervalDetector(2.0, 3.0)) == 0.0

    def test_gaussian_against_erf_oracle(self):
        wf = gaussian_wavefunction(-8, 8, 100000, sigma=1.0)
        mass = born_integral(wf, IntervalDetector(-1.0, 1.0))
        assert abs(mass - math.erf(1 / math.sqrt(2))) < 1e-4

    def test_gaussian_mass_on_the_suite_grid(self):
        # The grid point at x2 = 1 owns the cell [1, 1 + dx), outside the
        # interval; counting it would put the mass 1.9e-4 too high.
        wf = gaussian_wavefunction(-8, 8, 20000, sigma=1.0)
        mass = born_integral(wf, IntervalDetector(-1.0, 1.0))
        assert abs(mass - math.erf(1 / math.sqrt(2))) < 1e-6

    def test_right_endpoint_on_a_grid_point_is_excluded(self):
        wf = uniform_wavefunction(0.0, 1.0, 4)  # grid 0, 0.25, 0.5, 0.75
        mask = co.interval_mask(wf, IntervalDetector(0.25, 0.75))
        assert mask.tolist() == [False, True, True, False]
        assert born_integral(wf, IntervalDetector(0.25, 0.75)) == pytest.approx(0.5, abs=1e-12)

    def test_grid_refinement_converges(self):
        target = math.erf(1 / math.sqrt(2))
        errors = []
        for n in (2000, 4000, 8000):
            wf = gaussian_wavefunction(-8, 8, n, sigma=1.0)
            errors.append(abs(born_integral(wf, IntervalDetector(-1, 1)) - target))
        assert errors[2] < errors[0]
        assert errors[0] < 10 * (16.0 / 2000)  # O(dx) envelope


class TestDecomposeInterval:
    def test_matches_integral_exactly(self):
        rng = np.random.default_rng(1)
        wf = Wavefunction1D.from_values(
            -2.0, 2.0, rng.standard_normal(500) + 1j * rng.standard_normal(500)
        )
        det = IntervalDetector(-0.7, 0.9)
        decomp = decompose_interval(wf, det)
        assert decomp.c1_squared == born_integral(wf, det)  # same quadrature, exact
        assert decomp.c1**2 == pytest.approx(decomp.c1_squared, abs=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        wf = Wavefunction1D.from_values(
            0.0, 5.0, rng.standard_normal(300) + 1j * rng.standard_normal(300)
        )
        det = IntervalDetector(1.0, 3.0)
        decomp = decompose_interval(wf, det)
        rebuilt = decomp.c0 * decomp.phi0.values + decomp.c1 * decomp.phi1.values
        assert np.linalg.norm(rebuilt - wf.values) < 1e-12
        assert decomp.c0**2 + decomp.c1**2 == pytest.approx(1.0, abs=1e-12)

    def test_support_masks(self):
        wf = gaussian_wavefunction(-5, 5, 1000)
        det = IntervalDetector(-1.0, 1.0)
        decomp = decompose_interval(wf, det)
        mask = co.interval_mask(wf, det)
        assert np.all(decomp.phi0.values[mask] == 0)
        assert np.all(decomp.phi1.values[~mask] == 0)

    def test_fully_inside_support(self):
        wf = uniform_wavefunction(0.0, 1.0, 100)
        decomp = decompose_interval(wf, IntervalDetector(-1.0, 2.0))
        assert decomp.c1 == pytest.approx(1.0, abs=1e-12)
        assert decomp.phi0 is None
        assert decomp.undefined == ("phi0",)

    def test_fully_outside_support(self):
        wf = uniform_wavefunction(0.0, 1.0, 100)
        decomp = decompose_interval(wf, IntervalDetector(3.0, 4.0))
        assert decomp.c1 == 0.0
        assert decomp.phi1 is None
        assert decomp.undefined == ("phi1",)


class TestIsospin:
    def test_pure_inside_branch(self):
        p = isospin_polarization(np.zeros(2), np.array([0, 1.0]))
        np.testing.assert_allclose(p.as_array(), [0, 0, 1], atol=1e-12)

    def test_pure_outside_branch(self):
        p = isospin_polarization(np.array([1.0, 0]), np.zeros(2))
        np.testing.assert_allclose(p.as_array(), [0, 0, -1], atol=1e-12)

    def test_equal_components_point_along_x(self):
        chi = np.array([1 / math.sqrt(2), 0])
        p = isospin_polarization(chi, chi)
        np.testing.assert_allclose(p.as_array(), [1, 0, 0], atol=1e-12)

    def test_z_component_is_weight_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c1 = math.sqrt(rng.uniform())
            c0 = math.sqrt(1 - c1**2)
            chi0 = c0 * np.array([1.0, 0.0])
            chi1 = c1 * np.array([0.0, 1.0])
            p = isospin_polarization(chi0, chi1)
            assert p.pz == pytest.approx(c1**2 - c0**2, abs=1e-12)

    def test_matches_spin_polarization_of_mapped_state(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            raw0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            raw1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            scale = math.sqrt(np.vdot(raw0, raw0).real + np.vdot(raw1, raw1).real)
            chi0, chi1 = raw0 / scale, raw1 / scale
            mapped = isospin_state(chi0, chi1)
            np.testing.assert_allclose(
                qcore.bloch_polarization(mapped, 0).as_array(),
                isospin_polarization(chi0, chi1).as_array(),
                atol=1e-10,
            )

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            isospin_polarization(np.array([1.0, 0]), np.array([1.0, 0]))


class TestVerifyIsospinBorn:
    def test_inside_support_always_beeps(self):
        wf = uniform_wavefunction(0.0, 1.0, 100)
        report = verify_isospin_born(
            detectors.sg_up_detector(), wf, IntervalDetector(-1.0, 2.0)
        )
        assert report.passed
        assert dict(report.details)["interval_mass"] == pytest.approx(1.0, abs=1e-12)

    def test_outside_support_never_beeps(self):
        wf = uniform_wavefunction(0.0, 1.0, 100)
        report = verify_isospin_born(
            detectors.sg_up_detector(), wf, IntervalDetector(5.0, 6.0)
        )
        assert report.passed
        assert dict(report.details)["interval_mass"] == 0.0

    def test_generic_state_cross_module(self):
        rng = np.random.default_rng(5)
        wf = Wavefunction1D.from_values(
            -3.0, 3.0, rng.standard_normal(800) + 1j * rng.standard_normal(800)
        )
        report = verify_isospin_born(
            detectors.sg_up_detector(), wf, IntervalDetector(-1.2, 0.4)
        )
        assert report.passed
        assert report.max_deviation < 1e-9

    def test_ancilla_click_model_also_works(self):
        wf = gaussian_wavefunction(-6, 6, 2000)
        report = verify_isospin_born(
            detectors.cnot_click_detector(), wf, IntervalDetector(-1.0, 1.0)
        )
        assert report.passed

    def test_non_ideal_model_rejected(self):
        wf = uniform_wavefunction(0.0, 1.0, 100)
        noisy = detectors.EffectDetector(0.8 * np.diag([1.0, 0.0]) + 0.1 * np.eye(2))
        with pytest.raises(ValueError, match="ideal"):
            verify_isospin_born(noisy, wf, IntervalDetector(0.0, 0.5))


class TestWavefunctionIO:
    def test_three_column_roundtrip(self, tmp_path):
        wf = gaussian_wavefunction(-2, 2, 50)
        path = tmp_path / "wf.txt"
        lines = ["# x re im"]
        for x, v in zip(wf.xs, wf.values):
            lines.append(f"{float(x)!r} {float(v.real)!r} {float(v.imag)!r}")
        path.write_text("\n".join(lines) + "\n")
        loaded = load_wavefunction(path)
        assert loaded.n == wf.n
        assert loaded.dx == pytest.approx(wf.dx, abs=1e-12)
        np.testing.assert_allclose(loaded.values, wf.values, atol=1e-12)

    def test_two_column_real_only(self, tmp_path):
        path = tmp_path / "wf.txt"
        n = 100
        # Constant 1.0 on [0, 1): unit norm on this grid.
        path.write_text("\n".join(f"{float(i * 0.01)!r} 1.0" for i in range(n)) + "\n")
        loaded = load_wavefunction(path)
        assert born_integral(loaded, IntervalDetector(-1, 2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_ragged_grid_rejected(self, tmp_path):
        path = tmp_path / "wf.txt"
        path.write_text("0.0 1.0\n0.1 1.0\n0.3 1.0\n")
        with pytest.raises(ValueError, match="uniform"):
            load_wavefunction(path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0 1\n1e308 1\n", "grid extent x_max - x_min must be finite"),
            ("1e308 1\n-1e308 1\n", "grid spacing overflows"),
        ],
    )
    def test_overflowing_grid_rejected_with_its_file(self, tmp_path, text, message):
        # pytest turns a numpy RuntimeWarning into an error.
        path = tmp_path / "wf.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_wavefunction(path)

    def test_bad_column_count_reports_line(self, tmp_path):
        path = tmp_path / "wf.txt"
        path.write_text("0.0 1.0\n0.1 1.0 0.0 9.9\n")
        with pytest.raises(ValueError, match=":2:"):
            load_wavefunction(path)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("0.0 1.0\n1 nan\n", 2),  # NaN amplitude
            ("nan 1.0\n0.5 1.0\n", 1),  # NaN coordinate
            ("0.0 1.0\n0.5 inf\n", 2),  # infinite amplitude
            ("0.0 1.0 0.0\n0.5 1.0 -inf\n", 2),  # infinite imaginary part
        ],
    )
    def test_non_finite_value_reports_line(self, tmp_path, text, line):
        path = tmp_path / "wf.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: values must be finite")):
            load_wavefunction(path)


    @pytest.mark.parametrize(
        "text,line,entry",
        [
            ("0.0 0.5\n\u0662.0 0.5\n", 2, "\u0662.0"),  # an Arabic-Indic digit
            ("0.0 0.5_0\n1.0 0.5\n", 1, "0.5_0"),
            ("0.0 0.5\n1.0 \uff10.5\n", 2, "\uff10.5"),  # a fullwidth digit
            ("0.0 0.5\n1_0 0.5\n", 2, "1_0"),
        ],
    )
    def test_only_ascii_numerals_are_numbers(self, tmp_path, text, line, entry):
        path = tmp_path / "wf.txt"
        path.write_text(text, encoding="utf-8")
        message = f"{path}:{line}: not an ASCII decimal number: {entry!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_wavefunction(path)

    @pytest.mark.parametrize("data,line", [(b"0.0 1.0\n0.5 \xff\n", 2), (b"\xc3", 1), (b"# \xe2\x88\n0 1\n", 1)])
    def test_bytes_that_are_not_utf8_report_their_line(self, tmp_path, data, line):
        path = tmp_path / "wf.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{line}: not valid UTF-8')}"):
            load_wavefunction(path)

    def test_line_breaks_are_those_of_a_text_file(self, tmp_path):
        path = tmp_path / "wf.txt"
        path.write_bytes(b"0.0 1.0\r0.5 1.0\r\n# comment\n")
        assert load_wavefunction(path).n == 2
        path.write_bytes(b"0.0 1.0\r0.5 1.0 0.0 0.0\r\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: expected 2 or 3 columns')}"):
            load_wavefunction(path)


class TestLoadFuzz:
    @settings(max_examples=150, deadline=None)
    @given(text=wavefunction_texts())
    def test_any_text_gives_wavefunction_or_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                loaded = load_wavefunction(path)
            except ValueError:
                return
        assert isinstance(loaded, Wavefunction1D)


class TestValidation:
    def test_interval_orientation(self):
        with pytest.raises(ValueError):
            IntervalDetector(1.0, 1.0)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            Wavefunction1D(0.0, 1.0, np.ones(100) * 5.0)

    @pytest.mark.parametrize("value", [np.nan, 1e200])
    def test_non_finite_norm_is_not_normalized(self, value):
        # 1e200 overflows the norm; pytest turns a RuntimeWarning into an error.
        with pytest.raises(ValueError, match="not normalized"):
            Wavefunction1D(0.0, 1.0, [value, 1.0])

    def test_overflowing_norm_cannot_be_normalized(self):
        # pytest turns a numpy RuntimeWarning into an error.
        with pytest.raises(ValueError, match="cannot normalize a wavefunction of norm inf"):
            Wavefunction1D.from_values(0.0, 1.0, [1e200, 1.0])
