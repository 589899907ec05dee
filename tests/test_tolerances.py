"""The tolerance table at the top of ``qcore``.

Every threshold the package compares against is a named entry of that
table.  Each entry gets a case with an input just inside its threshold
and one just outside, read through the code that uses it; a lint keeps
small float literals out of every other place in ``src/``.
"""

import ast
import math
import tempfile
import tokenize
from pathlib import Path

import numpy as np
import pytest

from bornverifier import circuits, coordinate, counterexamples, derivation, detectors, qcore
from bornverifier.qcore import BlochVector, StateVector

SRC = Path(qcore.__file__).parent
# A float literal below this is a threshold, and belongs in the table.
LINT_BOUND = 1e-3


def _table() -> dict[str, int]:
    """Name -> line of each module-level float constant below
    LINT_BOUND in qcore."""
    tree = ast.parse((SRC / "qcore.py").read_text())
    return {
        node.targets[0].id: node.lineno
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
        and 0.0 < node.value.value < LINT_BOUND
    }


def _raises(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


# Each probe takes an offset x near its entry's value and says whether
# the code under test put x on the threshold's side (at or below it).


def _default_tol(x):
    # verify_isospin_born's default tolerance bounds a detector's
    # distance from an ideal beeper.
    det = detectors.EffectDetector(np.diag([1.0 - x, x]))
    wf = coordinate.uniform_wavefunction(0.0, 1.0, 10)
    interval = coordinate.IntervalDetector(0.0, 0.5)
    return not _raises(lambda: coordinate.verify_isospin_born(det, wf, interval))


def _model_tol(x):
    return not _raises(lambda: detectors.EffectDetector([[0.5, x], [0.0, 0.5]]))


def _physical_slack(x):
    return not _raises(lambda: qcore.purify(BlochVector(0.0, 0.0, 1.0 + x)))


def _norm_tol(x):
    return not _raises(lambda: StateVector((2,), [1.0 + x, 0.0]))


def _grid_spacing_tol(x):
    value = repr(math.sqrt(2.0 / 3.0))  # unit norm on a 3-point grid of spacing 0.5
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wf.txt"
        path.write_text(f"0.0 {value}\n0.5 {value}\n{1.0 + x!r} {value}\n")
        return not _raises(lambda: coordinate.load_wavefunction(path))


def _degeneracy_tol(x):
    # A first component at or below the threshold is passed over as the
    # phase anchor, so the second is made real.
    return qcore.fix_global_phase(np.array([x, 1j]))[1].imag == 0.0


def _positive_floor(x):
    return _raises(lambda: counterexamples.ModifiedInnerRule(np.diag([x, 1.0])))


def _zero_weight(x):
    # Two grid points of spacing 0.5; the first carries interval mass x.
    wf = coordinate.Wavefunction1D(0.0, 1.0, [math.sqrt(2.0 * x), math.sqrt(2.0 * (1.0 - x))])
    decomp = coordinate.decompose_interval(wf, coordinate.IntervalDetector(0.0, 0.5))
    return "phi1" in decomp.undefined


def _zero_branch(x):
    psi = StateVector((2,), [math.sqrt(1.0 - x), math.sqrt(x)])
    return circuits.sg_measure(psi, 0)[1].post_state is None


def _tetra_slack(x):
    return detectors._in_tetrahedron(np.array([-x, 0.25, 0.25]))


def _ulp_slack(x):
    # On the edge x + y = 1 near the y vertex: at the vertex the step
    # returns f_b = 0 exactly; off it, (1 - y) f_a = 1 - y.
    py = 1.0 - x
    resp = detectors.AffineResponse(np.array([1.0, 0.0, 0.0]), 0.0)
    return detectors._step_triangle(resp, 1.0 - py, py) == 0.0


def _flat_segment_threshold(x):
    det = detectors.EffectDetector(np.diag([0.5 + x / 2, 0.5 - x / 2]))
    _, report = derivation.verify_lemma3_dyadic(
        det, BlochVector(0.0, 0.0, -1.0), BlochVector(0.0, 0.0, 1.0), depth=4, n_random=4
    )
    return report.name == "lemma3-flat"


PROBES = {
    "DEFAULT_TOL": _default_tol,
    "MODEL_TOL": _model_tol,
    "PHYSICAL_SLACK": _physical_slack,
    "NORM_TOL": _norm_tol,
    "GRID_SPACING_TOL": _grid_spacing_tol,
    "DEGENERACY_TOL": _degeneracy_tol,
    "POSITIVE_FLOOR": _positive_floor,
    "ZERO_WEIGHT": _zero_weight,
    "ZERO_BRANCH": _zero_branch,
    "TETRA_SLACK": _tetra_slack,
    "ULP_SLACK": _ulp_slack,
    "FLAT_SEGMENT_THRESHOLD": _flat_segment_threshold,
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_threshold_separates_inside_from_outside(name):
    value = getattr(qcore, name)
    assert PROBES[name](0.9 * value)
    assert not PROBES[name](1.1 * value)


def test_every_table_entry_has_a_probe():
    assert set(_table()) == set(PROBES)


def test_every_table_entry_states_its_reason():
    lines = (SRC / "qcore.py").read_text().splitlines()
    for name, lineno in _table().items():
        assert lines[lineno - 2].lstrip().startswith("#"), name


def test_no_threshold_literal_outside_the_table():
    table_lines = set(_table().values())
    stray = []
    for path in sorted(SRC.glob("*.py")):
        with tokenize.open(path) as handle:
            for tok in tokenize.generate_tokens(handle.readline):
                if tok.type != tokenize.NUMBER:
                    continue
                value = ast.literal_eval(tok.string)
                if not (isinstance(value, float) and 0.0 < value < LINT_BOUND):
                    continue
                if path.name == "qcore.py" and tok.start[0] in table_lines:
                    continue
                stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert stray == []


class TestHugeModelEntries:
    """A model entry so large that its check overflows fails that check,
    with the right error and without a numpy warning (pytest turns a
    RuntimeWarning into an error)."""

    def test_coupling(self):
        coupling = np.eye(4, dtype=complex)
        coupling[0, 0] = 1e200
        with pytest.raises(ValueError, match="^coupling must be unitary$"):
            detectors.AncillaDetector(2, coupling, np.diag([1.0, 0.0]))

    def test_projector(self):
        with pytest.raises(ValueError, match="^projector must be idempotent$"):
            detectors.AncillaDetector(2, np.eye(4), np.diag([1e200, 0.0]))

    def test_gate(self):
        up = StateVector((2,), [1.0, 0.0])
        with pytest.raises(ValueError, match="^gate matrix is not unitary$"):
            circuits.Circuit(up, (circuits.Gate((0,), np.diag([1e200, 1.0])),))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_non_finite_modified_operator(self, entry):
        with pytest.raises(ValueError, match="^modified-product operator entries must be finite$"):
            counterexamples.ModifiedInnerRule(np.diag([entry, 1.0]))
