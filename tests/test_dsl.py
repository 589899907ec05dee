import math
import operator
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornverifier import circuits, detectors, dsl, qcore
from bornverifier.dsl import DslParseError, ExperimentSpec, GateRef, MeasureRef, parse, print_spec

GOLDEN = Path(__file__).parent / "golden"

PAIR_SOURCE = """\
wire w0 : 2
wire w1 : 2
state S = sqrt(0.75)*|uu> + sqrt(0.25)*|dd>
prepare S
measure w1 SG -> first
query up : first = u
"""


class TestParse:
    def test_state_amplitude_assembly(self):
        spec = parse(PAIR_SOURCE)
        np.testing.assert_allclose(
            spec.states["S"],
            [math.sqrt(0.75), 0.0, 0.0, math.sqrt(0.25)],
            atol=1e-15,
        )

    def test_eigenstate_query_is_certain(self):
        spec = parse(
            "wire w0 : 2\nstate up = |u>\nprepare up\n"
            "measure w0 SG -> m\nquery q : m = u\n"
        )
        assert circuits.evaluate(spec.to_circuit(), spec.query("q")) == 1.0

    def test_pair_query_values(self):
        spec = parse(PAIR_SOURCE)
        assert circuits.evaluate(spec.to_circuit(), spec.query("up")) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_undeclared_wire_reference(self):
        source = "wire w0 : 2\nunitary X = [[0, 1], [1, 0]]\ngate X on w9\n"
        with pytest.raises(DslParseError) as excinfo:
            parse(source)
        err = excinfo.value
        assert err.line == 3
        assert err.token == "w9"
        assert source.splitlines()[err.line - 1][err.column - 1 :].startswith("w9")

    def test_complex_literals(self):
        spec = parse(
            "wire w0 : 2\nstate s = 0.6*|u> + 0.6-0.52915026221291817i*|d>\n"
        )
        amp = spec.states["s"][1]
        assert amp == complex(0.6, -0.52915026221291817)

    def test_negative_separator(self):
        spec = parse(
            "wire w0 : 2\nwire w1 : 2\n"
            "state m = sqrt(0.5)*|ud> - sqrt(0.5)*|du>\n"
        )
        assert spec.states["m"][2] == pytest.approx(-math.sqrt(0.5), abs=1e-15)

    def test_digit_kets_for_wide_wires(self):
        spec = parse(
            "wire spin : 2\nwire env : 4\n"
            "state s = sqrt(0.5)*|u0> + sqrt(0.5)*|d3>\n"
        )
        assert spec.states["s"][0] == pytest.approx(math.sqrt(0.5))
        assert spec.states["s"][7] == pytest.approx(math.sqrt(0.5))

    def test_ancilla_detector_declaration(self):
        spec = parse(
            "wire w0 : 2\n"
            "detector D = ancilla 2 coupling [[1, 0, 0, 0], [0, 1, 0, 0], "
            "[0, 0, 0, 1], [0, 0, 1, 0]] projector [[1, 0], [0, 0]]\n"
        )
        det = spec.detectors["D"]
        assert det.ancilla_dim == 2

    def test_empty_document(self):
        spec = parse("")
        assert spec.wires == ()
        assert print_spec(spec) == ""
        assert parse(print_spec(spec)) == spec


class TestParseErrors:
    CASES = [
        ("wire w0 : 1", "dimension"),
        ("wire w0 : 2\nwire w0 : 2", "already declared"),
        ("state s = |u>", "before any wire"),
        ("wire w0 : 2\nstate s = |uu>", "per wire"),
        ("wire w0 : 2\nstate s = |x>", "ket character"),
        ("wire e : 3\nstate s = |5>", "out of range"),
        ("wire w0 : 2\nstate s = 0.5*|u>", "not normalized"),
        ("wire w0 : 2\nunitary U = [[1, 1], [0, 1]]", "not unitary"),
        ("wire w0 : 2\ndetector D = effect [[2, 0], [0, 0]]", "invalid detector"),
        ("wire w0 : 2\nstate u = |u>\nprepare nope", "undefined state"),
        ("wire w0 : 2\nmeasure w0 XX -> m", "expected 'SG' or 'det'"),
        ("wire w0 : 2\nmeasure w0 SG -> m\nmeasure w0 SG -> m", "already used"),
        ("wire w0 : 2\nmeasure w0 SG -> m\nquery q : zz = u", "unknown measurement"),
        ("wire w0 : 2\nmeasure w0 SG -> m\nquery q : m = click", "outcome must be"),
        ("wire w0 : 2\nstate s = |u> @", "unexpected character"),
        ("wire w0 : 2\nmeasure w0 SG", "expected"),
        ("wire e : 3\nmeasure e SG -> m", "dimension 2"),
        ("wire w0 : 2\nunitary U = [[1, 0], [0, 1]]\ngate U on w0 w0", "distinct"),
        ("wire w0 : 2\nwire w1 : 3\nunitary U = [[1, 0], [0, 1]]\ngate U on w1", "span"),
    ]

    @pytest.mark.parametrize("source,fragment", CASES)
    def test_error_reported_with_position(self, source, fragment):
        with pytest.raises(DslParseError) as excinfo:
            parse(source)
        err = excinfo.value
        assert fragment in str(err)
        lines = source.splitlines()
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1


def _error(source: str) -> tuple[int, int, str, str]:
    with pytest.raises(DslParseError) as excinfo:
        parse(source)
    err = excinfo.value
    return err.line, err.column, err.message, err.token


CNOT_ANCILLA = (
    "coupling [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]] "
    "projector [[1, 0], [0, 0]]"
)


class TestDeclarationChecks:
    """Each declaration is checked where it is parsed, against the lines
    above it."""

    def test_wire_after_state_rejected(self):
        source = "wire w : 2\nstate s = |u>\nwire v : 2\nprepare s\n"
        assert _error(source) == (3, 6, "wire declared after a state", "v")

    @pytest.mark.parametrize(
        "source,token",
        [
            ("wire w : 2\nstate s = 1e400*|u> - 1e400*|u> + 1*|d>", "1e400"),
            ("wire w : 2\nstate s = sqrt(1e400)*|u>", "1e400"),
            ("wire w : 2\nstate s = 0.6*|u> + 0.8-1e999i*|d>", "0.8-1e999i"),
            ("wire w : 2\nunitary U = [[1, 0], [0, -1e400]]", "-1e400"),
            ("wire w : 2\ndetector D = effect [[1e400, 0], [0, 0]]", "1e400"),
        ],
    )
    def test_non_finite_literal_rejected_at_its_token(self, source, token):
        column = source.splitlines()[1].index(token) + 1
        assert _error(source) == (2, column, "literal is not finite", token)

    def test_overflowing_state_is_not_normalized(self):
        line, column, message, _ = _error("wire w : 2\nstate s = 1e300*|u> + 1e300*|u>")
        assert (line, column, message) == (2, 7, "state 's' is not normalized (norm=inf)")

    @pytest.mark.parametrize(
        "declaration,column,message",
        [
            ("state s = 1e308*|u> + 1e308*|u>", 7, "state 's' is not normalized (norm=inf)"),
            ("unitary U = [[1e200, 0], [0, 1]]", 9, "matrix 'U' is not unitary"),
            ("detector D = effect [[0, 1e308], [-1e308, 0]]", 10,
             "invalid detector 'D': effect must be Hermitian"),
            ("detector D = ancilla 2 coupling "
             "[[1e200, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]] "
             "projector [[1, 0], [0, 0]]", 10, "invalid detector 'D': coupling must be unitary"),
            ("detector D = ancilla 2 coupling "
             "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]] "
             "projector [[1e200, 0], [0, 0]]", 10, "invalid detector 'D': projector must be idempotent"),
        ],
    )
    def test_overflow_fails_its_check_without_a_warning(self, declaration, column, message):
        # pytest turns a numpy RuntimeWarning into an error.
        line, col, msg, _ = _error(f"wire w : 2\n{declaration}")
        assert (line, col, msg) == (2, column, message)

    @pytest.mark.parametrize("text", ["02", "1", "0", "2.0", "+2", "2e0"])
    def test_one_dimension_rule_for_wires_and_ancillas(self, text):
        assert _error(f"wire w : {text}") == (
            1, 10, "wire dimension must be an integer >= 2", text
        )
        assert _error(f"detector D = ancilla {text} {CNOT_ANCILLA}") == (
            1, 22, "ancilla dimension must be an integer >= 2", text
        )

    def test_total_dimension_capped_at_its_wire(self):
        cap = qcore.MAX_TOTAL_DIM
        assert parse(f"wire a : {cap}").factor_dims == (cap,)
        assert _error(f"wire a : {cap}\nwire b : 2") == (
            2, 10, f"total dimension {2 * cap} exceeds the maximum {cap}", "2"
        )

    @pytest.mark.parametrize(
        "declaration,message",
        [
            ("state s = 0.5*|u>", "state 's' is not normalized (norm=0.5)"),
            ("unitary U = [[1, 1], [0, 1]]", "matrix 'U' is not unitary"),
            ("detector D = effect [[0, 1], [1, 0]]", "invalid detector 'D'"),
        ],
    )
    def test_first_error_in_file_order(self, declaration, message):
        line, _, got, _ = _error(f"wire w : 2\n{declaration}\nmeasure w XX -> m\n")
        assert line == 2 and got.startswith(message)


# Fragments of the format, so that generated text reaches past the lexer.
FRAGMENTS = [
    "wire", "state", "unitary", "detector", "prepare", "gate", "measure",
    "query", "effect", "ancilla", "coupling", "projector", "on", "SG", "det",
    "sqrt(", ")", "w0", "w1", "s", "U", "D", "m", ":", "=", "*", "+", "-",
    ",", "->", "2", "3", "0.5", "1e400", "2i", "0.6-0.8i", "|u>", "|ud>",
    "|0>", "[[1, 0], [0, 1]]", "[[0.5, 0], [0, 0.5]]", "[", "]", " ", " ",
    "\n", "#", "u", "click",
]
CORPUS = [path.read_text() for path in sorted(GOLDEN.glob("*.qexp"))]


@st.composite
def mangled_text(draw):
    """Arbitrary text, fragment soup, or a golden file with a splice."""
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return draw(st.text(max_size=80))
    if choice == 1:
        pieces = st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3))
        return "".join(draw(st.lists(pieces, max_size=40)))
    text = draw(st.sampled_from(CORPUS))
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(len(text), start + 12)))
    insert = draw(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=4)))
    return text[:start] + insert + text[stop:]


_HEAD = string.ascii_letters + "_"
_NAMES = st.builds(
    operator.add, st.sampled_from(_HEAD), st.text(_HEAD + string.digits + "-", max_size=5)
)


@st.composite
def specs(draw):
    """Valid specs built directly, with Hypothesis-drawn amplitudes."""
    dims = draw(
        st.lists(st.sampled_from([2, 2, 3, 4]), min_size=1, max_size=3).filter(
            lambda d: math.prod(d) <= 16
        )
    )
    names = iter(draw(st.lists(_NAMES, min_size=9, max_size=9, unique=True)))
    spec = ExperimentSpec(wires=tuple((next(names), dim) for dim in dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    component = st.floats(-1, 1, allow_nan=False)
    for _ in range(draw(st.integers(0, 2))):
        size = math.prod(dims)
        parts = draw(st.lists(component, min_size=2 * size, max_size=2 * size))
        amps = np.array(parts[:size]) + 1j * np.array(parts[size:])
        norm = np.linalg.norm(amps)
        if norm > 1e-150:
            spec.states[next(names)] = amps / norm
    if spec.states:
        spec.prepare = draw(st.sampled_from(sorted(spec.states)))
    for _ in range(draw(st.integers(0, 2))):
        spec.unitaries[next(names)] = qcore.random_unitary(draw(st.sampled_from(dims)), rng)
    for _ in range(draw(st.integers(0, 2))):
        spec.detectors[next(names)] = detectors.random_detector(rng)
    unitary_dims = {name: len(m) for name, m in spec.unitaries.items()}
    spins = [wire for wire, dim in spec.wires if dim == 2]
    kinds = {}
    for _ in range(draw(st.integers(0, 4))):
        if spec.unitaries and draw(st.booleans()):
            unitary = draw(st.sampled_from(sorted(spec.unitaries)))
            targets = [w for w, d in spec.wires if d == unitary_dims[unitary]]
            spec.steps += (GateRef(unitary, (draw(st.sampled_from(targets)),)),)
        elif spins:
            kind = draw(st.sampled_from(["sg"] + sorted(spec.detectors)))
            label = f"m{len(kinds)}"
            kinds[label] = kind
            spec.steps += (MeasureRef(draw(st.sampled_from(spins)), kind, label),)
    outcomes = {
        label: circuits.SG_OUTCOMES if kind == "sg" else circuits.DETECTOR_OUTCOMES
        for label, kind in kinds.items()
    }
    for name in draw(st.lists(_NAMES, max_size=2, unique=True)):
        chosen = draw(st.lists(st.sampled_from(sorted(kinds)), unique=True)) if kinds else []
        spec.queries[name] = tuple(
            (label, draw(st.sampled_from(outcomes[label]))) for label in sorted(chosen)
        )
    return spec


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(mangled_text())
    def test_any_text_gives_spec_or_positioned_error(self, source):
        try:
            parse(source)
        except DslParseError as err:
            lines = source.splitlines()
            assert 1 <= err.line <= len(lines)
            assert 1 <= err.column <= len(lines[err.line - 1]) + 1

    @settings(max_examples=60, deadline=None)
    @given(specs())
    def test_print_parse_round_trip(self, spec):
        printed = print_spec(spec)
        again = parse(printed)
        assert again == spec
        assert print_spec(again) == printed


class TestPrint:
    def test_numbers_roundtrip_bit_exact(self):
        values = [0.1, 1.0 / 3.0, math.sqrt(2) / 2, 1e-17, 123456.789e-12]
        amps = np.array(values, dtype=complex)
        amps /= np.linalg.norm(amps)
        terms = " + ".join(
            f"{dsl.format_complex(a)}*|{k}>"
            for a, k in zip(amps, ["uuu", "uud", "udu", "udd", "duu"])
        )
        source = "wire a : 2\nwire b : 2\nwire c : 2\nstate s = " + terms + "\n"
        spec = parse(source)
        again = parse(print_spec(spec))
        np.testing.assert_array_equal(spec.states["s"], again.states["s"])

    def test_effect_entries_full_precision(self):
        third = 1.0 / 3.0
        source = f"wire w0 : 2\ndetector D = effect [[{third!r}, 0], [0, {third!r}]]\n"
        spec = parse(source)
        printed = print_spec(spec)
        assert "0.33333333333333331" in printed
        again = parse(printed)
        np.testing.assert_array_equal(
            spec.detectors["D"].effect, again.detectors["D"].effect
        )

    def test_complex_formatting(self):
        assert dsl.format_complex(0.5) == "0.5"
        assert dsl.format_complex(2j) == "2i"
        assert dsl.format_complex(1 - 2j) == "1-2i"
        assert dsl.format_complex(-1.5 + 0.25j) == "-1.5+0.25i"
        for value in (0.5, 2j, 1 - 2j, -1.5 + 0.25j, complex(-0.0, 1e-300)):
            token = dsl._tokenize_line(dsl.format_complex(value), 1)[0]
            assert dsl.parse_complex(token) == value

    def test_canonical_section_order(self):
        printed = print_spec(parse(PAIR_SOURCE))
        positions = [
            printed.index("wire "),
            printed.index("state "),
            printed.index("prepare "),
            printed.index("measure "),
            printed.index("query "),
        ]
        assert positions == sorted(positions)


class TestEquality:
    SOURCE = PAIR_SOURCE + f"detector A = ancilla 2 {CNOT_ANCILLA}\ndetector E = effect [[1, 0], [0, 0]]\n"

    def test_equal_whatever_the_detector_caches_hold(self):
        spec, again = parse(self.SOURCE), parse(self.SOURCE)
        for det in spec.detectors.values():
            detectors.extract_affine(det)
            assert det.kraus_pair
        assert spec == again

    @pytest.mark.parametrize(
        "old, new",
        [
            ("projector [[1, 0], [0, 0]]", "projector [[0, 0], [0, 1]]"),
            ("effect [[1, 0], [0, 0]]", "effect [[0, 0], [0, 1]]"),
            ("effect [[1, 0], [0, 0]]", f"ancilla 2 {CNOT_ANCILLA}"),
            ("sqrt(0.75)*|uu> + sqrt(0.25)*|dd>", "sqrt(0.25)*|uu> + sqrt(0.75)*|dd>"),
            ("query up : first = u", "query up : first = d"),
        ],
    )
    def test_one_changed_entry_makes_specs_unequal(self, old, new):
        assert parse(self.SOURCE.replace(old, new)) != parse(self.SOURCE)


class TestGoldenCorpus:
    FILES = sorted(GOLDEN.glob("*.qexp"))

    def test_corpus_is_large_enough(self):
        assert len(self.FILES) >= 30

    @pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
    def test_parse_print_reparse(self, path):
        spec = parse(path.read_text())
        printed = print_spec(spec)
        again = parse(printed)
        assert again == spec
        assert print_spec(again) == printed

    def test_corpus_covers_constructs(self):
        text = "\n".join(p.read_text() for p in self.FILES)
        for construct in (
            "wire ", "state ", "unitary ", "detector ", "effect", "ancilla",
            "prepare ", "gate ", "measure ", "SG", "det ", "query ", "sqrt(",
            "i*|",  # complex scalar attached to a ket
        ):
            assert construct in text, construct

    def test_reference_pair_file_evaluates(self):
        spec = dsl.parse_file(GOLDEN / "01_s_lambda.qexp")
        circuit = spec.to_circuit()
        assert circuits.evaluate(circuit, spec.query("both_up")) == pytest.approx(
            0.75, abs=1e-12
        )
        assert circuits.evaluate(circuit, spec.query("opposite")) == 0.0
        assert circuits.evaluate(circuit, spec.query("marginal")) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_four_spin_interpolation_file(self):
        spec = dsl.parse_file(GOLDEN / "11_lemma1_four_spin.qexp")
        circuit = spec.to_circuit()
        # After the relabelling gate the reference spin carries the
        # branch weights of the correlated pair.
        assert circuits.evaluate(circuit, spec.query("up_branch")) == pytest.approx(
            0.7, abs=1e-12
        )
        assert circuits.evaluate(circuit, spec.query("down_branch")) == pytest.approx(
            0.3, abs=1e-12
        )

    def test_detector_files_evaluate(self):
        spec = dsl.parse_file(GOLDEN / "09_detector_noisy.qexp")
        assert circuits.evaluate(
            spec.to_circuit(), spec.query("hit")
        ) == pytest.approx(0.9, abs=1e-12)
        spec = dsl.parse_file(GOLDEN / "10_detector_ancilla.qexp")
        assert circuits.evaluate(
            spec.to_circuit(), spec.query("hit")
        ) == pytest.approx(0.75, abs=1e-12)
