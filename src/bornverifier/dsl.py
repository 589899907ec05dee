"""Text format for experiments: wire declarations, named states,
unitaries and detectors, circuit steps, and outcome queries.

The format is line-oriented UTF-8 with ``#`` comments.  Kets use one
character per wire ('u'/'d' for spins, digits for larger factors),
scalars are complex literals like ``0.5-0.25i`` or ``sqrt(0.75)``, and
matrices are bracketed rows of complex literals on a single line.
Names must be declared before use, and wires before states.  Each
declaration is checked where it is parsed, against the lines above it:
normalization, unitarity, detector models, finite literals and the
total dimension.  Every error carries the line and column of the token
at fault, and a file with several errors reports the first.
``print_spec`` emits the canonical normalized form, which re-parses to
a structurally equal spec.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import circuits, qcore
from .detectors import AncillaDetector, Detector, EffectDetector
from .qcore import StateVector
from .reporting import format_float


class DslParseError(ValueError):
    """Parse or validation failure with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str, token: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        where = f"line {line}, column {column}"
        shown = f" near {token!r}" if token else ""
        super().__init__(f"{where}: {message}{shown}")


@dataclass(frozen=True)
class GateRef:
    unitary: str
    wires: tuple[str, ...]


@dataclass(frozen=True)
class MeasureRef:
    wire: str
    kind: str  # "sg" or a detector name
    label: str


@dataclass(eq=False)
class ExperimentSpec:
    """Parsed experiment: declarations, circuit steps, and queries."""

    wires: tuple[tuple[str, int], ...] = ()
    states: dict[str, np.ndarray] = field(default_factory=dict)
    unitaries: dict[str, np.ndarray] = field(default_factory=dict)
    detectors: dict[str, Detector] = field(default_factory=dict)
    prepare: str | None = None
    steps: tuple[GateRef | MeasureRef, ...] = ()
    queries: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.wires)

    def wire_index(self, name: str) -> int:
        for i, (wire, _) in enumerate(self.wires):
            if wire == name:
                return i
        raise KeyError(name)

    def to_circuit(self) -> circuits.Circuit:
        if self.prepare is None:
            raise ValueError("experiment has no prepare line")
        initial = StateVector(self.factor_dims, self.states[self.prepare])
        steps: list[circuits.Gate | circuits.Measure] = []
        for step in self.steps:
            if isinstance(step, GateRef):
                steps.append(
                    circuits.Gate(
                        tuple(self.wire_index(w) for w in step.wires),
                        self.unitaries[step.unitary],
                    )
                )
            else:
                det = None if step.kind == "sg" else self.detectors[step.kind]
                steps.append(
                    circuits.Measure(self.wire_index(step.wire), step.label, det)
                )
        return circuits.Circuit(initial, tuple(steps))

    def query(self, name: str) -> dict[str, str]:
        return dict(self.queries[name])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExperimentSpec):
            return NotImplemented
        return _equal(self, other)


def _equal(a, b) -> bool:
    """Structural equality: dataclasses field by field, dicts entry by
    entry, arrays by ``np.array_equal``, anything else by ``==``."""
    if is_dataclass(a):
        return type(a) is type(b) and all(_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


# --- lexer -----------------------------------------------------------------

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    "|".join(
        [
            rf"(?P<COMPLEX>(?:{_NUMBER})?(?:{_NUMBER})i)",
            rf"(?P<NUMBER>{_NUMBER})",
            r"(?P<KET>\|[a-z0-9]+>)",
            r"(?P<ARROW>->)",
            r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_-]*)",
            r"(?P<SYM>[:=*+,\[\]()\-])",
            r"(?P<WS>\s+)",
            r"(?P<BAD>.)",
        ]
    )
)

# A complex literal is a single token with no internal whitespace:
# "2i", "1+2i", "-1.5e-3-0.25i".  The second signed part must carry an
# explicit sign when a real part is present.
_COMPLEX_RE = re.compile(
    rf"^(?:(?P<re>{_NUMBER})(?=[+-]))?(?P<im>{_NUMBER})i$"
)

# Wire and ancilla dimensions: a plain decimal integer >= 2, without
# leading zeros and of at most 18 digits, which int() always converts.
_DIM_RE = re.compile(r"[2-9]|[1-9][0-9]{1,17}")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int

    def error(self, message: str) -> DslParseError:
        return DslParseError(self.line, self.column, message, self.text)


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "WS":
            continue
        token = _Token(kind, match.group(), line_no, match.start() + 1)
        if kind == "BAD":
            raise token.error("unexpected character")
        tokens.append(token)
    return tokens


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.line_len = line_len

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: str | None = None, text: str | None = None) -> _Token:
        token = self.peek()
        if (
            token is None
            or (expect is not None and token.kind != expect)
            or (text is not None and token.text != text)
        ):
            raise self.error(self._expected(expect, text))
        self.pos += 1
        return token

    @staticmethod
    def _expected(expect: str | None, text: str | None) -> str:
        if text is not None:
            return f"expected {text!r}"
        return f"expected {expect}" if expect else "unexpected end of line"

    def expect_end(self) -> None:
        if self.peek() is not None:
            raise self.error("unexpected trailing input")

    def error(self, message: str) -> DslParseError:
        """Error at the next token, or just past the end of the line."""
        token = self.peek()
        if token is None:
            return DslParseError(self.line_no, self.line_len + 1, message)
        return token.error(message)


def parse_complex(token: _Token) -> complex:
    if token.kind == "NUMBER":
        value = complex(float(token.text), 0.0)
    else:
        match = _COMPLEX_RE.match(token.text)
        if not match:
            raise token.error("malformed complex literal")
        re_part = float(match.group("re")) if match.group("re") else 0.0
        value = complex(re_part, float(match.group("im")))
    if not cmath.isfinite(value):
        raise token.error("literal is not finite")
    return value


def format_complex(value: complex) -> str:
    re_part, im_part = float(value.real), float(value.imag)
    if im_part == 0.0:
        return format_float(re_part)
    if re_part == 0.0:
        return f"{format_float(im_part)}i"
    sign = "+" if not math.copysign(1.0, im_part) < 0 else "-"
    return f"{format_float(re_part)}{sign}{format_float(abs(im_part))}i"


# --- parser ----------------------------------------------------------------


class _Parser:
    """Fills one ExperimentSpec line by line.  Each declaration is
    checked as it is parsed, against the declarations above it, so the
    first error in file order is the one reported."""

    def __init__(self):
        self.spec = ExperimentSpec()
        self.measure_kinds: dict[str, str] = {}
        self.names: set[str] = set()

    def parse(self, source: str) -> ExperimentSpec:
        for line_no, raw in enumerate(source.splitlines(), start=1):
            text = raw.split("#", 1)[0]
            tokens = _tokenize_line(text, line_no)
            if not tokens:
                continue
            self._parse_line(_LineParser(tokens, line_no, len(text)))
        return self.spec

    def _parse_line(self, lp: _LineParser) -> None:
        head = lp.next("IDENT")
        handler = {
            "wire": self._parse_wire,
            "state": self._parse_state,
            "unitary": self._parse_unitary,
            "detector": self._parse_detector,
            "prepare": self._parse_prepare,
            "gate": self._parse_gate,
            "measure": self._parse_measure,
            "query": self._parse_query,
        }.get(head.text)
        if handler is None:
            raise head.error(f"unknown declaration {head.text!r}")
        handler(lp)
        lp.expect_end()

    def _declare(self, token: _Token) -> str:
        if token.text in self.names:
            raise token.error(f"name {token.text!r} already declared")
        self.names.add(token.text)
        return token.text

    def _parse_dim(self, lp: _LineParser, what: str) -> tuple[int, _Token]:
        token = lp.next("NUMBER")
        if not _DIM_RE.fullmatch(token.text):
            raise token.error(f"{what} dimension must be an integer >= 2")
        return int(token.text), token

    def _parse_wire(self, lp: _LineParser) -> None:
        if self.spec.states:
            raise lp.error("wire declared after a state")
        name = self._declare(lp.next("IDENT"))
        lp.next("SYM", ":")
        dim, dim_token = self._parse_dim(lp, "wire")
        total = math.prod(self.spec.factor_dims) * dim
        if total > qcore.MAX_TOTAL_DIM:
            raise dim_token.error(
                f"total dimension {total} exceeds the maximum {qcore.MAX_TOTAL_DIM}"
            )
        self.spec.wires += ((name, dim),)

    def _wire_dim(self, token: _Token) -> int:
        for wire, dim in self.spec.wires:
            if wire == token.text:
                return dim
        raise token.error(f"undefined wire {token.text!r}")

    def _parse_state(self, lp: _LineParser) -> None:
        if not self.spec.wires:
            raise lp.error("state declared before any wire")
        name_token = lp.next("IDENT")
        name = self._declare(name_token)
        lp.next("SYM", "=")
        dims = self.spec.factor_dims
        amps = np.zeros(math.prod(dims), dtype=complex)
        sign = 1.0
        while True:
            scalar, ket_token = self._parse_term(lp)
            amps[self._ket_index(ket_token, dims)] += sign * scalar
            token = lp.peek()
            if token is None:
                break
            if token.kind == "SYM" and token.text in "+-":
                sign = 1.0 if token.text == "+" else -1.0
                lp.next()
                continue
            raise lp.error("expected '+', '-', or end of state expression")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= qcore.MODEL_TOL:
            raise name_token.error(f"state {name!r} is not normalized (norm={norm:.12g})")
        self.spec.states[name] = amps

    def _parse_term(self, lp: _LineParser) -> tuple[complex, _Token]:
        token = lp.peek()
        if token is None:
            raise lp.error("expected a term")
        if token.kind == "KET":
            return 1.0 + 0.0j, lp.next()
        scalar = self._parse_scalar(lp)
        lp.next("SYM", "*")
        return scalar, lp.next("KET")

    def _parse_scalar(self, lp: _LineParser) -> complex:
        token = lp.peek()
        if token is None:
            raise lp.error("expected a scalar")
        if token.kind in ("NUMBER", "COMPLEX"):
            return parse_complex(lp.next())
        if token.kind == "IDENT" and token.text == "sqrt":
            lp.next()
            lp.next("SYM", "(")
            arg_token = lp.next("NUMBER")
            value = parse_complex(arg_token).real
            if value < 0:
                raise arg_token.error("sqrt argument must be non-negative")
            lp.next("SYM", ")")
            return complex(math.sqrt(value), 0.0)
        raise lp.error("expected a number, complex literal, or sqrt(...)")

    def _ket_index(self, token: _Token, dims: tuple[int, ...]) -> int:
        chars = token.text[1:-1]
        if len(chars) != len(dims):
            raise token.error(f"ket must have one character per wire ({len(dims)} expected)")
        index = 0
        for ch, dim in zip(chars, dims):
            if ch == "u":
                level = 0
            elif ch == "d":
                level = 1
            elif ch.isdigit():
                level = int(ch)
            else:
                raise token.error(f"invalid ket character {ch!r}")
            if level >= dim:
                raise token.error(f"ket level {level} out of range for wire dimension {dim}")
            index = index * dim + level
        return index

    def _parse_matrix(self, lp: _LineParser) -> np.ndarray:
        open_token = lp.next("SYM", "[")
        rows = []
        while True:
            rows.append(self._parse_row(lp))
            token = lp.next("SYM")
            if token.text == ",":
                continue
            if token.text == "]":
                break
            raise token.error("expected ',' or ']' in matrix")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise open_token.error("matrix rows have unequal lengths")
        return np.array(rows, dtype=complex)

    def _parse_row(self, lp: _LineParser) -> list[complex]:
        lp.next("SYM", "[")
        entries = []
        while True:
            token = lp.peek()
            if token is not None and token.kind in ("NUMBER", "COMPLEX"):
                entries.append(parse_complex(lp.next()))
            else:
                raise lp.error("expected a matrix entry")
            token = lp.next("SYM")
            if token.text == ",":
                continue
            if token.text == "]":
                return entries
            raise token.error("expected ',' or ']' in matrix row")

    def _parse_unitary(self, lp: _LineParser) -> None:
        name_token = lp.next("IDENT")
        name = self._declare(name_token)
        lp.next("SYM", "=")
        matrix = self._parse_matrix(lp)
        if not qcore.matrix_is(matrix, "unitary"):
            raise name_token.error(f"matrix {name!r} is not unitary")
        self.spec.unitaries[name] = matrix

    def _parse_detector(self, lp: _LineParser) -> None:
        name_token = lp.next("IDENT")
        lp.next("SYM", "=")
        kind = lp.next("IDENT")
        if kind.text == "effect":
            model = (self._parse_matrix(lp),)
            build = EffectDetector
        elif kind.text == "ancilla":
            dim, _ = self._parse_dim(lp, "ancilla")
            lp.next("IDENT", "coupling")
            coupling = self._parse_matrix(lp)
            lp.next("IDENT", "projector")
            model = (dim, coupling, self._parse_matrix(lp))
            build = AncillaDetector
        else:
            raise kind.error("expected 'effect' or 'ancilla'")
        name = self._declare(name_token)
        try:
            self.spec.detectors[name] = build(*model)
        except ValueError as exc:
            raise name_token.error(f"invalid detector {name!r}: {exc}") from exc

    def _parse_prepare(self, lp: _LineParser) -> None:
        token = lp.next("IDENT")
        if token.text not in self.spec.states:
            raise token.error(f"undefined state {token.text!r}")
        if self.spec.prepare is not None:
            raise token.error("prepare already given")
        self.spec.prepare = token.text

    def _parse_gate(self, lp: _LineParser) -> None:
        name_token = lp.next("IDENT")
        if name_token.text not in self.spec.unitaries:
            raise name_token.error(f"undefined unitary {name_token.text!r}")
        lp.next("IDENT", "on")
        wires = []
        span = 1
        while lp.peek() is not None:
            wire_token = lp.next("IDENT")
            span *= self._wire_dim(wire_token)
            wires.append(wire_token.text)
        if not wires:
            raise lp.error("gate needs at least one wire")
        if len(set(wires)) != len(wires):
            raise name_token.error("gate wires must be distinct")
        matrix = self.spec.unitaries[name_token.text]
        if matrix.shape != (span, span):
            raise name_token.error(
                f"unitary is {matrix.shape[0]}x{matrix.shape[1]} but wires span "
                f"dimension {span}"
            )
        self.spec.steps += (GateRef(name_token.text, tuple(wires)),)

    def _parse_measure(self, lp: _LineParser) -> None:
        wire_token = lp.next("IDENT")
        if self._wire_dim(wire_token) != 2:
            raise wire_token.error("only spin wires (dimension 2) are measurable")
        kind_token = lp.next("IDENT")
        if kind_token.text == "SG":
            kind = "sg"
        elif kind_token.text == "det":
            det_token = lp.next("IDENT")
            if det_token.text not in self.spec.detectors:
                raise det_token.error(f"undefined detector {det_token.text!r}")
            kind = det_token.text
        else:
            raise kind_token.error("expected 'SG' or 'det'")
        lp.next("ARROW")
        label_token = lp.next("IDENT")
        if label_token.text in self.measure_kinds:
            raise label_token.error(f"measurement label {label_token.text!r} already used")
        self.measure_kinds[label_token.text] = kind
        self.spec.steps += (MeasureRef(wire_token.text, kind, label_token.text),)

    def _parse_query(self, lp: _LineParser) -> None:
        name_token = lp.next("IDENT")
        if name_token.text in self.spec.queries:
            raise name_token.error(f"query {name_token.text!r} already declared")
        lp.next("SYM", ":")
        assignments = []
        seen = set()
        while lp.peek() is not None:
            label_token = lp.next("IDENT")
            if label_token.text not in self.measure_kinds:
                raise label_token.error(f"unknown measurement label {label_token.text!r}")
            if label_token.text in seen:
                raise label_token.error(f"label {label_token.text!r} assigned twice")
            seen.add(label_token.text)
            lp.next("SYM", "=")
            outcome_token = lp.next("IDENT")
            valid = (
                circuits.SG_OUTCOMES
                if self.measure_kinds[label_token.text] == "sg"
                else circuits.DETECTOR_OUTCOMES
            )
            if outcome_token.text not in valid:
                raise outcome_token.error(f"outcome must be one of {valid}")
            assignments.append((label_token.text, outcome_token.text))
            if lp.peek() is not None:
                lp.next("SYM", ",")
        self.spec.queries[name_token.text] = tuple(sorted(assignments))


def parse(source: str) -> ExperimentSpec:
    """Parse experiment text; raises DslParseError with a position on
    any lexical, syntactic, reference, or validation error.  A literal so
    large that a check overflows fails that check, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _Parser().parse(source)


def parse_file(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


# --- printer ---------------------------------------------------------------


def print_spec(spec: ExperimentSpec) -> str:
    """Canonical normalized text; ``parse(print_spec(s))`` is
    structurally equal to ``s``."""
    lines: list[str] = []
    for name, dim in spec.wires:
        lines.append(f"wire {name} : {dim}")
    for name in sorted(spec.unitaries):
        lines.append(f"unitary {name} = {_format_matrix(spec.unitaries[name])}")
    for name in sorted(spec.detectors):
        det = spec.detectors[name]
        if isinstance(det, EffectDetector):
            lines.append(f"detector {name} = effect {_format_matrix(det.effect)}")
        else:
            lines.append(
                f"detector {name} = ancilla {det.ancilla_dim} "
                f"coupling {_format_matrix(det.coupling)} "
                f"projector {_format_matrix(det.projector)}"
            )
    dims = spec.factor_dims
    for name in sorted(spec.states):
        lines.append(f"state {name} = {_format_state(spec.states[name], dims)}")
    if spec.prepare is not None:
        lines.append(f"prepare {spec.prepare}")
    for step in spec.steps:
        if isinstance(step, GateRef):
            lines.append(f"gate {step.unitary} on {' '.join(step.wires)}")
        else:
            kind = "SG" if step.kind == "sg" else f"det {step.kind}"
            lines.append(f"measure {step.wire} {kind} -> {step.label}")
    for name in sorted(spec.queries):
        body = ", ".join(f"{label} = {outcome}" for label, outcome in spec.queries[name])
        lines.append(f"query {name} : {body}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def _format_matrix(matrix: np.ndarray) -> str:
    rows = [
        "[" + ", ".join(format_complex(entry) for entry in row) + "]"
        for row in matrix
    ]
    return "[" + ", ".join(rows) + "]"


def _format_state(amps: np.ndarray, dims: tuple[int, ...]) -> str:
    terms = []
    for index, amp in enumerate(amps):
        if amp == 0:
            continue
        terms.append(f"{format_complex(amp)}*|{_ket_chars(index, dims)}>")
    return " + ".join(terms) if terms else "0*|" + "u" * len(dims) + ">"


def _ket_chars(index: int, dims: tuple[int, ...]) -> str:
    levels = []
    for dim in reversed(dims):
        levels.append(index % dim)
        index //= dim
    levels.reverse()
    chars = []
    for level, dim in zip(levels, dims):
        if dim == 2:
            chars.append("u" if level == 0 else "d")
        else:
            chars.append(str(level))
    return "".join(chars)
