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

# Numeric literals are ASCII.  Each pattern below matches a given text in
# one way only, so a failed match backs off in time linear in the text.
_MANTISSA = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_EXPONENT = r"(?:[eE][+-]?[0-9]+)"
_NUMBER_LITERAL = rf"[+-]?{_MANTISSA}{_EXPONENT}?"

# A complex literal is a single token with no internal whitespace:
# "2i", "1+2i", "-1.5e-3-0.25i".  The token is one or two numbers and an
# "i".  The first branch reads a second number that starts with a sign or
# a point; the second, one that starts inside the first number's last
# digit run, of which the first keeps one digit (none after a point).
# Every split of a digit run reads alike, so one split is tried.
_COMPLEX_LITERAL = (
    rf"[+-]?(?:{_MANTISSA}{_EXPONENT}?(?:[+-]{_MANTISSA}{_EXPONENT}?|\.[0-9]+{_EXPONENT}?)?"
    rf"|(?:[0-9]|[0-9]+\.|\.[0-9]|{_MANTISSA}[eE][+-]?[0-9])[0-9]+(?:\.[0-9]*)?{_EXPONENT}?)i"
)

# One token and the whitespace after it, the most common kinds first.  A
# sign is a SYM only where no number starts.  A number followed by none
# of the characters a complex literal goes on with is a NUMBER at once;
# otherwise it is a NUMBER only where no complex literal starts.  A BAD
# character ends the line's tokens.  ``findall`` gives each token as one
# string per group, in ``_KINDS`` order, all empty but the token's own
# kind: the parser reads kind and text by index, and matches a line again
# only to find the column of an error.
_TOKEN_RE = re.compile(
    rf"""(?:(?P<SYM>[:=*,\[\]()]|\+(?!\.?[0-9])|-(?!\.?[0-9]|>))
    |(?P<IDENT>[A-Za-z_][A-Za-z0-9_-]*)
    |(?P<NUMBER>{_NUMBER_LITERAL}(?![0-9.eE+i-])|(?!{_COMPLEX_LITERAL}){_NUMBER_LITERAL})
    |(?P<COMPLEX>{_COMPLEX_LITERAL})
    |(?P<KET>\|[a-z0-9]+>)
    |(?P<ARROW>->)
    |(?P<BAD>.).*)\s*""",
    re.VERBOSE,
)
_KINDS = tuple(_TOKEN_RE.groupindex)
_SYM, _IDENT, _NUMBER, _COMPLEX, _KET, _ARROW, _BAD = range(len(_KINDS))
_END = ("",) * len(_KINDS)  # the cursor past a line's last token: of no kind

# The second signed part must carry an explicit sign when a real part
# is present.
_COMPLEX_RE = re.compile(
    rf"^(?:(?P<re>{_NUMBER_LITERAL})(?=[+-]))?(?P<im>{_NUMBER_LITERAL})i$"
)

_NUMBER_RE = re.compile(_NUMBER_LITERAL)


def read_real(text: str) -> float:
    """``float(text)`` for an ASCII decimal literal, in full, or for text
    float() reads as non-finite, which the caller rejects by name.  Other
    text, such as ``2_0`` or non-ASCII digits, raises ``ValueError``."""
    value = float(text)
    if math.isfinite(value) and not _NUMBER_RE.fullmatch(text):
        raise ValueError(f"not an ASCII decimal number: {text!r}")
    return value


# Wire and ancilla dimensions: a plain decimal integer >= 2, without
# leading zeros and of at most 18 digits, which int() always converts.
_DIM_RE = re.compile(r"[2-9]|[1-9][0-9]{1,17}")


def format_complex(value: complex) -> str:
    re_part, im_part = float(value.real), float(value.imag)
    if im_part == 0.0:
        return format_float(re_part)
    if re_part == 0.0:
        return f"{format_float(im_part)}i"
    sign = "+" if not math.copysign(1.0, im_part) < 0 else "-"
    return f"{format_float(re_part)}{sign}{format_float(abs(im_part))}i"


# --- parser ----------------------------------------------------------------

# Each declaration keyword names the _Parser method that reads its line.
_DECLARATIONS = frozenset(
    ["wire", "state", "unitary", "detector", "prepare", "gate", "measure", "query"]
)

class _Parser:
    """Fills one ExperimentSpec line by line, with a cursor over the
    tokens of the line it reads.  Each declaration is checked as it is
    parsed, against the declarations above it, so the first error in file
    order is the one reported."""

    def __init__(self):
        self.spec = ExperimentSpec()
        self.measure_kinds: dict[str, str] = {}
        self.names: set[str] = set()

    def parse(self, source: str) -> ExperimentSpec:
        for line_no, raw in enumerate(source.splitlines(), start=1):
            if self._start(raw.partition("#")[0], line_no):
                self._parse_line()
        return self.spec

    def _start(self, text: str, line_no: int) -> bool:
        """Point the cursor at the first token of ``text``, a line without
        its comment; False if it has none.  A BAD character is an error."""
        self.text, self.line_no, self.pos = text, line_no, 0
        self.tokens = _TOKEN_RE.findall(text.lstrip())
        if not self.tokens:
            return False
        if self.tokens[-1][_BAD]:
            raise self.error("unexpected character", self.tokens[-1])
        self.tokens.append(_END)
        return True

    def peek(self) -> tuple[str, ...]:
        return self.tokens[self.pos]

    def next(self, kind: int, text: str | None = None) -> tuple[str, ...]:
        """The next token, which must be of ``kind`` (and read ``text``)."""
        token = self.tokens[self.pos]
        if not token[kind] or (text is not None and token[kind] != text):
            raise self.error(f"expected {_KINDS[kind]}" if text is None else f"expected {text!r}")
        self.pos += 1
        return token

    def expect_end(self) -> None:
        if self.peek() is not _END:
            raise self.error("unexpected trailing input")

    def error(self, message: str, token: tuple[str, ...] | None = None) -> DslParseError:
        """Error at ``token``, by default the next one, or just past the end
        of the line; the line is matched again to find the column."""
        index = self.pos if token is None else [t is token for t in self.tokens].index(True)
        if self.tokens[index] is _END:
            return DslParseError(self.line_no, len(self.text) + 1, message)
        matches = _TOKEN_RE.finditer(self.text, len(self.text) - len(self.text.lstrip()))
        column = [m.start() for m in matches][index] + 1
        return DslParseError(self.line_no, column, message, "".join(self.tokens[index]))

    def _parse_line(self) -> None:
        head = self.next(_IDENT)
        if head[_IDENT] not in _DECLARATIONS:
            raise self.error(f"unknown declaration {head[_IDENT]!r}", head)
        getattr(self, f"_parse_{head[_IDENT]}")()
        self.expect_end()

    def _declare(self, token: tuple[str, ...]) -> str:
        if token[_IDENT] in self.names:
            raise self.error(f"name {token[_IDENT]!r} already declared", token)
        self.names.add(token[_IDENT])
        return token[_IDENT]

    def _parse_dim(self, what: str) -> tuple[int, tuple[str, ...]]:
        token = self.next(_NUMBER)
        if not _DIM_RE.fullmatch(token[_NUMBER]):
            raise self.error(f"{what} dimension must be an integer >= 2", token)
        return int(token[_NUMBER]), token

    def _parse_wire(self) -> None:
        if self.spec.states:
            raise self.error("wire declared after a state")
        name = self._declare(self.next(_IDENT))
        self.next(_SYM, ":")
        dim, dim_token = self._parse_dim("wire")
        total = math.prod(self.spec.factor_dims) * dim
        if total > qcore.MAX_TOTAL_DIM:
            raise self.error(f"total dimension {total} exceeds the maximum {qcore.MAX_TOTAL_DIM}", dim_token)
        self.spec.wires += ((name, dim),)

    def _wire_dim(self, token: tuple[str, ...]) -> int:
        for wire, dim in self.spec.wires:
            if wire == token[_IDENT]:
                return dim
        raise self.error(f"undefined wire {token[_IDENT]!r}", token)

    def _parse_state(self) -> None:
        if not self.spec.wires:
            raise self.error("state declared before any wire")
        name_token = self.next(_IDENT)
        name = self._declare(name_token)
        self.next(_SYM, "=")
        dims = self.spec.factor_dims
        amps = np.zeros(math.prod(dims), dtype=complex)
        sign = 1.0
        while True:
            scalar, ket_token = self._parse_term()
            amps[self._ket_index(ket_token, dims)] += sign * scalar
            token = self.peek()
            if token is _END:
                break
            if token[_SYM] in ("+", "-"):
                sign = 1.0 if self.next(_SYM)[_SYM] == "+" else -1.0
                continue
            raise self.error("expected '+', '-', or end of state expression")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= qcore.MODEL_TOL:
            raise self.error(f"state {name!r} is not normalized (norm={norm:.12g})", name_token)
        self.spec.states[name] = amps

    def _parse_term(self) -> tuple[complex, tuple[str, ...]]:
        token = self.peek()
        if token is _END:
            raise self.error("expected a term")
        if token[_KET]:
            return 1.0 + 0.0j, self.next(_KET)
        scalar = self._parse_scalar()
        self.next(_SYM, "*")
        return scalar, self.next(_KET)

    def _parse_scalar(self) -> complex:
        token = self.peek()
        if token is _END:
            raise self.error("expected a scalar")
        if token[_NUMBER] or token[_COMPLEX]:
            self.pos += 1
            return self._parse_complex(token)
        if token[_IDENT] == "sqrt":
            self.pos += 1
            self.next(_SYM, "(")
            arg_token = self.next(_NUMBER)
            value = self._parse_complex(arg_token).real
            if value < 0:
                raise self.error("sqrt argument must be non-negative", arg_token)
            self.next(_SYM, ")")
            return complex(math.sqrt(value), 0.0)
        raise self.error("expected a number, complex literal, or sqrt(...)")

    def _parse_complex(self, token: tuple[str, ...]) -> complex:
        """The value of a NUMBER or COMPLEX token."""
        if token[_NUMBER]:
            value = complex(float(token[_NUMBER]), 0.0)
        else:
            match = _COMPLEX_RE.match(token[_COMPLEX])
            if not match:
                raise self.error("malformed complex literal", token)
            re_part = float(match.group("re")) if match.group("re") else 0.0
            value = complex(re_part, float(match.group("im")))
        if not cmath.isfinite(value):
            raise self.error("literal is not finite", token)
        return value

    def _ket_index(self, token: tuple[str, ...], dims: tuple[int, ...]) -> int:
        chars = token[_KET][1:-1]
        if len(chars) != len(dims):
            raise self.error(f"ket must have one character per wire ({len(dims)} expected)", token)
        index = 0
        for ch, dim in zip(chars, dims):
            if ch == "u":
                level = 0
            elif ch == "d":
                level = 1
            elif ch.isdigit():
                level = int(ch)
            else:
                raise self.error(f"invalid ket character {ch!r}", token)
            if level >= dim:
                raise self.error(f"ket level {level} out of range for wire dimension {dim}", token)
            index = index * dim + level
        return index

    def _parse_matrix(self) -> np.ndarray:
        open_token = self.peek()
        rows = self._parse_list(lambda: self._parse_list(self._parse_entry, "matrix row"), "matrix")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise self.error("matrix rows have unequal lengths", open_token)
        return np.array(rows, dtype=complex)

    def _parse_list(self, item, what: str) -> list:
        """A bracketed, comma-separated, non-empty list of ``item()``s,
        named ``what`` in its errors."""
        self.next(_SYM, "[")
        items = []
        while True:
            items.append(item())
            token = self.next(_SYM)
            if token[_SYM] == ",":
                continue
            if token[_SYM] == "]":
                return items
            raise self.error(f"expected ',' or ']' in {what}", token)

    def _parse_entry(self) -> complex:
        token = self.peek()
        if not (token[_NUMBER] or token[_COMPLEX]):
            raise self.error("expected a matrix entry")
        self.pos += 1
        return self._parse_complex(token)

    def _parse_unitary(self) -> None:
        name_token = self.next(_IDENT)
        name = self._declare(name_token)
        self.next(_SYM, "=")
        matrix = self._parse_matrix()
        if not qcore.matrix_is(matrix, "unitary"):
            raise self.error(f"matrix {name!r} is not unitary", name_token)
        self.spec.unitaries[name] = matrix

    def _parse_detector(self) -> None:
        name_token = self.next(_IDENT)
        self.next(_SYM, "=")
        kind = self.next(_IDENT)
        if kind[_IDENT] == "effect":
            model = (self._parse_matrix(),)
            build = EffectDetector
        elif kind[_IDENT] == "ancilla":
            dim, _ = self._parse_dim("ancilla")
            self.next(_IDENT, "coupling")
            coupling = self._parse_matrix()
            self.next(_IDENT, "projector")
            model = (dim, coupling, self._parse_matrix())
            build = AncillaDetector
        else:
            raise self.error("expected 'effect' or 'ancilla'", kind)
        name = self._declare(name_token)
        try:
            self.spec.detectors[name] = build(*model)
        except ValueError as exc:
            raise self.error(f"invalid detector {name!r}: {exc}", name_token) from exc

    def _parse_prepare(self) -> None:
        token = self.next(_IDENT)
        if token[_IDENT] not in self.spec.states:
            raise self.error(f"undefined state {token[_IDENT]!r}", token)
        if self.spec.prepare is not None:
            raise self.error("prepare already given", token)
        self.spec.prepare = token[_IDENT]

    def _parse_gate(self) -> None:
        name_token = self.next(_IDENT)
        name = name_token[_IDENT]
        if name not in self.spec.unitaries:
            raise self.error(f"undefined unitary {name!r}", name_token)
        self.next(_IDENT, "on")
        wires = []
        span = 1
        while self.peek() is not _END:
            wire_token = self.next(_IDENT)
            span *= self._wire_dim(wire_token)
            wires.append(wire_token[_IDENT])
        if not wires:
            raise self.error("gate needs at least one wire")
        if len(set(wires)) != len(wires):
            raise self.error("gate wires must be distinct", name_token)
        matrix = self.spec.unitaries[name]
        if matrix.shape != (span, span):
            raise self.error(
                f"unitary is {matrix.shape[0]}x{matrix.shape[1]} but wires span dimension {span}", name_token
            )
        self.spec.steps += (GateRef(name, tuple(wires)),)

    def _parse_measure(self) -> None:
        wire_token = self.next(_IDENT)
        if self._wire_dim(wire_token) != 2:
            raise self.error("only spin wires (dimension 2) are measurable", wire_token)
        kind_token = self.next(_IDENT)
        if kind_token[_IDENT] == "SG":
            kind = "sg"
        elif kind_token[_IDENT] == "det":
            det_token = self.next(_IDENT)
            kind = det_token[_IDENT]
            if kind not in self.spec.detectors:
                raise self.error(f"undefined detector {kind!r}", det_token)
        else:
            raise self.error("expected 'SG' or 'det'", kind_token)
        self.next(_ARROW)
        label_token = self.next(_IDENT)
        label = label_token[_IDENT]
        if label in self.measure_kinds:
            raise self.error(f"measurement label {label!r} already used", label_token)
        self.measure_kinds[label] = kind
        self.spec.steps += (MeasureRef(wire_token[_IDENT], kind, label),)

    def _parse_query(self) -> None:
        name_token = self.next(_IDENT)
        if name_token[_IDENT] in self.spec.queries:
            raise self.error(f"query {name_token[_IDENT]!r} already declared", name_token)
        self.next(_SYM, ":")
        assignments = []
        seen = set()
        more = self.peek() is not _END
        while more:
            label_token = self.next(_IDENT)
            label = label_token[_IDENT]
            if label not in self.measure_kinds:
                raise self.error(f"unknown measurement label {label!r}", label_token)
            if label in seen:
                raise self.error(f"label {label!r} assigned twice", label_token)
            seen.add(label)
            self.next(_SYM, "=")
            outcome_token = self.next(_IDENT)
            valid = circuits.SG_OUTCOMES if self.measure_kinds[label] == "sg" else circuits.DETECTOR_OUTCOMES
            if outcome_token[_IDENT] not in valid:
                raise self.error(f"outcome must be one of {valid}", outcome_token)
            assignments.append((label, outcome_token[_IDENT]))
            more = self.peek() is not _END
            if more:
                self.next(_SYM, ",")
        self.spec.queries[name_token[_IDENT]] = tuple(sorted(assignments))


def parse(source: str) -> ExperimentSpec:
    """Parse experiment text; raises DslParseError with a position on
    any lexical, syntactic, reference, or validation error.  A literal so
    large that a check overflows fails that check, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _Parser().parse(source)


def read_utf8(path) -> str:
    """The text of a UTF-8 file; bytes that are not UTF-8 are a
    DslParseError at the line and column of the first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "?" stands in for the bad byte, so it counts on the line it starts.
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        raise DslParseError(len(lines), len(lines[-1]), f"not valid UTF-8 ({exc.reason})") from None


def parse_file(path) -> ExperimentSpec:
    """Parse a UTF-8 file (see ``read_utf8``)."""
    return parse(read_utf8(path))


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
    terms = [f"{format_complex(amp)}*|{_ket_chars(i, dims)}>" for i, amp in enumerate(amps) if amp != 0]
    return " + ".join(terms) or "0*|" + "u" * len(dims) + ">"


def _ket_chars(index: int, dims: tuple[int, ...]) -> str:
    """The ket of a big-endian amplitude index: u/d on spins, digits elsewhere."""
    levels = np.unravel_index(index, dims)
    return "".join("ud"[level] if dim == 2 else str(level) for level, dim in zip(levels, dims))
