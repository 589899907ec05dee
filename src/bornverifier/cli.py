"""Command-line entry point.

Subcommands: ``verify`` (run the full verification suite), ``eval``
(evaluate a named query of an experiment file), ``tomography`` (recover
affine responses and effects of declared detectors), and
``counterexamples`` (run the assumption-necessity battery for one rule).

Reports are canonical JSON (sorted keys, 17-significant-digit floats),
so identical invocations are byte-identical.  Exit codes: 0 all checks
passed, 1 verification failures, 2 usage or input errors (flags, rule
names, experiment and wavefunction files), 3 internal errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, counterexamples, derivation, detectors, dsl
from . import coordinate, qcore
from .reporting import ReportDocument, canonical_json, csv_summary, format_float

_SEED_ENV = "BORNVERIFIER_SEED"


@dataclass(frozen=True)
class TomographyEntry:
    name: str
    response: detectors.AffineResponse
    effect: detectors.PovmEffect

    @property
    def passed(self) -> bool:
        # The effect's eigenvalues are beta +- |alpha|, so the response's
        # own bounds decide it.
        return self.response.is_physical()

    def to_dict(self) -> dict:
        eigvals = self.effect.eigenvalues()
        return {
            "kind": "tomography",
            "name": f"tomography:{self.name}",
            "alpha": [float(v) for v in self.response.alpha],
            "beta": self.response.beta,
            "effect_matrix": [
                [[entry.real, entry.imag] for entry in row]
                for row in self.effect.matrix
            ],
            "effect_eigenvalues": [float(v) for v in eigvals],
            "passed": self.passed,
        }


def _add_common_flags(parser: argparse.ArgumentParser, seeded: bool = True) -> None:
    if seeded:  # only commands whose checks draw and compare take these
        parser.add_argument("--seed", type=_within(0), default=None, help="RNG seed (default: $BORNVERIFIER_SEED or 42)")
        parser.add_argument("--tolerance", type=_within(0.0, float), default=qcore.DEFAULT_TOL, help="absolute tolerance for checks")
    parser.add_argument("--out", type=str, default=None, help="write the JSON report here instead of stdout")
    parser.add_argument("--csv", type=str, default=None, help="also write a CSV summary here")


def _within(low, convert=int, high=math.inf):
    """A flag's type: ``convert(text)`` of an ASCII decimal, finite and in
    [``low``, ``high``]."""
    def parse(text: str):
        try:
            dsl.read_real(text)  # no non-ASCII digits, underscores or spaces
            if low <= (value := convert(text)) <= high and value < math.inf:
                return value
        except ValueError:
            pass
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise argparse.ArgumentTypeError(f"must be a finite {convert.__name__} {bound}, got {text!r}")
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornverifier",
        description="Replay the measurement-probability derivation numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suite")
    _add_common_flags(verify)
    verify.add_argument("--subset", type=str, default=None, help="keep only reports whose name contains this")
    depth = _within(1, high=derivation.MAX_DYADIC_DEPTH)
    verify.add_argument("--depth", type=depth, default=derivation.DEFAULT_DYADIC_DEPTH, help="dyadic profile depth")
    verify.add_argument(
        "--wavefunction",
        action="append",
        default=[],
        metavar="FILE",
        help="extra wavefunction file for the interval checks (repeatable)",
    )

    ev = sub.add_parser("eval", help="evaluate a named query of an experiment file")
    ev.add_argument("file", type=str, help="experiment file (.qexp)")
    ev.add_argument("query", type=str, help="query name declared in the file")

    tomo = sub.add_parser("tomography", help="recover detector responses from an experiment file")
    _add_common_flags(tomo, seeded=False)
    tomo.add_argument("file", type=str, help="experiment file declaring detectors")

    battery = sub.add_parser("counterexamples", help="run the assumption-necessity battery")
    _add_common_flags(battery)
    battery.add_argument("rule", type=str, help="born, random1, modified2, or cubic3")
    battery.add_argument(
        "--A",
        dest="operator",
        type=str,
        default=None,
        help="modified2 operator, e.g. diag:2,0.6666666666666666",
    )
    return parser


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    try:
        return _within(0)(os.environ.get(_SEED_ENV, "42"))
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"${_SEED_ENV} {exc}") from exc


def _emit(doc: ReportDocument, args) -> None:
    text = canonical_json(doc.to_dict())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(csv_summary(doc))


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    extra = [(os.path.basename(path), _read_input(coordinate.load_wavefunction, path)) for path in args.wavefunction]
    try:
        reports = derivation.run_full_suite(seed, args.tolerance, args.subset, args.depth, extra)
    except derivation.ReportNameClash as exc:
        raise _UsageError(f"--wavefunction: {exc}; give the file another name") from exc
    if args.subset is not None and not reports:
        raise _UsageError(f"--subset {args.subset!r} matches no report")
    doc = ReportDocument(
        version=__version__, seed=seed, tolerance=args.tolerance, reports=tuple(reports)
    )
    _emit(doc, args)
    return 0 if doc.overall_pass else 1


def cmd_eval(args) -> int:
    spec = _read_input(dsl.parse_file, args.file)
    if args.query not in spec.queries:
        known = ", ".join(sorted(spec.queries)) or "(none)"
        raise _UsageError(f"unknown query {args.query!r}; file declares: {known}")
    from . import circuits

    circuit = _read_input(spec.to_circuit)
    probability = circuits.evaluate(circuit, spec.query(args.query))
    sys.stdout.write(format_float(probability) + "\n")
    return 0


def cmd_tomography(args) -> int:
    seed = _resolve_seed(args)
    spec = _read_input(dsl.parse_file, args.file)
    if not spec.detectors:
        raise _UsageError(f"{args.file} declares no detectors")
    entries = []
    for name in sorted(spec.detectors):
        det = spec.detectors[name]
        response = detectors.extract_affine(det)
        entries.append(
            TomographyEntry(name, response, detectors.to_povm(response))
        )
    doc = ReportDocument(
        version=__version__, seed=seed, tolerance=qcore.DEFAULT_TOL, reports=tuple(entries)
    )
    _emit(doc, args)
    return 0 if doc.overall_pass else 1


def cmd_counterexamples(args) -> int:
    seed = _resolve_seed(args)
    rule = _read_input(counterexamples.rule_by_name, args.rule, seed)
    if args.operator is not None:
        if rule.name != "modified2":
            raise _UsageError(f"--A applies only to modified2, not {rule.name}")
        rule = _read_input(counterexamples.ModifiedInnerRule, _parse_operator(args.operator))
    result = counterexamples.run_battery(rule, seed=seed, tolerance=args.tolerance)
    doc = ReportDocument(version=__version__, seed=seed, tolerance=args.tolerance, reports=(result,))
    _emit(doc, args)
    return 0 if doc.overall_pass else 1


def _parse_operator(text: str) -> np.ndarray:
    parts = text.removeprefix("diag:").split(",")
    if not text.startswith("diag:") or len(parts) != 2:
        raise _UsageError("operator must look like diag:<a>,<b>")
    try:
        a, b = (dsl.read_real(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"bad operator entries: {exc}") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise _UsageError("operator entries must be finite")
    return np.diag([a, b]).astype(complex)


class _UsageError(ValueError):
    pass


def _read_input(read, *args):
    """Call ``read`` on user input; a ``ValueError`` or ``OSError`` it
    raises is a usage error, and a parse error keeps its position."""
    try:
        return read(*args)
    except dsl.DslParseError:
        raise
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "verify": cmd_verify,
        "eval": cmd_eval,
        "tomography": cmd_tomography,
        "counterexamples": cmd_counterexamples,
    }
    try:
        return handlers[args.command](args)
    except dsl.DslParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (_UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
