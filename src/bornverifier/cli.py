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
        eigvals = self.effect.eigenvalues()
        return bool(
            self.response.is_physical()
            and eigvals[0] >= -1e-12
            and eigvals[-1] <= 1.0 + 1e-12
        )

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


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default: $BORNVERIFIER_SEED or 42)")
    parser.add_argument("--tolerance", type=float, default=qcore.DEFAULT_TOL, help="absolute tolerance for checks")
    parser.add_argument("--out", type=str, default=None, help="write the JSON report here instead of stdout")
    parser.add_argument("--csv", type=str, default=None, help="also write a CSV summary here")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornverifier",
        description="Replay the measurement-probability derivation numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suite")
    _add_common_flags(verify)
    verify.add_argument("--subset", type=str, default=None, help="keep only reports whose name contains this")
    verify.add_argument("--depth", type=_positive_int, default=derivation.DEFAULT_DYADIC_DEPTH, help="dyadic profile depth")
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
    _add_common_flags(tomo)
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
        return int(args.seed)
    return int(os.environ.get(_SEED_ENV, "42"))


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
    extra = []
    for path in args.wavefunction:
        extra.append((os.path.basename(path), _read_input(coordinate.load_wavefunction, path)))
    reports = derivation.run_full_suite(
        seed=seed,
        tolerance=args.tolerance,
        subset=args.subset,
        depth=args.depth,
        wavefunctions=extra,
    )
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
        version=__version__, seed=seed, tolerance=args.tolerance, reports=tuple(entries)
    )
    _emit(doc, args)
    return 0 if doc.overall_pass else 1


def cmd_counterexamples(args) -> int:
    seed = _resolve_seed(args)
    operator = _parse_operator(args.operator) if args.operator else None
    rule = _read_input(counterexamples.rule_by_name, args.rule, operator, seed)
    result = counterexamples.run_battery(rule, seed=seed, tolerance=args.tolerance)
    doc = ReportDocument(
        version=__version__, seed=seed, tolerance=args.tolerance, reports=(result,)
    )
    _emit(doc, args)
    return 0 if doc.overall_pass else 1


def _parse_operator(text: str) -> np.ndarray:
    if not text.startswith("diag:"):
        raise _UsageError("operator must look like diag:<a>,<b>")
    parts = text[len("diag:"):].split(",")
    if len(parts) != 2:
        raise _UsageError("operator must look like diag:<a>,<b>")
    try:
        a, b = (float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"bad operator entries: {exc}") from exc
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
