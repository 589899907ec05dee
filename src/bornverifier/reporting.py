"""Verification reports and their canonical serialized forms.

Reports are plain immutable records.  The JSON form is canonical: keys
sorted, floats rendered with 17 significant digits, so identical runs
produce byte-identical documents.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one replayed identity, lemma, or theorem check."""

    name: str
    inputs: str
    max_deviation: float
    tolerance: float
    passed: bool
    details: tuple[tuple[str, float], ...] = ()

    @staticmethod
    def from_deviation(
        name: str,
        inputs: str,
        max_deviation: float,
        tolerance: float,
        details: tuple[tuple[str, float], ...] = (),
    ) -> "VerificationReport":
        return VerificationReport(
            name=name,
            inputs=inputs,
            max_deviation=float(max_deviation),
            tolerance=float(tolerance),
            passed=bool(max_deviation <= tolerance),
            details=tuple(details),
        )

    def to_dict(self) -> dict:
        return {
            "kind": "verification",
            "name": self.name,
            "inputs": self.inputs,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": {k: v for k, v in self.details},
        }


def merge_reports(
    name: str, inputs: str, tolerance: float, reports: list[VerificationReport]
) -> VerificationReport:
    """Aggregate many instance reports into one (worst deviation wins)."""
    worst = max((r.max_deviation for r in reports), default=0.0)
    details = (("instances", float(len(reports))),)
    return VerificationReport.from_deviation(name, inputs, worst, tolerance, details)


@dataclass(frozen=True)
class ReportDocument:
    """Top-level report: tool header plus an ordered list of results."""

    version: str
    seed: int
    tolerance: float
    reports: tuple = ()

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "overall_pass": self.overall_pass,
            "reports": [r.to_dict() for r in self.reports],
        }


def canonical_json(obj) -> str:
    """Serialize to JSON with sorted keys and 17-significant-digit floats."""
    out = io.StringIO()
    _write_json(obj, out)
    out.write("\n")
    return out.getvalue()


def _write_json(obj, out) -> None:
    if obj is None:
        out.write("null")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(format_float(obj))
    elif isinstance(obj, str):
        out.write(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.write("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.write(", ")
            out.write(json.dumps(str(key), ensure_ascii=False))
            out.write(": ")
            _write_json(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, item in enumerate(obj):
            if i:
                out.write(", ")
            _write_json(item, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to canonical JSON")


def csv_summary(doc: ReportDocument) -> str:
    """One row per report: name, kind, passed, max deviation (a battery's
    worst identity deviation), tolerance."""
    import csv  # here, so that importing the package stays as cheap as it was

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["name", "kind", "passed", "max_deviation", "tolerance"])
    for report in doc.reports:
        d = report.to_dict()
        worst = d.get("max_deviation", max(d.get("deviations", {}).values(), default=0.0))
        passed = "true" if d.get("passed") else "false"
        tolerance = format_float(d.get("tolerance", 0.0))
        writer.writerow([d.get("name", ""), d.get("kind", ""), passed, format_float(worst), tolerance])
    return out.getvalue()
