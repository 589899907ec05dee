"""Checks of the program's outputs.

Each checker returns a list of problems; an empty list means the output
passed.  Expected values come from ``reference`` or from properties the
method must have, never from a saved copy of an earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from reference import affine_of, click_at

PROBE_TOL = 1e-9
EVAL_TOL = 1e-10
VERIFY_TOL = 1e-9
ERF_TOL = 1e-4
CUBIC_A5_GAP = 1e-2

# Problems that start with this mark come from a fault of the program
# that every op of a workload shows, whatever the seed: the op counts as
# failed but the run stays correct.  The one mark in use is the Gaussian
# interval mass of ``verify``: ``coordinate.interval_mask`` keeps the grid
# point at x2, whose cell lies outside [x1, x2], so on the suite's
# 20000-point grid the mass is 1.9e-4 above erf(1/sqrt(2)).
KNOWN_FAULT = "known fault: "

IDENTITIES = (
    "a1-extension",
    "normalization",
    "multiplication",
    "causality",
    "nosignal-unitary",
    "nosignal-measure",
    "a5-decomposition",
)
NAMED_EXTREMES = {
    "effect:sg-up": (1.0, 0.0),
    "effect:sigma-x": (1.0, 0.0),
    "ancilla:cnot-up": (1.0, 0.0),
    "effect:constant-half": (0.5, 0.5),
    "effect:never": (0.0, 0.0),
    "effect:always": (1.0, 1.0),
    "effect:noisy": (0.9, 0.1),
}
RANDOM_PER_FAMILY = 4
BATTERY = tuple(NAMED_EXTREMES) + tuple(
    f"{family}:random-{i}" for family in ("effect", "ancilla") for i in range(RANDOM_PER_FAMILY)
)
VERIFY_REPORTS = frozenset(
    [f"identity:{name}" for name in IDENTITIES]
    + ["envariance", "lemma1", "lemma2", "lemma3[depth=20]"]
    + [f"theorem{k}[{name}]" for k in (1, 2) for name in BATTERY]
    + ["isospin-born[gaussian]", "isospin-born[uniform]"]
)


def _far(got, want, tol: float) -> bool:
    return not np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol)


def check_probes(effect: np.ndarray, points: np.ndarray, values) -> list[str]:
    """Each probe equals tr(E (I + p.sigma) / 2)."""
    gap = np.abs(np.asarray(values, dtype=float) - click_at(effect, points))
    if np.all(gap <= PROBE_TOL):
        return []
    return [f"probe {int(np.argmax(gap))} off by {float(np.max(gap)):.3g}"]


def check_affine(effect: np.ndarray, beta: float, alpha) -> list[str]:
    """(beta, alpha) equals (tr E / 2, tr(E sigma_i) / 2)."""
    want_beta, want_alpha = affine_of(effect)
    if _far(beta, want_beta, PROBE_TOL) or _far(alpha, want_alpha, PROBE_TOL):
        return [f"affine response ({beta}, {list(alpha)}) != ({want_beta}, {list(want_alpha)})"]
    return []


def check_povm(effect: np.ndarray, matrix) -> list[str]:
    """The assembled POVM element is the detector's effect."""
    if _far(matrix, effect, PROBE_TOL):
        return ["POVM element differs from the detector's effect"]
    return []


def check_eval(want: float, got: float) -> list[str]:
    if abs(got - want) <= EVAL_TOL:
        return []
    return [f"probability {got!r} != reference {want!r}"]


def check_verify(code: int, text: str, first_text: str | None) -> list[str]:
    """A ``verify`` run: exit code, every report within tolerance, the
    full set of reports, byte-identity with the run's first document,
    the named detectors' extremal probabilities and the
    Gaussian interval mass."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if first_text is not None and text != first_text:
        problems.append("document differs from the first one of this run")
    try:
        reports = {r["name"]: r for r in json.loads(text)["reports"]}
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable document: {exc}"]
    missing = VERIFY_REPORTS - set(reports)
    extra = set(reports) - VERIFY_REPORTS
    if missing or extra:
        problems.append(f"reports missing {sorted(missing)} unexpected {sorted(extra)}")
    for name, r in sorted(reports.items()):
        if not r["max_deviation"] <= min(r["tolerance"], VERIFY_TOL):
            problems.append(f"{name}: deviation {r['max_deviation']!r} above tolerance")
    for name, (p_max, p_min) in NAMED_EXTREMES.items():
        details = reports.get(f"theorem2[{name}]", {}).get("details", {})
        got = (details.get("p_max", math.nan), details.get("p_min", math.nan))
        if _far(got, (p_max, p_min), VERIFY_TOL):
            problems.append(f"theorem2[{name}]: (p_max, p_min) = {got}, want {(p_max, p_min)}")
    gaussian = reports.get("isospin-born[gaussian]", {}).get("details", {})
    mass = gaussian.get("interval_mass", math.nan)
    if not abs(mass - math.erf(1.0 / math.sqrt(2.0))) <= ERF_TOL:
        problems.append(
            f"{KNOWN_FAULT}isospin-born[gaussian]: interval mass {mass!r} != erf(1/sqrt(2))"
        )
    return problems


def check_battery(rule: str, text: str) -> list[str]:
    """Properties each rule's battery must show: the Born rule keeps all
    seven identities at zero distance from itself; every alternative rule
    drifts from it; the cubic rule breaks multiplication and the
    decomposition by a clear gap but keeps the single-bracket identities;
    the modified product keeps normalization."""
    try:
        (battery,) = json.loads(text)["reports"]
        status = battery["identities"]
        drift = battery["born_deviation"]
        tol = battery["tolerance"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable battery document: {exc}"]
    problems = []

    def expect(identity: str, verdict: str) -> None:
        if status.get(identity) != verdict:
            problems.append(f"{rule}: {identity} is {status.get(identity)!r}, want {verdict!r}")

    if battery.get("rule") != rule:
        problems.append(f"battery of rule {battery.get('rule')!r}, want {rule!r}")
    if rule == "born":
        for identity in IDENTITIES:
            expect(identity, "pass")
        if drift != 0.0:
            problems.append(f"born: born_deviation {drift!r}, want 0")
    elif not drift > tol:
        problems.append(f"{rule}: born_deviation {drift!r} not above tolerance {tol!r}")
    if rule == "cubic3":
        for identity in ("multiplication", "a5-decomposition"):
            expect(identity, "fail")
        for identity in ("normalization", "causality", "nosignal-unitary", "nosignal-measure"):
            expect(identity, "pass")
        gap = battery.get("deviations", {}).get("a5-decomposition", 0.0)
        if not gap > CUBIC_A5_GAP:
            problems.append(f"cubic3: a5 gap {gap!r} not above {CUBIC_A5_GAP}")
    if rule == "modified2":
        expect("normalization", "pass")
    return problems
