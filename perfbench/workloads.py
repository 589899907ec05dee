"""The benchmark's workloads: one fixed round of ops per workload and seed.

An op calls the program through module attributes (``cli.main``,
``detectors.extract_affine``, ...), so the traced run sees every call.
Its ``check`` receives what ``run`` returned and lists the problems
found; the expected values come from ``reference`` and ``checks``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bornverifier
from bornverifier import circuits, cli, counterexamples, detectors, dsl, qcore, reporting

import checks
import reference

# probe-sweep: detectors per round, alternating effect and ancilla
# families so that every round has the same even mix.
PROBE_DETECTORS = 16
PROBES_PER_DETECTOR = 100
# experiments: corpus cycles per round, each with its own battery seed,
# because the batteries' cost depends on the families they draw.
EXPERIMENT_CYCLES = 8
RULES = ("born", "random1", "modified2", "cubic3")
BATTERY_TOL = 1e-9


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    """A round of ops repeated for the whole run, and how many of its
    first ops to run once, untimed, before timing."""

    ops: list[Op]
    warmup: int


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "verify-suite":
        return _verify_suite(seed)
    if name == "probe-sweep":
        return _probe_sweep(seed)
    if name == "experiments":
        return _experiments(seed, root / "tests" / "golden")
    raise ValueError(f"unknown workload {name!r}")


def _verify_suite(seed: int) -> Workload:
    first_document: list[str] = []

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--seed", str(seed)])
        return code, out.getvalue()

    def check(result) -> list[str]:
        code, text = result
        if not first_document:
            first_document.append(text)
        return checks.check_verify(code, text, first_document[0])

    return Workload([Op("verify", run, check)], warmup=1)


def _probe_sweep(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(PROBE_DETECTORS):
        det = (
            detectors.random_effect_detector(rng)
            if i % 2 == 0
            else detectors.random_ancilla_detector(rng)
        )
        points = [qcore.random_bloch(rng) for _ in range(PROBES_PER_DETECTOR)]
        ops.append(_probe_op(det, points))
    return Workload(ops, warmup=4)


def _probe_op(det, points) -> Op:
    coords = np.array([p.as_array() for p in points])

    def run():
        response = detectors.extract_affine(det)
        return response, [detectors.probe_fclick(det, p) for p in points]

    def check(result) -> list[str]:
        response, values = result
        effect = reference.effect_of(det)
        return checks.check_affine(effect, response.beta, response.alpha) + checks.check_probes(
            effect, coords, values
        )

    return Op("probe", run, check)


def _experiments(seed: int, corpus: Path) -> Workload:
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(corpus.glob("*.qexp"))}
    if not texts:
        raise FileNotFoundError(f"no .qexp files under {corpus}")
    specs = {name: dsl.parse(text) for name, text in texts.items()}
    cycle = [
        _eval_op(texts[name], specs[name], query)
        for name in texts
        for query in sorted(specs[name].queries)
    ]
    cycle += [_tomography_op(texts[name]) for name in texts if specs[name].detectors]
    ops = []
    for c in range(EXPERIMENT_CYCLES):
        battery_seed = EXPERIMENT_CYCLES * seed + c
        ops += cycle + [_battery_op(rule, battery_seed) for rule in RULES]
    return Workload(ops, warmup=len(cycle) + len(RULES))


def _eval_op(text: str, spec, query: str) -> Op:
    expected = []

    def run():
        parsed = dsl.parse(text)
        return circuits.evaluate_full(parsed.to_circuit(), parsed.query(query))

    def check(result) -> list[str]:
        if not expected:
            expected.append(reference.simulate_query(spec, query))
        return checks.check_eval(expected[0], result.probability)

    return Op("eval", run, check)


def _tomography_op(text: str) -> Op:
    def run():
        spec = dsl.parse(text)
        entries = []
        for name in sorted(spec.detectors):
            response = detectors.extract_affine(spec.detectors[name])
            entries.append((spec.detectors[name], response, detectors.to_povm(response)))
        return entries

    def check(entries) -> list[str]:
        problems = []
        for det, response, povm in entries:
            effect = reference.effect_of(det)
            problems += checks.check_affine(effect, response.beta, response.alpha)
            problems += checks.check_povm(effect, povm.matrix)
        return problems

    return Op("tomography", run, check)


def _battery_op(rule_name: str, battery_seed: int) -> Op:
    def run():
        # A fresh rule per call, as the command line builds one: a reused
        # threshold rule keeps consuming its stream across batteries.
        rule = counterexamples.rule_by_name(rule_name, seed=battery_seed)
        result = counterexamples.run_battery(rule, seed=battery_seed, tolerance=BATTERY_TOL)
        document = reporting.ReportDocument(
            version=bornverifier.__version__,
            seed=battery_seed,
            tolerance=BATTERY_TOL,
            reports=(result,),
        )
        return reporting.canonical_json(document.to_dict())

    def check(text) -> list[str]:
        return checks.check_battery(rule_name, text)

    return Op("counterexamples", run, check)
