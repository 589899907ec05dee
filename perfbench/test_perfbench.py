"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Each checker must accept the program's real output (up to the known
fault) and reject a deliberately perturbed copy; the reference circuit
simulation must agree with hand-computed values; the traced run must
count the same calls twice for one seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
from bornverifier import cli, counterexamples, detectors, dsl, qcore, reporting  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
RUN = [sys.executable, str(HERE / "run.py")]


def _only_known(problems):
    return [p for p in problems if not p.startswith(checks.KNOWN_FAULT)]


@pytest.fixture(scope="module")
def verify_document():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--seed", "3"])
    return code, out.getvalue()


def _edited(text, edit):
    doc = json.loads(text)
    edit({r["name"]: r for r in doc["reports"]})
    return json.dumps(doc)


@pytest.mark.parametrize("family", ["effect", "ancilla"])
def test_probe_and_affine_checks_reject_perturbations(family):
    rng = np.random.default_rng(5)
    make = detectors.random_effect_detector if family == "effect" else detectors.random_ancilla_detector
    det = make(rng)
    points = [qcore.random_bloch(rng) for _ in range(20)]
    coords = np.array([p.as_array() for p in points])
    effect = reference.effect_of(det)
    values = [detectors.probe_fclick(det, p) for p in points]
    response = detectors.extract_affine(det)
    povm = detectors.to_povm(response).matrix

    assert checks.check_probes(effect, coords, values) == []
    assert checks.check_affine(effect, response.beta, response.alpha) == []
    assert checks.check_povm(effect, povm) == []

    values[7] += 1e-8
    assert checks.check_probes(effect, coords, values)
    assert checks.check_affine(effect, response.beta + 1e-8, response.alpha)
    assert checks.check_affine(effect, response.beta, response.alpha + [0.0, 1e-8, 0.0])
    assert checks.check_povm(effect, povm + 1e-8)


def test_eval_check_rejects_perturbation():
    assert checks.check_eval(0.75, 0.75) == []
    assert checks.check_eval(0.75, 0.75 + 1e-9)


def test_reference_simulation_matches_hand_values():
    s_lambda = dsl.parse((GOLDEN / "01_s_lambda.qexp").read_text())
    four_spin = dsl.parse((GOLDEN / "11_lemma1_four_spin.qexp").read_text())
    assert reference.simulate_query(s_lambda, "both_up") == pytest.approx(0.75, abs=1e-12)
    assert reference.simulate_query(four_spin, "up_branch") == pytest.approx(0.7, abs=1e-12)
    copy_up = dsl.parse((GOLDEN / "10_detector_ancilla.qexp").read_text()).detectors["copyup"]
    assert np.allclose(reference.effect_of(copy_up), np.diag([1.0, 0.0]), atol=1e-15)


def test_verify_check_accepts_real_output_up_to_the_known_fault(verify_document):
    code, text = verify_document
    problems = checks.check_verify(code, text, text)
    assert _only_known(problems) == []
    # The known fault: the interval mass on the suite's grid is 1.9e-4 high.
    assert len(problems) == 1
    exact = _edited(text, lambda r: r["isospin-born[gaussian]"]["details"].update(
        interval_mass=math.erf(1.0 / math.sqrt(2.0))))
    assert checks.check_verify(code, exact, exact) == []


def test_verify_check_rejects_perturbations(verify_document):
    code, text = verify_document
    exact = _edited(text, lambda r: r["isospin-born[gaussian]"]["details"].update(
        interval_mass=math.erf(1.0 / math.sqrt(2.0))))

    def drop(reports):
        reports["lemma2"]["name"] = "lemma2-renamed"

    perturbed = {
        "deviation": lambda r: r["envariance"].update(max_deviation=2e-9),
        "loosened tolerance": lambda r: r["envariance"].update(max_deviation=2e-9, tolerance=1e-8),
        "missing report": drop,
        "extremes": lambda r: r["theorem2[effect:noisy]"]["details"].update(p_min=0.1 + 1e-8),
        "interval mass": lambda r: r["isospin-born[gaussian]"]["details"].update(
            interval_mass=math.erf(1.0 / math.sqrt(2.0)) + 2e-4),
    }
    for label, edit in perturbed.items():
        assert checks.check_verify(code, _edited(exact, edit), None), label
    assert checks.check_verify(1, exact, None)
    assert checks.check_verify(code, exact, exact + " ")


@pytest.fixture(scope="module")
def battery_documents():
    documents = {}
    for rule in ("born", "random1", "modified2", "cubic3"):
        result = counterexamples.run_battery(counterexamples.rule_by_name(rule, seed=9), seed=9)
        documents[rule] = reporting.canonical_json(
            reporting.ReportDocument(version="x", seed=9, tolerance=1e-9, reports=(result,)).to_dict()
        )
    return documents


def _battery_edited(text, edit):
    doc = json.loads(text)
    edit(doc["reports"][0])
    return json.dumps(doc)


def test_battery_check_accepts_real_output(battery_documents):
    for rule, text in battery_documents.items():
        assert checks.check_battery(rule, text) == [], rule


@pytest.mark.parametrize(
    "rule, edit",
    [
        ("born", lambda b: b.update(born_deviation=1e-3)),
        ("born", lambda b: b["identities"].update(causality="fail")),
        ("random1", lambda b: b.update(born_deviation=0.0)),
        ("modified2", lambda b: b.update(born_deviation=1e-12)),
        ("modified2", lambda b: b["identities"].update(normalization="fail")),
        ("cubic3", lambda b: b["identities"].update(multiplication="pass")),
        ("cubic3", lambda b: b["identities"].update({"a5-decomposition": "pass"})),
        ("cubic3", lambda b: b["deviations"].update({"a5-decomposition": 5e-3})),
        ("cubic3", lambda b: b["identities"].update({"nosignal-measure": "fail"})),
        ("cubic3", lambda b: b.update(rule="born")),
    ],
)
def test_battery_check_rejects_perturbations(battery_documents, rule, edit):
    assert checks.check_battery(rule, _battery_edited(battery_documents[rule], edit))


def _traced(workload, seed):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=180, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["verify-suite", "probe-sweep", "experiments"])
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = _traced(workload, 4), _traced(workload, 4)
    counts = [name for name in first["metrics"] if not name.endswith(".self_ms")]
    assert counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["correct"] and second["correct"]
    # verify-suite: every op shows the known interval-mass fault.
    want_failed = first["attempted"] if workload == "verify-suite" else 0
    assert first["failed"] == want_failed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "probe-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
