"""Structural regression pins: the report names, inputs strings and pass
flags of the seed-42 suite, and each counterexample rule's identity
statuses and notes.  Refactors of the checks must keep these fixed."""

import pytest

from bornverifier import counterexamples as cx
from bornverifier.derivation import run_full_suite

SUITE_42 = [
    ("envariance", "trials=200 env_dim=4", True),
    ("identity:a1-extension", "instances=200", True),
    ("identity:a5-decomposition", "instances=200", True),
    ("identity:causality", "instances=200", True),
    ("identity:multiplication", "instances=200", True),
    ("identity:normalization", "instances=200", True),
    ("identity:nosignal-measure", "instances=200", True),
    ("identity:nosignal-unitary", "instances=200", True),
    ("isospin-born[gaussian]", "n=20000 interval=[-1,1]", True),
    ("isospin-born[uniform]", "n=1000 interval=[0,0.4995]", True),
    ("lemma1", "instances=30", True),
    ("lemma2", "instances=30", True),
    ("lemma3[depth=20]", "segments=3", True),
    ("theorem1[ancilla:cnot-up]", "points=46", True),
    ("theorem1[ancilla:random-0]", "points=46", True),
    ("theorem1[ancilla:random-1]", "points=46", True),
    ("theorem1[ancilla:random-2]", "points=46", True),
    ("theorem1[ancilla:random-3]", "points=46", True),
    ("theorem1[effect:always]", "points=46", True),
    ("theorem1[effect:constant-half]", "points=46", True),
    ("theorem1[effect:never]", "points=46", True),
    ("theorem1[effect:noisy]", "points=46", True),
    ("theorem1[effect:random-0]", "points=46", True),
    ("theorem1[effect:random-1]", "points=46", True),
    ("theorem1[effect:random-2]", "points=46", True),
    ("theorem1[effect:random-3]", "points=46", True),
    ("theorem1[effect:sg-up]", "points=46", True),
    ("theorem1[effect:sigma-x]", "points=46", True),
    ("theorem2[ancilla:cnot-up]", "states=200 ideal=True", True),
    ("theorem2[ancilla:random-0]", "states=200 ideal=False", True),
    ("theorem2[ancilla:random-1]", "states=200 ideal=False", True),
    ("theorem2[ancilla:random-2]", "states=200 ideal=False", True),
    ("theorem2[ancilla:random-3]", "states=200 ideal=False", True),
    ("theorem2[effect:always]", "states=200 ideal=False", True),
    ("theorem2[effect:constant-half]", "states=200 ideal=False", True),
    ("theorem2[effect:never]", "states=200 ideal=False", True),
    ("theorem2[effect:noisy]", "states=200 ideal=False", True),
    ("theorem2[effect:random-0]", "states=200 ideal=False", True),
    ("theorem2[effect:random-1]", "states=200 ideal=False", True),
    ("theorem2[effect:random-2]", "states=200 ideal=False", True),
    ("theorem2[effect:random-3]", "states=200 ideal=False", True),
    ("theorem2[effect:sg-up]", "states=200 ideal=True", True),
    ("theorem2[effect:sigma-x]", "states=200 ideal=True", True),
]

ALL_PASS = dict.fromkeys(cx.IDENTITY_NAMES, "pass")
THRESHOLD_NOTE = (
    "threshold rule: identities compared with a shared stream value; "
    "composite identities hold at expectation level over the stream"
)


def _violation(first: int, second: int) -> str:
    return (
        f"state-function violation: identical state and measurement gave {first} "
        f"then {second} on successive events, so the probability is not "
        "determined by the state alone"
    )


BATTERY = {
    "born": (ALL_PASS, {42: (), 7: ()}),
    "random1": (
        ALL_PASS,
        {42: (THRESHOLD_NOTE, _violation(1, 0)), 7: (THRESHOLD_NOTE, _violation(0, 1))},
    ),
    "modified2": (
        {**dict.fromkeys(cx.IDENTITY_NAMES, "skipped"), "normalization": "pass"},
        dict.fromkeys(
            (42, 7),
            ("modified-product rule: only state-level checks run; evolution under "
             "the modified product is out of scope",),
        ),
    ),
    "cubic3": (
        {**ALL_PASS, "multiplication": "fail", "a5-decomposition": "fail"},
        dict.fromkeys(
            (42, 7),
            ("a5-decomposition failure admits three attributions (multiplication/"
             "addition rules, no-signalling under unread measurement, or the "
             "reference post-state rule); raw identity failures reported",),
        ),
    ),
}


def test_suite_42_names_inputs_and_flags():
    reports = run_full_suite(seed=42)
    assert [(r.name, r.inputs, r.passed) for r in reports] == SUITE_42


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("rule", sorted(BATTERY))
def test_battery_statuses_and_notes(rule, seed):
    status, notes = BATTERY[rule]
    result = cx.run_battery(cx.rule_by_name(rule, seed=seed), seed=seed)
    assert result.status == status
    assert result.notes == notes[seed]
