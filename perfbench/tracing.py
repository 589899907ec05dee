"""Spans around the calls into each layer of ``bornverifier``.

``install`` replaces each traced function with a wrapper at every place
where callers look it up: the attribute of every ``bornverifier`` module
that is bound to it, whether the module defines it or imported it by
name.  ``StateVector`` is a class, so its construction is traced through
``StateVector.__post_init__``, which the dataclass initializer looks up
on every build.  The program's own files are not changed.

A span is (name, start, end, parent).  Spans stay in memory for one op;
``end_op`` folds them into per-layer counts and self time, which is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

CHECK_IDENTITY = "circuits.check_identity"
EQUIVALENT_EFFECT = "detectors.equivalent_effect"
STATE_VECTOR = "qcore.StateVector"

# (module, function, span name); a name of None is resolved per call.
TRACED = [
    ("qcore", "purify", "qcore.purify"),
    ("detectors", "click_probability", None),
    ("detectors", "extract_affine", "detectors.extract_affine"),
    ("detectors", "equivalent_effect", EQUIVALENT_EFFECT),
    ("circuits", "apply_unitary", "circuits.apply_unitary"),
    ("circuits", "sg_measure", "circuits.sg_measure"),
    ("circuits", "detector_measure", "circuits.detector_measure"),
    ("circuits", "evaluate_full", "circuits.evaluate_full"),
    ("derivation", "verify_envariance", "derivation.verify_envariance"),
    ("derivation", "verify_lemma1", "derivation.verify_lemma1"),
    ("derivation", "verify_lemma2", "derivation.verify_lemma2"),
    ("derivation", "verify_lemma3_dyadic", "derivation.verify_lemma3_dyadic"),
    ("derivation", "verify_theorem1", "derivation.verify_theorem1"),
    ("derivation", "verify_theorem2", "derivation.verify_theorem2"),
    ("coordinate", "verify_isospin_born", "coordinate.verify_isospin_born"),
    ("counterexamples", "run_battery", "counterexamples.run_battery"),
    ("dsl", "parse", "dsl.parse"),
    ("reporting", "canonical_json", "reporting.canonical_json"),
    ("cli", "main", "cli.main"),
]

# Per-layer metrics: (span name, what is counted, unit).  "calls" and
# "built" are calls per op, "self_ms" is self time per op, and
# "calls_per_detector" is calls per distinct detector model in an op.
LAYER_METRICS = (
    [
        ("qcore.purify", "calls", "count"),
        ("qcore.purify", "self_ms", "ms"),
        (STATE_VECTOR, "built", "count"),
        (STATE_VECTOR, "self_ms", "ms"),
    ]
    + [
        (f"detectors.click_probability.{family}", stat, unit)
        for family in ("effect", "ancilla")
        for stat, unit in (("calls", "count"), ("self_ms", "ms"))
    ]
    + [
        ("detectors.extract_affine", "calls", "count"),
        ("detectors.extract_affine", "self_ms", "ms"),
        (EQUIVALENT_EFFECT, "calls", "count"),
        (EQUIVALENT_EFFECT, "calls_per_detector", "calls/detector"),
    ]
    + [
        (f"circuits.{name}", stat, unit)
        for name in ("apply_unitary", "sg_measure", "detector_measure", "evaluate_full", "check_identity")
        for stat, unit in (("calls", "count"), ("self_ms", "ms"))
    ]
    + [
        (f"derivation.{name}", "self_ms", "ms")
        for name in (
            "verify_envariance",
            "verify_lemma1",
            "verify_lemma2",
            "verify_lemma3_dyadic",
            "verify_theorem1",
            "verify_theorem2",
        )
    ]
    + [
        ("coordinate.verify_isospin_born", "self_ms", "ms"),
        ("counterexamples.run_battery", "calls", "count"),
        ("counterexamples.run_battery", "self_ms", "ms"),
        ("dsl.parse", "calls", "count"),
        ("dsl.parse", "self_ms", "ms"),
        ("reporting.canonical_json", "self_ms", "ms"),
        ("cli.main", "self_ms", "ms"),
    ]
)


class Tracer:
    """Records spans for the op in progress and accumulates per-layer
    totals over the finished ops.  Single-threaded, like the workloads."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.first_op_spans: list[tuple[str, float, float, int]] | None = None
        self._open: list[int] = []
        self.ops = 0
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.detector_models = 0
        self._op_models: set[bytes] = set()

    def wrap(self, name, fn):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's
        arguments."""
        spans = self.spans
        opened = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = opened[-1] if opened else -1
            opened.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                spans[index] = (label, start, end, parent)

        return traced

    def note_detector(self, det) -> None:
        """Remember a detector model seen by ``equivalent_effect`` in this op."""
        parts = [type(det).__name__.encode()]
        for field in ("effect", "coupling", "projector"):
            if hasattr(det, field):
                parts.append(getattr(det, field).tobytes())
        self._op_models.add(b"|".join(parts))

    def end_op(self) -> None:
        child_s = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (label, start, end, _), children in zip(self.spans, child_s):
            self.calls[label] += 1
            self.self_s[label] += (end - start) - children
        if self.first_op_spans is None:
            self.first_op_spans = list(self.spans)
        self.spans.clear()
        self.detector_models += len(self._op_models)
        self._op_models.clear()
        self.ops += 1

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric, averaged over the finished ops."""
        out = {}
        for span, stat, unit in LAYER_METRICS:
            if stat in ("calls", "built"):
                value = self.calls[span] / self.ops
            elif stat == "calls_per_detector":
                value = self.calls[span] / self.detector_models if self.detector_models else 0.0
            else:
                value = self.self_s[span] * 1e3 / self.ops
            out[f"{span}.{stat}"] = {"value": value, "unit": unit}
        return out

    def write_first_op(self, path) -> None:
        """Write the spans of the first traced op as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (label, start, end, parent) in enumerate(self.first_op_spans or []):
                handle.write(
                    json.dumps({"id": index, "name": label, "start": start, "end": end, "parent": parent})
                    + "\n"
                )


def install(tracer: Tracer) -> None:
    """Route every traced function of ``bornverifier`` through ``tracer``."""
    import bornverifier
    from bornverifier import circuits, detectors, qcore

    def click_name(det, *_):
        family = "effect" if isinstance(det, detectors.EffectDetector) else "ancilla"
        return f"detectors.click_probability.{family}"

    def noting(fn):
        @functools.wraps(fn)
        def seen(det, *args, **kwargs):
            tracer.note_detector(det)
            return fn(det, *args, **kwargs)

        return seen

    wrappers = {}  # id of the original function -> (original, wrapper)
    for module, function, name in TRACED:
        original = getattr(getattr(bornverifier, module), function)
        inner = noting(original) if name == EQUIVALENT_EFFECT else original
        wrappers[id(original)] = (original, tracer.wrap(name or click_name, inner))
    for function in dir(circuits):
        if function.startswith("check_identity_"):
            original = getattr(circuits, function)
            wrappers[id(original)] = (original, tracer.wrap(CHECK_IDENTITY, original))

    for module_name, module in list(sys.modules.items()):
        if module_name != "bornverifier" and not module_name.startswith("bornverifier."):
            continue
        for attr, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if value is original:
                setattr(module, attr, wrapper)
    state_vector = qcore.StateVector
    state_vector.__post_init__ = tracer.wrap(STATE_VECTOR, state_vector.__post_init__)
