"""Layer spans around bclearn's public functions, recorded from outside the package.

A traced op swaps module attributes such as ``bclearn.score.tally`` for
wrappers that record a span (name, start, end, parent span, op id) and a
few counts taken from the call's arguments and result, then puts the
originals back.  Nothing under ``src/`` is edited: the wrappers sit on the
names the calling module looks up, so ``bclearn.cli.load_csv`` is wrapped
rather than ``bclearn.data.load_csv``.  Spans stay in memory until
``write_jsonl`` is called at the end of a run.

``bclearn.oracle`` is deliberately not wrapped: it is an exponential,
test-only reference that no benchmark workload runs.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

ROOT_SPAN = "cli.main"


def _tally_counts(args, result) -> dict:
    touched = result.parent_obs_vector() + result.parent_comp_vector()
    return {
        "cases": int(args[0].n_cases),
        "configs": int(result.context.n_configs),
        "touched": int(np.count_nonzero(touched)),
    }


def _estimate_counts(args, result) -> dict:
    return {"cells": int(result.p_hat.size)}


# (module, attribute, span name, counts taken from (args, result)).  A dotted
# attribute is a method on a class of that module.
TARGETS = (
    ("bclearn.cli", "load_csv", "data.load_csv", None),
    ("bclearn.cli", "sample", "simulate.sample", None),
    ("bclearn.cli", "delete_entries", "simulate.delete_entries", None),
    ("bclearn.cli", "k2_bc", "search.k2_bc", None),
    ("bclearn.cli", "marginals", "search.marginals", None),
    ("bclearn.cli", "model_to_json", "search.model_to_json", None),
    ("bclearn.cli", "log_marginal", "score.log_marginal", None),
    ("bclearn.score", "FamilyScorer.score", "score.family", None),
    ("bclearn.score", "FamilyScorer.estimate", "search.finalize", None),
    ("bclearn.score", "log_g_bc", "score.log_g_bc", None),
    ("bclearn.score", "tally", "counts.tally", _tally_counts),
    ("bclearn.score", "bc_estimate", "estimate.bc_estimate", _estimate_counts),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_time(span: Span, children) -> float:
    """The span's duration minus the part its child spans cover."""
    return span.duration - covered(
        [(c.start, c.end) for c in children], span.start, span.end
    )


class Tracer:
    """Collects spans for the ops run through ``run_op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.ops = 0

    def _call(self, name, fn, args, kwargs, counter):
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=self._stack[-1] if self._stack else None,
            op=self.ops - 1,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span.counts = counter(args, result)
        return result

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, counter)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore them on exit."""
        saved = []
        try:
            for module_name, attribute, name, counter in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def run_op(self, fn, *args):
        """Run one op under a new op id, as the root span of its tree."""
        self.ops += 1
        return self._call(ROOT_SPAN, fn, args, {}, None)

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "op": s.op,
                            **({"counts": s.counts} if s.counts else {}),
                        }
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures for the spans of one op.

    Figures of a layer that the op never entered are 0.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in named(name))

    def own(name):
        return sum(self_time(s, children[s.id]) for s in named(name))

    def under(span, name):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    tallies = named("counts.tally")
    cases = sum(s.counts["cases"] for s in tallies)
    configs = sum(s.counts["configs"] for s in tallies)
    touched = sum(s.counts["touched"] for s in tallies)
    estimates = named("estimate.bc_estimate")
    cells = sum(s.counts["cells"] for s in estimates)
    families = named("score.family")
    hits = sum(1 for s in families if not children[s.id])
    tally_s = busy("counts.tally")
    estimate_s = busy("estimate.bc_estimate")
    return {
        "data.load_csv_s": busy("data.load_csv"),
        "counts.tally_s": tally_s,
        "counts.tally_calls": len(tallies),
        "counts.tally_us_per_case": _ratio(tally_s * 1e6, cases),
        "counts.touched_ratio": _ratio(touched, configs),
        "estimate.bc_estimate_s": estimate_s,
        "estimate.bc_estimate_calls": len(estimates),
        "estimate.cells": cells,
        "estimate.us_per_cell": _ratio(estimate_s * 1e6, cells),
        "score.log_g_bc_self_s": own("score.log_g_bc"),
        "score.family_calls": len(families),
        "score.cache_hit_ratio": _ratio(hits, len(families)),
        "search.k2_bc_self_s": own("search.k2_bc"),
        "search.families_scored": sum(
            1 for s in named("score.log_g_bc") if under(s, "search.k2_bc")
        ),
        "search.marginals_s": busy("search.marginals"),
        "search.finalize_s": busy("search.finalize"),
        "search.model_to_json_s": busy("search.model_to_json"),
        "simulate.sample_s": busy("simulate.sample"),
        "simulate.delete_entries_s": busy("simulate.delete_entries"),
        "cli.self_s": own(ROOT_SPAN),
    }


def layer_metrics(spans) -> list[dict[str, float]]:
    """``op_layer_metrics`` for each op id present in ``spans``, in op order."""
    ops: dict[int, list[Span]] = {}
    for s in spans:
        ops.setdefault(s.op, []).append(s)
    return [op_layer_metrics(ops[op]) for op in sorted(ops)]
