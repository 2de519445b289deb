#!/usr/bin/env python3
"""Time each layer of a dense model's score along the n and missing axes.

    python3 scripts/bench_scaling.py

Run from anywhere in a source checkout; the package is imported from its
``src/`` directory.  It scores ``perfbench``'s ``score_dense`` model (one
family each of q = 9, 81, 729 and 6561 configurations, five of q = 1) with
``FamilyScorer.model_score`` on cases drawn from that workload's chain, for
every n in N_CASES and every deleted fraction in DELETED (one nested
deletion ladder per n).  The layer times come from perfbench's tracer
(``perfbench/tracing.py``): each ``counts.tally``, ``estimate.bc_estimate``
and ``score.log_g_bc`` span is charged to the family of the
``score.family`` span it runs in; each figure is the median of REPEATS
fresh scorers, the repeats of one n taken in turns over its deleted
fractions, so that repeat r of every fraction runs close in time.

It writes ``BENCH_scaling.json`` at the root of the checkout: the host, the
Python and numpy versions, ``perfbench/calibration.py``'s loop time before
and after the sweep (the host's speed, to compare files across hosts), every
per-family time, and each layer's t(60 %) / t(0 %) per q and n, the paper's
flatness in the missing fraction as a number.  A ratio is that of the
medians; its spread is the range of the repeats' own ratios, repeat r at
60 % over repeat r at 0 %.  A ratio above FLAG is flagged, and its verdict
is stable when every repeat's ratio falls on the same side of FLAG.  The
figures are wall times in seconds and nothing is gated on them.

A second slice walks the variables axis: ``search.k2_bc`` under a cap of
K2_MAX_PARENTS parents, on ternary networks of each size in K2_VARIABLES,
drawn as ``perfbench``'s ``learn_wide`` draws its network, at K2_CASES cases
with each deleted fraction in K2_DELETED, under each phi of
``estimate.PHI_POLICIES``.  Each point records the best of REPEATS searches
in seconds, raw and normalized to the calibration loop's reference host
speed (``calibration.normalized``, each search rescaled by the calibrations
run just before and after it, so that files from two checkouts or two
moments compare), its ``bc_estimate`` calls (the tracer's spans), the rows
they estimated and the median over REPEATS traced searches of their
normalized time per row, its passes over the cases (``counts._cases_table``
calls, a name the tracer does not wrap), and the arcs it learned, with how
many of them the generating network lacks (extra) and how many of its arcs
it did not learn (missed).  Per variable count and phi it reports two
t(60 %) / t(0 %) ratios, taken and flagged as the first slice's: the
search's normalized time, and ``bc_estimate``'s normalized time per row
(the estimator alone).

A third slice walks the n axis of ``data.load_csv``: files of LOAD_COLUMNS
ternary columns with LOAD_MISSING of the cells ``?``, at each n in
LOAD_CASES and each state label length in LOAD_LABEL_BYTES, written to a
temporary directory.  Each file is loaded by REPEATS fresh child processes,
one load each: a point records the best of their load times in seconds and
the largest of their peak resident set sizes (Linux's ``VmHWM``), next to
the file's size, the codes' size and a child's peak after the import alone.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from bclearn import counts, score  # noqa: E402
from bclearn.estimate import PHI_POLICIES  # noqa: E402
from bclearn.search import Model, OrderConstraint, k2_bc  # noqa: E402
from bclearn.simulate import GenerativeSpec, delete_ladder, sample  # noqa: E402
from calibration import calibrate, normalized  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import LearnWide, ScoreDense  # noqa: E402

N_CASES = (2_000, 20_000, 200_000)
DELETED = (0.0, 0.05, 0.2, 0.4, 0.6)
LAYERS = ("tally", "bc_estimate", "log_g_bc")
REPEATS = 5
SAMPLE_SEED, DELETE_SEED = 11, 12
FLAG = 2.0
OUT = ROOT / "BENCH_scaling.json"
K2_VARIABLES = (16, 32, 48)
K2_CASES = 20_000
K2_DELETED = (0.0, 0.2, 0.6)
K2_MAX_PARENTS = 3
LOAD_CASES = (100_000, 1_000_000)
LOAD_LABEL_BYTES = (1, 2, 5)
LOAD_COLUMNS = 16
LOAD_MISSING = 0.3
LOAD_SEED = 13
# a child's load: its seconds and its peak resident set size in MB; with no
# file, the peak after the import alone.  The peak is Linux's VmHWM, that of
# the child's own address space: ru_maxrss keeps the parent's across exec
LOAD_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from bclearn.data import load_csv
start = time.perf_counter()
if len(sys.argv) > 2:
    load_csv(sys.argv[2])
seconds = time.perf_counter() - start
with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"s": seconds, "peak_rss_mb": kib / 1024}))
"""


def _run(dataset, parent_sets) -> tuple[float, list[dict[str, float]]]:
    """One fresh scorer's model score under perfbench's tracer: its wall
    time and, in child order, each family's per-layer times."""
    tracer = Tracer()
    with tracer.installed():
        tracer.run_op(score.FamilyScorer(dataset).model_score, parent_sets)
    root, *spans = tracer.spans
    # model_score scores its families in child order, each in one
    # ``score.family`` span, the parent of that family's layer spans
    families = {span.id: dict.fromkeys(LAYERS, 0.0)
                for span in spans if span.name == "score.family"}
    for span in spans:
        layer = span.name.partition(".")[2]
        if layer in LAYERS:
            families[span.parent][layer] += span.duration
    return root.duration, list(families.values())


class _Wide(LearnWide):
    """``learn_wide``'s network drawing with another number of variables."""

    def __init__(self, n_variables: int):
        self.n_variables = n_variables
        super().__init__()


def _counted_search(dataset, order, phi) -> tuple[int, int, Model, int, float]:
    """One ``k2_bc`` under perfbench's tracer: its ``bc_estimate`` calls,
    its passes over the cases, the model it learned, the rows its
    ``bc_estimate`` calls estimated and their seconds."""
    passes = 0
    cases_table = counts._cases_table

    def counted_cases_table(*args, **kwargs):
        nonlocal passes
        passes += 1
        return cases_table(*args, **kwargs)

    tracer = Tracer()
    counts._cases_table = counted_cases_table
    try:
        with tracer.installed():
            model = k2_bc(dataset, order, phi=phi)
    finally:
        counts._cases_table = cases_table
    estimates = [span for span in tracer.spans if span.name == "estimate.bc_estimate"]
    # every variable is ternary, so a row is 3 cells
    rows = sum(span.counts["cells"] for span in estimates) // 3
    return (len(estimates), passes, model, rows,
            sum(span.duration for span in estimates))


def _ratio(t0s, t1s) -> dict:
    """t(60 %) / t(0 %) from REPEATS paired times: the ratio of their
    medians, the range of the repeats' own ratios, whether it is above
    FLAG, and whether every repeat's ratio says the same."""
    each = [t1 / t0 for t0, t1 in zip(t0s, t1s)]
    t0, t1 = statistics.median(t0s), statistics.median(t1s)
    flagged = t1 / t0 > FLAG
    return {
        "t0_s": t0, "t60_s": t1, "ratio": round(t1 / t0, 3),
        "spread": [round(min(each), 3), round(max(each), 3)],
        "flagged": flagged, "stable": all((r > FLAG) == flagged for r in each),
    }


def _k2_rows() -> tuple[list[dict], list[dict]]:
    """The ``k2_bc`` slice: one row per variable count, deleted fraction and
    phi, and the two ratios per variable count and phi."""
    rows, repeats = [], {}
    for n_variables in K2_VARIABLES:
        network = _Wide(n_variables).network
        true_arcs = set(network.arcs)
        order = OrderConstraint(tuple(range(n_variables)), K2_MAX_PARENTS)
        complete = sample(GenerativeSpec(network, K2_CASES, seed=SAMPLE_SEED))
        for deleted, dataset in zip(
            K2_DELETED, delete_ladder(complete, K2_DELETED, DELETE_SEED)
        ):
            for phi in PHI_POLICIES:
                # each search, untraced then traced in turn, between the
                # calibrations run just before and after it
                times, traced, calibrations = [], [], [calibrate()]
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    k2_bc(dataset, order, phi=phi)
                    times.append(time.perf_counter() - start)
                    calibrations.append(calibrate())
                    traced.append(_counted_search(dataset, order, phi))
                    calibrations.append(calibrate())
                estimates, passes, model, estimated, _ = traced[0]
                arcs = set(model.arcs)
                norms = list(map(normalized, times, calibrations[::2], calibrations[1::2]))
                per_row = [normalized(seconds, before, after) / estimated
                           for (*_, seconds), before, after
                           in zip(traced, calibrations[1::2], calibrations[2::2])]
                repeats[n_variables, phi, deleted] = norms, per_row
                rows.append({
                    "variables": n_variables, "deleted": deleted, "phi": phi,
                    "k2_bc_s": min(times), "k2_bc_norm_s": min(norms),
                    "bc_estimate_calls": estimates, "case_passes": passes,
                    "rows_estimated": estimated,
                    "bc_estimate_us_per_row": statistics.median(per_row) * 1e6,
                    "arcs": len(arcs), "extra_arcs": len(arcs - true_arcs),
                    "missed_arcs": len(true_arcs - arcs),
                })
                print(f"variables={n_variables:>2} deleted={deleted:.2f} "
                      f"phi={phi:<7} k2_bc={min(times) * 1e3:7.1f} ms "
                      f"({min(norms) * 1e3:7.1f} normalized)  bc_estimate calls="
                      f"{estimates}  rows={estimated} "
                      f"({rows[-1]['bc_estimate_us_per_row']:.2f} us each)  "
                      f"case passes={passes}  arcs={len(arcs)} "
                      f"(extra {rows[-1]['extra_arcs']}, missed "
                      f"{rows[-1]['missed_arcs']})")
    ratios = []
    for n_variables in K2_VARIABLES:
        for phi in PHI_POLICIES:
            first, last = (repeats[n_variables, phi, d] for d in (K2_DELETED[0], K2_DELETED[-1]))
            for quantity, t0s, t1s in zip(("k2_bc", "bc_estimate_per_row"), first, last):
                ratios.append({"variables": n_variables, "phi": phi,
                               "quantity": quantity, **_ratio(t0s, t1s)})
    return rows, ratios


def _write_csv(path: Path, n_cases: int, label_bytes: int) -> None:
    """LOAD_COLUMNS ternary columns of ``label_bytes``-byte labels, each cell
    ``?`` with probability LOAD_MISSING, written a block of rows at a time."""
    rng = np.random.default_rng(LOAD_SEED)
    states = [("s" * (label_bytes - 1) + str(k)).encode() for k in range(3)]
    # every token padded to one width, its separator included; ``keep``
    # drops the padding of the short missing token
    tokens = np.zeros((4, label_bytes + 1), dtype=np.uint8)
    keep = np.zeros(tokens.shape, dtype=bool)
    for t, token in enumerate(states + [b"?"]):
        tokens[t, : len(token) + 1] = list(token + b",")
        keep[t, : len(token) + 1] = True
    with open(path, "wb") as fh:
        fh.write(",".join(f"X{i}" for i in range(LOAD_COLUMNS)).encode() + b"\n")
        for r0 in range(0, n_cases, 100_000):
            rows = min(100_000, n_cases - r0)
            cells = rng.integers(0, 3, size=(rows, LOAD_COLUMNS))
            cells[rng.random(cells.shape) < LOAD_MISSING] = 3
            block = tokens[cells]
            last = block[:, -1]
            last[last == ord(",")] = ord("\n")
            fh.write(block[keep[cells]].tobytes())


def _child_load(src: Path, path: Path | None = None) -> dict:
    args = [sys.executable, "-c", LOAD_CHILD, str(src)]
    if path is not None:
        args.append(str(path))
    done = subprocess.run(args, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _load_rows(src: Path = ROOT / "src") -> tuple[float, list[dict]]:
    """The ``load_csv`` slice, loading with the package at ``src``: a
    child's peak after the import alone, and one row per n and label
    length."""
    import_mb = max(_child_load(src)["peak_rss_mb"] for _ in range(REPEATS))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n_cases in LOAD_CASES:
            for label_bytes in LOAD_LABEL_BYTES:
                path = Path(tmp) / f"load-{n_cases}-{label_bytes}.csv"
                _write_csv(path, n_cases, label_bytes)
                loads = [_child_load(src, path) for _ in range(REPEATS)]
                rows.append({
                    "cases": n_cases, "label_bytes": label_bytes,
                    "file_mb": path.stat().st_size / 2**20,
                    "codes_mb": n_cases * LOAD_COLUMNS * 2 / 2**20,
                    "load_csv_s": min(load["s"] for load in loads),
                    "peak_rss_mb": max(load["peak_rss_mb"] for load in loads),
                })
                path.unlink()
                print(f"load_csv n={n_cases:>7} labels of {label_bytes} bytes: "
                      f"{rows[-1]['load_csv_s'] * 1e3:7.1f} ms  peak "
                      f"{rows[-1]['peak_rss_mb']:6.1f} MB  (file "
                      f"{rows[-1]['file_mb']:5.1f} MB)")
    return import_mb, rows


def _host() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _ratios(runs, qs_of) -> list[dict]:
    """Each layer's t(max deleted) / t(0 %) per q and n, the families of one
    q summed in each repeat; ``qs_of`` is each family's q, in child order."""
    ratios = []
    for n in N_CASES:
        for q in sorted(set(qs_of)):
            for layer in LAYERS:
                t0s, t1s = (
                    [sum(t[layer] for t, f_q in zip(families, qs_of) if f_q == q)
                     for _, families in runs[n, deleted]]
                    for deleted in (DELETED[0], DELETED[-1])
                )
                ratios.append({"n": n, "q": q, "layer": layer, **_ratio(t0s, t1s)})
    return ratios


def main() -> None:
    workload = ScoreDense()
    parent_sets = workload.model.parent_sets
    variables = workload.model.variables
    qs_of = [int(np.prod([variables[p].cardinality for p in parents]))
             for parents in parent_sets]
    calibration_before = statistics.median(calibrate() for _ in range(5))
    rows, runs = [], {}
    for n in N_CASES:
        complete = sample(GenerativeSpec(workload.chain, n, seed=SAMPLE_SEED))
        ladder = list(zip(DELETED, delete_ladder(complete, DELETED, DELETE_SEED)))
        for _ in range(REPEATS):
            for deleted, dataset in ladder:
                runs.setdefault((n, deleted), []).append(_run(dataset, parent_sets))
        for deleted, _ in ladder:
            point = runs[n, deleted]
            families = [
                {
                    "child": variables[child].name, "q": q,
                    **{f"{layer}_s": statistics.median(t[child][layer] for _, t in point)
                       for layer in LAYERS},
                }
                for child, q in enumerate(qs_of)
            ]
            rows.append({
                "n": n, "deleted": deleted,
                "model_score_s": statistics.median(total for total, _ in point),
                "families": families,
            })
            big = max(families, key=lambda f: f["q"])
            print(f"n={n:>6} deleted={deleted:.2f} model_score="
                  f"{rows[-1]['model_score_s'] * 1e3:7.1f} ms  q={big['q']}: "
                  + "  ".join(f"{layer}={big[f'{layer}_s'] * 1e3:.2f} ms" for layer in LAYERS))
    k2_rows, k2_ratios = _k2_rows()
    import_mb, load_rows = _load_rows()
    calibration_after = statistics.median(calibrate() for _ in range(5))
    ratios = _ratios(runs, qs_of)
    report = {
        "what": "FamilyScorer.model_score of perfbench score_dense's model on "
                "its chain's cases; per-family layer times, median of "
                f"{REPEATS}, in seconds",
        "host": _host(),
        "calibration_s": {"before": calibration_before, "after": calibration_after},
        "seeds": {"sample": SAMPLE_SEED, "delete": DELETE_SEED},
        "repeats": REPEATS,
        "rows": rows,
        "ratios": ratios,
        "flag_above": FLAG,
        "flagged": [r for r in ratios if r["flagged"]],
        "k2_bc": {
            "what": "search.k2_bc on ternary networks drawn as perfbench "
                    "learn_wide's, under each phi; best of "
                    f"{REPEATS} searches in seconds, raw and normalized by "
                    "the calibrations around each search, bc_estimate calls, "
                    "the rows they estimated and passes over the cases of one "
                    "search, the median of its bc_estimate's normalized time "
                    f"per row over {REPEATS} traced searches, and its arcs, "
                    "extra and missed against the generating network; per "
                    "variable count and phi, the t(60 %) / t(0 %) ratios of "
                    "the search's normalized time and of bc_estimate's per row",
            "cases": K2_CASES,
            "max_parents": K2_MAX_PARENTS,
            "rows": k2_rows,
            "ratios": k2_ratios,
            "flagged": [r for r in k2_ratios if r["flagged"]],
        },
        "load_csv": {
            "what": "data.load_csv of files of "
                    f"{LOAD_COLUMNS} ternary columns, {LOAD_MISSING:.0%} of "
                    f"cells '?'; best of {REPEATS} fresh child processes' "
                    "load times in seconds, the largest of their peak RSS in "
                    "MB, and the peak of a child that only imports",
            "import_peak_rss_mb": import_mb,
            "rows": load_rows,
        },
    }
    OUT.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for r in report["flagged"]:
        print(f"flagged: n={r['n']} q={r['q']} {r['layer']} "
              f"t(60 %)/t(0 %) = {r['ratio']} {r['spread']}"
              f"{'' if r['stable'] else ' (unstable)'}")
    for r in k2_ratios:
        print(f"k2_bc variables={r['variables']} phi={r['phi']} {r['quantity']} "
              f"t(60 %)/t(0 %) = {r['ratio']} {r['spread']}"
              f"{' flagged' if r['flagged'] else ''}"
              f"{'' if r['stable'] else ' (unstable)'}")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
