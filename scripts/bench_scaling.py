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
normalized time per row, the same two figures for each search level (every
variable is ternary, so a level's new families are one ``bc_estimate``
stack), its passes over the cases (``counts._cases_table`` calls, a name
the tracer does not wrap), and the arcs it learned, with how
many of them the generating network lacks (extra) and how many of its arcs
it did not learn (missed).  Per variable count and phi it reports two
t(60 %) / t(0 %) ratios, taken and flagged as the first slice's: the
search's normalized time, and ``bc_estimate``'s normalized time per row
(the estimator alone).

A third slice walks the n axis of CSV input and output: LOAD_COLUMNS
ternary columns with LOAD_MISSING of the cells ``?``, at each n in
LOAD_CASES and each state label length in LOAD_LABEL_BYTES.  REPEATS fresh
child processes each build the cells as a ``Dataset`` and write them once
with ``data.save_csv`` to a file in a temporary directory; then REPEATS
other fresh children each load that file once with ``data.load_csv``.  A
point records the best of the write times and of the load times in seconds
and the largest of each kind's peak resident set sizes (Linux's
``VmHWM``), with the writers' peak before the write (the built dataset),
next to the file's size, the codes' size and a child's peak after the
import alone.
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
# a child's write: it builds a dataset of the codes in the .npy file
# argv[2] and the labels argv[3], then times one save_csv of it to argv[4];
# it reports its peak before the write and after it
SAVE_CHILD = """
import json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from bclearn.data import Dataset, Variable, save_csv
def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
codes = np.load(sys.argv[2])
states = tuple(json.loads(sys.argv[3]))
dataset = Dataset(tuple(Variable(f"X{i}", states) for i in range(codes.shape[1])), codes)
del codes
before = peak_mb()
start = time.perf_counter()
save_csv(dataset, sys.argv[4])
seconds = time.perf_counter() - start
print(json.dumps({"s": seconds, "dataset_peak_rss_mb": before, "peak_rss_mb": peak_mb()}))
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


def _counted_search(dataset, order, phi) -> tuple[int, Model, list[tuple[int, float]]]:
    """One ``k2_bc`` under perfbench's tracer: its passes over the cases,
    the model it learned, and the rows and seconds of each of its
    ``bc_estimate`` calls, one per search level."""
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
    # every variable is ternary, so a row is 3 cells
    return passes, model, [(span.counts["cells"] // 3, span.duration)
                           for span in tracer.spans if span.name == "estimate.bc_estimate"]


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
                passes, model, levels = traced[0]
                estimated = sum(level_rows for level_rows, _ in levels)
                arcs = set(model.arcs)
                norms = list(map(normalized, times, calibrations[::2], calibrations[1::2]))
                # each traced search's normalized bc_estimate seconds per level
                level_s = [[normalized(seconds, before, after) for _, seconds in search]
                           for (*_, search), before, after
                           in zip(traced, calibrations[1::2], calibrations[2::2])]
                per_row = [sum(search) / estimated for search in level_s]
                repeats[n_variables, phi, deleted] = norms, per_row
                rows.append({
                    "variables": n_variables, "deleted": deleted, "phi": phi,
                    "k2_bc_s": min(times), "k2_bc_norm_s": min(norms),
                    "bc_estimate_calls": len(levels), "case_passes": passes,
                    "rows_estimated": estimated,
                    "bc_estimate_us_per_row": statistics.median(per_row) * 1e6,
                    "levels": [
                        {"rows": level_rows, "bc_estimate_us_per_row":
                         statistics.median(search[k] for search in level_s) / level_rows * 1e6}
                        for k, (level_rows, _) in enumerate(levels)
                    ],
                    "arcs": len(arcs), "extra_arcs": len(arcs - true_arcs),
                    "missed_arcs": len(true_arcs - arcs),
                })
                print(f"variables={n_variables:>2} deleted={deleted:.2f} "
                      f"phi={phi:<7} k2_bc={min(times) * 1e3:7.1f} ms "
                      f"({min(norms) * 1e3:7.1f} normalized)  bc_estimate calls="
                      f"{len(levels)}  rows={estimated} "
                      f"({rows[-1]['bc_estimate_us_per_row']:.2f} us each; by level "
                      + ", ".join(f"{level['rows']} at {level['bc_estimate_us_per_row']:.2f}"
                                  for level in rows[-1]["levels"])
                      + f")  case passes={passes}  arcs={len(arcs)} "
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


def _load_codes(n_cases: int) -> np.ndarray:
    """LOAD_COLUMNS ternary columns as int16 state codes, each cell MISSING
    (-1) with probability LOAD_MISSING, drawn a block of rows at a time."""
    rng = np.random.default_rng(LOAD_SEED)
    codes = np.empty((n_cases, LOAD_COLUMNS), dtype=np.int16)
    for r0 in range(0, n_cases, 100_000):
        cells = rng.integers(0, 3, size=(min(100_000, n_cases - r0), LOAD_COLUMNS))
        cells[rng.random(cells.shape) < LOAD_MISSING] = -1
        codes[r0 : r0 + len(cells)] = cells
    return codes


def _child(code: str, *args) -> dict:
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _load_rows(src: Path = ROOT / "src") -> tuple[float, list[dict]]:
    """The CSV slice, loading and writing with the package at ``src``: a
    child's peak after the import alone, and one row per n and label
    length."""
    import_mb = max(_child(LOAD_CHILD, src)["peak_rss_mb"] for _ in range(REPEATS))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n_cases in LOAD_CASES:
            codes_path = Path(tmp) / f"codes-{n_cases}.npy"
            np.save(codes_path, _load_codes(n_cases))
            for label_bytes in LOAD_LABEL_BYTES:
                path = Path(tmp) / f"load-{n_cases}-{label_bytes}.csv"
                states = json.dumps(["s" * (label_bytes - 1) + str(k) for k in range(3)])
                saves = [_child(SAVE_CHILD, src, codes_path, states, path)
                         for _ in range(REPEATS)]
                loads = [_child(LOAD_CHILD, src, path) for _ in range(REPEATS)]
                rows.append({
                    "cases": n_cases, "label_bytes": label_bytes,
                    "file_mb": path.stat().st_size / 2**20,
                    "codes_mb": n_cases * LOAD_COLUMNS * 2 / 2**20,
                    "load_csv_s": min(load["s"] for load in loads),
                    "peak_rss_mb": max(load["peak_rss_mb"] for load in loads),
                    "save_csv_s": min(save["s"] for save in saves),
                    "save_csv_peak_rss_mb": max(save["peak_rss_mb"] for save in saves),
                    "save_csv_dataset_peak_rss_mb": max(
                        save["dataset_peak_rss_mb"] for save in saves
                    ),
                })
                path.unlink()
                r = rows[-1]
                print(f"n={n_cases:>7} labels of {label_bytes} bytes: load_csv "
                      f"{r['load_csv_s'] * 1e3:7.1f} ms  peak {r['peak_rss_mb']:6.1f} MB; "
                      f"save_csv {r['save_csv_s'] * 1e3:7.1f} ms  peak "
                      f"{r['save_csv_peak_rss_mb']:6.1f} MB ("
                      f"{r['save_csv_dataset_peak_rss_mb']:6.1f} MB before)  "
                      f"(file {r['file_mb']:5.1f} MB)")
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
                    f"per row over {REPEATS} traced searches, the same rows "
                    "and time per row for each search level, and its arcs, "
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
            "what": "data.save_csv, then data.load_csv, of files of "
                    f"{LOAD_COLUMNS} ternary columns, {LOAD_MISSING:.0%} of "
                    f"cells '?'; best of {REPEATS} fresh child processes' "
                    "write times and of as many others' load times in "
                    "seconds, the largest of each kind's peak RSS in MB (a "
                    "writer's also before the write, once its dataset is "
                    "built), and the peak of a child that only imports",
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
