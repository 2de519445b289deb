"""bclearn benchmark: one workload, closed loop, in this process.

    python3 perfbench/run.py --workload learn_wide --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Inputs are built from
``--seed`` into ``.bench_work/`` under the checkout and removed at exit.
The only child processes are the cold imports timed as part of set-up,
run one at a time.
Ops run one after another through the in-process CLI (``bclearn.cli.main``)
for ``--seconds`` seconds, and every op's output is checked.  A fixed
calibration loop (``calibration.py``) runs before every op and once after the
last, so that op times can be rescaled to a reference host speed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced ops, reports the per-layer
metrics, and writes the spans to ``.bench_work/trace-<workload>-seed<n>.jsonl``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in the process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def _import_package():
    """Import bclearn from this checkout's sources, or exit with code 1."""
    if not (SRC / "bclearn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'bclearn'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import bclearn

    if Path(bclearn.__file__).resolve().parent != (SRC / "bclearn").resolve():
        sys.exit(f"perfbench: imported bclearn from {bclearn.__file__}, not {SRC}")


def _metric_specs() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _fingerprint(workdir: Path, instance) -> str:
    digest = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    digest.update(json.dumps(instance.expect, sort_keys=True).encode())
    return digest.hexdigest()


class Run:
    """The state of one benchmark run: instances, op records and failures."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.instances = []
        self.setup_times = []
        self.problems: list[str] = []
        self.records: list[dict] = []
        self.artifacts: dict[tuple[int, str], bytes] = {}
        self.timed_from = 0  # index of the first timed record
        self.closing_calibration = 0.0  # the loop run after the last op
        self.first_timed_op = 0  # op id of the first timed traced op
        self._build(seed, workdir)

    def _build(self, seed: int, workdir: Path) -> None:
        """Set up every instance once, timing each set-up, then set up the
        first instance again and check that its inputs come out the same."""
        from workloads import instance_seeds

        seeds = instance_seeds(seed, self.workload.instances)
        for index, instance_seed in enumerate(seeds):
            instance_dir = workdir / f"instance{index}"
            self.instances.append(self._setup(instance_seed, instance_dir))
        again = self._setup(seeds[0], workdir / "instance0-again")
        if _fingerprint(workdir / "instance0", self.instances[0]) != _fingerprint(
            workdir / "instance0-again", again
        ):
            self.problems.append("set-up of the same seed built different inputs")

    def _setup(self, seed: int, instance_dir: Path):
        """One timed set-up: start the package in a fresh interpreter, as a
        user's first command would, then build one instance's inputs."""
        instance_dir.mkdir(parents=True)
        gc.collect()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import bclearn.cli"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=ROOT,
            check=True,
            timeout=120,
        )
        instance = self.workload.setup(seed, instance_dir)
        self.setup_times.append(time.perf_counter() - start)
        return instance

    def op(self, index: int, kind: str, tracer=None, round_: int = -1) -> dict:
        """Run, time and check one op; record the outcome."""
        from bclearn import cli
        from calibration import calibrate
        from workloads import CheckError

        op = self.instances[index].ops[kind]
        for path in (op.artifact, op.sidecar):
            if path is not None and path.exists():
                path.unlink()
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        calibration = calibrate()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                start = time.perf_counter()
                code = cli.main(op.argv)
                elapsed = time.perf_counter() - start
            else:
                with tracer.installed():
                    start = time.perf_counter()
                    code = tracer.run_op(cli.main, op.argv)
                    elapsed = time.perf_counter() - start
        record = {"instance": index, "kind": kind, "traced": tracer is not None,
                  "round": round_, "seconds": elapsed, "calibration_s": calibration,
                  "ok": False}
        self.records.append(record)
        try:
            if code != 0:
                raise CheckError(f"exit code {code}: {err.getvalue().strip()}")
            artifact = op.artifact.read_bytes()
            first = self.artifacts.setdefault((index, kind), artifact)
            if artifact != first:
                raise CheckError("artifact differs from an earlier op's")
            sidecar = op.sidecar.read_bytes() if op.sidecar else None
            seen = self.workload.check(self.instances[index], kind, artifact, sidecar)
        except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            self.problems.append(f"instance {index} {kind}: {exc!r}")
            return record
        record["ok"] = True
        record.update(seen)
        return record

    def measure(self, seconds: float, tracer=None) -> None:
        """Warm up, then run a closed loop until ``seconds`` have passed.

        Untraced, each round runs the ``missing`` op of the next instance
        and, where the workload has one, the ``reference`` op of the same
        instance; the loop also runs until every instance has been visited.
        Traced, each round runs the ``missing`` op once untraced and once
        traced.  The two ops of a round swap order from one round to the
        next, so neither side always runs first.
        """
        from calibration import calibrate

        kinds = list(self.instances[0].ops)
        for kind in kinds:
            self.op(0, kind)
        if tracer is not None:
            self.op(0, "missing", tracer)
        self.timed_from = len(self.records)
        self.first_timed_op = tracer.ops if tracer is not None else 0
        min_rounds = len(self.instances) if tracer is None else 1
        start = time.perf_counter()
        rounds = 0
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            index = rounds % len(self.instances)
            steps = [(index, "missing", None)]
            if tracer is not None:
                steps.append((index, "missing", tracer))
            elif "reference" in kinds:
                steps.append((index, "reference", None))
            if rounds % 2:
                steps.reverse()
            for step in steps:
                self.op(*step, round_=rounds)
            rounds += 1
        self.closing_calibration = calibrate()

    def times(self, kind: str, traced: bool = False) -> list[float]:
        return [r["seconds"] for r in self.records[self.timed_from:]
                if r["ok"] and r["kind"] == kind and r["traced"] == traced]

    def normalized_times(self, kind: str) -> list[float]:
        """Untraced times of ``kind`` ops rescaled to the reference host
        speed by the calibration loops run just before and just after each."""
        from calibration import normalized

        records = self.records + [{"calibration_s": self.closing_calibration}]
        return [
            normalized(r["seconds"], r["calibration_s"], records[i + 1]["calibration_s"])
            for i, r in enumerate(records[:-1])
            if i >= self.timed_from and r["ok"] and r["kind"] == kind and not r["traced"]
        ]

    def paired_ratios(self, numerator: str, denominator: str) -> list[float]:
        """Time of the ``numerator`` op over that of the ``denominator`` op
        (both untraced) in each timed round where both succeeded.  Pairing
        ops that ran back to back cancels drift in the host's speed."""
        rounds: dict[int, dict[str, float]] = {}
        for r in self.records[self.timed_from:]:
            if r["ok"] and not r["traced"]:
                rounds.setdefault(r["round"], {})[r["kind"]] = r["seconds"]
        return [
            ops[numerator] / ops[denominator]
            for ops in rounds.values()
            if numerator in ops and denominator in ops
        ]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r["ok"])


def raw_times(run: Run) -> dict[str, float]:
    """Wall-clock figures as measured, before host-speed normalization."""
    missing = run.times("missing")
    return {
        "op_s_p50": statistics.median(missing),
        "calibration_s_p50": statistics.median(
            r["calibration_s"] for r in run.records[run.timed_from:]
        ),
    }


def end_to_end(run: Run) -> dict[str, float]:
    missing = run.normalized_times("missing")
    primary = [r for r in run.records[run.timed_from:]
               if r["ok"] and r["kind"] == "missing"]
    cells = sum(run.instances[r["instance"]].cells for r in primary)
    if "reference" in run.instances[0].ops:
        slowdown = statistics.median(run.paired_ratios("missing", "reference"))
    else:
        slowdown = statistics.median(r["missing_slowdown"] for r in primary)
    arcs = list({r["instance"]: r["arc_difference"] for r in primary}.values())
    return {
        "setup_s": statistics.median(run.setup_times),
        "op_norm_s_p50": statistics.median(missing),
        "cells_per_norm_s": cells / sum(missing),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "missing_slowdown": slowdown,
        "arc_difference": sum(arcs) / len(arcs),
    }


def per_layer(run: Run, tracer) -> dict[str, float]:
    from tracing import layer_metrics

    traced_ops = layer_metrics(
        [s for s in tracer.spans if s.op >= run.first_timed_op]
    )
    metrics = {
        name: statistics.median(op[name] for op in traced_ops)
        for name in traced_ops[0]
    }
    metrics["trace_overhead"] = (
        statistics.median(run.times("missing", traced=True))
        / statistics.median(run.times("missing"))
    )
    return metrics


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    e2e_units, layer_units = _metric_specs()
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    env = environment()
    print("environment " + json.dumps(env))

    workdir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        run = Run(workload, args.seed, workdir)
        run.measure(args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        trace_path = WORK / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(
            trace_path, {"workload": workload.name, "seed": args.seed, **env}
        )
        print(f"trace written to {trace_path.relative_to(ROOT)}")

    for problem in run.problems:
        print(f"check failed: {problem}")
    attempted = len(run.records)
    print(f"ops attempted={attempted} failed={run.failed} "
          f"failed_ops_ratio={run.failed / attempted:.4f}")
    try:
        values = per_layer(run, tracer) if tracer else end_to_end(run)
    except (statistics.StatisticsError, ZeroDivisionError, IndexError):
        print("perfbench: too few ops succeeded to compute the metrics", file=sys.stderr)
        return 1
    units = layer_units if tracer else e2e_units
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    if tracer is None:
        for name, value in raw_times(run).items():
            print(f"not a metric: {name} = {value:.6g} s")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
