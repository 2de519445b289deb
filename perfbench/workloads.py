"""The benchmark's workloads: the inputs each builds, the op it runs, and the
checks every op's output must pass.

Each workload makes ``instances`` inputs from the run's seed; the timed loop
visits them in turn, so a figure reported for the run averages over several
independent draws instead of resting on one.  An instance maps an op kind
to the CLI arguments of that op:

``missing``   the op on the input with entries deleted (what is timed);
``reference`` the same op on the same cases with fewer entries deleted
              (none on learn_wide).  The timed loop runs it next to the
              ``missing`` op of the same instance; the median ratio of
              the two is the workload's ``missing_slowdown``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bclearn import DeletionPlan, Variable, builtin_spec, delete_entries, sample, save_csv
from bclearn.search import Model, marginals, model_to_json
from bclearn.simulate import GenerativeSpec

ROW_SUM_TOLERANCE = 1e-9
TOTAL_TOLERANCE = 1e-9
# The 100% rung learns from 200,000 complete cases; a marginal further than
# this from the generating network's is ~9 standard errors away.
MARGINAL_TOLERANCE = 0.01


class CheckError(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    argv: list[str]
    artifact: Path
    sidecar: Path | None = None


@dataclass
class Instance:
    ops: dict[str, Op]
    cells: int
    expect: dict = field(default_factory=dict)


def instance_seeds(seed: int, count: int) -> list[int]:
    """``count`` seeds for a workload's instances, derived from the run's seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _ternary(names) -> tuple[Variable, ...]:
    return tuple(Variable(name, ("0", "1", "2")) for name in names)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _check_score(score: dict, families: list[dict]) -> None:
    total = score["total_log_marginal"]
    _require(math.isfinite(total), f"total log marginal {total} is not finite")
    parts = sum(f["log_g"] for f in families)
    _require(
        math.isclose(total, parts, rel_tol=TOTAL_TOLERANCE),
        f"total {total!r} differs from the family sum {parts!r}",
    )


def _check_model(model: dict, max_parents: int) -> list[tuple[str, str]]:
    """Structure and CPT checks on a learned model's JSON; returns its arcs."""
    names = [v["name"] for v in model["variables"]]
    cards = {v["name"]: len(v["states"]) for v in model["variables"]}
    position = {name: i for i, name in enumerate(names)}
    arcs = [tuple(a) for a in model["arcs"]]
    parents = {name: [] for name in names}
    for p, c in arcs:
        _require(position[p] < position[c], f"arc {p}->{c} breaks the order")
        parents[c].append(p)
    for child, rows in model["cpts"].items():
        _require(
            len(parents[child]) <= max_parents,
            f"{child} has {len(parents[child])} parents",
        )
        expected_rows = math.prod(cards[p] for p in parents[child])
        _require(len(rows) == expected_rows, f"{child} has {len(rows)} CPT rows")
        for label, row in rows.items():
            _require(len(row) == cards[child], f"CPT row {child}[{label}] length")
            _require(all(0.0 <= x <= 1.0 for x in row), f"CPT row {child}[{label}]")
            _require(
                abs(sum(row) - 1.0) <= ROW_SUM_TOLERANCE,
                f"CPT row {child}[{label}] sums to {sum(row)!r}",
            )
    _check_score(model["score"], model["score"]["families"])
    return arcs


def _arc_difference(learned, generating) -> int:
    return len(set(map(tuple, learned)) ^ set(map(tuple, generating)))


class LearnWide:
    """`bclearn learn --max-parents 3`, CSV in, model JSON out, at n=100,000.

    The network (16 ternary variables, up to 3 parents each, Dirichlet(1)
    CPT rows) is drawn once from a fixed seed, as M4 is fixed for
    missing_ladder; the run's seed draws the cases and the deletions.  A
    network redrawn per seed made arc_difference swing by half its value
    between seeds, which hid any change the program makes to it.
    """

    name = "learn_wide"
    instances = 6
    n_cases = 100_000
    n_variables = 16
    max_parents = 3
    deleted = 0.3
    network_seed = 1302

    def __init__(self):
        self.network = self._network()

    def _network(self) -> Model:
        rng = np.random.default_rng(self.network_seed)
        variables = _ternary(f"X{i:02d}" for i in range(self.n_variables))
        parent_sets, cpts = [], []
        for i in range(self.n_variables):
            k = int(rng.integers(0, min(i, self.max_parents) + 1))
            parents = tuple(sorted(int(p) for p in rng.choice(i, size=k, replace=False)))
            parent_sets.append(parents)
            cpts.append(rng.dirichlet(np.ones(3), size=3 ** k))
        return Model(variables, tuple(parent_sets), cpts=tuple(cpts))

    def setup(self, seed: int, workdir: Path) -> Instance:
        sample_seed, delete_seed = np.random.SeedSequence(seed).spawn(2)
        complete = sample(GenerativeSpec(self.network, self.n_cases, seed=sample_seed))
        holey = delete_entries(complete, DeletionPlan(self.deleted, seed=delete_seed))
        ops = {}
        for kind, dataset in (("missing", holey), ("reference", complete)):
            data = workdir / f"{kind}.csv"
            save_csv(dataset, data)
            out = workdir / f"{kind}-model.json"
            ops[kind] = Op(
                ["learn", "--data", str(data), "--max-parents",
                 str(self.max_parents), "--out", str(out)],
                out,
            )
        return Instance(ops, cells=self.n_cases * self.n_variables)

    def check(self, instance: Instance, kind: str, artifact: bytes, sidecar) -> dict:
        model = json.loads(artifact)
        _require(
            [v["name"] for v in model["variables"]]
            == [v.name for v in self.network.variables],
            "variables differ from the input's",
        )
        arcs = _check_model(model, self.max_parents)
        return {"arc_difference": _arc_difference(arcs, self.network.named_arcs())}


class MissingLadder:
    """`bclearn bench --spec M4 --ladder 100,60,20` at n=200,000, in memory.

    One op is the paper's protocol for one seed: sample, nested deletions,
    k2_bc and marginals on each rung.  The instances are seeds drawn from
    the run's seed.
    """

    name = "missing_ladder"
    instances = 16
    n_cases = 200_000
    ladder = (100, 60, 20)

    def setup(self, seed: int, workdir: Path) -> Instance:
        spec = builtin_spec("M4")
        report = workdir / "report.json"
        timings = workdir / "timings.json"
        argv = [
            "bench", "--spec", "M4", "--n", str(self.n_cases), "--seeds", str(seed),
            "--ladder", ",".join(map(str, self.ladder)),
            "--out", str(report), "--timings", str(timings),
        ]
        expect = {
            "arcs": spec.model.named_arcs(),
            "marginals": {k: v.tolist() for k, v in marginals(spec.model).items()},
        }
        return Instance(
            {"missing": Op(argv, report, timings)},
            cells=self.n_cases * len(spec.model.variables) * len(self.ladder),
            expect=expect,
        )

    def check(self, instance: Instance, kind: str, artifact: bytes, sidecar) -> dict:
        report = json.loads(artifact)
        rows = report["rows"]
        _require(
            [r["pct_available"] for r in rows] == list(self.ladder),
            "report rungs differ from the ladder",
        )
        generating = instance.expect["arcs"]
        differences = []
        for row in rows:
            arcs = [tuple(a.split("->")) for a in row["arcs"]]
            difference = _arc_difference(arcs, generating)
            _require(row["arc_difference"] == difference, "reported arc_difference")
            _require(
                math.isfinite(row["minus_log_marginal"]), "score is not finite"
            )
            for name, vector in row["marginals"].items():
                _require(
                    abs(sum(vector) - 1.0) <= ROW_SUM_TOLERANCE,
                    f"marginal of {name} sums to {sum(vector)!r}",
                )
            differences.append(difference)
        full = rows[0]
        _require(differences[0] == 0, f"100% rung learned {full['arcs']}")
        for name, truth in instance.expect["marginals"].items():
            gap = max(abs(a - b) for a, b in zip(full["marginals"][name], truth))
            _require(gap <= MARGINAL_TOLERANCE, f"100% marginal of {name} off by {gap}")
        times = {
            r["pct_available"]: r["wall_time_s"] for r in json.loads(sidecar)["rows"]
        }
        _require(sorted(times) == sorted(self.ladder), "timings sidecar rungs")
        _require(all(t > 0 for t in times.values()), "non-positive rung time")
        return {
            "arc_difference": sum(differences) / len(differences),
            "missing_slowdown": times[min(self.ladder)] / times[max(self.ladder)],
        }


class ScoreDense:
    """`bclearn score` of a fixed dense model, CSV and model JSON in.

    The model's families have 8, 6, 4 and 2 ternary parents (q = 6561, 729,
    81, 9).  The cases come from a chain X0 -> ... -> X8 whose Dirichlet(1)
    CPT rows are drawn once from a fixed seed; the run's seed draws the cases
    and the deletions.  Nothing is learned, so arc_difference is the fixed
    distance between the scored model and the chain.

    The reference op scores the same cases with 5% of entries deleted, not
    none: fully observed data takes the exact fast path, whose time responds
    to the host's state differently from the big-integer collapse, so a
    ratio to it swung by a quarter between runs of the same code.
    """

    name = "score_dense"
    instances = 8
    n_cases = 2_000
    n_variables = 9
    deleted = 0.2
    reference_deleted = 0.05
    network_seed = 1302
    dense_parents = {8: range(8), 7: range(1, 7), 6: range(2, 6), 5: range(3, 5)}

    def __init__(self):
        variables = _ternary(f"X{i}" for i in range(self.n_variables))
        self.model = Model(
            variables,
            tuple(tuple(self.dense_parents.get(i, ())) for i in range(self.n_variables)),
        )
        chain_parents = tuple((i - 1,) if i else () for i in range(self.n_variables))
        rng = np.random.default_rng(self.network_seed)
        self.chain = Model(
            variables,
            chain_parents,
            cpts=tuple(rng.dirichlet(np.ones(3), size=3 ** len(ps)) for ps in chain_parents),
        )

    def setup(self, seed: int, workdir: Path) -> Instance:
        sample_seed, delete_seed = np.random.SeedSequence(seed).spawn(2)
        complete = sample(GenerativeSpec(self.chain, self.n_cases, seed=sample_seed))
        holey = delete_entries(complete, DeletionPlan(self.deleted, seed=delete_seed))
        model_path = workdir / "dense-model.json"
        model_path.write_text(json.dumps(model_to_json(self.model)), encoding="utf-8")
        ops = {}
        light = delete_entries(
            complete, DeletionPlan(self.reference_deleted, seed=delete_seed)
        )
        for kind, dataset in (("missing", holey), ("reference", light)):
            data = workdir / f"{kind}.csv"
            save_csv(dataset, data)
            out = workdir / f"{kind}-score.json"
            ops[kind] = Op(
                ["score", "--data", str(data), "--model", str(model_path),
                 "--out", str(out)],
                out,
            )
        return Instance(ops, cells=self.n_cases * self.n_variables)

    def check(self, instance: Instance, kind: str, artifact: bytes, sidecar) -> dict:
        report = json.loads(artifact)
        families = report["families"]
        names = [v.name for v in self.model.variables]
        _require(
            [(f["child"], f["parents"]) for f in families]
            == [
                (names[c], [names[p] for p in ps])
                for c, ps in enumerate(self.model.parent_sets)
            ],
            "scored families differ from the model",
        )
        _check_score(report, families)
        return {
            "arc_difference": _arc_difference(
                report["model"]["arcs"], self.chain.named_arcs()
            )
        }


WORKLOADS = {w.name: w for w in (LearnWide, MissingLadder, ScoreDense)}
