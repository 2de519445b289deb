"""Command-line front end: learn, score, estimate, simulate and bench.

Every subcommand is deterministic given its full configuration including
seeds; wall-clock timings are therefore kept out of the primary report
files (stdout and the optional timings sidecar carry them) so that two
runs with the same seed produce byte-identical artifacts.

Exit codes: 0 success, 1 validation error (an unreadable input, unwritable
output or refused allocation included), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import json
import sys
import time
import traceback

import numpy as np

from .counts import ParentContext, tally
from .data import (
    Dataset,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    summarize_missingness,
)
from .estimate import PHI_POLICIES, PriorSpec, bc_estimate, phi_from_rows
from .oracle import DEFAULT_CAP, exact_expectation, exact_marginal
from .score import FamilyScorer, log_marginal
from .search import (
    OrderConstraint,
    SearchError,
    k2_bc,
    marginals,
    model_from_json,
    model_to_dot,
    model_to_json,
    score_to_json,
)
from .simulate import (
    RNG_ALGORITHM,
    DeletionPlan,
    delete_entries,
    delete_ladder,
    load_spec,
    sample,
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_json(data, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _load_dataset(args):
    schema = load_schema(args.schema) if args.schema else None
    return load_csv(args.data, missing_token=args.missing_token, schema=schema)


def _split_names(spec: str) -> list[str]:
    return [name.strip() for name in spec.split(",") if name.strip()]


def _order_from_args(dataset, args) -> OrderConstraint:
    if args.order is None:
        names = [v.name for v in dataset.variables]
    else:
        names = _split_names(args.order)
    return OrderConstraint.from_names(dataset, names, max_parents=args.max_parents)


def cmd_learn(args) -> int:
    dataset = _load_dataset(args)
    order = _order_from_args(dataset, args)
    start = time.perf_counter()
    model = k2_bc(dataset, order, alpha=args.alpha, beta=args.beta, phi=args.phi)
    elapsed = time.perf_counter() - start
    if args.out:
        _write_json(model_to_json(model), args.out)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(model_to_dot(model))
    arcs = ",".join(f"{p}->{c}" for p, c in model.named_arcs()) or "(none)"
    print(
        f"log_marginal={model.score.total:.6f} arcs={arcs} time_s={elapsed:.3f}"
    )
    return 0


def cmd_score(args) -> int:
    dataset = _load_dataset(args)
    with open(args.model, encoding="utf-8") as fh:
        model = model_from_json(json.load(fh), variables=dataset.variables)
    score = log_marginal(
        dataset=dataset, model=model, alpha=args.alpha, beta=args.beta, phi=args.phi
    )
    report = {
        "model": model_to_json(model),
        **score_to_json(dataset.variables, score),
    }
    if args.oracle:
        mixture = exact_marginal(
            dataset, model, alpha=args.alpha, cap=args.oracle_cap
        )
        report["oracle"] = {
            "policy": "uniform",
            "exact_marginal": mixture,
            "log_exact_marginal": float(np.log(mixture)) if mixture > 0 else None,
        }
    if args.out:
        _write_json(report, args.out)
    print(f"total_log_marginal={score.total:.6f}")
    return 0


def cmd_estimate(args) -> int:
    dataset = _load_dataset(args)
    child = dataset.variable_index(args.child)
    parents = [dataset.variable_index(n) for n in _split_names(args.parents or "")]
    ctx = ParentContext.of(dataset.variables, child, sorted(parents))
    table = tally(dataset, ctx)
    prior = PriorSpec(args.alpha, args.beta)
    phi = args.phi
    if phi not in PHI_POLICIES:
        with open(phi, encoding="utf-8") as fh:
            phi = phi_from_rows(ctx, json.load(fh), dataset.variables)
    est = bc_estimate([table], prior, phi=phi)
    summary = summarize_missingness(dataset)
    obs, comp = table.obs_matrix().tolist(), table.comp_matrix().tolist()
    report = {
        "child": args.child,
        "parents": [dataset.variables[p].name for p in ctx.parents],
        "fraction_missing": summary.fraction_missing,
        "configurations": [
            {
                "config": ctx.config_label(j, dataset.variables),
                "obs": obs[j],
                "comp": comp[j],
                "p_hat": [float(v) for v in est.p_hat[j]],
                "p_min": [float(v) for v in est.p_min[j]],
                "p_max": [float(v) for v in est.p_max[j]],
                "alpha_hat": float(est.alpha_hat[j]),
            }
            for j in range(ctx.n_configs)
        ],
    }
    if args.oracle:
        exact = exact_expectation(
            dataset, ctx, prior, cap=args.oracle_cap
        )
        for j, row in enumerate(report["configurations"]):
            row["exact_expectation"] = [float(v) for v in exact[j]]
    if args.out:
        _write_json(report, args.out)
    print(f"estimated {ctx.n_configs} configurations for child {args.child}")
    return 0


def cmd_simulate(args) -> int:
    spec = load_spec(args.spec)
    root = np.random.SeedSequence(args.seed)
    sample_seed, delete_seed = root.spawn(2)
    spec = spec.with_overrides(n=args.n, seed=sample_seed)
    dataset = sample(spec)
    deleted_fraction = args.delete_fraction
    if deleted_fraction:
        dataset = delete_entries(
            dataset, DeletionPlan(fraction=deleted_fraction, seed=delete_seed)
        )
    save_csv(dataset, args.out, missing_token=args.missing_token)
    if args.schema_out:
        save_schema(dataset, args.schema_out)
    if args.meta:
        _write_json(
            {
                "spec": spec.name or args.spec,
                "n": spec.n,
                "seed": args.seed,
                "rng": RNG_ALGORITHM,
                "deleted_fraction": deleted_fraction,
                "missing_token": args.missing_token,
            },
            args.meta,
        )
    print(f"wrote {dataset.n_cases} cases to {args.out}")
    return 0


def _arc_difference(learned, generating) -> int:
    return len(set(learned) ^ set(generating))


def cmd_bench(args) -> int:
    spec = load_spec(args.spec).with_overrides(n=args.n)
    seeds = [int(s) for s in _split_names(args.seeds)]
    ladder = [int(p) for p in _split_names(args.ladder)]
    for option, values in (("--seeds", seeds), ("--ladder", ladder)):
        if not values:
            raise ValueError(f"{option} lists no value")
    for pct in ladder:
        if not 0 <= pct <= 100:
            raise ValueError(f"ladder percentage {pct} outside [0, 100]")

    variables = spec.model.variables
    generating_arcs = set(spec.model.named_arcs())
    # Refuse a bad order, prior or phi before any sampling, on no cases:
    # scoring the empty model meets a prior too large to score.
    no_cases = Dataset(variables, np.empty((0, len(variables))))
    order = _order_from_args(no_cases, args)
    FamilyScorer(
        no_cases, alpha=args.alpha, beta=args.beta, phi_policy=args.phi
    ).model_score([()] * len(variables))

    rows = []
    timings = []
    for seed in seeds:
        root = np.random.SeedSequence(seed)
        sample_seed, delete_seed = root.spawn(2)
        complete = sample(spec.with_overrides(seed=sample_seed))
        fractions = [1.0 - pct / 100.0 for pct in ladder]
        rungs = delete_ladder(complete, fractions, delete_seed)
        for pct, dataset in zip(ladder, rungs):
            start = time.perf_counter()
            model = k2_bc(
                dataset, order, alpha=args.alpha, beta=args.beta, phi=args.phi
            )
            elapsed = time.perf_counter() - start
            try:
                rung_marginals = marginals(model)
            except SearchError as exc:
                raise SearchError(f"seed {seed}, {pct}% available: {exc}") from exc
            rows.append(
                {
                    "seed": seed,
                    "pct_available": pct,
                    "arcs": [f"{p}->{c}" for p, c in model.named_arcs()],
                    "arc_difference": _arc_difference(
                        model.named_arcs(), generating_arcs
                    ),
                    "minus_log_marginal": -model.score.total,
                    "marginals": {
                        name: [float(v) for v in vector]
                        for name, vector in sorted(rung_marginals.items())
                    },
                }
            )
            timings.append(
                {"seed": seed, "pct_available": pct, "wall_time_s": elapsed}
            )

    report = {
        "meta": {
            "spec": spec.name or args.spec,
            "n": spec.n,
            "order": [variables[i].name for i in order.order],
            "seeds": seeds,
            "ladder": ladder,
            "alpha": args.alpha,
            "beta": args.beta,
            "phi": args.phi,
            "rng": RNG_ALGORITHM,
        },
        "rows": rows,
    }
    if args.out:
        if args.format == "json":
            _write_json(report, args.out)
        else:
            _write_bench_csv(report, args.out)
    if args.timings:
        _write_json({"rows": timings}, args.timings)
    for timing in timings:
        print(
            f"seed={timing['seed']} available={timing['pct_available']}% "
            f"time_s={timing['wall_time_s']:.3f}"
        )
    return 0


def _write_bench_csv(report, path) -> None:
    rows = report["rows"]
    marginal_columns = []
    for name, vector in sorted(rows[0]["marginals"].items()):
        marginal_columns.extend(f"marginal_{name}_{k}" for k in range(len(vector)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_module.writer(fh)
        writer.writerow(
            ["seed", "pct_available", "arcs", "arc_difference", "minus_log_marginal"]
            + marginal_columns
        )
        for row in rows:
            flat = []
            for _, vector in sorted(row["marginals"].items()):
                flat.extend(repr(v) for v in vector)
            writer.writerow(
                [
                    row["seed"],
                    row["pct_available"],
                    ";".join(row["arcs"]),
                    row["arc_difference"],
                    repr(row["minus_log_marginal"]),
                ]
                + flat
            )


def build_parser() -> _Parser:
    parser = _Parser(prog="bclearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_csv_input(p):
        p.add_argument("--data", required=True)
        p.add_argument("--schema")
        p.add_argument("--missing-token", default="?")

    def add_common(p):
        p.add_argument("--alpha", type=float, default=1.0,
                       help="Dirichlet weight on every cell of every family "
                            "(default 1)")
        p.add_argument("--beta", type=float, default=1.0,
                       help="Dirichlet weight on every parent configuration of every "
                            "family (default 1)")
        p.add_argument("--phi", default="mar",
                       help="completion distribution: mar or uniform; estimate "
                            "also takes a JSON file of phi rows")

    learn = sub.add_parser("learn", help="induce a network from a database")
    add_csv_input(learn)
    learn.add_argument("--order", help="comma-separated names, ancestors first")
    learn.add_argument("--max-parents", type=int, default=None)
    learn.add_argument("--out")
    learn.add_argument("--dot")
    add_common(learn)
    learn.set_defaults(func=cmd_learn)

    score = sub.add_parser("score", help="score a model against a database")
    add_csv_input(score)
    score.add_argument("--model", required=True)
    score.add_argument("--out")
    score.add_argument("--oracle", action="store_true",
                       help="also mix the exact score over all completions")
    score.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    add_common(score)
    score.set_defaults(func=cmd_score)

    estimate = sub.add_parser("estimate", help="estimate one conditional table")
    add_csv_input(estimate)
    estimate.add_argument("--child", required=True)
    estimate.add_argument("--parents", help="comma-separated parent names")
    estimate.add_argument("--out")
    estimate.add_argument("--oracle", action="store_true")
    estimate.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP)
    add_common(estimate)
    estimate.set_defaults(func=cmd_estimate)

    simulate = sub.add_parser("simulate", help="sample a database from a network")
    simulate.add_argument("--spec", required=True,
                          help="M1..M4 or a generative-spec JSON file")
    simulate.add_argument("--n", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--delete-fraction", type=float, default=0.0)
    simulate.add_argument("--out", required=True)
    simulate.add_argument("--schema-out")
    simulate.add_argument("--meta")
    simulate.add_argument("--missing-token", default="?")
    simulate.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("bench", help="deletion-ladder learning benchmark")
    bench.add_argument("--spec", required=True)
    bench.add_argument("--n", type=int, default=None)
    bench.add_argument("--seeds", default="0")
    bench.add_argument("--ladder", default="100,80,60,40,20")
    bench.add_argument("--order")
    bench.add_argument("--max-parents", type=int, default=None)
    bench.add_argument("--out")
    bench.add_argument("--timings")
    bench.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(bench)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
