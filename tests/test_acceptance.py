"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines on success; tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np

from bclearn import (
    MISSING,
    CompletionDistribution,
    DeletionPlan,
    OrderConstraint,
    ParentContext,
    PriorSpec,
    bc_estimate,
    builtin_spec,
    delete_entries,
    exact_expectation,
    k2_bc,
    log_g_bc,
    log_marginal,
    marginals,
    sample,
    tally,
)
from bclearn.search import Model
from helpers import (
    PRIORS, five_case_db, make_dataset, phi_rows, punch_holes, random_complete,
)
from oracle_refs import enumerate_models, log_g_exact


def report(name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def random_family(rng, dataset):
    child = int(rng.integers(dataset.n_variables))
    others = [i for i in range(dataset.n_variables) if i != child]
    parents = sorted(
        rng.choice(others, size=int(rng.integers(0, len(others) + 1)),
                   replace=False).tolist()
    )
    ctx = ParentContext.of(dataset.variables, child, parents)
    return ctx, tally(dataset, ctx), PriorSpec()


def test_c01_completion_count_golden_vector():
    db = five_case_db()
    ctx = ParentContext.of(db.variables, 2, (0, 1))
    t = tally(db, ctx)
    flat = t.comp_matrix().T.ravel().tolist()
    ok = flat == [2, 2, 2, 2, 2, 1, 1, 0]
    best = min(
        _timed(lambda: tally(db, ctx)) for _ in range(5)
    )
    ok = ok and best < 1e-3
    report("c01 completion-count golden vector", ok, f"tally {best * 1e6:.0f} us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_c02_complete_data_exactness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_rel = 0.0
    collapse_exact = True
    for _ in range(200):
        db = random_complete(rng, max_vars=4, max_card=3, max_cases=50)
        ctx, table, prior = random_family(rng, db)
        bc = log_g_bc([table], prior, bc_estimate([table], prior))[0].log_g
        exact = log_g_exact(table, prior)
        rel = abs(bc - exact) / max(1.0, abs(exact))
        worst_rel = max(worst_rel, rel)
        p_hat = bc_estimate([table], prior).p_hat
        for j in range(ctx.n_configs):
            obs = [0] * ctx.child_cardinality
            for row in db.codes:
                if all(int(row[p]) == s for p, s in
                       zip(ctx.parents, ctx.config_states(j))):
                    obs[int(row[ctx.child])] += 1
            denom = ctx.child_cardinality + sum(obs)
            reference = [(1.0 + o) / denom for o in obs]
            if p_hat[j].tolist() != reference:
                collapse_exact = False
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-9 and collapse_exact and elapsed < 5.0
    report(
        "c02 complete-data exactness",
        ok,
        f"worst rel {worst_rel:.2e}, collapse exact {collapse_exact}, {elapsed:.1f}s",
    )


def test_c03_sequential_predictive_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n_vars = int(rng.integers(1, 4))
        n = int(rng.integers(0, 6))
        db = make_dataset(
            (2,) * n_vars, rng.integers(0, 2, size=(n, n_vars))
        )
        parent_sets = tuple(
            tuple(
                p for p in range(child) if rng.random() < 0.5
            )
            for child in range(n_vars)
        )
        model = Model(db.variables, parent_sets)
        total = log_marginal(model, db).total

        # brute-force chain rule with explicit Bayesian updating
        counts = {}
        product = 1.0
        for row in db.codes:
            for child, parents in enumerate(parent_sets):
                key = (child, tuple(int(row[p]) for p in parents))
                cell = counts.setdefault(key, [0, 0])
                k = int(row[child])
                product *= (1 + cell[k]) / (2 + cell[0] + cell[1])
                cell[k] += 1
        rel = abs(math.exp(total) - product) / max(product, 1e-300)
        worst = max(worst, rel)
    report("c03 sequential-predictive oracle", worst <= 1e-9, f"worst rel {worst:.2e}")


def test_c04_bound_containment():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    violations = 0
    instances = 0
    while instances < 200:
        db = random_complete(rng, max_vars=3, max_card=3, max_cases=5)
        if db.codes.size == 0 or db.n_cases == 0:
            continue
        db = punch_holes(rng, db, int(rng.integers(1, db.codes.size + 1)))
        n_completions = 1
        for _, col in zip(*np.nonzero(db.codes == MISSING)):
            n_completions *= db.variables[col].cardinality
        if n_completions > 4096:
            continue
        instances += 1
        ctx, table, prior = random_family(rng, db)
        est = bc_estimate([table], prior)
        exact = exact_expectation(db, ctx, prior)
        if not ((exact >= est.p_min).all() and (exact <= est.p_max).all()):
            violations += 1
        for _ in range(100):
            phi = CompletionDistribution(
                rng.dirichlet(np.ones(ctx.child_cardinality),
                              size=ctx.n_configs),
            )
            p_hat = bc_estimate([table], prior, phi).p_hat
            if not ((p_hat >= est.p_min).all() and (p_hat <= est.p_max).all()):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    report("c04 bound containment", ok, f"{violations} violations, {elapsed:.1f}s")


def test_c05_limit_behaviors():
    rng = np.random.default_rng(505)
    ok = True
    for cards, parents in (
        ((2,), ()), ((3,), ()), ((2, 2, 2), (1, 2)), ((3, 2), (1,)),
    ):
        n = int(rng.integers(1, 9))
        db = make_dataset(cards, np.full((n, len(cards)), MISSING))
        ctx = ParentContext.of(db.variables, 0, parents)
        table = tally(db, ctx)
        prior = PriorSpec()
        est = bc_estimate([table], prior)
        c = ctx.child_cardinality
        prior_mean = [1.0 / c] * c
        ok = ok and all(est.p_hat[j].tolist() == prior_mean
                        for j in range(ctx.n_configs))
        expected_precision = c + n / ctx.n_configs
        ok = ok and bool(
            np.abs(est.alpha_hat - expected_precision).max() <= 1e-9
        )

    empty = make_dataset((2, 2, 2), np.zeros((0, 3), dtype=np.int16))
    model = k2_bc(empty, OrderConstraint((0, 1, 2)))
    ok = ok and model.arcs == () and model.score.total == 0.0
    report("c05 limit behaviors", ok)


def test_c06_child_only_missingness_reduction():
    rng = np.random.default_rng(606)
    worst = 0.0
    checked = 0
    while checked < 100:
        db = random_complete(rng, max_vars=3, max_card=3, max_cases=12)
        if db.n_cases == 0:
            continue
        checked += 1
        child = int(rng.integers(db.n_variables))
        codes = db.codes.copy()
        holes = rng.random(db.n_cases) < rng.uniform(0.2, 0.8)
        codes[holes, child] = MISSING
        db = make_dataset(db.cardinalities, codes)
        ctx, table, prior = random_family(rng, db)
        ctx = ParentContext.of(
            db.variables, child, [i for i in range(db.n_variables) if i != child]
        )
        table = tally(db, ctx)
        prior = PriorSpec()
        phi = phi_rows(table, prior, "mar")
        p_hat = bc_estimate([table], prior).p_hat
        for j, (obs, comp) in enumerate(
            zip(table.obs_matrix().tolist(), table.comp_matrix().tolist())
        ):
            assert len(set(comp)) == 1
            pooled = [
                (1 + o + p * comp[0]) / (ctx.child_cardinality + sum(obs) + comp[0])
                for o, p in zip(obs, phi[j])
            ]
            gap = np.abs(p_hat[j] - [float(v) for v in pooled]).max()
            worst = max(worst, float(gap))
    report("c06 child-only reduction", worst <= 1e-12, f"worst abs {worst:.2e}")


def test_c07_precision_conservation():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        db = random_complete(rng, max_vars=4, max_card=3, max_cases=30)
        if db.codes.size == 0:
            continue
        db = punch_holes(rng, db, int(rng.integers(0, db.codes.size + 1)))
        ctx, table, _ = random_family(rng, db)
        for alpha, beta in PRIORS:
            est = bc_estimate([table], PriorSpec(alpha, beta))
            expected = ctx.n_configs * ctx.child_cardinality * alpha + db.n_cases
            worst = max(worst, abs(float(est.alpha_hat.sum()) - expected))
    report("c07 precision conservation", worst <= 1e-9, f"worst abs {worst:.2e}")


def test_c08_protocol_reproduction():
    start = time.perf_counter()
    spec = builtin_spec("M1")
    generating = set(spec.model.named_arcs())
    ladder = (100, 80, 60, 40, 20)
    seeds = range(10)
    diffs = {pct: [] for pct in ladder}
    drifts = {pct: [] for pct in ladder}
    for seed in seeds:
        root = np.random.SeedSequence(seed)
        sample_seed, delete_seed = root.spawn(2)
        complete = sample(spec.with_overrides(seed=sample_seed))
        order = OrderConstraint.from_names(complete, ["X1", "X2", "X3"])
        reference = None
        for pct in ladder:
            dataset = delete_entries(
                complete, DeletionPlan(1 - pct / 100, seed=delete_seed)
            )
            model = k2_bc(dataset, order)
            diffs[pct].append(len(set(model.named_arcs()) ^ generating))
            margs = marginals(model)
            if pct == 100:
                reference = margs
            drift = max(
                float(np.abs(margs[v] - reference[v]).max()) for v in margs
            )
            drifts[pct].append(drift)
    elapsed = time.perf_counter() - start
    ok = elapsed <= 120.0
    detail = []
    for pct in ladder:
        close = sum(1 for d in diffs[pct] if d <= 1)
        median_drift = float(np.median(drifts[pct]))
        ok = ok and close >= 8 and median_drift <= 0.05
        detail.append(f"{pct}%: {close}/10 within 1 arc, drift {median_drift:.3f}")
    report("c08 protocol reproduction", ok, "; ".join(detail))


def test_c09_runtime_flatness():
    spec = builtin_spec("M3")
    times = {100: [], 20: []}
    for seed in range(5):
        root = np.random.SeedSequence(seed)
        sample_seed, delete_seed = root.spawn(2)
        complete = sample(spec.with_overrides(seed=sample_seed))
        order = OrderConstraint.from_names(
            complete, [v.name for v in complete.variables]
        )
        for pct in (100, 20):
            dataset = delete_entries(
                complete, DeletionPlan(1 - pct / 100, seed=delete_seed)
            )
            times[pct].append(_timed(lambda: k2_bc(dataset, order)))
    ratio = float(np.median(times[20]) / np.median(times[100]))
    report("c09 runtime flatness", ratio <= 2.0, f"20%/100% median ratio {ratio:.2f}")


def test_c10_enumeration_consistency():
    rng = np.random.default_rng(1010)
    ok = True
    details = []
    for _ in range(10):
        n = int(rng.integers(2, 30))
        db = make_dataset(
            (2, 2, 2), rng.integers(0, 2, size=(n, 3))
        )
        if rng.random() < 0.7:
            db = punch_holes(rng, db, int(rng.integers(1, db.codes.size)))
        order = OrderConstraint((0, 1, 2))
        results = enumerate_models(db, order)
        greedy = k2_bc(db, order)
        posterior_total = sum(em.posterior for em in results)
        matches = [
            em for em in results if em.model.parent_sets == greedy.parent_sets
        ]
        ok = ok and len(results) == 8
        ok = ok and abs(posterior_total - 1.0) <= 1e-9
        ok = ok and len(matches) == 1
        ok = ok and matches[0].log_marginal == greedy.score.total
    report("c10 enumeration consistency", ok)
