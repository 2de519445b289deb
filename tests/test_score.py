import math
import time

import numpy as np
import pytest

from bclearn import (
    MISSING,
    FamilyScorer,
    ParentContext,
    PriorSpec,
    ScoreError,
    bc_estimate,
    log_g_bc,
    log_marginal,
    model_from_arcs,
    tally,
)
from bclearn.oracle import OracleError
from bclearn.search import Model
from helpers import PRIORS, make_dataset, punch_holes, random_complete
from oracle_refs import log_g_exact


def family(db, child, parents, alpha=1.0, beta=1.0):
    ctx = ParentContext.of(db.variables, child, parents)
    return tally(db, ctx), PriorSpec(alpha, beta)


def sequential_predictive_log(dataset, parent_sets, alpha=1.0):
    """Chain-rule oracle: log prod_t p(case_t | cases_<t) by explicit
    Bayesian updating of every family's counts."""
    cards = dataset.cardinalities
    counts = []
    for child, parents in enumerate(parent_sets):
        q = 1
        for p in parents:
            q *= cards[p]
        counts.append(np.zeros((q, cards[child])))
    total = 0.0
    for row in dataset.codes:
        for child, parents in enumerate(parent_sets):
            j = 0
            for p in parents:
                j = j * cards[p] + int(row[p])
            k = int(row[child])
            n_jk = counts[child][j, k]
            n_j = counts[child][j].sum()
            total += math.log(
                (alpha + n_jk) / (alpha * cards[child] + n_j)
            )
            counts[child][j, k] += 1
    return total


class TestLogGExact:
    def test_empty_dataset_scores_zero(self):
        db = make_dataset((2,), np.zeros((0, 1), dtype=np.int16))
        table, prior = family(db, 0, ())
        assert log_g_exact(table, prior) == 0.0

    def test_single_case_is_uniform_predictive(self):
        db = make_dataset((2,), [[0]])
        table, prior = family(db, 0, ())
        assert log_g_exact(table, prior) == pytest.approx(
            -math.log(2), rel=1e-12
        )

    def test_two_agreeing_cases(self):
        db = make_dataset((2,), [[0], [0]])
        table, prior = family(db, 0, ())
        # sequential predictive: 1/2 * 2/3
        assert log_g_exact(table, prior) == pytest.approx(
            math.log(1 / 3), rel=1e-12
        )

    def test_refuses_incomplete_family(self):
        db = make_dataset((2,), [[0], [MISSING]])
        table, prior = family(db, 0, ())
        with pytest.raises(OracleError, match="complete family"):
            log_g_exact(table, prior)

    def test_matches_sequential_predictive_on_random_families(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            db = random_complete(rng, max_vars=3, max_card=3, max_cases=12)
            parent_sets = tuple(
                tuple(range(child)) for child in range(db.n_variables)
            )
            by_gamma = sum(
                log_g_exact(*family(db, child, parents))
                for child, parents in enumerate(parent_sets)
            )
            by_chain = sequential_predictive_log(db, parent_sets)
            assert by_gamma == pytest.approx(by_chain, rel=1e-9, abs=1e-9)


class TestLogGBc:
    def test_equals_exact_on_complete_families(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            db = random_complete(rng, max_vars=3, max_card=3, max_cases=25)
            child = int(rng.integers(db.n_variables))
            parents = tuple(i for i in range(db.n_variables) if i != child)
            for alpha, beta in PRIORS:
                table, prior = family(db, child, parents, alpha, beta)
                bc = log_g_bc([table], prior, bc_estimate([table], prior))[0]
                assert bc.log_g == log_g_exact(table, prior)
                assert bc.exact

    def test_totally_missing_root_flattens_to_prior_shares(self):
        # four cases of one binary variable, all missing: the matched
        # posterior hyperparameters are (3, 3), so g = 1*2*2/120
        db = make_dataset((2,), [[MISSING]] * 4)
        table, prior = family(db, 0, ())
        fs = log_g_bc([table], prior, bc_estimate([table], prior))[0]
        assert not fs.exact
        assert fs.log_g == pytest.approx(math.log(4 / 120), rel=1e-12)

    def test_worked_example_regression_constant(self, worked_db):
        # frozen from scripts/compute_pins.py (independent recomputation)
        table, prior = family(worked_db, 2, (0, 1))
        fs = log_g_bc([table], prior, bc_estimate([table], prior))[0]
        assert fs.log_g == pytest.approx(-4.21104918384956, rel=1e-12)
        assert not fs.exact

    def test_finite_under_heavy_missingness(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            db = random_complete(rng, max_vars=3, max_cases=10)
            if db.codes.size == 0:
                continue
            db = punch_holes(rng, db, db.codes.size)
            child = int(rng.integers(db.n_variables))
            parents = tuple(i for i in range(db.n_variables) if i != child)
            table, prior = family(db, child, parents)
            est = bc_estimate([table], prior)
            assert math.isfinite(log_g_bc([table], prior, est)[0].log_g)

    def test_log_gamma_above_the_largest_float_is_refused(self, worked_db):
        """c * alpha = 2e306 for the binary child: its lgamma overflows
        although the posterior precision is still a float."""
        table, prior = family(worked_db, 2, (0, 1), alpha=1e306)
        est = bc_estimate([table], prior)
        with pytest.raises(
            ScoreError, match=r"prior alpha=1e\+306, beta=1.0 is too large"
        ):
            log_g_bc([table], prior, est)

    def test_ten_ternary_parents_score_within_bound(self):
        """q = 59049 configurations from 1000 cases: the estimate works on
        the table's distinct count rows, so one family takes a fraction of
        a second.  A cost quadratic in q exhausted memory here."""
        rng = np.random.default_rng(29)
        db = make_dataset((3,) * 11, rng.integers(0, 3, size=(1000, 11)))
        db = punch_holes(rng, db, db.codes.size // 5)
        start = time.perf_counter()
        table, prior = family(db, 0, tuple(range(1, 11)))
        assert table.context.n_configs == 3 ** 10
        est = bc_estimate([table], prior)
        assert math.isfinite(log_g_bc([table], prior, est)[0].log_g)
        assert np.abs(est.p_hat.sum(axis=1) - 1.0).max() <= 1e-12
        # ~0.12 s on a 2-vCPU Xeon VM, most of it log_g_bc's lgamma loop
        # (~70 ms) and tally (~45 ms); bc_estimate takes ~10 ms.  The bound
        # leaves room for slow hosts
        assert time.perf_counter() - start < 60.0


class TestScorerRounds:
    def test_a_round_scores_as_each_family_alone(self):
        """``FamilyScorer.scores`` estimates and scores a round's families as
        one stack.  Each family's score and CPT equal a fresh scorer's for
        that family alone, to the bit: ragged stacks of 2-5 state parents,
        priors on int64 (alpha 1, 1e3) and object (alpha 0.1) integers, MAR
        and uniform phi, complete data, no cases, fewer cases than
        configurations (distinct rows) and more (n = 1500)."""
        rng = np.random.default_rng(61)
        for trial in range(12):
            cards = [int(c) for c in rng.integers(2, 6, size=int(rng.integers(3, 6)))]
            n = (0, 8, 40, 1500)[trial % 4]
            db = make_dataset(cards, np.column_stack(
                [rng.integers(0, c, size=n) for c in cards]
            ).reshape(n, len(cards)))
            if trial % 3:
                db = punch_holes(rng, db, int(db.codes.size * 0.3))
            child = int(rng.integers(len(cards)))
            others = [v for v in range(len(cards)) if v != child]
            parents = sorted(rng.choice(
                others, size=int(rng.integers(0, 3)), replace=False
            ).tolist())
            candidates = [v for v in others if v not in parents]
            for alpha in (1.0, 0.1, 1e3):
                for phi in ("mar", "uniform"):
                    scorer = FamilyScorer(db, alpha=alpha, phi_policy=phi)
                    # a first round leaves part of the second in the cache
                    scorer.scores([(child, parents, candidates[:1])])
                    [[_, *stacked]] = scorer.scores([(child, parents, candidates)])
                    fresh = FamilyScorer(db, alpha=alpha, phi_policy=phi)
                    for candidate, score in zip(candidates, stacked):
                        family = (*parents, candidate)
                        alone = fresh.score(child, family)
                        assert score == alone
                        assert score.log_g == alone.log_g
                        assert np.array_equal(
                            scorer.estimate(child, family), fresh.estimate(child, family)
                        )


class TestLogMarginal:
    def test_empty_dataset_scores_zero(self):
        db = make_dataset((2, 2), np.zeros((0, 2), dtype=np.int16))
        model = model_from_arcs(db.variables, [("X1", "X2")])
        assert log_marginal(model, db).total == 0.0

    def test_decomposability(self):
        rng = np.random.default_rng(24)
        db = random_complete(rng, max_vars=3, max_cases=20)
        while db.n_variables < 2 or db.n_cases < 2:
            db = random_complete(rng, max_vars=3, max_cases=20)
        chain = Model(db.variables, ((), (0,)) + tuple(
            () for _ in range(db.n_variables - 2)
        ))
        empty = Model(db.variables, tuple(() for _ in range(db.n_variables)))
        s_chain = log_marginal(chain, db)
        s_empty = log_marginal(empty, db)
        for child in range(db.n_variables):
            if child == 1:
                continue
            assert s_chain.families[child].log_g == s_empty.families[child].log_g
        assert s_chain.total == pytest.approx(
            sum(f.log_g for f in s_chain.families), rel=1e-15
        )

    def test_case_order_is_irrelevant(self):
        rng = np.random.default_rng(25)
        db = random_complete(rng, max_vars=3, max_cases=15)
        while db.n_cases < 2:
            db = random_complete(rng, max_vars=3, max_cases=15)
        db = punch_holes(rng, db, int(rng.integers(0, db.codes.size)))
        shuffled = make_dataset(
            db.cardinalities, db.codes[rng.permutation(db.n_cases)]
        )
        model = model_from_arcs(
            db.variables,
            [(db.variables[0].name, v.name) for v in db.variables[1:]],
        )
        assert log_marginal(model, db).total == log_marginal(model, shuffled).total

    def test_exact_flag_is_per_family(self):
        db = make_dataset((2, 2), [[0, 0], [1, MISSING], [0, 1]])
        model = Model(db.variables, ((), ()))
        score = log_marginal(model, db)
        assert score.families[0].exact       # X1 column fully observed
        assert not score.families[1].exact   # X2 column has a hole

    def test_cycle_rejected(self):
        db = make_dataset((2, 2), [[0, 0]])
        with pytest.raises(ScoreError, match="not a DAG"):
            model_from_arcs(db.variables, [("X1", "X2"), ("X2", "X1")])


class TestBayesFactor:
    """The log Bayes factor is the difference of two log_marginal totals."""

    def test_same_model_gives_zero(self, worked_db):
        model = model_from_arcs(worked_db.variables, [("X1", "X3")])
        total = log_marginal(model, worked_db).total
        assert total - log_marginal(model, worked_db).total == 0.0

    def test_deterministic_copy_strongly_favors_the_arc(self):
        rng = np.random.default_rng(26)
        x = rng.integers(0, 2, size=50)
        db = make_dataset((2, 2), np.column_stack([x, x]))
        linked = model_from_arcs(db.variables, [("X1", "X2")])
        independent = model_from_arcs(db.variables, [])
        log_bf = log_marginal(linked, db).total - log_marginal(independent, db).total
        assert log_bf > 10.0

    def test_empty_dataset_is_indifferent(self):
        db = make_dataset((2, 2), np.zeros((0, 2), dtype=np.int16))
        linked = model_from_arcs(db.variables, [("X1", "X2")])
        independent = model_from_arcs(db.variables, [])
        log_bf = log_marginal(linked, db).total - log_marginal(independent, db).total
        assert log_bf == 0.0


class TestLogGammaAccuracy:
    def test_integer_factorials(self):
        total = 0.0
        for n in range(2, 120):
            total += math.log(n - 1)
            assert math.lgamma(n) == pytest.approx(total, rel=1e-13)

    def test_half_integer_value(self):
        assert math.lgamma(0.5) == pytest.approx(math.log(math.pi) / 2, rel=1e-14)

    def test_recurrence_on_scored_range(self):
        rng = np.random.default_rng(27)
        for x in rng.uniform(1e-3, 1e6, size=200):
            lhs = math.lgamma(x + 1.0)
            rhs = math.lgamma(x) + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)
