import math

import numpy as np
import pytest

from bclearn import (
    MISSING,
    FamilyScorer,
    Model,
    OracleError,
    ParentContext,
    PriorSpec,
    bc_estimate,
    exact_expectation,
    exact_marginal,
    log_marginal,
    model_from_arcs,
    tally,
)
from bclearn.oracle import _completions
from helpers import make_dataset, random_incomplete


def family(db, child, parents):
    ctx = ParentContext.of(db.variables, child, parents)
    return ctx, PriorSpec()


def completions(db, **kwargs):
    """Every completion as a copied code matrix."""
    return [codes.copy() for codes in _completions(db, **kwargs)]


class TestEnumerateDatasets:
    """The completion stream shared by exact_expectation and exact_marginal."""

    def test_complete_dataset_is_its_own_completion(self):
        db = make_dataset((2, 2), [[0, 1], [1, 0]])
        [codes] = completions(db)
        np.testing.assert_array_equal(codes, db.codes)

    def test_single_missing_binary_entry(self):
        db = make_dataset((2,), [[MISSING], [0]])
        enum = completions(db)
        assert {codes[0, 0] for codes in enum} == {0, 1}
        for codes in enum:
            assert codes[1, 0] == 0  # observed entries preserved

    def test_worked_example_has_sixty_four(self, worked_db):
        enum = completions(worked_db)
        assert len(enum) == 64
        assert len({codes.tobytes() for codes in enum}) == 64
        assert (np.stack(enum) != MISSING).all()

    def test_cap_is_enforced(self, worked_db):
        with pytest.raises(OracleError, match="cap"):
            completions(worked_db, cap=63)


class TestExactExpectation:
    def test_complete_data_reduces_to_posterior_mean(self):
        db = make_dataset((2, 2), [[0, 0], [0, 1], [1, 1]])
        ctx, prior = family(db, 1, (0,))
        expected = (1.0 + tally(db, ctx).obs_matrix()) / (
            2.0 + tally(db, ctx).obs_matrix().sum(axis=1)[:, None]
        )
        np.testing.assert_allclose(exact_expectation(db, ctx, prior), expected,
                                   rtol=0, atol=0)

    def test_single_missing_case_averages_to_half(self):
        db = make_dataset((2,), [[MISSING]])
        ctx, prior = family(db, 0, ())
        result = exact_expectation(db, ctx, prior)
        # mean of 2/3 and 1/3
        assert result[0].tolist() == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_worked_example_cell_lies_in_its_interval(self, worked_db):
        ctx, prior = family(worked_db, 2, (0, 1))
        result = exact_expectation(worked_db, ctx, prior)
        assert 0.25 <= result[0, 0] <= 0.75

    def test_containment_on_random_tiny_datasets(self):
        # both sides are single roundings of exact rationals, so the
        # comparison needs no slack
        rng = np.random.default_rng(31)
        for _ in range(40):
            db = random_incomplete(rng, max_vars=3, max_card=3, max_cases=5)
            child = int(rng.integers(db.n_variables))
            parents = tuple(i for i in range(db.n_variables) if i != child)
            ctx, prior = family(db, child, parents)
            table = tally(db, ctx)
            b = bc_estimate([table], prior)
            exact = exact_expectation(db, ctx, prior)
            assert (exact >= b.p_min).all()
            assert (exact <= b.p_max).all()


class TestExactMarginal:
    def test_empty_dataset_gives_one(self):
        db = make_dataset((2, 2), np.zeros((0, 2), dtype=np.int16))
        model = model_from_arcs(db.variables, [("X1", "X2")])
        assert exact_marginal(db, model) == 1.0

    def test_complete_data_equals_closed_form(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            codes = rng.integers(0, 2, size=(int(rng.integers(1, 6)), 3))
            db = make_dataset((2, 2, 2), codes)
            model = model_from_arcs(db.variables, [("X1", "X2"), ("X2", "X3")])
            mixture = exact_marginal(db, model)
            closed = math.exp(log_marginal(model, db).total)
            assert mixture == pytest.approx(closed, rel=1e-9)

    def test_collider_mixture_regression_constant(self, worked_db):
        # frozen from scripts/compute_pins.py: exactly 23/2073600, one rounding
        model = model_from_arcs(
            worked_db.variables, [("X1", "X3"), ("X2", "X3")]
        )
        assert exact_marginal(worked_db, model) == 23 / 2073600

    def test_single_completion_degenerates_to_exact_score(self):
        db = make_dataset((2,), [[0], [1], [MISSING]])
        model = model_from_arcs(db.variables, [])
        # two completions of one binary hole, averaged
        by_hand = 0.5 * (1 / 2 * 1 / 3 * 2 / 4) + 0.5 * (1 / 2 * 1 / 3 * 2 / 4)
        assert exact_marginal(db, model) == pytest.approx(by_hand, rel=1e-12)


def log_bayes_factors(db, parent_sets, child, candidate):
    """The log Bayes factor of adding ``candidate`` to ``child``'s parents in
    the model of ``parent_sets``, at alpha 1: BC's, the difference of the
    two family scores, under each phi, and the exact one, log
    ``exact_marginal`` of the larger model minus that of the smaller."""
    parents = parent_sets[child]
    larger = list(parent_sets)
    larger[child] = tuple(sorted((*parents, candidate)))
    bc = {}
    for phi in ("mar", "uniform"):
        scorer = FamilyScorer(db, phi_policy=phi)
        bc[phi] = (scorer.score(child, larger[child]).log_g
                   - scorer.score(child, parents).log_g)
    small, large = (
        math.log(exact_marginal(db, Model(db.variables, tuple(sets))))
        for sets in (parent_sets, larger)
    )
    return bc, large - small


class TestBayesFactorSigns:
    """How often BC's log Bayes factor for one more parent has the sign of
    the exact one on tiny incomplete datasets.  The counts pin today's
    semantics; ROADMAP item 1(b), an E-step for the cases missing a parent,
    should raise the MAR count."""

    def test_agreement_counts_on_random_tiny_families(self):
        # Each draw's last variable is the child, its last predecessor the
        # candidate and the others its parents, as in a K2 round over the
        # order 0..m-1; every other variable has no parent.
        rng = np.random.default_rng(2024)
        scoreable, agree = 0, {"mar": 0, "uniform": 0}
        for _ in range(200):
            db = random_incomplete(rng, max_vars=3)
            m = db.n_variables
            if m < 2:
                continue
            parent_sets = [()] * m
            parent_sets[m - 1] = tuple(range(m - 2))
            bc, exact = log_bayes_factors(db, parent_sets, m - 1, m - 2)
            if exact == 0:  # the two models tie; BC's factor need not
                continue
            scoreable += 1
            for phi, factor in bc.items():
                agree[phi] += int(np.sign(factor) == np.sign(exact))
        assert scoreable == 66
        assert agree == {"mar": 47, "uniform": 44}

    def test_a_chain_missing_half_its_middle_favours_the_extra_parent(self):
        # X -> Y -> Z, ternary, with Y missing in half of 8 cases.  At this
        # size the exact factor of Z | {X, Y} over Z | {Y} is positive as
        # well: X stands in for the missing Y.  ROADMAP item 1's bias, a
        # positive MAR factor where the exact one is negative, needs n in
        # the thousands, far beyond the enumeration over completions (3**4
        # here).
        db = make_dataset((3, 3, 3), [
            [0, 0, 0], [1, 1, 1], [2, 2, 2], [0, 0, 1],
            [0, MISSING, 0], [1, MISSING, 1], [2, MISSING, 2], [1, MISSING, 1],
        ])
        bc, exact = log_bayes_factors(db, [(), (0,), (1,)], 2, 0)
        assert exact == pytest.approx(0.4901810251465406, rel=1e-9)
        assert bc["mar"] == pytest.approx(0.5381852668729596, rel=1e-9)
        assert bc["uniform"] == pytest.approx(0.764298660162499, rel=1e-9)
