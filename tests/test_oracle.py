import math

import numpy as np
import pytest

from bclearn import (
    MISSING,
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
    ctx = ParentContext.for_dataset(db, child, parents)
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
