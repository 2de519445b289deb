import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bclearn import (
    MISSING,
    CompletionDistribution,
    EstimateError,
    ParentContext,
    PriorSpec,
    bc_estimate,
    log_g_bc,
    tally,
)
from bclearn import estimate, score
from bclearn.estimate import _collapse, _normalized_int_row, phi_from_rows
from bclearn.search import OrderConstraint, k2_bc
from helpers import (
    PRIORS, five_case_db, make_dataset, phi_rows, punch_holes, random_complete,
)


def family(db, child, parents):
    ctx = ParentContext.of(db.variables, child, parents)
    table = tally(db, ctx)
    return ctx, table, PriorSpec()


def random_family(rng, dataset):
    child = int(rng.integers(dataset.n_variables))
    others = [i for i in range(dataset.n_variables) if i != child]
    parents = sorted(
        rng.choice(others, size=int(rng.integers(0, len(others) + 1)),
                   replace=False).tolist()
    )
    return family(dataset, child, parents)


class TestPhi:
    def test_mar_binary_counts(self):
        db = make_dataset((2,), [[0], [0], [0], [1]])
        _, table, prior = family(db, 0, ())
        assert phi_rows(table, prior, "mar")[0] == [Fraction(4, 6), Fraction(2, 6)]

    def test_mar_without_observations_is_prior_mean(self):
        db = make_dataset((3,), [[MISSING]] * 5)
        _, table, prior = family(db, 0, ())
        assert phi_rows(table, prior, "mar")[0] == [Fraction(1, 3)] * 3

    def test_mar_worked_example_config(self, worked_db):
        _, table, prior = family(worked_db, 2, (0, 1))
        phi = phi_rows(table, prior, "mar")
        assert phi[1] == [Fraction(1, 3), Fraction(2, 3)]  # configuration (1, 2)

    @pytest.mark.parametrize("card", [2, 3, 4])
    def test_uniform(self, card):
        db = make_dataset((card, 2), [[MISSING, 0], [0, 1]])
        _, table, prior = family(db, 0, (1,))
        assert phi_rows(table, prior, "uniform") == [[Fraction(1, card)] * card] * 2

    def test_rows_must_be_distributions(self):
        with pytest.raises(EstimateError):
            CompletionDistribution(np.array([[0.7, 0.2]]))
        with pytest.raises(EstimateError):
            CompletionDistribution(np.array([[1.2, -0.2]]))

    def test_user_table_must_match_the_family_shape(self, worked_db):
        _, table, prior = family(worked_db, 2, (0, 1))
        for shape in ((1, 2), (4, 3), (5, 2)):
            phi = CompletionDistribution(np.full(shape, 1.0 / shape[1]))
            with pytest.raises(EstimateError, match="family needs"):
                bc_estimate([table], prior, phi)

    def test_user_table_by_config_label(self, worked_db):
        ctx, table, prior = family(worked_db, 2, (0, 1))
        rows = {"1,1": [0.9, 0.1], "1,2": [0.5, 0.5],
                "2,1": [0.5, 0.5], "2,2": [0.2, 0.8]}
        phi = phi_from_rows(ctx, rows, variables=worked_db.variables)
        assert phi.phi[0].tolist() == [0.9, 0.1]
        with pytest.raises(EstimateError, match="missing configuration"):
            phi_from_rows(ctx, {"1,1": [1.0, 0.0]}, variables=worked_db.variables)
        rows["9,9"] = [0.5, 0.5]
        with pytest.raises(EstimateError, match="unknown configurations"):
            phi_from_rows(ctx, rows, variables=worked_db.variables)


class TestBounds:
    def test_worked_example_first_config(self, worked_db):
        _, table, prior = family(worked_db, 2, (0, 1))
        b = bc_estimate([table], prior)
        # configuration (1,1): no observations, completions (2, 2); the
        # lower extreme gives rival state 2 its completions
        assert b.p_max[0, 0] == 0.75
        assert b.p_min[0, 0] == 0.25

    def test_complete_data_collapses_to_posterior_mean(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            db = random_complete(rng, max_vars=3, max_cases=30)
            ctx, table, prior = random_family(rng, db)
            b = bc_estimate([table], prior)
            for j, row in enumerate(table.obs_matrix()):
                mean = (1.0 + row) / (ctx.child_cardinality + row.sum())
                np.testing.assert_array_equal(b.p_max[j], mean)
                np.testing.assert_array_equal(b.p_min[j], mean)

    def test_totally_missing_column(self):
        m = 5
        db = make_dataset((2,), [[MISSING]] * m)
        _, table, prior = family(db, 0, ())
        b = bc_estimate([table], prior)
        assert b.p_max[0].tolist() == [(1 + m) / (2 + m)] * 2
        assert b.p_min[0].tolist() == [1 / (2 + m)] * 2

    def test_upper_dominates_every_lower(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            db = random_complete(rng, max_vars=3, max_cases=12)
            if db.codes.size == 0:
                continue
            db = punch_holes(rng, db, int(rng.integers(0, db.codes.size + 1)))
            ctx, table, prior = random_family(rng, db)
            b = bc_estimate([table], prior)
            assert (b.p_max >= b.p_min).all()

    def test_lower_endpoint_is_the_bc_extreme_not_the_infimum(self):
        """Binary parent, ternary child, cases (?, 3) and (?, 1).  For child
        state 2, completing both cases to one configuration gives the
        posterior mean 1/5 there, below p_min = 1/4; p_max is the supremum."""
        db = make_dataset((2, 3), [[MISSING, 2], [MISSING, 0]])
        _, table, prior = family(db, 1, (0,))
        b = bc_estimate([table], prior)
        means = []
        for j0, j1 in itertools.product(range(2), repeat=2):
            counts = np.zeros((2, 3))
            counts[j0, 2] += 1
            counts[j1, 0] += 1
            means.append((1 + counts) / (3 + counts.sum(axis=1, keepdims=True)))
        assert np.min(means, axis=0)[:, 1].tolist() == [0.2, 0.2]
        assert b.p_min[:, 1].tolist() == [0.25, 0.25]
        np.testing.assert_array_equal(b.p_max[:, 1], np.max(means, axis=0)[:, 1])


def collapse_by_product(a, nstar, b, phi_num, phi_den):
    """Reference collapse over the product of every denominator b + nstar_l.

    The mixed lower extremes for state k factor as
    a_k * sum_{l != k} phi_l/(b+nstar_l), so one cofactor per state serves
    the whole row.  Its cost grows with the square of the row length.
    """
    c = len(a)
    if not any(nstar):
        return list(a), b
    d = [b + nstar[l] for l in range(c)]
    product = 1
    for dl in d:
        product *= dl
    cofactor = [product // dl for dl in d]
    tails = sum(phi_num[l] * cofactor[l] for l in range(c))
    nums = [
        a[k] * (tails - phi_num[k] * cofactor[k])
        + phi_num[k] * (a[k] + nstar[k]) * cofactor[k]
        for k in range(c)
    ]
    return nums, phi_den * product


def on_grid(value, counts):
    """value + counts with value = w/scale, as integers w + scale * n."""
    w, scale = Fraction(value).as_integer_ratio()
    return [w + scale * n for n in counts], scale


def reference_estimate(table, prior, policy):
    """Every BcCellEstimate field from exact Fractions, each rounded once."""
    ctx = table.context
    c = ctx.child_cardinality
    alpha = Fraction(prior.alpha)
    parent_obs = table.parent_obs_vector().tolist()
    # parent-configuration probabilities: the MAR collapse under Dirichlet(beta)
    pa, beta_scale = on_grid(prior.beta, parent_obs)
    p_nums, p_den = collapse_by_product(
        pa, [beta_scale * n for n in table.parent_comp_vector().tolist()],
        sum(pa), pa, sum(pa),
    )
    fields = {f: [] for f in ("p_hat", "p_min", "p_max", "alpha_hat", "dirichlet")}
    for j, (obs, comp) in enumerate(
        zip(table.obs_matrix().tolist(), table.comp_matrix().tolist())
    ):
        a, scale = on_grid(prior.alpha, obs)
        nstar = [scale * n for n in comp]
        b = sum(a)
        if policy == "mar":
            phi = (a, b)
        elif policy == "uniform":
            phi = ([1] * c, c)
        else:
            row = [Fraction(v) for v in policy.phi[j].tolist()]
            row = [v / sum(row) for v in row]
            den = math.lcm(*(v.denominator for v in row))
            phi = ([int(v * den) for v in row], den)
        nums, den = collapse_by_product(a, nstar, b, *phi)
        p_hat = [Fraction(n, den) for n in nums]
        alpha_hat = (
            c * alpha + parent_obs[j]
            + table.parent_incomplete_cases * Fraction(p_nums[j], p_den)
        )
        fields["p_hat"].append(p_hat)
        fields["p_max"].append(
            [(alpha + o + n) / (c * alpha + sum(obs) + n) for o, n in zip(obs, comp)]
        )
        fields["p_min"].append(
            [(alpha + o) / (c * alpha + sum(obs) + max(comp)) for o in obs]
        )
        fields["alpha_hat"].append(alpha_hat)
        fields["dirichlet"].append([p * alpha_hat for p in p_hat])
    assert all(
        isinstance(v, Fraction)
        for values in fields.values() for v in np.ravel(values)
    )
    return {
        name: np.array([float(v) for v in values] if name == "alpha_hat"
                       else [[float(v) for v in row] for row in values])
        for name, values in fields.items()
    }


def non_dyadic_phi(rng, ctx):
    """Rows of small-integer weights over their sum, such as 0.1, 0.2, 0.7:
    not exact binary fractions, and their floats need not sum to one."""
    weights = rng.integers(1, 10, size=(ctx.n_configs, ctx.child_cardinality))
    return CompletionDistribution(weights / weights.sum(axis=1, keepdims=True))


class TestCollapse:
    def test_lcm_form_equals_product_reference(self):
        """Same exact rationals as the product-of-denominators form, on rows
        of length 2-200 with repeated, all-zero and spread-out completion
        counts, integer and non-integer priors, and MAR, uniform and user phi."""
        rng = np.random.default_rng(37)
        for trial in range(300):
            c = int(rng.integers(2, 201)) if trial % 3 else int(rng.integers(2, 6))
            priors = [1.0] if trial % 2 else [0.5, 0.25, 2.5, 0.1, 1.0]
            alpha, scale = float(rng.choice(priors)).as_integer_ratio()
            obs = rng.integers(0, 30, size=c)
            kind = trial % 4
            if kind == 0:
                comp = np.zeros(c, dtype=int)
            elif kind == 1:
                comp = rng.choice(rng.integers(0, 50, size=3), size=c)
            else:
                comp = rng.integers(0, 10 ** int(rng.integers(1, 5)), size=c)
            a = [alpha + scale * int(n) for n in obs]
            nstar = [scale * int(n) for n in comp]
            b = sum(a)
            policy = trial % 5
            if policy == 0:
                phi = ([1] * c, c)
            elif policy == 1:
                phi = _normalized_int_row(rng.dirichlet(np.ones(c)))
            else:
                phi = (a, b)
            ref_nums, ref_den = collapse_by_product(a, nstar, b, *phi)
            expected = [Fraction(n, ref_den) for n in ref_nums]
            # one row alone, and the same row twice as a two-row table
            for rows in (1, 2):
                nums, den = _collapse(*(
                    np.array([v if isinstance(v, list) else [v]] * rows, dtype=object)
                    for v in (a, nstar, b, *phi)
                ))
                for row_nums, (row_den,) in zip(nums.tolist(), den.tolist()):
                    assert [Fraction(n, row_den) for n in row_nums] == expected
                    assert sum(row_nums) == row_den

    def test_complete_data_equals_posterior_mean_exactly(self):
        db = make_dataset((2,), [[0], [0], [0], [1]])
        _, table, prior = family(db, 0, ())
        p_hat = bc_estimate([table], prior).p_hat
        assert p_hat[0].tolist() == [(1 + 3) / (2 + 4), (1 + 1) / (2 + 4)]

    def test_totally_missing_column_keeps_prior_mean(self):
        for card in (2, 3):
            db = make_dataset((card,), [[MISSING]] * 7)
            _, table, prior = family(db, 0, ())
            p_hat = bc_estimate([table], prior).p_hat
            assert p_hat[0].tolist() == [1.0 / card] * card

    def test_worked_example_mixes_to_half(self, worked_db):
        _, table, prior = family(worked_db, 2, (0, 1))
        p_hat = bc_estimate([table], prior).p_hat
        assert p_hat[0, 0] == 0.5  # 0.5 * 1/4 + 0.5 * 3/4
        assert p_hat[1].tolist() == [float(Fraction(11, 30)), float(Fraction(19, 30))]
        assert p_hat[2].tolist() == [float(Fraction(13, 24)), float(Fraction(11, 24))]
        assert p_hat[3].tolist() == [0.625, 0.375]

    def test_any_phi_stays_in_bounds_and_sums_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            db = random_complete(rng, max_vars=3, max_cases=10)
            if db.codes.size == 0:
                continue
            db = punch_holes(rng, db, int(rng.integers(1, db.codes.size + 1)))
            ctx, table, prior = random_family(rng, db)
            for _ in range(25):
                raw = rng.dirichlet(np.ones(ctx.child_cardinality),
                                    size=ctx.n_configs)
                b = bc_estimate([table], prior, CompletionDistribution(raw))
                assert np.abs(b.p_hat.sum(axis=1) - 1.0).max() <= 1e-12
                assert (b.p_hat >= b.p_min).all()
                assert (b.p_hat <= b.p_max).all()

    def test_child_only_missingness_pools_completions(self):
        """With equal completion counts across states the collapse equals
        the single-denominator pooled form."""
        rng = np.random.default_rng(11)
        for _ in range(25):
            db = random_complete(rng, max_vars=3, max_cases=12)
            if db.n_cases == 0:
                continue
            child = int(rng.integers(db.n_variables))
            codes = db.codes.copy()
            holes = rng.random(db.n_cases) < 0.4
            codes[holes, child] = MISSING
            db = make_dataset(
                tuple(v.cardinality for v in db.variables), codes
            )
            ctx, table, prior = family(
                db, child, tuple(i for i in range(db.n_variables) if i != child)
            )
            phi = phi_rows(table, prior, "mar")
            p_hat = bc_estimate([table], prior).p_hat
            for j, (obs, comp) in enumerate(
                zip(table.obs_matrix().tolist(), table.comp_matrix().tolist())
            ):
                assert len(set(comp)) == 1
                n_star = comp[0]
                pooled = [
                    (1 + o + p * n_star) / (ctx.child_cardinality + sum(obs) + n_star)
                    for o, p in zip(obs, phi[j])
                ]
                assert p_hat[j].tolist() == [float(v) for v in pooled]


class TestPrecision:
    def test_complete_parents_exact(self):
        rng = np.random.default_rng(12)
        db = random_complete(rng, max_vars=3, max_cases=25)
        ctx, table, prior = random_family(rng, db)
        alpha_hat = bc_estimate([table], prior).alpha_hat
        expected = ctx.child_cardinality + table.parent_obs_vector()
        np.testing.assert_array_equal(alpha_hat, expected.astype(float))

    def test_fully_missing_parents_share_by_prior(self):
        # binary child, two binary parents (4 configurations), 8 cases with
        # both parent entries missing: each configuration gets 8/4 cases.
        rows = [[k % 2, MISSING, MISSING] for k in range(8)]
        db = make_dataset((2, 2, 2), rows)
        _, table, prior = family(db, 0, (1, 2))
        alpha_hat = bc_estimate([table], prior).alpha_hat
        np.testing.assert_array_equal(alpha_hat, np.full(4, 4.0))

    def test_parent_completions_follow_the_beta_posterior(self):
        # binary child, binary parent seen 3 times as state 1 and once as
        # state 2, missing twice: equal completion counts pool, so the
        # configuration estimate is the Dirichlet(beta) posterior mean and
        # alpha_hat_j = 2 alpha + n_j + 2 (beta + n_j) / (2 beta + 4).
        rows = [[0, 0], [1, 0], [0, 0], [1, 1], [0, MISSING], [1, MISSING]]
        db = make_dataset((2, 2), rows)
        _, table, _ = family(db, 0, (1,))
        for alpha, beta in PRIORS:
            a, b = Fraction(alpha), Fraction(beta)
            expected = [float(2 * a + n + 2 * (b + n) / (2 * b + 4)) for n in (3, 1)]
            est = bc_estimate([table], PriorSpec(alpha, beta))
            assert est.alpha_hat.tolist() == expected

    def test_worked_example_total(self, worked_db):
        _, table, prior = family(worked_db, 2, (0, 1))
        alpha_hat = bc_estimate([table], prior).alpha_hat
        expected = [
            float(Fraction(199, 70)),
            float(Fraction(159, 35)),
            float(Fraction(199, 70)),
            float(Fraction(97, 35)),
        ]
        assert alpha_hat.tolist() == expected
        assert alpha_hat.sum() == 13.0

    def test_total_precision_is_conserved(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            db = random_complete(rng, max_vars=4, max_cases=20)
            if db.codes.size == 0:
                continue
            db = punch_holes(rng, db, int(rng.integers(0, db.codes.size + 1)))
            ctx, table, _ = random_family(rng, db)
            for alpha, beta in PRIORS:
                alpha_hat = bc_estimate([table], PriorSpec(alpha, beta)).alpha_hat
                row_prior = ctx.child_cardinality * alpha
                assert alpha_hat.sum() == pytest.approx(
                    ctx.n_configs * row_prior + db.n_cases, rel=1e-12, abs=1e-9
                )
                assert (alpha_hat >= row_prior - 1e-12).all()

    def test_empty_parent_set_absorbs_all_cases(self):
        db = make_dataset((2, 2), [[0, MISSING], [MISSING, 0], [1, 1]])
        _, table, prior = family(db, 0, ())
        assert bc_estimate([table], prior).alpha_hat.tolist() == [2.0 + 3.0]


class TestBcEstimate:
    def test_invariants_on_random_data(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            db = random_complete(rng, max_vars=4, max_cases=15)
            if db.codes.size == 0:
                continue
            db = punch_holes(rng, db, int(rng.integers(0, db.codes.size + 1)))
            ctx, table, _ = random_family(rng, db)
            for alpha, beta in PRIORS:
                est = bc_estimate([table], PriorSpec(alpha, beta))
                assert np.abs(est.p_hat.sum(axis=1) - 1.0).max() <= 1e-12
                assert (est.p_min <= est.p_hat).all()
                assert (est.p_hat <= est.p_max).all()
                np.testing.assert_allclose(
                    est.dirichlet.sum(axis=1), est.alpha_hat, rtol=1e-12
                )

    def test_complete_data_dirichlet_is_posterior_counts(self):
        rng = np.random.default_rng(15)
        db = random_complete(rng, max_vars=3, max_cases=30)
        ctx, table, _ = random_family(rng, db)
        for alpha, beta in PRIORS:
            est = bc_estimate([table], PriorSpec(alpha, beta))
            np.testing.assert_array_equal(est.dirichlet, alpha + table.obs_matrix())

    def test_doubled_cases_under_doubled_prior_give_the_same_estimate(self):
        """Every grid quantity is homogeneous in (prior, counts): each case
        twice under (2 alpha, 2 beta) puts the same rows on another grid, so
        p_hat, p_min and p_max are equal and alpha_hat exactly doubles."""
        rng = np.random.default_rng(17)
        for _ in range(20):
            db = random_complete(rng, max_vars=4, max_cases=15)
            if db.codes.size == 0:
                continue
            db = punch_holes(rng, db, int(rng.integers(0, db.codes.size + 1)))
            ctx, table, _ = random_family(rng, db)
            doubled = make_dataset(db.cardinalities, np.vstack([db.codes, db.codes]))
            doubled_table = tally(doubled, ctx)
            for alpha, beta in PRIORS:
                for phi in ("mar", "uniform"):
                    est = bc_estimate([table], PriorSpec(alpha, beta), phi)
                    twice = bc_estimate(
                        [doubled_table], PriorSpec(2 * alpha, 2 * beta), phi
                    )
                    for field in ("p_hat", "p_min", "p_max"):
                        np.testing.assert_array_equal(
                            getattr(twice, field), getattr(est, field)
                        )
                    np.testing.assert_array_equal(twice.alpha_hat, 2 * est.alpha_hat)

    def test_every_field_matches_the_exact_reference(self):
        """Each cell of every field is its exact rational rounded once, on
        seeded random families and on q = 1, fully observed, totally
        missing child and parent-missing families."""
        rng = np.random.default_rng(18)
        fixed = [
            (make_dataset((3,), [[0], [2], [MISSING], [2]]), 0, ()),
            (make_dataset((3, 2), [[0, 1], [2, 0], [1, 1], [2, 1]]), 0, (1,)),
            (make_dataset((2, 3), [[MISSING, k % 3] for k in range(7)]), 0, (1,)),
            (make_dataset((2, 3, 2), [[0, MISSING, 1], [1, 2, MISSING],
                                      [1, MISSING, MISSING], [0, 1, 0]]), 0, (1, 2)),
        ]
        families = [family(db, child, parents)[:2] for db, child, parents in fixed]
        families.append(family(five_case_db(), 2, (0, 1))[:2])
        while len(families) < 30:
            db = random_complete(rng, max_vars=4, max_card=4, max_cases=25)
            if db.codes.size == 0:
                continue
            db = punch_holes(rng, db, int(rng.integers(0, db.codes.size + 1)))
            families.append(random_family(rng, db)[:2])
        for ctx, table in families:
            for alpha, beta in PRIORS:
                prior = PriorSpec(alpha, beta)
                for phi in ("mar", "uniform", non_dyadic_phi(rng, ctx)):
                    est = bc_estimate([table], prior, phi)
                    reference = reference_estimate(table, prior, phi)
                    for name, expected in reference.items():
                        np.testing.assert_array_equal(getattr(est, name), expected)

    def test_interval_width_never_shrinks_as_entries_vanish(self):
        rng = np.random.default_rng(16)
        for _ in range(8):
            db = random_complete(rng, max_vars=3, max_card=3, max_cases=10)
            if db.codes.size == 0 or db.n_cases == 0:
                continue
            child = int(rng.integers(db.n_variables))
            parents = tuple(i for i in range(db.n_variables) if i != child)
            order = rng.permutation(db.codes.size)
            previous_width = None
            for n_holes in range(db.codes.size + 1):
                codes = db.codes.copy()
                codes.reshape(-1)[order[:n_holes]] = MISSING
                step = make_dataset(
                    tuple(v.cardinality for v in db.variables), codes
                )
                ctx, table, prior = family(step, child, parents)
                b = bc_estimate([table], prior)
                width = b.p_max - b.p_min
                if n_holes == 0:
                    assert np.abs(width).max() == 0.0
                if previous_width is not None:
                    # 1e-15 slack: endpoints are rounded to float separately
                    assert (width >= previous_width - 1e-15).all()
                previous_width = width

    def test_rejects_nonpositive_priors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(EstimateError, match="alpha"):
                PriorSpec(bad, 1.0)
            with pytest.raises(EstimateError, match="beta"):
                PriorSpec(1.0, bad)


def count_rows(tables, distinct):
    """The stack's rows, or its distinct count rows within each family."""
    if not distinct:
        return sum(table.context.n_configs for table in tables)
    return sum(len(np.unique(np.column_stack([
        table.obs_matrix(), table.comp_matrix(),
        table.parent_obs_vector(), table.parent_comp_vector(),
    ]), axis=0)) for table in tables)


class TestPaths:
    """``bc_estimate`` estimates each distinct count row once when the table
    has at least as many configurations as cases.  The exact path collapses
    on Python ints; the certified path collapses in int64 when
    ``_fits_int64`` bounds every value below 2**53, and in double-double
    otherwise.  Each of the six paths gives every field's exact rational
    rounded once."""

    FIELDS = ("p_hat", "p_min", "p_max", "alpha_hat", "dirichlet")

    @staticmethod
    def spy(monkeypatch):
        """Record (arithmetic, rows) of each collapse of the rows estimated:
        "int64" or "object" for the integer collapse, "double-double" for
        the certified one."""
        calls = []
        real, certified = estimate._collapse, estimate._certified_collapse

        def collapse(a, *args):
            calls.append((str(a.dtype), len(a)))
            return real(a, *args)

        def certified_collapse(alpha, phi, obs, comp):
            calls.append(("double-double", len(obs)))
            return certified(alpha, phi, obs, comp)

        monkeypatch.setattr(estimate, "_collapse", collapse)
        monkeypatch.setattr(estimate, "_certified_collapse", certified_collapse)
        return calls

    @staticmethod
    def force(monkeypatch, grouped, certified=False):
        """Every stack on the exact path, or every one the prior and phi
        allow on the certified path; grouping rows or not."""
        monkeypatch.setattr(estimate, "CERTIFIED_MIN_CELLS", 0 if certified else math.inf)
        monkeypatch.setattr(estimate, "_groups", lambda sizes, cases: grouped)

    def families(self):
        rng = np.random.default_rng(41)
        fixed = [
            # q = 1, and n = 0 with q = 1 and q = 9
            (make_dataset((3,), [[0], [2], [MISSING], [2]]), 0, ()),
            (make_dataset((3, 3, 3), np.zeros((0, 3), dtype=int)), 0, ()),
            (make_dataset((3, 3, 3), np.zeros((0, 3), dtype=int)), 0, (1, 2)),
        ]
        families = [family(db, child, parents)[:2] for db, child, parents in fixed]
        # q >= n: 243 or 64 configurations, 10-60 cases, most rows empty
        for cards, n in (((3,) * 6, 40), ((2,) * 7, 10), ((3,) * 6, 60)):
            codes = np.column_stack([rng.integers(0, card, size=n) for card in cards])
            db = make_dataset(cards, codes)
            db = punch_holes(rng, db, int(rng.integers(1, db.codes.size // 3)))
            families.append(family(db, 0, tuple(range(1, len(cards))))[:2])
        return rng, families

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("certified", [False, True])
    def test_every_path_matches_the_exact_reference(self, monkeypatch, grouped, certified):
        """``bc_estimate`` of each family alone, then of the families of one
        child cardinality as one stack, whose rows are each family's in
        turn."""
        rng, families = self.families()
        calls = self.spy(monkeypatch)
        self.force(monkeypatch, grouped, certified)
        by_states = {}
        for ctx, table in families:
            by_states.setdefault(ctx.child_cardinality, []).append((ctx, table))
        for stack in [[f] for f in families] + list(by_states.values()):
            tables = [table for _, table in stack]
            stops = np.cumsum([ctx.n_configs for ctx, _ in stack]).tolist()
            slices = [slice(lo, hi) for lo, hi in zip([0, *stops], stops)]
            for alpha, beta in PRIORS:
                prior = PriorSpec(alpha, beta)
                user_phi = [non_dyadic_phi(rng, ctx).phi for ctx, _ in stack]
                for phi in ("mar", "uniform",
                            CompletionDistribution(np.concatenate(user_phi))):
                    user = isinstance(phi, CompletionDistribution)
                    calls.clear()
                    est = bc_estimate(tables, prior, phi)
                    for f, (table, rows) in enumerate(zip(tables, slices)):
                        policy = CompletionDistribution(user_phi[f]) if user else phi
                        reference = reference_estimate(table, prior, policy)
                        for name in self.FIELDS:
                            np.testing.assert_array_equal(
                                getattr(est, name)[rows], reference[name]
                            )
                    collapse, rows = calls[0]
                    if certified and not user:
                        # alpha 0.1 sits on a 2**55 grid
                        assert collapse == ("double-double" if alpha == 0.1 else "int64")
                    else:
                        assert collapse == "object"
                    # grouped, no row is shared between two families
                    assert rows == count_rows(tables, grouped and not user)

    def test_rule_groups_only_more_configurations_than_cases(self):
        for cards, n, expected in (((3,) * 6, 243, True), ((3,) * 6, 244, False),
                                   ((3,), 0, False), ((3, 3), 0, True)):
            db = make_dataset(cards, np.zeros((n, len(cards)), dtype=int))
            _, table, _ = family(db, 0, tuple(range(1, len(cards))))
            assert estimate._groups([table.context.n_configs], table.n_total) is expected

    def test_a_user_phi_is_never_grouped(self, monkeypatch):
        rng, families = self.families()
        calls = self.spy(monkeypatch)
        ctx, table = families[-1]
        assert estimate._groups([ctx.n_configs], table.n_total)
        bc_estimate([table], PriorSpec(), non_dyadic_phi(rng, ctx))
        assert calls[0] == ("object", ctx.n_configs)

    def test_rows_whose_key_passes_2_to_the_62_are_not_grouped(self):
        column = np.array([3, 0, 3])
        index, inverse, counts = estimate._distinct_rows(column, 2 * column)
        assert (index.tolist(), inverse.tolist(), counts.tolist()) == ([1, 0], [1, 0, 1], [1, 2])
        wide = np.array([2**31 - 1, 0])
        assert estimate._distinct_rows(wide, wide) is not None  # exactly 2**62
        assert estimate._distinct_rows(wide, wide + 1) is None

    @pytest.mark.parametrize("c", [2, 3])
    def test_int64_up_to_the_bound_and_object_past_it(self, monkeypatch, c):
        """On the certified path, a table whose denominators reach the
        largest D with c * D**(c+1) < 2**53 collapses in int64; one at D + 1
        in double-double, as every table too wide for int64 does.  Both give
        the exact reference."""
        edge = round((2**53 / c) ** (1 / (c + 1)))
        while c * edge ** (c + 1) >= 2**53:
            edge -= 1
        while c * (edge + 1) ** (c + 1) < 2**53:
            edge += 1
        # integer alpha w and s - 1 observed cases in configuration 1 plus one
        # child-missing case in configuration 2: every denominator b + nstar_l
        # is at most c * w + s, reached in configuration 1
        w = (edge - 3) // c
        TestCertified.everywhere(monkeypatch)
        calls = self.spy(monkeypatch)
        for bound, expected in ((edge, "int64"), (edge + 1, "double-double")):
            s = bound - c * w
            rows = [[k % c, 0] for k in range(s - 1)] + [[MISSING, 1]]
            _, table, _ = family(make_dataset((c, 2), rows), 0, (1,))
            prior = PriorSpec(float(w), 1.0)
            for phi in ("mar", "uniform"):
                calls.clear()
                est = bc_estimate([table], prior, phi)
                assert calls[0][0] == expected
                reference = reference_estimate(table, prior, phi)
                for name in self.FIELDS:
                    np.testing.assert_array_equal(getattr(est, name), reference[name])

    def test_a_fine_grid_without_counts_stays_on_object(self, monkeypatch):
        """No cases, alpha = 2**-1074 on the exact path and 2**-200, the
        smallest it certifies, on the certified path: every denominator is
        3 * 1, but the grid's scale 2**1074 or 2**200 does not fit int64, so
        the collapse runs on Python ints and in double-double."""
        calls = self.spy(monkeypatch)
        db = make_dataset((3, 3), np.zeros((0, 2), dtype=int))
        _, table, _ = family(db, 0, (1,))
        est = bc_estimate([table], PriorSpec(5e-324, 1.0))
        assert calls == [("object", 1)]  # grouped: the three rows are equal
        np.testing.assert_array_equal(est.p_hat, np.full((3, 3), 1 / 3))
        TestCertified.everywhere(monkeypatch)
        calls.clear()
        prior = PriorSpec(2.0**-200, 1.0)
        est = bc_estimate([table], prior)
        assert calls[0] == ("double-double", 1)
        np.testing.assert_array_equal(est.p_hat, np.full((3, 3), 1 / 3))
        for name in self.FIELDS:
            np.testing.assert_array_equal(
                getattr(est, name), reference_estimate(table, prior, "mar")[name])

    def test_below_the_floor_a_stack_that_fits_int64_collapses_on_python_ints(
            self, monkeypatch):
        """A q = 27 family of 81 cells, below ``CERTIFIED_MIN_CELLS``, whose
        collapse fits int64, as its certified collapse shows: on the exact
        path no int64 array reaches the collapse."""
        rng = np.random.default_rng(37)
        db = make_dataset((3,) * 4, rng.integers(0, 3, size=(200, 4)))
        db = punch_holes(rng, db, db.codes.size // 5)
        _, table, prior = family(db, 0, (1, 2, 3))
        calls = self.spy(monkeypatch)
        assert 3 * table.context.n_configs < estimate.CERTIFIED_MIN_CELLS
        for phi in ("mar", "uniform"):
            calls.clear()
            with monkeypatch.context() as patch:
                TestCertified.everywhere(patch)
                bc_estimate([table], prior, phi)
            assert calls == [("int64", 27)]
            calls.clear()
            est = bc_estimate([table], prior, phi)
            assert calls == [("object", 27)]
            reference = reference_estimate(table, prior, phi)
            for name in self.FIELDS:
                np.testing.assert_array_equal(getattr(est, name), reference[name])

    def test_ten_ternary_parents_grouped_int64_equals_per_row_object(self, monkeypatch):
        """The q = 59049 family at n = 1000: the grouped estimate on the
        certified path, with the int64 collapse, has the bits of the per-row
        estimate on the exact path, on Python ints."""
        rng = np.random.default_rng(29)
        db = make_dataset((3,) * 11, rng.integers(0, 3, size=(1000, 11)))
        db = punch_holes(rng, db, db.codes.size // 5)
        _, table, prior = family(db, 0, tuple(range(1, 11)))
        calls = self.spy(monkeypatch)
        TestCertified.everywhere(monkeypatch)
        fast = bc_estimate([table], prior)
        assert calls[0][0] == "int64" and calls[0][1] < table.context.n_configs // 10
        self.force(monkeypatch, grouped=False)
        slow = bc_estimate([table], prior)
        assert calls[1] == ("object", table.context.n_configs)
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name))

    @pytest.mark.parametrize("workload", ["learn_wide", "score_dense"])
    def test_benchmark_shapes_take_one_path_each(self, monkeypatch, workload):
        """The benchmark shapes, on a noisy chain of ternary variables.  A
        search over 16 of them with up to 3 parents at n = 100000 with 30 %
        deleted (learn_wide) estimates every stack on the certified path,
        collapses every one in double-double and groups no row.  The dense
        model over 9 of them at n = 2000 with 20 % deleted (score_dense)
        estimates its q = 1, 9 and 81 families on the exact path, on Python
        ints, and its q = 729 and 6561 families on the certified path with
        the int64 collapse; it groups only its q = 6561 family's rows, and no
        row falls back."""
        n_variables, n, deleted = {
            "learn_wide": (16, 100_000, 0.3), "score_dense": (9, 2_000, 0.2)
        }[workload]
        rng = np.random.default_rng(53)
        codes = rng.integers(0, 3, size=(n, n_variables))
        for i in range(1, n_variables):
            keep = rng.random(n) < 0.6
            codes[keep, i] = codes[keep, i - 1]
        codes[rng.random(codes.shape) < deleted] = MISSING
        db = make_dataset((3,) * n_variables, codes)
        calls = self.spy(monkeypatch)
        paths = TestCertified.paths(monkeypatch)
        stacks = []  # each bc_estimate call's configurations
        real = score.bc_estimate

        def counted(tables, *args):
            stacks.append([table.context.n_configs for table in tables])
            return real(tables, *args)

        monkeypatch.setattr(score, "bc_estimate", counted)
        if workload == "learn_wide":
            k2_bc(db, OrderConstraint(tuple(range(n_variables)), max_parents=3))
            assert len(stacks) > 1
            assert calls == [("double-double", sum(q)) for q in stacks]
            assert paths == [("certified", sum(q)) for q in stacks]
            return
        dense = {8: range(8), 7: range(1, 7), 6: range(2, 6), 5: range(3, 5)}
        score.FamilyScorer(db).model_score(
            [tuple(dense.get(v, ())) for v in range(n_variables)]
        )
        assert stacks == [[1]] * 5 + [[9], [81], [729], [6561]]
        assert [collapse for collapse, _ in calls] == ["object"] * 7 + ["int64"] * 2
        assert [rows for _, rows in calls[:-1]] == [1] * 5 + [9, 81, 729]
        assert calls[-1][1] < 6561
        assert [name for name, _ in paths] == ["exact"] * 7 + ["certified"] * 2
        assert paths[-1][1] == calls[-1][1]


class TestCertified:
    """Stacks of at least ``CERTIFIED_MIN_CELLS`` cells are estimated in
    double-double arithmetic with an error bound per value; a value the
    rounding test settles is emitted, and the rows it leaves unsettled take
    the exact path.  Every field must equal the Fraction reference's."""

    FIELDS = TestPaths.FIELDS

    @staticmethod
    def everywhere(monkeypatch):
        """Send every stack whose prior allows it down the certified path."""
        monkeypatch.setattr(estimate, "CERTIFIED_MIN_CELLS", 0)

    @staticmethod
    def paths(monkeypatch):
        """Record ("certified" or "exact", rows) of each estimate's path; a
        certified estimate's fallback rows go to ``_exact`` within it."""
        calls = []
        for name in ("_certified", "_exact"):
            real = getattr(estimate, name)

            def path(tables, prior, phi, columns, *args, real=real, name=name):
                calls.append((name[1:], len(columns[0])))
                return real(tables, prior, phi, columns, *args)

            monkeypatch.setattr(estimate, name, path)
        return calls

    def assert_reference(self, tables, prior, phi, est):
        stops = np.cumsum([table.context.n_configs for table in tables]).tolist()
        for table, lo, hi in zip(tables, [0, *stops], stops):
            reference = reference_estimate(table, prior, phi)
            for name in self.FIELDS:
                np.testing.assert_array_equal(getattr(est, name)[lo:hi], reference[name])

    @staticmethod
    def stacks(families):
        """Each family alone, then the families of one child cardinality as
        one stack."""
        by_states = {}
        for ctx, table in families:
            by_states.setdefault(ctx.child_cardinality, []).append(table)
        return [[table] for _, table in families] + list(by_states.values())

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("alpha, beta", PRIORS + ((1e3, 1.0), (1.0, 1e3)))
    def test_seeded_stacks_match_the_reference(self, monkeypatch, grouped, alpha, beta):
        self.everywhere(monkeypatch)
        calls = self.paths(monkeypatch)
        monkeypatch.setattr(estimate, "_groups", lambda sizes, cases: grouped)
        _, families = TestPaths().families()
        prior = PriorSpec(alpha, beta)
        for tables in self.stacks(families):
            for phi in ("mar", "uniform"):
                calls.clear()
                self.assert_reference(tables, prior, phi, bc_estimate(tables, prior, phi))
                assert calls[0] == ("certified", count_rows(tables, grouped))

    @pytest.mark.parametrize("alpha", [1.0, 0.1, 1e3])
    def test_complete_data_matches_the_reference(self, monkeypatch, alpha):
        """Complete data, where the collapse reduces to the posterior mean
        (a_k + 0) / b and alpha_hat to c * alpha + n_obs."""
        self.everywhere(monkeypatch)
        rng = np.random.default_rng(67)
        cards = (3, 2, 3, 4)
        db = make_dataset(cards, np.column_stack(
            [rng.integers(0, card, size=500) for card in cards]))
        families = [family(db, child, parents)[:2] for child, parents in
                    ((0, ()), (0, (1,)), (0, (1, 2)), (0, (1, 2, 3)), (2, (0, 3)))]
        prior = PriorSpec(alpha, 1.0)
        for tables in self.stacks(families):
            for phi in ("mar", "uniform"):
                self.assert_reference(tables, prior, phi, bc_estimate(tables, prior, phi))

    def test_a_half_row_is_exactly_one_half(self, monkeypatch):
        """A binary child with the same observed and completion counts in
        both states: p_hat, p_min and p_max are symmetric, p_hat is 1/2."""
        self.everywhere(monkeypatch)
        rows = [[0, 0]] * 3 + [[1, 0]] * 3 + [[0, MISSING], [1, MISSING]] * 2 + [[0, 1]]
        _, table, prior = family(make_dataset((2, 2), rows), 0, (1,))
        est = bc_estimate([table], prior)
        assert est.p_hat[0].tolist() == [0.5, 0.5]
        self.assert_reference([table], prior, "mar", est)

    def test_a_wide_family_at_60_percent_deleted(self, monkeypatch):
        """A q = 6561 family whose precision row spans many distinct
        parent-completion counts: its least common multiple is large."""
        calls = self.paths(monkeypatch)
        rng = np.random.default_rng(61)
        codes = rng.integers(0, 3, size=(2000, 9))
        codes[rng.random(codes.shape) < 0.6] = MISSING
        db = make_dataset((3,) * 9, codes)
        _, table, prior = family(db, 0, tuple(range(1, 9)))
        est = bc_estimate([table], prior)
        assert calls[0][0] == "certified" and len(calls) == 1
        self.assert_reference([table], prior, "mar", est)

    def test_a_learn_wide_shaped_search(self, monkeypatch):
        """k2_bc over 10 ternary variables of a noisy chain with up to 3
        parents, 30 % deleted: three levels, each one certified stack whose
        families all match the reference."""
        rng = np.random.default_rng(71)
        n, m = 20_000, 10
        codes = rng.integers(0, 3, size=(n, m))
        for i in range(1, m):
            keep = rng.random(n) < 0.6
            codes[keep, i] = codes[keep, i - 1]
        codes[rng.random(codes.shape) < 0.3] = MISSING
        db = make_dataset((3,) * m, codes)
        self.everywhere(monkeypatch)
        calls = self.paths(monkeypatch)
        stacks = []
        real = score.bc_estimate

        def recorded(tables, prior, phi):
            est = real(tables, prior, phi)
            stacks.append((tables, prior, phi, est))
            return est

        monkeypatch.setattr(score, "bc_estimate", recorded)
        k2_bc(db, OrderConstraint(tuple(range(m)), max_parents=3))
        assert len(stacks) == 3
        assert calls == [("certified", sum(t.context.n_configs for t in tables))
                         for tables, *_ in stacks]
        for tables, prior, phi, est in stacks:
            self.assert_reference(tables, prior, phi, est)

    def test_only_the_ties_family_takes_the_exact_path(self, monkeypatch):
        """Complete data at alpha 0.1: an empty configuration's alpha_hat is
        exactly 3 * 0.1, halfway between two floats.  In a stack of the
        tie's family and one with no empty configuration, only the tie's
        family is estimated again on the exact path, whole, and the tie
        rounds to even as the reference does."""
        self.everywhere(monkeypatch)
        collapses = TestPaths.spy(monkeypatch)
        paths = self.paths(monkeypatch)
        rng = np.random.default_rng(73)
        rows = rng.integers(0, 3, size=(60, 3))
        rows = rows[(rows[:, 1] != 2) | (rows[:, 2] != 2)]  # configuration 8 is empty
        db = make_dataset((3, 3, 3), rows)
        tables = [family(db, 0, (1, 2))[1], family(db, 0, (1,))[1]]
        prior = PriorSpec(0.1, 1.0)
        est = bc_estimate(tables, prior)
        assert Fraction(3) * Fraction(0.1) == (
            Fraction(0.3) + Fraction(math.nextafter(0.3, 1))) / 2
        assert est.alpha_hat[8] == 0.30000000000000004
        assert paths == [("certified", 12), ("exact", 9)]
        assert collapses == [("double-double", 12), ("object", 9)]
        self.assert_reference(tables, prior, "mar", est)

    @staticmethod
    def random_dd(rng, size):
        """Positive double-doubles over 2**-40..2**40, each the exact sum of
        two random floats."""
        hi = np.exp2(rng.uniform(-40, 40, size)) * rng.uniform(1, 2, size)
        return estimate._DD(*estimate._two_sum(hi, hi * rng.uniform(-2**-50, 2**-50, size)))

    @staticmethod
    def exact(x, k):
        return Fraction(float(x.hi[k])) + Fraction(float(x.lo[k]))

    def assert_within(self, result, exact):
        """Each value of ``result`` is within its bound of the exact one."""
        for k, value in enumerate(exact):
            err = result.err[k] if np.ndim(result.err) else result.err
            assert abs(self.exact(result, k) - value) <= Fraction(float(err)) * value

    def test_each_step_stays_within_its_bound(self):
        rng = np.random.default_rng(79)
        x, y = self.random_dd(rng, 2000), self.random_dd(rng, 2000)
        xs = [self.exact(x, k) for k in range(2000)]
        ys = [self.exact(y, k) for k in range(2000)]
        self.assert_within(x + y, [a + b for a, b in zip(xs, ys)])
        self.assert_within(x * y, [a * b for a, b in zip(xs, ys)])
        self.assert_within(x / y, [a / b for a, b in zip(xs, ys)])
        self.assert_within(x + y.hi, [a + Fraction(float(b)) for a, b in zip(xs, y.hi)])

    def test_segment_sums_stay_within_their_bound(self):
        """Segments of 1 to 60 terms, each segment's terms scaled by one
        power of two from 2**-70 to 2**29, so small segments follow large
        ones in the running sum."""
        rng = np.random.default_rng(83)
        rows = rng.integers(1, 61, size=40)
        bounds = np.concatenate(([0], np.cumsum(rows)))
        x = self.random_dd(rng, bounds[-1])
        scale = np.exp2(np.repeat(rng.integers(-70, 30, size=40), rows))
        x = estimate._DD(x.hi * scale, x.lo * scale)
        terms = [self.exact(x, k) for k in range(bounds[-1])]
        total = estimate._sums(x, bounds)
        self.assert_within(total, [sum(terms[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])

    def test_the_rounding_test_leaves_the_boundary_unsettled(self):
        """A value whose error interval reaches half the gap below hi is not
        certain, and one an ulp inside it is; so is an exact tie."""
        one = np.array([1.0])
        half_gap = 2.0**-54  # the float below 1.0 is 1 - 2**-53
        for lo, err, certain in ((0.0, half_gap, False),
                                 (0.0, math.nextafter(half_gap, 0), True),
                                 (-half_gap, 0.0, False), (half_gap, 0.0, False),
                                 (math.nextafter(half_gap, 0), 0.0, True)):
            value, settled = estimate._settled(estimate._DD(one, np.array([lo]), err))
            assert value.tolist() == [1.0] and settled.tolist() == [certain]

    def test_a_user_phi_or_an_extreme_prior_stays_exact(self, monkeypatch):
        self.everywhere(monkeypatch)
        calls = self.paths(monkeypatch)
        rng, families = TestPaths().families()
        ctx, table = families[-1]
        bc_estimate([table], PriorSpec(), non_dyadic_phi(rng, ctx))
        for alpha, beta in ((5e-324, 1.0), (1.0, 2.0**201), (2.0**-200, 2.0**200)):
            bc_estimate([table], PriorSpec(alpha, beta))
        assert [name for name, _ in calls] == ["exact"] * 3 + ["certified"]


class TestGroupedScore:
    """``log_g_bc`` takes ``lgamma`` once per distinct row of a stack that
    ``bc_estimate`` grouped, and keeps every bit of the per-row pass."""

    @staticmethod
    def stacks():
        """Each of ``TestPaths``' grouped families alone, then those of one
        child cardinality as one stack."""
        _, families = TestPaths().families()
        tables = [table for ctx, table in families
                  if estimate._groups([ctx.n_configs], table.n_total)]
        by_states = {}
        for table in tables:
            by_states.setdefault(table.context.child_cardinality, []).append(table)
        several = [stack for stack in by_states.values() if len(stack) > 1]
        assert several
        return [[table] for table in tables] + several

    @staticmethod
    def ungrouped(monkeypatch, tables, prior, phi):
        with monkeypatch.context() as patch:
            patch.setattr(estimate, "_groups", lambda sizes, cases: False)
            return bc_estimate(tables, prior, phi)

    @pytest.mark.parametrize("alpha", [1.0, 0.1])
    @pytest.mark.parametrize("phi", ["mar", "uniform"])
    def test_grouped_scores_equal_per_row_scores(self, monkeypatch, alpha, phi):
        prior = PriorSpec(alpha, 1.0)
        for tables in self.stacks():
            grouped = bc_estimate(tables, prior, phi)
            single = self.ungrouped(monkeypatch, tables, prior, phi)
            assert grouped.inverse is not None and single.inverse is None
            assert ([s.log_g for s in log_g_bc(tables, prior, grouped)]
                    == [s.log_g for s in log_g_bc(tables, prior, single)])

    def test_lgamma_runs_once_per_distinct_row(self, monkeypatch):
        calls = []
        real = score.lgamma

        def lgamma(x):
            calls.append(x)
            return real(x)

        prior = PriorSpec()
        for tables in self.stacks():
            c = tables[0].context.child_cardinality
            for grouped in (True, False):
                est = (bc_estimate(tables, prior) if grouped
                       else self.ungrouped(monkeypatch, tables, prior, "mar"))
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(score, "lgamma", lgamma)
                    log_g_bc(tables, prior, est)
                # lgamma(alpha) and lgamma(c * alpha), then one per value
                assert len(calls) == 2 + (c + 1) * count_rows(tables, grouped)

    def test_inverse_names_rows_with_equal_fields(self):
        rng, families = TestPaths().families()
        for ctx, table in families:
            for phi in ("mar", non_dyadic_phi(rng, ctx)):
                est = bc_estimate([table], PriorSpec(), phi)
                if (isinstance(phi, CompletionDistribution)
                        or not estimate._groups([ctx.n_configs], table.n_total)):
                    assert est.inverse is None
                    continue
                assert est.inverse.shape == (ctx.n_configs,)
                assert est.inverse.max() + 1 == count_rows([table], True)
                _, first = np.unique(est.inverse, return_index=True)
                for name in TestPaths.FIELDS:
                    value = getattr(est, name)
                    np.testing.assert_array_equal(value, value[first][est.inverse])
