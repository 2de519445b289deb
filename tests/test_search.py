import json
import math
import time

import numpy as np
import pytest

import bclearn.counts
import bclearn.score
from bclearn import (
    MISSING,
    Dataset,
    DeletionPlan,
    FamilyScorer,
    GenerativeSpec,
    Model,
    OrderConstraint,
    ParentContext,
    PriorSpec,
    ScoreError,
    SearchError,
    Variable,
    bc_estimate,
    builtin_spec,
    delete_entries,
    k2_bc,
    log_marginal,
    marginals,
    model_from_arcs,
    model_from_json,
    model_to_dot,
    model_to_json,
    sample,
    tally,
)
from bclearn.counts import GROUP_PATTERNS
from bclearn.oracle import OracleError
from helpers import (
    make_dataset,
    punch_holes,
    random_complete,
    random_network,
    sequential_k2,
)
from oracle_refs import enumerate_models, joint_distribution


def spy_counting(monkeypatch):
    """Count the scorer's ``tally`` calls and record the (child, parents) of
    every family handed to ``bc_estimate`` and to ``log_g_bc``, the names a
    tracer wraps, in call order."""
    seen = {"tally": 0, "estimated": [], "scored": []}
    real = {name: getattr(bclearn.score, name)
            for name in ("tally", "bc_estimate", "log_g_bc")}

    def families(tables):
        return [(table.context.child, table.context.parents) for table in tables]

    def tally(*args, **kwargs):
        seen["tally"] += 1
        return real["tally"](*args, **kwargs)

    def bc_estimate(tables, *args, **kwargs):
        seen["estimated"].extend(families(tables))
        return real["bc_estimate"](tables, *args, **kwargs)

    def log_g_bc(tables, *args, **kwargs):
        seen["scored"].extend(families(tables))
        return real["log_g_bc"](tables, *args, **kwargs)

    for name, wrapper in (("tally", tally), ("bc_estimate", bc_estimate),
                          ("log_g_bc", log_g_bc)):
        monkeypatch.setattr(bclearn.score, name, wrapper)
    return seen


def assert_rescored_once(seen, model, db):
    """Every family estimated so far was scored once, in the same order;
    then ``log_marginal`` on ``model``, whose fresh scorer misses each of
    the model's families, tallies, estimates and scores each once more."""
    assert seen["scored"] == seen["estimated"]
    start, tallies = len(seen["estimated"]), seen["tally"]
    log_marginal(model, db)
    expected = list(enumerate(model.parent_sets))
    assert seen["estimated"][start:] == seen["scored"][start:] == expected
    assert seen["tally"] - tallies == len(expected)


def order_for(db, max_parents=None):
    return OrderConstraint.from_names(
        db, [v.name for v in db.variables], max_parents=max_parents
    )


class TestK2:
    def test_single_variable_gives_empty_graph(self):
        db = make_dataset((2,), [[0], [1], [0]])
        model = k2_bc(db, order_for(db))
        assert model.arcs == ()

    def test_deterministic_copy_learns_the_arc(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, size=20)
        db = make_dataset((2, 2), np.column_stack([x, x]))
        model = k2_bc(db, order_for(db))
        assert model.named_arcs() == [("X1", "X2")]

    def test_independent_uniform_pair_stays_unlinked(self):
        rng = np.random.default_rng(777)
        db = make_dataset((2, 2), rng.integers(0, 2, size=(200, 2)))
        model = k2_bc(db, order_for(db))
        assert model.arcs == ()

    def test_no_variables_give_the_empty_model(self):
        db = Dataset((), np.zeros((3, 0)))
        model = k2_bc(db, OrderConstraint(()))
        assert model.parent_sets == () and model.score.total == 0
        assert log_marginal(model, db).total == 0

    def test_empty_database_gives_empty_graph_with_zero_score(self):
        db = make_dataset((2, 2, 2), np.zeros((0, 3), dtype=np.int16))
        model = k2_bc(db, order_for(db))
        assert model.arcs == ()
        assert model.score.total == 0.0

    def test_fully_deleted_database_gives_empty_graph(self):
        db = make_dataset((2, 2), np.full((6, 2), MISSING))
        model = k2_bc(db, order_for(db))
        assert model.arcs == ()

    def test_returns_cpts_and_score(self, worked_db):
        model = k2_bc(worked_db, order_for(worked_db))
        assert model.score is not None
        assert model.cpts is not None
        for child, cpt in enumerate(model.cpts):
            assert cpt.shape[1] == worked_db.variables[child].cardinality
            assert np.abs(cpt.sum(axis=1) - 1.0).max() <= 1e-12

    def test_deterministic_across_runs(self, worked_db):
        a = k2_bc(worked_db, order_for(worked_db))
        b = k2_bc(worked_db, order_for(worked_db))
        assert a.parent_sets == b.parent_sets
        assert a.score.total == b.score.total
        for x, y in zip(a.cpts, b.cpts):
            np.testing.assert_array_equal(x, y)

    def test_max_parents_cap(self):
        rng = np.random.default_rng(6)
        # majority of three parents: every parent is singly informative
        parents = rng.integers(0, 2, size=(300, 3))
        child = (parents.sum(axis=1) >= 2).astype(np.int16)
        db = make_dataset((2, 2, 2, 2), np.column_stack([parents, child]))
        unbounded = k2_bc(db, order_for(db))
        assert len(unbounded.parent_sets[3]) == 3
        capped = k2_bc(db, order_for(db, max_parents=1))
        assert all(len(ps) <= 1 for ps in capped.parent_sets)
        assert len(capped.parent_sets[3]) == 1

    def test_order_must_be_permutation(self, worked_db):
        with pytest.raises(SearchError):
            k2_bc(worked_db, OrderConstraint((0, 1), None))
        with pytest.raises(SearchError):
            k2_bc(worked_db, OrderConstraint((0, 1, 1), None))

    def test_removing_one_learned_arc_never_scores_higher(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            db = random_complete(rng, max_vars=4, max_card=3, max_cases=40)
            if db.codes.size == 0:
                continue
            db = punch_holes(rng, db, int(rng.integers(0, db.codes.size // 2 + 1)))
            model = k2_bc(db, order_for(db))
            total = model.score.total
            for parent, child in model.arcs:
                reduced = list(model.parent_sets)
                reduced[child] = tuple(p for p in reduced[child] if p != parent)
                weaker = Model(db.variables, tuple(reduced))
                assert log_marginal(weaker, db).total <= total

    def test_each_distinct_family_is_tallied_and_estimated_once(self, monkeypatch):
        # M4 at n = 10,000 with 40% deleted, seeded as `simulate --seed 0`,
        # counted from one pack; each family is also scored once
        sample_seed, delete_seed = np.random.SeedSequence(0).spawn(2)
        db = delete_entries(
            sample(builtin_spec("M4", seed=sample_seed)),
            DeletionPlan(0.4, seed=delete_seed),
        )
        seen = spy_counting(monkeypatch)
        model = k2_bc(db, order_for(db))
        assert seen["tally"] == 24
        assert len(seen["estimated"]) == len(set(seen["estimated"])) == 24
        assert_rescored_once(seen, model, db)
        monkeypatch.undo()
        for child, parents in enumerate(model.parent_sets):
            ctx = ParentContext.of(db.variables, child, parents)
            fresh = bc_estimate([tally(db, ctx)], PriorSpec())
            assert np.array_equal(model.cpts[child], fresh.p_hat)

    def test_dataset_keeps_no_state(self):
        """M4 at 2000 cases is counted from one pack, which the scorer
        keeps: the dataset ends as it was built."""
        sample_seed, delete_seed = np.random.SeedSequence(0).spawn(2)
        db = delete_entries(
            sample(builtin_spec("M4", n=2000, seed=sample_seed)),
            DeletionPlan(0.4, seed=delete_seed),
        )
        log_marginal(k2_bc(db, order_for(db)), db)
        assert set(vars(db)) == {"variables", "codes"}

    def test_rounds_match_a_greedy_loop_over_single_families(self, monkeypatch):
        """12 ternary variables, 2000 cases, 30 % deleted: 4**12 slots in
        all, so a level's families are counted a pack at a time.  The search
        equals a greedy loop scoring one family at a time, tallies, estimates
        and scores each family once, and makes fewer counting passes than it
        scores families."""
        rng = np.random.default_rng(12)
        variables = [Variable(f"V{i}", ("a", "b", "c")) for i in range(12)]
        network = random_network(rng, variables, max_parents=3)
        db = delete_entries(
            sample(GenerativeSpec(network, 2000, seed=1)), DeletionPlan(0.3, seed=2)
        )
        order = OrderConstraint(tuple(rng.permutation(12).tolist()), max_parents=3)

        scorer = FamilyScorer(db)
        families = set()

        def score(child, parents):
            families.add((child, tuple(sorted(parents))))
            return scorer.score(child, parents).log_g

        parent_sets = [()] * 12
        for position, child in enumerate(order.order):
            parents = []
            current = score(child, parents)
            while len(parents) < order.max_parents:
                candidates = [c for c in order.order[:position] if c not in parents]
                trials = [score(child, parents + [c]) for c in candidates]
                if not trials or not max(trials) > current:
                    break
                current = max(trials)
                parents.append(candidates[trials.index(current)])
            parent_sets[child] = tuple(sorted(parents))
        reference = scorer.model_score(parent_sets)

        seen = spy_counting(monkeypatch)
        bincounts = []
        real_bincount = np.bincount

        def bincount(*args, **kwargs):
            bincounts.append(None)
            return real_bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", bincount)
        model = k2_bc(db, order)
        passes = len(bincounts)
        assert seen["tally"] == len(seen["estimated"]) == len(families)
        assert set(seen["estimated"]) == families
        assert_rescored_once(seen, model, db)
        monkeypatch.undo()

        assert model.parent_sets == tuple(parent_sets)
        assert sum(map(len, parent_sets)) >= 6
        for child, parents in enumerate(parent_sets):
            np.testing.assert_array_equal(
                model.cpts[child], scorer.estimate(child, parents)
            )
        assert model.score == reference
        assert passes < len(families)


def joint_slots(db):
    """The slots of the joint table of every variable of ``db``."""
    return math.prod(card + 1 for card in db.cardinalities)


class TestLockstep:
    """Every node's rounds run in lockstep, one level at a time."""

    @staticmethod
    def draw(rng, trial):
        """Mixed 2-5 state columns with n in {0, 8, 40, 1500} and 0 or 30 %
        deleted, a shuffled order and a cap of None, 0, 1 or 3.  Every
        other draw repeats a column, holes included, so that two candidates
        can tie."""
        cards = [int(c) for c in rng.integers(2, 6, size=int(rng.integers(2, 7)))]
        n = (0, 8, 40, 1500)[trial % 4]
        db = make_dataset(cards, np.column_stack(
            [rng.integers(0, c, size=n) for c in cards]
        ).reshape(n, len(cards)))
        if trial % 8 >= 4:
            db = punch_holes(rng, db, int(db.codes.size * 0.3))
        if trial % 2:
            twin = int(rng.integers(len(cards)))
            cards.append(cards[twin])
            db = make_dataset(cards, np.column_stack((db.codes, db.codes[:, twin])))
        cap = (None, 0, 1, 3)[int(rng.integers(4))]
        return db, OrderConstraint(tuple(rng.permutation(len(cards)).tolist()), cap)

    @pytest.mark.parametrize("fits", [True, False], ids=["one_pack", "packs"])
    def test_matches_the_search_one_node_after_another(self, monkeypatch, fits):
        """Equal parent sets, CPT bytes and score bits against
        ``helpers.sequential_k2`` at alpha 1 and 0.1 under both phis, every
        family counted from a packed joint or its own table.  Each drawn
        network's joint fits a pack, so that the search makes one pass over
        the cases, or each one's does not."""
        rng = np.random.default_rng(2301)
        real_cases = bclearn.counts._cases_table
        arcs = 0
        for trial in range(16):
            db, order = self.draw(rng, trial)
            while (joint_slots(db) <= GROUP_PATTERNS) != fits:
                db, order = self.draw(rng, trial)
            passes = []

            def cases_table(*args):
                passes.append(None)
                return real_cases(*args)

            monkeypatch.setattr(bclearn.counts, "_cases_table", cases_table)
            k2_bc(db, order)
            monkeypatch.undo()
            assert len(passes) == 1 if fits else len(passes) > 1
            for alpha in (1.0, 0.1):
                for phi in ("mar", "uniform"):
                    model = k2_bc(db, order, alpha=alpha, phi=phi)
                    reference = sequential_k2(db, order, alpha=alpha, phi=phi)
                    assert model.parent_sets == reference.parent_sets
                    for cpt, expected in zip(model.cpts, reference.cpts):
                        assert cpt.shape == expected.shape
                        assert cpt.tobytes() == expected.tobytes()
                    assert model.score == reference.score
                    assert model.score.total == reference.score.total
                    arcs += len(model.arcs)
        assert arcs

    def test_one_stack_per_level_and_child_cardinality(self, monkeypatch):
        """Nine columns of 2-5 states, 600 cases, 30 % deleted, counted a
        pack at a time: ``bc_estimate`` runs once per (level, child
        cardinality) with no mixed stack, and no node counts its own column
        alone, not even the first in the order, which has no predecessor."""
        rng = np.random.default_rng(2302)
        cards = [2, 3, 4, 5, 2, 3, 4, 5, 3]
        variables = [
            Variable(f"V{i}", tuple(map(str, range(c)))) for i, c in enumerate(cards)
        ]
        network = random_network(rng, variables, max_parents=2)
        db = delete_entries(
            sample(GenerativeSpec(network, 600, seed=3)), DeletionPlan(0.3, seed=4)
        )
        stacks, columns, deepest = [], [], 0
        real_estimate = bclearn.score.bc_estimate
        real_cases = bclearn.counts._cases_table

        def bc_estimate(tables, *args, **kwargs):
            stacks.append({table.context.child_cardinality for table in tables})
            return real_estimate(tables, *args, **kwargs)

        def cases_table(dataset, members):
            if len(members) == 1:
                columns.append(members[0])
            return real_cases(dataset, members)

        for cap in (None, 1, 2):
            order = OrderConstraint(tuple(rng.permutation(9).tolist()), cap)
            monkeypatch.setattr(bclearn.score, "bc_estimate", bc_estimate)
            monkeypatch.setattr(bclearn.counts, "_cases_table", cases_table)
            stacks.clear()
            columns.clear()
            model = k2_bc(db, order)
            monkeypatch.undo()
            # level r holds, in order, every node that gained a parent at
            # each level before it, is below the cap and has a predecessor
            # left; its stacks go by child cardinality, first seen first
            expected = {}
            for position, child in enumerate(order.order):
                for level in range(len(model.parent_sets[child]) + 1):
                    if level == 0 or (
                        (cap is None or level < cap) and position > level
                    ):
                        expected.setdefault(level, {})[cards[child]] = None
            assert stacks == [
                {card} for level in sorted(expected) for card in expected[level]
            ]
            deepest = max(deepest, *expected)
            assert columns == []
            assert model.parent_sets == sequential_k2(db, order).parent_sets
        assert deepest >= 2


def ternary_sample(seed, n_variables, n, deleted):
    """``n`` cases of a random ternary network with up to 3 parents a
    variable, a ``deleted`` fraction of the entries missing."""
    variables = [Variable(f"X{i}", ("0", "1", "2")) for i in range(n_variables)]
    network = random_network(np.random.default_rng(seed), variables)
    return delete_entries(
        sample(GenerativeSpec(network, n, seed=seed)), DeletionPlan(deleted, seed=seed)
    )


class TestKeptJoints:
    """The scorer keeps the joints each level counted or reused, to at most
    the bytes of the dataset's codes or of one full pack, whichever is
    more, and the next level counts no family that one of them covers."""

    @staticmethod
    def assert_same_model(model, reference):
        assert model.parent_sets == reference.parent_sets
        assert [cpt.tobytes() for cpt in model.cpts] == [
            cpt.tobytes() for cpt in reference.cpts
        ]
        assert model.score == reference.score

    def test_kept_joints_stay_within_the_bound(self, monkeypatch):
        """48 ternary columns and 8 cases: the codes take 768 bytes, so the
        scorer keeps at most one full pack's bytes of joints at every level,
        though a level hands out many times more.  The search learns the
        model ``helpers.sequential_k2`` learns."""
        db = ternary_sample(0, 48, 8, 0.2)
        order = OrderConstraint(tuple(range(48)), max_parents=3)
        bound = max(db.codes.nbytes, 8 * GROUP_PATTERNS)
        assert bound == 8 * GROUP_PATTERNS
        real_scores, real_tally = FamilyScorer.scores, bclearn.score.tally
        kept, handed = [], []

        def scores(self, rounds):
            joints = {}

            def recorded(dataset, ctx, joint=None):
                if joint is not None:
                    joints[id(joint)] = joint
                return real_tally(dataset, ctx, joint)

            monkeypatch.setattr(bclearn.score, "tally", recorded)
            result = real_scores(self, rounds)
            kept.append(sum(joint[0].nbytes for joint in self._kept))
            handed.append(sum(joint[0].nbytes for joint in joints.values()))
            return result

        monkeypatch.setattr(FamilyScorer, "scores", scores)
        model = k2_bc(db, order)
        monkeypatch.undo()
        assert len(kept) == 3 and all(0 < size <= bound for size in kept)
        assert max(handed) > 10 * bound
        self.assert_same_model(model, sequential_k2(db, order))

    def test_kept_joints_save_passes_over_the_cases(self, monkeypatch):
        """One search over 16 ternary variables makes fewer passes over the
        cases than the same search with the kept joints emptied before
        each level, and learns the same model."""
        db = ternary_sample(1, 16, 2000, 0.2)
        order = OrderConstraint(tuple(range(16)), max_parents=3)
        real_cases, real_scores = bclearn.counts._cases_table, FamilyScorer.scores

        def passes(forget):
            counted = []

            def cases_table(*args):
                counted.append(None)
                return real_cases(*args)

            def scores(self, rounds):
                self._kept = []
                return real_scores(self, rounds)

            monkeypatch.setattr(bclearn.counts, "_cases_table", cases_table)
            if forget:
                monkeypatch.setattr(FamilyScorer, "scores", scores)
            model = k2_bc(db, order)
            monkeypatch.undo()
            return len(counted), model

        kept, model = passes(forget=False)
        forgotten, reference = passes(forget=True)
        assert kept < forgotten
        self.assert_same_model(model, reference)


class TestEnumerateModels:
    def test_three_variables_give_eight_models(self, worked_db):
        results = enumerate_models(worked_db, order_for(worked_db))
        assert len(results) == 8
        structures = {em.model.parent_sets for em in results}
        assert len(structures) == 8

    def test_two_variables_give_two_models(self):
        db = make_dataset((2, 2), [[0, 0], [1, 1], [0, 1]])
        results = enumerate_models(db, order_for(db))
        assert len(results) == 2

    def test_posteriors_normalize_and_sort_descending(self, worked_db):
        results = enumerate_models(worked_db, order_for(worked_db))
        posteriors = [em.posterior for em in results]
        assert sum(posteriors) == pytest.approx(1.0, abs=1e-9)
        scores = [em.log_marginal for em in results]
        assert scores == sorted(scores, reverse=True)

    def test_greedy_result_is_listed_with_identical_score(self, worked_db):
        greedy = k2_bc(worked_db, order_for(worked_db))
        results = enumerate_models(worked_db, order_for(worked_db))
        match = [
            em for em in results if em.model.parent_sets == greedy.parent_sets
        ]
        assert len(match) == 1
        assert match[0].log_marginal == greedy.score.total

    def test_cap_is_enforced(self):
        rng = np.random.default_rng(8)
        db = random_complete(rng, max_vars=4, max_card=2, max_cases=5)
        while db.n_variables < 4:
            db = random_complete(rng, max_vars=4, max_card=2, max_cases=5)
        with pytest.raises(OracleError, match="cap"):
            enumerate_models(db, order_for(db), cap=7)


class TestModelPlumbing:
    def test_json_round_trip_preserves_structure(self, worked_db):
        model = k2_bc(worked_db, order_for(worked_db))
        data = model_to_json(model)
        rebuilt = model_from_json(data)
        assert rebuilt.parent_sets == model.parent_sets
        assert [v.name for v in rebuilt.variables] == ["X1", "X2", "X3"]
        rebuilt_on_dataset = model_from_json(
            {"arcs": data["arcs"]}, variables=worked_db.variables
        )
        assert rebuilt_on_dataset.parent_sets == model.parent_sets

    def test_json_is_serializable_and_carries_score(self, worked_db):
        model = k2_bc(worked_db, order_for(worked_db))
        data = model_to_json(model)
        text = json.dumps(data)
        assert "total_log_marginal" in text
        assert data["score"]["families"][0]["child"] == "X1"

    def test_dot_output_shape(self, worked_db):
        model = k2_bc(worked_db, order_for(worked_db))
        dot = model_to_dot(model)
        assert dot.startswith("digraph model {")
        assert dot.rstrip().endswith("}")
        for parent, child in model.named_arcs():
            assert f'"{parent}" -> "{child}";' in dot

    def test_cycles_rejected_at_construction(self, worked_db):
        with pytest.raises(ScoreError, match="not a DAG"):
            model_from_arcs(
                worked_db.variables,
                [("X1", "X2"), ("X2", "X3"), ("X3", "X1")],
            )

    @pytest.mark.parametrize("parent_sets, match", [
        (((),), "one parent set per variable"),
        (((), (), ()), "one parent set per variable"),
        (((), (1,)), "cannot be its own parent"),
        (((), (2,)), "parent index out of range"),
        (((-1,), ()), "parent index out of range"),
    ])
    def test_malformed_model_rejected(self, parent_sets, match):
        variables = make_dataset((2, 2), [[0, 0]]).variables
        with pytest.raises(SearchError, match=match):
            Model(variables, parent_sets)

    def test_joint_distribution_and_marginals(self):
        variables = make_dataset((2, 2), [[0, 0]]).variables
        cpts = (
            np.array([[0.25, 0.75]]),
            np.array([[0.9, 0.1], [0.2, 0.8]]),
        )
        model = Model(variables, ((), (0,)), cpts=cpts)
        joint = joint_distribution(model)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert joint[0, 0] == pytest.approx(0.25 * 0.9)
        margs = marginals(model)
        assert margs["X1"].tolist() == pytest.approx([0.25, 0.75])
        assert margs["X2"][0] == pytest.approx(0.25 * 0.9 + 0.75 * 0.2)


class TestMarginals:
    @staticmethod
    def assert_matches_oracle_joint(model):
        joint = joint_distribution(model)
        margs = marginals(model)
        for i, v in enumerate(model.variables):
            others = tuple(a for a in range(joint.ndim) if a != i)
            assert np.abs(margs[v.name] - joint.sum(axis=others)).max() <= 1e-12
            assert not np.shares_memory(margs[v.name], model.cpts[i])

    @pytest.mark.parametrize("name", ["M1", "M2", "M3", "M4"])
    def test_builtin_networks_match_the_oracle_joint(self, name):
        self.assert_matches_oracle_joint(builtin_spec(name).model)

    def test_random_networks_match_the_oracle_joint(self):
        rng = np.random.default_rng(808)
        for _ in range(120):
            cards = rng.integers(2, 5, size=int(rng.integers(1, 8))).tolist()
            variables = make_dataset(cards, []).variables
            self.assert_matches_oracle_joint(random_network(rng, variables))

    def test_dense_random_networks_match_the_oracle_joint(self):
        rng = np.random.default_rng(1616)
        for _ in range(20):
            cards = rng.integers(2, 4, size=int(rng.integers(1, 13))).tolist()
            variables = make_dataset(cards, []).variables
            network = random_network(rng, variables, max_parents=4)
            self.assert_matches_oracle_joint(network)

    def test_a_model_without_cpts_has_no_marginals(self):
        variables = make_dataset((2, 2), [[0, 0]]).variables
        with pytest.raises(SearchError, match="model has no CPTs"):
            marginals(Model(variables, ((), (0,))))

    def test_einsum_label_limit(self, monkeypatch):
        def model(n, chain=False):
            variables = tuple(Variable(f"V{i}", ("0", "1")) for i in range(n))
            parent_sets = tuple((i - 1,) if chain and i else () for i in range(n))
            cpts = tuple(np.array([[0.25, 0.75]] * 2 ** len(ps)) for ps in parent_sets)
            return Model(variables, parent_sets, cpts=cpts)

        # numpy's limit is 52 labels per einsum call, not per model
        for n in (53, 60):
            margs = marginals(model(n))
            assert sorted(margs) == sorted(f"V{i}" for i in range(n))
            assert all(m.tolist() == [0.25, 0.75] for m in margs.values())
        assert marginals(model(52, chain=True))["V51"].tolist() == [0.25, 0.75]

        def unreachable(*args, **kwargs):
            raise AssertionError("einsum called")

        monkeypatch.setattr(np, "einsum", unreachable)
        with pytest.raises(SearchError, match="itself included; V52 has 53$"):
            marginals(model(53, chain=True))

    @staticmethod
    def binary_chain(n):
        variables = tuple(Variable(f"V{i}", ("0", "1")) for i in range(n))
        parent_sets = tuple((i - 1,) if i else () for i in range(n))
        cpts = tuple(np.array([[0.25, 0.75]] * 2 ** len(ps)) for ps in parent_sets)
        return Model(variables, parent_sets, cpts=cpts)

    def test_path_step_past_max_patterns_is_refused_before_contracting(
        self, monkeypatch
    ):
        """Each marginal's path is one step over every ancestor's CPT, as
        the greedy path falls back to when no pairwise step fits: V25's 26
        binary ancestors span 2**26 combinations, the bound, and V26's 27
        span twice that."""
        einsum_path = np.einsum_path

        def one_step(*operands, optimize):
            path, report = einsum_path(*operands, optimize=optimize)
            return ["einsum_path", tuple(range(len(operands) // 2))], report

        contracted = []

        def fake_einsum(*operands, optimize):
            contracted.append(optimize)
            return np.array([0.25, 0.75])

        monkeypatch.setattr(np, "einsum_path", one_step)
        monkeypatch.setattr(np, "einsum", fake_einsum)
        with pytest.raises(
            SearchError,
            match="^the marginal of V26 needs a contraction over 134217728 "
            "state combinations, more than 67108864$",
        ):
            marginals(self.binary_chain(27))
        assert contracted == [["einsum_path", tuple(range(k))] for k in range(1, 27)]

    def test_path_steps_are_checked_on_their_contracted_terms(self):
        """A step's result keeps only the labels that later steps or the
        output need, so every pairwise step along a chain of 40 binary
        variables stays small.  Results that kept every label they joined
        would reach 2**40 combinations and be refused."""
        margs = marginals(self.binary_chain(40))
        assert all(m.tolist() == [0.25, 0.75] for m in margs.values())

    def test_dense_windowed_network(self):
        # 28 binary variables, each with 3 parents among the 8 before it.
        # numpy's default greedy path, which keeps every intermediate within
        # the largest CPT, took 10 s on this network (2-vCPU Xeon)
        rng = np.random.default_rng(11)
        variables = tuple(Variable(f"V{i}", ("0", "1")) for i in range(28))
        parent_sets = tuple(
            tuple(sorted(
                int(p) for p in rng.choice(range(max(0, i - 8), i), size=min(3, i), replace=False)
            ))
            for i in range(28)
        )
        cpts = tuple(rng.dirichlet(np.ones(2), size=2 ** len(ps)) for ps in parent_sets)
        start = time.perf_counter()
        margs = marginals(Model(variables, parent_sets, cpts=cpts))
        assert time.perf_counter() - start <= 2.0
        assert len(margs) == 28
        assert all(abs(m.sum() - 1.0) <= 1e-12 for m in margs.values())
