import itertools
import math

import numpy as np
import pytest

import bclearn.score
import bclearn.counts
from bclearn import (
    MISSING, FamilyScorer, OrderConstraint, ParentContext, PriorSpec, k2_bc, tally,
)
from bclearn.counts import (
    GROUP_PATTERNS,
    MAX_PATTERNS,
    _cases_table,
    _codes,
    joints,
)
from bclearn.estimate import bc_estimate
from bclearn.score import log_g_bc
from helpers import make_dataset, punch_holes, random_complete
from oracle_refs import enumerate_completions


def worked_context(db):
    return ParentContext.of(db.variables, child=2, parents=(0, 1))


def assert_matches_per_case_fold(d, ctx, joint=None):
    """``tally`` of ``joint`` equals routing each case of ``d`` by hand
    through ``enumerate_completions``."""
    child, parents = ctx.child, ctx.parents
    q, c = ctx.n_configs, ctx.child_cardinality
    obs = np.zeros((q, c), dtype=int)
    comp = np.zeros((q, c), dtype=int)
    parent_obs = np.zeros(q, dtype=int)
    parent_comp = np.zeros(q, dtype=int)
    incomplete = parent_incomplete = 0
    for row in d.codes:
        parents_complete = all(row[p] != MISSING for p in parents)
        family_complete = parents_complete and row[child] != MISSING
        cells = enumerate_completions(row, ctx)
        configs = sorted({j for j, _ in cells})
        if family_complete:
            assert len(cells) == 1
            obs[cells[0]] += 1
        else:
            incomplete += 1
            for cell in cells:
                comp[cell] += 1
        if parents_complete:
            assert len(configs) == 1
            parent_obs[configs[0]] += 1
        else:
            parent_incomplete += 1
            parent_comp[configs] += 1
    t = tally(d, ctx, joint)
    for counts in (t.obs_matrix(), t.comp_matrix(), t.parent_obs_vector(),
                   t.parent_comp_vector()):
        assert counts.dtype == np.int64
    assert np.array_equal(t.obs_matrix(), obs)
    assert np.array_equal(t.comp_matrix(), comp)
    assert np.array_equal(t.parent_obs_vector(), parent_obs)
    assert np.array_equal(t.parent_comp_vector(), parent_comp)
    assert t.incomplete_cases == incomplete
    assert t.parent_incomplete_cases == parent_incomplete
    assert (t.comp_matrix() <= incomplete).all()
    assert t.obs_matrix().sum() + incomplete == d.n_cases
    assert (
        t.parent_obs_vector().sum() + t.parent_incomplete_cases
        == d.n_cases
    )


class TestWorkedExample:
    """Counts for child X3 with parents (X1, X2) on the five-case database."""

    def test_completion_counts(self, worked_db):
        t = tally(worked_db, worked_context(worked_db))
        assert t.comp_matrix()[:, 0].tolist() == [2, 2, 2, 2]
        assert t.comp_matrix()[:, 1].tolist() == [2, 1, 1, 0]

    def test_observed_counts(self, worked_db):
        t = tally(worked_db, worked_context(worked_db))
        obs = t.obs_matrix()
        assert obs[1, 1] == 1  # the single complete case (1, 2, 2)
        assert obs.sum() == 1

    def test_parent_counts(self, worked_db):
        t = tally(worked_db, worked_context(worked_db))
        assert t.parent_obs_vector().tolist() == [0, 1, 0, 0]
        assert t.parent_comp_vector().tolist() == [3, 2, 3, 2]
        assert t.incomplete_cases == 4
        assert t.parent_incomplete_cases == 4


class TestEnumerateCompletions:
    def test_doubly_missing_case(self, worked_db):
        ctx = worked_context(worked_db)
        # case 5 = (1, ?, ?): parent X1 fixed at state 1, X2 and child free
        cells = enumerate_completions(worked_db.codes[4], ctx)
        assert sorted(cells) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_fully_observed_case(self, worked_db):
        ctx = worked_context(worked_db)
        cells = enumerate_completions(worked_db.codes[0], ctx)
        assert cells == [(1, 1)]

    def test_fully_missing_case(self, worked_db):
        ctx = worked_context(worked_db)
        row = np.full(3, MISSING, dtype=np.int16)
        cells = enumerate_completions(row, ctx)
        assert len(cells) == 8
        assert len(set(cells)) == 8

    def test_cell_count_is_product_of_missing_cardinalities(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            d = random_complete(rng, max_vars=4, max_card=3, max_cases=8)
            if d.n_cases == 0 or d.n_variables < 2:
                continue
            d = punch_holes(rng, d, int(rng.integers(1, d.codes.size + 1)))
            child = int(rng.integers(d.n_variables))
            others = [i for i in range(d.n_variables) if i != child]
            parents = sorted(
                rng.choice(others, size=int(rng.integers(0, len(others) + 1)),
                           replace=False).tolist()
            )
            ctx = ParentContext.of(d.variables, child, parents)
            for row in d.codes:
                expected = 1
                for member in (child, *parents):
                    if row[member] == MISSING:
                        expected *= d.variables[member].cardinality
                cells = enumerate_completions(row, ctx)
                assert len(cells) == expected
                assert len(set(cells)) == expected


class TestTallyProperties:
    def test_complete_dataset_has_no_completions(self):
        rng = np.random.default_rng(3)
        d = random_complete(rng, max_vars=3, max_cases=40)
        ctx = ParentContext.of(d.variables, 0, tuple(range(1, d.n_variables)))
        t = tally(d, ctx)
        assert t.is_complete
        assert t.comp_matrix().sum() == 0
        assert t.obs_matrix().sum() == d.n_cases
        assert t.parent_obs_vector().sum() == d.n_cases

    def test_empty_dataset_all_zero(self):
        d = make_dataset((2, 2), np.zeros((0, 2), dtype=np.int16))
        ctx = ParentContext.of(d.variables, 0, (1,))
        t = tally(d, ctx)
        assert t.n_total == 0
        assert t.obs_matrix().sum() == 0
        assert t.comp_matrix().sum() == 0

    def test_matches_per_case_fold(self):
        """The aggregated tally equals routing each case by hand, on small
        families and on families of up to 6 ternary parents with several
        parents missing per case."""
        rng = np.random.default_rng(23)
        for wide in (False, True) * 25:
            if wide:
                d = make_dataset((3,) * 7, rng.integers(0, 3, size=(40, 7)))
            else:
                d = random_complete(rng, max_vars=4, max_card=3, max_cases=15)
            if d.n_cases == 0:
                continue
            d = punch_holes(rng, d, int(rng.integers(0, d.codes.size + 1)))
            child = int(rng.integers(d.n_variables))
            others = [i for i in range(d.n_variables) if i != child]
            size = int(rng.integers(3 if wide else 0, len(others) + 1))
            parents = sorted(rng.choice(others, size=size, replace=False).tolist())
            assert_matches_per_case_fold(d, ParentContext.of(d.variables, child, parents))

    @pytest.mark.parametrize(
        "cards, code_type",
        [
            ((6, 30, 150), np.int16),  # 7 * 31 * 151 = 2**15 - 1 patterns
            ((7,) + (3,) * 6, np.int32),  # 8 * 4**6 = 2**15
            ((3, 3) + (2,) * 17, None),  # 4**2 * 3**17 > MAX_PATTERNS
            ((2,) * 20, None),  # 3**20 > MAX_PATTERNS
            ((3,) * 11, np.int32),  # 4**11 = 2**22, the widest family tested
        ],
    )
    def test_matches_per_case_fold_either_side_of_code_widths(
        self, cards, code_type, monkeypatch
    ):
        rng = np.random.default_rng(len(cards))
        rows = np.column_stack([rng.integers(0, card, size=12) for card in cards])
        rows[1:][rng.random((11, len(cards))) < 0.15] = MISSING
        rows[0] = np.array(cards) - 1  # the largest code, prod(card+1) - 1
        d = make_dataset(cards, rows)
        ctx = ParentContext.of(d.variables, 0, tuple(range(1, len(cards))))
        size = math.prod(card + 1 for card in cards)
        if code_type is None:
            # The dense table would take 16-28 GB: refused before allocating.
            def unreachable(*args, **kwargs):
                raise AssertionError("bincount called")

            monkeypatch.setattr(np, "bincount", unreachable)
            with pytest.raises(ValueError, match=f"has {size} entry patterns"):
                tally(d, ctx)
            return
        codes = _codes(d, (*ctx.parents, ctx.child))
        expected = []
        for row in rows.tolist():
            code = 0
            # the parents' digits first, the child's (column 0) last
            for entry, card in zip(row[1:] + row[:1], cards[1:] + cards[:1]):
                code = code * (card + 1) + entry + 1
            expected.append(code)
        assert codes.dtype == code_type
        assert codes.tolist() == expected
        assert expected[0] == size - 1
        assert_matches_per_case_fold(d, ctx)

    def test_pattern_code_overflow_is_rejected(self):
        # 41 binary members: 3**41 entry patterns, far above MAX_PATTERNS
        d = make_dataset((2,) * 41, [[0] * 41, [1] * 41])
        ctx = ParentContext.of(d.variables, 0, tuple(range(1, 41)))
        with pytest.raises(
            ValueError, match=f"family of X1 has {3**41} entry patterns"
        ):
            tally(d, ctx)

    def test_entries_outside_family_are_ignored(self):
        base = make_dataset((2, 2, 2), [[0, 0, 0], [0, 0, 1]])
        holey = make_dataset((2, 2, 2), [[0, 0, MISSING], [0, 0, 1]])
        ctx = ParentContext.of(base.variables, 1, (0,))
        a, b = tally(base, ctx), tally(holey, ctx)
        assert np.array_equal(a.obs_matrix(), b.obs_matrix())
        assert np.array_equal(a.comp_matrix(), b.comp_matrix())
        assert b.is_complete

    def test_parent_obs_ignores_child(self):
        d = make_dataset((2, 2), [[MISSING, 0], [1, 0], [0, MISSING]])
        ctx = ParentContext.of(d.variables, 0, (1,))
        t = tally(d, ctx)
        # cases 1 and 2 are complete on the parent, case 3 is not
        assert t.parent_obs_vector().tolist() == [2, 0]
        assert t.parent_comp_vector().tolist() == [1, 1]


def assert_same_counts(got, want):
    """Two tallies of one family agree on every count, all int64."""
    for field in ("obs_matrix", "comp_matrix", "parent_obs_vector",
                  "parent_comp_vector"):
        a, b = getattr(got, field)(), getattr(want, field)()
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)
    assert got.incomplete_cases == want.incomplete_cases
    assert got.parent_incomplete_cases == want.parent_incomplete_cases


class TestTableSources:
    """A family's tally over the joint of every variable, over its own
    per-case joint and over a per-case joint with extra axes in shuffled
    order."""

    @staticmethod
    def assert_sources_agree(d, ctx):
        members = (*ctx.parents, ctx.child)
        everything = tuple(range(d.n_variables))
        shuffled = tuple(np.random.default_rng(len(members)).permutation(everything))
        rows = _cases_table(d, everything), everything
        cases = tally(d, ctx, (_cases_table(d, members), members))
        assert_same_counts(tally(d, ctx, rows), cases)
        assert_same_counts(tally(d, ctx, (_cases_table(d, shuffled), shuffled)), cases)

    @staticmethod
    def random_holey(rng, cards, n):
        rows = np.column_stack([rng.integers(0, card, size=n) for card in cards])
        rows[rng.random(rows.shape) < rng.random()] = MISSING
        return make_dataset(cards, rows.reshape(n, len(cards)))

    def test_every_family_of_random_datasets(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            cards = rng.integers(2, 5, size=int(rng.integers(1, 6))).tolist()
            d = self.random_holey(rng, cards, int(rng.integers(1, 300)))
            for child in range(d.n_variables):
                others = [i for i in range(d.n_variables) if i != child]
                for size in range(min(len(others), 3) + 1):
                    parents = rng.permutation(others)[:size].tolist()
                    self.assert_sources_agree(
                        d, ParentContext.of(d.variables, child, parents)
                    )

    def test_zero_parents_and_a_family_of_every_variable(self):
        d = self.random_holey(np.random.default_rng(5), (3, 2, 4), 200)
        for child in range(3):
            self.assert_sources_agree(d, ParentContext.of(d.variables, child, ()))
        # every variable is a member, so no axis is summed; parents out of
        # variable order are transposed
        self.assert_sources_agree(d, ParentContext.of(d.variables, 1, (2, 0)))
        self.assert_sources_agree(d, ParentContext.of(d.variables, 2, (0, 1)))

    def test_column_missing_in_every_case(self):
        d = self.random_holey(np.random.default_rng(6), (2, 3, 2), 100)
        rows = d.codes.copy()
        rows[:, 1] = MISSING
        d = make_dataset((2, 3, 2), rows)
        for child, parents in ((1, ()), (0, (1,)), (1, (0, 2)), (2, (1,))):
            self.assert_sources_agree(d, ParentContext.of(d.variables, child, parents))

    def test_no_cases(self):
        d = make_dataset((2, 3), np.zeros((0, 2)))
        ctx = ParentContext.of(d.variables, 0, (1,))
        self.assert_sources_agree(d, ctx)
        assert tally(d, ctx).obs_matrix().sum() == 0

    def test_full_joint_matches_per_case_fold(self):
        rng = np.random.default_rng(8)
        d = self.random_holey(rng, (2, 3, 2, 2), 200)
        everything = tuple(range(d.n_variables))
        joint = _cases_table(d, everything), everything
        for child, parents in ((0, ()), (1, (0, 3)), (3, (0, 1, 2)), (2, (3,))):
            ctx = ParentContext.of(d.variables, child, parents)
            assert_matches_per_case_fold(d, ctx, joint)


def case_by_case_score(d, child, parents):
    """A family's score under the default prior, counted case by case."""
    ctx = ParentContext.of(d.variables, child, parents)
    counts = tally(d, ctx)
    return log_g_bc([counts], PriorSpec(), bc_estimate([counts], PriorSpec()))[0]


def round_families(child, parents, candidates):
    """The ``(child, sorted parents)`` key of each candidate's family."""
    return [(child, tuple(sorted((*parents, c)))) for c in candidates]


class TestJoints:
    """Families counted a pack at a time from one joint table, against each
    family counted alone."""

    @staticmethod
    def assert_joints_match(d, families, kept=()):
        """Each family's joint is ``None`` or covers the family, and its
        tally equals the plain tally."""
        given = list(joints(d, families, kept))
        assert len(given) == len(families)
        for (child, parents), joint in zip(families, given):
            ctx = ParentContext.of(d.variables, child, parents)
            if joint is not None:
                table, axes = joint
                assert table.shape == tuple(d.cardinalities[v] + 1 for v in axes)
                assert {*parents, child} <= set(axes)
            assert_same_counts(tally(d, ctx, joint), tally(d, ctx))
        return given

    @staticmethod
    def bincount_sizes(monkeypatch, d, families):
        """The ``minlength`` of each ``np.bincount`` call made to tally
        ``families`` from their joints, as ``FamilyScorer`` does; no pack is
        counted before the iterator reaches it."""
        sizes = []
        real = np.bincount

        def counted(codes, minlength=0):
            sizes.append(minlength)
            return real(codes, minlength=minlength)

        monkeypatch.setattr(np, "bincount", counted)
        given = joints(d, families)
        assert sizes == []
        for (child, parents), joint in zip(families, given):
            tally(d, ParentContext.of(d.variables, child, parents), joint)
        monkeypatch.undo()
        return sizes

    def test_random_families(self, monkeypatch):
        """Mixed cardinalities 2-5, families of one child adding each
        candidate to parents on both sides of the candidates' indices,
        packs split at ``GROUP_PATTERNS`` and families above it counted
        alone."""
        rng = np.random.default_rng(43)
        grouped = alone = 0
        for _ in range(40):
            m = int(rng.integers(3, 9))
            cards = rng.integers(2, 6, size=m).tolist()
            d = TestTableSources.random_holey(rng, cards, int(rng.integers(1, 400)))
            child, *rest = rng.permutation(m).tolist()
            k = int(rng.integers(0, min(4, len(rest))))
            parents, candidates = rest[:k], rest[k:]
            families = round_families(child, parents, candidates)
            self.assert_joints_match(d, families)
            base = math.prod(cards[v] + 1 for v in (*parents, child))
            wide = [base * (cards[c] + 1) for c in candidates]
            wide = [size for size in wide if size > GROUP_PATTERNS]
            sizes = self.bincount_sizes(monkeypatch, d, families)
            assert len(wide) <= len(sizes) <= len(candidates)
            assert all(size <= GROUP_PATTERNS or size in wide for size in sizes)
            grouped += len(sizes) < len(candidates)
            alone += len(wide) > 0
        assert grouped and alone

    def test_packs_split_greedily_in_order(self, monkeypatch):
        """A five-state child and two five-state parents take 6**3 = 216
        slots: two three-slot candidates fit in a pack (216 * 3**3 > 2**12),
        and a six-slot one starts a pack that one more three-slot fits."""
        d = TestTableSources.random_holey(
            np.random.default_rng(44), (5, 5, 5, 2, 2, 2, 2, 5, 2), 300
        )
        families = round_families(0, (2, 1), (3, 4, 5, 6, 7, 8))
        sizes = self.bincount_sizes(monkeypatch, d, families)
        assert sizes == [216 * 3 * 3, 216 * 3 * 3, 216 * 6 * 3]
        self.assert_joints_match(d, families)

    def test_pack_fills_to_exactly_group_patterns(self, monkeypatch):
        """Ternary variables: a child, two parents and three candidates take
        4**6 = 2**12 slots, the most one pack holds."""
        d = TestTableSources.random_holey(np.random.default_rng(46), (3,) * 8, 300)
        families = round_families(0, (2, 1), (3, 4, 5, 6, 7))
        sizes = self.bincount_sizes(monkeypatch, d, families)
        assert sizes == [GROUP_PATTERNS, 4**5]
        self.assert_joints_match(d, families)

    def test_lone_family_gets_none(self, monkeypatch):
        """A family alone in its pack, by itself or because the next family
        of its child does not fit, is handed ``None`` and counted by
        ``tally`` alone: one pass each, of the family's own slots."""
        d = TestTableSources.random_holey(np.random.default_rng(47), (3,) * 8, 300)
        assert self.assert_joints_match(d, [(0, (1, 2))]) == [None]
        # 4**6 slots fill the first pack, so the last family is alone
        families = round_families(0, (1,), (2, 3, 4, 5, 6))
        *packed, last = self.assert_joints_match(d, families)
        assert packed[0] is not None and all(j is packed[0] for j in packed)
        assert last is None
        assert self.bincount_sizes(monkeypatch, d, families) == [4**6, 4**3]

    def test_two_children_share_a_pack(self, monkeypatch):
        """Binary variables: the families of two children, and a later family
        of the first child, fit one pack of 3**4 slots and share its joint;
        a fifth variable's family would make 3**5 > 2**7 slots and starts a
        pack of its own."""
        d = TestTableSources.random_holey(np.random.default_rng(48), (2,) * 5, 200)
        families = [(0, ()), (0, (1,)), (1, ()), (1, (2,)), (0, (2,)), (0, (3,))]
        first, *rest = self.assert_joints_match(d, families)
        assert first[1] == (0, 1, 2, 3) and all(joint is first for joint in rest)
        assert self.bincount_sizes(monkeypatch, d, families) == [3**4]
        monkeypatch.setattr(bclearn.counts, "GROUP_PATTERNS", 2**7)
        families += [(4, (0,)), (4, (1,))]
        *packed, fifth, again = self.assert_joints_match(d, families)
        assert all(joint is packed[0] for joint in packed)
        assert fifth is again and fifth[1] == (0, 1, 4)
        assert self.bincount_sizes(monkeypatch, d, families) == [3**4, 3**3]

    def test_no_cases(self):
        d = make_dataset((2, 3, 4, 5), np.zeros((0, 4)))
        self.assert_joints_match(d, round_families(1, (3,), (0, 2)))

    def test_a_later_level_takes_the_scorers_joint(self, monkeypatch):
        """The first level of a search over 3 * 4 * 3 * 5 * 3 = 540 slots is
        one pack of every variable, the one joint the scorer keeps.  A later
        level's families, each round's own and each candidate's, are handed
        that very joint and count no case, and the scorer keeps it alone;
        each is scored once, not through ``score``, and equals its count
        case by case."""
        d = TestTableSources.random_holey(
            np.random.default_rng(45), (2, 3, 2, 4, 2), 2000
        )
        scorer = FamilyScorer(d)
        sizes = []
        real_tally, real_bincount = bclearn.score.tally, np.bincount

        def counted(codes, minlength=0):
            sizes.append(minlength)
            return real_bincount(codes, minlength=minlength)

        monkeypatch.setattr(np, "bincount", counted)
        scorer.scores([(v, (), range(v)) for v in range(5)])
        assert sizes == [540]
        [joint] = scorer._kept
        assert joint[1] == (0, 1, 2, 3, 4)
        tallies = []

        def recorded(dataset, ctx, joint=None):
            tallies.append((joint, real_tally(dataset, ctx, joint)))
            return tallies[-1][1]

        def unreachable(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(bclearn.score, "tally", recorded)
        monkeypatch.setattr(FamilyScorer, "score", unreachable)
        level = scorer.scores([(2, (4, 0), (1, 3)), (4, (3,), (0, 1, 2))])
        monkeypatch.undo()
        assert sizes == [540] and len(tallies) == 6
        assert len(scorer._kept) == 1 and scorer._kept[0] is joint
        for given, counts in tallies:
            assert given is joint
            assert_same_counts(counts, tally(d, counts.context))
        assert level[0] == [
            case_by_case_score(d, 2, (0, 4)),
            case_by_case_score(d, 2, (0, 1, 4)),
            case_by_case_score(d, 2, (0, 3, 4)),
        ]
        families = round_families(2, (4, 0), (1, 3)) + round_families(
            4, (3,), (0, 1, 2)
        )
        assert all(
            handed is joint
            for handed in self.assert_joints_match(d, families, [joint])
        )

    def test_a_later_level_takes_a_kept_joint_before_the_last(self, monkeypatch):
        """Ternary variables: a level counts a pack of X1 to X6, 4**6 slots,
        then one of X7 and X8, and the scorer keeps both, their bytes below
        the codes' (3000 * 8 * 2).  A later level's
        families of X1 lie only in the first: they are handed that very
        joint and count no case, each ``CountTable`` equals the family's
        own-table tally, and the scorer keeps that joint alone."""
        d = TestTableSources.random_holey(np.random.default_rng(52), (3,) * 8, 3000)
        scorer = FamilyScorer(d)
        sizes, tallies = [], []
        real_tally, real_bincount = bclearn.score.tally, np.bincount

        def counted(codes, minlength=0):
            sizes.append(minlength)
            return real_bincount(codes, minlength=minlength)

        def recorded(dataset, ctx, joint=None):
            tallies.append((joint, real_tally(dataset, ctx, joint)))
            return tallies[-1][1]

        monkeypatch.setattr(np, "bincount", counted)
        scorer.scores([(0, (1,), (2, 3, 4, 5)), (6, (), (7,))])
        assert sizes == [4**6, 4**2]
        first, last = scorer._kept
        assert first[1] == (0, 1, 2, 3, 4, 5) and last[1] == (6, 7)
        monkeypatch.setattr(bclearn.score, "tally", recorded)
        level = scorer.scores([(0, (1, 2), (3, 4, 5))])
        monkeypatch.undo()
        assert sizes == [4**6, 4**2] and len(tallies) == 3
        assert len(scorer._kept) == 1 and scorer._kept[0] is first
        for given, counts in tallies:
            assert given is first
            assert_same_counts(counts, tally(d, counts.context))
        assert level == [[
            case_by_case_score(d, 0, parents)
            for parents in [(1, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5)]
        ]]
        families = round_families(0, (1, 2), (3, 4, 5))
        assert all(
            handed is first
            for handed in self.assert_joints_match(d, families, [first, last])
        )

    def test_a_covered_family_after_a_new_pack_gets_the_joint_before_the_call(
        self, monkeypatch
    ):
        """The scorer keeps the pack of X1 and X2.  A level that counts a new
        pack of X3, X4 and X5 first and then reaches X1's and X2's family
        hands that family the joint from before the call, as the very
        object, and then keeps both joints in the order it used them."""
        d = TestTableSources.random_holey(np.random.default_rng(49), (2,) * 5, 300)
        scorer = FamilyScorer(d)
        scorer.scores([(1, (), (0,))])
        [before] = scorer._kept
        assert before[1] == (0, 1)
        tallies = []
        real_tally = bclearn.score.tally

        def recorded(dataset, ctx, joint=None):
            tallies.append((ctx.child, joint))
            return real_tally(dataset, ctx, joint)

        monkeypatch.setattr(bclearn.score, "tally", recorded)
        scores = scorer.scores([(3, (), (2, 4)), (0, (1,), ())])
        monkeypatch.undo()
        (_, pack), *_, (child, last) = tallies
        assert pack[1] == (2, 3, 4) and child == 0 and last is before
        assert len(scorer._kept) == 2
        assert scorer._kept[0] is pack and scorer._kept[1] is before
        assert scores[1] == [case_by_case_score(d, 0, (1,))]
        families = round_families(3, (), (2, 4)) + [(0, (1,))]
        *packed, covered = self.assert_joints_match(d, families, [before])
        assert packed[0][1] == (2, 3, 4) and covered is before

    def test_seven_ternary_variables_count_no_table_above_a_pack(self, monkeypatch):
        """4**7 = 16384 slots over 20000 cases: a search whose families all
        fit a pack counts no table above ``GROUP_PATTERNS`` slots."""
        rng = np.random.default_rng(50)
        d = TestTableSources.random_holey(rng, (3,) * 7, 20_000)
        sizes = []
        real_bincount = np.bincount

        def counted(codes, minlength=0):
            sizes.append(minlength)
            return real_bincount(codes, minlength=minlength)

        monkeypatch.setattr(np, "bincount", counted)
        k2_bc(d, OrderConstraint(tuple(range(7)), max_parents=3))
        monkeypatch.undo()
        assert sizes and max(sizes) <= GROUP_PATTERNS

    @pytest.mark.parametrize("workload", ["learn_wide", "score_dense"])
    def test_benchmark_shapes_count_no_table_above_a_pack(self, monkeypatch, workload):
        """The benchmark shapes on 300 cases.  A search over 16 ternary
        variables with up to 3 parents (learn_wide) counts no table above
        ``GROUP_PATTERNS`` slots.  The dense model over 9 ternary variables
        (score_dense) counts its families of 6 and 8 parents, too wide for a
        pack, once each from their own tables and nothing else above the
        limit, and each family's score equals its score counted case by
        case."""
        n_variables = {"learn_wide": 16, "score_dense": 9}[workload]
        d = TestTableSources.random_holey(
            np.random.default_rng(51), (3,) * n_variables, 300
        )
        sizes = []
        real_bincount = np.bincount

        def counted(codes, minlength=0):
            sizes.append(minlength)
            return real_bincount(codes, minlength=minlength)

        monkeypatch.setattr(np, "bincount", counted)
        if workload == "learn_wide":
            k2_bc(d, OrderConstraint(tuple(range(n_variables)), max_parents=3))
            monkeypatch.undo()
            assert sizes and max(sizes) <= GROUP_PATTERNS
            return
        dense = {8: range(8), 7: range(1, 7), 6: range(2, 6), 5: range(3, 5)}
        parent_sets = [tuple(dense.get(v, ())) for v in range(n_variables)]
        score = FamilyScorer(d).model_score(parent_sets)
        monkeypatch.undo()
        assert [size for size in sizes if size > GROUP_PATTERNS] == [4**7, 4**9]
        assert score.families == tuple(
            case_by_case_score(d, child, parents)
            for child, parents in enumerate(parent_sets)
        )

    def test_family_over_max_patterns_is_refused_before_counting(self, monkeypatch):
        """The second family has 4 * 3**14 * 4 > MAX_PATTERNS patterns; the
        first family's, 4 * 3**14 * 3, is not counted either."""
        cards = (3, 2, 3) + (2,) * 14
        d = make_dataset(cards, np.zeros((4, len(cards))))
        size = 4 * 3**14 * 4
        assert size > MAX_PATTERNS >= 4 * 3**14 * 3

        def unreachable(*args, **kwargs):
            raise AssertionError("bincount called")

        monkeypatch.setattr(np, "bincount", unreachable)
        with pytest.raises(ValueError, match=f"family of X1 has {size} entry patterns"):
            joints(d, round_families(0, range(3, 17), (1, 2)))

    def test_a_scores_level_checks_every_key_before_counting(self, monkeypatch):
        """A level of two rounds whose last family, the second round's, is
        too wide: ``scores`` refuses it before counting any family of the
        first round, and caches none."""
        cards = (3, 2, 3) + (2,) * 14
        d = make_dataset(cards, np.zeros((4, len(cards))))
        scorer = FamilyScorer(d)

        def unreachable(*args, **kwargs):
            raise AssertionError("bincount called")

        monkeypatch.setattr(np, "bincount", unreachable)
        with pytest.raises(ValueError, match="family of X1 has"):
            scorer.scores([(3, (), (4, 5)), (0, tuple(range(3, 17)), (1, 2))])
        assert scorer._cache == {}


class TestParentContext:
    def test_codec_is_a_bijection(self):
        ctx = ParentContext(0, (1, 2, 3), 2, (2, 3, 2))
        seen = set()
        for states in itertools.product(range(2), range(3), range(2)):
            j = ctx.config_index(states)
            assert ctx.config_states(j) == states
            seen.add(j)
        assert seen == set(range(ctx.n_configs))

    def test_empty_parent_set(self):
        ctx = ParentContext(0, (), 3, ())
        assert ctx.n_configs == 1
        assert ctx.config_index(()) == 0
        assert ctx.config_states(0) == ()

    def test_child_in_parents_rejected(self):
        with pytest.raises(ValueError):
            ParentContext(0, (0,), 2, (2,))

    @pytest.mark.parametrize("parents, cards, match", [
        ((1, 1), (2, 2), "duplicate parent indices"),
        ((1, 2), (2,), "one cardinality per parent"),
        ((1,), (2, 3), "one cardinality per parent"),
    ])
    def test_malformed_context_rejected(self, parents, cards, match):
        with pytest.raises(ValueError, match=match):
            ParentContext(0, parents, 2, cards)

    @pytest.mark.parametrize("states, message", [
        ((2, 0, 0), r"parent state 2 out of range \[0, 2\)"),
        ((0, 3, 0), r"parent state 3 out of range \[0, 3\)"),
        ((0, 0, -1), r"parent state -1 out of range \[0, 2\)"),
    ])
    def test_parent_state_out_of_range_rejected(self, states, message):
        ctx = ParentContext(0, (1, 2, 3), 2, (2, 3, 2))
        with pytest.raises(ValueError, match=message):
            ctx.config_index(states)

    @pytest.mark.parametrize("j", [-1, 12])
    def test_configuration_index_out_of_range_rejected(self, j):
        ctx = ParentContext(0, (1, 2, 3), 2, (2, 3, 2))
        with pytest.raises(ValueError, match=f"configuration index {j} out of range"):
            ctx.config_states(j)

    def test_labels_use_state_names(self, worked_db):
        ctx = worked_context(worked_db)
        labels = [ctx.config_label(j, worked_db.variables) for j in range(4)]
        assert labels == ["1,1", "1,2", "2,1", "2,2"]

    def test_table_from_rows_inverts_labels(self, worked_db):
        ctx = worked_context(worked_db)
        table = np.arange(8.0).reshape(4, 2)
        rows = {
            ctx.config_label(j, worked_db.variables): table[j].tolist()
            for j in reversed(range(4))
        }
        np.testing.assert_array_equal(
            ctx.table_from_rows(rows, worked_db.variables), table
        )
