import hashlib

import numpy as np
import pytest
from scipy.stats import chisquare

from bclearn import (
    MISSING,
    DeletionPlan,
    GenerativeSpec,
    Model,
    SimulateError,
    builtin_spec,
    delete_entries,
    delete_ladder,
    load_spec,
    sample,
    save_csv,
    spec_from_dict,
    spec_to_dict,
    summarize_missingness,
)
from helpers import make_dataset


def degenerate_spec(n=10):
    variables = make_dataset((2, 2), [[0, 0]]).variables
    cpts = (np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    model = Model(variables, ((), (0,)), cpts=cpts)
    return GenerativeSpec(model=model, n=n, seed=1)


class TestSample:
    def test_degenerate_network_is_constant(self):
        d = sample(degenerate_spec())
        assert (d.codes == 0).all()

    def test_zero_cases(self):
        d = sample(degenerate_spec(n=0))
        assert d.n_cases == 0

    def test_m1_marginals_within_three_standard_errors(self):
        spec = builtin_spec("M1", seed=7)
        d = sample(spec)
        targets = {"X1": 0.11, "X2": 0.78, "X3": 0.56}
        for i, (name, p) in enumerate(targets.items()):
            se = (p * (1 - p) / spec.n) ** 0.5
            empirical = (d.codes[:, i] == 0).mean()
            assert abs(empirical - p) <= 3 * se, (name, empirical)

    def test_seeded_determinism_is_byte_identical(self, tmp_path):
        spec = builtin_spec("M2", n=200, seed=42)
        a, b = sample(spec), sample(spec)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(a, pa)
        save_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_conditional_frequencies_match_cpts(self):
        # goodness of fit per parent configuration at alpha = 0.001
        for name in ("M1", "M4"):
            spec = builtin_spec(name, n=10000, seed=1234)
            d = sample(spec)
            cards = d.cardinalities
            for child, parents in enumerate(spec.model.parent_sets):
                q = int(np.prod([cards[p] for p in parents])) if parents else 1
                rows = np.zeros(d.n_cases, dtype=int)
                for p in parents:
                    rows = rows * cards[p] + d.codes[:, p]
                for j in range(q):
                    subset = d.codes[rows == j, child]
                    if subset.size < 50:
                        continue
                    observed = np.bincount(subset, minlength=cards[child])
                    expected = spec.model.cpts[child][j] * subset.size
                    keep = expected > 0
                    result = chisquare(observed[keep], expected[keep])
                    assert result.pvalue > 0.001, (name, child, j, result)

    def test_invalid_cpt_row_rejected(self):
        variables = make_dataset((2,), [[0]]).variables
        bad = Model(variables, ((),), cpts=(np.array([[0.7, 0.7]]),))
        with pytest.raises(SimulateError, match="sum to 1"):
            GenerativeSpec(model=bad, n=5)

    @pytest.mark.parametrize("cpts, n, match", [
        (None, 5, "needs CPTs for every variable"),
        ((np.array([[0.5, 0.5]]),), -1, "sample size must be nonnegative"),
        ((np.array([[1.5, -0.5]]),), 5, "negative CPT entry for variable 0"),
    ])
    def test_invalid_spec_rejected(self, cpts, n, match):
        variables = make_dataset((2,), [[0]]).variables
        with pytest.raises(SimulateError, match=match):
            GenerativeSpec(model=Model(variables, ((),), cpts=cpts), n=n)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_cpt_entry_rejected(self, entry):
        variables = make_dataset((2,), [[0]]).variables
        bad = Model(variables, ((),), cpts=(np.array([[entry, 1.0]]),))
        with pytest.raises(SimulateError, match="non-finite CPT entry for variable 0"):
            GenerativeSpec(model=bad, n=5)


def codes_digest(dataset):
    return hashlib.sha256(dataset.codes.tobytes()).hexdigest()


class TestPinnedBytes:
    """sha256 of the sampled and deleted case tables, row-major int16 bytes,
    as drawn by numpy's PCG64 streams before sampling went one state column
    at a time and the deletion ladder shared one permutation."""

    @pytest.mark.parametrize("name, digest", [
        ("M1", "3e3e68d8e4caa407a484d20463e5bf619e20061094870286ccae518fd496f5e7"),
        ("M2", "e3a85098f866c764448f7c5fa187697a24a53e6a274fae615afdf9cbb86e74db"),
        ("M3", "60a43c148232bfeeb4bde72988dda07145e90d30342bc0e4e4bcccb0deab9987"),
        ("M4", "07998b55cbc65f830b1c9a200d5ecec4f749f00c811fcaf272e3962ac11feccc"),
    ])
    def test_sample(self, name, digest):
        assert codes_digest(sample(builtin_spec(name, n=10_000, seed=2024))) == digest

    @pytest.mark.parametrize("fraction, digest", [
        (0.0, "07998b55cbc65f830b1c9a200d5ecec4f749f00c811fcaf272e3962ac11feccc"),
        (0.4, "39c5fbc15ef0eeb19bf8e0d88bd118303a53bf5a8db2d2dc57d91d53635a8656"),
        (0.8, "77177c5f7705fd0187759f22873dc71f7858f161cf12053db5bece3bfd3120b9"),
        (1.0, "be87f6dbe42cdf682276fbecab3636fbfcaa008cf454d635dd77872b50d940aa"),
    ])
    def test_delete_entries(self, fraction, digest):
        complete = sample(builtin_spec("M4", n=10_000, seed=2024))
        holey = delete_entries(complete, DeletionPlan(fraction, seed=11))
        assert codes_digest(holey) == digest


class TestDeleteEntries:
    def test_zero_fraction_is_identity(self):
        d = sample(builtin_spec("M1", n=50, seed=3))
        assert delete_entries(d, DeletionPlan(0.0, seed=1)) == d

    def test_full_fraction_blanks_everything(self):
        d = sample(builtin_spec("M1", n=50, seed=3))
        deleted = delete_entries(d, DeletionPlan(1.0, seed=1))
        assert (deleted.codes == MISSING).all()

    def test_exact_count_at_twenty_percent(self):
        d = sample(builtin_spec("M1", n=1000, seed=3))
        deleted = delete_entries(d, DeletionPlan(0.2, seed=9))
        assert summarize_missingness(deleted).total_missing == 600

    def test_observed_entries_are_untouched(self):
        d = sample(builtin_spec("M2", n=100, seed=5))
        deleted = delete_entries(d, DeletionPlan(0.5, seed=8))
        kept = deleted.codes != MISSING
        assert np.array_equal(deleted.codes[kept], d.codes[kept])

    def test_same_seed_nests_increasing_fractions(self):
        """The cumulative deletion ladder: a larger fraction with the same
        seed masks a superset of entries."""
        d = sample(builtin_spec("M1", n=200, seed=5))
        lighter = delete_entries(d, DeletionPlan(0.2, seed=4))
        heavier = delete_entries(d, DeletionPlan(0.6, seed=4))
        light_mask = lighter.codes == MISSING
        heavy_mask = heavier.codes == MISSING
        assert (heavy_mask | light_mask).sum() == heavy_mask.sum()

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(SimulateError):
            DeletionPlan(1.5, seed=0)

    def test_seeded_positions_are_row_major(self):
        db = make_dataset((3, 3, 3), np.arange(12).reshape(4, 3) % 3)
        holey = delete_entries(db, DeletionPlan(0.5, seed=5))
        assert holey.codes.tolist() == [
            [0, MISSING, MISSING],
            [MISSING, MISSING, 2],
            [0, 1, 2],
            [MISSING, 1, MISSING],
        ]

    def test_original_is_untouched(self):
        d = sample(builtin_spec("M1", n=20, seed=3))
        before = d.codes.copy()
        delete_entries(d, DeletionPlan(0.9, seed=0))
        np.testing.assert_array_equal(d.codes, before)


class TestDeleteLadder:
    @pytest.mark.parametrize("fractions", [
        (0.0, 0.4, 0.8), (0.8, 0.0, 1.0, 0.4), (1.0, 1.0), (0.3,), (),
    ])
    def test_rungs_equal_delete_entries(self, fractions):
        d = sample(builtin_spec("M2", n=300, seed=6))
        seed = np.random.SeedSequence(12)
        rungs = delete_ladder(d, fractions, seed)
        assert len(rungs) == len(fractions)
        for fraction, rung in zip(fractions, rungs):
            assert rung == delete_entries(d, DeletionPlan(fraction, seed=seed))

    def test_draws_no_permutation_without_deletions(self, monkeypatch):
        d = sample(builtin_spec("M1", n=30, seed=3))

        def unreachable(*args, **kwargs):
            raise AssertionError("generator drawn")

        monkeypatch.setattr(np.random, "default_rng", unreachable)
        assert delete_ladder(d, [0.0, 0.0], seed=1) == [d, d]

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_fraction_out_of_range_rejected(self, fraction):
        d = sample(builtin_spec("M1", n=30, seed=3))
        with pytest.raises(SimulateError, match=r"lie in \[0, 1\]"):
            delete_ladder(d, [0.2, fraction], seed=1)

    def test_original_is_untouched(self):
        d = sample(builtin_spec("M1", n=40, seed=3))
        before = d.codes.copy()
        delete_ladder(d, [0.3, 0.9, 1.0], seed=0)
        np.testing.assert_array_equal(d.codes, before)


class TestBuiltinSpecs:
    def test_m1_shape(self):
        spec = builtin_spec("M1")
        assert spec.n == 1000
        assert [v.cardinality for v in spec.model.variables] == [2, 2, 2]
        assert spec.model.named_arcs() == [("X1", "X2"), ("X2", "X3")]

    def test_m3_shape(self):
        spec = builtin_spec("M3")
        assert spec.n == 5000
        assert [v.cardinality for v in spec.model.variables] == [2, 2, 3, 2, 2]
        assert set(spec.model.named_arcs()) == {
            ("X1", "X2"), ("X3", "X4"), ("X3", "X5"),
        }

    def test_m4_shape(self):
        spec = builtin_spec("M4")
        assert spec.n == 10000
        assert [v.cardinality for v in spec.model.variables] == [3, 3, 3, 3, 4]

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulateError, match="unknown builtin"):
            builtin_spec("M9")

    def test_spec_dict_round_trip(self):
        spec = builtin_spec("M3", n=123, seed=9)
        clone = spec_from_dict(spec_to_dict(spec))
        assert clone.n == 123
        assert clone.model.parent_sets == spec.model.parent_sets
        for a, b in zip(clone.model.cpts, spec.model.cpts):
            np.testing.assert_array_equal(a, b)
        assert sample(clone.with_overrides(seed=2)) == sample(
            spec.with_overrides(seed=2)
        )

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d["cpts"]["X2"].pop("1"), "missing configuration '1'"),
        (lambda d: d["cpts"]["X2"].update({"1": [1.0]}), "has 1 entries"),
        (lambda d: d.pop("n"), "'n'"),
        (lambda d: d.pop("variables"), "variable list"),
        (lambda d: d.pop("arcs"), "'arcs'"),
        (lambda d: d["arcs"].append(["X1", "X9"]), "unknown variable"),
        (lambda d: d["cpts"].pop("X3"), "no CPT for variable 'X3'"),
        (lambda d: d["cpts"]["X2"].update({"9": [0.5, 0.5]}),
         r"unknown configurations \['9'\]"),
        (lambda d: d["cpts"].update({"X9": {"": [1.0]}}),
         r"unknown variables \['X9'\]"),
    ], ids=[
        "missing-configuration", "wrong-row-length", "missing-n",
        "missing-variables", "missing-arcs", "unknown-arc-variable",
        "missing-cpt", "unknown-label", "unknown-cpt-variable",
    ])
    def test_malformed_spec_rejected(self, mutate, match):
        data = spec_to_dict(builtin_spec("M1"))
        mutate(data)
        with pytest.raises(SimulateError, match=match):
            spec_from_dict(data)

    def test_spec_file_round_trip(self, tmp_path):
        import json

        spec = builtin_spec("M2", seed=1)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")
        assert load_spec(path).model.parent_sets == spec.model.parent_sets

    def test_builtin_files_match_shipped_schema(self):
        import json
        from importlib import resources

        import jsonschema

        from schemas import GENERATIVE_SPEC_SCHEMA

        for name in ("m1", "m2", "m3", "m4"):
            text = (
                resources.files("bclearn")
                .joinpath(f"builtin/{name}.json")
                .read_text(encoding="utf-8")
            )
            jsonschema.validate(json.loads(text), GENERATIVE_SPEC_SCHEMA)
