import json
import re
import time

import jsonschema
import numpy as np
import pytest

from bclearn import (
    FamilyScorer,
    GenerativeSpec,
    OrderConstraint,
    Variable,
    k2_bc,
    load_spec,
    sample,
    spec_to_dict,
)
from bclearn.cli import main
from bclearn.counts import MAX_PATTERNS
from bclearn.search import _finalize
from helpers import FIVE_CASE_CSV, ancestral_submodel, random_network
from oracle_refs import joint_distribution
import schemas


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def worked_csv(tmp_path):
    path = tmp_path / "worked.csv"
    path.write_text(FIVE_CASE_CSV, encoding="utf-8")
    return path


def parse_dot(text):
    """Minimal digraph grammar: header, quoted nodes, quoted edges."""
    lines = [line.strip() for line in text.strip().splitlines()]
    assert lines[0] == "digraph model {"
    assert lines[-1] == "}"
    nodes, edges = set(), set()
    for line in lines[1:-1]:
        edge = re.fullmatch(r'"([^"]+)" -> "([^"]+)";', line)
        node = re.fullmatch(r'"([^"]+)";', line)
        assert edge or node, line
        if edge:
            edges.add(edge.groups())
        else:
            nodes.add(node.group(1))
    return nodes, edges


class TestLearn:
    def test_worked_example_is_deterministic(self, tmp_path, worked_csv, capsys):
        outs = []
        for run_index in range(2):
            out = tmp_path / f"model{run_index}.json"
            dot = tmp_path / f"model{run_index}.dot"
            code = run([
                "learn", "--data", worked_csv, "--order", "X1,X2,X3",
                "--out", out, "--dot", dot,
            ])
            assert code == 0
            outs.append((out.read_bytes(), dot.read_bytes()))
        assert outs[0] == outs[1]
        stdout = capsys.readouterr().out
        assert "log_marginal=" in stdout and "time_s=" in stdout

        model = json.loads(outs[0][0].decode())
        jsonschema.validate(model, schemas.MODEL_SCHEMA)
        nodes, edges = parse_dot(outs[0][1].decode())
        assert nodes == {"X1", "X2", "X3"}
        assert edges == {tuple(arc) for arc in model["arcs"]}
        # frozen greedy result on the worked database
        assert model["arcs"] == [["X1", "X2"], ["X1", "X3"]]
        assert model["score"]["total_log_marginal"] == pytest.approx(
            -11.879043076506793, rel=1e-12
        )

    def test_empty_body_with_schema_gives_empty_graph(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("A,B\n", encoding="utf-8")
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"A": ["0", "1"], "B": ["0", "1"]}))
        out = tmp_path / "model.json"
        code = run([
            "learn", "--data", data, "--schema", schema, "--out", out,
        ])
        assert code == 0
        model = json.loads(out.read_text())
        assert model["arcs"] == []
        assert model["score"]["total_log_marginal"] == 0.0

    def test_unknown_order_name_is_validation_error(self, worked_csv, capsys):
        code = run(["learn", "--data", worked_csv, "--order", "X1,X2,Y9"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_data_file_is_validation_error(self, tmp_path, capsys):
        code = run(["learn", "--data", tmp_path / "nope.csv"])
        assert code == 1

    def test_cell_over_the_csv_field_limit_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("A,B\n1,2\n2," + "x" * 200_000 + "\n", encoding="utf-8")
        assert run(["learn", "--data", data]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: line 3: ")

    def test_invalid_utf8_names_the_file_and_the_byte_offset(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"A,B\n" + b"1,2\n" * 5000 + b"1,\xff\n")
        assert run(["learn", "--data", data]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: byte 20006 is not valid UTF-8 (invalid start byte)\n"
        )

    @pytest.mark.parametrize("n_states, code", [(32768, 0), (32769, 1)])
    def test_more_states_than_int16_codes_is_validation_error(
        self, tmp_path, capsys, n_states, code
    ):
        data = tmp_path / "wide.csv"
        body = "".join(f"{i},{i % 2}\n" for i in range(n_states))
        data.write_text("A,B\n" + body, encoding="utf-8")
        assert run(["learn", "--data", data]) == code
        err = capsys.readouterr().err
        if code:
            assert err == (
                "error: variable 'A' has 32769 states; "
                "int16 state codes index at most 32768\n"
            )

    def test_internal_failure_maps_to_code_two(self, worked_csv, monkeypatch):
        import bclearn.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("wedged")

        monkeypatch.setattr(cli_module, "k2_bc", boom)
        assert run(["learn", "--data", worked_csv]) == 2

    def test_round_refuses_a_later_candidate_before_counting(
        self, tmp_path, capsys, monkeypatch
    ):
        """C's round has candidates A and B; the family of B and C has
        8301 * 8201 entry patterns.  The first level holds the first round
        of A, B and C, and is refused before any of its families is
        counted."""
        n = 8300
        data = tmp_path / "states.csv"
        data.write_text(
            "A,B,C\n" + "".join(f"a{i % 2},b{i},c{i % 8200}\n" for i in range(n)),
            encoding="utf-8",
        )
        sizes = []
        real = np.bincount

        def guarded(codes, minlength=0):
            if minlength > MAX_PATTERNS:
                raise AssertionError(f"bincount of {minlength} slots")
            sizes.append(minlength)
            return real(codes, minlength=minlength)

        monkeypatch.setattr(np, "bincount", guarded)
        assert run(["learn", "--data", data, "--out", tmp_path / "m.json"]) == 1
        assert capsys.readouterr().err == (
            f"error: the family of C has {8301 * 8201} entry patterns, above the "
            "limit of 67108864 (2**26)\n"
        )
        # nothing of the level, so nothing of C's round
        assert sizes == []


class TestScore:
    def test_complete_data_marks_every_family_exact(self, tmp_path, capsys):
        data = tmp_path / "complete.csv"
        data.write_text("X1,X2\n1,1\n2,2\n1,2\n", encoding="utf-8")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"arcs": [["X1", "X2"]]}))
        out = tmp_path / "score.json"
        code = run([
            "score", "--data", data, "--model", model_path, "--out", out,
        ])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schemas.SCORE_REPORT_SCHEMA)
        assert all(f["exact"] for f in report["families"])

    def test_oracle_mixture_is_attached(self, tmp_path, worked_csv):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"arcs": [["X1", "X3"], ["X2", "X3"]]}))
        out = tmp_path / "score.json"
        code = run([
            "score", "--data", worked_csv, "--model", model_path,
            "--oracle", "--out", out,
        ])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schemas.SCORE_REPORT_SCHEMA)
        assert report["oracle"]["exact_marginal"] == pytest.approx(
            23 / 2073600, rel=1e-9
        )

    def test_oracle_cap_exceeded_is_validation_error(self, tmp_path, worked_csv):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"arcs": []}))
        code = run([
            "score", "--data", worked_csv, "--model", model_path,
            "--oracle", "--oracle-cap", "8",
        ])
        assert code == 1


class TestEstimate:
    def test_uniform_phi_reports_half_per_cell(self, tmp_path, worked_csv):
        out = tmp_path / "est.json"
        code = run([
            "estimate", "--data", worked_csv, "--child", "X3",
            "--parents", "X1,X2", "--phi", "uniform", "--out", out,
        ])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, schemas.ESTIMATE_REPORT_SCHEMA)
        assert report["child"] == "X3"
        assert report["fraction_missing"] == pytest.approx(0.4)
        first = report["configurations"][0]
        assert first["config"] == "1,1"
        assert first["comp"] == [2, 2]
        assert first["p_hat"] == [0.5, 0.5]

    def test_oracle_expectation_within_bounds(self, tmp_path, worked_csv):
        out = tmp_path / "est.json"
        code = run([
            "estimate", "--data", worked_csv, "--child", "X3",
            "--parents", "X1,X2", "--oracle", "--out", out,
        ])
        assert code == 0
        report = json.loads(out.read_text())
        for config in report["configurations"]:
            for low, mid, high in zip(
                config["p_min"], config["exact_expectation"], config["p_max"]
            ):
                assert low - 1e-12 <= mid <= high + 1e-12

    def test_user_phi_file(self, tmp_path, worked_csv):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({
            "1,1": [0.9, 0.1], "1,2": [0.5, 0.5],
            "2,1": [0.5, 0.5], "2,2": [0.5, 0.5],
        }))
        out = tmp_path / "est.json"
        code = run([
            "estimate", "--data", worked_csv, "--child", "X3",
            "--parents", "X1,X2", "--phi", phi_path, "--out", out,
        ])
        assert code == 0
        report = json.loads(out.read_text())
        first = report["configurations"][0]
        # 0.1 * 1/4 + 0.9 * 3/4
        assert first["p_hat"][0] == pytest.approx(0.7)

    def test_bad_phi_file_is_validation_error(self, tmp_path, worked_csv):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"1,1": [0.9, 0.3]}))
        code = run([
            "estimate", "--data", worked_csv, "--child", "X3",
            "--parents", "X1,X2", "--phi", phi_path,
        ])
        assert code == 1

    def test_phi_file_not_usable_for_learn(self, tmp_path, worked_csv, capsys):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text("{}")
        code = run([
            "learn", "--data", worked_csv, "--phi", phi_path,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'mar'" in err and "'uniform'" in err


    def test_pattern_code_overflow_is_validation_error(self, tmp_path, capsys):
        # 41 binary columns: the family's 3**41 entry patterns exceed the cap
        names = [f"V{i}" for i in range(41)]
        data = tmp_path / "wide.csv"
        data.write_text(
            ",".join(names) + "\n" + ",".join("a" * 41) + "\n"
            + ",".join("b" * 41) + "\n",
            encoding="utf-8",
        )
        code = run([
            "estimate", "--data", data, "--child", "V0",
            "--parents", ",".join(names[1:]),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: the family of V0 has {3**41} entry patterns, above the "
            "limit of 67108864 (2**26)\n"
        )


class TestSimulate:
    def test_missing_token_equal_to_a_state_is_refused(self, tmp_path, capsys):
        out = tmp_path / "amb.csv"
        code = run([
            "simulate", "--spec", "M1", "--n", 5, "--missing-token", "1",
            "--out", out, "--meta", tmp_path / "meta.json",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: missing token '1' is a state of 'X1'\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = run([
                "simulate", "--spec", "M1", "--n", 50, "--seed", 7,
                "--out", out,
            ])
            assert code == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_meta_and_schema_sidecars(self, tmp_path):
        out = tmp_path / "d.csv"
        meta = tmp_path / "meta.json"
        schema = tmp_path / "schema.json"
        code = run([
            "simulate", "--spec", "M1", "--n", 40, "--seed", 3,
            "--delete-fraction", "0.5", "--out", out,
            "--meta", meta, "--schema-out", schema,
        ])
        assert code == 0
        meta_data = json.loads(meta.read_text())
        assert meta_data["rng"] == "numpy PCG64 (default_rng)"
        assert meta_data["seed"] == 3
        body = out.read_text().strip().splitlines()[1:]
        missing = sum(line.split(",").count("?") for line in body)
        assert missing == round(0.5 * 40 * 3)
        schema_data = json.loads(schema.read_text())
        assert schema_data == {"X1": ["1", "2"], "X2": ["1", "2"], "X3": ["1", "2"]}

    def test_custom_spec_file(self, tmp_path):
        from bclearn import builtin_spec, spec_to_dict

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_dict(builtin_spec("M2"))))
        out = tmp_path / "d.csv"
        assert run([
            "simulate", "--spec", spec_path, "--n", 10, "--seed", 1,
            "--out", out,
        ]) == 0
        assert len(out.read_text().strip().splitlines()) == 11

    def test_unknown_spec_is_validation_error(self, tmp_path):
        code = run([
            "simulate", "--spec", tmp_path / "missing.json",
            "--out", tmp_path / "d.csv",
        ])
        assert code == 1
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("mutate", [
        lambda d: d["cpts"]["X2"].update({"9": [0.5, 0.5]}),
        lambda d: d["cpts"].update({"X9": {"": [1.0]}}),
    ], ids=["unknown-label", "unknown-variable"])
    def test_spec_with_unknown_labels_is_validation_error(
        self, tmp_path, capsys, mutate
    ):
        from bclearn import builtin_spec

        data = spec_to_dict(builtin_spec("M1"))
        mutate(data)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        out = tmp_path / "d.csv"
        assert run(["simulate", "--spec", spec_path, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_scalar_table_row_is_validation_error(tmp_path, worked_csv, capsys, command):
    if command == "estimate":
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"1": 0.5, "2": 0.5}))
        argv = ["estimate", "--data", worked_csv, "--child", "X2", "--parents", "X1",
                "--phi", phi_path]
    else:
        from bclearn import builtin_spec

        data = spec_to_dict(builtin_spec("M1"))
        data["cpts"]["X2"]["1"] = 0.5
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        argv = ["simulate", "--spec", spec_path, "--out", tmp_path / "d.csv"]
    assert run(argv) == 1
    assert "row '1' is not a list of entries: 0.5" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [None, float("nan"), float("inf"), -float("inf")],
                         ids=["null", "nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_non_finite_table_entry_is_validation_error(
    tmp_path, worked_csv, capsys, command, entry
):
    if command == "estimate":
        table_path = tmp_path / "phi.json"
        table_path.write_text(json.dumps({"1": [0.5, entry], "2": [0.5, 0.5]}))
        out = tmp_path / "estimate.json"
        argv = ["estimate", "--data", worked_csv, "--child", "X2", "--parents", "X1",
                "--phi", table_path, "--out", out]
    else:
        from bclearn import builtin_spec

        data = spec_to_dict(builtin_spec("M1"))
        data["cpts"]["X2"]["1"] = [entry, 0.5]
        table_path = tmp_path / "spec.json"
        table_path.write_text(json.dumps(data))
        out = tmp_path / "d.csv"
        argv = ["simulate", "--spec", table_path, "--out", out]
    assert run(argv) == 1
    assert "row '1' has a non-finite entry" in capsys.readouterr().err
    assert not out.exists()


class TestBench:
    def test_report_is_deterministic_and_valid(self, tmp_path, capsys):
        # full ladder 100..0 in steps of 20: six rows per seed
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            timings = tmp_path / f"t_{name}"
            code = run([
                "bench", "--spec", "M1", "--n", 150, "--seeds", "1,2",
                "--ladder", "100,80,60,40,20,0",
                "--out", out, "--timings", timings,
            ])
            assert code == 0
            reports.append(out.read_bytes())
            timing_data = json.loads(timings.read_text())
            assert len(timing_data["rows"]) == 12
            assert all(r["wall_time_s"] >= 0 for r in timing_data["rows"])
        assert reports[0] == reports[1]

        report = json.loads(reports[0].decode())
        jsonschema.validate(report, schemas.BENCH_REPORT_SCHEMA)
        assert report["meta"]["rng"] == "numpy PCG64 (default_rng)"
        assert len(report["rows"]) == 12
        per_seed = [r for r in report["rows"] if r["seed"] == 1]
        assert [r["pct_available"] for r in per_seed] == [100, 80, 60, 40, 20, 0]
        stdout = capsys.readouterr().out
        assert "time_s=" in stdout

    @pytest.mark.parametrize("option", ["--ladder", "--seeds"])
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_list_is_refused_before_sampling(
        self, tmp_path, capsys, monkeypatch, option, value
    ):
        """An empty ``--ladder`` or ``--seeds`` would write a report of no
        rows: it is a validation error, raised before any case is drawn, and
        nothing is written."""

        def unreachable(*args, **kwargs):
            raise AssertionError("sample called")

        monkeypatch.setattr("bclearn.cli.sample", unreachable)
        out, timings = tmp_path / "e.json", tmp_path / "t.json"
        code = run([
            "bench", "--spec", "M1", "--n", 50, option, value,
            "--out", out, "--timings", timings,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {option} lists no value\n"
        assert not out.exists() and not timings.exists()

    def test_zero_percent_rung_learns_nothing(self, tmp_path):
        out = tmp_path / "r.json"
        code = run([
            "bench", "--spec", "M1", "--n", 100, "--seeds", "5",
            "--ladder", "0", "--out", out,
        ])
        assert code == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["arcs"] == []
        assert row["pct_available"] == 0

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run([
            "bench", "--spec", "M1", "--n", 100, "--seeds", "3",
            "--ladder", "100,50", "--format", "csv", "--out", out,
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("seed,pct_available,arcs,arc_difference")
        assert len(lines) == 3

    def test_sixteen_variable_network(self, tmp_path):
        # learn_wide's generating network: a marginal of the full 3**16 joint
        # took minutes; the oracle below sums joints over at most 9 variables
        variables = tuple(Variable(f"X{i:02d}", ("0", "1", "2")) for i in range(16))
        network = random_network(np.random.default_rng(1302), variables)
        spec_path = tmp_path / "wide.json"
        spec_path.write_text(json.dumps(spec_to_dict(GenerativeSpec(network, 2000))))
        out = tmp_path / "r.json"
        start = time.perf_counter()
        code = run([
            "bench", "--spec", spec_path, "--n", 2000, "--seeds", "0",
            "--ladder", "100", "--max-parents", 3, "--out", out,
        ])
        assert code == 0
        assert time.perf_counter() - start <= 30.0
        row = json.loads(out.read_text())["rows"][0]

        # the learned model as bench learns it: the 100% rung deletes nothing
        sample_seed, _ = np.random.SeedSequence(0).spawn(2)
        dataset = sample(load_spec(spec_path).with_overrides(seed=sample_seed))
        model = k2_bc(dataset, OrderConstraint(tuple(range(16)), max_parents=3))
        assert [f"{p}->{c}" for p, c in model.named_arcs()] == row["arcs"]
        for i, v in enumerate(model.variables):
            sub = ancestral_submodel(model, i)
            joint = joint_distribution(sub)
            axis = sub.variables.index(v)
            others = tuple(a for a in range(joint.ndim) if a != axis)
            reported = np.array(row["marginals"][v.name])
            assert np.abs(reported - joint.sum(axis=others)).max() <= 1e-12

    @staticmethod
    def write_independent_spec(tmp_path, n_variables):
        variables = tuple(Variable(f"V{i}", ("0", "1")) for i in range(n_variables))
        network = random_network(np.random.default_rng(5), variables, max_parents=0)
        spec_path = tmp_path / "wide.json"
        spec_path.write_text(json.dumps(spec_to_dict(GenerativeSpec(network, 20))))
        return spec_path

    def test_more_variables_than_einsum_labels(self, tmp_path):
        # numpy's einsum takes 52 labels per call; each marginal's call
        # labels only that variable's ancestors
        spec_path = self.write_independent_spec(tmp_path, 53)
        out = tmp_path / "r.json"
        code = run([
            "bench", "--spec", spec_path, "--seeds", "1", "--ladder", "100,60",
            "--out", out,
        ])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 2
        for row in rows:
            assert sorted(row["marginals"]) == sorted(f"V{i}" for i in range(53))

    def test_more_ancestors_than_einsum_labels_is_validation_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # the first rung learns no arc, every later one a 53-variable chain
        rungs = []

        def chain_k2(dataset, order, **kwargs):
            chain = [()] + [(i - 1,) for i in range(1, dataset.n_variables)]
            if not rungs:
                chain = [()] * dataset.n_variables
            rungs.append(dataset)
            return _finalize(dataset, chain, FamilyScorer(dataset))

        monkeypatch.setattr("bclearn.cli.k2_bc", chain_k2)
        spec_path = self.write_independent_spec(tmp_path, 53)
        out, timings = tmp_path / "r.json", tmp_path / "t.json"
        code = run([
            "bench", "--spec", spec_path, "--seeds", "4", "--ladder", "100,60",
            "--out", out, "--timings", timings,
        ])
        assert code == 1 and len(rungs) == 2
        assert capsys.readouterr().err == (
            "error: seed 4, 60% available: marginals are limited to 52 "
            "ancestors per variable, itself included; V52 has 53\n"
        )
        # all or nothing: the finished 100 % rung is not written either
        assert not out.exists() and not timings.exists()

    def test_marginal_past_max_patterns_is_validation_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # the rung learns a chain of 27 binary variables, and V26's path is
        # one step over all 27 ancestors' CPTs: 2**27 combinations
        def chain_k2(dataset, order, **kwargs):
            chain = [()] + [(i - 1,) for i in range(1, dataset.n_variables)]
            return _finalize(dataset, chain, FamilyScorer(dataset))

        einsum_path = np.einsum_path

        def naive_for_v26(*operands, optimize):
            path, report = einsum_path(*operands, optimize=optimize)
            if len(operands) // 2 == 27:
                path = ["einsum_path", tuple(range(27))]
            return path, report

        monkeypatch.setattr("bclearn.cli.k2_bc", chain_k2)
        monkeypatch.setattr(np, "einsum_path", naive_for_v26)
        spec_path = self.write_independent_spec(tmp_path, 27)
        out = tmp_path / "r.json"
        code = run([
            "bench", "--spec", spec_path, "--seeds", "4", "--ladder", "100",
            "--out", out,
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: seed 4, 100% available: the marginal of V26 needs a "
            "contraction over 134217728 state combinations, more than 67108864\n"
        )
        assert not out.exists()

    def test_missing_token_is_not_a_bench_flag(self, tmp_path):
        # bench reads and writes no CSV
        code = run([
            "bench", "--spec", "M1", "--n", 20, "--seeds", "1", "--ladder", "100",
            "--missing-token", "x",
        ])
        assert code == 1

    def test_bad_ladder_is_validation_error(self, tmp_path):
        code = run([
            "bench", "--spec", "M1", "--seeds", "1", "--ladder", "120",
        ])
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--phi", "nope.json"], "score with phi 'mar' or 'uniform', not 'nope.json'"),
        (["--alpha", "-1"], "alpha must be finite and strictly positive, got -1.0"),
        (["--beta", "0"], "beta must be finite and strictly positive, got 0.0"),
        (["--max-parents", "-1"], "max_parents must be nonnegative"),
        (["--order", "X1,X2,X2"], "order must be a permutation of all variables"),
        (["--alpha", "1e306"], "prior alpha=1e+306, beta=1.0 is too large: the log "
                               "Gamma of a Dirichlet weight exceeds the largest float"),
    ])
    def test_bad_option_is_refused_before_sampling(
        self, capsys, monkeypatch, flags, message
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("sample called")

        monkeypatch.setattr("bclearn.cli.sample", unreachable)
        code = run([
            "bench", "--spec", "M1", "--seeds", "1", "--ladder", "100", *flags,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestPriorValidation:
    @pytest.mark.parametrize("command", [
        ["learn"], ["estimate", "--child", "X3", "--parents", "X1,X2"],
    ])
    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_nonpositive_or_nonfinite_is_validation_error(
        self, worked_csv, capsys, command, flag, value
    ):
        code = run([command[0], "--data", worked_csv, *command[1:], flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and flag[2:] in err

    @pytest.mark.parametrize("command", [
        ["learn"], ["estimate", "--child", "X3", "--parents", "X1,X2"],
    ])
    def test_precision_above_the_largest_float_is_validation_error(
        self, worked_csv, capsys, command
    ):
        # alpha_hat = c * alpha + n is about 2e308 for the binary child
        code = run(
            [command[0], "--data", worked_csv, *command[1:], "--alpha", "1e308"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "alpha=1e+308" in err

    @pytest.mark.parametrize("command", [
        ["learn"], ["estimate", "--child", "X3", "--parents", "X1,X2"],
    ])
    @pytest.mark.parametrize(
        "flag, value", [("--alpha", "1e300"), ("--beta", "1e308")]
    )
    def test_huge_prior_below_the_float_range_still_runs(
        self, worked_csv, capsys, command, flag, value
    ):
        code = run([command[0], "--data", worked_csv, *command[1:], flag, value])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["learn", "--data", "{csv}", "--alpha", "3e305"],
        ["learn", "--data", "{csv}", "--alpha", "1e306"],
        ["score", "--data", "{csv}", "--model", "{model}", "--alpha", "1e306"],
        ["bench", "--spec", "M1", "--n", "50", "--seeds", "1", "--ladder", "100",
         "--alpha", "1e306"],
    ], ids=["learn-3e305", "learn-1e306", "score-1e306", "bench-1e306"])
    def test_log_gamma_above_the_largest_float_is_validation_error(
        self, tmp_path, worked_csv, capsys, argv
    ):
        # c * alpha is at least 6e305, past lgamma's float range, while the
        # posterior precision is still a float
        model = tmp_path / "model.json"
        model.write_text('{"arcs": [["X1", "X3"]]}', encoding="utf-8")
        code = run([a.format(csv=worked_csv, model=model) for a in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: prior alpha=") and "is too large" in err


def test_refused_allocation_is_validation_error(tmp_path, capsys, monkeypatch):
    """An allocation the system refuses exits 1 with a message.  The refusal
    is simulated: a real oversized allocation may be granted by a host that
    overcommits memory and then killed."""
    def refused(*args, **kwargs):
        raise MemoryError("Unable to allocate 559. GiB for an array")

    monkeypatch.setattr("bclearn.cli.sample", refused)
    code = run([
        "simulate", "--spec", "M1", "--n", 10**11, "--out", tmp_path / "d.csv",
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: Unable to allocate 559. GiB for an array\n"
    )
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--data", "{csv}", "--child", "X3", "--phi", "{nope}"],
    ["score", "--data", "{csv}", "--model", "{nope}"],
    ["simulate", "--spec", "{nope}", "--out", "{dir}/d.csv"],
    ["bench", "--spec", "{nope}", "--seeds", "1", "--ladder", "100"],
    ["learn", "--data", "{csv}", "--schema", "{nope}"],
    ["learn", "--data", "{csv}", "--out", "{nodir}/m.json"],
    ["simulate", "--spec", "M1", "--n", "5", "--out", "{nodir}/z.csv"],
], ids=[
    "estimate-phi", "score-model", "simulate-spec", "bench-spec",
    "learn-schema", "learn-out", "simulate-out",
])
def test_unopenable_file_is_validation_error(tmp_path, worked_csv, capsys, argv):
    paths = {
        "csv": str(worked_csv),
        "dir": str(tmp_path),
        "nope": str(tmp_path / "nope.json"),
        "nodir": str(tmp_path / "no" / "such" / "dir"),
    }
    argv = [arg.format(**paths) for arg in argv]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert paths["nope"] in err or paths["nodir"] in err


@pytest.mark.parametrize("argv, content", [
    (["score", "--data", "{csv}", "--model", "{json}"], []),
    (["score", "--data", "{csv}", "--model", "{json}"], {"arcs": 5}),
    (["score", "--data", "{csv}", "--model", "{json}"], {"arcs": [["X1"]]}),
    (["score", "--data", "{csv}", "--model", "{json}"], {"arcs": ["X1"]}),
    (["estimate", "--data", "{csv}", "--child", "X3", "--parents", "X1",
      "--phi", "{json}"], "1,0.5"),
    (["simulate", "--spec", "{json}", "--out", "{dir}/d.csv"],
     lambda spec: {**spec, "cpts": "X1 X2 X3"}),
    (["bench", "--spec", "{json}", "--seeds", "1", "--ladder", "100"],
     lambda spec: {**spec, "cpts": "X1 X2 X3"}),
    (["simulate", "--spec", "{json}", "--out", "{dir}/d.csv"],
     lambda spec: {**spec, "variables": [{"name": "X1", "states": "12"}, *spec["variables"][1:]]}),
    (["bench", "--spec", "{json}", "--seeds", "1", "--ladder", "100"],
     lambda spec: {**spec, "variables": [{"name": "X1", "states": [1, 2]}, *spec["variables"][1:]]}),
    (["simulate", "--spec", "{json}", "--out", "{dir}/d.csv"], lambda spec: {**spec, "n": True}),
    (["simulate", "--spec", "{json}", "--out", "{dir}/d.csv"], lambda spec: {**spec, "n": 2.9}),
    (["simulate", "--spec", "{json}", "--out", "{dir}/d.csv"], lambda spec: {**spec, "n": "3"}),
    (["simulate", "--spec", "{json}", "--out", "{dir}/d.csv"], lambda spec: {**spec, "seed": 2.9}),
    (["simulate", "--spec", "{json}", "--out", "{dir}/d.csv"], lambda spec: {**spec, "seed": "x"}),
    (["simulate", "--spec", "{json}", "--out", "{dir}/d.csv"], lambda spec: {**spec, "seed": -1}),
    (["simulate", "--spec", "{json}", "--out", "{dir}/d.csv"], lambda spec: {**spec, "seed": True}),
    (["bench", "--spec", "{json}", "--seeds", "1", "--ladder", "100"],
     lambda spec: {**spec, "seed": 2.9}),
    (["simulate", "--spec", "{json}", "--out", "{dir}/d.csv", "--meta", "{dir}/m.json"],
     lambda spec: {**spec, "name": 5}),
], ids=[
    "score-model-list", "score-arcs-number", "score-arc-of-one",
    "score-arc-string", "estimate-phi-string", "simulate-cpts-string",
    "bench-cpts-string", "simulate-states-string", "bench-states-numbers",
    "simulate-n-true", "simulate-n-float", "simulate-n-string",
    "simulate-seed-float", "simulate-seed-string", "simulate-seed-negative",
    "simulate-seed-true", "bench-seed-float", "simulate-name-number",
])
def test_malformed_json_is_validation_error(tmp_path, worked_csv, capsys, argv, content):
    if callable(content):
        content = content(spec_to_dict(load_spec("M1")))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    paths = {"csv": str(worked_csv), "dir": str(tmp_path), "json": str(path)}
    assert run([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()
    assert not (tmp_path / "m.json").exists()


class TestParser:
    def test_missing_subcommand_is_validation_error(self, capsys):
        assert run([]) == 1

    def test_unknown_flag_is_validation_error(self, worked_csv):
        assert run(["learn", "--data", worked_csv, "--bogus"]) == 1
