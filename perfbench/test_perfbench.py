"""Tests of the benchmark's own machinery: span arithmetic, tracing and checks."""

import json
from pathlib import Path

import pytest

import bclearn.counts
import bclearn.score
from bclearn import DeletionPlan, builtin_spec, cli, delete_entries, sample, save_csv
from calibration import REFERENCE_S, normalized
from run import Run
from tracing import TARGETS, Span, Tracer, op_layer_metrics, self_time
from workloads import CheckError, LearnWide, _check_model

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _span(id, name, start, end, parent, **counts):
    return Span(id, name, start, end, parent, op=0, counts=counts)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    root = _span(0, "cli.main", 0.0, 10.0, None)
    children = [
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 6.0, 0),  # overlaps a
        _span(3, "c", 8.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_time(root, children) == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_time(children[0], [_span(4, "d", 2.0, 3.0, 1)]) == pytest.approx(2.0)
    assert self_time(root, []) == pytest.approx(10.0)


def test_layer_metrics_on_a_hand_built_span_tree():
    spans = [
        _span(0, "cli.main", 0.0, 10.0, None),
        _span(1, "search.k2_bc", 1.0, 9.0, 0),
        _span(2, "score.family", 2.0, 5.0, 1),
        _span(3, "counts.tally", 2.5, 3.0, 2, cases=100, configs=9, touched=3),
        _span(4, "score.log_g_bc", 3.0, 4.5, 2),
        _span(5, "estimate.bc_estimate", 3.5, 4.0, 4, cells=27),
        _span(6, "score.family", 6.0, 6.5, 1),  # answered from the memo
    ]
    m = op_layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["search.k2_bc_self_s"] == pytest.approx(8.0 - 3.0 - 0.5)
    assert m["score.log_g_bc_self_s"] == pytest.approx(1.0)
    assert m["counts.tally_s"] == pytest.approx(0.5)
    assert m["counts.tally_calls"] == 1
    assert m["counts.tally_us_per_case"] == pytest.approx(0.5e6 / 100)
    assert m["counts.touched_ratio"] == pytest.approx(1 / 3)
    assert m["estimate.us_per_cell"] == pytest.approx(0.5e6 / 27)
    assert m["estimate.cells"] == 27
    assert m["score.family_calls"] == 2
    assert m["score.cache_hit_ratio"] == pytest.approx(0.5)
    assert m["search.families_scored"] == 1
    assert m["data.load_csv_s"] == 0


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(op_layer_metrics([])) | {"trace_overhead"}


@pytest.fixture
def holey_csv(tmp_path):
    complete = sample(builtin_spec("M1", n=2000, seed=3))
    path = tmp_path / "holey.csv"
    save_csv(delete_entries(complete, DeletionPlan(0.2, seed=4)), path)
    return path


def _learn(csv_path, out_path, tracer=None):
    argv = ["learn", "--data", str(csv_path), "--out", str(out_path)]
    if tracer is None:
        assert cli.main(argv) == 0
    else:
        with tracer.installed():
            assert tracer.run_op(cli.main, argv) == 0
    return out_path.read_bytes()


def test_tracing_leaves_model_json_byte_identical(holey_csv, tmp_path, capsys):
    plain = _learn(holey_csv, tmp_path / "plain.json")
    tracer = Tracer()
    traced = _learn(holey_csv, tmp_path / "traced.json", tracer)
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {
        "cli.main", "data.load_csv", "search.k2_bc", "score.family",
        "counts.tally", "score.log_g_bc", "estimate.bc_estimate",
        "search.finalize", "search.model_to_json",
    } <= names
    assert all(s.end >= s.start for s in tracer.spans)
    assert bclearn.score.tally is bclearn.counts.tally
    assert not hasattr(bclearn.score.FamilyScorer.score, "__wrapped__")
    assert len(TARGETS) == len({t[2] for t in TARGETS})


def test_model_check_rejects_a_cpt_row_that_does_not_sum_to_one(
    holey_csv, tmp_path, capsys
):
    model = json.loads(_learn(holey_csv, tmp_path / "model.json"))
    assert _check_model(model, max_parents=3)
    rows = model["cpts"]["X3"]
    label = next(iter(rows))
    rows[label] = [x * 0.5 for x in rows[label]]
    with pytest.raises(CheckError, match="sums to"):
        _check_model(model, max_parents=3)


def test_learn_wide_network_is_fixed_and_acyclic_in_column_order():
    a, b = LearnWide().network, LearnWide().network
    assert a.parent_sets == b.parent_sets
    assert all(p < c for c, ps in enumerate(a.parent_sets) for p in ps)
    assert max(len(ps) for ps in a.parent_sets) <= LearnWide.max_parents


def test_normalized_time_rescales_by_the_mean_of_the_neighbouring_calibrations():
    assert normalized(2.0, 0.10, 0.14) == pytest.approx(2.0)
    assert normalized(1.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.5)


def test_each_timed_op_is_normalized_by_the_calibrations_before_and_after_it():
    run = Run.__new__(Run)
    record = dict(kind="missing", traced=False, ok=True, seconds=1.0)
    run.records = [
        dict(record, calibration_s=9.9),  # warm-up: not timed
        dict(record, calibration_s=REFERENCE_S),
        dict(record, kind="reference", calibration_s=3 * REFERENCE_S),
        dict(record, calibration_s=REFERENCE_S),
    ]
    run.timed_from = 1
    run.closing_calibration = REFERENCE_S / 2
    assert run.normalized_times("missing") == pytest.approx([0.5, 4 / 3])
