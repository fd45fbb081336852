"""Tests of the benchmark's own code: span arithmetic, CSV failure
counting, the reference gate, the speed scaling of end-to-end times and
the metric names it reports."""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from bench import harness  # noqa: E402
from bench.speed import REFERENCE_S  # noqa: E402
from bench.tracing import (  # noqa: E402
    Tracer, layer_targets, self_times, solve_phases, top_level_seconds)
from bench.workloads import (  # noqa: E402
    WORKLOADS, SolveRow, check_solve, count_failures, first_order_violations,
    load_reference, parse_study_csv, study)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_subtracts_children_and_leaves():
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, None],
        ["inner", 5.0, 6.0, 0, None],
        ["deep", 2.0, 3.5, 1, None],
    ]
    leaves = {(0, "leaf"): [3, 0.5], (3, "leaf"): [1, 0.25],
              (-1, "leaf"): [2, 0.75]}
    own = self_times(spans, leaves)
    assert own["outer"] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert own["inner"] == pytest.approx(3.0 - 1.5 + 1.0)
    assert own["deep"] == pytest.approx(1.5 - 0.25)
    assert own["leaf"] == pytest.approx(1.5)
    # self times plus the time outside every span make up the pass
    assert top_level_seconds(spans, leaves) == pytest.approx(10.75)
    pass_seconds = 12.0
    other = pass_seconds - top_level_seconds(spans, leaves)
    assert sum(own.values()) + other == pytest.approx(pass_seconds)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class _Owner:
    def work(self, fail=False):
        self.leafy()
        if fail:
            raise ValueError("boom")
        return 7

    def leafy(self):
        return 1

    def outer_leaf(self):
        return self.leafy() + self.leafy()


def test_tracer_records_nested_spans_errors_and_restores():
    original = _Owner.__dict__["work"]
    tracer = Tracer(clock=_Clock())
    targets = [("toy.work", _Owner, "work"), ("expr.call", _Owner, "leafy")]
    with tracer.installed(targets):
        assert _Owner().work() == 7
        with pytest.raises(ValueError):
            _Owner().work(fail=True)
    assert _Owner.__dict__["work"] is original
    assert [s[0] for s in tracer.spans] == ["toy.work", "toy.work"]
    assert [s[4] for s in tracer.spans] == [None, "ValueError"]
    assert tracer.counts["toy.work"] == 2
    assert tracer.counts["expr.call"] == 2
    assert tracer.counts["expr.points"] == 2
    assert tracer.leaves[(0, "expr.call")][0] == 1
    own = self_times(tracer.spans, tracer.leaves)
    assert own["toy.work"] + own["expr.call"] == pytest.approx(
        sum(s[2] - s[1] for s in tracer.spans))


def test_nested_leaf_seconds_are_counted_once():
    tracer = Tracer(clock=_Clock())
    targets = [("toy.work", _Owner, "work"),
               ("quadrature.decompose", _Owner, "outer_leaf"),
               ("expr.call", _Owner, "leafy")]
    with tracer.installed(targets):
        assert _Owner().outer_leaf() == 2
        _Owner().work()
    # clock ticks: outer 1..6 wraps leafy 2..3 and 4..5
    assert tracer.leaves[(-1, "expr.call")] == [2, pytest.approx(2.0)]
    assert tracer.leaves[(-1, "quadrature.decompose")] == [
        1, pytest.approx(5.0 - 2.0)]
    assert tracer.counts["expr.call"] == 3
    own = self_times(tracer.spans, tracer.leaves)
    assert own["quadrature.decompose"] == pytest.approx(3.0)
    assert own["expr.call"] == pytest.approx(2.0 + 1.0)
    # the outer leaf's 5 s and the span's 3 s, each counted once
    assert top_level_seconds(tracer.spans, tracer.leaves) == pytest.approx(8.0)
    assert sum(own.values()) == pytest.approx(8.0)


def test_solve_phases_split_setup_from_iterations():
    spans = [
        ["cli.load", 0.0, 0.5, -1, None],
        ["problem.validate", 0.5, 0.75, -1, None],
        ["newton.iterate", 1.0, 9.0, -1, None],
        ["pc.solve", 3.0, 4.0, 2, None],
        ["pc.solve", 5.0, 6.0, 2, None],
        ["newton.iterate", 10.0, 12.0, -1, "SolverError"],
    ]
    setup, iterations = solve_phases(spans)
    assert setup == pytest.approx([0.5, 0.25, 2.0, 2.0])
    assert iterations == pytest.approx([2.0, 4.0])


CSV = ("m,eps_1,t_max_1,eps,iterations,error\r\n"
       "2,0.5,1.0,0.5,2,\r\n"
       "3,0.25,1.0,0.25,2,\r\n"
       '11,,,,,"singular matrix (pivot 1e-14, threshold 1e-13)"\r\n')


def test_csv_error_rows_count_as_failures():
    rows = parse_study_csv("model02 collocation", CSV)
    assert [r.key for r in rows] == [
        "model02 collocation m=2", "model02 collocation m=3",
        "model02 collocation m=11"]
    assert rows[0] == SolveRow("model02 collocation m=2", 0.5, 2, None)
    assert rows[2].error == "singular matrix (pivot 1e-14, threshold 1e-13)"
    assert count_failures(rows) == 1
    residual = parse_study_csv("x pc", "N,residual_sup,iterations\r\n"
                                       "32,0.001,2\r\n")
    assert residual[0].value == 0.001 and count_failures(residual) == 0


def test_reference_gate():
    ok = {"error": None, "value": 1e-3, "iterations": 6}
    row = SolveRow("k", 1e-3, 6)
    assert check_solve(row, None, ok)[0] == "ok"
    assert check_solve(SolveRow("k", 2e-3, 6), None, ok)[0] == "mismatch"
    assert check_solve(SolveRow("k", 1e-3, 7), None, ok)[0] == "mismatch"
    assert check_solve(SolveRow("k", 1e-4, 7), None, ok)[0] == "ok"
    failed = SolveRow("k", error="diverged")
    assert check_solve(failed, "DivergenceError", ok)[0] == "mismatch"
    known = {"error": "DivergenceError"}
    assert check_solve(failed, "DivergenceError", known)[0] == "ok"
    assert check_solve(failed, "SolverError", known)[0] == "mismatch"
    assert check_solve(row, None, known)[0] == "recovered"
    assert check_solve(row, None, None)[0] == "mismatch"


def test_first_order_ratio_band():
    rows = [SolveRow(f"pc N={n}", v) for n, v in
            ((32, 0.04), (64, 0.02), (128, 0.019))]
    bad = first_order_violations(rows)
    assert len(bad) == 1 and "N=64 -> pc N=128" in bad[0]


def test_reference_holds_the_known_failures():
    reference = load_reference()
    assert reference["nonlinear-sys2 pc N=128"] == {"error": "DivergenceError"}
    for m in (11, 12):
        assert reference[f"model02 collocation m={m}"] == {
            "error": "SolverError"}
    assert sum(r["error"] is not None for r in reference.values()) == 3


def test_metric_names_are_well_formed_and_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [m["name"] for m in config["end_to_end"]]
    layers = [m["name"] for m in config["per_layer"]]
    assert e2e == list(harness.E2E_METRICS)
    assert layers == list(harness.layer_metric_units())
    assert set(w["name"] for w in config["workloads"]) <= set(WORKLOADS)
    names = e2e + layers + list(WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    units = dict(harness.E2E_METRICS, **harness.layer_metric_units())
    for m in config["end_to_end"] + config["per_layer"]:
        assert m["unit"] == units[m["name"]]
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])


def test_every_traced_span_lands_in_one_self_time_metric():
    spans = {name for name, _, _ in layer_targets()}
    grouped = [s for group in harness.SELF_TIME_METRICS.values()
               for s in group]
    assert sorted(grouped) == sorted(spans)


def test_a_small_study_pass_lines_up_rows_and_solves():
    from bandvie import cli
    from bench.tracing import e2e_targets

    inv = study("nonlinear-scalar", "pc", "8,16")
    p = harness.run_pass(cli, Tracer(), [inv], e2e_targets())
    solved = harness.solve_rows(p, [inv])
    assert [row.key for row, _ in solved] == [
        "nonlinear-scalar pc N=8", "nonlinear-scalar pc N=16"]
    assert all(cls is None and row.iterations for row, cls in solved)
    setup, iterations = solve_phases(p.tracer.spans)
    assert 0.0 < sum(setup) + sum(iterations) < p.seconds
    assert len(iterations) == sum(row.iterations for row, _ in solved)


def test_times_are_scaled_by_the_gauge_around_each_pass():
    from bandvie import cli

    inv = study("nonlinear-scalar", "pc", "8")
    gauges = iter([REFERENCE_S, 3.0 * REFERENCE_S])
    untraced, traced = harness.measure(cli, [inv], 0.0, False,
                                       gauge=lambda: next(gauges))
    assert traced == [] and len(untraced) == 1
    p = untraced[0]
    assert p.scale == pytest.approx(0.5)
    check = harness.Check(1, 1, [], [], [3.0], [])
    values, detail = harness.e2e_metrics(untraced, check)
    setup, iterations = solve_phases(p.tracer.spans)
    assert values["wall_s"] == pytest.approx(0.5 * p.seconds)
    assert values["setup_s"] == pytest.approx(0.5 * sum(setup))
    assert detail["unscaled"]["wall_s"] == p.seconds
    assert detail["unscaled"]["setup_s"] == pytest.approx(sum(setup))
