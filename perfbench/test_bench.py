"""Self-checks of the benchmark: tracer accounting, the gate, metric output.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import json
from pathlib import Path

import pytest

import child
import run
import tracer
import workloads

BENCHMARK_JSON = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def small(name, tmp_path):
    if name == "analytic-figures":
        wl = workloads.AnalyticFigures(5, grid_points=3)
    elif name == "mc-validate":
        wl = workloads.McValidate(5, trials=20)
    else:
        wl = workloads.CliSweeps(5, tmp_path)
    return wl


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    return small("cli-sweeps", tmp_path_factory.mktemp("cli"))


def test_layer_self_times_within_traced_wall(tmp_path, cli):
    for wl in (small("analytic-figures", tmp_path), small("mc-validate", tmp_path), cli):
        p, total, _ = child.traced_pass(wl, tracer.Tracer())
        layer_sum = sum(total[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert 0.0 < layer_sum <= p.wall_s, wl.name


def test_trial_counts_equal_trials_requested(tmp_path, cli):
    for wl in (small("mc-validate", tmp_path), cli):
        _, total, _ = child.traced_pass(wl, tracer.Tracer())
        assert total["trials"] == wl.trials_per_pass, wl.name
        assert total["calls"]["mc.trial_generator"] == wl.trials_per_pass, wl.name


def test_wrappers_removed_after_pass(tmp_path):
    from densecov import analytic, model
    before = (analytic.derived_constants, model.derived_constants)
    child.traced_pass(small("analytic-figures", tmp_path), tracer.Tracer())
    assert (analytic.derived_constants, model.derived_constants) == before
    assert analytic.derived_constants is model.derived_constants


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(tmp_path, cli, trace):
    listed = BENCHMARK_JSON["per_layer" if trace else "end_to_end"]
    for name in workloads.WORKLOADS:
        wl = cli if name == "cli-sweeps" else small(name, tmp_path)
        record = child.run(wl, seconds=0.0, trace=trace, import_s=0.1)
        assert record["failed"] == 0, name
        emitted = dict(record["metrics"])
        if not trace:
            emitted = {"setup_s": 0.1, **emitted}
        assert sorted(emitted) == sorted(m["name"] for m in listed), name
        for metric in listed:
            assert run.UNITS[metric["name"]] == metric["unit"]
        if not trace:
            assert all(v > 0.0 for v in emitted.values()), name


def test_tail_leaves_ten_samples_beyond():
    points = workloads.GRID_POINTS * len(workloads.FIGURE_CASES)
    repetitions = len(workloads.MC_POINTS) * child.MIN_PASSES
    for cls, n in ((workloads.AnalyticFigures, points), (workloads.McValidate, repetitions)):
        values = list(range(n))
        tail = child.percentile(values, cls.tail_percentile)
        assert sum(v > tail for v in values) >= 10, cls.name


def test_every_operation_gets_a_calibration_scale(tmp_path):
    wl = small("mc-validate", tmp_path)
    cal = child.Calibration()
    cal.start()
    p = wl.run_pass(tick=cal.tick)
    scales = cal.scales(p.ops)
    assert len(scales) == len(p.ops) and all(f > 0.0 for f in scales)


def test_times_are_scaled_and_taken_per_operation(tmp_path):
    wl = small("mc-validate", tmp_path)
    Op, Pass = workloads.Op, workloads.Pass
    passes = [Pass(1.0, [Op("mc_point", 0.2, True, 10, "0"), Op("mc_point", 0.4, True, 10, "1")]),
              Pass(1.0, [Op("mc_point", 0.3, True, 10, "0"), Op("mc_point", 0.3, True, 10, "1")])]
    wl.first = [None] * len(wl.points)
    metrics, named = child.end_to_end(wl, passes, [[2.0, 2.0], [1.0, 1.0]])
    # operation "0": 0.4 and 0.3 s, operation "1": 0.8 and 0.3 s
    assert named["pass_wall_s"] == pytest.approx([1.2, 0.6])
    assert metrics["wall_s"] == pytest.approx(0.9)
    assert metrics["op_p50_ms"] == pytest.approx(450.0)
    # p75 over all four repetitions
    assert metrics["op_tail_ms"] == pytest.approx(400.0)
    assert metrics["work_per_s"] == pytest.approx(20 / 0.9)


def test_reference_table_gates_default_seed():
    wl = workloads.AnalyticFigures(workloads.DEFAULT_SEED)
    assert all(op.ok for op in wl.run_pass().ops)
    key = workloads.case_key(workloads.PathlossModel.BOUNDED_G2, 4.0, 10.0)
    wl.reference["points"][key][7][1] += 2e-6
    failed = [op for op in wl.run_pass().ops if not op.ok]
    assert len(failed) == 1 and failed[0].kind == "point"


def test_mc_gate_rejects_biased_estimate(tmp_path):
    wl = small("mc-validate", tmp_path)
    model, cfg, params, (p, _) = wl.points[2]
    est = workloads.mc.estimate_cp(cfg, model, params)
    assert wl.check(2, est)
    wl.first[2] = None
    biased = dataclasses.replace(est, mean=p + 5.0 * est.stderr + 0.05)
    assert not wl.check(2, biased)


def test_cli_gate_rejects_changed_csv(cli):
    expected = cli.expected["cp-sweep-g1"]
    header = list(expected[0])
    rows = [[v if isinstance(v, str) else workloads._fmt(v) for v in row.values()]
            for row in expected]

    def csv(header, rows):
        return "\n".join(["# comment", ",".join(header)] + [",".join(r) for r in rows])

    assert cli.csv_matches("cp-sweep-g1", csv(header, rows))
    assert not cli.csv_matches("cp-sweep-g1", csv(header[:-1], [r[:-1] for r in rows]))
    rows[3][-1] += "9"
    assert not cli.csv_matches("cp-sweep-g1", csv(header, rows))
