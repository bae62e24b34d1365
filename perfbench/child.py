"""Workload process: import densecov, warm up, then run passes of one workload
in a closed loop and print one JSON record as the last line of stdout.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
                               --workdir DIR [--probe]

run.py starts it with PYTHONPATH pointing at the checkout's ``src``.  The
line ``ready`` marks the first warm result (the end of set-up); a probe
exits there.  With ``--trace 1`` untraced and traced passes alternate, so
the tracing overhead is measured on the same inputs in the same process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

# the loop runs --seconds and at least MIN_PASSES passes, so that every
# operation has several repetitions (and mc-validate's tail 45 samples), but
# stops at MAX_LOOP_S so that the whole run stays within its limit
MIN_PASSES = 5
MAX_LOOP_S = 120.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (100 - q)% of values lie at or above."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    return 0.5 * (ordered[(n - 1) // 2] + ordered[n // 2])


# About the calibration kernel's median time on the machine the benchmark was
# defined on (Intel Xeon, 2 vCPUs under KVM); times are reported at its speed.
CAL_REF_S = 2.0e-3


def _kernel(np) -> None:
    """Fixed work of the program's mix: an interpreted loop and many small
    numpy calls on counter-based streams, like one MC trial."""
    total = 0
    for i in range(12000):
        total += i * i
    for j in range(60):
        rng = np.random.Generator(np.random.Philox(key=np.array([1, j], dtype=np.uint64)))
        float(np.cumsum(rng.standard_exponential(64)).sum())


class Calibration:
    """Machine speed, sampled all through a pass.

    The benchmark shares its host: the same pass runs up to 1.7 times slower
    while other tenants are busy, for stretches of seconds, and its CPU time
    grows with it.  After each operation ``tick`` runs a fixed kernel for
    about SHARE of the time the operations took, and at least every half
    WINDOW_S, so every operation has kernel runs next to it; ``scales`` turns
    each operation's time into its time at the speed of the reference machine
    (CAL_REF_S).
    """

    SHARE = 0.25
    WINDOW_S = 0.5

    def __init__(self):
        import numpy
        self.np = numpy
        self.start()

    def start(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (start, seconds) per kernel run
        self.op_ends: list[float] = []
        self.owed = 0.0
        self.last = self.last_sample = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        self.op_ends.append(now)
        self.owed += self.SHARE * (now - self.last)
        while self.owed > 0.0 or now - self.last_sample > self.WINDOW_S / 2:
            t0 = time.perf_counter()
            _kernel(self.np)
            dt = time.perf_counter() - t0
            self.samples.append((t0, dt))
            self.owed -= dt
            now = self.last_sample = time.perf_counter()
        self.last = now

    def scales(self, ops) -> list[float]:
        """Per operation of the pass: CAL_REF_S over the median time of the
        kernel runs within WINDOW_S of it."""
        out = []
        for op, end in zip(ops, self.op_ends, strict=True):
            lo, hi = end - op.seconds - self.WINDOW_S, end + self.WINDOW_S
            out.append(CAL_REF_S / _median([dt for t, dt in self.samples if lo <= t <= hi]))
        return out


def speed_scale(np, seconds: float = 0.15) -> float:
    """CAL_REF_S over the median time of kernel runs lasting about seconds."""
    times: list[float] = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        _kernel(np)
        times.append(time.perf_counter() - t0)
    return CAL_REF_S / _median(times)


def end_to_end(wl, passes, scales) -> tuple[dict, dict]:
    """Untraced metrics (all but setup_s, which run.py measures) and the
    per-workload figures of the record (see README.md).  Every time is
    scaled by its operation's calibration; an operation's time is its median
    over the passes."""
    by_label: dict = {}
    walls = []
    for p, pass_scales in zip(passes, scales):
        walls.append(0.0)
        for op, f in zip(p.ops, pass_scales):
            by_label.setdefault((op.kind, op.label), []).append(op.seconds * f)
            walls[-1] += op.seconds * f
    med = {key: _median(v) for key, v in by_label.items()}
    timed = [s for (kind, _), s in med.items() if kind == wl.timed_kind]
    work = sum(op.work for op in passes[0].ops if op.kind == wl.timed_kind)
    if wl.tail_over_repetitions:
        tail_values = [t for (kind, _), v in by_label.items() if kind == wl.timed_kind
                       for t in v]
    else:
        tail_values = timed
    tail = percentile(tail_values, wl.tail_percentile)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-sweeps" else resource.RUSAGE_SELF
    raw_walls = [sum(op.seconds for op in p.ops) for p in passes]
    metrics = {
        "wall_s": _median(walls),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "op_p50_ms": 1e3 * _median(timed),
        "op_tail_ms": 1e3 * tail,
        "work_per_s": work / sum(timed),
    }
    named = {
        "analytic-figures": {"cp_points_per_s": metrics["work_per_s"],
                             "cp_point_p50_ms": metrics["op_p50_ms"],
                             "cp_point_tail_ms": metrics["op_tail_ms"]},
        "mc-validate": {"mc_trials_per_s": metrics["work_per_s"]},
        "cli-sweeps": {"cli_call_p50_s": metrics["op_p50_ms"] / 1e3,
                       "cli_call_tail_s": metrics["op_tail_ms"] / 1e3},
    }[wl.name]
    named.update(wl.extras(med))
    named.update(tail_percentile=wl.tail_percentile, timed_ops_per_pass=len(timed),
                 tail_samples=len(tail_values),
                 tail_samples_beyond=sum(t > tail for t in tail_values),
                 repetitions_per_op=len(passes),
                 # the same passes unscaled, as the clock read them
                 pass_wall_s=walls, pass_wall_raw_s=raw_walls,
                 speed_scale_median_by_pass=[_median(f) for f in scales])
    return metrics, named


def per_layer(total: dict, n_passes: int, import_s: float) -> dict:
    """Per-layer metrics per traced pass, from merged span summaries."""
    calls = total["calls"]

    def n(*names):
        return sum(calls.get(name, 0) for name in names) / n_passes

    def prefixed(prefix, exclude=()):
        return sum(v for k, v in calls.items()
                   if k.startswith(prefix) and k not in exclude) / n_passes

    trials = total["trials"]
    solves = calls.get("analytic.optimal_density_numeric", 0)
    return {
        "specfun.self_s": total["specfun.self_s"] / n_passes,
        "specfun.calls": prefixed("specfun."),
        "specfun.hyf_args": total["hyf_args"] / n_passes,
        "specfun.erfc_calls": n("specfun.erfc", "specfun.erfcx"),
        "model.self_s": total["model.self_s"] / n_passes,
        "model.derived_constants_calls": n("model.derived_constants"),
        "model.pathloss_gain_elems": total["pathloss_gain_elems"] / n_passes,
        "analytic.self_s": total["analytic.self_s"] / n_passes,
        "analytic.expectation_calls": n("analytic.expectation_over_serving_distance"),
        "analytic.cp_calls": prefixed("analytic.cp_", exclude=("analytic.cp_for_model",)),
        "analytic.objective_calls_per_solve":
            total["objective_calls_in_solves"] / solves if solves else 0.0,
        "mc.self_s": total["mc.self_s"] / n_passes,
        "mc.trials": trials / n_passes,
        "mc.stream_setup_s": total["stream_setup_s"] / n_passes,
        "mc.us_per_trial": 1e6 * total["estimate_s"] / trials if trials else 0.0,
        "mc.stations_per_trial": total["station_trials"] / trials if trials else 0.0,
        "cli.self_s": total["cli.self_s"] / n_passes,
        "cli.import_s": import_s,
        "cli.calls": n("cli.main"),
    }


def traced_pass(wl, spans):
    """One pass with the in-process wrappers installed (and, for the CLI
    workload, each child tracing itself); returns the pass, its summary and
    the import times the CLI children measured."""
    import tracer
    import workloads
    children = isinstance(wl, workloads.CliSweeps)
    if children:
        wl.trace_records = []
    spans.install()
    try:
        p = wl.run_pass()
    finally:
        spans.uninstall()
    records = []
    if children:
        records, wl.trace_records = wl.trace_records, None
    summaries = [tracer.summary(spans.take())] + [rec["summary"] for rec in records]
    return p, tracer.merge(summaries), [rec["import_s"] for rec in records]


def run(wl, seconds: float, trace: bool, import_s: float) -> dict:
    # the benchmark's modules import numpy, so they load after the timed
    # import of densecov
    import tracer
    passes, traced, summaries, child_imports = [], [], [], []
    spans = tracer.Tracer()
    cal, scales, cal_samples = Calibration(), [], 0
    start = time.perf_counter()
    while True:
        if trace:
            passes.append(wl.run_pass())
            p, s, imports = traced_pass(wl, spans)
            traced.append(p)
            summaries.append(s)
            child_imports += imports
        else:
            cal.start()
            passes.append(wl.run_pass(tick=cal.tick))
            scales.append(cal.scales(passes[-1].ops))
            cal_samples += len(cal.samples)
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(passes) >= MIN_PASSES):
            break
    everything = [op for p in passes + traced for op in p.ops]
    failed = sum(not op.ok for op in everything)
    record = {"attempted": len(everything), "failed": failed,
              "passes": len(passes), "loop_s": elapsed}
    if trace:
        total = tracer.merge(summaries)
        layer = per_layer(total, len(traced),
                          _median(child_imports) if child_imports else import_s)
        layer["trace.overhead_share"] = (_median([p.wall_s for p in traced])
                                         / _median([p.wall_s for p in passes]) - 1.0)
        layer["failed_share"] = failed / len(everything)
        wall = sum(p.wall_s for p in traced)
        record.update(metrics=layer, traced_passes=len(traced),
                      traced_wall_s=wall, trial_generator_calls=total["calls"].get(
                          "mc.trial_generator", 0),
                      trials_requested=wl.trials_per_pass * len(traced),
                      layer_self_s_sum=sum(total[f"{x}.self_s"] for x in tracer.LAYERS))
    else:
        metrics, named = end_to_end(wl, passes, scales)
        named["calibration_samples"] = cal_samples
        named["failed_share"] = failed / len(everything)
        record.update(metrics=metrics, named=named)
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import densecov  # noqa: F401  (timed: the import is part of set-up)
    import_s = time.perf_counter() - t0
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    cls.warm_up()
    print("ready", flush=True)
    if args.probe:
        return 0

    if args.trace:
        t0 = time.perf_counter()
        import densecov.cli  # noqa: F401
        import_s += time.perf_counter() - t0
    kwargs = {"workdir": Path(args.workdir)} if args.workload == "cli-sweeps" else {}
    wl = cls(args.seed, **kwargs)
    record = run(wl, args.seconds, bool(args.trace), import_s)

    import numpy
    import scipy
    record["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
