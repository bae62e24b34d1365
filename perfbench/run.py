"""densecov benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a densecov checkout; the program is taken from its
``src`` directory.  Workloads and metrics are listed in BENCHMARK.json and
described in perfbench/README.md.

Every process this script starts runs alone (never two workload processes
at once), single-threaded (BLAS and OpenMP thread counts set to 1), and as
a closed loop: each call starts after the previous one returned.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The line before the result holds the
full record: machine, settings, and the figures behind each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy

import child

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("analytic-figures", "mc-validate", "cli-sweeps")

# set-up is timed in this many fresh interpreters besides the workload process
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
LIMITS = (
    "CPU frequency is not controlled",
    "the file cache is not dropped between runs",
    "the machine may be shared; other load shows in the load average",
)
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "work_per_s": "1/s",
    "specfun.self_s": "s", "specfun.calls": "count", "specfun.hyf_args": "count",
    "specfun.erfc_calls": "count", "model.self_s": "s",
    "model.derived_constants_calls": "count", "model.pathloss_gain_elems": "count",
    "analytic.self_s": "s", "analytic.expectation_calls": "count",
    "analytic.cp_calls": "count", "analytic.objective_calls_per_solve": "count",
    "mc.self_s": "s", "mc.trials": "count", "mc.stream_setup_s": "s",
    "mc.us_per_trial": "us", "mc.stations_per_trial": "count", "cli.self_s": "s",
    "cli.import_s": "s", "cli.calls": "count", "trace.overhead_share": "ratio",
    "failed_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "densecov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_child(args, env, workdir: Path, deadline: float, probe: bool):
    """Start one workload process; return (set-up seconds, final record)."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    # its own process group, so that a kill also ends the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError("workload process did not become ready")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    if probe:
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    return 0.5 * (ordered[(n - 1) // 2] + ordered[n // 2])


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "loadavg_start": list(os.getloadavg()),
                    "platform": platform.platform(), **source_facts()},
        "settings": {"threads": {var: env[var] for var in THREAD_VARS},
                     "workload_processes_at_once": 1, "loop": "closed",
                     "setup_samples": 1 + (SETUP_PROBES if not args.trace else 0)},
        "limits": list(LIMITS),
    }
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "densecov"),
                    str(BENCH_DIR)], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    record["build_s"] = time.perf_counter() - t0

    workdir = BENCH_DIR / ".tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # probes before and after the workload process, so that set-up is
        # sampled across the whole run; each sample is scaled to the
        # reference speed by calibration kernel runs just before its launch
        probes = 0 if args.trace else SETUP_PROBES
        raw, scales = [], []

        def launch(probe):
            if not args.trace:
                scales.append(child.speed_scale(numpy))
            setup_s, result = run_child(args, env, workdir, deadline, probe)
            raw.append(setup_s)
            return result

        for _ in range(probes // 2):
            launch(probe=True)
        record_child = launch(probe=False)
        for _ in range(probes - probes // 2):
            launch(probe=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((BENCH_DIR / ".tmp").iterdir()):
            (BENCH_DIR / ".tmp").rmdir()

    metrics = dict(record_child.pop("metrics"))
    if not args.trace:
        setups = [s * f for s, f in zip(raw, scales)]
        metrics = {"setup_s": median(setups), **metrics}
        record.update(setup_samples_s=setups, setup_samples_raw_s=raw)
    record["machine"].update(record_child.pop("versions"))
    record["machine"]["loadavg_end"] = list(os.getloadavg())
    record.update(record_child)
    result = {
        "correct": record_child["failed"] == 0,
        "attempted": record_child["attempted"],
        "failed": record_child["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "densecov" / "__init__.py").is_file():
        print(f"error: no densecov sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record, result = measure(args)
    except (BenchError, subprocess.CalledProcessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
