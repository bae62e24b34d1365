"""Span tracer for the five densecov layers, installed from outside the package.

``Tracer.install`` wraps every public function of ``densecov.specfun``,
``model``, ``analytic``, ``mc`` and ``cli`` and puts each wrapper at every
module attribute that held the original.  That is where callers resolve
it: ``analytic`` reads ``derived_constants`` from its own namespace, ``mc``
reads ``pathloss_gain`` and ``trial_generator`` from its own, and the CLI
reads ``analytic.cp_for_model`` from the module.  Spans stay in memory as
``[name, start, end, parent, count]`` until ``summary`` reduces them.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("specfun", "model", "analytic", "mc", "cli")


def _size_of(pos: int, kw: str):
    def count(args, kwargs):
        return int(np.size(args[pos] if len(args) > pos else kwargs[kw]))
    return count


def _trials_and_stations(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    params = args[2] if len(args) > 2 else kwargs["params"]
    # stations per trial as computed from the window: pi lam R^2
    return params.trials, math.pi * cfg.lambda_bs * params.window_radius ** 2


# what each span records beyond its times
_COUNTERS = {
    "specfun.hyf1": _size_of(0, "x"),
    "specfun.hyf2": _size_of(0, "x"),
    "model.pathloss_gain": _size_of(2, "d"),
    "mc.estimate_cp": _trials_and_stations,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   counter(args, kwargs) if counter else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"densecov.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "densecov" and not mod_name.startswith("densecov."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summary(spans: list[list]) -> dict:
    """Per-layer self times and counters of a list of spans.

    A span's self time is its duration minus the time its child spans
    cover; children nest inside their parent because the program is
    single-threaded, so that time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    in_solve = [False] * len(spans)
    calls: dict[str, int] = {}
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update(hyf_args=0, pathloss_gain_elems=0, trials=0, station_trials=0.0,
               estimate_s=0.0, stream_setup_s=0.0, objective_calls_in_solves=0)
    for i, (name, start, end, parent, count) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_solve[i] = in_solve[parent]
        if name == "analytic.optimal_density_numeric":
            in_solve[i] = True
        calls[name] = calls.get(name, 0) + 1
        if name in ("specfun.hyf1", "specfun.hyf2"):
            out["hyf_args"] += count
        elif name == "model.pathloss_gain":
            out["pathloss_gain_elems"] += count
        elif name == "mc.estimate_cp":
            out["trials"] += count[0]
            out["station_trials"] += count[0] * count[1]
            out["estimate_s"] += end - start
        elif name == "mc.trial_generator":
            out["stream_setup_s"] += end - start
        elif name == "analytic.cp_for_model" and in_solve[i]:
            out["objective_calls_in_solves"] += 1
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name.split(".", 1)[0] + ".self_s"] += end - start - child[i]
    out["calls"] = calls
    return out


def merge(summaries: list[dict]) -> dict:
    """Sum summaries (and their call tables) field by field."""
    total: dict = {"calls": {}}
    for s in summaries:
        for key, value in s.items():
            if key == "calls":
                for name, n in value.items():
                    total["calls"][name] = total["calls"].get(name, 0) + n
            else:
                total[key] = total.get(key, 0) + value
    return total
