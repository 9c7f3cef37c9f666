"""Span tracing of the program from outside it, and the per-layer metrics
derived from the spans.

``Tracer.install`` replaces every public function of each program module,
plus a few methods, with a wrapper that records one span per call: name,
start, end, parent span and whether the call raised. The wrapper is put in
every module namespace that binds the function, so calls made through
``from .module import name`` are traced too. Spans stay in memory and are
written out once, at the end of a round. The program is single-threaded
here (sweeps run with one job), so one span stack suffices.
"""
from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import time

MODULES = ("spincore", "partitions", "hamiltonians", "groundstate", "rdm",
           "protocols", "dynamics", "analysis", "config", "cli")
METHODS = (("hamiltonians", "CompiledHamiltonian", "__init__"),
           ("hamiltonians", "CompiledHamiltonian", "apply"),
           ("dynamics", "TrotterStepper", "step"),
           ("rdm", "InvariantValue", "__post_init__"))


def _name_exact_invariant(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    return f"rdm.exact_invariant.{kind}"


def _count_lanczos(counters, args, kwargs, result):
    counters["groundstate.lanczos_steps"] += result.iterations


def _count_campaign(counters, args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    counters["protocols.unitaries"] += params.n_unitaries
    counters["protocols.records"] += len(result)


def _count_record_bytes(counters, args, kwargs, result):
    counters["protocols.records_bytes"] += os.path.getsize(args[0])


def _count_sweep_points(counters, args, kwargs, result):
    counters["analysis.sweep_points"] += len(result)


NAMERS = {"rdm.exact_invariant": _name_exact_invariant}
HOOKS = {
    "groundstate.ground_state": _count_lanczos,
    "protocols.run_campaign": _count_campaign,
    "protocols.write_records": _count_record_bytes,
    "analysis.run_sweep": _count_sweep_points,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.raised: list[bool] = []
        self.counters: collections.Counter = collections.Counter()
        self._stack = [-1]
        self.active = True

    def wrap(self, name, fn):
        namer = NAMERS.get(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.names)
            tracer.names.append(namer(args, kwargs) if namer else name)
            tracer.parents.append(tracer._stack[-1])
            tracer.raised.append(False)
            tracer.ends.append(0.0)
            tracer._stack.append(index)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[index] = True
                raise
            finally:
                tracer.ends[index] = time.perf_counter()
                tracer._stack.pop()
            if hook:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "topoprobe") -> None:
        modules = [importlib.import_module(f"{package}.{name}") for name in MODULES]
        replacements = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    replacements[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
        for short, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"{package}.{short}"), cls_name)
            setattr(cls, method, self.wrap(f"{short}.{cls_name}.{method}",
                                           getattr(cls, method)))
        for module in modules + [importlib.import_module(package)]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    setattr(module, name, replacements[id(obj)][1])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,name,start_s,end_s,raised\n")
            origin = self.starts[0] if self.starts else 0.0
            for index, name in enumerate(self.names):
                handle.write(f"{index},{self.parents[index]},{name},"
                             f"{self.starts[index] - origin:.9f},"
                             f"{self.ends[index] - origin:.9f},{int(self.raised[index])}\n")


def span_cost(calls: int = 200_000) -> float:
    """Seconds that tracing adds to one call, measured on a no-op function
    taking four arguments, as ``apply_matrix_at_site`` does."""
    def noop(a, b, c, d):
        return None

    traced = Tracer().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop(1, 2, 3, 4)
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced(1, 2, 3, 4)
    return max(time.perf_counter() - start - plain, 0.0) / calls


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans of one round (units as declared in
    BENCHMARK.json)."""
    count = len(tracer.names)
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(count)]
    child_time = [0.0] * count
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += durations[i]

    def outermost(match, i):
        parent = tracer.parents[i]
        while parent >= 0:
            if match(tracer.names[parent]):
                return False
            parent = tracer.parents[parent]
        return True

    def total(match):
        return sum(durations[i] for i in range(count)
                   if match(tracer.names[i]) and outermost(match, i))

    def calls(match):
        return sum(1 for name in tracer.names if match(name))

    def self_time(match):
        return sum(durations[i] - child_time[i] for i in range(count)
                   if match(tracer.names[i]))

    def named(target):
        return lambda name: name == target

    def prefixed(prefix):
        return lambda name: name.startswith(prefix)

    counters = tracer.counters
    campaign_s = total(named("protocols.run_campaign"))
    evolve_s = total(named("dynamics.adiabatic_evolve"))
    steps = calls(named("dynamics.TrotterStepper.step"))
    out = {
        "hamiltonians.compile_s": total(named("hamiltonians.CompiledHamiltonian.__init__")),
        "hamiltonians.apply_calls": calls(named("hamiltonians.CompiledHamiltonian.apply")),
        "hamiltonians.apply_s": total(named("hamiltonians.CompiledHamiltonian.apply")),
        "groundstate.solves": calls(named("groundstate.ground_state")),
        "groundstate.lanczos_steps": counters["groundstate.lanczos_steps"],
        "groundstate.ground_state_s": total(named("groundstate.ground_state")),
        "groundstate.self_s": self_time(named("groundstate.ground_state")),
        "rdm.reduced_density_matrix_calls": calls(named("rdm.reduced_density_matrix")),
        "rdm.reduced_density_matrix_s": total(named("rdm.reduced_density_matrix")),
        "rdm.rejected": sum(1 for i in range(count) if tracer.raised[i]
                            and tracer.names[i] == "rdm.InvariantValue.__post_init__"),
        "spincore.apply_matrix_at_site_calls": calls(named("spincore.apply_matrix_at_site")),
        "spincore.apply_matrix_at_site_s": total(named("spincore.apply_matrix_at_site")),
        "protocols.run_campaign_s": campaign_s,
        "protocols.run_campaign.self_s": self_time(named("protocols.run_campaign")),
        "protocols.unitaries": counters["protocols.unitaries"],
        "protocols.unitaries_per_s": (counters["protocols.unitaries"] / campaign_s
                                      if campaign_s else 0.0),
        "protocols.records": counters["protocols.records"],
        "protocols.estimate_s": total(prefixed("protocols.estimate_")),
        "protocols.write_records_s": total(named("protocols.write_records")),
        "protocols.read_records_s": total(named("protocols.read_records")),
        "protocols.records_bytes": counters["protocols.records_bytes"],
        "dynamics.adiabatic_evolve_s": evolve_s,
        "dynamics.trotter_steps": steps,
        "dynamics.steps_per_s": steps / evolve_s if evolve_s else 0.0,
        "dynamics.monitor_invariants_s": total(named("dynamics.monitor_invariants")),
        "analysis.run_sweep_s": total(named("analysis.run_sweep")),
        "analysis.sweep_points": counters["analysis.sweep_points"],
        "analysis.run_sweep.self_s": self_time(named("analysis.run_sweep")),
        "analysis.error_scaling_scan_s": total(named("analysis.error_scaling_scan")),
        "config.load_config_s": total(named("config.load_config")),
        "cli.main.self_s": self_time(prefixed("cli.")),
        "trace.spans": count,
    }
    for kind in ("reflection", "time_reversal", "d2", "klein_bottle"):
        out[f"rdm.exact_invariant.{kind}_s"] = total(named(f"rdm.exact_invariant.{kind}"))
    return out
