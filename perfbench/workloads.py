"""The four benchmark workloads.

Each workload has ``prepare(seed, workdir)``, which makes the inputs from the
seed; ``run(inputs, ops)``, whose program calls go through ``ops`` and are
the timed operations; and ``check(inputs, outputs)``, which returns the
list of check failures. Checks call the program only to obtain states the
timed calls do not return, and run untimed and untraced.

Program modules are always reached through their module attribute at call
time, so the tracer's wrappers are used when they are installed.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from pathlib import Path

import numpy as np

from topoprobe import analysis, cli, groundstate, hamiltonians, partitions, protocols, rdm
from topoprobe.spincore import SpinState

import checks

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
FAILED = object()


class Ops:
    """Runs and times the program calls of one round, counting attempts and
    failures. A failure is expected only where ``known_fault`` accepts the
    exception; any other failure is an error of the round."""

    def __init__(self):
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def __call__(self, label, fn, *args, known_fault=None, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted, and reported unless expected
            self.failed += 1
            if known_fault is None or not known_fault(exc):
                self.unexpected.append(f"{label}: {type(exc).__name__}: {exc}")
            return FAILED
        finally:
            self.wall_s += time.perf_counter() - start

    def cli(self, workdir: Path, name: str, *argv):
        """One ``cli.main`` call writing into its own directory; a nonzero
        exit status is a failed operation."""
        out = workdir / "cli" / name

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(list(argv) + ["--out", str(out)])
            if status != 0:
                raise RuntimeError(f"exit status {status}")
            return out

        return self(f"cli {name}", call)


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    return [int(x) for x in rng.integers(0, 2 ** 31 - 1, size=count)]


def _partition(kind: str, num_sites: int, pairs: int):
    if kind in ("d2", "klein_bottle"):
        return partitions.three_segment_partition(num_sites, pairs)
    return partitions.reflection_partition(num_sites, pairs)


def _solve(num_sites, j_prime, delta, b_field=0.0, seed=0):
    """Ground state for a check, with the program's solver (untimed)."""
    spec = hamiltonians.HamiltonianSpec(num_sites=num_sites, j=1.0, j_prime=j_prime,
                                        delta=delta, b_field=b_field)
    return groundstate.ground_state(spec, seed=seed)


def _check_ground_state(errors, what, result, j_prime, delta, b_field=0.0):
    checks.residual(errors, f"{what} residual", result.state.amplitudes, result.energy,
                    j=1.0, j_prime=j_prime, delta=delta, b_field=b_field)


def _reported(kind: str, reference: dict):
    """The value sweeps report: normalized for the two-segment kinds, raw
    for d2 and klein_bottle."""
    return reference["normalized"] if kind in ("reflection", "time_reversal") \
        else reference["raw"]


def _check_exact_value(errors, what, kind, pairs, value, reference):
    """An exact reported value against its reference where one is built,
    and against the derived bound on the raw value otherwise."""
    if "raw" in reference:
        checks.close(errors, what, value, _reported(kind, reference))
    mean_purity = (reference["purity_first"] + reference["purity_last"]) / 2.0
    if kind == "reflection":
        checks.reflection_bound(errors, what, value * np.sqrt(mean_purity))
    elif kind == "time_reversal":
        checks.time_reversal_bound(errors, what, value * mean_purity ** 1.5,
                                   reference["interval_purity"])


def _check_sampled_value(errors, what, value, std_error, exact, reference, signed):
    checks.close(errors, f"{what} exact", exact, reference)
    checks.within_se(errors, what, value, std_error, reference)
    if signed:
        checks.same_sign(errors, what, value, reference)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _check_round_trip(errors, what, out_dir, state, params):
    """campaign-analyze on the exported records gives the raw estimate of
    the same campaign run in memory, bit for bit; counts sum to n_shots."""
    analysis_json = json.loads((out_dir / "campaign_analysis.json").read_text())
    records = protocols.run_campaign(state, params)
    in_memory = protocols.estimate_raw(records, params).value
    checks.bit_identical(errors, f"{what} raw estimate", analysis_json["result"]["raw_value"],
                         in_memory)
    read_back, _params = protocols.read_records(out_dir / "campaign.records")
    checks.counts_sum(errors, f"{what} exported counts", [r.counts for r in read_back],
                      params.n_shots)
    checks.counts_sum(errors, f"{what} in-memory counts", [r.counts for r in records],
                      params.n_shots)


# -- oracle_n8 ---------------------------------------------------------------
# Infinite-shot campaigns of all four invariants on a Haar-random 8-site
# state: the per-unitary loop, not the statevector size, dominates.

ORACLE_SITES = 8
ORACLE_UNITARIES = 5000
ORACLE_LAYOUTS = (("reflection", 2), ("time_reversal", 2), ("d2", 1), ("klein_bottle", 1))


class OracleN8:
    def prepare(self, seed, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        dim = 2 ** ORACLE_SITES
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return {"state": SpinState(ORACLE_SITES, amps / np.linalg.norm(amps)),
                "seeds": _seeds(seed, 2, len(ORACLE_LAYOUTS))}

    def run(self, inputs, ops):
        state = inputs["state"]
        out = {}
        for (kind, pairs), campaign_seed in zip(ORACLE_LAYOUTS, inputs["seeds"]):
            partition = _partition(kind, ORACLE_SITES, pairs)
            params = protocols.ProtocolParams(kind, ORACLE_UNITARIES, 2, partition,
                                              campaign_seed)
            records = ops(f"{kind} campaign", protocols.run_campaign, state, params,
                          exact_probabilities=True)
            if records is FAILED:
                continue
            out[kind] = {
                "estimate": ops(f"{kind} estimate", protocols.estimate_raw, records, params),
                "exact": ops(f"{kind} exact", rdm.exact_invariant, state, partition, kind),
            }
            if kind == "reflection":
                out["purity"] = [ops(f"segment {segment} purity", protocols.estimate_purity,
                                     records, params, segment) for segment in (0, 1)]
        return out

    def check(self, inputs, outputs):
        errors = []
        amps = inputs["state"].amplitudes
        for kind, pairs in ORACLE_LAYOUTS:
            if kind not in outputs:
                continue
            ref = checks.invariant_reference(amps, ORACLE_SITES, kind, pairs)
            est, exact = outputs[kind]["estimate"], outputs[kind]["exact"]
            if est is not FAILED:
                checks.within_se(errors, f"{kind} infinite-shot estimate", est.value,
                                 est.std_error, ref["raw"])
            if exact is not FAILED:
                checks.close(errors, f"{kind} exact raw", exact.raw, ref["raw"])
                checks.close(errors, f"{kind} exact normalized", exact.normalized,
                             ref["normalized"])
                checks.close(errors, f"{kind} exact first purity", exact.purity_first,
                             ref["purity_first"])
                if kind == "reflection":
                    checks.reflection_bound(errors, "reflection exact", exact.raw)
                if kind == "time_reversal":
                    checks.time_reversal_bound(errors, "time reversal exact", exact.raw,
                                               ref["interval_purity"])
            if kind == "reflection":
                for estimate, key in zip(outputs.get("purity", ()),
                                         ("purity_first", "purity_last")):
                    if estimate is not FAILED:
                        checks.within_se(errors, f"{key} infinite-shot estimate",
                                         estimate.value, estimate.std_error, ref[key])
        return errors


# -- sampled_n16 ---------------------------------------------------------------
# Sampled sweeps at the solver's size cap: every gate acts on a 2^16 vector.

SAMPLED_SITES = 16
SAMPLED_J_PRIME = (0.2, 5.0)
SAMPLED_DELTA = 0.25
SAMPLED_UNITARIES = 512
SAMPLED_SHOTS = 256
ROUND_TRIP_CONFIG = """[hamiltonian]
num_sites = {num_sites}
j = 1.0
j_prime = {j_prime}
delta = {delta}

[partition]
pairs = 2
layout = reflection

[protocol]
kind = reflection
n_unitaries = {n_unitaries}
n_shots = {n_shots}

[run]
master_seed = {seed}
"""


class SampledN16:
    def prepare(self, seed, workdir):
        sweep_seeds = _seeds(seed, 3, 3)
        config = workdir / "round_trip.cfg"
        config.write_text(ROUND_TRIP_CONFIG.format(
            num_sites=SAMPLED_SITES, j_prime=SAMPLED_J_PRIME[0], delta=SAMPLED_DELTA,
            n_unitaries=SAMPLED_UNITARIES, n_shots=SAMPLED_SHOTS, seed=sweep_seeds[2]))
        return {"workdir": workdir, "config": config, "seeds": sweep_seeds}

    def run(self, inputs, ops):
        base = hamiltonians.HamiltonianSpec(num_sites=SAMPLED_SITES, j=1.0, j_prime=1.0,
                                            delta=SAMPLED_DELTA)
        out = {}
        for kind, sweep_seed in zip(("reflection", "time_reversal"), inputs["seeds"]):
            spec = analysis.SweepSpec(base=base, kind=kind, pairs=2,
                                      axes=(("j_prime", SAMPLED_J_PRIME),), mode="sampled",
                                      n_unitaries=SAMPLED_UNITARIES, n_shots=SAMPLED_SHOTS,
                                      master_seed=sweep_seed)
            out[kind] = ops(f"{kind} sweep", analysis.run_sweep, spec)
        workdir = inputs["workdir"]
        exported = ops.cli(workdir, "export", "campaign-export", "--config",
                           str(inputs["config"]))
        if exported is not FAILED:
            out["analyzed"] = ops.cli(workdir, "export", "campaign-analyze", "--records",
                                      str(exported / "campaign.records"))
        return out

    def check(self, inputs, outputs):
        errors = []
        states = {}
        for j_prime in SAMPLED_J_PRIME:
            result = _solve(SAMPLED_SITES, j_prime, SAMPLED_DELTA)
            _check_ground_state(errors, f"J'={j_prime}", result, j_prime, SAMPLED_DELTA)
            states[j_prime] = result.state
        for kind in ("reflection", "time_reversal"):
            rows = outputs.get(kind, FAILED)
            if rows is FAILED:
                continue
            for row in rows:
                what = f"sampled {kind} at J'={row['j_prime']}"
                if row["error"]:
                    errors.append(f"{what}: {row['error']}")
                    continue
                ref = checks.invariant_reference(states[row["j_prime"]].amplitudes,
                                                 SAMPLED_SITES, kind, 2)
                _check_sampled_value(errors, what, row["value"], row["std_error"],
                                     row["exact"], ref["normalized"], signed=True)
        if outputs.get("analyzed", FAILED) is not FAILED:
            params = protocols.ProtocolParams(
                "reflection", SAMPLED_UNITARIES, SAMPLED_SHOTS,
                partitions.reflection_partition(SAMPLED_SITES, 2), inputs["seeds"][2])
            _check_round_trip(errors, "round trip", outputs["analyzed"],
                              states[SAMPLED_J_PRIME[0]], params)
        return errors


# -- exact_n16 -----------------------------------------------------------------
# Exact series at N = 16: Lanczos on 2^16 and contractions of up to 12-site
# intervals; no campaign runs. The symmetry-broken chain is left to the fig4
# sweep of desk_configs (N = 12): at N = 16 its two solves and two 12-site
# contractions would add about 14 s to a round.

EXACT_SITES = 16
EXACT_J_PRIME = (0.3, 1.0, 3.0)
EXACT_PAIRS = {"reflection": (2, 4, 6), "time_reversal": (2, 4, 6),
               "d2": (1, 2, 3), "klein_bottle": (1, 2, 3)}
SERIES_KINDS = ("reflection", "time_reversal")
MIRROR_SINGLET_SITES = 4


def _normalized_bound_rejection(exc: Exception) -> bool:
    """The rejection by rdm.NORMALIZED_BOUND that the mirror singlet trips."""
    return isinstance(exc, ValueError) and "exceeds bound" in str(exc)


def _fit(pair_counts, values):
    """The fit, or the ValueError it raises by design when some |value| >= 1."""
    try:
        return analysis.fit_correlation_length(pair_counts, values), False
    except ValueError:
        return None, True


class ExactN16:
    def prepare(self, seed, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        singlet = SpinState(MIRROR_SINGLET_SITES,
                            checks.mirror_singlet_state(MIRROR_SINGLET_SITES))
        return {"delta": float(0.2 + 0.1 * rng.random()), "singlet": singlet, "seed": seed}

    def run(self, inputs, ops):
        base = hamiltonians.HamiltonianSpec(num_sites=EXACT_SITES, j=1.0, j_prime=1.0,
                                            delta=inputs["delta"])
        out = {"grid": {}, "singlet": {}, "fits": {}}
        for kind, pair_counts in EXACT_PAIRS.items():
            spec = analysis.SweepSpec(base=base, kind=kind, pairs=pair_counts[0],
                                      axes=(("j_prime", EXACT_J_PRIME),
                                            ("pairs", pair_counts)),
                                      mode="exact", master_seed=inputs["seed"])
            out["grid"][kind] = ops(f"{kind} sweep", analysis.run_sweep, spec)
        singlet_partition = partitions.reflection_partition(MIRROR_SINGLET_SITES, 2)
        for kind in SERIES_KINDS:
            # valid state with |normalized| = 2, above rdm.NORMALIZED_BOUND
            out["singlet"][kind] = ops(f"mirror-singlet {kind}", rdm.exact_invariant,
                                       inputs["singlet"], singlet_partition, kind,
                                       known_fault=_normalized_bound_rejection)
        for kind in SERIES_KINDS:
            if out["grid"][kind] is FAILED:
                continue
            for j_prime in EXACT_J_PRIME:
                series = [(row["pairs"], row["value"]) for row in out["grid"][kind]
                          if row["j_prime"] == j_prime]
                out["fits"][(kind, j_prime)] = (series, ops(
                    f"fit {kind} J'={j_prime}", _fit, [p for p, _ in series],
                    [v for _, v in series]))
        return out

    def check(self, inputs, outputs):
        errors = []
        delta = inputs["delta"]
        solved = {}
        for j_prime in EXACT_J_PRIME:
            result = _solve(EXACT_SITES, j_prime, delta)
            _check_ground_state(errors, f"J'={j_prime}", result, j_prime, delta)
            solved[j_prime] = result.state.amplitudes
        for kind, rows in outputs["grid"].items():
            if rows is FAILED:
                continue
            for row in rows:
                pairs = int(row["pairs"])
                what = f"exact {kind} at J'={row['j_prime']} n={pairs}"
                if row["error"] or row["value"] != row["exact"]:
                    errors.append(f"{what}: row {row}")
                    continue
                ref = checks.invariant_reference(solved[row["j_prime"]], EXACT_SITES, kind,
                                                 pairs)
                _check_exact_value(errors, what, kind, pairs, row["value"], ref)
        for kind, value in outputs["singlet"].items():
            if value is not FAILED:  # the guard no longer rejects it
                checks.close(errors, f"mirror-singlet {kind}", value.normalized, 2.0)
        for key, (values, result) in outputs["fits"].items():
            if result is not FAILED:
                fit, raised = result
                checks.fit_outcome(errors, f"fit {key}", [v for _, v in values], fit, raised)
        return errors


# -- desk_configs ----------------------------------------------------------------
# Every CLI command on the shipped desk configurations, from the benchmark's
# own copies in configs/.

DESK_CONFIG_SITES = 12


def _config_path(name: str) -> str:
    return str(CONFIG_DIR / f"{name}_desk.cfg")


class DeskConfigs:
    def prepare(self, seed, workdir):
        return {"workdir": workdir, "seeds": _seeds(seed, 5, 12)}

    def run(self, inputs, ops):
        workdir, seeds = inputs["workdir"], iter(str(s) for s in inputs["seeds"])
        commands = [
            ("ground_state", "ground-state", "--config", _config_path("fig1c")),
            ("invariants_exact", "invariants", "--exact", "--config", _config_path("fig1c")),
            ("fig1c", "sweep", "--config", _config_path("fig1c")),
            ("fig1e", "sweep", "--config", _config_path("fig1e")),
            ("invariants_sampled", "invariants", "--sampled", "--exact-reference",
             "--config", _config_path("fig1e")),
            ("export", "campaign-export", "--config", _config_path("fig1e")),
            ("fig2c", "sweep", "--config", _config_path("fig2c")),
            ("fig2d", "sweep", "--config", _config_path("fig2d")),
            ("fig3", "error-scan", "--config", _config_path("fig3")),
            ("fig4", "sweep", "--config", _config_path("fig4")),
            ("fig5", "adiabatic", "--config", _config_path("fig5")),
            ("twirl", "twirl-check", "--samples", "100000"),
        ]
        out = {}
        for name, *argv in commands:
            out[name] = ops.cli(workdir, name, *argv, "--seed", next(seeds))
        if out["export"] is not FAILED:
            out["analyze"] = ops.cli(workdir, "export", "campaign-analyze", "--records",
                                     str(out["export"] / "campaign.records"))
        return out

    def check(self, inputs, outputs):
        errors = []
        seeds = inputs["seeds"]
        states = {}

        def state(j_prime, delta, b_field=0.0, num_sites=DESK_CONFIG_SITES):
            key = (num_sites, j_prime, delta, b_field)
            if key not in states:
                result = _solve(num_sites, j_prime, delta, b_field)
                _check_ground_state(errors, f"N={num_sites} J'={j_prime} delta={delta} "
                                    f"B={b_field}", result, j_prime, delta, b_field)
                states[key] = result.state
            return states[key]

        def result(name, filename):
            directory = outputs.get(name, FAILED)
            if directory is FAILED:
                return None
            path = directory / filename
            return json.loads(path.read_text())["result"] if path.suffix == ".json" \
                else _read_csv(path)

        body = result("ground_state", "ground_state.json")
        if body is not None:
            solved = _solve(DESK_CONFIG_SITES, 1.0, 0.25, seed=seeds[0])
            checks.close(errors, "ground-state energy", body["energy"], solved.energy)
            _check_ground_state(errors, "ground-state", solved, 1.0, 0.25)
        body = result("invariants_exact", "invariants.json")
        if body is not None:
            ref = checks.invariant_reference(state(1.0, 0.25).amplitudes, DESK_CONFIG_SITES,
                                             "reflection", 2)
            checks.close(errors, "invariants --exact", body["normalized"], ref["normalized"])
            checks.reflection_bound(errors, "invariants --exact", body["raw"])
        body = result("invariants_sampled", "invariants.json")
        if body is not None:
            ref = checks.invariant_reference(state(1.0, 0.25).amplitudes, DESK_CONFIG_SITES,
                                             "reflection", 2)
            _check_sampled_value(errors, "invariants --sampled", body["value"],
                                 body["std_error"], body["exact_reference"],
                                 ref["normalized"], signed=False)
        # exact sweeps: (config, J' and delta unless they are sweep axes, B)
        for name, j_prime, delta, b_field in (("fig1c", 1.0, None, 0.0),
                                              ("fig2d", None, 0.25, 0.0),
                                              ("fig4", 4.0, 0.3, 0.1)):
            for row in result(name, "sweep.csv") or ():
                what = f"{name} sweep {row}"
                if row["error"]:
                    errors.append(what)
                    continue
                pairs = int(float(row.get("pairs", 2)))
                ref = checks.invariant_reference(
                    state(float(row.get("j_prime", j_prime)), float(row.get("delta", delta)),
                          b_field).amplitudes, DESK_CONFIG_SITES, row["kind"], pairs)
                _check_exact_value(errors, what, row["kind"], pairs, float(row["value"]), ref)
        fits = result("fig2d", "sweep.json")
        for fit in (fits or {}).get("correlation_lengths", ()):
            if not fit["length_scale"] > 0:
                errors.append(f"fig2d correlation length {fit}")
        for name, kind in (("fig1e", "reflection"), ("fig2c", "time_reversal")):
            for row in result(name, "sweep.csv") or ():
                what = f"{name} sampled {kind} at J'={row['j_prime']}"
                if row["error"]:
                    errors.append(f"{what}: {row['error']}")
                    continue
                ref = checks.invariant_reference(state(float(row["j_prime"]), 0.25).amplitudes,
                                                 DESK_CONFIG_SITES, kind, 2)
                _check_sampled_value(errors, what, float(row["value"]),
                                     float(row["std_error"]), float(row["exact"]),
                                     ref["normalized"],
                                     signed=abs(ref["normalized"]) > 0.5)
        rows = result("fig3", "error_scan.csv")
        if rows is not None:
            ref = checks.invariant_reference(state(3.0, 0.25, num_sites=8).amplitudes, 8,
                                             "time_reversal", 2)
            for row in rows:
                checks.close(errors, f"fig3 exact at {row['value']}", float(row["exact"]),
                             ref["raw"])
                if not 0.0 < float(row["mean_abs_error"]) < 1.0:
                    errors.append(f"fig3 mean absolute error {row}")
        rows = result("fig5", "adiabatic.csv")
        if rows is not None:
            ref = checks.invariant_reference(state(0.5, 0.25).amplitudes, DESK_CONFIG_SITES,
                                             "reflection", 2)
            if abs(float(rows[-1]["time"]) - 20.0) > 1e-9:
                errors.append(f"adiabatic ramp ends at t = {rows[-1]['time']}")
            checks.at_most(errors, "adiabatic endpoint deviation",
                           abs(float(rows[-1]["value"]) - ref["normalized"]), checks.RAMP_TOL)
        body = result("twirl", "twirl_check.json")
        if body is not None:
            for channel in ("phi", "psi"):
                checks.at_most(errors, f"twirl {channel} error",
                               body[channel]["frobenius_error"], checks.TWIRL_TOL)
        if outputs.get("analyze", FAILED) is not FAILED:
            params = protocols.ProtocolParams(
                "reflection", 512, 256, partitions.reflection_partition(DESK_CONFIG_SITES, 2),
                seeds[5])
            _check_round_trip(errors, "fig1e round trip", outputs["analyze"],
                              state(1.0, 0.25), params)
        return errors


WORKLOADS = {
    "oracle_n8": OracleN8(),
    "sampled_n16": SampledN16(),
    "exact_n16": ExactN16(),
    "desk_configs": DeskConfigs(),
}
