"""Command line front end.

Each subcommand's ``cmd_*`` function is registered on its own subparser.
``main`` resolves what every command shares once, before the command runs:
the config (for commands that take ``--config``), the master seed
(``--seed``, else ``run.master_seed``) and the output directory (``--out``,
else ``run.out``, else ``.``). The directory is created only when an
artifact is written, so a failing command leaves none behind.

Every artifact embeds the fully resolved configuration and master seed, so
any output file is reproducible from its own header. Timestamps are
metadata only and are excluded from payload comparisons.
"""
from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, dynamics, protocols
from .config import ConfigError, RunConfig, load_config
from .groundstate import ConvergenceError, ground_state
from .rdm import exact_invariant
from .spincore import SpinState


def _payload(config: RunConfig | None, master_seed, schema: str, result) -> dict:
    return {
        "schema": f"topoprobe/{schema}@1",
        "created_at": datetime.now(timezone.utc).isoformat(),
        "master_seed": master_seed,
        "config": config.as_dict() if config is not None else {},
        "result": result,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(path)


def _write_rows(out: Path, config: RunConfig, seed: int, name: str, rows: list[dict],
                **extra) -> int:
    """Write ``rows`` to ``<name>.csv`` and a JSON sidecar ``<name>.json``
    with the row count, the CSV file name and ``extra``; print both paths."""
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    analysis.write_rows_csv(csv_path, rows)
    _write_json(out / f"{name}.json", _payload(config, seed, name.replace("_", "-"), {
        "rows": len(rows), "csv": csv_path.name, **extra}))
    print(csv_path)
    return 0


def cmd_ground_state(args, config: RunConfig, seed: int, out: Path) -> int:
    spec = config.hamiltonian()
    result = ground_state(spec, seed=0)  # the memoized solve every other command measures
    body = {
        "energy": result.energy,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "num_sites": spec.num_sites,
        "sector": result.sector,
        "sector_gap": result.sector_gap,
    }
    _write_json(out / "ground_state.json", _payload(config, seed, "ground-state", body))
    return 0


def _prepared_state(config: RunConfig) -> tuple[SpinState, object]:
    spec = config.hamiltonian()
    return ground_state(spec, seed=0).state, spec


def _protocol_params(config: RunConfig, partition, seed: int) -> protocols.ProtocolParams:
    return protocols.ProtocolParams(
        config.require("protocol", "kind"), config.require("protocol", "n_unitaries"),
        config.require("protocol", "n_shots"), partition, seed,
    )


def cmd_invariants(args, config: RunConfig, seed: int, out: Path) -> int:
    state, spec = _prepared_state(config)
    kind = config.require("protocol", "kind")
    partition = config.partition(spec.num_sites)
    if args.mode == "exact":
        value = exact_invariant(state, partition, kind)
        body = {
            "kind": kind, "mode": "exact", "raw": value.raw,
            "normalized": value.normalized,
            "purity_first": value.purity_first, "purity_second": value.purity_second,
        }
    else:
        params = _protocol_params(config, partition, seed)
        est = protocols.estimate_reported(protocols.run_campaign(state, params), params)
        body = {
            "kind": kind, "mode": "sampled", "value": est.value,
            "std_error": est.std_error, "n_unitaries": params.n_unitaries,
            "n_shots": params.n_shots, "master_seed": seed,
        }
        if args.exact_reference:
            body["exact_reference"] = protocols.reported_exact(
                exact_invariant(state, partition, kind))
    _write_json(out / "invariants.json", _payload(config, seed, "invariants", body))
    return 0


def _sweep_spec(config: RunConfig, kind: str, seed: int) -> analysis.SweepSpec:
    sweep = config.sections.get("sweep", {})
    axes = tuple((key[len("axis_"):], tuple(values))
                 for key, values in sweep.items() if key.startswith("axis_"))
    if not axes:
        raise ConfigError("sweep needs at least one axis_* key")
    return analysis.SweepSpec(
        base=config.hamiltonian(), kind=kind,
        pairs=config.require("partition", "pairs"), axes=axes,
        mode=sweep.get("mode", "exact"),
        n_unitaries=config.get("protocol", "n_unitaries", 512),
        n_shots=config.get("protocol", "n_shots", 256),
        repetitions=sweep.get("repetitions", 1),
        master_seed=seed,
    )


def cmd_sweep(args, config: RunConfig, seed: int, out: Path) -> int:
    kinds = config.get("sweep", "kinds") or (config.require("protocol", "kind"),)
    rows = [row for kind in kinds for row in analysis.run_sweep(_sweep_spec(config, kind, seed))]
    # correlation-length fits whenever the interval size is an axis
    fits, skipped = analysis.correlation_length_fits(rows)
    extra = {}
    if fits:
        extra["correlation_lengths"] = fits
    if skipped:
        extra["correlation_lengths_skipped"] = skipped
    return _write_rows(out, config, seed, "sweep", rows, **extra)


def cmd_adiabatic(args, config: RunConfig, seed: int, out: Path) -> int:
    for key in ("neel_delta", "neel_weight"):
        if key in config.sections.get("hamiltonian", {}):
            raise ConfigError(f"hamiltonian.{key} has no effect in an adiabatic run: the ramp "
                              "sets the staggered weight, and ramp.neel_delta its strength")
    spec = config.hamiltonian()
    ramp_body = config.sections.get("ramp", {})
    sample_times = ramp_body.get("sample_times", ())
    ramp = dynamics.RampSpec(
        t_final=config.require("ramp", "t_final"),
        dt=ramp_body.get("dt", dynamics.DEFAULT_DT),
        neel_delta=ramp_body.get("neel_delta", 40.0 * abs(spec.j)),
        ramp_exponent=ramp_body.get("exponent", 4),
        sample_times=tuple(sample_times),
    )
    snapshots = dynamics.adiabatic_evolve(spec, ramp)
    kinds = tuple(ramp_body.get("monitor", ("reflection",)))
    rows = dynamics.monitor_invariants(snapshots, config.require("partition", "pairs"), kinds,
                                       "exact")
    return _write_rows(out, config, seed, "adiabatic", rows,
                       pinning_active=spec.pinning != 0.0, t_final=ramp.t_final, dt=ramp.dt,
                       sector=dynamics.ramp_sector(spec),
                       max_norm_drift=max(abs(np.linalg.norm(state.amplitudes) - 1.0)
                                          for _time, state in snapshots))


def cmd_error_scan(args, config: RunConfig, seed: int, out: Path) -> int:
    state, spec = _prepared_state(config)
    partition = config.partition(spec.num_sites)
    params = _protocol_params(config, partition, seed)
    rows = analysis.error_scaling_scan(
        state, params, config.require("error_scan", "axis"),
        config.require("error_scan", "values"),
        config.require("error_scan", "repetitions"),
    )
    return _write_rows(out, config, seed, "error_scan", rows)


def cmd_twirl_check(args, config: RunConfig | None, seed: int | None, out: Path) -> int:
    seed = seed if seed is not None else 0
    rng = np.random.default_rng(seed)
    reports = [protocols.twirl_check(channel, args.samples, rng)
               for channel in ("phi", "psi")]
    body = {report.channel: {"n_samples": report.n_samples,
                             "frobenius_error": report.frobenius_error,
                             "target": report.target}
            for report in reports}
    _write_json(out / "twirl_check.json", _payload(None, seed, "twirl-check", body))
    return 0


def cmd_campaign_export(args, config: RunConfig, seed: int, out: Path) -> int:
    state, spec = _prepared_state(config)
    partition = config.partition(spec.num_sites)
    params = _protocol_params(config, partition, seed)
    records = protocols.run_campaign(state, params)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "campaign.records"
    protocols.write_records(path, records, params)
    print(path)
    return 0


def cmd_campaign_analyze(args, config: RunConfig | None, seed: int | None, out: Path) -> int:
    # the master seed is the one the records were taken with
    records, params = protocols.read_records(args.records)
    est = protocols.estimate_raw(records, params)
    body = {
        "kind": params.kind, "raw_value": est.value, "raw_std_error": est.std_error,
        "n_unitaries": params.n_unitaries, "n_shots": params.n_shots,
        "master_seed": params.master_seed,
    }
    if params.kind in protocols.NORMALIZED_KINDS:
        norm = protocols.estimate_normalized(records, params)
        body["normalized_value"] = norm.value
        body["normalized_std_error"] = norm.std_error
    _write_json(out / "campaign_analysis.json",
                _payload(None, params.master_seed, "campaign-analyze", body))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoprobe",
        description="randomized-measurement probes of topological order in spin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, about, config_required=True):
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run)
        if config_required:
            p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="output directory")
        return p

    command("ground-state", cmd_ground_state, "solve for the ground state")
    p_inv = command("invariants", cmd_invariants, "exact or sampled invariant at one point")
    mode = p_inv.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact")
    mode.add_argument("--sampled", dest="mode", action="store_const", const="sampled")
    p_inv.add_argument("--exact-reference", action="store_true",
                       help="also compute the exact oracle value in sampled mode")
    command("sweep", cmd_sweep, "parameter sweep to CSV")
    command("adiabatic", cmd_adiabatic, "adiabatic ramp with invariant monitoring")
    command("error-scan", cmd_error_scan, "statistical error scaling scan")
    p_twirl = command("twirl-check", cmd_twirl_check, "Monte Carlo twirling-identity check",
                      config_required=False)
    p_twirl.add_argument("--samples", type=int, default=100000)
    command("campaign-export", cmd_campaign_export, "persist raw measurement records")
    p_an = command("campaign-analyze", cmd_campaign_analyze,
                   "re-estimate from persisted records", config_required=False)
    p_an.add_argument("--records", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            protocols.check_seed(args.seed, "--seed")
        config = load_config(args.config) if "config" in args else None
        seed = args.seed if args.seed is not None or config is None else config.master_seed()
        out = Path(args.out or (config and config.get("run", "out")) or ".")
        return args.run(args, config, seed, out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, dynamics.NormDriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
