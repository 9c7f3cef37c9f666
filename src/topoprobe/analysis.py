"""Parameter sweeps, correlation-length fits, and error-scaling studies.

Sweeps evaluate the Cartesian product of the requested axes; every row
carries the full inputs, outputs, errors, and seeds, so a CSV dump plus its
JSON sidecar reproduces the run. A per-point failure is recorded in the
row's ``error`` column and the sweep continues.

Statistical error in the scaling scans is the mean absolute deviation of
the sampled estimate from the exact contraction, averaged over independent
campaign repetitions; at desk scale the exact value is always available, so
no self-referential error proxy is needed.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .groundstate import ground_state
from .hamiltonians import HamiltonianSpec
from .partitions import partition_for
from .protocols import NORMALIZED_KINDS, ProtocolParams, check_seed, estimate_raw, \
    estimate_reported, reported_exact, run_campaign
from .rdm import exact_invariant

SWEEPABLE = ("j_prime", "delta", "b_field", "pairs", "n_unitaries", "n_shots")
# axes that count something; 2.0 is accepted as 2, 1.5 is rejected
INTEGER_AXES = ("pairs", "n_unitaries", "n_shots")
FIT_POINT_COUNT = 3


@dataclass(frozen=True)
class SweepSpec:
    """Axes over Hamiltonian/protocol parameters around a fixed base point."""

    base: HamiltonianSpec
    kind: str
    pairs: int
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    mode: str = "exact"
    n_unitaries: int = 512
    n_shots: int = 256
    repetitions: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if not self.axes:
            raise ValueError("need at least one sweep axis")
        for name, values in self.axes:
            if name not in SWEEPABLE:
                raise ValueError(f"cannot sweep over {name!r} (allowed: {SWEEPABLE})")
            if len(values) == 0 or not all(np.isfinite(v) for v in values):
                raise ValueError(f"axis {name!r} needs finite values")
            if name in INTEGER_AXES:
                for value in values:
                    _integral(f"axis {name!r}", value)
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        object.__setattr__(self, "repetitions", _integral("repetitions", self.repetitions))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        check_seed(self.master_seed, "master_seed")


def _integral(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is a
    whole number other than a bool."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"{name} needs integer values, got {value}")
    return int(value)


def _axis_grid(axes) -> list[dict]:
    points = [{}]
    for name, values in axes:
        points = [dict(p, **{name: v}) for p in points for v in values]
    return points


def _sweep_point(spec: SweepSpec, point: dict, repetition: int, point_seed: int) -> dict:
    row = {name: point[name] for name, _values in spec.axes}
    row.update(repetition=repetition, kind=spec.kind, mode=spec.mode,
               seed=point_seed, value=None, std_error=None, exact=None, error="")
    try:
        ham = replace(spec.base, **{k: v for k, v in point.items()
                                    if k in ("j_prime", "delta", "b_field")})
        pairs = int(point.get("pairs", spec.pairs))
        partition = partition_for(spec.kind, ham.num_sites, pairs)
        state = ground_state(ham, seed=0).state
        row["exact"] = reported_exact(exact_invariant(state, partition, spec.kind))
        if spec.mode == "exact":
            row["value"] = row["exact"]
        else:
            params = ProtocolParams(
                spec.kind, int(point.get("n_unitaries", spec.n_unitaries)),
                int(point.get("n_shots", spec.n_shots)), partition, point_seed,
            )
            est = estimate_reported(run_campaign(state, params), params)
            row["value"] = est.value
            row["std_error"] = est.std_error
    except Exception as exc:  # per-point failures must not kill the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep grid; rows are ordered by the axis tuples and are
    a pure function of (spec, master_seed).

    Ground states come from the ``ground_state`` memo, so a sweep holds
    ``MEMO_BYTES`` plus one state. A Hamiltonian is solved again only if
    the memo evicted it: more distinct Hamiltonians than the memo holds,
    with a protocol axis listed before the Hamiltonian axes. Failed solves
    are not memoized, so each point of a failing Hamiltonian retries.
    """
    seed_rng = np.random.default_rng(spec.master_seed)
    return [_sweep_point(spec, point, repetition, int(seed_rng.integers(0, 2 ** 63 - 1)))
            for point in _axis_grid(spec.axes) for repetition in range(spec.repetitions)]


def write_rows_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# -- correlation length ------------------------------------------------------

@dataclass(frozen=True)
class CorrelationLengthFit:
    length_scale: float
    fit_points: tuple[tuple[float, float], ...]
    quantized_target: float
    residual: float
    flag: str = ""


def fit_correlation_length(pair_counts, values, target_sign: float | None = None) -> CorrelationLengthFit:
    """Exponential convergence scale of the invariant toward its quantized
    value: least squares of log(1 - sign * value) against the pair count,
    on the first three points.

    Raises ``ValueError`` when any value has |value| >= 1: a series that has
    reached or overshot the quantized value has no positive deviation to
    log-fit. With every |value| < 1 each deviation is positive, so the fit
    always runs; a slope >= 0 returns an infinite length scale flagged
    ``non_decaying``.
    """
    pair_counts = np.asarray(pair_counts, dtype=float)
    values = np.asarray(values, dtype=float)
    if pair_counts.shape != values.shape or pair_counts.size < FIT_POINT_COUNT:
        raise ValueError(f"need at least {FIT_POINT_COUNT} (pair count, value) points")
    if np.any(np.abs(values) >= 1.0):
        raise ValueError("fit requires |value| < 1 for every point")
    sign = float(target_sign) if target_sign is not None else float(np.sign(values[-1]))
    if sign not in (-1.0, 1.0):
        raise ValueError("target sign must be -1 or +1")
    ns = pair_counts[:FIT_POINT_COUNT]
    deviations = 1.0 - sign * values[:FIT_POINT_COUNT]
    points = tuple(zip(ns.tolist(), values[:FIT_POINT_COUNT].tolist()))
    log_dev = np.log(deviations)
    slope, intercept = np.polyfit(ns, log_dev, 1)
    residual = float(np.sqrt(np.mean((log_dev - (slope * ns + intercept)) ** 2)))
    if slope >= 0.0:
        return CorrelationLengthFit(np.inf, points, sign, residual, flag="non_decaying")
    return CorrelationLengthFit(float(-1.0 / slope), points, sign, residual)


def correlation_length_fits(rows: list[dict]) -> tuple[list[dict], list[dict]]:
    """One correlation-length fit per series of sweep rows along the pairs
    axis, a series per kind, combination of the other axes and repetition;
    rows with an error are left out. Series come in the order of their
    first row.

    Returns ``(fits, skipped)``. A series the fit rejects (fewer than
    ``FIT_POINT_COUNT`` points, or some |value| >= 1) goes to ``skipped``
    with its pair counts, values and the reason. Only rows of a kind with a
    normalized, quantized value are fitted.
    """
    by_pairs = [row for row in rows
                if row["kind"] in NORMALIZED_KINDS and "pairs" in row and not row["error"]]
    other_keys = sorted({k for row in by_pairs for k in row
                         if k not in ("pairs", "kind", "mode", "seed", "value",
                                      "std_error", "exact", "error")})
    groups: dict[tuple, list] = {}
    for row in by_pairs:
        groups.setdefault((row["kind"],) + tuple(row[k] for k in other_keys), []).append(row)
    fits, skipped = [], []
    for (kind, *group_key), group in groups.items():
        group.sort(key=lambda row: row["pairs"])
        pair_counts = [row["pairs"] for row in group]
        values = [row["value"] for row in group]
        labels = {"kind": kind, **dict(zip(other_keys, group_key))}
        try:
            fit = fit_correlation_length(pair_counts, values)
        except ValueError as exc:
            skipped.append({**labels, "pair_counts": pair_counts, "values": values,
                            "reason": str(exc)})
            continue
        fits.append({**labels, "length_scale": fit.length_scale, "flag": fit.flag})
    return fits, skipped


# -- error scaling -------------------------------------------------------------

def error_scaling_scan(state, base: ProtocolParams, axis: str, values,
                       repetitions: int) -> list[dict]:
    """Mean absolute estimator error versus one protocol axis.

    Each grid point runs ``repetitions`` campaigns with independent derived
    seeds; the error is measured against the exact contraction of the raw
    invariant.
    """
    if axis not in ("n_unitaries", "n_shots", "pairs"):
        raise ValueError(f"axis must be n_unitaries, n_shots or pairs, got {axis!r}")
    repetitions = _integral("repetitions", repetitions)
    if repetitions < 8:
        raise ValueError("need at least 8 repetitions for a stable mean error")
    values = [_integral(f"axis {axis!r}", value) for value in values]
    seed_rng = np.random.default_rng(base.master_seed)
    rows = []
    for value in values:
        if axis == "pairs":
            params = replace(base, partition=partition_for(base.kind, state.num_sites, value))
        else:
            params = replace(base, **{axis: value})
        exact = exact_invariant(state, params.partition, base.kind).raw
        errors = np.empty(repetitions)
        for rep in range(repetitions):
            rep_params = replace(params, master_seed=int(seed_rng.integers(0, 2 ** 63 - 1)))
            estimate = estimate_raw(run_campaign(state, rep_params), rep_params).value
            errors[rep] = abs(estimate - exact)
        rows.append({
            "axis": axis, "value": value, "mean_abs_error": float(errors.mean()),
            "std_of_mean": float(errors.std() / np.sqrt(repetitions)),
            "repetitions": repetitions, "exact": exact,
        })
    return rows

