"""Trotterized real-time evolution and adiabatic state preparation.

The propagator for one step of length dt uses the symmetric splitting

    exp(-i H dt) ~ A(dt/2) B(dt/2) D(dt) B(dt/2) A(dt/2)

where A collects the strong (even-left) bonds, B the weak (odd-left)
bonds, and D the diagonal field part (staggered field and pinning). Bonds
inside each group act on disjoint site pairs, so the group exponentials
are exact; only the splitting between groups carries the O(dt^2) error.
The bonds and the staggered diagonal are read from one
``hamiltonians.CompiledHamiltonian``: each gate exponentiates its 4x4 bond
matrix (exchange, anisotropy and the symmetry-breaking term), and D takes
``neel_diag`` and the pinning field, read off each basis state's site-0
bit in both bases. For ramps, the time-dependent staggered-field weight
is evaluated at the midpoint of each step, which preserves second-order
accuracy.

In the full 2^N space a bond group's gates on the lowest
``LOW_BLOCK_WIDTH`` sites multiply the amplitudes as one matrix, their
Kronecker product, and every higher gate is a batched 4x4 matmul
(``_full_group``). In one sector of fixed sum S^z (B = 0 only) a group is
one diagonal plus an in-place gather per gate through its bond's partner
table (``_sector_group``). In both bases ``TrotterStepper.step`` merges
the even half-steps of consecutive steps into one A(dt) wherever no
state is read between them, and D is exponentiated over its at most
2(N + 1) distinct values (``TrotterStepper.phases``).

The adiabatic ramp starts from the staggered product state and turns the
strong staggered field off with weight f(t) = (t/t_final - 1)^exponent,
so f(0) = 1 and f(t_final) = 0; the exponent must be a positive even
integer, and dt must divide t_final. At B = 0 it runs in its start state's
sector, sum S^z = 0 (``ramp_sector``); B != 0 ramps and ``evolve`` use 2^N.
``evolve`` runs the ramp's stepping loop at a constant weight, sampling
only its start and end.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np

from .hamiltonians import CompiledHamiltonian, HamiltonianSpec
from .partitions import partition_for
from .protocols import estimate_reported, reported_exact, run_campaign
from .rdm import exact_invariant
from .spincore import SpinState, neel_state

DEFAULT_DT = 0.01
NORM_DRIFT_TOL = 1e-8
STEP_COUNT_RTOL = 1e-9
LOW_BLOCK_WIDTH = 5  # lowest sites whose full-space gates multiply as one matrix


class NormDriftError(RuntimeError):
    """The Trotterized state lost its normalization beyond NORM_DRIFT_TOL."""


@dataclass(frozen=True)
class RampSpec:
    """Adiabatic ramp parameters, in units where the strong coupling sets
    the timescale."""

    t_final: float
    dt: float = DEFAULT_DT
    neel_delta: float = 40.0
    ramp_exponent: int = 4
    sample_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0 < self.dt <= self.t_final:
            raise ValueError(f"need 0 < dt <= t_final, got dt={self.dt}, t_final={self.t_final}")
        _step_count(self.t_final, self.dt)
        exponent = self.ramp_exponent
        if not isinstance(exponent, int) or exponent <= 0 or exponent % 2:
            raise ValueError(f"ramp exponent must be a positive even integer, got {exponent!r}")
        for t in self.sample_times:
            if not 0.0 <= t <= self.t_final + 1e-12:
                raise ValueError(f"sample time {t} outside [0, {self.t_final}]")

    def weight(self, t: float) -> float:
        return float((t / self.t_final - 1.0) ** self.ramp_exponent)


def _step_count(t_total: float, dt: float) -> int:
    """Number of steps of length dt in t_total; dt must divide t_total."""
    if not (dt > 0 and t_total >= 0):
        raise ValueError(f"need dt > 0 and t_total >= 0, got dt={dt}, t_total={t_total}")
    if not np.isfinite(t_total / dt):
        raise ValueError(f"t_total={t_total} / dt={dt} is not a finite step count")
    steps = round(t_total / dt)
    if abs(steps * dt - t_total) > STEP_COUNT_RTOL * abs(t_total):
        raise ValueError(f"dt={dt} does not divide the evolution time {t_total}")
    return steps


def _bond_gate(h4: np.ndarray, dt: float) -> np.ndarray:
    # eigh of the complex matrix (zheevd): the real solver gives gates
    # about 3e-13 apart, which would move every ramp's amplitudes
    evals, evecs = np.linalg.eigh(h4.astype(complex))
    return (evecs * np.exp(-1j * dt * evals)) @ evecs.conj().T


class TrotterStepper:
    """Precomputed gates for a fixed step size over a fixed Hamiltonian, on
    2^N or, at B = 0, on the sorted ``states`` of one S^z sector; it builds
    none of the matvec's half blocks."""

    def __init__(self, spec: HamiltonianSpec, dt: float, sector: int | None = None):
        self.spec = spec
        self.dt = dt
        compiled = CompiledHamiltonian(spec, sector)
        self.states = compiled.states
        if sector is None:
            group, self._apply = partial(_full_group, compiled), _apply_group
        else:
            group = partial(_sector_group, compiled, _partners(compiled))
            self._apply = _apply_sector_group
        keys = ((0, dt / 2.0), (1, dt / 2.0), (0, dt))  # (parity, tau): A(dt/2), B(dt/2), A(dt)
        self.even, self.odd, self.even_merged = (group(*key) for key in keys)
        indices = np.arange(compiled.dim) if self.states is None else self.states
        static = spec.pinning * (1.0 - 2.0 * (indices & 1))
        pairs, codes = np.unique(np.stack([static, compiled.neel_diag], axis=1),
                                 axis=0, return_inverse=True)
        self.static_values, self.neel_values = pairs.T
        self.diag_codes = codes.reshape(-1)

    def phases(self, neel_weight: float) -> np.ndarray:
        """exp(-i dt D) per basis state, from the table of distinct entries of D."""
        diag = self.static_values + self.spec.neel_delta * neel_weight * self.neel_values
        return np.exp(-1j * self.dt * diag)[self.diag_codes]

    def step(self, amps: np.ndarray, neel_weight: float, opened: bool = False,
             merge: bool = False) -> np.ndarray:
        """One symmetric step; ``neel_weight`` is the midpoint field weight.
        ``merge`` ends the step with the next step's opening even half-step
        too (one A(dt)), and that next step takes ``opened``."""
        if not opened:
            amps = self._apply(self.even, amps)
        amps = self._apply(self.odd, amps)
        amps *= self.phases(neel_weight)  # a fresh array, so in place
        amps = self._apply(self.odd, amps)
        return self._apply(self.even_merged if merge else self.even, amps)


def _full_group(compiled: CompiledHamiltonian, parity: int, tau: float):
    """The gates exp(-i tau h) at left sites of ``parity``: the product of
    those inside the lowest w = min(LOW_BLOCK_WIDTH, N) sites as one 2^w
    square matrix (transposed), and the others as (left site, gate)."""
    width = min(LOW_BLOCK_WIDTH, compiled.spec.num_sites)
    gates = [(left, _bond_gate(h, tau)) for left, h in compiled.bonds if left % 2 == parity]
    low = [np.kron(np.kron(np.eye(2 ** (width - 2 - left)), gate), np.eye(2 ** left))
           for left, gate in gates if left + 2 <= width]
    return reduce(np.matmul, low).T, [(left, gate) for left, gate in gates if left + 2 > width]


def _apply_group(group, amps: np.ndarray) -> np.ndarray:
    """The product of one full-space bond group's gates: its low block, then
    each higher gate on its strided view."""
    low_t, high = group
    amps = (amps.reshape(-1, low_t.shape[0]) @ low_t).reshape(-1)
    for left, gate in high:
        amps = np.matmul(gate, amps.reshape(-1, 4, 2 ** left)).reshape(-1)
    return amps


def _partners(compiled: CompiledHamiltonian) -> list[tuple[int, np.ndarray]]:
    """(left site, partner) per sector bond with exchange: ``partner`` holds
    the index into ``compiled.states`` of the state the bond flips each state
    into, or the zero slot ``dim`` where the bond does not flip it."""
    # (c/2)(XX+YY) couples |01> <-> |10> of a bond with amplitude c;
    # every state outside the sector maps to the zero slot dim, and
    # flipping both bits of a 00 or 11 bond leaves the sector
    lookup = np.full(2 ** compiled.spec.num_sites, compiled.dim, dtype=np.intp)
    lookup[compiled.states] = np.arange(compiled.dim)
    return [(left, lookup[compiled.states ^ (3 << left)])
            for left, h in compiled.bonds if h[1, 2] != 0.0]


def _sector_group(compiled: CompiledHamiltonian, partners: list, parity: int, tau: float):
    """The product of the diagonals of the sector gates g = exp(-i tau h) with
    left site of ``parity``, and per gate (g[1, 2] / g[1, 1], partner table).
    The diagonal goes first, so t multiplies amplitudes that carry g[1, 1]
    already, and the step stays accurate where g[1, 1] ~ cos(c tau) is small."""
    diag, flips = np.ones(compiled.dim, dtype=complex), []
    for left, partner in partners:
        if left % 2 == parity:
            gate = _bond_gate(compiled.bonds[left][1], tau)
            diag *= np.where(partner == compiled.dim, gate[0, 0], gate[1, 1])
            flips.append((gate[1, 2] / gate[1, 1], partner))
    return diag, flips


def _apply_sector_group(group, amps: np.ndarray) -> np.ndarray:
    """One sector bond group on a copy of ``amps`` padded with the zero slot
    ``dim``: the diagonal, then amps += t amps[partner] per bond, in place."""
    diag, flips = group
    padded = np.concatenate((amps, [0.0]))
    amps = padded[:-1]
    amps *= diag
    for coefficient, partner in flips:
        flipped = padded[partner]
        flipped *= coefficient
        amps += flipped
    return amps


def evolve(spec: HamiltonianSpec, state: SpinState, t_total: float,
           dt: float = DEFAULT_DT) -> SpinState:
    """Evolve under the time-independent Hamiltonian of ``spec``."""
    if state.num_sites != spec.num_sites:
        raise ValueError(f"chain size does not match: {state.num_sites} != {spec.num_sites}")
    steps = _step_count(t_total, dt)
    samples = _trotter_samples(TrotterStepper(spec, dt), state.amplitudes, steps,
                               lambda _step: spec.neel_weight, {0, steps})
    return SpinState(spec.num_sites, list(samples)[-1][1])


def _trotter_samples(stepper: TrotterStepper, amps: np.ndarray, steps: int, weight,
                     sample_steps: set[int]):
    """(step, norm-checked amplitudes) at each of ``sample_steps`` in 0..steps;
    step s runs at weight ``weight(s)``, merging half-steps between samples."""
    for step in range(steps + 1):
        if step:
            amps = stepper.step(amps, weight(step), opened=step - 1 not in sample_steps,
                                merge=step not in sample_steps)
        if step in sample_steps:
            _check_norm(amps)
            yield step, amps


def ramp_sector(spec: HamiltonianSpec) -> int | None:
    """Sum S^z of a ramp's basis: 0, the Neel state's, at B = 0, else None."""
    return 0 if spec.b_field == 0.0 else None


def adiabatic_evolve(spec: HamiltonianSpec, ramp: RampSpec) -> list[tuple[float, SpinState]]:
    """Ramp the staggered field off, starting from the staggered product
    state; returns (time, state) snapshots at the requested sample times
    (plus t=0 and t=t_final), each rounded to the nearest step boundary.
    Snapshots that would not fit in physical memory (2^N complex amplitudes
    per distinct sample step) raise ``ValueError`` before any is allocated.
    """
    if ramp.neel_delta < 10.0 * abs(spec.j):
        warnings.warn("staggered field is weak relative to the exchange coupling; "
                      "the initial product state is a poor ground state", stacklevel=2)
    total_steps = _step_count(ramp.t_final, ramp.dt)
    sample_steps = {0, total_steps} | {int(round(t / ramp.dt)) for t in ramp.sample_times}
    needed = len(sample_steps) * spec.dim * 16
    available = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed > available:
        raise ValueError(f"{len(sample_steps)} ramp snapshots of {spec.dim} amplitudes need "
                         f"{needed} bytes, more than the {available} bytes of physical memory")
    sector = ramp_sector(spec)
    stepper = TrotterStepper(replace(spec, neel_delta=ramp.neel_delta), ramp.dt, sector)

    start = neel_state(spec.num_sites).amplitudes
    snapshots = []
    for step, amps in _trotter_samples(stepper, start if sector is None else start[stepper.states],
                                       total_steps, lambda s: ramp.weight((s - 0.5) * ramp.dt),
                                       sample_steps):
        full = np.zeros(spec.dim, dtype=complex)
        full[slice(None) if sector is None else stepper.states] = amps
        snapshots.append((step * ramp.dt, SpinState(spec.num_sites, full)))
    return snapshots


def _check_norm(amps: np.ndarray) -> None:
    drift = abs(np.linalg.norm(amps) - 1.0)
    if not drift <= NORM_DRIFT_TOL:  # NaN fails too
        raise NormDriftError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL:.0e}; reduce dt")


def monitor_invariants(snapshots: list[tuple[float, SpinState]], pairs: int,
                       kinds: tuple[str, ...] = ("reflection",),
                       mode: str = "exact", params=None) -> list[dict]:
    """Invariant time series over ramp snapshots.

    Each kind is measured on its own centered layout of ``pairs``-site
    segments (``partitions.partition_for``), as in sweeps.
    ``mode='exact'`` contracts the reduced density matrix directly;
    ``mode='sampled'`` runs a randomized-measurement campaign per snapshot
    using ``params`` (a ProtocolParams whose kind and partition are
    overridden per entry; snapshot ``index`` draws its master seed from
    ``SeedSequence(params.master_seed, spawn_key=(index,))``). ``value`` is
    the reported value of ``protocols.estimate_reported``: normalized for
    reflection and time reversal, raw for d2 and klein_bottle.
    """
    if not snapshots:
        raise ValueError("no snapshots to monitor")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled" and params is None:
        raise ValueError("mode 'sampled' needs params (a ProtocolParams)")
    rows = []
    for index, (time_point, state) in enumerate(snapshots):
        for kind in kinds:
            partition = partition_for(kind, state.num_sites, pairs)
            row = {"time": time_point, "kind": kind, "mode": mode}
            if mode == "exact":
                value = exact_invariant(state, partition, kind)
                row["value"] = reported_exact(value)
                row["raw"] = value.raw
            else:
                seed = np.random.SeedSequence(params.master_seed, spawn_key=(index,))
                point_params = replace(params, kind=kind, partition=partition,
                                       master_seed=int(seed.generate_state(1, np.uint64)[0]))
                est = estimate_reported(run_campaign(state, point_params), point_params)
                row["value"] = est.value
                row["std_error"] = est.std_error
            rows.append(row)
    return rows
