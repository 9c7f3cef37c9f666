"""Randomized-measurement campaigns and their statistical estimators.

A campaign draws ``n_unitaries`` independent local-unitary patterns, applies
each pattern to the prepared state, and collects ``n_shots`` projective
outcomes on the measured interval per experiment. Patterns encode which
invariant is being probed through the correlation structure of the
single-site unitaries:

* ``reflection``:    mirror-paired unitaries, one experiment,
* ``purity``:        independent unitaries, one experiment,
* ``time_reversal``: two experiments; the first composes each first-segment
                     unitary with sigma_y, the second conjugates it,
* ``d2``:            two experiments; sigma_x composition on the first
                     segment, identities on the middle segment,
* ``klein_bottle``:  sigma_y composition / conjugation on the first segment,
                     identities in the middle.

Estimators translate outcome statistics into invariant values through
Hamming-distance weights (-2)^(-D). Finite-shot bias is handled per
estimator: the reflection estimator is linear in the probabilities, the
single-experiment purity estimator needs the without-replacement pair
correction, and the two-experiment estimators multiply independent
frequency estimates, which is already unbiased.

Error bars are nonparametric bootstrap over the unitary axis (the unitary
ensemble is the dominant fluctuation axis and resampling it captures shot
noise as well).

Seeding: the master seed spawns one child stream per unitary index plus one
analysis stream, so campaigns are reproducible bit for bit and trivially
parallelizable over unitaries without stream contention.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .partitions import PartitionSpec
from .spincore import PAULI_X, PAULI_Y, SpinState, apply_matrix_at_site, \
    reflection_permutation
from .spincore import _marginal_from_amplitudes, _multinomial_counts

PROTOCOL_KINDS = ("reflection", "time_reversal", "d2", "klein_bottle", "purity")
# kinds whose reported value is the purity-normalized invariant; d2 and
# klein_bottle have no standard normalization and report the raw value
NORMALIZED_KINDS = ("reflection", "time_reversal")
BOOTSTRAP_RESAMPLES = 200

# single-site Hamming weight kernel: (-2)^(-D) between two outcomes
PAIR_KERNEL = np.array([[1.0, -0.5], [-0.5, 1.0]])
# sigma_z eigenvalue product kernel for untouched middle-segment sites
ZZ_KERNEL = np.array([[1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class ProtocolParams:
    kind: str
    n_unitaries: int
    n_shots: int
    partition: PartitionSpec
    master_seed: int

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.n_unitaries < 2:
            raise ValueError("n_unitaries must be >= 2 (resampling needs at least 2)")
        if self.n_shots < 2:
            raise ValueError("n_shots must be >= 2 (pair correction needs at least 2)")
        _check_layout(self.kind, self.partition)


@dataclass(frozen=True)
class UnitaryPattern:
    """Per-site unitaries for one random draw, one array row per interval
    site (ascending site order). ``base`` holds the raw CUE draws before any
    fixed-gate composition or conjugation."""

    kind: str
    experiment_1: np.ndarray = field(repr=False)
    experiment_2: np.ndarray | None = field(repr=False, default=None)
    base: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome counts on the interval for one (unitary, experiment) pair.

    ``counts[s]`` indexes outcomes with the first interval site as the least
    significant bit. When ``exact`` is set the vector holds Born
    probabilities instead of integer counts (infinite-shot mode).
    """

    unitary_index: int
    experiment: int
    counts: np.ndarray = field(repr=False)
    exact: bool = False


@dataclass(frozen=True)
class EstimatorResult:
    value: float
    std_error: float
    kind: str
    n_unitaries: int
    n_shots: int
    master_seed: int
    exact_reference: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"estimate is not finite: {self.value}")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


# -- circular unitary ensemble ----------------------------------------------

def _ginibre(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))


def _qr_haar(ginibre: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]


def sample_cue(rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-random 2x2 unitaries via QR of complex Ginibre matrices.

    The R-diagonal phase correction makes the QR decomposition unique and
    the resulting distribution exactly Haar. Returns shape (2, 2) when
    ``count`` is None, else (count, 2, 2).
    """
    q = _qr_haar(_ginibre(rng, 1 if count is None else count))
    return q[0] if count is None else q


# -- patterns ----------------------------------------------------------------

def _pattern_draw_count(kind: str, partition: PartitionSpec) -> int:
    if kind == "reflection":
        return partition.pairs
    if kind in ("purity", "time_reversal"):
        return partition.interval_size
    if kind in ("d2", "klein_bottle"):
        return 2 * partition.pairs  # first and third segments only
    raise ValueError(f"unknown protocol kind {kind!r}")


def _assemble_pattern(kind: str, partition: PartitionSpec, draws: np.ndarray) -> UnitaryPattern:
    length = partition.interval_size
    if kind == "reflection":
        exp1 = np.empty((length, 2, 2), dtype=complex)
        for i in range(partition.pairs):
            exp1[i] = draws[i]
            exp1[length - 1 - i] = draws[i]
        return UnitaryPattern(kind, exp1, None, draws)
    if kind == "purity":
        return UnitaryPattern(kind, draws, None, draws)
    if kind == "time_reversal":
        n = partition.pairs
        exp1 = draws.copy()
        exp2 = draws.copy()
        exp1[:n] = draws[:n] @ PAULI_Y
        exp2[:n] = draws[:n].conj()
        return UnitaryPattern(kind, exp1, exp2, draws)
    if kind in ("d2", "klein_bottle"):
        n = partition.pairs
        exp1 = np.broadcast_to(np.eye(2, dtype=complex), (length, 2, 2)).copy()
        exp2 = exp1.copy()
        fixed = PAULI_X if kind == "d2" else PAULI_Y
        exp1[:n] = draws[:n] @ fixed
        exp2[:n] = draws[:n] if kind == "d2" else draws[:n].conj()
        exp1[2 * n:] = draws[n:]
        exp2[2 * n:] = draws[n:]
        return UnitaryPattern(kind, exp1, exp2, draws)
    raise ValueError(f"unknown protocol kind {kind!r}")


def _check_layout(kind: str, partition: PartitionSpec) -> None:
    if kind in ("d2", "klein_bottle"):
        if not partition.is_three_segment_layout:
            raise ValueError(f"{kind} needs a three-segment partition")
    elif not partition.is_reflection_layout:
        raise ValueError(f"{kind} needs a two-segment reflection partition")


def build_pattern(kind: str, partition: PartitionSpec, rng: np.random.Generator) -> UnitaryPattern:
    """Draw one unitary pattern with the correlation structure of ``kind``."""
    _check_layout(kind, partition)
    return _assemble_pattern(kind, partition, sample_cue(rng, _pattern_draw_count(kind, partition)))


# -- campaigns ----------------------------------------------------------------

def _unitary_streams(master_seed: int, n_unitaries: int) -> list[np.random.SeedSequence]:
    root = np.random.SeedSequence(master_seed)
    campaign_root, _analysis_root = root.spawn(2)
    return campaign_root.spawn(n_unitaries)


def _analysis_stream(master_seed: int) -> np.random.SeedSequence:
    root = np.random.SeedSequence(master_seed)
    _campaign_root, analysis_root = root.spawn(2)
    return analysis_root


def run_campaign(state: SpinState, params: ProtocolParams,
                 exact_probabilities: bool = False) -> list[MeasurementRecord]:
    """Simulate the full campaign; deterministic given ``params.master_seed``.

    With ``exact_probabilities`` the projective sampling step is skipped and
    each record stores the exact Born distribution for its experiment
    (infinite-shot limit, used to validate estimator unbiasedness).
    """
    partition = params.partition
    if partition.num_sites != state.num_sites:
        raise ValueError("partition chain size does not match state")
    sites = partition.sites
    num_sites = state.num_sites
    n_unitaries = params.n_unitaries
    draw_count = _pattern_draw_count(params.kind, partition)

    # draw every pattern's Ginibre seeds from its own stream, then run one
    # batched QR for the whole campaign (bitwise identical to per-draw QR)
    shot_streams = []
    ginibre = np.empty((n_unitaries, draw_count, 2, 2), dtype=complex)
    for u_index, seq in enumerate(_unitary_streams(params.master_seed, n_unitaries)):
        pattern_stream, shot_stream_1, shot_stream_2 = seq.spawn(3)
        ginibre[u_index] = _ginibre(np.random.default_rng(pattern_stream), draw_count)
        shot_streams.append((shot_stream_1, shot_stream_2))
    haar = _qr_haar(ginibre.reshape(-1, 2, 2)).reshape(n_unitaries, draw_count, 2, 2)

    records: list[MeasurementRecord] = []
    for u_index in range(n_unitaries):
        pattern = _assemble_pattern(params.kind, partition, haar[u_index])
        experiments = [(1, pattern.experiment_1, shot_streams[u_index][0])]
        if pattern.experiment_2 is not None:
            experiments.append((2, pattern.experiment_2, shot_streams[u_index][1]))
        for exp_index, matrices, shot_stream in experiments:
            amps = state.amplitudes
            for site, mat in zip(sites, matrices):
                amps = apply_matrix_at_site(amps, num_sites, site, mat)
            probs = _marginal_from_amplitudes(amps, num_sites, sites)
            if exact_probabilities:
                records.append(MeasurementRecord(u_index, exp_index, probs, exact=True))
            else:
                counts = _multinomial_counts(probs, params.n_shots,
                                             np.random.default_rng(shot_stream))
                records.append(MeasurementRecord(u_index, exp_index, counts))
    return records


# -- estimator internals -------------------------------------------------------

def _stack_records(records: list[MeasurementRecord], params: ProtocolParams,
                   experiment: int) -> tuple[np.ndarray, bool]:
    """Counts (or probabilities) as an (n_unitaries, 2^|I|) matrix."""
    selected = [r for r in records if r.experiment == experiment]
    if len(selected) != params.n_unitaries:
        raise ValueError(
            f"expected {params.n_unitaries} experiment-{experiment} records, got {len(selected)}"
        )
    selected.sort(key=lambda r: r.unitary_index)
    if [r.unitary_index for r in selected] != list(range(params.n_unitaries)):
        raise ValueError("records do not cover unitary indices 0..n_unitaries-1")
    exact = selected[0].exact
    if any(r.exact != exact for r in selected):
        raise ValueError("cannot mix exact and sampled records")
    return np.stack([np.asarray(r.counts, dtype=float) for r in selected]), exact


def _frequencies(matrix: np.ndarray, exact: bool, n_shots: int) -> np.ndarray:
    return matrix if exact else matrix / n_shots


def _apply_kernel_rows(matrix: np.ndarray, kernels: list[np.ndarray]) -> np.ndarray:
    """Right-multiply each row by the tensor product of per-position 2x2
    kernels (position j = bit j of the outcome index)."""
    rows, dim = matrix.shape
    out = matrix
    for pos, kernel in enumerate(kernels):
        view = out.reshape(rows, -1, 2, 2 ** pos)
        out = np.einsum("ab,xcbd->xcad", kernel, view).reshape(rows, dim)
    return out


def _bootstrap_std(per_unitary: np.ndarray, master_seed: int, normalizer=None) -> float:
    """Bootstrap standard error of the mean over the unitary axis.

    For a ratio statistic, ``normalizer`` maps the index arrays to its
    denominator, which is then resampled jointly with the numerator.
    """
    rng = np.random.default_rng(_analysis_stream(master_seed))
    n = per_unitary.shape[0]
    picks = rng.integers(0, n, size=(BOOTSTRAP_RESAMPLES, n))
    values = per_unitary[picks].mean(axis=1)
    if normalizer is not None:
        values = values / normalizer(picks)
    return float(np.std(values))


def _mean_result(per_unitary: np.ndarray, params: ProtocolParams,
                 kind: str) -> EstimatorResult:
    return EstimatorResult(float(per_unitary.mean()),
                           _bootstrap_std(per_unitary, params.master_seed),
                           kind, params.n_unitaries, params.n_shots, params.master_seed)


# -- estimators ----------------------------------------------------------------

def reflection_weights(partition: PartitionSpec) -> np.ndarray:
    """(-2)^(-D[s, reversed(s)]/2) per outcome; D is always even because
    mismatches across the mirror come in pairs."""
    length = partition.interval_size
    perm = reflection_permutation(length)
    indices = np.arange(2 ** length)
    distance = np.bitwise_count(indices ^ perm)
    if np.any(distance % 2 != 0):
        raise AssertionError("mirror Hamming distance must be even")
    half = distance // 2
    return np.where(half % 2 == 0, 1.0, -1.0) * 0.5 ** half


def per_unitary_reflection(records: list[MeasurementRecord],
                           params: ProtocolParams) -> np.ndarray:
    matrix, exact = _stack_records(records, params, experiment=1)
    freqs = _frequencies(matrix, exact, params.n_shots)
    weights = reflection_weights(params.partition)
    return 2 ** params.partition.pairs * (freqs @ weights)


def estimate_reflection(records: list[MeasurementRecord],
                        params: ProtocolParams) -> EstimatorResult:
    """Reflection invariant from mirror-paired randomized measurements."""
    if params.kind != "reflection":
        raise ValueError(f"records come from a {params.kind!r} campaign")
    return _mean_result(per_unitary_reflection(records, params), params, params.kind)


def _segment_counts(matrix: np.ndarray, partition: PartitionSpec, segment: int) -> np.ndarray:
    """Marginalize interval outcome vectors onto one segment."""
    length = partition.interval_size
    positions = partition.segment_positions(segment)
    rows = matrix.shape[0]
    tensor = matrix.reshape([rows] + [2] * length)  # axis 1+j <-> position length-1-j
    keep = [1 + length - 1 - p for p in reversed(positions)]
    drop = tuple(ax for ax in range(1, length + 1) if ax not in keep)
    if drop:
        # segments are contiguous, so the kept axes stay in order after the sum
        tensor = tensor.sum(axis=drop)
    return tensor.reshape(rows, -1)


def per_unitary_purity(records: list[MeasurementRecord], params: ProtocolParams,
                       segment: int, experiment: int = 1) -> np.ndarray:
    matrix, exact = _stack_records(records, params, experiment=experiment)
    counts = _segment_counts(matrix, params.partition, segment)
    n_seg = counts.shape[1].bit_length() - 1
    kernels = [PAIR_KERNEL] * n_seg
    weighted = _apply_kernel_rows(counts, kernels)
    quadratic = np.einsum("ij,ij->i", counts, weighted)
    if exact:
        pair_products = quadratic
    else:
        shots = params.n_shots
        # unbiased without-replacement pair average: the kernel diagonal is
        # exactly 1, so subtracting the shot total removes the s = s' bias
        pair_products = (quadratic - shots) / (shots * (shots - 1))
    return 2 ** n_seg * pair_products


def estimate_purity(records: list[MeasurementRecord], params: ProtocolParams,
                    segment: int, experiment: int = 1) -> EstimatorResult:
    """Segment purity from the same campaign records (second-order in the
    outcome frequencies, with the finite-shot pair correction)."""
    return _mean_result(per_unitary_purity(records, params, segment, experiment), params,
                        "purity")


def _cross_kernels(partition: PartitionSpec, kind: str) -> tuple[list[np.ndarray], int]:
    """Per-position kernels and prefactor exponent for two-experiment kinds."""
    length = partition.interval_size
    if kind == "time_reversal":
        return [PAIR_KERNEL] * length, length
    middle = set(partition.segment_positions(1))
    kernels = [ZZ_KERNEL if pos in middle else PAIR_KERNEL for pos in range(length)]
    return kernels, length - len(middle)


def per_unitary_cross(records: list[MeasurementRecord],
                      params: ProtocolParams) -> np.ndarray:
    matrix_1, exact_1 = _stack_records(records, params, experiment=1)
    matrix_2, exact_2 = _stack_records(records, params, experiment=2)
    if exact_1 != exact_2:
        raise ValueError("experiments disagree on exact/sampled mode")
    freq_1 = _frequencies(matrix_1, exact_1, params.n_shots)
    freq_2 = _frequencies(matrix_2, exact_2, params.n_shots)
    kernels, exponent = _cross_kernels(params.partition, params.kind)
    weighted = _apply_kernel_rows(freq_2, kernels)
    # independent experiments: the frequency product is already unbiased
    return 2.0 ** exponent * np.einsum("ij,ij->i", freq_1, weighted)


def _estimate_cross(records: list[MeasurementRecord], params: ProtocolParams,
                    kind: str) -> EstimatorResult:
    if params.kind != kind:
        raise ValueError(f"records come from a {params.kind!r} campaign, expected {kind!r}")
    return _mean_result(per_unitary_cross(records, params), params, kind)


def estimate_time_reversal(records, params) -> EstimatorResult:
    """Time-reversal invariant from cross-correlating the conjugated pair
    of experiments."""
    return _estimate_cross(records, params, "time_reversal")


def estimate_d2(records, params) -> EstimatorResult:
    """Pi-rotation (D2) invariant estimator."""
    return _estimate_cross(records, params, "d2")


def estimate_klein_bottle(records, params) -> EstimatorResult:
    """Klein-bottle invariant estimator."""
    return _estimate_cross(records, params, "klein_bottle")


def estimate_raw(records, params) -> EstimatorResult:
    """Dispatch on the campaign kind (raw, unnormalized invariant)."""
    dispatch = {
        "reflection": estimate_reflection,
        "time_reversal": estimate_time_reversal,
        "d2": estimate_d2,
        "klein_bottle": estimate_klein_bottle,
    }
    if params.kind not in dispatch:
        raise ValueError(f"no raw invariant estimator for kind {params.kind!r}")
    return dispatch[params.kind](records, params)


def estimate_normalized(records, params) -> EstimatorResult:
    """Normalized invariant with jointly bootstrapped error bar.

    The segment purities come from the same records (experiment 1), so the
    resampling happens coherently along the unitary axis.
    """
    if params.kind == "reflection":
        raw = per_unitary_reflection(records, params)
        power = 0.5
    elif params.kind == "time_reversal":
        raw = per_unitary_cross(records, params)
        power = 1.5
    else:
        raise ValueError(
            f"normalized estimates are defined for reflection/time_reversal, not {params.kind!r}"
        )
    purity_1 = per_unitary_purity(records, params, segment=0)
    purity_2 = per_unitary_purity(records, params, segment=1)

    def denominator(picks: np.ndarray) -> np.ndarray:
        mean_p = (purity_1[picks].mean(axis=1) + purity_2[picks].mean(axis=1)) / 2.0
        return np.maximum(mean_p, 1e-12) ** power

    value = raw.mean() / (max((purity_1.mean() + purity_2.mean()) / 2.0, 1e-12) ** power)
    std = _bootstrap_std(raw, params.master_seed, denominator)
    return EstimatorResult(float(value), std, params.kind, params.n_unitaries,
                           params.n_shots, params.master_seed)


def estimate_reported(records, params) -> EstimatorResult:
    """The reported estimate: normalized for ``NORMALIZED_KINDS``, raw
    otherwise."""
    if params.kind in NORMALIZED_KINDS:
        return estimate_normalized(records, params)
    return estimate_raw(records, params)


def reported_exact(value) -> float:
    """The reported number of an exact ``InvariantValue``, by the same rule
    as ``estimate_reported``."""
    return value.normalized if value.kind in NORMALIZED_KINDS else value.raw


# -- twirling-channel verification ----------------------------------------------

SWAP_2 = np.array([[1, 0, 0, 0],
                   [0, 0, 1, 0],
                   [0, 1, 0, 0],
                   [0, 0, 0, 1]], dtype=complex)
# partial transpose of the swap: sum_{s,s'} |s,s><s',s'|
TRANSPOSE_SWAP_2 = np.array([[1, 0, 0, 1],
                             [0, 0, 0, 0],
                             [0, 0, 0, 0],
                             [1, 0, 0, 1]], dtype=complex)
# diagonal Hamming-weight operator: 2 * (-2)^(-D) on the two-spin basis
HAMMING_DIAGONAL = np.diag([2.0, -1.0, -1.0, 2.0]).astype(complex)


def twirl_phi_exact(op: np.ndarray) -> np.ndarray:
    """Closed form of the two-copy unitary twirl average of a 4x4 operator."""
    tr = np.trace(op)
    tr_swap = np.trace(SWAP_2 @ op)
    return ((tr - tr_swap / 2.0) * np.eye(4) + (tr_swap - tr / 2.0) * SWAP_2) / 3.0


def twirl_psi_exact(op: np.ndarray) -> np.ndarray:
    """Closed form of the unitary-conjugate twirl, via the partial transpose."""
    op_pt = op.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    out = twirl_phi_exact(op_pt)
    return out.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


@dataclass(frozen=True)
class TwirlReport:
    channel: str
    n_samples: int
    frobenius_error: float
    target: str


def twirl_check(channel: str, n_samples: int, rng: np.random.Generator) -> TwirlReport:
    """Monte Carlo twirl of the Hamming-weight operator; its average must
    reproduce the swap (channel "phi") or transpose-swap (channel "psi")."""
    if channel not in ("phi", "psi"):
        raise ValueError(f"channel must be 'phi' or 'psi', got {channel!r}")
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    unitaries = sample_cue(rng, n_samples)
    second = unitaries if channel == "phi" else unitaries.conj()
    pair = np.einsum("nij,nkl->nikjl", unitaries, second).reshape(n_samples, 4, 4)
    diag = np.diagonal(HAMMING_DIAGONAL).real
    averaged = np.einsum("nji,j,njk->ik", pair.conj(), diag, pair) / n_samples
    target = SWAP_2 if channel == "phi" else TRANSPOSE_SWAP_2
    error = float(np.linalg.norm(averaged - target))
    return TwirlReport(channel, n_samples, error,
                       "swap" if channel == "phi" else "transpose_swap")


# -- record persistence -----------------------------------------------------------

def write_records(path, records: list[MeasurementRecord], params: ProtocolParams) -> None:
    """Line format: one ``unitary_index,experiment,outcome,count`` per
    nonzero count, after a single '#'-prefixed JSON header with the campaign
    parameters."""
    import json

    if any(record.exact for record in records):
        raise ValueError("exact-probability records are not persisted")
    header = {
        "kind": params.kind,
        "n_unitaries": params.n_unitaries,
        "n_shots": params.n_shots,
        "master_seed": params.master_seed,
        "num_sites": params.partition.num_sites,
        "pairs": params.partition.pairs,
        "segments": list(list(seg) for seg in params.partition.segments),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("#" + json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            for outcome in np.nonzero(record.counts)[0]:
                handle.write(
                    f"{record.unitary_index},{record.experiment},{int(outcome)},"
                    f"{int(record.counts[outcome])}\n"
                )


def read_records(path) -> tuple[list[MeasurementRecord], ProtocolParams]:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line.startswith("#"):
            raise ValueError("record file missing JSON header line")
        header = json.loads(header_line[1:])
        partition = PartitionSpec(header["num_sites"], header["pairs"],
                                  tuple(tuple(seg) for seg in header["segments"]))
        params = ProtocolParams(header["kind"], header["n_unitaries"],
                                header["n_shots"], partition, header["master_seed"])
        dim = 2 ** partition.interval_size
        table: dict[tuple[int, int], np.ndarray] = {}
        for line in handle:
            u_index, experiment, outcome, count = (int(x) for x in line.split(","))
            key = (u_index, experiment)
            if key not in table:
                table[key] = np.zeros(dim, dtype=np.int64)
            table[key][outcome] = count
        records = [MeasurementRecord(u, e, counts) for (u, e), counts in
                   sorted(table.items())]
    return records, params
