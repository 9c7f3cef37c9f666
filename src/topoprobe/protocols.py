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

Engine: the protocols need only the Born distributions
P_u(s) = <s| U_u rho_I U_u^dag |s> of the measured interval I. Each site is
read out in the computational basis after its gate u, so u enters only
through the Bloch vector n of u^dag Z u (Elben, Vermersch, Roos & Zoller,
PRA 99, 052323 (2019)): u^dag |s><s| u = (1 + (-1)^s n . sigma)/2. A
campaign turns rho_I once into its real Pauli coefficients Tr(rho_I sigma_k)
(``_pauli_coefficients``). Each unitary's Ginibre draws give its sites' axes
in closed form (``_bloch_axes``), and the patterns are sign flips of the
axes (``_pattern_axes``). One real kernel (``_born_probabilities``)
contracts the coefficients against a chunk of unitaries one interval bit at
a time: the first bit as one product against the shared coefficients, each
later one as a sum and a difference, and the outcome bits come out in index
order. The cost per unitary grows as 4^|I| and does not depend on the chain
length; campaigns are limited to intervals of ``rdm.MAX_INTERVAL`` sites.
The outcomes of a campaign are one (n_unitaries, n_experiments, 2^|I|)
array (``CampaignRecords``); iterating it yields one ``MeasurementRecord``
view per (unitary, experiment) pair.

Estimators check the table's shape (``campaign_records``) and read it in
place, experiment e as the strided view ``outcomes[:, e - 1]``; shot counts
are divided by ``n_shots`` once. Every second-order estimate is one kernel
form per unitary, sum_{s,s'} P(s) K(s, s') P'(s'), with K the tensor
product of one 2x2 kernel per interval site (``_hamming_form``); the pair
kernel, 2 (-2)^(-d) for d = 0, 1 mismatches, gives 2^n (-2)^(-D) over n
paired sites at Hamming distance D. The segment purity pairs experiment 1 with itself,
pair kernels on the segment's sites and all-ones kernels (the marginal)
elsewhere (Elben, Vermersch, Roos & Zoller, PRA 99, 052323 (2019)); it
needs the without-replacement pair correction for shot counts.
The cross-correlation of the two-experiment kinds pairs experiment 1 with
experiment 2, pair kernels everywhere but the middle segment, which gets
sigma_z product (ZZ) kernels; the experiments are independent, so the
frequency product is already unbiased. Reflection is linear in the
probabilities, with the mirror weights (-2)^(-D[s, reversed(s)]/2).

Error bars are nonparametric bootstrap over the unitary axis (the unitary
ensemble is the dominant fluctuation axis and resampling it captures shot
noise as well). The resample indices are drawn and reduced a chunk of
rows at a time (``_resample_means``), so a bootstrap over n unitaries
holds O(n + BUDGET) entries, not one index per unitary and resample.

Seeding: every random stream is ``Generator(PCG64(SeedSequence(master_seed,
spawn_key=key)))``. Unitary u draws its pattern from key (0, u, 0) and the
shots of its experiment k (k = 1, 2) from (0, u, k); the bootstrap uses
(1,), drawn in chunks of BUDGET // n rows that continue one another into
the (resamples, n) draw. A campaign is therefore reproducible bit for
bit, and neither a unitary's draws nor the bootstrap's depend on how an
axis is chunked.
A campaign computes the PCG64 start words of all its streams at once
(``_stream_states``) and writes each into the state struct of the
process's one generator (``_seeded``): the computation of one
``SeedSequence`` and ``PCG64`` per key, which NEP 19 keeps fixed, so the
streams are the contract's bit for bit. That struct is not public: when
the generator is built (``_stream_generator``), one write is read back and
a layout that differs raises ``RuntimeError``. There is no fallback to the
public state setter, a second path untested on every numpy this fits.
"""
from __future__ import annotations

import ctypes
import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .partitions import PartitionSpec, check_layout
from .rdm import MAX_INTERVAL, reduced_density_matrix
from .spincore import PAULI_X, PAULI_Y, PAULI_Z, SpinState, reflection_permutation

PROTOCOL_KINDS = ("reflection", "time_reversal", "d2", "klein_bottle", "purity")
# kinds whose reported value is the purity-normalized invariant; d2 and
# klein_bottle have no standard normalization and report the raw value
NORMALIZED_KINDS = ("reflection", "time_reversal")
BOOTSTRAP_RESAMPLES = 200
# unitaries per engine chunk, reduced where one chunk's largest kernel
# intermediate would exceed CHUNK_ELEMENTS real entries (8 MB)
CHUNK_UNITARIES = 256
CHUNK_ELEMENTS = 2 ** 20
# entries per chunk of a Monte Carlo reduction: bootstrap indices, twirl draws
BUDGET = 2 ** 16

# single-site Hamming weight kernel: (-2)^(-D) between two outcomes
PAIR_KERNEL = np.array([[1.0, -0.5], [-0.5, 1.0]])
# sigma_z eigenvalue product kernel for untouched middle-segment sites
ZZ_KERNEL = np.array([[1.0, -1.0], [-1.0, 1.0]])
# marginal kernel: sums out a position that the form does not weight
ONES_KERNEL = np.ones((2, 2))

# SeedSequence's hash (numpy/random/bit_generator.pyx) and PCG64's seeding
# multiplier (numpy/random/src/pcg64/pcg64.h), for building streams in bulk
_POOL_SIZE = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_32, _MASK_64 = 2 ** 32 - 1, 2 ** 64 - 1


def check_seed(seed, name: str) -> int:
    """``seed`` if it is a non-negative int; ``ValueError`` naming ``name``
    otherwise (a bool or a numpy integer is not an int seed)."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")
    return seed


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
        if self.n_unitaries > 2 ** 32:
            raise ValueError(f"n_unitaries must be <= 2**32 (each unitary index is one 32-bit "
                             f"spawn-key word), got {self.n_unitaries}")
        if self.n_shots < 2:
            raise ValueError("n_shots must be >= 2 (pair correction needs at least 2)")
        if self.n_shots > 2 ** 63 - 1:
            raise ValueError(f"n_shots must be <= 2**63 - 1 (int64 counts), got {self.n_shots}")
        check_seed(self.master_seed, "master_seed")
        check_layout(self.kind, self.partition)

    @property
    def experiments(self) -> int:
        """Experiments per unitary: one for reflection and purity, two for
        the cross-correlated kinds."""
        return 1 if self.kind in ("reflection", "purity") else 2


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome counts on the interval for one (unitary, experiment) pair, as
    iterating ``CampaignRecords`` yields them.

    ``counts[s]`` indexes outcomes with the first interval site as the least
    significant bit. When ``exact`` is set the vector holds Born
    probabilities instead of integer counts (infinite-shot mode).
    """

    unitary_index: int
    experiment: int
    counts: np.ndarray = field(repr=False)
    exact: bool = False


@dataclass(frozen=True)
class CampaignRecords:
    """All outcomes of one campaign: ``outcomes[u, e - 1]`` is the outcome
    vector of unitary ``u`` in experiment ``e``, shot counts or, when
    ``exact`` is set, Born probabilities. ``len`` counts the (unitary,
    experiment) pairs and iteration yields them as ``MeasurementRecord``
    views, unitary-major."""

    outcomes: np.ndarray = field(repr=False)
    exact: bool = False

    def __post_init__(self):
        if self.outcomes.ndim != 3:
            raise ValueError(f"outcomes must be 3-dimensional, got shape {self.outcomes.shape}")
        self.outcomes.setflags(write=False)

    def __len__(self) -> int:
        return self.outcomes.shape[0] * self.outcomes.shape[1]

    def __iter__(self):
        for u_index, row in enumerate(self.outcomes):
            for experiment, counts in enumerate(row, start=1):
                yield MeasurementRecord(u_index, experiment, counts, self.exact)


@dataclass(frozen=True)
class EstimatorResult:
    value: float
    std_error: float
    kind: str
    n_unitaries: int
    n_shots: int
    master_seed: int

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"estimate is not finite: {self.value}")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


# -- circular unitary ensemble ----------------------------------------------

def _ginibre(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))


def _qr_haar(ginibre: np.ndarray) -> np.ndarray:
    """Q of the unique QR G = QR with R's diagonal positive real, for 2x2
    G = [[a, b], [c, d]]: Q = [[a/r, -phi conj(c)/r], [c/r, phi conj(a)/r]]
    with r = sqrt(|a|^2 + |c|^2) and phi = det G / |det G|, unitary to
    rounding whatever the condition of G (Mezzadri, Notices AMS 54, 592 (2007))."""
    q = np.empty_like(ginibre)
    q[:, :, 0] = ginibre[:, :, 0] / np.linalg.norm(ginibre[:, :, 0], axis=1, keepdims=True)
    det = ginibre[:, 0, 0] * ginibre[:, 1, 1] - ginibre[:, 0, 1] * ginibre[:, 1, 0]
    phase = det / np.abs(det)
    q[:, 0, 1] = -phase * q[:, 1, 0].conj()
    q[:, 1, 1] = phase * q[:, 0, 0].conj()
    return q


def sample_cue(rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-random 2x2 unitaries: the Q of complex Ginibre matrices whose R
    has a positive real diagonal, in closed form (``_qr_haar``). That choice
    makes the QR unique and Q exactly Haar (Mezzadri 2007). Returns shape
    (2, 2) when ``count`` is None, else (count, 2, 2).
    """
    q = _qr_haar(_ginibre(rng, 1 if count is None else count))
    return q[0] if count is None else q


# -- patterns ----------------------------------------------------------------
# A unitary u enters a Born distribution only through the Bloch vector n of
# a = u^dag Z u = n . sigma; each gate map of a pattern is a sign flip of n.
SIGMA_Y_COMPOSED = np.array([-1.0, 1.0, -1.0])  # u sigma_y: sigma_y a sigma_y
CONJUGATED = np.array([1.0, -1.0, 1.0])  # conj(u): conj(a)
SIGMA_X_COMPOSED = np.array([1.0, -1.0, -1.0])  # u sigma_x: sigma_x a sigma_x
Z_AXIS = np.array([0.0, 0.0, 1.0])  # the identity: a = Z


def _pattern_draw_count(kind: str, partition: PartitionSpec) -> int:
    if kind in ("purity", "time_reversal"):
        return partition.interval_size
    # one per mirror pair, or per site of the first and third segments
    return partition.pairs * (1 if kind == "reflection" else 2)


def _bloch_axes(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Bloch vectors n (..., 3) of u^dag Z u = n . sigma for the ``_qr_haar``
    unitaries u of the Ginibre matrices G = real + 1j imag (..., 2, 2).
    u's columns are (g00, g10)/r and phi (-conj(g10), conj(g00))/r, with
    r^2 = |g00|^2 + |g10|^2 and phi = det G / |det G|, so
    n_z = (|g00|^2 - |g10|^2)/r^2 and n_x + i n_y = -2 conj(phi) g00 g10 / r^2."""
    ginibre = real + 1j * imag
    top, bottom = ginibre[..., 0, 0], ginibre[..., 1, 0]
    det = top * ginibre[..., 1, 1] - ginibre[..., 0, 1] * bottom
    top2, bottom2 = top.real ** 2 + top.imag ** 2, bottom.real ** 2 + bottom.imag ** 2
    r2 = top2 + bottom2
    transverse = -2.0 * (det.conj() / np.abs(det)) * top * bottom / r2
    return np.stack([transverse.real, transverse.imag, (top2 - bottom2) / r2], axis=-1)


def _pattern_axes(kind: str, partition: PartitionSpec, axes: np.ndarray) -> np.ndarray:
    """Bloch axes (unitaries, experiments, |I|, 3) of the measured gates from
    those of the CUE draws, (unitaries, draw count, 3)."""
    n = partition.pairs
    if kind == "reflection":
        return np.concatenate([axes, axes[:, ::-1]], axis=1)[:, None]
    if kind == "purity":
        return axes[:, None]
    pattern = np.empty((len(axes), 2, partition.interval_size, 3))
    if kind == "time_reversal":
        pattern[:] = axes[:, None]
    else:
        pattern[:, :, n:2 * n] = Z_AXIS
        pattern[:, :, 2 * n:] = axes[:, None, n:]
    first, second = (SIGMA_X_COMPOSED, 1.0) if kind == "d2" else (SIGMA_Y_COMPOSED, CONJUGATED)
    pattern[:, 0, :n] = axes[:, :n] * first
    pattern[:, 1, :n] = axes[:, :n] * second
    return pattern


# -- campaigns ----------------------------------------------------------------

def _hash_step(words: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step on uint32 words, and the next constant."""
    next_const = hash_const * mult & _MASK_32
    words = (words ^ hash_const) * next_const
    return words ^ words >> 16, next_const


def _spawn_words(prefix: np.random.SeedSequence, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=key).generate_state(4, np.uint64)``
    per row of the uint32 (streams, key words) array ``keys``, from
    ``prefix = SeedSequence(master_seed)``: its pool is the mixed seed words
    that the key words continue, once the hash constant has advanced once per
    pool word, per ordered pair of pool words, and per pool word for each
    seed word past the pool size."""
    seed_words = max(1, (prefix.entropy.bit_length() + 31) // 32)
    hash_const = _HASH_INIT_A * pow(_HASH_MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * max(
        0, seed_words - _POOL_SIZE), 2 ** 32) & _MASK_32
    pool = [np.full(len(keys), word, dtype=np.uint32) for word in prefix.pool]
    for column in keys.T:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hash_step(column, hash_const, _HASH_MULT_A)
            mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
            pool[dst] = mixed ^ mixed >> 16
    hash_const, state = _HASH_INIT_B, []
    for index in range(2 * _POOL_SIZE):
        word, hash_const = _hash_step(pool[index % _POOL_SIZE], hash_const, _HASH_MULT_B)
        state.append(word.astype(np.uint64))
    return np.stack([low | high << 32 for low, high in zip(state[::2], state[1::2])], axis=1)


def _stream_states(master_seed: int, *key) -> np.ndarray:
    """(streams, 4) uint64 start words state low, state high, inc low, inc
    high of ``PCG64(SeedSequence(master_seed, spawn_key=key))``, one row per
    entry of the key words (ints or arrays) broadcast together, in order:
    PCG64's srandom, inc = k << 1 | 1 and state = (inc + s) * ``_PCG_MULT``
    + inc mod 2^128 on the (s, k) of ``_spawn_words``, with carries."""
    keys = np.stack(np.broadcast_arrays(*key), axis=-1).reshape(-1, len(key))
    words = _spawn_words(np.random.SeedSequence(master_seed), keys.astype(np.uint32))
    seed_high, seed_low, key_high, key_low = words.T
    inc_low, inc_high = key_low << 1 | 1, key_high << 1 | key_low >> 63
    sum_low = inc_low + seed_low
    sum_high = inc_high + seed_high + (sum_low < inc_low)
    # sum_low times the multiplier's low word in full, from 32-bit limbs
    # whose partial products fit a uint64; the other terms mod 2^64
    limb_low, limb_high = sum_low & _MASK_32, sum_low >> 32
    mult_low, mult_high = _PCG_MULT & _MASK_32, _PCG_MULT >> 32 & _MASK_32
    low, cross_a, cross_b = limb_low * mult_low, limb_low * mult_high, limb_high * mult_low
    middle = (low >> 32) + (cross_a & _MASK_32) + (cross_b & _MASK_32)
    state_low = (low & _MASK_32 | middle << 32) + inc_low
    state_high = (limb_high * mult_high + (cross_a >> 32) + (cross_b >> 32) + (middle >> 32)
                  + sum_high * (_PCG_MULT & _MASK_64) + sum_low * (_PCG_MULT >> 64)
                  + inc_high + (state_low < inc_low))
    return np.stack([state_low, state_high, inc_low, inc_high], axis=1)


def _check_state_layout(bit_generator: np.random.PCG64, row: np.ndarray) -> None:
    """``RuntimeError`` unless ``bit_generator.state`` holds the words ``row``."""
    state = bit_generator.state["state"]
    if [state["state"] & _MASK_64, state["state"] >> 64, state["inc"] & _MASK_64,
            state["inc"] >> 64] != row.tolist():
        raise RuntimeError(f"numpy {np.__version__}: the PCG64 state struct does not hold "
                           "(state low, state high, inc low, inc high) at its pointer")


@functools.cache
def _stream_generator() -> tuple[np.ndarray, np.ndarray, np.random.Generator]:
    """The process's one generator and the struct views ``_seeded`` writes:
    the words at the pointer at offset 0 of ``PCG64.ctypes.state_address``
    and the header (has_uint32, buffered word at +8). One stream's words are
    written and read back first (``_check_state_layout``); a raise caches
    nothing."""
    bit_generator = np.random.PCG64(0)
    address = bit_generator.ctypes.state_address
    header = np.frombuffer((ctypes.c_uint64 * 2).from_address(address), np.uint64)
    words = np.frombuffer((ctypes.c_uint64 * 4).from_address(int(header[0])), np.uint64)
    row = _stream_states(0, 1)[0]
    words[:], header[1] = row, 0
    _check_state_layout(bit_generator, row)
    return words, header, np.random.Generator(bit_generator)


def _seeded(states: np.ndarray):
    """The process's one generator set to each row's stream
    (``_stream_states``) in turn. Every row rewrites the same generator, so
    a consumer draws from one row before it takes the next, and two
    ``_seeded`` iterations are never interleaved."""
    words, header, rng = _stream_generator()
    for row in states:
        words[:], header[1] = row, 0
        yield rng


def _campaign_axes(params: ProtocolParams, states: np.ndarray) -> np.ndarray:
    """Bloch axes (len(states), experiments, |I|, 3) of the measured gates
    of the unitaries whose (0, u, 0) streams start at ``states``; each draws
    its Ginibre matrices' real parts, then their imaginary parts (``sample_cue``)."""
    draw_count = _pattern_draw_count(params.kind, params.partition)
    normals = np.empty((len(states), 2, draw_count, 2, 2))
    for row, rng in zip(normals, _seeded(states)):
        rng.standard_normal(out=row)
    axes = _bloch_axes(normals[:, 0], normals[:, 1])
    return _pattern_axes(params.kind, params.partition, axes)


def _pauli_passes(source: np.ndarray, target: np.ndarray, dim: int,
                  sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the (dim, dim) matrices held in ``source`` into the Pauli
    components of their top ``sites`` sites, one pass per site, highest
    first; returns the buffer holding the result and the spare one.

    A Hermitian H is held as the real matrix S = Re H + Im H (Re H is
    symmetric, Im H antisymmetric, so S determines H). A pass splits each
    matrix into the four components of the site, each again Hermitian: from
    S's 2x2 blocks S_rc, the I, X, Y and Z components are S_00 + S_11,
    S_01 + S_10, (S_10 - S_01)^T and S_00 - S_11. Each pass puts the
    site's component index after those of the higher sites, so the strings
    come out in the order of k = sum_j k_j 4^j.
    """
    for level in range(sites):
        half = dim >> level + 1
        blocks = source.reshape(-1, 2, half, 2, half)
        parts = target.reshape(-1, 4, half, half)
        np.add(blocks[:, 0, :, 0], blocks[:, 1, :, 1], out=parts[:, 0])
        np.add(blocks[:, 0, :, 1], blocks[:, 1, :, 0], out=parts[:, 1])
        np.subtract(blocks[:, 1, :, 0], blocks[:, 0, :, 1], out=parts[:, 2].transpose(0, 2, 1))
        np.subtract(blocks[:, 0, :, 0], blocks[:, 1, :, 1], out=parts[:, 3])
        source, target = target, source
    return source, target


@functools.cache
def _pauli_tail(sites: int) -> np.ndarray:
    """``_pauli_passes`` over ``sites`` sites as a read-only (4^sites,
    4^sites) matrix: row i holds the components of basis matrix i."""
    basis = np.eye(4 ** sites)
    transform, _ = _pauli_passes(basis, np.empty_like(basis), 2 ** sites, sites)
    transform.setflags(write=False)
    return transform


def _pauli_coefficients(state: SpinState, sites) -> np.ndarray:
    """Tr(rho_I sigma_k) / 2^|I| for every Pauli string k on the interval
    ``sites``: a real vector over k = sum_j k_j 4^j, with k_j = 0, 1, 2, 3
    for I, X, Y, Z on site j (``_pauli_passes``). Below 16 x 16 blocks a
    pass runs on short rows, so the last four sites go as one product with
    their transform (``_pauli_tail``).
    """
    rho = reduced_density_matrix(state, sites)
    dim, length = len(rho), len(sites)
    source = rho.real + rho.imag if np.iscomplexobj(rho) else rho
    del rho
    tail = min(length, 4)
    source, target = _pauli_passes(source, np.empty_like(source), dim, length - tail)
    transform = _pauli_tail(tail) * 0.5 ** length
    return np.matmul(source.reshape(-1, len(transform)), transform,
                     out=target.reshape(-1, len(transform))).reshape(-1)


def _born_probabilities(coefficients: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """P_b(s) = <s| U_b rho U_b^dag |s> for the gate stacks whose sites have
    the Bloch axes ``axes[b, j]``; ``coefficients`` is
    ``_pauli_coefficients`` of rho. Returns shape (batch, 2^|I|).

    u^dag |s><s| u = (1 + (-1)^s n . sigma)/2 on each site, so P_b(s) is the
    sum over Pauli strings k of 2^|I| coefficient k times the weights
    (1, (-1)^s n) of each site's k_j. The contraction runs one site at a
    time, highest first, as a (2, 4) matmul per stack: the first against
    the shared coefficients as one product, each later one a sum and a
    difference of the same terms. Each new outcome bit follows the earlier
    ones, so the result is in index order.
    """
    batch, length = axes.shape[:2]
    weights = np.ones((batch, length, 2, 4))
    weights[:, :, 0, 1:] = axes
    np.negative(axes, out=weights[:, :, 1, 1:])
    tensor = weights[:, -1].reshape(-1, 4) @ coefficients.reshape(4, -1)
    for site in range(length - 2, -1, -1):
        tensor = np.matmul(weights[:, None, site], tensor.reshape(batch, -1, 4, 4 ** site))
    return tensor.reshape(batch, -1)


def _shot_distributions(probs: np.ndarray) -> np.ndarray:
    """Born distributions along the last axis made ready for the multinomial
    shot draw: tiny negative rounding clipped, each one renormalized."""
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def run_campaign(state: SpinState, params: ProtocolParams,
                 exact_probabilities: bool = False) -> CampaignRecords:
    """Simulate the full campaign; deterministic given ``params.master_seed``.

    With ``exact_probabilities`` the projective sampling step is skipped and
    each record stores the exact Born distribution for its experiment
    (infinite-shot limit, used to validate estimator unbiasedness).
    Intervals longer than ``rdm.MAX_INTERVAL`` sites raise ``ValueError``,
    and so does a campaign whose outcome table and stream words would not
    fit in physical memory, before either is allocated.
    """
    if params.partition.num_sites != state.num_sites:
        raise ValueError("partition chain size does not match state")
    length = params.partition.interval_size
    n_unitaries, experiments = params.n_unitaries, params.experiments
    # stream keys (0, u, k) per unitary: k = 0 for the axes, k = e for the shots of experiment e
    keys = 1 if exact_probabilities else 1 + experiments
    needed = n_unitaries * (experiments * 2 ** length * 8 + keys * 32)
    available = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed > available:
        raise ValueError(f"a campaign of {n_unitaries} unitaries needs {needed} bytes for its "
                         f"outcome table and stream words, more than the {available} bytes "
                         "of physical memory")
    coefficients = _pauli_coefficients(state, params.partition.sites)
    outcomes = np.empty((n_unitaries, experiments, 2 ** length),
                        dtype=float if exact_probabilities else np.int64)
    # start words BUDGET // keys unitaries at a time: hashing holds ~200 B per stream
    states, block = np.empty((n_unitaries, keys, 4), dtype=np.uint64), BUDGET // keys
    for start in range(0, n_unitaries, block):
        rows = np.arange(start, min(start + block, n_unitaries))[:, None]
        states[start:start + block] = _stream_states(params.master_seed, 0, rows,
                                                     np.arange(keys)).reshape(-1, keys, 4)
    # the kernel's largest intermediate holds 2^(2|I| - 1) entries per gate stack
    chunk = max(1, min(CHUNK_UNITARIES,
                       CHUNK_ELEMENTS // (experiments * 2 ** (2 * length - 1))))
    for start in range(0, n_unitaries, chunk):
        chunk_states = states[start:start + chunk]
        axes = _campaign_axes(params, chunk_states[:, 0]).reshape(-1, length, 3)
        probs = _born_probabilities(coefficients, axes).reshape(len(chunk_states), experiments, -1)
        if exact_probabilities:
            outcomes[start:start + chunk] = probs
            continue
        probs = _shot_distributions(probs)
        for experiment in range(experiments):
            for row, rng in enumerate(_seeded(chunk_states[:, experiment + 1])):
                outcomes[start + row, experiment] = rng.multinomial(params.n_shots,
                                                                    probs[row, experiment])
    return CampaignRecords(outcomes, exact_probabilities)


# -- estimator internals -------------------------------------------------------

def campaign_records(records: CampaignRecords, params: ProtocolParams) -> CampaignRecords:
    """``records`` after checking that their outcome table has the shape of
    a campaign with ``params``."""
    shape = (params.n_unitaries, params.experiments, 2 ** params.partition.interval_size)
    if records.outcomes.shape != shape:
        raise ValueError(f"records have shape {records.outcomes.shape}, "
                         f"the campaign needs {shape}")
    return records


def _kernels(partition: PartitionSpec, segment: int | None = None) -> list[np.ndarray]:
    """Per-position 2x2 kernels of a Hamming form (position j = bit j of the
    outcome index). For the purity of ``segment``: pair kernels on its
    positions, all-ones kernels (the marginal) elsewhere. Without a segment,
    for the cross-correlation: ZZ kernels on the middle segment, pair
    kernels elsewhere."""
    if segment is None:
        paired = set(range(partition.interval_size)) - set(partition.middle_positions)
        other = ZZ_KERNEL
    else:
        paired, other = set(partition.segment_positions(segment)), ONES_KERNEL
    return [PAIR_KERNEL if pos in paired else other for pos in range(partition.interval_size)]


def _apply_kernel_rows(matrix: np.ndarray, kernels: list[np.ndarray]) -> np.ndarray:
    """Right-multiply each row by the tensor product of per-position 2x2
    kernels (position j = bit j of the outcome index). Every kernel has a
    unit diagonal, so position j maps the halves v_0, v_1 of bit j to
    v_a + K[a, 1 - a] v_(1-a): each is written into the output as the
    product and added to in place. The off-diagonal entries are 1, -1 or
    -0.5, so every product is exact."""
    buffers = np.empty((2,) + matrix.shape)
    out = matrix
    for pos, kernel in enumerate(kernels):
        view = out.reshape(len(matrix), -1, 2, 2 ** pos)
        out = buffers[pos % 2]
        for bit in (0, 1):
            half = out.reshape(view.shape)[:, :, bit]
            np.multiply(view[:, :, 1 - bit], kernel[bit, 1 - bit], out=half)
            half += view[:, :, bit]
    return out


def _hamming_form(left: np.ndarray, right: np.ndarray, kernels: list[np.ndarray]) -> np.ndarray:
    """Per row, sum_{s,s'} left[s] K[s, s'] right[s'] with K the tensor
    product of ``kernels``, times 2 per pair-kernel position: the weight
    2^n (-2)^(-D) of the n paired positions."""
    scale = 2.0 ** sum(kernel is PAIR_KERNEL for kernel in kernels)
    return scale * np.einsum("ij,ij->i", left, _apply_kernel_rows(right, kernels))


def _resample_means(master_seed: int, *per_unitary: np.ndarray) -> np.ndarray:
    """(len(per_unitary), BOOTSTRAP_RESAMPLES) bootstrap resample means of
    each per-unitary array, all resampled with the same unitary indices.

    The (BOOTSTRAP_RESAMPLES, n) index draw of the (1,) stream is made and
    reduced ``BUDGET // n`` rows at a time: the bounded-integer draw
    continues the stream across calls and each row's mean is its own
    pairwise sum, so the means are those of one draw bit for bit.
    """
    rng = next(_seeded(_stream_states(master_seed, 1)))
    n = per_unitary[0].shape[0]
    rows = max(1, BUDGET // n)
    means = np.empty((len(per_unitary), BOOTSTRAP_RESAMPLES))
    for start in range(0, BOOTSTRAP_RESAMPLES, rows):
        picks = rng.integers(0, n, size=(min(rows, BOOTSTRAP_RESAMPLES - start), n))
        for mean, values in zip(means, per_unitary):
            mean[start:start + len(picks)] = values[picks].mean(axis=1)
    return means


def _estimate(params: ProtocolParams, kind: str, *per_unitary: np.ndarray,
              statistic=lambda mean: mean) -> EstimatorResult:
    """``statistic`` of the means of the per-unitary arrays (by default the
    one array's mean), with the standard deviation of the same statistic
    over their joint bootstrap resample means as its error."""
    value = statistic(*(values.mean() for values in per_unitary))
    std = float(np.std(statistic(*_resample_means(params.master_seed, *per_unitary))))
    return EstimatorResult(float(value), std, kind, params.n_unitaries, params.n_shots,
                           params.master_seed)


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


def _per_unitary_purity(records: CampaignRecords, params: ProtocolParams,
                        segment: int) -> np.ndarray:
    """Per-unitary purity of ``segment`` from experiment 1 of the validated
    ``records``."""
    first = records.outcomes[:, 0]
    form = _hamming_form(first, first, _kernels(params.partition, segment))
    if records.exact:
        return form
    shots = params.n_shots
    # unbiased without-replacement pair average: the kernel diagonal is
    # exactly 1, so each shot paired with itself adds 2^n to the form
    paired = len(params.partition.segment_positions(segment))
    return (form - 2 ** paired * shots) / (shots * (shots - 1))


def estimate_purity(records, params: ProtocolParams, segment: int) -> EstimatorResult:
    """Segment purity from the same campaign records (second-order in the
    outcome frequencies, with the finite-shot pair correction). The middle
    segment of a three-segment campaign gets no random unitaries, so its
    purity raises ``ValueError``."""
    if params.partition.segment_positions(segment) == params.partition.middle_positions:
        raise ValueError(f"segment 1 of a {params.kind} campaign gets no random unitaries; "
                         "its purity cannot be estimated")
    table = campaign_records(records, params)
    return _estimate(params, "purity", _per_unitary_purity(table, params, segment))


def raw_values(records, params) -> np.ndarray:
    """Per-unitary raw invariants of the campaign's kind, whose mean is the
    value of ``estimate_raw``: mirror weights for reflection, the
    cross-correlation of the two experiments for the other invariants."""
    if params.kind == "purity":
        raise ValueError(f"no raw invariant estimator for a {params.kind!r} campaign")
    table = campaign_records(records, params)
    freqs = table.outcomes if table.exact else table.outcomes / params.n_shots
    if params.kind == "reflection":
        return 2 ** params.partition.pairs * (freqs[:, 0] @ reflection_weights(params.partition))
    # independent experiments: the frequency product is already unbiased
    return _hamming_form(freqs[:, 0], freqs[:, 1], _kernels(params.partition))


def estimate_raw(records, params) -> EstimatorResult:
    """Raw (unnormalized) invariant of the campaign's kind."""
    return _estimate(params, params.kind, raw_values(records, params))


def estimate_normalized(records, params) -> EstimatorResult:
    """Normalized invariant with jointly bootstrapped error bar.

    The segment purities come from the same records (experiment 1), so the
    resampling happens coherently along the unitary axis. A mean sampled
    purity <= 0 (possible for tiny campaigns), over the campaign or over
    any bootstrap resample, raises ``ValueError``.
    """
    if params.kind not in NORMALIZED_KINDS:
        raise ValueError(
            f"normalized estimates are defined for reflection/time_reversal, not {params.kind!r}"
        )
    table = campaign_records(records, params)
    power = 0.5 if params.kind == "reflection" else 1.5
    campaign = f"({params.n_unitaries} unitaries x {params.n_shots} shots)"

    def normalized(raw, purity_1, purity_2):
        # scalars for the campaign, arrays for the bootstrap resamples
        purity = (purity_1 + purity_2) / 2.0
        if np.ndim(purity) == 0 and purity <= 0.0:
            raise ValueError(f"mean sampled segment purity {purity:.6g} is not positive "
                             f"{campaign}; the {params.kind} estimate cannot be normalized")
        nonpositive = np.count_nonzero(purity <= 0.0)
        if nonpositive:
            raise ValueError(f"{nonpositive} of {BOOTSTRAP_RESAMPLES} bootstrap resamples have "
                             f"mean sampled segment purity <= 0 {campaign}; the "
                             f"{params.kind} error bar cannot be normalized")
        return raw / purity ** power

    return _estimate(params, params.kind, raw_values(table, params),
                     _per_unitary_purity(table, params, segment=0),
                     _per_unitary_purity(table, params, segment=1),
                     statistic=normalized)


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


@dataclass(frozen=True)
class TwirlReport:
    channel: str
    n_samples: int
    frobenius_error: float
    target: str


def twirl_check(channel: str, n_samples: int, rng: np.random.Generator) -> TwirlReport:
    """Monte Carlo twirl of the Hamming-weight operator; its average must
    reproduce the swap (channel "phi") or transpose-swap (channel "psi").
    HAMMING_DIAGONAL D is (I + 3 Z⊗Z)/2, so (u⊗v)^dag D (u⊗v) = (I + 3 a⊗b)/2
    with a = u^dag Z u = n . sigma and b = v^dag Z v = a (phi, v = u) or
    conj(a) (psi, v = conj(u)), whose Bloch vector is n with n_y negated.
    The sum of a⊗b over the samples is sum_ij M_ij sigma_i⊗sigma_j, with M
    the (3, 3) sum of the products of the two Bloch vectors, which come from
    the campaigns' axis map (``_bloch_axes``). The unitaries are
    ``sample_cue``'s: all real parts are drawn first, then the imaginary
    parts of BUDGET // 4 samples at a time, and each chunk adds its
    (3, chunk) @ (chunk, 3) product to M, so only the real parts grow with
    ``n_samples``."""
    if channel not in ("phi", "psi"):
        raise ValueError(f"channel must be 'phi' or 'psi', got {channel!r}")
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    real = rng.standard_normal((n_samples, 2, 2))  # sample_cue's first draw
    moment = np.zeros((3, 3))
    for start in range(0, n_samples, BUDGET // 4):
        chunk = real[start:start + BUDGET // 4]
        axes = _bloch_axes(chunk, rng.standard_normal(chunk.shape))
        moment += axes.T @ (axes if channel == "phi" else axes * CONJUGATED)
    diag = np.diagonal(HAMMING_DIAGONAL).real
    identity_weight, zz_weight = diag.mean(), diag @ [1.0, -1.0, -1.0, 1.0] / 4
    paulis = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
    ab = np.einsum("ij,iab,jcd->acbd", moment, paulis, paulis).reshape(4, 4)
    averaged = identity_weight * np.eye(4) + zz_weight / n_samples * ab
    target = SWAP_2 if channel == "phi" else TRANSPOSE_SWAP_2
    error = float(np.linalg.norm(averaged - target))
    return TwirlReport(channel, n_samples, error,
                       "swap" if channel == "phi" else "transpose_swap")


# -- record persistence -----------------------------------------------------------

def write_records(path, records, params: ProtocolParams) -> None:
    """Line format: one ``unitary_index,experiment,outcome,count`` per
    nonzero count, unitary-major, after a single '#'-prefixed JSON header
    with the campaign parameters."""
    table = campaign_records(records, params)
    if table.exact:
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
    # BUDGET // 8 table entries at a time: the lines of a block are built
    # from Python lists of its nonzero counts
    block = max(1, BUDGET // 8 // table.outcomes[0].size)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("#" + json.dumps(header, sort_keys=True) + "\n")
        for start in range(0, len(table.outcomes), block):
            rows = table.outcomes[start:start + block]
            units, experiments, outcomes = np.nonzero(rows)
            handle.writelines(f"{u},{e + 1},{s},{c}\n" for u, e, s, c in zip(
                (units + start).tolist(), experiments.tolist(), outcomes.tolist(),
                rows[units, experiments, outcomes].tolist()))


def _read_header(line: str) -> ProtocolParams:
    if not line.startswith("#"):
        raise ValueError("record file missing JSON header line")
    try:
        header = json.loads(line[1:])
        fields = [(key, header[key]) for key in
                  ("n_unitaries", "n_shots", "master_seed", "num_sites", "pairs")]
        fields += [("segment bound", bound) for seg in header["segments"] for bound in seg]
        for key, value in fields:
            if type(value) is not int:  # JSON integers only: no floats, strings or bools
                raise TypeError(f"{key} must be an integer, got {value!r}")
        partition = PartitionSpec(header["num_sites"], header["pairs"],
                                  tuple(tuple(seg) for seg in header["segments"]))
        if (length := partition.interval_size) > MAX_INTERVAL:  # run_campaign refuses it
            raise ValueError(f"interval of {length} sites exceeds limit {MAX_INTERVAL}")
        return ProtocolParams(header["kind"], header["n_unitaries"], header["n_shots"],
                              partition, header["master_seed"])
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValueError(f"line 1: bad record header ({type(exc).__name__}: {exc})") from None


def read_records(path) -> tuple[CampaignRecords, ProtocolParams]:
    """Inverse of ``write_records``.

    Raises ``ValueError`` naming the line for a malformed line, a unitary,
    experiment or outcome out of range, a negative count, or a duplicate
    (unitary, experiment, outcome) line; naming the pair for a (unitary,
    experiment) pair without lines; and naming the pair's lines when its
    counts do not sum to ``n_shots``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        params = _read_header(handle.readline())
        lines = handle.readlines()
    shape = (params.n_unitaries, params.experiments, 2 ** params.partition.interval_size)
    first_line = 2  # line numbers are 1-based and line 1 is the header
    table = np.empty((len(lines), 4), dtype=np.int64)
    for row, line in enumerate(lines):
        fields = line.split(",")
        try:
            if len(fields) != 4:
                raise ValueError
            table[row] = [int(x) for x in fields]
        except ValueError:
            raise ValueError(f"line {row + first_line}: expected "
                             f"'unitary,experiment,outcome,count', got {line.rstrip()!r}") from None
    units, experiments, outcomes, counts = table.T
    for values, low, high, what in ((units, 0, shape[0], "unitary index"),
                                    (experiments, 1, shape[1] + 1, "experiment"),
                                    (outcomes, 0, shape[2], "outcome"),
                                    (counts, 0, params.n_shots + 1, "count")):
        bad = np.flatnonzero((values < low) | (values >= high))
        if bad.size:
            raise ValueError(f"line {bad[0] + first_line}: {what} {values[bad[0]]} "
                             f"outside {low}..{high - 1}")
    flat = np.ravel_multi_index((units, experiments - 1, outcomes), shape)
    keys, first = np.unique(flat, return_index=True)
    if keys.size != flat.size:
        repeated = np.ones(flat.size, dtype=bool)
        repeated[first] = False
        row = np.flatnonzero(repeated)[0]
        earlier = first[np.searchsorted(keys, flat[row])]
        raise ValueError(f"line {row + first_line}: duplicates line {earlier + first_line} "
                         f"(unitary {units[row]}, experiment {experiments[row]}, "
                         f"outcome {outcomes[row]})")
    # sorted (unitary, experiment) pair keys of the lines: the first key that
    # differs from its position is the first pair without lines
    pairs = np.unique(keys // shape[2])
    if pairs.size != shape[0] * shape[1]:
        gaps = np.flatnonzero(pairs != np.arange(pairs.size))
        u_index, experiment = divmod(int(gaps[0]) if gaps.size else pairs.size, shape[1])
        raise ValueError(f"no lines for unitary {u_index}, experiment {experiment + 1}")
    result = np.zeros(shape, dtype=np.int64)
    result.reshape(-1)[flat] = counts
    sums = result.sum(axis=2)
    if np.any(sums != params.n_shots):
        u_index, experiment = np.argwhere(sums != params.n_shots)[0]
        rows = np.flatnonzero((units == u_index) & (experiments == experiment + 1))
        raise ValueError(f"lines {rows[0] + first_line}-{rows[-1] + first_line}: counts of "
                         f"unitary {u_index}, experiment {experiment + 1} sum to "
                         f"{sums[u_index, experiment]}, expected n_shots = {params.n_shots}")
    return CampaignRecords(result), params
