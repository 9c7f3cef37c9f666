"""Exact ground truth: reduced density matrices and topological invariants.

Everything here is computed by direct contraction of the full statevector,
with no sampling involved. The four invariants are

* reflection:     Tr[rho_I R_I]            with R_I the site-order reversal,
* time reversal:  Tr[rho_I u rho_I^{T1} u^dag],  u = prod of sigma_y on I1,
                  T1 the partial transpose on I1,
* D2:             Tr[S_I1 Z_I2 S_I3 (rho_x otimes rho_I)] with per-site
                  two-copy swaps on I1, I3, sigma_z weights on both copies
                  of I2, and rho_x the sigma_x-conjugated copy on I1,
* Klein bottle:   same contraction with the first copy replaced by
                  u rho_I^{T1} u^dag.

Normalization: the reflection invariant divides by
sqrt((Tr rho_I1^2 + Tr rho_I2^2)/2), time reversal by the same bracket to
the power 3/2. No standard normalization exists for the D2/Klein-bottle
values; the ``normalized`` field for those divides the raw value by
(mean of the two swapped segments' purities)^(3/2) purely as a reporting
convention, and should be read as such.

Raw values are checked against derived bounds: |Z_R| <= 1, |Z_T| <= Tr
rho_I^2 (Cauchy-Schwarz), and for the two-copy traces of a unitary on
(flipped copy) x rho_I, the flipped copy's trace norm: 1 for D2 and
||rho_I^{T1}||_1 for the Klein bottle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .partitions import PartitionSpec, check_layout
from .spincore import SpinState, reflection_permutation

MAX_INTERVAL = 12
MAX_TWO_COPY_INTERVAL = 9
REALNESS_ATOL = 1e-10
BOUND_SLACK = 1e-10

KINDS = ("reflection", "time_reversal", "d2", "klein_bottle")


@dataclass(frozen=True)
class ReducedDensityMatrix:
    partition: PartitionSpec
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        dim = 2 ** self.partition.interval_size
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match interval dim {dim}")
        if np.linalg.norm(mat - mat.conj().T) > REALNESS_ATOL:
            raise ValueError("reduced density matrix not Hermitian")
        if abs(np.trace(mat).real - 1.0) > REALNESS_ATOL:
            raise ValueError(f"trace is {np.trace(mat):.6f}, expected 1")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class InvariantValue:
    raw: float
    normalized: float
    purity_first: float
    purity_second: float
    kind: str
    bound: float = 1.0  # derived bound on |raw|

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown invariant kind {self.kind!r}")
        for p in (self.purity_first, self.purity_second):
            if not 0.0 < p <= 1.0 + 1e-9:
                raise ValueError(f"purity {p} outside (0, 1]")
        if abs(self.raw) > self.bound + BOUND_SLACK:
            raise ValueError(f"raw {self.kind} value {self.raw} exceeds its derived bound "
                             f"{self.bound}; likely a contraction bug")


def reduced_density_matrix(state: SpinState, partition: PartitionSpec) -> ReducedDensityMatrix:
    """Trace out everything but the partition's interval.

    Row/column index bit j corresponds to the j-th interval site in
    ascending order, matching the sampling convention.
    """
    sites = partition.sites
    length = len(sites)
    if length > MAX_INTERVAL:
        raise ValueError(f"interval of {length} sites exceeds limit {MAX_INTERVAL}")
    n = state.num_sites
    if partition.num_sites != n:
        raise ValueError("partition chain size does not match state")
    tensor = state.amplitudes.reshape([2] * n)  # axis j <-> site n-1-j
    # order axes so the interval index has its lowest site least significant
    kept = [n - 1 - s for s in reversed(sites)]
    rest = [ax for ax in range(n) if ax not in kept]
    mat = tensor.transpose(kept + rest).reshape(2 ** length, -1)
    rho = mat @ mat.conj().T
    return ReducedDensityMatrix(partition, rho)


def purity(rdm: ReducedDensityMatrix | np.ndarray) -> float:
    """Tr(rho^2); equals the squared Frobenius norm for Hermitian rho."""
    mat = rdm.matrix if isinstance(rdm, ReducedDensityMatrix) else rdm
    return float(np.vdot(mat, mat).real)


def segment_density_matrix(rdm: ReducedDensityMatrix, segment: int) -> np.ndarray:
    """Reduce the interval density matrix to one of its segments."""
    keep = rdm.partition.segment_positions(segment)
    length = rdm.partition.interval_size
    drop = [p for p in range(length) if p not in keep]
    tensor = rdm.matrix.reshape([2] * (2 * length))
    # axis j <-> row bit position length-1-j; axis length+j <-> same column bit
    row_keep = [length - 1 - p for p in reversed(keep)]
    row_drop = [length - 1 - p for p in reversed(drop)]
    col_keep = [2 * length - 1 - p for p in reversed(keep)]
    col_drop = [2 * length - 1 - p for p in reversed(drop)]
    shaped = tensor.transpose(row_keep + row_drop + col_keep + col_drop).reshape(
        2 ** len(keep), 2 ** len(drop), 2 ** len(keep), 2 ** len(drop)
    )
    return np.einsum("aibi->ab", shaped)


def _segment_purities(rdm: ReducedDensityMatrix, first: int, second: int) -> tuple[float, float]:
    p1 = purity(segment_density_matrix(rdm, first))
    p2 = purity(segment_density_matrix(rdm, second))
    return p1, p2


def _real_or_raise(value: complex, what: str) -> float:
    if abs(value.imag) > REALNESS_ATOL:
        raise ValueError(f"{what} has imaginary part {value.imag:.3e}")
    return float(value.real)


def reflection_invariant(rdm: ReducedDensityMatrix) -> InvariantValue:
    """Expectation of the site-order-reversal operator on the interval."""
    part = rdm.partition
    check_layout("reflection", part)
    length = part.interval_size
    perm = reflection_permutation(length)
    raw = _real_or_raise(complex(rdm.matrix[np.arange(2 ** length), perm].sum()),
                         "reflection invariant")
    p1, p2 = _segment_purities(rdm, 0, 1)
    normalized = raw / np.sqrt((p1 + p2) / 2.0)
    return InvariantValue(raw, normalized, p1, p2, "reflection")


def partial_transpose_first_segment(matrix: np.ndarray, first_bits: int,
                                    total_bits: int) -> np.ndarray:
    """Transpose the first-segment indices (the low ``first_bits`` bits)."""
    rest = total_bits - first_bits
    shaped = matrix.reshape(2 ** rest, 2 ** first_bits, 2 ** rest, 2 ** first_bits)
    return shaped.transpose(0, 3, 2, 1).reshape(matrix.shape)


def _conjugate(matrix: np.ndarray, pauli: str, positions) -> np.ndarray:
    """P M P^dag for P the product of sigma_x (``pauli='x'``) or sigma_y
    (``'y'``) over the given bit positions.

    Both flip the masked bits, so (P M P^dag)[r, c] = s(r) s(c) M[r^m, c^m]
    with m the position mask, s(x) = (-1)^popcount(x & m) for sigma_y and
    s = 1 for sigma_x; the global phase i^k of sigma_y^{otimes k} cancels.
    """
    index = np.arange(matrix.shape[0])
    mask = sum(1 << pos for pos in positions)
    out = matrix[np.ix_(index ^ mask, index ^ mask)]
    if pauli == "y":
        sign = 1.0 - 2.0 * (np.bitwise_count(index & mask) % 2)
        out *= sign[:, None]
        out *= sign
    return out


def _time_reversed_first_segment(rho: np.ndarray, part: PartitionSpec) -> np.ndarray:
    """u rho^{T1} u^dag: partial transpose on the first segment, then
    conjugation by sigma_y on each of its sites."""
    first = part.segment_positions(0)
    transposed = partial_transpose_first_segment(rho, len(first), part.interval_size)
    return _conjugate(transposed, "y", first)


def time_reversal_invariant(rdm: ReducedDensityMatrix) -> InvariantValue:
    """Two-copy overlap of rho with its spin-flipped partial transpose."""
    part = rdm.partition
    check_layout("time_reversal", part)
    flipped = _time_reversed_first_segment(rdm.matrix, part)
    # Tr[rho X] = <rho, X> in the Frobenius inner product for Hermitian rho
    raw = _real_or_raise(complex(np.vdot(rdm.matrix, flipped)),
                         "time-reversal invariant")
    p1, p2 = _segment_purities(rdm, 0, 1)
    normalized = raw / ((p1 + p2) / 2.0) ** 1.5
    return InvariantValue(raw, normalized, p1, p2, "time_reversal", purity(rdm))


def _two_copy_contraction(x: np.ndarray, y: np.ndarray, part: PartitionSpec) -> complex:
    """Tr[S_I1 Z_I2 S_I3 (x otimes y)] using bit arithmetic on both copies.

    Per-site swaps on I1 and I3 exchange the two copies' indices; the I2
    sites carry diagonal sigma_z weights on both copies.
    """
    length = part.interval_size
    mask2 = 0
    for pos in part.segment_positions(1):
        mask2 |= 1 << pos
    mask13 = (2 ** length - 1) ^ mask2
    idx = np.arange(2 ** length)
    r = idx[:, None]
    q = idx[None, :]
    u = (q & mask13) | (r & mask2)
    v = (r & mask13) | (q & mask2)
    z_r = 1.0 - 2.0 * (np.bitwise_count(r & mask2) % 2)
    z_q = 1.0 - 2.0 * (np.bitwise_count(q & mask2) % 2)
    return complex(np.sum(z_r * z_q * x[u, r] * y[v, q]))


def _two_copy_invariant(state: SpinState, partition: PartitionSpec, kind: str,
                        label: str, flip, bound=lambda flipped: 1.0) -> InvariantValue:
    """Contract ``flip(rho)`` against rho on the three-segment interval;
    ``bound(flip(rho))`` bounds |raw|."""
    check_layout(kind, partition)
    if partition.interval_size > MAX_TWO_COPY_INTERVAL:
        raise ValueError(f"interval exceeds two-copy limit {MAX_TWO_COPY_INTERVAL}")
    rdm = reduced_density_matrix(state, partition)
    flipped = flip(rdm.matrix, partition)
    raw = _real_or_raise(_two_copy_contraction(flipped, rdm.matrix, partition), label)
    p1, p3 = _segment_purities(rdm, 0, 2)
    normalized = raw / ((p1 + p3) / 2.0) ** 1.5
    return InvariantValue(raw, normalized, p1, p3, kind, bound(flipped))


def d2_invariant(state: SpinState, partition: PartitionSpec) -> InvariantValue:
    """Two-copy invariant probing the group of pi spin rotations."""
    return _two_copy_invariant(
        state, partition, "d2", "d2 invariant",
        lambda rho, part: _conjugate(rho, "x", part.segment_positions(0)))


def klein_bottle_invariant(state: SpinState, partition: PartitionSpec) -> InvariantValue:
    """Two-copy invariant combining a z rotation with time reversal."""
    # u rho^{T1} u^dag has the trace norm of rho^{T1}
    return _two_copy_invariant(state, partition, "klein_bottle", "klein-bottle invariant",
                               _time_reversed_first_segment,
                               lambda flipped: float(np.abs(np.linalg.eigvalsh(flipped)).sum()))


def exact_invariant(state: SpinState, partition: PartitionSpec, kind: str) -> InvariantValue:
    """Dispatch by invariant kind; the entry point used by sweeps and the CLI."""
    if kind == "reflection":
        return reflection_invariant(reduced_density_matrix(state, partition))
    if kind == "time_reversal":
        return time_reversal_invariant(reduced_density_matrix(state, partition))
    if kind == "d2":
        return d2_invariant(state, partition)
    if kind == "klein_bottle":
        return klein_bottle_invariant(state, partition)
    raise ValueError(f"unknown invariant kind {kind!r}")
