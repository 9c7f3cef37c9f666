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

The last three are one quantity. Let B = Tr_I2[Z_I2 rho_I], with B = rho_I
on the two segments of time reversal, and let flip be the first-segment
map of the kind (sigma_x conjugation for D2, partial transpose then sigma_y
conjugation otherwise). The flip acts on I1 only, so it commutes with the
middle trace, and the swaps turn the two-copy trace into a product:
Tr[S_I1 Z_I2 S_I3 (flip(rho_I) otimes rho_I)] = Tr[flip(B) B]. Only B,
of dimension 4^pairs, is ever contracted twice.

Normalization: the reflection invariant divides by
sqrt((Tr rho_I1^2 + Tr rho_Ilast^2)/2), the other three by the same
bracket to the power 3/2, with I1 and Ilast the first and last segments.
No standard normalization exists for the D2/Klein-bottle values; their
``normalized`` field is a reporting convention only, and should be read
as such.

Raw values are checked against derived bounds: |Z_R| <= 1, and for the
other three |Tr[flip(B) B]| <= Tr B^2 (Cauchy-Schwarz: the flip only
permutes the entries of B up to sign, so it keeps the Frobenius norm).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .partitions import PartitionSpec, check_layout
from .spincore import SpinState, reflection_permutation

MAX_INTERVAL = 12
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


def _trace_out(matrix: np.ndarray, drop: list[int], z_weighted: bool = False) -> np.ndarray:
    """Partial trace of ``matrix`` over the bit positions ``drop``, each
    weighted by sigma_z when ``z_weighted``; the kept positions keep their
    ascending order."""
    if not drop:
        return matrix
    length = matrix.shape[0].bit_length() - 1
    keep = [p for p in range(length) if p not in drop]
    tensor = matrix.reshape([2] * (2 * length))
    # axis j <-> row bit position length-1-j; axis length+j <-> same column bit
    row_keep = [length - 1 - p for p in reversed(keep)]
    row_drop = [length - 1 - p for p in reversed(drop)]
    col_keep = [2 * length - 1 - p for p in reversed(keep)]
    col_drop = [2 * length - 1 - p for p in reversed(drop)]
    shaped = tensor.transpose(row_keep + row_drop + col_keep + col_drop).reshape(
        2 ** len(keep), 2 ** len(drop), 2 ** len(keep), 2 ** len(drop)
    )
    if not z_weighted:
        return np.einsum("aibi->ab", shaped)
    z_signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(2 ** len(drop))) % 2)
    return np.einsum("aibi,i->ab", shaped, z_signs)


def segment_density_matrix(rdm: ReducedDensityMatrix, segment: int) -> np.ndarray:
    """Reduce the interval density matrix to one of its segments."""
    keep = rdm.partition.segment_positions(segment)
    length = rdm.partition.interval_size
    return _trace_out(rdm.matrix, [p for p in range(length) if p not in keep])


def _real_or_raise(value: complex, what: str) -> float:
    if abs(value.imag) > REALNESS_ATOL:
        raise ValueError(f"{what} has imaginary part {value.imag:.3e}")
    return float(value.real)


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


def _flip_first_segment(matrix: np.ndarray, kind: str, first_bits: int) -> np.ndarray:
    """The first-segment map of ``kind`` on the low ``first_bits`` bits:
    sigma_x conjugation for d2; partial transpose, then sigma_y
    conjugation, for time reversal and the Klein bottle."""
    first = range(first_bits)
    if kind == "d2":
        return _conjugate(matrix, "x", first)
    total_bits = matrix.shape[0].bit_length() - 1
    return _conjugate(partial_transpose_first_segment(matrix, first_bits, total_bits),
                      "y", first)


def exact_invariant(state: SpinState, partition: PartitionSpec, kind: str) -> InvariantValue:
    """The exact invariant ``kind`` of ``state`` on ``partition``, from one
    contraction of rho_I: the reversal trace for reflection, Tr[flip(B) B]
    for the other kinds (module docstring)."""
    if kind not in KINDS:
        raise ValueError(f"unknown invariant kind {kind!r}")
    check_layout(kind, partition)
    rdm = reduced_density_matrix(state, partition)
    if kind == "reflection":
        perm = reflection_permutation(partition.interval_size)
        raw, bound = rdm.matrix[np.arange(perm.size), perm].sum(), 1.0
    else:
        traced = _trace_out(rdm.matrix, partition.middle_positions, z_weighted=True)
        # Tr[flip(B) B] = <B, flip(B)> in the Frobenius inner product: B is Hermitian
        raw = np.vdot(traced, _flip_first_segment(traced, kind, partition.pairs))
        bound = purity(traced)
    raw = _real_or_raise(complex(raw), f"{kind} invariant")
    p1 = purity(segment_density_matrix(rdm, 0))
    p2 = purity(segment_density_matrix(rdm, len(partition.segments) - 1))
    mean = (p1 + p2) / 2.0
    normalized = raw / (np.sqrt(mean) if kind == "reflection" else mean ** 1.5)
    return InvariantValue(raw, normalized, p1, p2, kind, bound)
