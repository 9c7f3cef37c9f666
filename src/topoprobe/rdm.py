"""Exact ground truth: reduced density matrices and topological invariants.

Everything here is computed by direct contraction of the amplitude tensor,
with no sampling involved. One helper, ``_ordered``, orders the tensor axes
as (sites, z_sites, rest) and returns the matrix M with rows over ``sites``
and its copy weighted by (-1)^popcount on the z_sites block; their Gram
product is Tr_Z[Z rho_{sites + z_sites}]. The primitive
``reduced_density_matrix`` is that product without z_sites, plain
rho_sites. The four invariants are

* reflection:     Z_R = Tr[rho_I R_I] = <psi|R_I|psi> with R_I the site-order
                  reversal of I (Pollmann & Turner, PRB 86, 125441 (2012)),
* time reversal:  Tr[rho_I u rho_I^{T1} u^dag],  u = prod of sigma_y on I1,
                  T1 the partial transpose on I1,
* D2:             Tr[S_I1 Z_I2 S_I3 (rho_x otimes rho_I)] with per-site
                  two-copy swaps on I1, I3, sigma_z weights on both copies
                  of I2, and rho_x the sigma_x-conjugated copy on I1,
* Klein bottle:   same contraction with the first copy replaced by
                  u rho_I^{T1} u^dag.

Reflection is one ``vdot`` of the tensor with itself, the interval's axes
taken in reverse order; no interval matrix is built. The last three are one
quantity. Let B = Tr_I2[Z_I2 rho_I], the Gram product on the outer
segments with z_sites = I2, and B = rho_I on the two segments of time
reversal; let flip be the first-segment map of the kind (sigma_x
conjugation for D2, partial transpose then sigma_y conjugation otherwise).
The flip acts on I1 only, so it commutes with the middle trace, and the
swaps turn the two-copy trace into a product:
Tr[S_I1 Z_I2 S_I3 (flip(rho_I) otimes rho_I)] = Tr[flip(B) B].
Both sigmas flip every I1 bit, and XOR with all ones on the low k bits
reverses that index: on the (hi, lo, hi, lo) view of B the flip reverses
both lo axes, and for time reversal and the Klein bottle also swaps them
(the partial transpose) and weights them by the sigma_y signs.

Time reversal contracts Tr[flip(B) B] on one of the two sides of the cut
between the 2k outer sites (k = pairs) and the C = 2^(N - 2k) columns of
the rest:

* row side: build B (16^k entries) and contract its flipped views;
* column side: with L = M and R = conj(M), B = L R^T, so the trace
  regroups over pairs of (I1, column) indices: the sum of P * Q over two
  products P and Q of 4^k C^2 entries each, the sigma_y signs folded into
  the factors. The bound Tr B^2 comes from the two C x C column Grams.

The side with fewer intermediate entries wins: 16^k against 2 * 4^k C^2,
that is the column side exactly when 3k > N; a tie cannot occur. The rule
depends on shapes only. D2 and the Klein bottle stay on the row side. The
Klein bottle's three segments fit the chain (3k <= N), so its column side
would never be smaller. D2's column side would be two C x C products and
win once 4k > N, which no campaign or benchmark workload reaches yet.

``MAX_INTERVAL`` caps the rows of every interval matrix built: campaigns
(|I| rows), the segment purities (k rows), and ``reduced_density_matrix``.
The two-copy intermediates are capped at 4^MAX_INTERVAL entries in total
(B, or P and Q together), the size of the largest interval matrix; more
raises before anything is allocated. The cap bounds the intermediates
only: the normalized state and its reordered copies, a few arrays of 2^N
entries, come on top. So time reversal reaches the whole chain for
N <= 22, D2 and the Klein bottle 12 outer sites.

A real state (every ground state) contracts in real arithmetic with the
same code: its reordered copies, B, P and Q are real. The caps count
entries, so the reach is the same and the bytes are half.

Normalization: the reflection invariant divides by
sqrt((Tr rho_I1^2 + Tr rho_Ilast^2)/2), the other three by the same
bracket to the power 3/2, with I1 and Ilast the first and last segments.
No standard normalization exists for the D2/Klein-bottle values; their
``normalized`` field is a reporting convention only, and should be read
as such. The state is contracted as psi/|psi|, so every state that
``SpinState`` accepts gives the invariants of its normalized direction.

Raw values are checked against derived bounds: |Z_R| <= 1, and for the
other three |Tr[flip(B) B]| <= Tr B^2 (Cauchy-Schwarz: the flip only
permutes the entries of B up to sign, so it keeps the Frobenius norm).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partitions import PartitionSpec, check_layout
from .spincore import SpinState

MAX_INTERVAL = 12
REALNESS_ATOL = 1e-10
BOUND_SLACK = 1e-10

KINDS = ("reflection", "time_reversal", "d2", "klein_bottle")


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
        if not abs(self.raw) <= self.bound + BOUND_SLACK:  # NaN fails too
            raise ValueError(f"raw {self.kind} value {self.raw} exceeds its derived bound "
                             f"{self.bound}; likely a contraction bug")


def _sign(bits: int) -> np.ndarray:
    """(-1)^popcount(x) for every ``bits``-bit x: the sigma_z product."""
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(2 ** bits)) % 2)


def _ordered(state: SpinState, sites, z_sites=()) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes as a (2^len(sites), columns) matrix and its signed copy.

    Rows run over ``sites`` with sites[0] least significant; columns over
    (z_sites, rest), z_sites most significant. The signed copy weights the
    z_sites block by (-1)^popcount; without z_sites it is the matrix itself.
    """
    n = state.num_sites
    tensor = state.amplitudes.reshape([2] * n)  # axis j <-> site n-1-j
    # order axes so the row index has sites[0] least significant
    kept = [n - 1 - s for s in reversed(sites)]
    weighted = [n - 1 - s for s in z_sites]
    rest = [ax for ax in range(n) if ax not in kept and ax not in weighted]
    mat = tensor.transpose(kept + weighted + rest).reshape(2 ** len(sites), -1)
    if not z_sites:
        return mat, mat
    signed = mat.reshape(2 ** len(sites), 2 ** len(z_sites), -1) * _sign(len(z_sites))[:, None]
    return mat, signed.reshape(2 ** len(sites), -1)


def reduced_density_matrix(state: SpinState, sites) -> np.ndarray:
    """rho on ``sites``, everything else traced out.

    Row/column index bit j belongs to ``sites[j]``, matching the sampling
    convention for ascending sites. The result is the Gram product
    M M^dag of the reordered amplitudes, Hermitian by construction.
    """
    length = len(sites)
    if length > MAX_INTERVAL:
        raise ValueError(f"interval of {length} sites exceeds limit {MAX_INTERVAL}")
    mat, _ = _ordered(state, sites)
    return mat @ mat.conj().T


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); equals the squared Frobenius norm for Hermitian rho."""
    return float(np.vdot(rho, rho).real)


def _real_or_raise(value: complex, what: str) -> float:
    if abs(value.imag) > REALNESS_ATOL:
        raise ValueError(f"{what} has imaginary part {value.imag:.3e}")
    return float(value.real)


def _column_side(kind: str, num_sites: int, pairs: int) -> bool:
    """Whether the two-copy contraction of ``kind`` runs on the column side:
    only time reversal does, and only with fewer intermediate entries than
    B; raises when the chosen side exceeds 4^MAX_INTERVAL entries."""
    rows, columns = 2 ** pairs, 2 ** (num_sites - 2 * pairs)
    row_entries, column_entries = rows ** 4, 2 * rows ** 2 * columns ** 2
    column_side = kind == "time_reversal" and column_entries < row_entries
    entries = column_entries if column_side else row_entries
    if entries > 4 ** MAX_INTERVAL:
        raise ValueError(f"{kind} on {2 * pairs} outer sites of a {num_sites}-site chain "
                         f"needs {entries} entries, which exceeds limit 4^{MAX_INTERVAL}")
    return column_side


def _two_copy(state: SpinState, partition: PartitionSpec, kind: str) -> tuple[complex, float]:
    """Tr[flip(B) B] and its bound Tr B^2, contracted on the side of the cut
    between the outer segments and the rest that ``_column_side`` picks."""
    k = partition.pairs
    column_side = _column_side(kind, state.num_sites, k)
    rows, columns = 2 ** k, 2 ** (state.num_sites - 2 * k)
    outer = partition.segment_sites(0) + partition.segment_sites(-1)
    middle = [partition.sites[0] + p for p in partition.middle_positions]
    mat, signed = _ordered(state, outer, middle)  # I1 is the low k bits of each row
    sign = _sign(k)
    if not column_side:
        traced = signed @ mat.conj().T
        view = traced.reshape(rows, rows, rows, rows)  # (I3, I1, I3, I1)
        flipped_bits = view[:, ::-1, :, ::-1]
        # Tr[flip(B) B] = sum conj(B) flip(B) = sum B[g,m,h,l] flip(B)[h,l,g,m] (B is
        # Hermitian); the partial transpose swaps the I1 axes, sigma_y adds its signs
        if kind == "d2":
            raw = np.einsum("gmhl,hlgm->", view, flipped_bits)
        else:
            raw = np.einsum("gmhl,hmgl,ml->", view, flipped_bits, np.outer(sign, sign))
        return raw, purity(traced)
    # time reversal (no middle segment, so signed is mat): B = L R^T with
    # L = mat and R = conj(mat); Tr B^2 = sum (L^T L*) * (R^T R*) from the
    # two column Grams
    right = mat.conj()
    bound = np.sum((mat.T @ right) * (right.T @ mat))
    # sum P[m,c,l,d] Q[l,c,m,d], P = sum_g L_s[g,m,c] R_rs[g,l,d] and
    # Q = sum_h R[h,l,c] L_r[h,m,d] over (I3, I1, column) views, L_r and R_r
    # with I1 reversed and the sigma_y signs folded into L_s and R_rs
    left, right = mat.reshape(rows, rows, columns), right.reshape(rows, rows, columns)
    weighted = (left * sign[:, None]).reshape(rows, -1)
    weighted_flip = (right[:, ::-1] * sign[:, None]).reshape(rows, -1)
    shape = (rows, columns, rows, columns)
    p = (weighted.T @ weighted_flip).reshape(shape)
    q = (right.reshape(rows, -1).T @ left[:, ::-1].reshape(rows, -1)).reshape(shape)
    return np.einsum("mcld,lcmd->", p, q), float(bound.real)


def exact_invariant(state: SpinState, partition: PartitionSpec, kind: str) -> InvariantValue:
    """The exact invariant ``kind`` of psi/|psi| on ``partition``:
    <psi|R_I|psi> or Tr[flip(B) B] (module docstring)."""
    if kind not in KINDS:
        raise ValueError(f"unknown invariant kind {kind!r}")
    check_layout(kind, partition)
    n = state.num_sites
    if partition.num_sites != n:
        raise ValueError("partition chain size does not match state")
    if kind != "reflection":
        _column_side(kind, n, partition.pairs)  # raises before the normalized copy
    state = SpinState(n, state.amplitudes / np.linalg.norm(state.amplitudes))
    if kind == "reflection":
        order, low, high = list(range(n)), n - 1 - partition.sites[-1], n - partition.sites[0]
        order[low:high] = order[low:high][::-1]  # reverse the interval's axes
        tensor = state.amplitudes.reshape([2] * n)
        raw, bound = np.vdot(tensor, tensor.transpose(order)), 1.0
    else:
        raw, bound = _two_copy(state, partition, kind)
    raw = _real_or_raise(complex(raw), f"{kind} invariant")
    p1 = purity(reduced_density_matrix(state, partition.segment_sites(0)))
    p2 = purity(reduced_density_matrix(state, partition.segment_sites(-1)))
    mean = (p1 + p2) / 2.0
    normalized = raw / (np.sqrt(mean) if kind == "reflection" else mean ** 1.5)
    return InvariantValue(raw, normalized, p1, p2, kind, bound)
