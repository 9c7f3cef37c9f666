"""Exact ground truth: reduced density matrices and topological invariants.

Everything here is computed by direct contraction of the amplitude tensor,
with no sampling involved. The one primitive is ``reduced_density_matrix``:
it orders the tensor axes as (sites, z_sites, rest), weights the z_sites
block by (-1)^popcount and returns the Gram product
Tr_Z[Z rho_{sites + z_sites}]; with no z_sites that is plain rho_sites.
The four invariants are

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
quantity. Let B = Tr_I2[Z_I2 rho_I], one primitive call on the outer
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

``MAX_INTERVAL`` caps the rows of every matrix built, so it binds time
reversal and campaigns (|I| rows); D2 and the Klein bottle build 2 pairs
rows, and reflection only the pairs-row segment matrices of its purities.

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
        if abs(self.raw) > self.bound + BOUND_SLACK:
            raise ValueError(f"raw {self.kind} value {self.raw} exceeds its derived bound "
                             f"{self.bound}; likely a contraction bug")


def _sign(bits: int) -> np.ndarray:
    """(-1)^popcount(x) for every ``bits``-bit x: the sigma_z product."""
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(2 ** bits)) % 2)


def reduced_density_matrix(state: SpinState, sites, z_sites=()) -> np.ndarray:
    """Tr_Z[Z rho] on ``sites``: everything else is traced out, the
    ``z_sites`` under sigma_z weights; plain rho_sites without ``z_sites``.

    Row/column index bit j belongs to ``sites[j]``, matching the sampling
    convention for ascending sites. The result is the Gram product
    M diag(z) M^dag of the reordered amplitudes, Hermitian by construction.
    """
    length = len(sites)
    if length > MAX_INTERVAL:
        raise ValueError(f"interval of {length} sites exceeds limit {MAX_INTERVAL}")
    n = state.num_sites
    tensor = state.amplitudes.reshape([2] * n)  # axis j <-> site n-1-j
    # order axes so the row index has sites[0] least significant
    kept = [n - 1 - s for s in reversed(sites)]
    weighted = [n - 1 - s for s in z_sites]
    rest = [ax for ax in range(n) if ax not in kept and ax not in weighted]
    mat = tensor.transpose(kept + weighted + rest).reshape(2 ** length, -1)
    if not z_sites:
        return mat @ mat.conj().T
    signed = mat.reshape(2 ** length, 2 ** len(z_sites), -1) * _sign(len(z_sites))[:, None]
    return signed.reshape(2 ** length, -1) @ mat.conj().T


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); equals the squared Frobenius norm for Hermitian rho."""
    return float(np.vdot(rho, rho).real)


def _real_or_raise(value: complex, what: str) -> float:
    if abs(value.imag) > REALNESS_ATOL:
        raise ValueError(f"{what} has imaginary part {value.imag:.3e}")
    return float(value.real)


def exact_invariant(state: SpinState, partition: PartitionSpec, kind: str) -> InvariantValue:
    """The exact invariant ``kind`` of psi/|psi| on ``partition``:
    <psi|R_I|psi> or Tr[flip(B) B] (module docstring)."""
    if kind not in KINDS:
        raise ValueError(f"unknown invariant kind {kind!r}")
    check_layout(kind, partition)
    n = state.num_sites
    if partition.num_sites != n:
        raise ValueError("partition chain size does not match state")
    state = SpinState(n, state.amplitudes / np.linalg.norm(state.amplitudes))
    if kind == "reflection":
        order, low, high = list(range(n)), n - 1 - partition.sites[-1], n - partition.sites[0]
        order[low:high] = order[low:high][::-1]  # reverse the interval's axes
        tensor = state.amplitudes.reshape([2] * n)
        raw, bound = np.vdot(tensor, tensor.transpose(order)), 1.0
    else:
        outer = partition.segment_sites(0) + partition.segment_sites(-1)
        middle = [partition.sites[0] + p for p in partition.middle_positions]
        traced = reduced_density_matrix(state, outer, middle)
        k = partition.pairs  # I1 is the low k bits of each index
        view = traced.reshape(2 ** k, 2 ** k, 2 ** k, 2 ** k)  # (I3, I1, I3, I1)
        flipped_bits = view[:, ::-1, :, ::-1]
        # Tr[flip(B) B] = sum conj(B) flip(B) = sum B[g,m,h,l] flip(B)[h,l,g,m] (B is
        # Hermitian); the partial transpose swaps the I1 axes, sigma_y adds its signs
        if kind == "d2":
            raw = np.einsum("gmhl,hlgm->", view, flipped_bits)
        else:
            raw = np.einsum("gmhl,hmgl,ml->", view, flipped_bits, np.outer(_sign(k), _sign(k)))
        bound = purity(traced)
    raw = _real_or_raise(complex(raw), f"{kind} invariant")
    p1 = purity(reduced_density_matrix(state, partition.segment_sites(0)))
    p2 = purity(reduced_density_matrix(state, partition.segment_sites(-1)))
    mean = (p1 + p2) / 2.0
    normalized = raw / (np.sqrt(mean) if kind == "reflection" else mean ** 1.5)
    return InvariantValue(raw, normalized, p1, p2, kind, bound)
