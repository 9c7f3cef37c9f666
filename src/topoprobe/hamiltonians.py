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

Each bond's term is one real 4x4 matrix on the pair index
bit(left) + 2 bit(left+1), summed from the two-site constants below, and
every consumer reads it. In the full space, ``split_low_block`` embeds the
bonds inside the lowest ``LOW_BLOCK_SITES`` sites in one square matrix on
the (higher sites, low block) view of the amplitudes, and every other bond
multiplies the (higher sites, bond pair, lower sites) view, so the
2^N x 2^N matrix is never built: ``CompiledHamiltonian.apply`` sums the low
bonds, a full-space ``dynamics.TrotterStepper`` multiplies their gates.
In one sector of fixed sum_i S_i^z, a bond's zz entry goes on the diagonal
and its exchange entry weights one partner-index table per bond that
gathers from the amplitudes padded with a zero slot (a sector stepper
gathers its gates' flips alike). Only the B term changes sum_i S_i^z, so
at B = 0 H is block diagonal over those sectors.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_PINNING_FRACTION = 0.05
# sites 0..LOW_BLOCK_SITES-1 form the low block of the full-space bond kernel;
# every bond above it multiplies a view with an inner stride of at least 16
LOW_BLOCK_SITES = 5
# two-site terms on the pair index bit(left) + 2 bit(left+1)
XX_PLUS_YY = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0],
                       [0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
ZZ = np.diag([1.0, -1.0, -1.0, 1.0])
XZ_MINUS_ZX = np.array([[0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, 1.0],
                        [-1.0, 0.0, 0.0, -1.0], [0.0, 1.0, -1.0, 0.0]])


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


def bond_terms(spec: HamiltonianSpec) -> list[tuple[int, np.ndarray]]:
    """(left site, 4x4 bond matrix) for every bond, one matrix per coupling."""
    matrix = {c: 0.5 * c * (XX_PLUS_YY + spec.delta * ZZ) + spec.b_field * XZ_MINUS_ZX
              for c in (spec.j, spec.j_prime)}
    return [(left, matrix[c]) for left, _right, c in exchange_bonds(spec)]


def norm_bound(spec: HamiltonianSpec) -> float:
    """Upper bound on ||H||: each bond matrix's largest absolute row sum,
    summed over the bonds, plus the largest field term."""
    bonds = sum(float(np.abs(h).sum(axis=1).max()) for _left, h in bond_terms(spec))
    return bonds + spec.num_sites * abs(spec.neel_delta * spec.neel_weight) + abs(spec.pinning)


def staggered_signs(num_sites: int) -> np.ndarray:
    """(+1, -1, +1, ...) pattern multiplying sigma_z site by site."""
    return np.array([1.0 if i % 2 == 0 else -1.0 for i in range(num_sites)])


def split_low_block(bonds: list[tuple[int, np.ndarray]], num_sites: int
                    ) -> tuple[list[np.ndarray], list[tuple[int, np.ndarray]]]:
    """Split (left site, 4x4 matrix) bonds of an N-site chain at the low
    block of w = min(LOW_BLOCK_SITES, N) sites: each bond inside sites
    0..w-1 embedded as a 2^w square matrix (site 0 the lowest bit), and
    the remaining bonds, whose left site is at least w - 1."""
    width = min(LOW_BLOCK_SITES, num_sites)
    low = [np.kron(np.kron(np.eye(2 ** (width - 2 - left)), h), np.eye(2 ** left))
           for left, h in bonds if left + 2 <= width]
    return low, [(left, h) for left, h in bonds if left + 2 > width]


class CompiledHamiltonian:
    """H on the full 2^N space, or on the sorted basis ``states`` of one S^z
    sector (B = 0 only). ``bonds`` holds (left site, 4x4 bond matrix) for
    every bond. The full space keeps only the fields on ``diagonal``, the
    bonds inside the low block summed into one matrix (``low_t``, transposed)
    and the other bonds in ``high``; a sector keeps the zz part on
    ``diagonal`` too, and per-bond (left site, coupling, partner) triples:
    ``partner`` holds the index of the state the bond flips each state into,
    or the zero slot ``dim`` where the bond does not flip it."""

    def __init__(self, spec: HamiltonianSpec, sector: int | None = None):
        self.spec = spec
        self.sector = sector
        n = spec.num_sites
        self.states = None
        self.bonds = bond_terms(spec)
        if sector is None:
            low, self.high = split_low_block(self.bonds, n)
            self.low_t = sum(low).T
        else:
            if not isinstance(sector, numbers.Integral) or abs(sector) > n // 2:
                raise ValueError(f"sector must be an integer sum S^z in [-{n // 2}, {n // 2}], "
                                 f"got {sector!r}")
            if spec.b_field != 0.0:
                raise ValueError("S^z sectors need b_field = 0: the B term changes sum S^z")
            # sum_i S_i^z = sector: the states with N/2 - sector down spins (bit 1)
            self.states = np.flatnonzero(np.bitwise_count(np.arange(2 ** n)) == n // 2 - sector)
        # sigma_z eigenvalue (+1 up, -1 down) of every basis state, one array
        # per site: no allocation exceeds 2^N doubles
        indices = np.arange(2 ** n) if sector is None else self.states
        zsign = [1.0 - 2.0 * ((indices >> site) & 1) for site in range(n)]

        # diagonal: zz exchange parts (sector only) + staggered field + pinning
        diag = np.zeros(zsign[0].shape[0])
        if sector is not None:
            for left, h in self.bonds:
                diag += h[0, 0] * zsign[left] * zsign[left + 1]
        # sum_i (-1)^i z_i, exact in any summation order; TrotterStepper reads
        # it, on sectors too (its diagonal table pairs it with the static part)
        self.neel_diag = sum(s * z for s, z in zip(staggered_signs(n), zsign))
        diag += spec.neel_delta * spec.neel_weight * self.neel_diag
        diag += spec.pinning * zsign[0]
        self.diagonal = diag
        self.dim = diag.shape[0]
        if sector is not None:
            # (c/2)(XX+YY) couples |01> <-> |10> of a bond with amplitude c;
            # every state outside the sector maps to the zero slot dim, and
            # flipping both bits of a 00 or 11 bond leaves the sector
            lookup = np.full(2 ** n, self.dim, dtype=np.intp)
            lookup[self.states] = np.arange(self.dim)
            self.exchange = [(left, h[1, 2], lookup[self.states ^ (3 << left)])
                             for left, h in self.bonds if h[1, 2] != 0.0]

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """H |psi> on a flat amplitude array over this basis."""
        if amplitudes.shape[0] != self.dim:
            raise ValueError(f"state dimension {amplitudes.shape[0]} does not match {self.dim}")
        out = self.diagonal * amplitudes
        if self.sector is not None:
            padded = np.append(amplitudes, 0.0)
            for _left, coupling, partner in self.exchange:
                out += coupling * padded[partner]
            return out
        out += (amplitudes.reshape(-1, self.low_t.shape[0]) @ self.low_t).reshape(-1)
        for left, h in self.high:
            target = out.reshape(-1, 4, 2 ** left)
            target += np.matmul(h, amplitudes.reshape(-1, 4, 2 ** left))
        return out
