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
every consumer reads it. ``CompiledHamiltonian.apply`` never builds the
2^N x 2^N matrix: the chain splits at its central bond into two halves,
each half's bonds and fields act as one dense matrix over the half's
configurations, and the central bond acts on its own (``_HalfBlocks``).
The full 2^N space is one block of that layout. In one sector of fixed
sum_i S_i^z (B = 0) the amplitudes form one block per split of the down
spins between the halves. Only the B term changes sum_i S_i^z, so at
B = 0 H is block diagonal over those sectors.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

DEFAULT_PINNING_FRACTION = 0.05
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


def bond_terms(spec: HamiltonianSpec) -> list[tuple[int, np.ndarray]]:
    """(left site, 4x4 bond matrix) for every bond: strong J bonds sit on
    even left sites, weak J' bonds on odd left sites."""
    matrices = [0.5 * c * (XX_PLUS_YY + spec.delta * ZZ) + spec.b_field * XZ_MINUS_ZX
                for c in (spec.j, spec.j_prime)]
    return [(left, matrices[left % 2]) for left in range(spec.num_sites - 1)]


def norm_bound(spec: HamiltonianSpec) -> float:
    """Upper bound on ||H||: each bond matrix's largest absolute row sum,
    summed over the bonds, plus the largest field term."""
    bonds = sum(float(np.abs(h).sum(axis=1).max()) for _left, h in bond_terms(spec))
    return bonds + spec.num_sites * abs(spec.neel_delta * spec.neel_weight) + abs(spec.pinning)


def staggered_signs(num_sites: int) -> np.ndarray:
    """(+1, -1, +1, ...) pattern multiplying sigma_z site by site."""
    return np.array([1.0 if i % 2 == 0 else -1.0 for i in range(num_sites)])


class CompiledHamiltonian:
    """H on the full 2^N space, or on one S^z sector (B = 0 only).
    ``bonds`` holds (left site, 4x4 bond matrix) for every bond, and a
    sector keeps its sorted basis ``states``. ``apply`` runs on the
    two-half blocks of ``_HalfBlocks``, built on its first call, and takes
    amplitudes in block order, over ``states[order]`` in a sector."""

    def __init__(self, spec: HamiltonianSpec, sector: int | None = None):
        self.spec = spec
        self.sector = sector
        n = spec.num_sites
        self.bonds = bond_terms(spec)
        self.states, self.dim = None, spec.dim
        if sector is None:
            return
        if not isinstance(sector, numbers.Integral) or abs(sector) > n // 2:
            raise ValueError(f"sector must be an integer sum S^z in [-{n // 2}, {n // 2}], "
                             f"got {sector!r}")
        if spec.b_field != 0.0:
            raise ValueError("S^z sectors need b_field = 0: the B term changes sum S^z")
        # sum_i S_i^z = sector: the states with N/2 - sector down spins (bit 1)
        self.states = np.flatnonzero(np.bitwise_count(np.arange(2 ** n)) == n // 2 - sector)
        self.dim = self.states.shape[0]

    @cached_property
    def _blocks(self) -> _HalfBlocks:
        return _HalfBlocks(self)

    @property
    def order(self) -> np.ndarray | None:
        """Index into ``states`` of each amplitude ``apply`` takes (None: 2^N)."""
        return self._blocks.order

    @cached_property
    def neel_diag(self) -> np.ndarray:
        """sum_i (-1)^i z_i per basis state (over ``states`` in a sector), z_i
        the sigma_z eigenvalue of site i; exact in any summation order."""
        indices = np.arange(self.dim) if self.states is None else self.states
        return sum(s * (1.0 - 2.0 * ((indices >> site) & 1))
                   for site, s in enumerate(staggered_signs(self.spec.num_sites)))

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """H |psi> on a flat amplitude array over this basis, in block order."""
        if amplitudes.shape[0] != self.dim:
            raise ValueError(f"state dimension {amplitudes.shape[0]} does not match {self.dim}")
        blocks = self._blocks
        out = blocks.central(amplitudes)
        for start, stop, columns, high, low in blocks.blocks:
            source = amplitudes[start:stop].reshape(-1, columns)
            target = out[start:stop].reshape(-1, columns)
            target += high @ source
            target += source @ low  # H_low is symmetric
        for flips, coupling, partner in blocks.exchange:
            out[flips] += coupling * np.take(amplitudes, partner)
        return out


def _half_matrix(bonds: list[tuple[int, np.ndarray]], fields: np.ndarray) -> np.ndarray:
    """Dense matrix on a segment of len(fields) sites (its site 0 the lowest
    bit): the (left site, 4x4 matrix) bonds plus ``fields[i]`` sigma_i^z."""
    configs = np.arange(2 ** len(fields))
    zsign = 1.0 - 2.0 * ((configs[:, None] >> np.arange(len(fields))) & 1)
    mat = np.diag(zsign @ fields)
    for left, h in bonds:
        # row c meets the four configurations that agree with c off the bond
        columns = (configs & ~(3 << left))[:, None] | (np.arange(4) << left)
        mat[configs[:, None], columns] += h[(configs >> left) & 3]
    return mat


class _HalfBlocks:
    """H in the two-half block layout of exact diagonalization (H. Q. Lin,
    PRB 42, 6561 (1990)).

    The chain splits at its central bond into a low half (sites 0..h-1,
    h = N/2) and a high half. The full space is one block: the amplitudes
    as a 2^h x 2^h matrix, rows the high half's configurations and columns
    the low half's. In a sector with D down spins, block k holds the states
    with k of them in the low half: rows the high half's configurations
    with D - k down spins, columns the low half's with k, both sorted. The
    bonds inside a half, and its fields, act as one dense real matrix per
    block: H_high @ psi_k + psi_k @ H_low. ``central`` starts the output
    with the central bond: in the full space the whole bond, one 4x4
    matmul on the (high sites, bond pair, low sites) view; in a sector its
    diagonal entry per state, and ``exchange`` adds its exchange last,
    through one partner table over the states it flips. ``order`` indexes
    ``states`` by block order (None in the full space)."""

    def __init__(self, compiled: CompiledHamiltonian):
        spec, n = compiled.spec, compiled.spec.num_sites
        half = n // 2
        fields = spec.neel_delta * spec.neel_weight * staggered_signs(n)
        fields[0] += spec.pinning
        low = _half_matrix([(left, h) for left, h in compiled.bonds if left + 2 <= half],
                           fields[:half])
        high = _half_matrix([(left - half, h) for left, h in compiled.bonds if left >= half],
                            fields[half:])
        central = compiled.bonds[half - 1][1]
        if compiled.states is None:
            self.order, self.exchange = None, ()
            self.blocks = [(0, compiled.dim, 2 ** half, high, low)]
            view = (-1, 4, 2 ** (half - 1))
            self.central = lambda amps: np.matmul(central, amps.reshape(view)).reshape(-1)
            return
        down = half - compiled.sector
        configs = np.arange(2 ** half)
        count = np.bitwise_count(configs)
        self.blocks, states = [], []
        start = 0
        for k in range(max(0, down - half), min(half, down) + 1):
            lows, highs = configs[count == k], configs[count == down - k]
            stop = start + len(highs) * len(lows)
            self.blocks.append((start, stop, len(lows),
                                high[np.ix_(highs, highs)], low[np.ix_(lows, lows)]))
            start = stop
            states.append(((highs << half)[:, None] | lows).reshape(-1))
        states = np.concatenate(states)  # the sector's states in block order
        self.order = np.searchsorted(compiled.states, states)
        inverse = np.argsort(self.order)
        pair = (states >> (half - 1)) & 3  # the central bond's pair index
        self.central = partial(np.multiply, central[pair, pair])
        flips = np.flatnonzero((pair == 1) | (pair == 2))
        partner = inverse[np.searchsorted(compiled.states, states[flips] ^ (3 << (half - 1)))]
        self.exchange = ((flips, central[1, 2], partner),)
