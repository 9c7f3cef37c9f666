"""Spin-1/2 statevector core: basis encoding, local gates, bitstrings, sampling.

Conventions used throughout the package:

* Sites are 0-indexed. Site ``i`` maps to bit ``i`` of the integer basis
  index, so site 0 is the least-significant bit.
* Spin up maps to bit 0, spin down to bit 1, and ``sigma_z |up> = +|up>``.
* Statevectors are immutable after construction; every operation returns a
  new ``SpinState``. Sampling consumes caller-provided seeded generators,
  never shared global state.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-12


@dataclass(frozen=True)
class SpinState:
    """Normalized pure state of ``num_sites`` spin-1/2 sites.

    ``amplitudes[k]`` is the coefficient of the basis state whose spin
    configuration is the binary expansion of ``k`` (bit i = site i).
    """

    num_sites: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != 2 ** self.num_sites:
            raise ValueError(
                f"amplitudes must have length 2**{self.num_sites}, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2 ** self.num_sites


def basis_state(num_sites: int, index: int) -> SpinState:
    """Computational basis state |index> on ``num_sites`` sites."""
    amps = np.zeros(2 ** num_sites, dtype=complex)
    amps[index] = 1.0
    return SpinState(num_sites, amps)


def all_up_state(num_sites: int) -> SpinState:
    return basis_state(num_sites, 0)


def neel_state(num_sites: int) -> SpinState:
    """Staggered product state |down, up, down, up, ...> (site 0 down)."""
    index = 0
    for i in range(0, num_sites, 2):
        index |= 1 << i
    return basis_state(num_sites, index)


def random_state(num_sites: int, rng: np.random.Generator) -> SpinState:
    """Haar-random pure state (normalized complex Gaussian amplitudes)."""
    amps = rng.standard_normal(2 ** num_sites) + 1j * rng.standard_normal(2 ** num_sites)
    return SpinState(num_sites, amps / np.linalg.norm(amps))


@dataclass(frozen=True)
class LocalUnitary:
    """A 2x2 unitary acting on a single site."""

    site: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError(f"matrix must be 2x2, got {mat.shape}")
        deviation = np.linalg.norm(mat.conj().T @ mat - np.eye(2))
        if deviation > UNITARY_ATOL:
            raise ValueError(f"matrix not unitary: |U^dag U - 1|_F = {deviation:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def apply_matrix_at_site(amps: np.ndarray, num_sites: int, site: int,
                         matrix: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one site of a flat amplitude array (new array)."""
    # bit `site` sits between 2**site lower basis states and the rest above
    view = amps.reshape(-1, 2, 2 ** site)
    out = np.einsum("ab,xby->xay", matrix, view)
    return out.reshape(-1)


def apply_local_unitary(state: SpinState, unitary: LocalUnitary) -> SpinState:
    """Return the state with ``unitary`` applied on its site."""
    if not 0 <= unitary.site < state.num_sites:
        raise ValueError(f"site {unitary.site} out of range for {state.num_sites} sites")
    out = apply_matrix_at_site(state.amplitudes, state.num_sites, unitary.site,
                               unitary.matrix)
    return SpinState(state.num_sites, out)


# -- bitstring utilities ---------------------------------------------------

def hamming_distance(a: int, b: int) -> int:
    """Number of differing spins between two equal-length bitstrings."""
    return int(bin(a ^ b).count("1"))


def reflect_index(index: int, length: int) -> int:
    """Reverse the order of spins in a bitstring of the given length."""
    out = 0
    for j in range(length):
        out |= ((index >> j) & 1) << (length - 1 - j)
    return out


def reflection_permutation(length: int) -> np.ndarray:
    """Vectorized bit-reversal table: perm[s] = reflect_index(s, length)."""
    indices = np.arange(2 ** length)
    out = np.zeros_like(indices)
    for j in range(length):
        out |= ((indices >> j) & 1) << (length - 1 - j)
    return out


# -- Born-rule sampling ----------------------------------------------------

def marginal_probabilities(state: SpinState, sites) -> np.ndarray:
    """Born distribution of outcomes on ``sites`` (ascending site order).

    Bit j of the returned distribution's index corresponds to ``sites[j]``,
    i.e. the first listed site is the least-significant bit of the outcome.
    """
    sites = list(sites)
    if not sites:
        raise ValueError("region must contain at least one site")
    if sites != sorted(set(sites)):
        raise ValueError("sites must be strictly ascending")
    n = state.num_sites
    if sites[-1] >= n or sites[0] < 0:
        raise ValueError(f"sites {sites} out of range for {n} sites")
    probs = (state.amplitudes.real ** 2 + state.amplitudes.imag ** 2)
    first, last = sites[0], sites[-1]
    if last - first + 1 == len(sites):
        # contiguous region: one reshape instead of a transpose
        view = probs.reshape(-1, 2 ** len(sites), 2 ** first)
        return view.sum(axis=(0, 2))
    tensor = probs.reshape([2] * n)  # axis j <-> site n-1-j
    keep_axes = [n - 1 - s for s in sites]
    drop_axes = tuple(ax for ax in range(n) if ax not in keep_axes)
    tensor = tensor.sum(axis=drop_axes)
    # remaining axes are ordered by descending site; flatten so that the
    # first listed (lowest) site becomes the least-significant bit
    return tensor.reshape(-1)


def sample_bitstrings(state: SpinState, sites, n_shots: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw ``n_shots`` projective outcomes on ``sites``; returns a count
    vector over the 2**len(sites) outcomes (same index convention as
    ``marginal_probabilities``)."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    return _multinomial_counts(marginal_probabilities(state, sites), n_shots, rng)


def _multinomial_counts(probs: np.ndarray, n_shots: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Shot counts drawn from a Born distribution; tiny negative rounding is
    clipped and the distribution renormalized before the multinomial draw."""
    probs = np.clip(probs, 0.0, None)
    return rng.multinomial(n_shots, probs / probs.sum())
