"""Spin-1/2 statevector core: basis encoding, states, bit reversal.

Conventions used throughout the package:

* Sites are 0-indexed. Site ``i`` maps to bit ``i`` of the integer basis
  index, so site 0 is the least-significant bit.
* Spin up maps to bit 0, spin down to bit 1, and ``sigma_z |up> = +|up>``.
* Statevectors are immutable after construction. Real amplitudes stay
  real (float64), so a real state contracts in real arithmetic; any other
  input is complex128. Random states consume caller-provided seeded
  generators, never shared global state.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class SpinState:
    """Normalized pure state of ``num_sites`` spin-1/2 sites.

    ``amplitudes[k]`` is the coefficient of the basis state whose spin
    configuration is the binary expansion of ``k`` (bit i = site i).
    Real input (``np.isrealobj``) is kept as read-only float64, any other
    as read-only complex128; an input array of that dtype is frozen in place.
    """

    num_sites: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes,
                          dtype=float if np.isrealobj(self.amplitudes) else complex)
        if amps.ndim != 1 or amps.shape[0] != 2 ** self.num_sites:
            raise ValueError(
                f"amplitudes must have length 2**{self.num_sites}, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-8:  # NaN fails too
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


# -- bitstring utilities ---------------------------------------------------

def reflection_permutation(length: int) -> np.ndarray:
    """Bit-reversal table of ``length``-bit strings: perm[s] moves bit j of s
    to bit length-1-j, reversing the order of the spins."""
    indices = np.arange(2 ** length)
    out = np.zeros_like(indices)
    for j in range(length):
        out |= ((indices >> j) & 1) << (length - 1 - j)
    return out

