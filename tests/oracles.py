"""Independent reference implementations the tests check the program against.

None of these is used by the program itself. Each is written the plain way
(per-site einsum, popcount, explicit partial transpose) rather than by the
program's own kernels, so an agreement is a check and not a tautology.
"""
import numpy as np

# two-spin swap |a, b> -> |b, a> with index = bit_a + 2 bit_b
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def apply_site(amps, site, gate):
    """Apply a 2x2 gate to one site of a flat amplitude array (new array)."""
    # bit `site` sits between 2**site lower basis states and the rest above
    view = amps.reshape(-1, 2, 2 ** site)
    return np.einsum("ab,xby->xay", gate, view).reshape(-1)


def interval_marginal(amps, first, length):
    """Born distribution of the contiguous sites first..first+length-1, the
    first site being the least-significant bit of the outcome."""
    probs = amps.real ** 2 + amps.imag ** 2
    return probs.reshape(-1, 2 ** length, 2 ** first).sum(axis=(0, 2))


def statevector_born(state, partition, gates):
    """Reference for the campaign engine: apply the gates to the full
    statevector one site at a time, then marginalize onto the interval."""
    amps = state.amplitudes
    for site, gate in zip(partition.sites, gates):
        amps = apply_site(amps, site, gate)
    return interval_marginal(amps, partition.sites[0], partition.interval_size)


def hamming_distance(a, b):
    """Number of differing spins between two bitstrings."""
    return bin(a ^ b).count("1")


def magnetization_diagonal(num_sites):
    """Eigenvalue of sum_i sigma_i^z per basis state: N - 2 * (down spins)."""
    down = np.bitwise_count(np.arange(2 ** num_sites))
    return (num_sites - 2 * down).astype(float)


def site_z(state, site):
    """<sigma_z> on one site."""
    probs = np.abs(state.amplitudes) ** 2
    bit = (np.arange(state.dim) >> site) & 1
    return float(np.sum(probs * (1.0 - 2.0 * bit)))


def reflect_index(index, length):
    """Reverse the order of spins in a bitstring of the given length."""
    out = 0
    for j in range(length):
        out |= ((index >> j) & 1) << (length - 1 - j)
    return out


def twirl_phi_exact(op):
    """Closed form of the two-copy unitary twirl average of a 4x4 operator."""
    tr = np.trace(op)
    tr_swap = np.trace(SWAP @ op)
    return ((tr - tr_swap / 2.0) * np.eye(4) + (tr_swap - tr / 2.0) * SWAP) / 3.0


def twirl_psi_exact(op):
    """Closed form of the unitary-conjugate twirl, via the partial transpose."""
    op_pt = op.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    out = twirl_phi_exact(op_pt)
    return out.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def partial_transpose_first_segment(matrix, first_bits, total_bits):
    """Transpose the first-segment indices (the low ``first_bits`` bits)."""
    rest = total_bits - first_bits
    shaped = matrix.reshape(2 ** rest, 2 ** first_bits, 2 ** rest, 2 ** first_bits)
    return shaped.transpose(0, 3, 2, 1).reshape(matrix.shape)
