"""Independent reference implementations the tests check the program against.

None of these is used by the program itself. Each is written the plain way
(per-site einsum, popcount, explicit partial transpose) rather than by the
program's own kernels, so an agreement is a check and not a tautology.
"""
import numpy as np

from topoprobe.groundstate import ground_state
from topoprobe.hamiltonians import CompiledHamiltonian
from topoprobe.partitions import reflection_partition
from topoprobe.rdm import exact_invariant

# two-spin swap |a, b> -> |b, a> with index = bit_a + 2 bit_b
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
IDENTITY_2 = np.eye(2, dtype=complex)


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


def ginibre(rng, count):
    """``count`` complex Ginibre 2x2 matrices: all real parts, then all
    imaginary parts."""
    return rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))


def qr_haar(matrices):
    """Q of the unique QR G = QR with R's diagonal positive real, for 2x2
    G = [[a, b], [c, d]]: Q = [[a/r, -phi conj(c)/r], [c/r, phi conj(a)/r]]
    with r = sqrt(|a|^2 + |c|^2) and phi = det G / |det G|, unitary to
    rounding whatever the condition of G (Mezzadri, Notices AMS 54, 592 (2007))."""
    q = np.empty_like(matrices)
    q[:, :, 0] = matrices[:, :, 0] / np.linalg.norm(matrices[:, :, 0], axis=1, keepdims=True)
    det = matrices[:, 0, 0] * matrices[:, 1, 1] - matrices[:, 0, 1] * matrices[:, 1, 0]
    phase = det / np.abs(det)
    q[:, 0, 1] = -phase * q[:, 1, 0].conj()
    q[:, 1, 1] = phase * q[:, 0, 0].conj()
    return q


def sample_cue(rng, count=None):
    """Haar-random 2x2 unitaries: the Q of complex Ginibre matrices whose R
    has a positive real diagonal, in closed form (``qr_haar``). That choice
    makes the QR unique and Q exactly Haar (Mezzadri 2007). Returns shape
    (2, 2) when ``count`` is None, else (count, 2, 2); the draw order is the
    campaigns': all real parts, then all imaginary parts."""
    q = qr_haar(ginibre(rng, 1 if count is None else count))
    return q[0] if count is None else q


def campaign_gates(params, u_index):
    """Gate stacks (experiments, |I|, 2, 2) of unitary ``u_index`` of a
    campaign as 2x2 matrices: the ``sample_cue`` draws of its pattern stream
    (0, u_index, 0), composed with sigma_y, sigma_x or conjugated on the
    first segment and identities on a middle one, as the patterns say."""
    kind, partition = params.kind, params.partition
    n = partition.pairs
    draws = {"reflection": n, "d2": 2 * n, "klein_bottle": 2 * n}.get(kind, partition.interval_size)
    rng = np.random.default_rng(np.random.SeedSequence(params.master_seed,
                                                       spawn_key=(0, u_index, 0)))
    haar = sample_cue(rng, draws)
    if kind == "reflection":
        return np.concatenate([haar, haar[::-1]])[None]
    if kind == "purity":
        return haar[None]
    gates = np.empty((2, partition.interval_size, 2, 2), dtype=complex)
    if kind == "time_reversal":
        gates[:] = haar
    else:
        gates[:] = np.eye(2)
        gates[:, 2 * n:] = haar[n:]
    first, second = ((haar[:n] @ PAULI["x"], haar[:n]) if kind == "d2"
                     else (haar[:n] @ PAULI["y"], haar[:n].conj()))
    gates[0, :n], gates[1, :n] = first, second
    return gates


def bloch_axes(gates):
    """Bloch vectors (..., 3) of u^dag Z u for 2x2 gates u (..., 2, 2)."""
    a = np.einsum("...ki,k,...kj->...ij", gates.conj(), [1.0, -1.0], gates)
    return np.stack([a[..., 1, 0].real, a[..., 1, 0].imag, a[..., 0, 0].real], axis=-1)


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


def qr_haar_lapack(ginibre):
    """Haar unitaries from a stack of 2x2 Ginibre matrices by LAPACK QR with
    R's diagonal phases moved into Q (Mezzadri 2007)."""
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]


def twirl_pair_average(channel, unitaries, diagonal):
    """Monte Carlo twirl of a diagonal two-spin operator over the (n, 4, 4)
    pair tensors u⊗u (channel "phi") or u⊗conj(u) (channel "psi")."""
    n = len(unitaries)
    second = unitaries if channel == "phi" else unitaries.conj()
    pair = np.einsum("nij,nkl->nikjl", unitaries, second).reshape(n, 4, 4)
    return np.einsum("nji,j,njk->ik", pair.conj(), np.diagonal(diagonal).real, pair) / n


def delta_method_std(*per_unitary, power=None):
    """Standard error of the mean of one per-unitary array, or with
    ``power`` a of the normalized mean f = mean(raw) / P^a of (raw, first,
    second), P = (mean(first) + mean(second)) / 2: sqrt(g^T C g / n) with C
    the sample covariance (``np.cov``, ddof 1) of the arrays and g the
    gradient of f in their means."""
    n = len(per_unitary[0])
    if power is None:
        gradient = np.ones(1)
    else:
        raw, first, second = (values.mean() for values in per_unitary)
        purity = (first + second) / 2.0
        value = raw / purity ** power
        gradient = np.array([purity ** -power, -power * value / (2.0 * purity),
                             -power * value / (2.0 * purity)])
    covariance = np.atleast_2d(np.cov(np.stack(per_unitary)))
    return float(np.sqrt(gradient @ covariance @ gradient / n))


def partial_transpose_first_segment(matrix, first_bits, total_bits):
    """Transpose the first-segment indices (the low ``first_bits`` bits)."""
    rest = total_bits - first_bits
    shaped = matrix.reshape(2 ** rest, 2 ** first_bits, 2 ** rest, 2 ** first_bits)
    return shaped.transpose(0, 3, 2, 1).reshape(matrix.shape)


PAULI = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
         "y": np.array([[0, -1j], [1j, 0]]),
         "z": np.diag([1.0, -1.0]).astype(complex)}


def site_operator(num_sites, ops):
    """Kronecker product with ops[site] on the named sites and identities
    elsewhere; site 0 is the least-significant bit."""
    out = np.eye(1, dtype=complex)
    for site in range(num_sites):
        out = np.kron(ops.get(site, np.eye(2)), out)
    return out


def whole_chain_time_reversal(amps, pairs):
    """Tr[rho u rho^{T1} u^dag] on the whole chain of a pure 2 ``pairs``-site
    state: sum u[a,x] u*[a',y] rho1[a',x] conj(rho1[a,y]), with rho1 the
    first-half reduced density matrix and u = sigma_y on every first-half site."""
    psi = amps.reshape(2 ** pairs, 2 ** pairs).T  # (first half, second half)
    rho1 = psi @ psi.conj().T
    u = site_operator(pairs, {site: PAULI["y"] for site in range(pairs)})
    return np.einsum("ax,by,bx,ay->", u, u.conj(), rho1, rho1.conj(), optimize=True)


def trotter_terms(spec, neel_weight):
    """Dense (H_A, H_B, H_D) of the Trotter splitting: the strong
    (even-left) bonds, the weak (odd-left) bonds, and the diagonal
    staggered field at ``neel_weight`` plus the pinning field."""
    n = spec.num_sites
    x, y, z = PAULI["x"], PAULI["y"], PAULI["z"]
    groups = [np.zeros((2 ** n, 2 ** n), dtype=complex) for _ in range(2)]
    for left in range(n - 1):
        right = left + 1
        coupling = spec.j if left % 2 == 0 else spec.j_prime
        groups[left % 2] += 0.5 * coupling * (
            site_operator(n, {left: x, right: x}) + site_operator(n, {left: y, right: y})
            + spec.delta * site_operator(n, {left: z, right: z}))
        groups[left % 2] += spec.b_field * (
            site_operator(n, {left: x, right: z}) - site_operator(n, {left: z, right: x}))
    diag = spec.pinning * site_operator(n, {0: z})
    for site in range(n):
        diag += spec.neel_delta * neel_weight * (-1) ** site * site_operator(n, {site: z})
    return groups[0], groups[1], diag


def hermitian_propagator(h, t):
    """exp(-i h t) of a Hermitian matrix, through its eigendecomposition."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T


def dense_trotter_step(spec, dt, neel_weight):
    """Dense A(dt/2) B(dt/2) D(dt) B(dt/2) A(dt/2) from the exponentiated
    group Hamiltonians of ``trotter_terms``."""
    h_a, h_b, h_d = trotter_terms(spec, neel_weight)
    a = hermitian_propagator(h_a, dt / 2.0)
    b = hermitian_propagator(h_b, dt / 2.0)
    return a @ b @ hermitian_propagator(h_d, dt) @ b @ a


class EinsumTrotterStepper:
    """Reference Trotter step: each bond gate by its own einsum on the
    (higher sites, bond pair, lower sites) view, strong bonds then weak
    bonds, and the diagonal phase exponentiated over all 2^N entries."""

    def __init__(self, spec, dt):
        n = spec.num_sites
        self.spec = spec
        self.dt = dt
        self.even_bonds = []
        self.odd_bonds = []
        x, y, z = PAULI["x"], PAULI["y"], PAULI["z"]
        for left in range(n - 1):
            coupling = spec.j if left % 2 == 0 else spec.j_prime
            # pair index bit(left) + 2 bit(left + 1): site 0 of the pair is left
            h = 0.5 * coupling * (site_operator(2, {0: x, 1: x}) + site_operator(2, {0: y, 1: y})
                                  + spec.delta * site_operator(2, {0: z, 1: z}))
            h = h + spec.b_field * (site_operator(2, {0: x, 1: z})
                                    - site_operator(2, {0: z, 1: x}))
            gate = hermitian_propagator(h, dt / 2.0)
            (self.even_bonds if left % 2 == 0 else self.odd_bonds).append((left, gate))
        zsign = [1.0 - 2.0 * ((np.arange(2 ** n) >> site) & 1) for site in range(n)]
        self.static_diag = spec.pinning * zsign[0]
        self.neel_diag = sum((-1.0) ** site * zsign[site] for site in range(n))

    def phases(self, neel_weight):
        diag = self.static_diag + self.spec.neel_delta * neel_weight * self.neel_diag
        return np.exp(-1j * self.dt * diag)

    def step(self, amps, neel_weight):
        for left, gate in self.even_bonds + self.odd_bonds:
            amps = _apply_bond_gate(amps, left, gate)
        amps = self.phases(neel_weight) * amps
        for left, gate in self.odd_bonds + self.even_bonds:
            amps = _apply_bond_gate(amps, left, gate)
        return amps


def _apply_bond_gate(amps, left, gate):
    view = amps.reshape(-1, 4, 2 ** left)
    return np.einsum("ab,xby->xay", gate, view).reshape(-1)


MAX_DENSE_SITES = 10


def chain_bonds(spec):
    """(left, right, coupling) per bond of the open chain, written out from
    the model: J on the strong bonds (0, 1), (2, 3), ..., J' on the weak
    bonds (1, 2), (3, 4), ..."""
    return [(left, left + 1, spec.j if left % 2 == 0 else spec.j_prime)
            for left in range(spec.num_sites - 1)]


def stagger_signs(num_sites):
    """(-1)^i, the staggered-field sign of site i: site 0 positive."""
    return [(-1.0) ** site for site in range(num_sites)]


def dense_matrix(spec):
    """Explicit 2^N x 2^N matrix of the chain built from Kronecker products
    (N <= 10), independent of the program's matrix-free operator."""
    n = spec.num_sites
    if n > MAX_DENSE_SITES:
        raise ValueError(f"dense matrix limited to N <= {MAX_DENSE_SITES}, got {n}")
    x, y, z = PAULI["x"], PAULI["y"], PAULI["z"]
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for left, right, coupling in chain_bonds(spec):
        h += 0.5 * coupling * (
            site_operator(n, {left: x, right: x})
            + site_operator(n, {left: y, right: y})
            + spec.delta * site_operator(n, {left: z, right: z})
        )
    if spec.b_field != 0.0:
        for left in range(n - 1):
            h += spec.b_field * (site_operator(n, {left: x, left + 1: z})
                                 - site_operator(n, {left: z, left + 1: x}))
    stagger = stagger_signs(n)
    for i in range(n):
        coeff = spec.neel_delta * spec.neel_weight * stagger[i]
        if i == 0:
            coeff += spec.pinning
        if coeff != 0.0:
            h += coeff * site_operator(n, {i: z})
    return h


def matvec(spec, state):
    """H |psi> as a raw (unnormalized) amplitude array, through the
    program's full-space operator."""
    if state.num_sites != spec.num_sites:
        raise ValueError(f"state has {state.num_sites} sites, spec has {spec.num_sites}")
    return CompiledHamiltonian(spec).apply(state.amplitudes)


def strided_apply(spec, amplitudes):
    """H |psi> on the full space term by term through strided views of the
    amplitudes: zz, staggered field and pinning on the diagonal, the
    exchange flips of each bond, and the four signed updates of the B term."""
    n = spec.num_sites
    zsign = [1.0 - 2.0 * ((np.arange(2 ** n) >> site) & 1) for site in range(n)]
    diag = spec.pinning * zsign[0]
    for left, right, coupling in chain_bonds(spec):
        diag = diag + 0.5 * coupling * spec.delta * zsign[left] * zsign[right]
    for site, sign in enumerate(stagger_signs(n)):
        diag = diag + spec.neel_delta * spec.neel_weight * sign * zsign[site]
    out = diag * amplitudes
    b = spec.b_field
    for left, _right, coupling in chain_bonds(spec):
        # axes (higher sites, bit left+1, bit left, lower sites)
        source = amplitudes.reshape(-1, 2, 2, 2 ** left)
        target = out.reshape(-1, 2, 2, 2 ** left)
        target[:, 1, 0] += coupling * source[:, 0, 1]
        target[:, 0, 1] += coupling * source[:, 1, 0]
        # X_j Z_{j+1}: flip bit j, sign of spin j+1; -Z_j X_{j+1}: flip bit
        # j+1, minus the sign of spin j
        target[:, 0] += b * source[:, 0, ::-1]
        target[:, 1] += -b * source[:, 1, ::-1]
        target[:, :, 0] += -b * source[:, ::-1, 0]
        target[:, :, 1] += b * source[:, ::-1, 1]
    return out


def sector_scatter_apply(compiled, amplitudes):
    """H |psi> in one S^z sector over the sorted ``compiled.states``: zz,
    staggered field and pinning on a diagonal built from the spec, as in
    ``strided_apply``, and the exchange as a per-bond scatter of (coupling,
    source, target) index triples: every state whose bond flips adds its
    amplitude to its partner."""
    spec, states = compiled.spec, compiled.states
    zsign = [1.0 - 2.0 * ((states >> site) & 1) for site in range(spec.num_sites)]
    diag = spec.pinning * zsign[0]
    for left, right, coupling in chain_bonds(spec):
        diag = diag + 0.5 * coupling * spec.delta * zsign[left] * zsign[right]
    for site, sign in enumerate(stagger_signs(spec.num_sites)):
        diag = diag + spec.neel_delta * spec.neel_weight * sign * zsign[site]
    out = diag * amplitudes
    for left, _right, coupling in chain_bonds(spec):
        if coupling == 0.0:
            continue
        source = np.flatnonzero(((states >> left) ^ (states >> (left + 1))) & 1)
        target = np.searchsorted(states, states[source] ^ (3 << left))
        out[target] += coupling * amplitudes[source]
    return out


def symmetry_breaking_report(base, pair_counts=(1, 2, 3), seed=0):
    """Reflection and time-reversal invariant series on the same ground
    state, for diagnosing which protecting symmetry survives a perturbation.

    The invariants are quantized only on whole-unit-cell placements. Around
    a central J' bond (``num_sites // 2`` even, e.g. N = 12 or 16) those are
    the even pair counts; an odd count puts the outer cuts on J bonds, where
    the J'-strong values go to -sqrt(2) instead of -1.
    """
    if base.b_field == 0.0:
        raise ValueError("symmetry-breaking report needs a nonzero b_field")
    state = ground_state(base, seed=seed).state
    report = {"spec": base.__dict__, "pair_counts": list(pair_counts),
              "reflection": [], "time_reversal": []}
    for pairs in pair_counts:
        partition = reflection_partition(base.num_sites, pairs)
        report["reflection"].append(exact_invariant(state, partition, "reflection").normalized)
        report["time_reversal"].append(exact_invariant(state, partition, "time_reversal").normalized)
    return report


def lanczos_coefficients(apply, start, steps):
    """Diagonal and off-diagonal of the Lanczos tridiagonal matrix of
    ``steps`` steps from ``start``, the basis fully reorthogonalized twice
    on every step."""
    basis = [start / np.linalg.norm(start)]
    alphas, betas = [], []
    w = apply(basis[0])
    for _ in range(steps):
        alphas.append(basis[-1] @ w)
        w = w - alphas[-1] * basis[-1] - (betas[-1] * basis[-2] if betas else 0.0)
        krylov = np.array(basis)
        for _ in range(2):
            w -= krylov.T @ (krylov @ w)
        betas.append(np.linalg.norm(w))
        basis.append(w / betas[-1])
        w = apply(basis[-1])
    return np.array(alphas), np.array(betas)


def twisted_factorization(alpha, beta, shift):
    """The solver's twisted factorization of T - shift as first written,
    one list per quantity: the number of eigenvalues below ``shift``, the
    Rayleigh quotient of the twisted vector z, z and its squared norm. The
    program's fused loops must match it bit for bit."""
    squares = [b * b for b in beta]
    pivmin = float(np.finfo(float).tiny) * max([1.0] + squares)

    def pivots(diagonal, offdiagonal_squares):
        out = []
        d = 1.0
        for a, q in zip(diagonal, offdiagonal_squares):
            d = (a - shift) - q / d
            if d == 0.0:
                d = -pivmin
            out.append(d)
        return out

    top = pivots(alpha, [0.0] + squares)
    bottom = pivots(alpha[::-1], [0.0] + squares[::-1])[::-1]
    gammas = [t + u - a + shift for t, u, a in zip(top, bottom, alpha)]
    sizes = list(map(abs, gammas))
    r = sizes.index(min(sizes))
    z = []
    v = 1.0
    for b, t in zip(beta[:r][::-1], top[:r][::-1]):
        v *= -b / t
        z.append(v)
    z.reverse()
    z.append(1.0)
    v = 1.0
    for b, u in zip(beta[r:], bottom[r + 1:]):
        v *= -b / u
        z.append(v)
    norm2 = sum(x * x for x in z)
    below = sum(t < 0.0 for t in top)
    return below, shift + gammas[r] / norm2, z, norm2
