"""Matrix-free Hamiltonian against explicit Kronecker-product construction."""
from dataclasses import replace

import numpy as np
import pytest

from topoprobe.hamiltonians import CompiledHamiltonian, HamiltonianSpec, norm_bound
from topoprobe.spincore import basis_state, random_state

from oracles import (
    dense_matrix,
    magnetization_diagonal,
    matvec,
    sector_scatter_apply,
    strided_apply,
)

EPS = np.finfo(float).eps

# N=2 coupling block of the exchange term in the spin basis (up,up / down,up /
# up,down / down,down with site 0 the low bit): XX+YY flips the middle two
XX_CHAIN_2SITES = np.array([
    [0, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 0],
], dtype=complex)


def random_spec(rng, num_sites=6):
    return HamiltonianSpec(
        num_sites=num_sites,
        j=1.0,
        j_prime=float(rng.uniform(0.1, 4.0)),
        delta=float(rng.uniform(0.0, 2.0)),
        b_field=float(rng.uniform(-0.3, 0.3)),
        neel_delta=float(rng.uniform(0.0, 1.0)),
        neel_weight=1.0,
        pinning=0.05,
    )


class TestSpecValidation:
    def test_odd_sites_rejected(self):
        with pytest.raises(ValueError, match="even"):
            HamiltonianSpec(num_sites=5)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match=">= 4"):
            HamiltonianSpec(num_sites=2)

    def test_default_pinning_tracks_j(self):
        assert HamiltonianSpec(num_sites=4, j=2.0).pinning == pytest.approx(0.1)
        assert HamiltonianSpec(num_sites=4, pinning=0.0).pinning == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            HamiltonianSpec(num_sites=4, delta=np.inf)


class TestMatvec:
    def test_polarized_state_annihilated(self):
        # only flip terms act on the all-up state; with delta = 0 and no
        # fields every term gives zero
        spec = HamiltonianSpec(num_sites=4, j=1.0, j_prime=0.0, delta=0.0, pinning=0.0)
        out = matvec(spec, basis_state(4, 0))
        assert np.max(np.abs(out)) == 0.0

    def test_decoupled_dimer_ground_energy(self):
        # j_prime = 0 makes two independent strong bonds; each contributes
        # the singlet energy -3/2 J at delta = 1
        spec = HamiltonianSpec(num_sites=4, j=1.0, j_prime=0.0, delta=1.0, pinning=0.0)
        energies = np.linalg.eigvalsh(dense_matrix(spec))
        assert energies[0] == pytest.approx(-3.0, abs=1e-12)

    def test_hermiticity_inner_products(self, rng):
        spec = random_spec(rng)
        phi = random_state(6, rng)
        psi = random_state(6, rng)
        left = np.vdot(phi.amplitudes, matvec(spec, psi))
        right = np.vdot(psi.amplitudes, matvec(spec, phi))
        assert abs(left - np.conj(right)) < 1e-10

    @pytest.mark.parametrize("num_sites", range(4, 22, 2))
    def test_sector_blocks_match_scatter(self, num_sites, rng):
        # default pinning, and pinning 0; the staggered field on; J' = 0
        # (no exchange on the central bond at N = 4, 8, ..., 20) and J = 0
        # (none there at N = 6, 10, ..., 18), so some bonds carry no exchange
        specs = [HamiltonianSpec(num_sites=num_sites, j=1.0, j_prime=2.6, delta=0.4,
                                 neel_delta=0.7, neel_weight=0.5),
                 HamiltonianSpec(num_sites=num_sites, j=1.0, j_prime=0.0, delta=-0.5,
                                 neel_delta=0.3, neel_weight=1.0, pinning=0.0),
                 HamiltonianSpec(num_sites=num_sites, j=0.0, j_prime=1.3, delta=0.8,
                                 neel_delta=-0.4, neel_weight=0.2)]
        half = num_sites // 2
        for spec in specs:
            # each entry of H psi sums at most N + 2 products, whose absolute
            # values add up to at most ||H|| bound max |psi|; the blocks and
            # the scatter each round that sum, and the diagonal entries they
            # are built from, within (N + 2) eps of it
            bound = 4 * (num_sites + 2) * EPS * norm_bound(spec)
            for sector in range(-half, half + 1):
                compiled = CompiledHamiltonian(spec, sector)
                order = compiled.order  # the blocks take amplitudes in block order
                vec = rng.standard_normal(compiled.dim)
                error = np.abs(compiled.apply(vec[order])
                               - sector_scatter_apply(compiled, vec)[order]).max()
                assert error <= bound * np.abs(vec).max()

    @pytest.mark.parametrize("num_sites", [12, 16])
    def test_full_space_matches_strided_reference(self, num_sites, rng):
        # beyond the dense oracle's reach: B != 0 with every field on, and a
        # B = 0 chain with ferromagnetic anisotropy
        specs = [HamiltonianSpec(num_sites=num_sites, j=1.0, j_prime=4.0, delta=0.3,
                                 b_field=0.1, neel_delta=0.6, neel_weight=0.4),
                 HamiltonianSpec(num_sites=num_sites, j=1.0, j_prime=0.5, delta=-2.0)]
        for spec in specs:
            compiled = CompiledHamiltonian(spec)
            # a complex unit vector, and a real one: Lanczos applies H to real vectors
            for vec in (rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim),
                        rng.standard_normal(spec.dim)):
                vec /= np.linalg.norm(vec)
                out = compiled.apply(vec)
                assert out.dtype == vec.dtype
                assert np.max(np.abs(out - strided_apply(spec, vec))) <= 1e-12

    def test_strided_reference_matches_dense(self, rng):
        spec = random_spec(rng, 8)
        vec = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
        np.testing.assert_allclose(strided_apply(spec, vec), dense_matrix(spec) @ vec,
                                   atol=1e-12)

    def test_dimension_mismatch(self, rng):
        spec = HamiltonianSpec(num_sites=6)
        with pytest.raises(ValueError, match="sites"):
            matvec(spec, random_state(4, rng))


class TestDenseOracle:
    def test_known_two_site_block(self):
        # pure XX chain at N=4 with the weak bonds off: the strong-bond
        # blocks must match the hand-written two-site matrix
        spec = HamiltonianSpec(num_sites=4, j=1.0, j_prime=0.0, delta=0.0, pinning=0.0)
        dense = dense_matrix(spec)
        block = dense[:4, :4]
        np.testing.assert_allclose(block, XX_CHAIN_2SITES, atol=1e-14)

    def test_matvec_matches_dense_on_basis_vectors(self):
        spec = HamiltonianSpec(num_sites=6, j=1.0, j_prime=0.7, delta=0.3,
                               b_field=0.2, neel_delta=0.4, neel_weight=1.0)
        dense = dense_matrix(spec)
        compiled = CompiledHamiltonian(spec)
        for k in range(spec.dim):
            unit = np.zeros(spec.dim, dtype=complex)
            unit[k] = 1.0
            np.testing.assert_allclose(compiled.apply(unit), dense[:, k], atol=1e-12)

    @pytest.mark.parametrize("num_sites", [4, 6, 8])
    def test_matvec_matches_dense_on_random_vectors(self, num_sites, rng):
        spec = random_spec(rng, num_sites)
        dense = dense_matrix(spec)
        compiled = CompiledHamiltonian(spec)
        for _ in range(100):
            vec = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
            vec /= np.linalg.norm(vec)
            np.testing.assert_allclose(compiled.apply(vec), dense @ vec, atol=1e-12)

    @pytest.mark.parametrize("num_sites", [4, 6, 8])
    def test_sectors_match_dense_blocks(self, num_sites, rng):
        spec = replace(random_spec(rng, num_sites), b_field=0.0)
        dense = dense_matrix(spec)
        half = num_sites // 2
        sizes = 0
        for sector in range(-half, half + 1):
            compiled = CompiledHamiltonian(spec, sector)
            states = compiled.states
            assert np.all(np.diff(states) > 0)
            assert np.all(np.bitwise_count(states) == half - sector)
            assert np.array_equal(np.sort(compiled.order), np.arange(len(states)))
            # ``apply`` takes and returns amplitudes in block order
            block = dense[np.ix_(states[compiled.order], states[compiled.order])]
            for vec in rng.standard_normal((5, len(states))):
                np.testing.assert_allclose(compiled.apply(vec), block @ vec, atol=1e-12)
            sizes += len(states)
        assert sizes == spec.dim

    def test_sector_needs_zero_b_field(self):
        with pytest.raises(ValueError, match="b_field"):
            CompiledHamiltonian(HamiltonianSpec(num_sites=6, b_field=0.1), 0)

    @pytest.mark.parametrize("sector", [3, 0.5, -7])
    def test_sector_outside_chain_rejected(self, sector):
        with pytest.raises(ValueError, match="sector must be an integer"):
            CompiledHamiltonian(HamiltonianSpec(num_sites=4), sector)

    def test_eigenvalues_real(self, rng):
        spec = random_spec(rng)
        evals = np.linalg.eigvals(dense_matrix(spec))
        assert np.max(np.abs(evals.imag)) < 1e-10

    def test_size_guard(self):
        with pytest.raises(ValueError, match="N <= 10"):
            dense_matrix(HamiltonianSpec(num_sites=12))


def _mirror_table(num_sites):
    indices = np.arange(2 ** num_sites)
    out = np.zeros_like(indices)
    for new_site in range(num_sites):
        out |= ((indices >> (num_sites - 1 - new_site)) & 1) << new_site
    return out


class TestSymmetries:
    def test_magnetization_conserved_without_breaking_term(self, rng):
        spec = HamiltonianSpec(num_sites=6, j=1.0, j_prime=1.3, delta=0.5,
                               b_field=0.0, neel_delta=0.7, neel_weight=1.0)
        compiled = CompiledHamiltonian(spec)
        mz = magnetization_diagonal(6)
        psi = random_state(6, rng).amplitudes
        commutator = compiled.apply(mz * psi) - mz * compiled.apply(psi)
        assert np.max(np.abs(commutator)) < 1e-10
        assert abs(np.vdot(psi, commutator)) < 1e-10

    def test_magnetization_broken_by_b_field(self, rng):
        spec = HamiltonianSpec(num_sites=6, j=1.0, j_prime=1.3, delta=0.5, b_field=0.4)
        compiled = CompiledHamiltonian(spec)
        mz = magnetization_diagonal(6)
        psi = random_state(6, rng).amplitudes
        commutator = compiled.apply(mz * psi) - mz * compiled.apply(psi)
        assert np.max(np.abs(commutator)) > 1e-3

    def test_reflection_symmetry_clean_chain(self, rng):
        spec = HamiltonianSpec(num_sites=6, j=1.0, j_prime=2.0, delta=0.8,
                               b_field=0.0, neel_delta=0.0, pinning=0.0)
        compiled = CompiledHamiltonian(spec)
        mirror = _mirror_table(6)
        psi = random_state(6, rng).amplitudes
        h_then_mirror = compiled.apply(psi)[mirror]
        mirror_then_h = compiled.apply(psi[mirror])
        assert np.max(np.abs(h_then_mirror - mirror_then_h)) < 1e-10

    def test_reflection_broken_by_pinning(self, rng):
        spec = HamiltonianSpec(num_sites=6, j=1.0, j_prime=2.0, delta=0.8,
                               b_field=0.0, neel_delta=0.0, pinning=0.05)
        compiled = CompiledHamiltonian(spec)
        mirror = _mirror_table(6)
        psi = random_state(6, rng).amplitudes
        difference = compiled.apply(psi)[mirror] - compiled.apply(psi[mirror])
        assert np.max(np.abs(difference)) > 1e-3
