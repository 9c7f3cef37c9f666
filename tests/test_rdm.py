"""Exact reduced density matrices and invariants against independent
dense-operator oracles built from explicit Kronecker products."""
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topoprobe.hamiltonians import CompiledHamiltonian, HamiltonianSpec
from topoprobe.partitions import (
    PartitionSpec,
    reflection_partition,
    three_segment_partition,
)
from topoprobe.rdm import (
    InvariantValue,
    _ordered,
    exact_invariant,
    purity,
    reduced_density_matrix,
)
from topoprobe.spincore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    IDENTITY_2,
    SpinState,
    basis_state,
    random_state,
)
from topoprobe.protocols import HAMMING_DIAGONAL

from oracles import (
    partial_transpose_first_segment,
    reflect_index,
    twirl_phi_exact,
    whole_chain_time_reversal,
)


def kron_positions(ops):
    """Tensor product with position 0 as the least significant factor."""
    return reduce(np.kron, reversed(ops))


def dense_reversal_operator(length):
    dim = 2 ** length
    op = np.zeros((dim, dim))
    for s in range(dim):
        r = 0
        for j in range(length):
            r |= ((s >> j) & 1) << (length - 1 - j)
        op[r, s] = 1.0
    return op


def two_bell_pairs():
    """4-site state whose first two sites are maximally mixed (each Bell-paired
    with an environment site)."""
    amps = np.zeros(16, dtype=complex)
    for k in range(16):
        bits = [(k >> i) & 1 for i in range(4)]
        if bits[0] == bits[2] and bits[1] == bits[3]:
            amps[k] = 0.5
    return SpinState(4, amps)


def three_bell_pairs():
    """6-site state with sites 2,3,4 maximally mixed."""
    amps = np.zeros(64, dtype=complex)
    for k in range(64):
        bits = [(k >> i) & 1 for i in range(6)]
        if bits[2] == bits[5] and bits[3] == bits[0] and bits[4] == bits[1]:
            amps[k] = 8 ** -0.5
    return SpinState(6, amps)


def singlet_center_state():
    """4-site state: singlet across the central bond, edges up."""
    amps = np.zeros(16, dtype=complex)
    amps[0b0010] = 2 ** -0.5
    amps[0b0100] = -(2 ** -0.5)
    return SpinState(4, amps)


class TestReducedDensityMatrix:
    def test_product_state_projector(self):
        rho = reduced_density_matrix(basis_state(6, 0), reflection_partition(6, 2).sites)
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-14)

    def test_bell_pair_half_identity(self):
        bell = SpinState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        rho = reduced_density_matrix(bell, [0])
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-14)

    def test_schmidt_spectra_match(self, rng):
        state = random_state(6, rng)
        rho = reduced_density_matrix(state, [1, 2, 3])
        assert abs(np.trace(rho) - 1.0) < 1e-12
        tensor = state.amplitudes.reshape([2] * 6)
        kept = [6 - 1 - s for s in reversed([1, 2, 3])]
        rest = [ax for ax in range(6) if ax not in kept]
        matrix = tensor.transpose(kept + rest).reshape(8, -1)
        singular = np.linalg.svd(matrix, compute_uv=False)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(rho)),
                                   np.sort(singular ** 2), atol=1e-10)

    def test_interval_size_guard(self, rng):
        state = random_state(14, rng)
        with pytest.raises(ValueError, match="exceeds limit"):
            reduced_density_matrix(state, list(range(13)))


class TestPurity:
    def test_pure_product(self):
        rho = reduced_density_matrix(basis_state(4, 0), reflection_partition(4, 1).sites)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = reduced_density_matrix(two_bell_pairs(), [0, 1])
        assert purity(rho) == pytest.approx(0.25, abs=1e-12)

    def test_bell_half(self):
        bell = SpinState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        assert purity(reduced_density_matrix(bell, [0])) == pytest.approx(0.5, abs=1e-12)

    def test_segment_reduction_consistency(self, rng):
        # the z-weighted Gram product of the reordered amplitudes against an
        # explicit dense Tr_I2[Z_I2 rho_I], and the plain reduced density
        # matrix against the partial trace of rho_I onto I1
        state = random_state(9, rng)
        n = 2
        part = three_segment_partition(9, n)
        rho = reduced_density_matrix(state, part.sites)
        z_middle = kron_positions([IDENTITY_2] * n + [PAULI_Z] * n + [IDENTITY_2] * n)
        shaped = (z_middle @ rho).reshape([2 ** n] * 6)  # (I3, I2, I1) rows, then columns
        dense = np.einsum("aibcid->abcd", shaped).reshape(4 ** n, 4 ** n)
        outer = part.segment_sites(0) + part.segment_sites(2)
        mat, signed = _ordered(state, outer, part.segment_sites(1))
        np.testing.assert_allclose(signed @ mat.conj().T, dense, atol=1e-12)
        first = np.einsum("aiaj->ij", rho.reshape(4 ** n, 2 ** n, 4 ** n, 2 ** n))
        np.testing.assert_allclose(first, reduced_density_matrix(state, part.segment_sites(0)),
                                   atol=1e-12)


class TestReflectionInvariant:
    def test_symmetric_product_state(self):
        value = exact_invariant(basis_state(4, 0), reflection_partition(4, 2), "reflection")
        assert value.raw == pytest.approx(1.0, abs=1e-12)
        assert value.normalized == pytest.approx(1.0, abs=1e-12)

    def test_singlet_antisymmetry(self):
        value = exact_invariant(singlet_center_state(), reflection_partition(4, 1),
                                "reflection")
        assert value.raw == pytest.approx(-1.0, abs=1e-12)

    def test_against_dense_operator(self, rng):
        for _ in range(5):
            state = random_state(8, rng)
            part = reflection_partition(8, 2)
            rho = reduced_density_matrix(state, part.sites)
            oracle = np.trace(rho @ dense_reversal_operator(4)).real
            assert exact_invariant(state, part, "reflection").raw \
                == pytest.approx(oracle, abs=1e-12)

    def test_twirled_weight_identity(self, rng):
        # assembling the exact two-copy twirl of the Hamming-weight operator
        # across mirror pairs must rebuild the reversal operator itself
        state = random_state(8, rng)
        part = reflection_partition(8, 2)
        rho = reduced_density_matrix(state, part.sites)
        pair_op = twirl_phi_exact(HAMMING_DIAGONAL)  # 4x4, acts on (i, mirror(i))
        dim = 16
        assembled = np.eye(dim, dtype=complex)
        for i, j in [(0, 3), (1, 2)]:  # mirror position pairs for 2n = 4
            full = np.zeros((dim, dim), dtype=complex)
            for r in range(dim):
                for c in range(dim):
                    if (r & ~((1 << i) | (1 << j))) != (c & ~((1 << i) | (1 << j))):
                        continue
                    pr = ((r >> i) & 1) | (((r >> j) & 1) << 1)
                    pc = ((c >> i) & 1) | (((c >> j) & 1) << 1)
                    full[r, c] = pair_op[pr, pc]
            assembled = assembled @ full
        estimator_route = np.trace(assembled @ rho).real
        assert exact_invariant(state, part, "reflection").raw \
            == pytest.approx(estimator_route, abs=1e-10)

    def test_asymmetric_partition_rejected(self, rng):
        state = random_state(6, rng)
        with pytest.raises(ValueError, match="equal segments"):
            exact_invariant(state, PartitionSpec(6, 1, ((1, 2), (2, 4))), "reflection")


class TestTimeReversalInvariant:
    def test_orthogonal_after_flip(self):
        value = exact_invariant(basis_state(4, 0), reflection_partition(4, 1), "time_reversal")
        assert value.raw == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_closed_form(self):
        value = exact_invariant(two_bell_pairs(), PartitionSpec(4, 1, ((0, 1), (1, 2))),
                                "time_reversal")
        assert value.raw == pytest.approx(0.25, abs=1e-12)
        assert value.purity_first == pytest.approx(0.5, abs=1e-12)
        assert value.normalized == pytest.approx(2 ** -0.5, abs=1e-12)

    def test_partial_transpose_convention(self, rng):
        state = random_state(8, rng)
        rho = reduced_density_matrix(state, reflection_partition(8, 2).sites)
        transposed = partial_transpose_first_segment(rho, 2, 4)
        for r in range(16):
            for c in range(16):
                a, b = r & 3, r >> 2
                ap, bp = c & 3, c >> 2
                assert transposed[r, c] == rho[(b << 2) | ap, (bp << 2) | a]

    def test_against_dense_operator(self, rng):
        for n in (1, 2, 3, 4):  # n = 4 is the whole chain
            state = random_state(8, rng)
            part = reflection_partition(8, n)
            rho = reduced_density_matrix(state, part.sites)
            flip = kron_positions([PAULI_Y] * n + [IDENTITY_2] * n)
            transposed = partial_transpose_first_segment(rho, n, 2 * n)
            oracle = np.trace(rho @ flip @ transposed @ flip.conj().T).real
            assert exact_invariant(state, part, "time_reversal").raw \
                == pytest.approx(oracle, abs=1e-12)


def dense_two_copy_operator(part):
    """S_I1 Z_I2 S_I3 on the doubled space, copy 1 as the high factor."""
    length = part.interval_size
    dim = 2 ** length
    doubled = dim * dim
    swap_positions = part.segment_positions(0) + part.segment_positions(2)
    permutation = np.zeros((doubled, doubled))
    for d in range(doubled):
        r, q = d // dim, d % dim
        r2, q2 = r, q
        for pos in swap_positions:
            if ((r >> pos) ^ (q >> pos)) & 1:
                r2 ^= 1 << pos
                q2 ^= 1 << pos
        permutation[r2 * dim + q2, d] = 1.0
    weights = np.ones(doubled)
    for pos in part.segment_positions(1):
        for d in range(doubled):
            r, q = d // dim, d % dim
            weights[d] *= (1 - 2 * ((r >> pos) & 1)) * (1 - 2 * ((q >> pos) & 1))
    return permutation @ np.diag(weights)


def dense_two_copy_trace(part, x, y):
    """Tr[S_I1 Z_I2 S_I3 (x otimes y)] as Tr[A B] with A = Tr_I2(Z_I2 x) and
    B = Tr_I2(Z_I2 y): the sigma_z weights act on each copy alone and the
    swap of the outer segments turns the trace into a product. Unlike
    ``dense_two_copy_operator`` it never builds the doubled space, so it
    reaches three-site segments."""
    n = part.pairs
    z_middle = kron_positions([IDENTITY_2] * n + [PAULI_Z] * n + [IDENTITY_2] * n)
    outer = 4 ** n

    def middle_traced(m):
        shaped = (z_middle @ m).reshape([2 ** n] * 6)  # (I3, I2, I1) rows, then columns
        return np.einsum("aibcid->abcd", shaped).reshape(outer, outer)

    return np.trace(middle_traced(x) @ middle_traced(y))


class TestTwoCopyInvariants:
    def test_d2_against_dense_kron_oracle(self, rng):
        for n in (1, 2, 3):
            part = three_segment_partition(10, n)
            for _ in range(5 if n == 1 else 2):
                state = random_state(10, rng)
                rho = reduced_density_matrix(state, part.sites)
                flip = kron_positions([PAULI_X] * n + [IDENTITY_2] * (2 * n))
                flipped = flip @ rho @ flip
                oracle = dense_two_copy_trace(part, flipped, rho).real
                if n == 1:
                    assert oracle == pytest.approx(np.trace(
                        dense_two_copy_operator(part) @ np.kron(flipped, rho)).real, abs=1e-12)
                assert exact_invariant(state, part, "d2").raw == pytest.approx(oracle, abs=1e-10)

    def test_kb_against_dense_kron_oracle(self, rng):
        for n in (1, 2, 3):
            part = three_segment_partition(10, n)
            for _ in range(5 if n == 1 else 2):
                state = random_state(10, rng)
                rho = reduced_density_matrix(state, part.sites)
                flip = kron_positions([PAULI_Y] * n + [IDENTITY_2] * (2 * n))
                transposed = partial_transpose_first_segment(rho, n, 3 * n)
                flipped = flip @ transposed @ flip.conj().T
                oracle = dense_two_copy_trace(part, flipped, rho).real
                if n == 1:
                    assert oracle == pytest.approx(np.trace(
                        dense_two_copy_operator(part) @ np.kron(flipped, rho)).real, abs=1e-12)
                assert exact_invariant(state, part, "klein_bottle").raw \
                    == pytest.approx(oracle, abs=1e-10)

    def test_d2_maximally_mixed_zero(self):
        part = three_segment_partition(6, 1)
        assert exact_invariant(three_bell_pairs(), part, "d2").raw == pytest.approx(0.0, abs=1e-12)

    def test_kb_maximally_mixed_zero(self):
        part = three_segment_partition(6, 1)
        assert exact_invariant(three_bell_pairs(), part, "klein_bottle").raw \
            == pytest.approx(0.0, abs=1e-12)

    def test_all_up_zero_after_flip(self):
        part = three_segment_partition(8, 1)
        assert exact_invariant(basis_state(8, 0), part, "d2").raw == pytest.approx(0.0, abs=1e-14)
        assert exact_invariant(basis_state(8, 0), part, "klein_bottle").raw \
            == pytest.approx(0.0, abs=1e-14)

    def test_wrong_segment_count(self, rng):
        state = random_state(6, rng)
        with pytest.raises(ValueError, match="three equal segments"):
            exact_invariant(state, reflection_partition(6, 2), "d2")


class TestGroundStatePhysics:
    def test_reflection_quantization(self, ground_state_cache):
        part = reflection_partition(12, 2)
        trivial = ground_state_cache(num_sites=12, j=1.0, j_prime=0.2, delta=0.25).state
        topological = ground_state_cache(num_sites=12, j=1.0, j_prime=5.0, delta=0.25).state
        assert exact_invariant(trivial, part, "reflection").normalized > 0.9
        assert exact_invariant(topological, part, "reflection").normalized < -0.9

    def test_time_reversal_quantization(self, ground_state_cache):
        part = reflection_partition(12, 2)
        trivial = ground_state_cache(num_sites=12, j=1.0, j_prime=0.2, delta=0.25).state
        topological = ground_state_cache(num_sites=12, j=1.0, j_prime=5.0, delta=0.25).state
        assert exact_invariant(trivial, part, "time_reversal").normalized > 0.8
        assert exact_invariant(topological, part, "time_reversal").normalized < -0.8

    def test_d2_and_kb_distinguish_phases(self, ground_state_cache):
        part = three_segment_partition(12, 2)
        trivial = ground_state_cache(num_sites=12, j=1.0, j_prime=0.2, delta=0.25).state
        topological = ground_state_cache(num_sites=12, j=1.0, j_prime=5.0, delta=0.25).state
        for kind in ("d2", "klein_bottle"):
            sign_trivial = np.sign(exact_invariant(trivial, part, kind).raw)
            sign_topological = np.sign(exact_invariant(topological, part, kind).raw)
            assert sign_trivial != sign_topological

    def test_invariants_real_on_random_states(self, rng):
        part2 = reflection_partition(6, 1)
        part3 = three_segment_partition(6, 1)
        for _ in range(50):
            state = random_state(6, rng)
            # construction raises if the imaginary part exceeds 1e-10
            exact_invariant(state, part2, "reflection")
            exact_invariant(state, part2, "time_reversal")
            exact_invariant(state, part3, "d2")
            exact_invariant(state, part3, "klein_bottle")


def mirror_singlet_state():
    """4-site state with a singlet on sites (0, 3) and one on (1, 2)."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)  # index = bit_a + 2 bit_b
    amps = np.zeros(16, dtype=complex)
    for k in range(16):
        bits = [(k >> i) & 1 for i in range(4)]
        amps[k] = singlet[bits[0] + 2 * bits[3]] * singlet[bits[1] + 2 * bits[2]]
    return SpinState(4, amps)


class TestDerivedBounds:
    def test_mirror_singlet_normalized_two(self):
        state = mirror_singlet_state()
        part = reflection_partition(4, 2)
        for kind in ("reflection", "time_reversal"):
            value = exact_invariant(state, part, kind)
            assert value.normalized == pytest.approx(2.0, abs=1e-12)
        assert exact_invariant(state, part, "reflection").raw == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(num_sites=st.sampled_from([4, 6, 8]), pairs_draw=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_states_within_bounds(self, num_sites, pairs_draw, seed):
        state = random_state(num_sites, np.random.default_rng(seed))
        pairs = min(pairs_draw, num_sites // 2)
        part2 = reflection_partition(num_sites, pairs)
        rho2 = reduced_density_matrix(state, part2.sites)
        assert abs(exact_invariant(state, part2, "reflection").raw) <= 1.0 + 1e-10
        assert abs(exact_invariant(state, part2, "time_reversal").raw) <= purity(rho2) + 1e-10
        triple = min(pairs_draw, num_sites // 3)
        part3 = three_segment_partition(num_sites, triple)
        d2 = exact_invariant(state, part3, "d2")
        assert abs(d2.raw) <= 1.0 + 1e-10
        rho = reduced_density_matrix(state, part3.sites)
        transposed = partial_transpose_first_segment(rho, triple, 3 * triple)
        trace_norm = np.abs(np.linalg.eigvalsh(transposed)).sum()
        klein_bottle = exact_invariant(state, part3, "klein_bottle")
        assert abs(klein_bottle.raw) <= trace_norm + 1e-10
        # the derived bound Tr B^2, B = Tr_I2[Z_I2 rho], is the two-copy
        # trace of rho against itself, and is at most 1
        middle_purity = dense_two_copy_trace(part3, rho, rho).real
        for value in (d2, klein_bottle):
            assert value.bound == pytest.approx(middle_purity, abs=1e-12)
            assert abs(value.raw) <= value.bound + 1e-10
        assert middle_purity <= 1.0 + 1e-10


class TestStateInput:
    @pytest.mark.parametrize("factor", [1 - 5e-9, 1 + 5e-11, 1 + 5e-10, 1 + 5e-9])
    def test_near_normalized_states_accepted(self, rng, factor):
        # SpinState accepts | |psi| - 1 | <= 1e-8; the invariants are those of psi/|psi|
        layouts = [(kind, reflection_partition(6, 2)) for kind in ("reflection", "time_reversal")]
        layouts += [(kind, three_segment_partition(6, 2)) for kind in ("d2", "klein_bottle")]
        for state in (basis_state(6, 0), random_state(6, rng)):
            for kind, part in layouts:
                plain = exact_invariant(state, part, kind)
                value = exact_invariant(SpinState(6, state.amplitudes * factor), part, kind)
                for field in ("raw", "normalized", "purity_first", "purity_second", "bound"):
                    assert getattr(value, field) == pytest.approx(getattr(plain, field),
                                                                  abs=1e-12)

    @pytest.mark.parametrize("kind", ["reflection", "time_reversal"])
    def test_chain_size_mismatch_rejected(self, rng, kind):
        # sites 3-6 of a 10-site partition fit in 8 sites, so only this check
        # stands between the call and a silently wrong value
        with pytest.raises(ValueError, match="chain size does not match"):
            exact_invariant(random_state(8, rng), reflection_partition(10, 2), kind)


class TestReach:
    def test_reflection_on_fourteen_site_interval(self, rng):
        # no interval matrix is built: only the 7-site segment purities
        state = random_state(14, rng)
        part = reflection_partition(14, 7)
        reflected = state.amplitudes[[reflect_index(x, 14) for x in range(2 ** 14)]]
        oracle = np.vdot(state.amplitudes, reflected).real
        assert exact_invariant(state, part, "reflection").raw == pytest.approx(oracle, abs=1e-12)
        # time reversal runs on the column side: 2 * 4^7 entries, not 16^7
        oracle = whole_chain_time_reversal(state.amplitudes, 7).real
        assert exact_invariant(state, part, "time_reversal").raw \
            == pytest.approx(oracle, abs=1e-12)

    def test_time_reversal_on_sixteen_site_chain(self, rng):
        state = random_state(16, rng)
        value = exact_invariant(state, reflection_partition(16, 8), "time_reversal")
        assert value.raw == pytest.approx(
            whole_chain_time_reversal(state.amplitudes, 8).real, abs=1e-12)
        # a pure state: both halves have the same purity, and Tr rho^2 = 1
        assert value.purity_first == pytest.approx(value.purity_second, abs=1e-12)
        assert value.bound == pytest.approx(1.0, abs=1e-12)

    def test_real_state_contracts_in_real_arithmetic(self, rng):
        # N = 16, pairs 6 runs on the column side (18 > 16); P and Q, 2^20
        # entries each, take 16 MiB together when real and 32 MiB when complex
        states = CompiledHamiltonian(HamiltonianSpec(num_sites=16, j=1.0, delta=0.25), 0).states
        amps = np.zeros(2 ** 16)
        amps[states] = rng.standard_normal(len(states))
        state = SpinState(16, amps / np.linalg.norm(amps))
        tracemalloc.start()
        try:
            exact_invariant(state, reflection_partition(16, 6), "time_reversal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6

    def test_both_sides_above_limit_rejected(self, rng):
        # N = 20, pairs 7: 16^7 = 4^14 row-side and 2 * 4^7 * 4^6 column-side
        # entries, both above 4^12; the check runs before anything is allocated
        state = random_state(20, rng)
        with pytest.raises(ValueError, match="exceeds limit"):
            exact_invariant(state, reflection_partition(20, 7), "time_reversal")


class TestInvariantValueContract:
    def test_normalized_bound_enforced(self):
        with pytest.raises(ValueError, match="bound"):
            InvariantValue(2.0, 2.0, 1.0, 1.0, "reflection")

    def test_raw_checked_against_given_bound(self):
        InvariantValue(0.25, 2.0, 0.25, 0.25, "time_reversal", bound=0.25)
        with pytest.raises(ValueError, match="derived bound"):
            InvariantValue(0.3, 0.3, 1.0, 1.0, "time_reversal", bound=0.25)

    def test_nan_raw_rejected(self):
        with pytest.raises(ValueError, match="derived bound"):
            InvariantValue(np.nan, 0.5, 1.0, 1.0, "reflection")

    def test_purity_range_enforced(self):
        with pytest.raises(ValueError, match="purity"):
            InvariantValue(0.5, 0.5, 0.0, 1.0, "reflection")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            InvariantValue(0.5, 0.5, 1.0, 1.0, "bogus")
