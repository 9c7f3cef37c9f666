"""Basis encoding, local gates, bitstring utilities, Born sampling."""
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from topoprobe.spincore import (
    LocalUnitary,
    SpinState,
    all_up_state,
    apply_local_unitary,
    basis_state,
    hamming_distance,
    marginal_probabilities,
    neel_state,
    random_state,
    reflect_index,
    reflection_permutation,
    sample_bitstrings,
)
from topoprobe.protocols import sample_cue

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestStateBasics:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            SpinState(3, np.ones(4, dtype=complex) / 2.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            SpinState(2, np.ones(4, dtype=complex))

    def test_neel_state_site0_down(self):
        state = neel_state(4)
        # site 0 down, site 1 up, ... -> bits 0101 -> index 5
        assert state.amplitudes[0b0101] == 1.0

    def test_amplitudes_read_only(self):
        state = all_up_state(3)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestLocalGates:
    def test_identity_leaves_state(self, rng):
        state = random_state(5, rng)
        out = apply_local_unitary(state, LocalUnitary(2, np.eye(2)))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_sigma_x_flips_site0(self):
        out = apply_local_unitary(all_up_state(2), LocalUnitary(0, SIGMA_X))
        expected = basis_state(2, 0b01)
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes)

    def test_unitary_then_inverse(self, rng):
        state = random_state(6, rng)
        u = sample_cue(rng)
        forward = apply_local_unitary(state, LocalUnitary(3, u))
        back = apply_local_unitary(forward, LocalUnitary(3, u.conj().T))
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10

    def test_norm_preserved(self, rng):
        state = random_state(6, rng)
        out = apply_local_unitary(state, LocalUnitary(4, sample_cue(rng)))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_gate_application_is_linear(self, rng):
        a = random_state(4, rng).amplitudes
        b = random_state(4, rng).amplitudes
        alpha, beta = 0.3 + 0.1j, -0.7 + 0.4j
        mixed = alpha * a + beta * b
        mixed /= np.linalg.norm(mixed)
        u = LocalUnitary(1, sample_cue(rng))
        direct = apply_local_unitary(SpinState(4, mixed), u).amplitudes
        parts = alpha * apply_local_unitary(SpinState(4, a), u).amplitudes \
            + beta * apply_local_unitary(SpinState(4, b), u).amplitudes
        parts /= np.linalg.norm(parts)
        assert np.max(np.abs(direct - parts)) < 1e-10

    def test_site_out_of_range(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            apply_local_unitary(all_up_state(3), LocalUnitary(3, np.eye(2)))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            LocalUnitary(0, np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestBitstrings:
    @given(st.integers(min_value=0, max_value=255))
    def test_round_trip(self, index):
        assert reflection_permutation(8)[reflect_index(index, 8)] == index

    def test_hamming_trivial(self):
        assert hamming_distance(0b01, 0b01) == 0
        assert hamming_distance(0b01, 0b10) == 2

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
    def test_hamming_metric(self, a, b, c):
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
        assert (hamming_distance(a, b) == 0) == (a == b)

    def test_hamming_metric_exhaustive_length4(self):
        for a, b, c in itertools.product(range(16), repeat=3):
            assert hamming_distance(a, b) == hamming_distance(b, a)
            assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)

    def test_reflect_definition(self):
        # (up down up up) read site 0 first -> bits 0100 -> index 2
        assert reflect_index(0b0010, 4) == 0b0100
        assert reflection_permutation(4)[0b0010] == 0b0100

    def test_reflect_palindrome_fixed(self):
        assert reflect_index(0b1001, 4) == 0b1001

    def test_reflect_involution_exhaustive(self):
        for length in (2, 4, 6, 8):
            perm = reflection_permutation(length)
            for s in range(2 ** length):
                assert perm[perm[s]] == s
                assert reflect_index(int(perm[s]), length) == s


class TestSampling:
    def test_deterministic_state(self, rng):
        counts = sample_bitstrings(all_up_state(2), [0, 1], 1000, rng)
        assert counts[0] == 1000 and counts.sum() == 1000

    def test_born_rule_five_sigma(self):
        plus = SpinState(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
        n = 100000
        counts = sample_bitstrings(plus, [0], n, np.random.default_rng(3))
        sigma = np.sqrt(n * 0.25)
        assert abs(counts[0] - n / 2) < 5 * sigma

    def test_bell_marginal_uniform(self):
        bell = SpinState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))
        n = 100000
        counts = sample_bitstrings(bell, [0], n, np.random.default_rng(4))
        sigma = np.sqrt(n * 0.25)
        assert abs(counts[0] - n / 2) < 5 * sigma

    def test_same_seed_identical(self, rng):
        state = random_state(5, rng)
        a = sample_bitstrings(state, [1, 2, 3], 500, np.random.default_rng(9))
        b = sample_bitstrings(state, [1, 2, 3], 500, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_counts_sum(self, rng):
        state = random_state(4, rng)
        counts = sample_bitstrings(state, [0, 2], 137, rng)
        assert counts.sum() == 137

    def test_empty_region_rejected(self, rng):
        with pytest.raises(ValueError, match="at least one site"):
            sample_bitstrings(all_up_state(3), [], 10, rng)

    def test_marginal_noncontiguous_matches_full(self, rng):
        state = random_state(5, rng)
        full = np.abs(state.amplitudes) ** 2
        marg = marginal_probabilities(state, [0, 3])
        expected = np.zeros(4)
        for k in range(32):
            expected[((k >> 0) & 1) | (((k >> 3) & 1) << 1)] += full[k]
        np.testing.assert_allclose(marg, expected, atol=1e-12)

