"""Basis encoding and bitstring utilities; the gate and Born-marginal
conventions of the statevector oracle; the campaign shot sampler."""
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from topoprobe.protocols import _shot_distributions, sample_cue
from topoprobe.spincore import (
    SpinState,
    basis_state,
    neel_state,
    random_state,
    reflection_permutation,
)

from oracles import apply_site, hamming_distance, interval_marginal, reflect_index

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestStateBasics:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            SpinState(3, np.ones(4, dtype=complex) / 2.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            SpinState(2, np.ones(4, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN fails every comparison, so the norm test must not be a `>`
        with pytest.raises(ValueError, match="normalized"):
            SpinState(2, [bad, 0.0, 0.0, 0.0])

    def test_neel_state_site0_down(self):
        state = neel_state(4)
        # site 0 down, site 1 up, ... -> bits 0101 -> index 5
        assert state.amplitudes[0b0101] == 1.0

    def test_amplitudes_read_only(self):
        state = basis_state(3, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestLocalGates:
    """The per-site gate of the statevector oracle."""

    def test_identity_leaves_state(self, rng):
        state = random_state(5, rng)
        out = apply_site(state.amplitudes, 2, np.eye(2))
        np.testing.assert_allclose(out, state.amplitudes)

    def test_sigma_x_flips_site0(self):
        out = apply_site(basis_state(2, 0).amplitudes, 0, SIGMA_X)
        expected = basis_state(2, 0b01)
        np.testing.assert_allclose(out, expected.amplitudes)

    def test_unitary_then_inverse(self, rng):
        state = random_state(6, rng)
        u = sample_cue(rng)
        back = apply_site(apply_site(state.amplitudes, 3, u), 3, u.conj().T)
        assert np.max(np.abs(back - state.amplitudes)) < 1e-10

    def test_norm_preserved(self, rng):
        state = random_state(6, rng)
        out = apply_site(state.amplitudes, 4, sample_cue(rng))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_gate_application_is_linear(self, rng):
        a = random_state(4, rng).amplitudes
        b = random_state(4, rng).amplitudes
        alpha, beta = 0.3 + 0.1j, -0.7 + 0.4j
        mixed = alpha * a + beta * b
        mixed /= np.linalg.norm(mixed)
        u = sample_cue(rng)
        direct = apply_site(mixed, 1, u)
        parts = alpha * apply_site(a, 1, u) + beta * apply_site(b, 1, u)
        parts /= np.linalg.norm(parts)
        assert np.max(np.abs(direct - parts)) < 1e-10


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


def sample(state, first, length, n_shots, rng):
    """Shot counts on an interval: the oracle marginal fed to the campaign
    shot sampler."""
    marginal = interval_marginal(state.amplitudes, first, length)
    return rng.multinomial(n_shots, _shot_distributions(marginal))


class TestSampling:
    def test_deterministic_state(self, rng):
        counts = sample(basis_state(2, 0), 0, 2, 1000, rng)
        assert counts[0] == 1000 and counts.sum() == 1000

    def test_born_rule_five_sigma(self):
        plus = SpinState(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
        n = 100000
        counts = sample(plus, 0, 1, n, np.random.default_rng(3))
        sigma = np.sqrt(n * 0.25)
        assert abs(counts[0] - n / 2) < 5 * sigma

    def test_bell_marginal_uniform(self):
        bell = SpinState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))
        n = 100000
        counts = sample(bell, 0, 1, n, np.random.default_rng(4))
        sigma = np.sqrt(n * 0.25)
        assert abs(counts[0] - n / 2) < 5 * sigma

    def test_same_seed_identical(self, rng):
        state = random_state(5, rng)
        a = sample(state, 1, 3, 500, np.random.default_rng(9))
        b = sample(state, 1, 3, 500, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_counts_sum(self, rng):
        state = random_state(4, rng)
        counts = sample(state, 1, 2, 137, rng)
        assert counts.sum() == 137

    def test_interval_marginal_matches_full(self, rng):
        state = random_state(5, rng)
        full = np.abs(state.amplitudes) ** 2
        marg = interval_marginal(state.amplitudes, 1, 3)
        expected = np.zeros(8)
        for k in range(32):
            expected[(k >> 1) & 0b111] += full[k]
        np.testing.assert_allclose(marg, expected, atol=1e-12)
