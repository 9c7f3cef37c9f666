"""Randomized-measurement campaigns, estimators, and twirling checks."""
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topoprobe.partitions import PartitionSpec, partition_for, reflection_partition, \
    three_segment_partition
from topoprobe.protocols import (
    BOOTSTRAP_RESAMPLES,
    BUDGET,
    HAMMING_DIAGONAL,
    SWAP_2,
    TRANSPOSE_SWAP_2,
    CampaignRecords,
    EstimatorResult,
    ProtocolParams,
    _campaign_axes,
    _check_state_layout,
    _ginibre,
    _outcome_matrices,
    _per_unitary_purity,
    _per_unitary_raw,
    _qr_haar,
    _seeded,
    _spawn_words,
    _stream_states,
    estimate_normalized,
    estimate_purity,
    estimate_raw,
    read_records,
    reflection_weights,
    run_campaign,
    sample_cue,
    twirl_check,
    write_records,
)
from topoprobe.rdm import MAX_INTERVAL, exact_invariant, purity, reduced_density_matrix
from topoprobe.spincore import SpinState, basis_state, random_state

from oracles import bloch_axes, bootstrap_std, campaign_gates, qr_haar_lapack, \
    statevector_born, twirl_pair_average, twirl_phi_exact, twirl_psi_exact

# (kind, pairs) of every engine layout with |I| <= 6
ENGINE_LAYOUTS = [(kind, pairs) for kind in ("reflection", "purity", "time_reversal")
                  for pairs in (1, 2, 3)] + \
    [(kind, pairs) for kind in ("d2", "klein_bottle") for pairs in (1, 2)]
# an |I| = 8 layout: the Pauli transform runs per-site passes above its last
# four sites
LONG_LAYOUT = ("time_reversal", 4)


@pytest.fixture(scope="module")
def state8():
    return random_state(8, np.random.default_rng(2024))


def contract_stream(master_seed, *key):
    """A fresh generator of one stream of the seed contract."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def exact_table(*distributions):
    """Infinite-shot records of a one-experiment campaign, one unitary per
    Born distribution."""
    return CampaignRecords(np.array(distributions)[:, None], exact=True)


def first_axes(kind, partition):
    """Bloch axes (experiments, |I|, 3) of the gates of unitary 0 of a
    campaign."""
    return _campaign_axes(ProtocolParams(kind, 2, 2, partition, 0), range(1))[0]


class TestCueSampling:
    def test_unitarity(self):
        us = sample_cue(np.random.default_rng(4), 100000)
        gram = np.einsum("nki,nkj->nij", us.conj(), us)
        assert np.max(np.linalg.norm(gram - np.eye(2), axis=(1, 2))) < 1e-14

    def test_closed_form_matches_lapack_qr(self):
        ginibre = _ginibre(np.random.default_rng(4), 100000)
        q = _qr_haar(ginibre)
        assert np.array_equal(q, sample_cue(np.random.default_rng(4), 100000))
        assert np.max(np.abs(q - qr_haar_lapack(ginibre))) < 1e-12
        # Q^dag G is R: upper triangular with a positive real diagonal
        r = np.einsum("nki,nkj->nij", q.conj(), ginibre)
        diagonal = np.diagonal(r, axis1=1, axis2=2)
        assert np.max(np.abs(r[:, 1, 0])) < 1e-14
        assert np.max(np.abs(diagonal.imag)) < 1e-14
        assert np.all(diagonal.real > 0)

    def test_first_moment_depolarizes(self):
        us = sample_cue(np.random.default_rng(1), 100000)
        projector = np.zeros((2, 2), dtype=complex)
        projector[0, 0] = 1.0
        mean = np.einsum("nij,jk,nlk->il", us, projector, us.conj()) / len(us)
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.01

    def test_top_entry_magnitude_uniform(self):
        # |U_00|^2 of a Haar 2x2 is uniform on [0,1]; Kolmogorov bound at
        # the five-sigma level is D * sqrt(n) <= 2.75
        us = sample_cue(np.random.default_rng(2), 100000)
        values = np.sort(np.abs(us[:, 0, 0]) ** 2)
        grid = np.arange(1, len(values) + 1) / len(values)
        statistic = np.max(np.abs(values - grid))
        assert statistic * np.sqrt(len(values)) <= 2.75

    def test_same_seed_same_matrix(self):
        a = sample_cue(np.random.default_rng(5))
        b = sample_cue(np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestPatterns:
    # u sigma_y, conj(u) and u sigma_x map the Bloch vector (x, y, z) of
    # u^dag Z u to (-x, y, -z), (x, -y, z) and (x, -y, -z); an identity is Z
    def test_reflection_pairs_sites(self):
        axes = first_axes("reflection", reflection_partition(8, 2))
        assert len(axes) == 1
        assert np.array_equal(axes[0, 0], axes[0, 3])
        assert np.array_equal(axes[0, 1], axes[0, 2])

    def test_time_reversal_structure(self):
        exp1, exp2 = first_axes("time_reversal", reflection_partition(8, 2))
        assert np.array_equal(exp1[:2], -exp2[:2])
        assert np.array_equal(exp1[2:], exp2[2:])

    def test_d2_middle_identities(self):
        exp1, exp2 = first_axes("d2", three_segment_partition(8, 1))
        assert np.array_equal(exp1[0], exp2[0] * [1.0, -1.0, -1.0])
        assert np.array_equal(exp1[1], [0.0, 0.0, 1.0])
        assert np.array_equal(exp2[1], [0.0, 0.0, 1.0])
        assert np.array_equal(exp1[2], exp2[2])

    def test_klein_bottle_structure(self):
        exp1, exp2 = first_axes("klein_bottle", three_segment_partition(8, 1))
        assert np.array_equal(exp1[0], -exp2[0])
        assert np.array_equal(exp1[1], [0.0, 0.0, 1.0])

    def test_incompatible_partition(self):
        with pytest.raises(ValueError, match="three-segment"):
            ProtocolParams("d2", 2, 2, reflection_partition(8, 2), 0)
        with pytest.raises(ValueError, match="reflection"):
            ProtocolParams("time_reversal", 2, 2, three_segment_partition(8, 1), 0)


class TestCampaign:
    def test_record_bookkeeping(self, state8):
        params = ProtocolParams("reflection", 3, 5, reflection_partition(8, 2), 1)
        records = run_campaign(state8, params)
        assert len(records) == 3
        assert np.all(records.outcomes.sum(axis=2) == 5)

    def test_two_experiments_per_draw(self, state8):
        params = ProtocolParams("time_reversal", 4, 5, reflection_partition(8, 2), 1)
        records = run_campaign(state8, params)
        assert len(records) == 8
        assert records.outcomes.shape[:2] == (4, 2)

    def test_bit_for_bit_determinism(self, state8):
        params = ProtocolParams("klein_bottle", 6, 16, three_segment_partition(8, 1), 9)
        first = run_campaign(state8, params)
        second = run_campaign(state8, params)
        assert np.array_equal(first.outcomes, second.outcomes)

    def test_golden_counts(self, state8):
        # pinned outcome counts for a fixed seed: any change to seeding,
        # pattern assembly, gate order or shot sampling moves them
        golden = {
            "reflection": [
                [4, 5, 2, 6, 2, 5, 3, 5, 3, 1, 7, 3, 4, 2, 5, 7],
                [6, 4, 3, 0, 7, 2, 9, 5, 2, 6, 5, 0, 1, 7, 5, 2],
                [3, 4, 5, 5, 5, 3, 5, 4, 8, 4, 2, 3, 8, 3, 2, 0],
                [1, 7, 6, 2, 7, 6, 6, 3, 3, 5, 5, 1, 2, 3, 3, 4],
            ],
            "time_reversal": [
                [2, 7, 1, 8, 3, 1, 4, 6, 3, 1, 6, 4, 4, 3, 5, 6],
                [7, 3, 9, 5, 3, 5, 1, 4, 3, 1, 2, 3, 4, 2, 8, 4],
                [8, 3, 3, 0, 8, 3, 9, 3, 2, 7, 4, 0, 0, 7, 2, 5],
                [6, 3, 0, 4, 2, 7, 6, 5, 6, 2, 5, 4, 3, 5, 4, 2],
                [5, 5, 5, 4, 4, 2, 3, 3, 9, 5, 3, 4, 6, 3, 0, 3],
                [7, 1, 3, 10, 2, 5, 2, 0, 4, 4, 5, 8, 4, 2, 5, 2],
                [2, 8, 6, 3, 5, 6, 4, 2, 4, 5, 4, 3, 1, 3, 4, 4],
                [8, 4, 5, 5, 2, 2, 4, 2, 6, 1, 6, 4, 4, 4, 2, 5],
            ],
        }
        for kind, expected in golden.items():
            params = ProtocolParams(kind, 4, 64, reflection_partition(8, 2), 77)
            outcomes = run_campaign(state8, params).outcomes
            assert np.array_equal(outcomes.reshape(-1, 16), np.array(expected))

    def test_golden_counts_at_large_master_seed(self, state8):
        # sweeps derive master seeds up to 2^63 - 1 and adiabatic monitors
        # uint64 ones: a seed of two 32-bit words lengthens the seed entropy
        golden = [
            [[6, 1, 3, 3, 0, 1, 3, 0, 1, 2, 3, 2, 1, 1, 3, 2],
             [0, 4, 2, 0, 1, 1, 3, 1, 1, 5, 2, 1, 3, 2, 0, 6]],
            [[2, 1, 3, 1, 2, 1, 2, 3, 0, 3, 5, 2, 2, 3, 1, 1],
             [1, 3, 0, 0, 1, 1, 2, 1, 2, 5, 1, 5, 4, 0, 5, 1]],
            [[3, 0, 1, 2, 1, 0, 2, 0, 3, 2, 3, 3, 4, 2, 2, 4],
             [4, 2, 1, 2, 1, 3, 1, 1, 2, 5, 3, 1, 3, 1, 1, 1]],
        ]
        params = ProtocolParams("time_reversal", 3, 32, reflection_partition(8, 2),
                                2 ** 63 + 12345)
        assert np.array_equal(run_campaign(state8, params).outcomes, np.array(golden))

    def test_records_are_one_outcome_array(self, state8):
        params = ProtocolParams("time_reversal", 5, 16, reflection_partition(8, 2), 3)
        records = run_campaign(state8, params)
        assert isinstance(records, CampaignRecords)
        assert records.outcomes.shape == (5, 2, 16)
        assert records.outcomes.dtype == np.int64
        for record in records:
            assert np.array_equal(record.counts,
                                  records.outcomes[record.unitary_index, record.experiment - 1])

    def test_params_validation(self):
        part = reflection_partition(8, 2)
        with pytest.raises(ValueError, match="n_unitaries"):
            ProtocolParams("reflection", 1, 16, part, 0)
        with pytest.raises(ValueError, match="n_shots"):
            ProtocolParams("reflection", 4, 1, part, 0)
        with pytest.raises(ValueError, match="three-segment"):
            ProtocolParams("d2", 4, 16, part, 0)
        with pytest.raises(ValueError, match=r"n_unitaries must be <= 2\*\*32 .*got 4294967297"):
            ProtocolParams("reflection", 2 ** 32 + 1, 16, part, 0)
        ProtocolParams("reflection", 2 ** 32, 16, part, 0)
        with pytest.raises(ValueError,
                           match=r"n_shots must be <= 2\*\*63 - 1 .*got 9223372036854775808"):
            ProtocolParams("reflection", 4, 2 ** 63, part, 0)
        ProtocolParams("reflection", 4, 2 ** 63 - 1, part, 0)
        for seed in (-1, True, 1.0, np.int64(3)):
            with pytest.raises(ValueError, match=re.escape(
                    f"master_seed must be a non-negative integer, got {seed!r}")):
                ProtocolParams("reflection", 4, 16, part, seed)


class TestEngine:
    @pytest.mark.parametrize("num_sites", [8, 12])
    def test_born_probabilities_match_statevector_loop(self, num_sites):
        state = random_state(num_sites, np.random.default_rng(num_sites))
        layouts = ENGINE_LAYOUTS + ([LONG_LAYOUT] if num_sites == 12 else [])
        for kind, pairs in layouts:
            partition = partition_for(kind, num_sites, pairs)
            params = ProtocolParams(kind, 5, 2, partition, 40 + pairs)
            records = run_campaign(state, params, exact_probabilities=True)
            for u_index in range(params.n_unitaries):
                for experiment, gates in enumerate(campaign_gates(params, u_index)):
                    reference = statevector_born(state, partition, gates)
                    assert np.max(np.abs(records.outcomes[u_index, experiment] - reference)) \
                        <= 1e-12, (kind, pairs, u_index, experiment)

    def test_campaign_axes_follow_seed_contract(self):
        for kind, pairs in ENGINE_LAYOUTS:
            partition = partition_for(kind, 8, pairs)
            params = ProtocolParams(kind, 4, 2, partition, 61)
            axes = _campaign_axes(params, range(4))
            assert axes.shape == (4, params.experiments, partition.interval_size, 3)
            for u_index in range(4):
                expected = bloch_axes(campaign_gates(params, u_index))
                assert np.max(np.abs(axes[u_index] - expected)) <= 1e-15, (kind, pairs, u_index)

    @pytest.mark.parametrize("master_seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 200])
    def test_bulk_words_match_seed_sequence(self, master_seed):
        keys = [(0, u, k) for u in (0, 1, 2 ** 31, 2 ** 32 - 1) for k in (0, 1, 2)]
        words = _spawn_words(np.random.SeedSequence(master_seed), np.array(keys, dtype=np.uint32))
        expected = [np.random.SeedSequence(master_seed, spawn_key=key).generate_state(4, np.uint64)
                    for key in keys]
        assert words.dtype == np.uint64
        assert np.array_equal(words, np.array(expected))

    @pytest.mark.parametrize("master_seed", [0, 2 ** 64 - 1, 2 ** 200])
    def test_stream_states_match_pcg64(self, master_seed):
        # all-ones key words carry through every 32-bit limb of the srandom step
        keys = [(0, 0, 0), (0, 2 ** 32 - 1, 2), (2 ** 32 - 1,) * 3, (1,)]
        for key in keys:
            state = np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=key)).state
            state, inc = state["state"]["state"], state["state"]["inc"]
            expected = [state & 2 ** 64 - 1, state >> 64, inc & 2 ** 64 - 1, inc >> 64]
            words = _stream_states(master_seed, *key)
            assert words.shape == (1, 4) and words.dtype == np.uint64
            assert words[0].tolist() == expected, key

    def test_odd_uint32_draw_leaves_next_stream_fresh(self):
        # a draw of an odd number of uint32s buffers the spare half of a
        # uint64; the next stream must not start from that buffer
        streams = _seeded(_stream_states(3, 0, np.arange(3), 1))
        for u_index, rng in enumerate(streams):
            fresh = contract_stream(3, 0, u_index, 1)
            assert np.array_equal(rng.integers(0, 5, size=3, dtype=np.uint32),
                                  fresh.integers(0, 5, size=3, dtype=np.uint32))
            assert rng.bit_generator.state == fresh.bit_generator.state

    def test_state_layout_check_raises_on_other_words(self):
        bit_generator = np.random.PCG64(np.random.SeedSequence(9, spawn_key=(0, 4, 0)))
        _check_state_layout(bit_generator, _stream_states(9, 0, 4, 0)[0])
        with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__}")):
            _check_state_layout(bit_generator, _stream_states(9, 0, 5, 0)[0])

    def test_reused_generator_multinomial_matches_fresh_stream(self):
        # the reused generator keeps its binomial constants between draws;
        # each (n, p) must still give the counts of a fresh stream
        rng = np.random.default_rng(8)
        draws = [(n, rng.dirichlet(np.ones(size))) for n in (2, 7, 64, 5000, 64, 2)
                 for size in (4, 16)]
        unitaries = range(2 ** 32 - len(draws), 2 ** 32)
        for master_seed in (3, 2 ** 63 + 12345, 2 ** 200):
            streams = _seeded(_stream_states(master_seed, 0, np.array(unitaries), 2))
            for (n, p), u_index, reused in zip(draws, unitaries, streams):
                fresh = contract_stream(master_seed, 0, u_index, 2)
                assert np.array_equal(reused.multinomial(n, p), fresh.multinomial(n, p))
                assert np.array_equal(reused.multinomial(n, p), fresh.multinomial(n, p))

    def test_chunking_leaves_counts_unchanged(self, state8, monkeypatch):
        # the shot streams of every chunk are sliced from one per-campaign
        # table, filled BUDGET // 3 unitaries at a time for these kinds, so
        # a chunk or block offset off by one would move the counts
        import topoprobe.protocols as protocols

        for kind in ("d2", "time_reversal", "klein_bottle"):
            params = ProtocolParams(kind, 9, 32, partition_for(kind, 8, 1), 62)
            whole = run_campaign(state8, params)
            for chunk in (1, 2, 7):
                monkeypatch.setattr(protocols, "CHUNK_UNITARIES", chunk)
                monkeypatch.setattr(protocols, "BUDGET", 3 * (chunk + 1))
                assert np.array_equal(run_campaign(state8, params).outcomes, whole.outcomes), \
                    (kind, chunk)
            monkeypatch.undo()

    def test_interval_above_limit_rejected(self):
        num_sites = 2 * (MAX_INTERVAL // 2 + 1)
        state = random_state(num_sites, np.random.default_rng(3))
        params = ProtocolParams("reflection", 2, 2,
                                reflection_partition(num_sites, num_sites // 2), 0)
        with pytest.raises(ValueError, match="exceeds limit"):
            run_campaign(state, params)

    def test_chain_size_mismatch_rejected(self, state8):
        # sites 3-6 of a 10-site partition fit in 8 sites: without the check
        # the campaign would silently measure the wrong interval
        params = ProtocolParams("reflection", 2, 2, reflection_partition(10, 2), 0)
        with pytest.raises(ValueError, match="chain size does not match"):
            run_campaign(state8, params)

    @pytest.mark.parametrize("factor", [1 - 5e-9, 1 + 5e-9])
    def test_near_normalized_states_accepted(self, state8, factor):
        for state in (basis_state(8, 0), state8):
            near = SpinState(8, state.amplitudes * factor)
            for kind, pairs in ENGINE_LAYOUTS:
                params = ProtocolParams(kind, 3, 16, partition_for(kind, 8, pairs), 7)
                records = run_campaign(near, params)
                assert np.all(records.outcomes.sum(axis=2) == 16)


class TestRecordTable:
    def test_uncovered_index_rejected(self):
        params = ProtocolParams("reflection", 2, 2, reflection_partition(4, 1), 0)
        with pytest.raises(ValueError, match=r"shape \(1, 1, 4\), the campaign needs \(2, 1, 4\)"):
            estimate_raw(exact_table(np.full(4, 0.25)), params)

    def test_foreign_experiment_rejected(self):
        params = ProtocolParams("reflection", 2, 2, reflection_partition(4, 1), 0)
        records = CampaignRecords(np.full((2, 2, 4), 0.25), exact=True)
        with pytest.raises(ValueError, match=r"shape \(2, 2, 4\), the campaign needs \(2, 1, 4\)"):
            estimate_raw(records, params)

    def test_table_shape_checked(self, state8):
        params = ProtocolParams("reflection", 4, 8, reflection_partition(8, 2), 64)
        records = run_campaign(state8, params)
        with pytest.raises(ValueError, match="shape"):
            estimate_raw(records, ProtocolParams("reflection", 4, 8,
                                                 reflection_partition(8, 1), 64))


class TestReflectionEstimator:
    def test_weights_real_and_even_distance(self):
        for pairs in (1, 2, 3, 4):
            weights = reflection_weights(reflection_partition(8 if pairs <= 4 else 16, pairs))
            assert weights.dtype == np.float64
            assert np.all(np.abs(weights) >= 0.5 ** pairs - 1e-15)

    def test_hand_computed_identity_pattern(self):
        # identity unitaries on the all-up state: the single-draw formula
        # gives 2 * [P(00) + P(11) - (P(01) + P(10)) / 2] = 2
        part = reflection_partition(4, 1)
        params = ProtocolParams("reflection", 2, 2, part, 0)
        probs = np.array([1.0, 0.0, 0.0, 0.0])
        result = estimate_raw(exact_table(probs, probs), params)
        assert result.value == pytest.approx(2.0, abs=1e-14)

    def test_hand_formula_general_distribution(self, rng):
        part = reflection_partition(4, 1)
        params = ProtocolParams("reflection", 2, 2, part, 0)
        probs = rng.dirichlet(np.ones(4))
        expected = 2.0 * (probs[0] + probs[3] - (probs[1] + probs[2]) / 2.0)
        assert estimate_raw(exact_table(probs, probs), params).value \
            == pytest.approx(expected, abs=1e-14)

    def test_infinite_shot_unbiased(self, state8):
        part = reflection_partition(8, 2)
        params = ProtocolParams("reflection", 4000, 2, part, 7)
        records = run_campaign(state8, params, exact_probabilities=True)
        result = estimate_raw(records, params)
        exact = exact_invariant(state8, part, "reflection").raw
        assert abs(result.value - exact) <= 3 * result.std_error

    def test_linearity_in_probabilities(self, rng):
        part = reflection_partition(4, 1)
        params = ProtocolParams("reflection", 2, 2, part, 0)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        alpha = 0.37
        mix = alpha * p + (1 - alpha) * q

        def value(dist):
            return estimate_raw(exact_table(dist, dist), params).value

        assert value(mix) == pytest.approx(alpha * value(p) + (1 - alpha) * value(q),
                                           abs=1e-14)

    def test_wrong_campaign_kind(self, state8):
        part = reflection_partition(8, 2)
        params = ProtocolParams("purity", 4, 8, part, 3)
        records = run_campaign(state8, params)
        with pytest.raises(ValueError, match="campaign"):
            estimate_raw(records, params)


class TestPurityEstimator:
    def test_pure_state_close_to_one(self):
        state = basis_state(8, 0)
        part = reflection_partition(8, 2)
        params = ProtocolParams("purity", 200, 64, part, 11)
        records = run_campaign(state, params)
        result = estimate_purity(records, params, segment=0)
        assert abs(result.value - 1.0) <= max(3 * result.std_error, 1e-9)

    def test_maximally_mixed_half(self):
        amps = np.zeros(16, dtype=complex)
        for k in range(16):
            bits = [(k >> i) & 1 for i in range(4)]
            if bits[0] == bits[2] and bits[1] == bits[3]:
                amps[k] = 0.5
        state = SpinState(4, amps)
        part = PartitionSpec(4, 1, ((0, 1), (1, 2)))
        params = ProtocolParams("purity", 400, 64, part, 12)
        records = run_campaign(state, params)
        result = estimate_purity(records, params, segment=0)
        assert abs(result.value - 0.5) <= 3 * result.std_error

    def test_random_state_spectral_oracle(self, rng):
        state = random_state(6, rng)
        part = reflection_partition(6, 1)
        rho = reduced_density_matrix(state, part.segment_sites(0))
        exact = float(np.sum(np.linalg.eigvalsh(rho) ** 2))
        params = ProtocolParams("purity", 1000, 1000, part, 13)
        records = run_campaign(state, params)
        result = estimate_purity(records, params, segment=0)
        assert abs(result.value - exact) <= 3 * result.std_error

    def test_infinite_shot_matches_segment_purity(self, state8):
        part = reflection_partition(8, 2)
        params = ProtocolParams("purity", 3000, 2, part, 14)
        records = run_campaign(state8, params, exact_probabilities=True)
        for segment in (0, 1):
            exact = purity(reduced_density_matrix(state8, part.segment_sites(segment)))
            result = estimate_purity(records, params, segment=segment)
            assert abs(result.value - exact) <= 3 * result.std_error

    @pytest.mark.parametrize("kind", ["d2", "klein_bottle"])
    def test_middle_segment_without_unitaries_rejected(self, state8, kind):
        # the middle segment gets identity gates: its "purity" was 0.50671 +- 7e-17
        # (2000 unitaries) against the exact 0.51209
        part = three_segment_partition(8, 1)
        params = ProtocolParams(kind, 64, 2, part, 3)
        records = run_campaign(state8, params, exact_probabilities=True)
        with pytest.raises(ValueError, match="no random unitaries"):
            estimate_purity(records, params, segment=1)
        for segment in (0, 2, -1):
            exact = purity(reduced_density_matrix(state8, part.segment_sites(segment)))
            result = estimate_purity(records, params, segment=segment)
            assert abs(result.value - exact) <= 4 * result.std_error


class TestCrossEstimators:
    def test_time_reversal_infinite_shot(self, state8):
        part = reflection_partition(8, 2)
        params = ProtocolParams("time_reversal", 4000, 2, part, 15)
        records = run_campaign(state8, params, exact_probabilities=True)
        result = estimate_raw(records, params)
        exact = exact_invariant(state8, part, "time_reversal").raw
        assert abs(result.value - exact) <= 3 * result.std_error

    def test_time_reversal_maximally_mixed(self):
        amps = np.zeros(16, dtype=complex)
        for k in range(16):
            bits = [(k >> i) & 1 for i in range(4)]
            if bits[0] == bits[2] and bits[1] == bits[3]:
                amps[k] = 0.5
        state = SpinState(4, amps)
        part = PartitionSpec(4, 1, ((0, 1), (1, 2)))
        params = ProtocolParams("time_reversal", 600, 128, part, 16)
        records = run_campaign(state, params)
        result = estimate_raw(records, params)
        assert abs(result.value - 0.25) <= 3 * result.std_error

    def test_d2_infinite_shot(self, state8):
        part = three_segment_partition(8, 1)
        params = ProtocolParams("d2", 4000, 2, part, 17)
        records = run_campaign(state8, params, exact_probabilities=True)
        result = estimate_raw(records, params)
        exact = exact_invariant(state8, part, "d2").raw
        assert abs(result.value - exact) <= max(3 * result.std_error, 1e-9)

    def test_klein_bottle_infinite_shot(self, state8):
        part = three_segment_partition(8, 1)
        params = ProtocolParams("klein_bottle", 4000, 2, part, 18)
        records = run_campaign(state8, params, exact_probabilities=True)
        result = estimate_raw(records, params)
        exact = exact_invariant(state8, part, "klein_bottle").raw
        assert abs(result.value - exact) <= max(3 * result.std_error, 1e-9)

    def test_d2_all_up_near_zero(self):
        part = three_segment_partition(8, 1)
        params = ProtocolParams("d2", 300, 64, part, 19)
        records = run_campaign(basis_state(8, 0), params)
        result = estimate_raw(records, params)
        assert abs(result.value) <= max(3 * result.std_error, 1e-9)

    def test_missing_experiment_pair(self, state8):
        part = reflection_partition(8, 2)
        params = ProtocolParams("time_reversal", 8, 16, part, 20)
        records = CampaignRecords(run_campaign(state8, params).outcomes[:, :1])
        with pytest.raises(ValueError, match=r"shape \(8, 1, 16\), the campaign needs \(8, 2, 16\)"):
            estimate_raw(records, params)


class TestNormalizedEstimator:
    def test_matches_exact_on_ground_truth(self, state8):
        part = reflection_partition(8, 2)
        params = ProtocolParams("reflection", 512, 256, part, 21)
        records = run_campaign(state8, params)
        result = estimate_normalized(records, params)
        exact = exact_invariant(state8, part, "reflection").normalized
        assert abs(result.value - exact) <= 3 * result.std_error

    @pytest.mark.parametrize("state_seed, master_seed", [(0, 1), (2024, 5)])
    def test_nonpositive_mean_purity_rejected(self, state_seed, master_seed):
        # 2 unitaries x 2 shots: the unbiased purity estimates can go negative;
        # state seed 0 gives -0.5 on both segments, state seed 2024 -2 and 1
        state = random_state(8, np.random.default_rng(state_seed))
        params = ProtocolParams("reflection", 2, 2, reflection_partition(8, 2), master_seed)
        records = run_campaign(state, params)
        with pytest.raises(ValueError, match=r"purity -0.5 is not positive \(2 unitaries "
                                             r"x 2 shots\)"):
            estimate_normalized(records, params)
        estimate_raw(records, params)  # the raw estimate is still defined

    def test_nonpositive_resample_purity_rejected(self, state8):
        # 4 unitaries x 2 shots: the campaign's mean purity is positive, but
        # 23 of the bootstrap resamples average a purity <= 0, which no
        # error bar can be divided by
        params = ProtocolParams("reflection", 4, 2, reflection_partition(8, 2), 2)
        records = run_campaign(state8, params)
        with pytest.raises(ValueError, match=r"23 of 200 bootstrap resamples have mean sampled "
                                             r"segment purity <= 0 \(4 unitaries x 2 shots\)"):
            estimate_normalized(records, params)

    def test_rejects_unnormalizable_kind(self, state8):
        part = three_segment_partition(8, 1)
        params = ProtocolParams("d2", 8, 16, part, 22)
        records = run_campaign(state8, params)
        with pytest.raises(ValueError, match="normalized"):
            estimate_normalized(records, params)


class TestGoldenEstimates:
    # every estimator on the fixed N = 8 state, 24 unitaries x 7 shots,
    # master seed 31: (value, std_error) pinned bit for bit on shot counts
    # (7 shots, so the cross-correlation frequencies are not dyadic) and to
    # 1e-12 on Born probabilities; any change to the estimator arithmetic,
    # the bootstrap stream or the campaign moves them
    GOLDEN = {
        "reflection": {
            "sampled": {
                "raw": (-0.053571428571428575, 0.1763005382384389),
                "normalized": (-0.09970501410659877, 0.36405539491149563),
                "purity_first": (0.24999999999999997, 0.13228092315366372),
                "purity_last": (0.32738095238095233, 0.11219752973597445),
            },
            "exact": {
                "raw": (0.27756585517780974, 0.028415829283892146),
                "normalized": (0.5467087372631422, 0.05648572010929484),
                "purity_first": (0.25503128250846335, 0.0007308313087783925),
                "purity_last": (0.26049409250341027, 0.0017996578553647932),
            },
        },
        "purity": {
            "sampled": {
                "purity_first": (0.2619047619047619, 0.12598390760691236),
                "purity_last": (0.21428571428571427, 0.08176387189267693),
            },
            "exact": {
                "purity_first": (0.2560895269942146, 0.0005677221976427578),
                "purity_last": (0.26006622543184194, 0.001732496474138091),
            },
        },
        "time_reversal": {
            "sampled": {
                "raw": (0.20663265306122444, 0.14082227647515555),
                "normalized": (1.31180340667481, 1.1617265033778745),
                "purity_first": (0.2916666666666667, 0.10066537425399134),
                "purity_last": (0.2916666666666667, 0.115729640246219),
            },
            "exact": {
                "raw": (0.07436701539236001, 0.004844456511434545),
                "normalized": (0.5675336928398758, 0.03876484288354084),
                "purity_first": (0.25590141374450776, 0.0009418492012769495),
                "purity_last": (0.2600662254318419, 0.00173249647413809),
            },
        },
        "d2": {
            "sampled": {
                "raw": (-0.004251700680272104, 0.07075197398145952),
                "purity_first": (0.4761904761904761, 0.05477196465569678),
                "purity_last": (0.5357142857142857, 0.08539438899796403),
            },
            "exact": {
                "raw": (-0.004661640887760117, 0.001789082870579843),
                "purity_first": (0.5009503443020478, 0.00021039215415184068),
                "purity_last": (0.5012233396762574, 0.0002321834572366291),
            },
        },
        "klein_bottle": {
            "sampled": {
                "raw": (0.08078231292517006, 0.055164278483801364),
                "purity_first": (0.5595238095238094, 0.08024407830596973),
                "purity_last": (0.5119047619047619, 0.0642339959509578),
            },
            "exact": {
                "raw": (-0.008944773339190304, 0.001353213810569118),
                "purity_first": (0.5008703501832579, 0.00016446645814832076),
                "purity_last": (0.5012233396762574, 0.00023218345723662886),
            },
        },
    }

    @pytest.mark.parametrize("mode", ["sampled", "exact"])
    @pytest.mark.parametrize("kind", list(GOLDEN))
    def test_golden_estimates(self, state8, kind, mode):
        part = partition_for(kind, 8, 1 if kind in ("d2", "klein_bottle") else 2)
        params = ProtocolParams(kind, 24, 7, part, 31)
        records = run_campaign(state8, params, exact_probabilities=mode == "exact")
        estimates = {"purity_first": estimate_purity(records, params, segment=0),
                     "purity_last": estimate_purity(records, params, segment=-1)}
        if kind != "purity":
            estimates["raw"] = estimate_raw(records, params)
        if kind in ("reflection", "time_reversal"):
            estimates["normalized"] = estimate_normalized(records, params)
        golden = self.GOLDEN[kind][mode]
        assert set(estimates) == set(golden)
        for name, (value, std_error) in golden.items():
            result = estimates[name]
            if mode == "sampled":
                assert (result.value, result.std_error) == (value, std_error), name
            else:
                assert result.value == pytest.approx(value, abs=1e-12), name
                assert result.std_error == pytest.approx(std_error, abs=1e-12), name


class TestStreamedBootstrap:
    # the bootstrap draws and reduces its resamples BUDGET // n at a time;
    # every estimate must equal the one-draw reference bit for bit: one
    # chunk, both sides of the one-chunk edge, and many chunks
    EDGE = BUDGET // BOOTSTRAP_RESAMPLES  # the largest n reduced in one chunk
    SIZES = (2, EDGE, EDGE + 1, 4097, 20000)

    @staticmethod
    def campaign(n_unitaries, exact):
        state = random_state(8, np.random.default_rng(2024))
        params = ProtocolParams("time_reversal", n_unitaries, 64,
                                partition_for("time_reversal", 8, 2), 41)
        return run_campaign(state, params, exact_probabilities=exact), params

    @staticmethod
    def reference(records, params):
        """(value, std_error) of every estimate, with the one-draw bootstrap."""
        outcomes, exact = _outcome_matrices(records, params)
        raw = _per_unitary_raw(outcomes, exact, params)
        first, last = (_per_unitary_purity(outcomes, exact, params, segment)
                       for segment in (0, 1))
        seed = params.master_seed

        def denominator(picks):
            return ((first[picks].mean(axis=1) + last[picks].mean(axis=1)) / 2.0) ** 1.5

        return {"raw": (float(raw.mean()), bootstrap_std(raw, seed)),
                "purity_first": (float(first.mean()), bootstrap_std(first, seed)),
                "purity_last": (float(last.mean()), bootstrap_std(last, seed)),
                "normalized": (float(raw.mean() / ((first.mean() + last.mean()) / 2.0) ** 1.5),
                               bootstrap_std(raw, seed, denominator))}

    def test_sizes_straddle_the_chunk_edge(self):
        assert BUDGET // self.EDGE >= BOOTSTRAP_RESAMPLES > BUDGET // (self.EDGE + 1)
        assert BUDGET // 20000 < BUDGET // 4097 < BOOTSTRAP_RESAMPLES / 2

    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    @pytest.mark.parametrize("n_unitaries", SIZES)
    def test_matches_one_draw_reference(self, n_unitaries, exact):
        records, params = self.campaign(n_unitaries, exact)
        estimates = {"raw": estimate_raw(records, params),
                     "purity_first": estimate_purity(records, params, segment=0),
                     "purity_last": estimate_purity(records, params, segment=1),
                     "normalized": estimate_normalized(records, params)}
        for name, expected in self.reference(records, params).items():
            assert (estimates[name].value, estimates[name].std_error) == expected, name

    def test_traced_peak_is_bounded(self):
        # 20 000 unitaries of exact probabilities at N = 8: the estimate
        # holds the float outcome copy and one kernel form's temporaries
        # (together twice the outcome table), O(n) per-unitary arrays, and
        # one chunk of BUDGET indices and gathered values; one (200, n) draw
        # alone would hold 200 n int64 indices (32 MB)
        records, params = self.campaign(20000, True)
        tracemalloc.start()
        try:
            estimate_normalized(records, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * records.outcomes.nbytes + 3 * 8 * BUDGET


class TestTwirl:
    def test_closed_form_identities(self):
        np.testing.assert_allclose(twirl_phi_exact(HAMMING_DIAGONAL), SWAP_2, atol=1e-14)
        np.testing.assert_allclose(twirl_psi_exact(HAMMING_DIAGONAL),
                                   TRANSPOSE_SWAP_2, atol=1e-14)

    def test_unital(self):
        np.testing.assert_allclose(twirl_phi_exact(np.eye(4, dtype=complex)),
                                   np.eye(4), atol=1e-14)

    def test_monte_carlo_converges(self):
        report = twirl_check("phi", 10000, np.random.default_rng(1))
        assert report.frobenius_error <= 0.15
        report = twirl_check("psi", 10000, np.random.default_rng(2))
        assert report.frobenius_error <= 0.15

    @pytest.mark.parametrize("channel", ["phi", "psi"])
    def test_matches_pair_tensor_average(self, channel):
        # summation order differs, and its rounding relative to the error
        # (about 1/sqrt(n)) grows like n eps: 1000 samples keep it below 1e-13
        targets = {"phi": SWAP_2, "psi": TRANSPOSE_SWAP_2}
        for seed in range(5):
            report = twirl_check(channel, 1000, np.random.default_rng(seed))
            averaged = twirl_pair_average(channel, sample_cue(np.random.default_rng(seed), 1000),
                                          HAMMING_DIAGONAL)
            expected = np.linalg.norm(averaged - targets[channel])
            assert report.frobenius_error == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("channel", ["phi", "psi"])
    def test_traced_peak_per_sample(self, channel):
        # the (n, 2, 2) real parts (32 B per sample), and per chunk of
        # BUDGET // 4 samples at most six complex (chunk, 2, 2) arrays: the
        # Ginibre matrices and the axis map's temporaries; no (n, 3), (n, 4)
        # or (n, 4, 4) arrays
        rng = np.random.default_rng(6)
        tracemalloc.start()
        try:
            twirl_check(channel, 100000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 100000 + 6 * 64 * (BUDGET // 4)

    def test_sample_floor(self):
        with pytest.raises(ValueError, match="100"):
            twirl_check("phi", 10, np.random.default_rng(0))

    def test_unknown_channel(self):
        with pytest.raises(ValueError, match="channel"):
            twirl_check("theta", 1000, np.random.default_rng(0))


class TestPersistence:
    def test_round_trip_preserves_estimates(self, state8, tmp_path):
        part = reflection_partition(8, 2)
        params = ProtocolParams("time_reversal", 24, 32, part, 23)
        records = run_campaign(state8, params)
        path = tmp_path / "campaign.records"
        write_records(path, records, params)
        loaded, loaded_params = read_records(path)
        assert loaded_params == params
        original = estimate_raw(records, params)
        reloaded = estimate_raw(loaded, loaded_params)
        assert original.value == reloaded.value
        assert original.std_error == reloaded.std_error

    def test_exact_records_not_persisted(self, state8, tmp_path):
        part = reflection_partition(8, 2)
        params = ProtocolParams("reflection", 2, 2, part, 24)
        records = run_campaign(state8, params, exact_probabilities=True)
        path = tmp_path / "x.records"
        with pytest.raises(ValueError, match="exact"):
            write_records(path, records, params)
        assert not path.exists()


def write_lines(path, params_source, lines):
    """A record file with the header of ``params_source`` and the given
    data lines."""
    header = Path(params_source).read_text().splitlines()[0]
    Path(path).write_text("\n".join([header] + lines) + "\n")


class TestRecordFileErrors:
    @pytest.fixture()
    def exported(self, state8, tmp_path):
        params = ProtocolParams("time_reversal", 3, 4, reflection_partition(8, 1), 25)
        path = tmp_path / "good.records"
        write_records(path, run_campaign(state8, params), params)
        return path, path.read_text().splitlines()[1:]

    def test_outcome_out_of_range(self, exported, tmp_path):
        source, lines = exported
        bad = tmp_path / "bad.records"
        u_index, experiment, _outcome, count = lines[2].split(",")
        lines[2] = f"{u_index},{experiment},4,{count}"
        write_lines(bad, source, lines)
        with pytest.raises(ValueError, match="line 4: outcome 4 outside 0..3"):
            read_records(bad)

    def test_duplicate_line(self, exported, tmp_path):
        source, lines = exported
        bad = tmp_path / "bad.records"
        write_lines(bad, source, lines + [lines[0]])
        with pytest.raises(ValueError, match=f"line {len(lines) + 2}: duplicates line 2"):
            read_records(bad)

    def test_missing_pair(self, exported, tmp_path):
        source, lines = exported
        bad = tmp_path / "bad.records"
        write_lines(bad, source, [line for line in lines if not line.startswith("1,2,")])
        with pytest.raises(ValueError, match="no lines for unitary 1, experiment 2"):
            read_records(bad)

    def test_missing_pair_found_without_sizing_by_header(self, exported, tmp_path):
        # a header claiming 2**24 unitaries and one line: the missing pair is
        # found from the lines, with no array over every claimed pair
        source, lines = exported
        header = json.loads(Path(source).read_text().splitlines()[0][1:])
        header["n_unitaries"] = 2 ** 24
        bad = tmp_path / "bad.records"
        bad.write_text("#" + json.dumps(header) + "\n" + lines[0] + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="no lines for unitary 0, experiment 2"):
                read_records(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_counts_not_summing_to_shots(self, exported, tmp_path):
        source, lines = exported
        bad = tmp_path / "bad.records"
        u_index, experiment, outcome, count = lines[0].split(",")
        lines[0] = f"{u_index},{experiment},{outcome},{int(count) - 1}"
        write_lines(bad, source, lines)
        with pytest.raises(ValueError, match=r"lines 2-\d+: counts of unitary 0, "
                                             r"experiment 1 sum to 3, expected n_shots = 4"):
            read_records(bad)

    def test_malformed_line(self, exported, tmp_path):
        source, lines = exported
        bad = tmp_path / "bad.records"
        write_lines(bad, source, lines[:1] + ["0,1,2"] + lines[1:])
        with pytest.raises(ValueError, match="line 3: expected"):
            read_records(bad)

    @pytest.mark.parametrize("field, value", [
        ("n_unitaries", 2.5), ("master_seed", 1.5), ("master_seed", "1"), ("n_shots", True),
        ("segment bound", 1.0)])
    def test_non_integer_header_field(self, exported, tmp_path, capsys, field, value):
        from topoprobe.cli import main

        source, lines = exported
        header = json.loads(Path(source).read_text().splitlines()[0][1:])
        if field == "segment bound":
            header["segments"][0][1] = value
        else:
            header[field] = value
        bad = tmp_path / "bad.records"
        bad.write_text("\n".join(["#" + json.dumps(header)] + lines) + "\n")
        message = f"line 1: bad record header (TypeError: {field} must be an integer, got {value!r})"
        with pytest.raises(ValueError) as raised:
            read_records(bad)
        assert str(raised.value) == message
        assert main(["campaign-analyze", "--records", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_header_not_json(self, exported, tmp_path, capsys):
        from topoprobe.cli import main

        _source, lines = exported
        bad = tmp_path / "bad.records"
        bad.write_text("\n".join(['#{"kind": "reflection"', "}"] + lines) + "\n")
        with pytest.raises(ValueError, match=r"^line 1: bad record header \(JSONDecodeError: "):
            read_records(bad)
        assert main(["campaign-analyze", "--records", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: line 1: bad record header (JSONDecodeError: ")

    @pytest.mark.parametrize("field, value, detail", [
        ("segments", [[2, 4, 9], [4, 6]], "too many values to unpack"),
        ("kind", "bogus", "unknown protocol kind 'bogus'"),
        ("master_seed", -1, "master_seed must be a non-negative integer, got -1")])
    def test_malformed_header_value(self, exported, tmp_path, capsys, field, value, detail):
        from topoprobe.cli import main

        source, lines = exported
        header = json.loads(Path(source).read_text().splitlines()[0][1:])
        header[field] = value
        bad = tmp_path / "bad.records"
        bad.write_text("\n".join(["#" + json.dumps(header)] + lines) + "\n")
        message = f"line 1: bad record header (ValueError: {detail}"
        with pytest.raises(ValueError) as raised:
            read_records(bad)
        assert str(raised.value).startswith(message)
        assert main(["campaign-analyze", "--records", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_cli_exit_code(self, exported, tmp_path, capsys):
        from topoprobe.cli import main

        source, lines = exported
        bad = tmp_path / "bad.records"
        write_lines(bad, source, lines + [lines[0]])
        assert main(["campaign-analyze", "--records", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert "duplicates line 2" in capsys.readouterr().err


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["reflection", "time_reversal", "d2", "klein_bottle"]),
       pairs=st.integers(1, 2), n_unitaries=st.integers(2, 6), n_shots=st.integers(2, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_record_file_round_trip(kind, pairs, n_unitaries, n_shots, seed):
    params = ProtocolParams(kind, n_unitaries, n_shots, partition_for(kind, 8, pairs), seed)
    rng = np.random.default_rng(seed)
    outcomes = np.stack([
        rng.multinomial(n_shots, rng.dirichlet(np.full(2 ** params.partition.interval_size,
                                                       0.3)), size=params.experiments)
        for _ in range(n_unitaries)])
    records = CampaignRecords(outcomes)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "campaign.records"
        write_records(path, records, params)
        loaded, loaded_params = read_records(path)
    assert loaded_params == params
    assert loaded.outcomes.dtype == outcomes.dtype
    assert np.array_equal(loaded.outcomes, outcomes)


class TestEstimatorResultContract:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            EstimatorResult(np.nan, 0.1, "reflection", 2, 2, 0)

    def test_rejects_negative_error(self):
        with pytest.raises(ValueError, match="std_error"):
            EstimatorResult(0.0, -0.1, "reflection", 2, 2, 0)
