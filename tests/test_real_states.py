"""Real states stay real: ground states come out as float64, and every
consumer gives the same answer on a real state as on its complex copy."""
import numpy as np
import pytest

from topoprobe.dynamics import evolve
from topoprobe.groundstate import ground_state
from topoprobe.hamiltonians import HamiltonianSpec
from topoprobe.partitions import partition_for
from topoprobe.protocols import ProtocolParams, run_campaign
from topoprobe.rdm import _column_side, exact_invariant
from topoprobe.spincore import SpinState


def _real_and_complex(**kwargs):
    state = ground_state(HamiltonianSpec(**kwargs), seed=0).state
    return state, SpinState(state.num_sites, state.amplitudes.astype(complex))


class TestDtype:
    @pytest.mark.parametrize("b_field, sector", [(0.0, 0), (0.1, None)])
    def test_ground_state_is_real_and_read_only(self, b_field, sector):
        result = ground_state(HamiltonianSpec(num_sites=8, j=1.0, j_prime=2.0, delta=0.25,
                                              b_field=b_field), seed=0)
        assert result.sector == sector
        assert result.state.amplitudes.dtype == np.float64
        assert not result.state.amplitudes.flags.writeable

    @pytest.mark.parametrize("amplitudes, dtype", [
        (np.array([0.6, 0.0, 0.0, 0.8]), np.float64),
        (np.array([0.6, 0.0, 0.0, 0.8j]), np.complex128),
        (np.array([0, 1, 0, 0]), np.float64),
        ([0, 0, 1, 0], np.float64),
    ])
    def test_spin_state_keeps_real_input_real(self, amplitudes, dtype):
        state = SpinState(2, amplitudes)
        assert state.amplitudes.dtype == dtype
        assert not state.amplitudes.flags.writeable


class TestSameAnswers:
    @pytest.mark.parametrize("num_sites", [8, 12])
    @pytest.mark.parametrize("kind", ["reflection", "time_reversal", "d2", "klein_bottle"])
    def test_exact_invariant(self, num_sites, kind):
        real, complex_copy = _real_and_complex(num_sites=num_sites, j=1.0, j_prime=0.7,
                                               delta=0.25)
        most = num_sites // (2 if kind in ("reflection", "time_reversal") else 3)
        for pairs in range(1, most + 1):
            partition = partition_for(kind, num_sites, pairs)
            a = exact_invariant(real, partition, kind)
            b = exact_invariant(complex_copy, partition, kind)
            for field in ("raw", "normalized", "purity_first", "purity_second", "bound"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-13)

    def test_time_reversal_covers_both_sides(self):
        assert not _column_side("time_reversal", 12, 4)
        assert _column_side("time_reversal", 12, 5)

    @pytest.mark.parametrize("kind, pairs", [("reflection", 2), ("time_reversal", 2),
                                             ("d2", 1), ("klein_bottle", 1)])
    def test_infinite_shot_campaign(self, kind, pairs):
        real, complex_copy = _real_and_complex(num_sites=8, j=1.0, j_prime=2.0, delta=0.25)
        params = ProtocolParams(kind, n_unitaries=16, n_shots=2,
                                partition=partition_for(kind, 8, pairs), master_seed=7)
        a = run_campaign(real, params, exact_probabilities=True).outcomes
        b = run_campaign(complex_copy, params, exact_probabilities=True).outcomes
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_evolve(self):
        kwargs = dict(num_sites=8, j=1.0, j_prime=2.0, delta=0.25)
        real, complex_copy = _real_and_complex(**kwargs)
        spec = HamiltonianSpec(**dict(kwargs, j_prime=1.0))
        a = evolve(spec, real, 0.5, dt=0.05).amplitudes
        b = evolve(spec, complex_copy, 0.5, dt=0.05).amplitudes
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
