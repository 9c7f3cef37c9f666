"""Lanczos solver against dense diagonalization."""
from dataclasses import replace

import numpy as np
import pytest

from topoprobe import groundstate
from topoprobe.analysis import SweepSpec, run_sweep
from topoprobe.groundstate import DEFAULT_TOL, ConvergenceError, ground_state
from topoprobe.hamiltonians import HamiltonianSpec, dense_matrix, matvec
from topoprobe.spincore import neel_state, random_state

from oracles import site_z


class TestAgainstDense:
    def test_decoupled_dimers(self):
        spec = HamiltonianSpec(num_sites=4, j=1.0, j_prime=0.0, delta=1.0, pinning=0.0)
        result = ground_state(spec)
        assert result.energy == pytest.approx(-3.0, abs=1e-8)

    def test_full_spec_n8(self, ground_state_cache):
        kwargs = dict(num_sites=8, j=1.0, j_prime=2.4, delta=0.6, b_field=0.15,
                      neel_delta=0.3, neel_weight=1.0, pinning=0.05)
        result = ground_state_cache(**kwargs)
        dense_energy = np.linalg.eigvalsh(dense_matrix(HamiltonianSpec(**kwargs)))[0]
        assert result.energy == pytest.approx(dense_energy, abs=1e-8)

    def test_residual_reported_accurately(self, ground_state_cache):
        result = ground_state_cache(num_sites=8, j=1.0, j_prime=2.4, delta=0.6,
                                    b_field=0.15, neel_delta=0.3, neel_weight=1.0,
                                    pinning=0.05)
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=2.4, delta=0.6,
                               b_field=0.15, neel_delta=0.3, neel_weight=1.0,
                               pinning=0.05)
        h_psi = matvec(spec, result.state)
        true_residual = np.linalg.norm(h_psi - result.energy * result.state.amplitudes)
        assert true_residual <= 1e-10
        assert result.residual_norm == pytest.approx(true_residual, rel=1e-6, abs=1e-14)


class TestPhysics:
    def test_strong_staggered_field_gives_neel(self, ground_state_cache):
        result = ground_state_cache(num_sites=8, j=1.0, j_prime=1.0, delta=0.25,
                                    neel_delta=40.0, neel_weight=1.0, pinning=0.0)
        overlap = abs(np.vdot(result.state.amplitudes, neel_state(8).amplitudes))
        assert overlap >= 0.99

    def test_variational_bound(self, ground_state_cache, rng):
        spec = HamiltonianSpec(num_sites=6, j=1.0, j_prime=0.5, delta=1.2)
        result = ground_state(spec)
        for _ in range(20):
            phi = random_state(6, rng)
            rayleigh = np.real(np.vdot(phi.amplitudes, matvec(spec, phi)))
            assert result.energy <= rayleigh + 1e-12

    def test_pinning_selects_edge_orientation(self, ground_state_cache):
        result = ground_state_cache(num_sites=12, j=1.0, j_prime=4.0, delta=0.25,
                                    pinning=0.05)
        assert abs(site_z(result.state, 0)) > 0.5


class TestSolverContract:
    def test_deterministic_given_seed(self):
        spec = HamiltonianSpec(num_sites=6, j=1.0, j_prime=3.0, delta=0.25)
        a = ground_state(spec, seed=7)
        b = ground_state(spec, seed=7)
        assert a.energy == b.energy
        assert np.array_equal(a.state.amplitudes, b.state.amplitudes)

    def test_nonconvergence_reports_residual(self):
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=1.7, delta=0.7)
        with pytest.raises(ConvergenceError) as info:
            ground_state(spec, tol=1e-12, max_iter=3)
        assert info.value.residual_norm > 0

    def test_size_guard(self):
        with pytest.raises(ValueError, match="N <= 16"):
            ground_state(HamiltonianSpec(num_sites=18))

    def test_bad_tolerance(self):
        with pytest.raises(ValueError, match="tol"):
            ground_state(HamiltonianSpec(num_sites=4), tol=0.0)

    def test_state_normalized(self, ground_state_cache):
        result = ground_state_cache(num_sites=12, j=1.0, j_prime=4.0, delta=0.25,
                                    pinning=0.05)
        assert abs(np.linalg.norm(result.state.amplitudes) - 1.0) < 1e-10


@pytest.fixture()
def empty_memo():
    """Start and leave the process-wide ground-state memo empty."""
    groundstate._solve.cache_clear()
    yield groundstate._solve
    groundstate._solve.cache_clear()


class TestMemo:
    SPEC = HamiltonianSpec(num_sites=6, j=1.0, j_prime=2.0, delta=0.3)

    def test_identical_arguments_share_one_result(self, empty_memo):
        first = ground_state(self.SPEC, seed=3)
        assert ground_state(self.SPEC, seed=3) is first
        assert ground_state(self.SPEC, DEFAULT_TOL, groundstate.DEFAULT_MAX_ITER, 3) is first
        others = [ground_state(self.SPEC, seed=4), ground_state(self.SPEC, tol=1e-9, seed=3),
                  ground_state(replace(self.SPEC, delta=0.4), seed=3)]
        assert all(other is not first for other in others)
        assert empty_memo.cache_info().misses == 4

    def test_convergence_error_not_memoized(self, empty_memo):
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=1.7, delta=0.7)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                ground_state(spec, max_iter=3)
        assert empty_memo.cache_info().misses == 2
        assert empty_memo.cache_info().currsize == 0
        assert ground_state(spec, max_iter=500).residual_norm <= DEFAULT_TOL

    def test_sweeps_solve_each_hamiltonian_once(self, empty_memo):
        spec = SweepSpec(base=HamiltonianSpec(num_sites=8, j=1.0, delta=0.25),
                         kind="reflection", pairs=2,
                         axes=(("j_prime", (0.5, 2.0)), ("pairs", (1, 2))))
        first = run_sweep(spec)
        second = run_sweep(replace(spec, kind="time_reversal"))
        assert empty_memo.cache_info().misses == 2
        assert not any(row["error"] for row in first + second)
        assert run_sweep(spec) == first
        assert empty_memo.cache_info().misses == 2

    def test_restart_path_matches_dense(self, empty_memo, monkeypatch):
        monkeypatch.setattr(groundstate, "KRYLOV_CAP", 12)
        kwargs = dict(num_sites=8, j=1.0, j_prime=2.4, delta=0.6, b_field=0.15,
                      neel_delta=0.3, neel_weight=1.0, pinning=0.05)
        result = ground_state(HamiltonianSpec(**kwargs))
        dense_energy = np.linalg.eigvalsh(dense_matrix(HamiltonianSpec(**kwargs)))[0]
        assert result.iterations > 12
        assert result.energy == pytest.approx(dense_energy, abs=1e-8)
        assert result.residual_norm <= DEFAULT_TOL

    def test_memoized_amplitudes_read_only(self, empty_memo):
        first = ground_state(self.SPEC)
        amplitudes = ground_state(self.SPEC).state.amplitudes
        assert amplitudes is first.state.amplitudes
        assert not amplitudes.flags.writeable
        with pytest.raises(ValueError):
            amplitudes[0] = 0.0
