"""Lanczos solver against dense diagonalization."""
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from topoprobe import groundstate
from topoprobe.analysis import SweepSpec, run_sweep
from topoprobe.groundstate import DEFAULT_TOL, ConvergenceError, ground_state
from topoprobe.hamiltonians import CompiledHamiltonian, HamiltonianSpec
from topoprobe.partitions import partition_for
from topoprobe.rdm import exact_invariant
from topoprobe.spincore import neel_state, random_state

from oracles import (dense_matrix, lanczos_coefficients, matvec, site_z,
                     twisted_factorization)


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
            ground_state(HamiltonianSpec(num_sites=18, b_field=0.1))
        with pytest.raises(ValueError, match="N <= 20"):
            ground_state(HamiltonianSpec(num_sites=22))

    @pytest.mark.parametrize("name, value", [
        ("tol", 0.0), ("tol", np.inf), ("tol", np.nan),
        ("max_iter", 0), ("max_iter", -5), ("max_iter", 2.5)])
    def test_bad_tolerance(self, name, value):
        with pytest.raises(ValueError, match=name):
            ground_state(HamiltonianSpec(num_sites=4), **{name: value})

    def test_second_gram_schmidt_pass_at_full_dimension(self):
        # with tol = 0 this start vector runs to all 70 states of the sector; on
        # the last step w is at rounding level, so the second pass runs
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=2.4, delta=0.6)
        ham = CompiledHamiltonian(spec, 0)
        start = np.random.default_rng(0).standard_normal(ham.dim)
        energy, vector, _residual, steps = groundstate._lanczos_sweep(
            ham, start, 0.0, np.empty((ham.dim, ham.dim)))
        block = dense_matrix(spec)[np.ix_(ham.states, ham.states)]
        assert steps == ham.dim == 70
        assert energy == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-12)
        assert np.linalg.norm(ham.apply(vector) - energy * vector) <= 1e-12

    def test_state_normalized(self, ground_state_cache):
        result = ground_state_cache(num_sites=12, j=1.0, j_prime=4.0, delta=0.25,
                                    pinning=0.05)
        assert abs(np.linalg.norm(result.state.amplitudes) - 1.0) < 1e-10


class TestScaleFree:
    # N = 8, J'/J = 0.5, delta = 0.25 and default pinning, every coupling
    # times s: the stopping tests are relative to the size of H, so every
    # scale matches the dense ground state as closely as s = 1 does
    # (measured: relative energy error 3.8e-16 at s = 1, 0 at 1e-9, 1.7e-16
    # at 1e-12 and 1.6e-16 at 1e4; 1 - overlap^2 at most 1.3e-15)
    @staticmethod
    def scaled(s):
        return HamiltonianSpec(num_sites=8, j=s, j_prime=0.5 * s, delta=0.25)

    def assert_matches_dense(self, spec, **kwargs):
        energies, vectors = np.linalg.eigh(dense_matrix(spec))
        result = ground_state(spec, **kwargs)
        assert abs(result.energy - energies[0]) <= 1e-14 * abs(energies[0])
        assert abs(np.vdot(vectors[:, 0], result.state.amplitudes)) ** 2 >= 1.0 - 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-12, 1e4])
    def test_matches_dense(self, scale):
        self.assert_matches_dense(self.scaled(scale))

    def test_tol_below_rounding_raises_before_solving(self, empty_memo):
        # ||H|| <= 6.24e6 at s = 1e6: no residual gets below about 1.4e-9
        with pytest.raises(ValueError, match=r"tol 1e-10 is below the rounding level 1.39e-09 "
                                             r"of this Hamiltonian \(\|\|H\|\| <= 6.24e\+06\)"):
            ground_state(self.scaled(1e6))
        assert empty_memo.cache_info().misses == 0
        self.assert_matches_dense(self.scaled(1e6), tol=1e-8)


def _full_space(spec, monkeypatch):
    """The same solve with the sector path switched off (no memo)."""
    monkeypatch.setattr(groundstate, "_uses_sectors", lambda spec: False)
    return groundstate._solve_uncached(spec, DEFAULT_TOL, groundstate.DEFAULT_MAX_ITER, 0)


def _dense_sector_energies(spec):
    """Lowest dense eigenvalue of every sum S^z block, keyed by sum S^z."""
    dense = dense_matrix(spec)
    half = spec.num_sites // 2
    return {sector: np.linalg.eigvalsh(dense[np.ix_(states, states)])[0]
            for sector in range(-half, half + 1)
            for states in [CompiledHamiltonian(spec, sector).states]}


class TestSectors:
    @pytest.mark.parametrize("num_sites, j_prime, delta", [
        (8, 0.3, 0.25), (12, 3.0, 0.6), (16, 1.0, 0.25), (16, 5.0, 0.25)])
    def test_matches_full_space(self, num_sites, j_prime, delta, monkeypatch):
        spec = HamiltonianSpec(num_sites=num_sites, j=1.0, j_prime=j_prime, delta=delta)
        sectors = ground_state(spec)
        full = _full_space(spec, monkeypatch)
        assert sectors.sector == 0 and full.sector is None and full.sector_gap is None
        assert sectors.energy == pytest.approx(full.energy, abs=1e-12)
        for kind in ("reflection", "time_reversal", "d2", "klein_bottle"):
            for pairs in (1, 2) if num_sites < 16 else (2, 4):
                partition = partition_for(kind, num_sites, pairs)
                a = exact_invariant(sectors.state, partition, kind)
                b = exact_invariant(full.state, partition, kind)
                assert a.raw == pytest.approx(b.raw, abs=1e-10)
                assert a.normalized == pytest.approx(b.normalized, abs=1e-10)

    def test_random_grid_against_dense_sectors(self):
        grid = np.random.default_rng(606)
        for num_sites in (6, 8, 10) * 4:
            spec = HamiltonianSpec(
                num_sites=num_sites, j=float(grid.uniform(0, 5)),
                j_prime=float(grid.uniform(0, 5)), delta=float(grid.uniform(-0.99, 3)),
                neel_delta=float(grid.uniform(-3, 3)), neel_weight=float(grid.uniform(0, 1)),
                pinning=float(grid.uniform(-5, 5)))
            result = ground_state(spec)
            dense = _dense_sector_energies(spec)
            lowest = min(dense.values())
            assert result.energy == pytest.approx(lowest, abs=1e-9)
            assert min(dense[0], dense[1], dense[-1]) == pytest.approx(lowest, abs=1e-9)
            assert dense[result.sector] == pytest.approx(result.energy, abs=1e-9)
            others = [dense[s] for s in (0, 1, -1) if s != result.sector]
            assert result.sector_gap == pytest.approx(min(others) - result.energy, abs=1e-9)

    def test_ferromagnetic_anisotropy_stays_in_full_space(self):
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=0.7, delta=-2.0)
        result = ground_state(spec)
        dense = _dense_sector_energies(spec)
        assert min(dense, key=dense.get) == -4
        assert result.sector is None and result.sector_gap is None
        assert result.energy == pytest.approx(dense[-4], abs=1e-9)

    def test_exact_tie_goes_to_zero(self):
        # J = 0 leaves sites 0 and N-1 free: sum S^z = 0, +1, -1 are degenerate
        result = ground_state(HamiltonianSpec(num_sites=8, j=0.0, j_prime=1.0, delta=0.5))
        assert result.sector == 0
        assert abs(result.sector_gap) <= DEFAULT_TOL
        assert groundstate.SECTORS == (0, 1, -1)

    def test_n20_residual(self):
        spec = HamiltonianSpec(num_sites=20, j=1.0, j_prime=1.0, delta=0.25)
        result = groundstate._solve_uncached(spec, DEFAULT_TOL, groundstate.DEFAULT_MAX_ITER, 0)
        amplitudes = result.state.amplitudes
        residual = np.linalg.norm(CompiledHamiltonian(spec).apply(amplitudes)
                                  - result.energy * amplitudes)
        assert result.sector == 0
        assert residual <= DEFAULT_TOL


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

    def test_memory_bound(self, empty_memo, monkeypatch):
        # unwritten 16 MiB arrays stand in for N = 20 states: nothing is resident
        monkeypatch.setattr(groundstate, "_solve_uncached", lambda *key: SimpleNamespace(
            state=SimpleNamespace(amplitudes=np.empty(2 ** 20, dtype=complex))))
        for seed in range(8):
            empty_memo(self.SPEC, DEFAULT_TOL, groundstate.DEFAULT_MAX_ITER, seed)
        info = empty_memo.cache_info()
        assert info.currsize == 4 and info.nbytes == 64 * 2 ** 20 <= groundstate.MEMO_BYTES
        assert [key[-1] for key in empty_memo] == [4, 5, 6, 7]

    def test_memoized_amplitudes_read_only(self, empty_memo):
        first = ground_state(self.SPEC)
        amplitudes = ground_state(self.SPEC).state.amplitudes
        assert amplitudes is first.state.amplitudes
        assert not amplitudes.flags.writeable
        with pytest.raises(ValueError):
            amplitudes[0] = 0.0


def _check_ritz(alpha, beta, guess, next_beta, tol):
    """``_lowest_ritz`` against ``np.linalg.eigh`` on one tridiagonal matrix:
    theta within 8 ulp of ||T||, |next_beta * s_k| within 1e-6 relative where
    it is at least 1e-14 (scaled with T), and the same exit decision at tol;
    ``_ritz_coefficients`` at theta against the eigenvector."""
    tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    evals, evecs = np.linalg.eigh(tri)
    scale = np.abs(evals).max()
    theta, last = groundstate._lowest_ritz(alpha.tolist(), beta.tolist(), guess)
    assert abs(theta - evals[0]) <= 8 * groundstate.EPS * scale
    coefficients = groundstate._ritz_coefficients(alpha.tolist(), beta.tolist(), theta)
    assert abs(coefficients @ evecs[:, 0]) >= 1 - 1e-12
    assert abs(coefficients[-1]) == pytest.approx(abs(last), rel=1e-6, abs=1e-300)
    residual = abs(next_beta * last)
    reference = abs(next_beta * evecs[-1, 0])
    if reference >= 1e-14 * scale:
        assert residual == pytest.approx(reference, rel=1e-6)
    assert (residual <= tol) == (reference <= tol)
    return theta


def _leading_lowest(alpha, beta):
    """Lowest eigenvalue of the leading (k - 1) x (k - 1) block: the value the
    solver passes as the guess (None at k = 1)."""
    if len(alpha) == 1:
        return None
    return np.linalg.eigvalsh(np.diag(alpha[:-1]) + np.diag(beta[:-1], 1)
                              + np.diag(beta[:-1], -1))[0]


def _close_pair(lowest_at_end):
    """Two 20 x 20 blocks, mirror images of each other, whose lowest
    eigenvalues differ by 1e-13; a coupling of 1e-20 joins them when the
    lowest one holds the last index, and none joins them otherwise."""
    rng = np.random.default_rng(77)
    alpha = rng.uniform(-0.5, 0.5, 20)
    beta = rng.uniform(0.5, 1.5, 19)
    shift = -1e-13 if lowest_at_end else 1e-13
    return (np.concatenate([alpha, alpha[::-1] + shift]),
            np.concatenate([beta, [1e-20 if lowest_at_end else 0.0], beta[::-1]]))


class TestLowestRitz:
    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
    @pytest.mark.parametrize("k", [1, 2, 3, 50, 200])
    def test_random_tridiagonal(self, k, scale):
        rng = np.random.default_rng(k)
        for _ in range(5):
            alpha = scale * rng.uniform(-0.5, 0.5, k)
            beta = scale * rng.uniform(0.5, 1.5, k - 1)
            next_beta = scale * rng.uniform(0.5, 1.5)
            tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            second = np.linalg.eigvalsh(tri)[min(1, k - 1)]
            # the solver's guess, and the second eigenvalue, from which the
            # iteration converges at once to the wrong one
            for guess in (_leading_lowest(alpha, beta), second):
                _check_ritz(alpha, beta, guess, next_beta, 1e-10 * scale)

    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
    def test_every_step_of_a_sector_run(self, scale):
        # past convergence: |s_k| falls from 1 to below 1e-15 over these steps
        ham = CompiledHamiltonian(HamiltonianSpec(num_sites=12, j=1.0, j_prime=1.0,
                                                  delta=0.25), 0)
        alphas, betas = lanczos_coefficients(
            ham.apply, np.random.default_rng(0).standard_normal(ham.dim), 64)
        alphas, betas = scale * alphas, scale * betas
        theta = None
        exits = 0
        for k in range(1, 65):
            theta = _check_ritz(alphas[:k], betas[:k - 1], theta, betas[k - 1],
                                DEFAULT_TOL * scale)
            tri = np.diag(alphas[:k]) + np.diag(betas[:k - 1], 1) + np.diag(betas[:k - 1], -1)
            exits += abs(betas[k - 1] * np.linalg.eigh(tri)[1][-1, 0]) <= DEFAULT_TOL * scale
        assert 10 <= exits < 60  # both exit decisions occur

    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
    @pytest.mark.parametrize("lowest_at_end", [True, False])
    def test_lowest_pair_closer_than_1e_12(self, lowest_at_end, scale):
        alpha, beta = _close_pair(lowest_at_end)
        alpha, beta = scale * alpha, scale * beta
        evals = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        assert 0 < evals[1] - evals[0] < 1e-12 * scale
        for guess in (_leading_lowest(alpha, beta), evals[1]):
            _check_ritz(alpha, beta, guess, scale, 1e-10 * scale)


class TestTwisted:
    """The fused ``_twisted`` against the one-list-per-quantity reference,
    bit for bit: repr round-trips every float, so equal reprs are equal bits."""

    @staticmethod
    def _fused(alpha, beta, shift):
        squares = [b * b for b in beta]
        return groundstate._twisted(alpha, beta, shift, squares,
                                    groundstate.TINY * max([1.0] + squares))

    @pytest.mark.parametrize("k", [1, 2, 3, 20, 200])
    def test_random_tridiagonals(self, k):
        rng = np.random.default_rng(100 + k)
        for scale in (1.0, 1e-8, 1e8):
            alpha = (scale * rng.uniform(-0.5, 0.5, k)).tolist()
            beta = (scale * rng.uniform(0.0, 1.5, k - 1)).tolist()
            tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            evals = np.linalg.eigvalsh(tri)
            # shifts at and between eigenvalues, outside the spectrum, and on
            # a diagonal entry (a zero first pivot)
            for shift in (*evals[:3], evals[0] - scale, 0.5 * (evals[0] + evals[-1]),
                          evals[-1] + scale, alpha[0]):
                shift = float(shift)
                assert repr(self._fused(alpha, beta, shift)) == \
                    repr(twisted_factorization(alpha, beta, shift))

    def test_ties_go_to_the_first_index(self):
        # a diagonal T: gamma_i is alpha_i - shift, so |gamma| is 1, 1, 1, 2
        # and the twist (z_r = 1) goes to index 0
        alpha, beta = [1.0, 3.0, 1.0, 4.0], [0.0, 0.0, 0.0]
        fused = self._fused(alpha, beta, 2.0)
        assert repr(fused) == repr(twisted_factorization(alpha, beta, 2.0))
        assert fused[2][0] == 1.0
        # a nan entry: every gamma is nan, and the twist goes to index 0 too
        alpha[1] = np.nan
        assert repr(self._fused(alpha, beta, 2.0)) == \
            repr(twisted_factorization(alpha, beta, 2.0))

    def test_every_call_of_an_n16_sweep(self, monkeypatch):
        calls = []
        fused = groundstate._twisted

        def recording(alpha, beta, shift, squares, pivmin):
            # the sweep's running squares and zero-pivot stand-in are the ones
            # the reference computes from beta
            assert squares == [b * b for b in beta]
            assert pivmin == groundstate.TINY * max([1.0] + squares)
            result = fused(alpha, beta, shift, squares, pivmin)
            calls.append((list(alpha), list(beta), shift, result))
            return result

        monkeypatch.setattr(groundstate, "_twisted", recording)
        ham = CompiledHamiltonian(SPECS["n16_jp1"], 0)
        start = np.random.default_rng(0).standard_normal(ham.dim)
        _energy, _vector, _residual, steps = groundstate._lanczos_sweep(
            ham, start, DEFAULT_TOL, np.empty((groundstate.KRYLOV_CAP, ham.dim)))
        assert steps > 50 and len(calls) > steps
        for alpha, beta, shift, result in calls:
            assert repr(result) == repr(twisted_factorization(alpha, beta, shift))


SPECS = {
    "n8_full_b": HamiltonianSpec(num_sites=8, j=1.0, j_prime=2.4, delta=0.6, b_field=0.15,
                                 neel_delta=0.3, neel_weight=1.0, pinning=0.05),
    "n12_jp03": HamiltonianSpec(num_sites=12, j=1.0, j_prime=0.3, delta=0.25),
    "n12_jp4": HamiltonianSpec(num_sites=12, j=1.0, j_prime=4.0, delta=0.25),
    "n12_full_delta_m2": HamiltonianSpec(num_sites=12, j=1.0, j_prime=0.7, delta=-2.0),
    "n16_jp1": HamiltonianSpec(num_sites=16, j=1.0, j_prime=1.0, delta=0.25),
    "n10_full_b_neel": HamiltonianSpec(num_sites=10, j=1.0, j_prime=0.5, delta=1.2,
                                       b_field=0.3, neel_delta=2.0, neel_weight=0.5),
}


class TestPinned:
    """Solver output pinned at commit dc97da3 (full reorthogonalization and a
    dense eigh on every Lanczos step), seed 0 and default tolerances. The
    states are in ``data/pinned_ground_states.npz``: the amplitudes on the
    chosen sector's states, or on all 2^N states in the full space."""
    PINNED = {  # energy, iterations, sector
        "n8_full_b": (-11.049357321061066, 38, None),
        "n12_jp03": (-6.846487982588052, 140, 0),
        "n12_jp4": (-22.975283226895396, 137, 0),
        "n12_full_delta_m2": (-9.550000000000008, 64, None),
        "n16_jp1": (-10.713881521818658, 193, 0),
        "n10_full_b_neel": (-15.485450658581295, 39, None),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_pinned_solve(self, name):
        energy, iterations, sector = self.PINNED[name]
        spec = SPECS[name]
        result = ground_state(spec)
        assert abs(result.energy - energy) <= 1e-12
        assert (result.iterations, result.sector) == (iterations, sector)
        index = slice(None) if sector is None else CompiledHamiltonian(spec, sector).states
        pinned = np.zeros(spec.dim)
        with np.load(Path(__file__).parent / "data" / "pinned_ground_states.npz") as data:
            pinned[index] = data[name]
        assert abs(np.vdot(pinned, result.state.amplitudes)) >= 1 - 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["n8_full_b", "n12_jp4"])
    def test_sign_follows_start_vector(self, name, seed):
        # one sweep each: the state has a positive overlap with its start
        # vector, the first draw of default_rng(seed) on the first basis
        spec = SPECS[name]
        result = ground_state(spec, seed=seed)
        assert result.iterations < groundstate.KRYLOV_CAP
        index = slice(None) if result.sector is None else CompiledHamiltonian(spec, 0).states
        start = np.random.default_rng(seed).standard_normal(spec.dim if result.sector is None
                                                           else len(index))
        assert np.vdot(start, result.state.amplitudes[index]).real > 0
