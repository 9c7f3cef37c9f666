"""Trotterized evolution: the step against dense and per-bond references,
splitting order, norm and energy conservation, adiabatic ramp behavior."""
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from topoprobe import dynamics
from topoprobe.dynamics import (
    NormDriftError,
    RampSpec,
    TrotterStepper,
    _check_norm,
    adiabatic_evolve,
    evolve,
    monitor_invariants,
)
from topoprobe.hamiltonians import HamiltonianSpec
from topoprobe.partitions import reflection_partition, three_segment_partition
from topoprobe.rdm import exact_invariant
from topoprobe.spincore import neel_state, random_state

from oracles import EinsumTrotterStepper, dense_matrix, dense_trotter_step, trotter_terms


class TestRampSpec:
    def test_weight_endpoints(self):
        ramp = RampSpec(t_final=20.0)
        assert ramp.weight(0.0) == pytest.approx(1.0)
        assert ramp.weight(20.0) == pytest.approx(0.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError, match="dt"):
            RampSpec(t_final=1.0, dt=2.0)

    def test_sample_times_bounds(self):
        with pytest.raises(ValueError, match="sample time"):
            RampSpec(t_final=1.0, dt=0.1, sample_times=(2.0,))

    @pytest.mark.parametrize("dt", [0.6, 0.3])
    def test_dt_must_divide_t_final(self, dt):
        # round(1.0 / 0.6) steps would end at t = 1.2, round(1.0 / 0.3) at 0.9
        message = f"dt={dt} does not divide the evolution time 1.0"
        with pytest.raises(ValueError, match=message):
            RampSpec(t_final=1.0, dt=dt)
        spec = HamiltonianSpec(num_sites=4, j=1.0, j_prime=0.5, delta=0.25)
        with pytest.raises(ValueError, match=message):
            evolve(spec, neel_state(4), 1.0, dt)

    @pytest.mark.parametrize("t_total, dt", [(1.0, -0.1), (-1.0, 0.1), (1.0, 0.0)])
    def test_evolve_rejects_negative_time_or_step(self, t_total, dt):
        spec = HamiltonianSpec(num_sites=4, j=1.0, j_prime=0.5, delta=0.25)
        with pytest.raises(ValueError, match="need dt > 0 and t_total >= 0"):
            evolve(spec, neel_state(4), t_total, dt)

    @pytest.mark.parametrize("t_total", [np.inf, 1e308])
    def test_evolve_rejects_infinite_step_count(self, t_total):
        spec = HamiltonianSpec(num_sites=4, j=1.0, j_prime=0.5, delta=0.25)
        with pytest.raises(ValueError, match=re.escape(f"t_total={t_total} / dt=0.01 is not")):
            evolve(spec, neel_state(4), t_total, 0.01)

    def test_evolve_rejects_state_of_another_chain(self):
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=0.5, delta=0.25)
        with pytest.raises(ValueError, match="chain size does not match"):
            evolve(spec, neel_state(10), 0.1)

    def test_nan_state_fails_norm_check(self):
        with pytest.raises(NormDriftError, match="nan"):
            _check_norm(np.full(16, np.nan))

    @pytest.mark.parametrize("exponent", [3, 1, 0, -2])
    def test_exponent_must_be_positive_even(self, exponent):
        with pytest.raises(ValueError, match="positive even integer"):
            RampSpec(t_final=1.0, dt=0.1, ramp_exponent=exponent)


class TestTrotterStep:
    @pytest.mark.parametrize("num_sites", [4, 6, 8])
    def test_step_matches_dense_splitting(self, num_sites, rng):
        # N = 4 < LOW_BLOCK_WIDTH makes the whole chain the low block of both
        # bond groups; N = 6 and 8 also have gates above the block
        spec = HamiltonianSpec(num_sites=num_sites, j=1.0, j_prime=0.6, delta=0.3,
                               b_field=0.1, pinning=0.07, neel_delta=5.0)
        weight, dt = 0.3, 0.05
        h_a, h_b, h_d = trotter_terms(spec, weight)
        assert np.allclose(h_a + h_b + h_d, dense_matrix(replace(spec, neel_weight=weight)),
                           atol=1e-13)
        psi = random_state(num_sites, rng).amplitudes
        stepped = TrotterStepper(spec, dt).step(psi, weight)
        assert np.max(np.abs(stepped - dense_trotter_step(spec, dt, weight) @ psi)) <= 1e-12

    def test_ramp_matches_per_bond_reference(self):
        spec = HamiltonianSpec(num_sites=12, j=1.0, j_prime=0.5, delta=0.25, b_field=0.1,
                               neel_delta=40.0)
        ramp = RampSpec(t_final=2.0, dt=0.01, neel_delta=40.0)
        final = adiabatic_evolve(spec, ramp)[-1][1].amplitudes
        reference = EinsumTrotterStepper(spec, ramp.dt)
        amps = neel_state(12).amplitudes
        for step in range(1, 201):
            amps = reference.step(amps, ramp.weight((step - 0.5) * ramp.dt))
        assert np.max(np.abs(final - amps)) <= 1e-12

    @pytest.mark.parametrize("num_sites", [8, 12])
    def test_sector_ramp_matches_per_bond_reference(self, num_sites):
        # B = 0 runs in the sum S^z = 0 sector with merged even half-steps
        spec = HamiltonianSpec(num_sites=num_sites, j=1.0, j_prime=0.5, delta=0.25,
                               pinning=0.07, neel_delta=40.0)
        ramp = RampSpec(t_final=2.0, dt=0.01, neel_delta=40.0)
        final = adiabatic_evolve(spec, ramp)[-1][1].amplitudes
        reference = EinsumTrotterStepper(spec, ramp.dt)
        amps = neel_state(num_sites).amplitudes
        for step in range(1, 201):
            amps = reference.step(amps, ramp.weight((step - 0.5) * ramp.dt))
        assert np.max(np.abs(final - amps)) <= 1e-12

    @pytest.mark.parametrize("dt", [0.01, 1.0, np.pi])
    def test_sector_step_matches_full_space(self, dt, rng):
        # dt = pi puts the J = 1 half-step gate at g[1, 1] = cos(pi / 2), where
        # the flip coefficient g[1, 2] / g[1, 1] is about 1e16
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=0.6, delta=0.3, pinning=0.1,
                               neel_delta=2.0)
        sector, full = TrotterStepper(spec, dt, 0), TrotterStepper(spec, dt)
        psi = np.zeros(2 ** 8, dtype=complex)
        psi[sector.states] = random_state(8, rng).amplitudes[:sector.states.shape[0]]
        psi /= np.linalg.norm(psi)
        stepped = sector.step(psi[sector.states], 0.4)
        assert np.max(np.abs(stepped - full.step(psi, 0.4)[sector.states])) <= 1e-14
        merged = sector.step(sector.step(psi[sector.states], 0.4, merge=True), 0.3, opened=True)
        reference = full.step(full.step(psi, 0.4), 0.3)
        assert np.max(np.abs(merged - reference[sector.states])) <= 1e-14

    def test_sector_snapshots_vanish_outside_sector(self):
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=0.5, delta=0.25)
        snapshots = adiabatic_evolve(spec, RampSpec(t_final=1.0, dt=0.01,
                                                    sample_times=(0.2, 0.21, 0.5)))
        outside = np.bitwise_count(np.arange(2 ** 8)) != 4
        assert len(snapshots) == 5
        for _time, state in snapshots:
            assert np.all(state.amplitudes[outside] == 0.0)
            assert np.linalg.norm(state.amplitudes[~outside]) == pytest.approx(1.0, abs=1e-12)

    def test_sample_steps_close_merged_half_steps(self):
        # every sample step ends with the closing half-step and reopens;
        # t_final must not depend on where the merge was closed
        spec = HamiltonianSpec(num_sites=10, j=1.0, j_prime=0.8, delta=0.25, pinning=0.05)
        plain = adiabatic_evolve(spec, RampSpec(t_final=1.5, dt=0.01))
        sampled = adiabatic_evolve(spec, RampSpec(t_final=1.5, dt=0.01,
                                                  sample_times=(0.01, 0.02, 0.37, 0.5, 1.49)))
        assert [t for t, _state in sampled] == pytest.approx([0.0, 0.01, 0.02, 0.37, 0.5, 1.49,
                                                              1.5])
        assert np.max(np.abs(sampled[-1][1].amplitudes - plain[-1][1].amplitudes)) <= 1e-12

    @pytest.mark.parametrize("num_sites", [6, 12])
    def test_phase_table_is_exact(self, num_sites):
        spec = HamiltonianSpec(num_sites=num_sites, j=1.0, j_prime=0.5, delta=0.25,
                               pinning=0.05, neel_delta=40.0)
        stepper = TrotterStepper(spec, 0.01)
        sector_stepper = TrotterStepper(spec, 0.01, 0)
        reference = EinsumTrotterStepper(spec, 0.01)
        for weight in (1.0, 0.37, 1e-5, 0.0):
            assert np.array_equal(stepper.phases(weight).view(np.uint64),
                                  reference.phases(weight).view(np.uint64))
            assert np.array_equal(sector_stepper.phases(weight).view(np.uint64),
                                  reference.phases(weight)[sector_stepper.states].view(np.uint64))


class TestTrotterAccuracy:
    def test_second_order_convergence(self, rng):
        # halving dt must cut the final-state error by about four
        spec = HamiltonianSpec(num_sites=6, j=1.0, j_prime=1.7, delta=0.4, pinning=0.05)
        dense = dense_matrix(spec)
        evals, evecs = np.linalg.eigh(dense)
        psi0 = random_state(6, rng)
        t_total = 1.0
        reference = evecs @ (np.exp(-1j * evals * t_total)
                             * (evecs.conj().T @ psi0.amplitudes))
        errors = [np.linalg.norm(evolve(spec, psi0, t_total, dt).amplitudes - reference)
                  for dt in (0.04, 0.02, 0.01)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 2.0 <= coarse / fine <= 8.0

    def test_second_order_with_time_dependence(self):
        # midpoint evaluation keeps the ramp itself second order
        spec = HamiltonianSpec(num_sites=6, j=1.0, j_prime=0.5, delta=0.25, pinning=0.0)
        ramp_args = dict(t_final=2.0, neel_delta=20.0)
        reference = adiabatic_evolve(spec, RampSpec(dt=0.0025, **ramp_args))[-1][1]
        errors = []
        for dt in (0.02, 0.01):
            final = adiabatic_evolve(spec, RampSpec(dt=dt, **ramp_args))[-1][1]
            errors.append(np.linalg.norm(final.amplitudes - reference.amplitudes))
        assert 2.0 <= errors[0] / errors[1] <= 8.0

    def test_norm_preserved(self, rng):
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=2.0, delta=0.25)
        state = random_state(8, rng)
        out = evolve(spec, state, 5.0, dt=0.01)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-8

    def test_energy_conserved_from_eigenstate(self, ground_state_cache):
        # an eigenstate start suppresses the O(dt^2) splitting oscillation,
        # leaving only the higher-order drift
        kwargs = dict(num_sites=8, j=1.0, j_prime=2.0, delta=0.25, pinning=0.05)
        result = ground_state_cache(**kwargs)
        spec = HamiltonianSpec(**kwargs)
        stepper = TrotterStepper(spec, 0.01)
        amps = result.state.amplitudes
        reference = result.energy
        worst = 0.0
        from topoprobe.hamiltonians import CompiledHamiltonian

        compiled = CompiledHamiltonian(spec)
        for step in range(1000):
            amps = stepper.step(amps, spec.neel_weight)
            if step % 100 == 99:
                energy = float(np.real(np.vdot(amps, compiled.apply(amps))))
                worst = max(worst, abs(energy - reference))
        assert worst <= 1e-6


class TestAdiabaticRamp:
    def test_sudden_quench_stays_neel(self):
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=0.5, delta=0.25)
        snapshots = adiabatic_evolve(spec, RampSpec(t_final=0.02, dt=0.02, neel_delta=40.0))
        final = snapshots[-1][1]
        overlap = abs(np.vdot(final.amplitudes, neel_state(8).amplitudes))
        assert overlap > 0.99

    def test_slow_ramp_reaches_ground_state(self, ground_state_cache):
        kwargs = dict(num_sites=12, j=1.0, j_prime=0.5, delta=0.25)
        target = ground_state_cache(**kwargs).state
        spec = HamiltonianSpec(**kwargs)
        snapshots = adiabatic_evolve(spec, RampSpec(t_final=20.0, dt=0.01, neel_delta=40.0))
        overlap = abs(np.vdot(snapshots[-1][1].amplitudes, target.amplitudes))
        assert overlap > 0.9

    def test_weak_field_warns(self):
        spec = HamiltonianSpec(num_sites=4, j=1.0, j_prime=0.5, delta=0.25)
        with pytest.warns(UserWarning, match="staggered field"):
            adiabatic_evolve(spec, RampSpec(t_final=0.1, dt=0.05, neel_delta=2.0))

    def test_snapshots_beyond_physical_memory_raise_before_allocating(self, monkeypatch):
        # N = 20: 16 MiB per snapshot, and one more distinct sample step than
        # fits; the check comes before the stepper, which must not be built
        monkeypatch.setattr(dynamics, "TrotterStepper", None)
        available = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        count = available // 2 ** 24 + 1
        ramp = RampSpec(t_final=float(count - 1), dt=1.0,
                        sample_times=tuple(float(t) for t in range(count)))
        spec = HamiltonianSpec(num_sites=20, j=1.0, j_prime=0.5, delta=0.25)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    f"{count} ramp snapshots of {2 ** 20} amplitudes need {count * 2 ** 24} "
                    f"bytes, more than the {available} bytes of physical memory")):
                adiabatic_evolve(spec, ramp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


@pytest.fixture(scope="module")
def ramp_snapshots():
    spec = HamiltonianSpec(num_sites=12, j=1.0, j_prime=0.5, delta=0.25)
    ramp = RampSpec(t_final=20.0, dt=0.01, neel_delta=40.0,
                    sample_times=(0.0, 10.0, 20.0))
    return spec, adiabatic_evolve(spec, ramp)


class TestMonitoring:
    def test_neel_start_has_zero_reflection_invariant(self, ramp_snapshots):
        _spec, snapshots = ramp_snapshots
        rows = monitor_invariants(snapshots[:1], 2, ("reflection",), "exact")
        assert rows[0]["time"] == 0.0
        assert rows[0]["value"] == pytest.approx(0.0, abs=1e-12)

    def test_endpoint_matches_ground_state(self, ramp_snapshots, ground_state_cache):
        _spec, snapshots = ramp_snapshots
        part = reflection_partition(12, 2)
        target = ground_state_cache(num_sites=12, j=1.0, j_prime=0.5, delta=0.25).state
        exact_target = exact_invariant(target, part, "reflection").normalized
        rows = monitor_invariants(snapshots, 2, ("reflection",), "exact")
        assert abs(rows[-1]["value"] - exact_target) <= 0.1

    def test_shorter_interval_orders_buildup(self, ramp_snapshots):
        # partially built order: the invariant magnitude grows as the
        # probed interval shrinks
        _spec, snapshots = ramp_snapshots
        mid_state = snapshots[1][1]
        magnitudes = [abs(exact_invariant(mid_state, reflection_partition(12, n),
                                          "reflection").normalized)
                      for n in (1, 2, 3)]
        assert magnitudes[0] > magnitudes[1] > magnitudes[2]

    def test_sampled_mode(self, ramp_snapshots):
        from topoprobe.protocols import ProtocolParams

        _spec, snapshots = ramp_snapshots
        part = reflection_partition(12, 2)
        params = ProtocolParams("reflection", 128, 64, part, 31)
        rows = monitor_invariants(snapshots[-1:], 2, ("reflection",), "sampled", params)
        exact_rows = monitor_invariants(snapshots[-1:], 2, ("reflection",), "exact")
        assert abs(rows[0]["value"] - exact_rows[0]["value"]) <= 4 * rows[0]["std_error"]

    def test_d2_monitor_reports_raw_value(self):
        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=3.0, delta=0.25)
        snapshots = adiabatic_evolve(spec, RampSpec(t_final=1.0, dt=0.05))
        part = three_segment_partition(8, 1)
        rows = monitor_invariants(snapshots[-1:], 1, ("d2",), "exact")
        value = exact_invariant(snapshots[-1][1], part, "d2")
        assert rows[0]["value"] == value.raw == rows[0]["raw"]
        assert value.raw != value.normalized

    def test_sampled_d2_uses_raw_estimate_and_derived_seed(self):
        from topoprobe.protocols import ProtocolParams, estimate_raw, run_campaign

        spec = HamiltonianSpec(num_sites=8, j=1.0, j_prime=3.0, delta=0.25)
        snapshots = adiabatic_evolve(spec, RampSpec(t_final=1.0, dt=0.05))
        part = three_segment_partition(8, 1)
        params = ProtocolParams("d2", 16, 16, part, 33)
        rows = monitor_invariants(snapshots, 1, ("d2",), "sampled", params)
        index = len(snapshots) - 1
        seed = np.random.SeedSequence(33, spawn_key=(index,)).generate_state(1, np.uint64)[0]
        expected_params = ProtocolParams("d2", 16, 16, part, int(seed))
        expected = estimate_raw(run_campaign(snapshots[-1][1], expected_params),
                                expected_params)
        assert rows[-1]["value"] == expected.value
        assert rows[-1]["std_error"] == expected.std_error

    def test_empty_snapshots_rejected(self):
        with pytest.raises(ValueError, match="snapshots"):
            monitor_invariants([], 2)

    def test_sampled_mode_needs_params(self, monkeypatch):
        import topoprobe.dynamics as dynamics

        def unreachable(*args, **kwargs):
            raise AssertionError("a snapshot was measured")

        monkeypatch.setattr(dynamics, "run_campaign", unreachable)
        with pytest.raises(ValueError, match="params"):
            monitor_invariants([(0.0, neel_state(8))], 2, ("reflection",), "sampled")
