"""Sweeps, correlation-length fits, error scaling, symmetry diagnostics."""
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from topoprobe import analysis, groundstate
from topoprobe.analysis import (
    SweepSpec,
    correlation_length_fits,
    error_scaling_scan,
    fit_correlation_length,
    run_sweep,
    write_rows_csv,
)
from topoprobe.groundstate import ground_state
from topoprobe.hamiltonians import HamiltonianSpec
from topoprobe.partitions import partition_for, reflection_partition
from topoprobe.protocols import ProtocolParams, estimate_raw, run_campaign
from topoprobe.rdm import exact_invariant

from oracles import symmetry_breaking_report


class TestSweep:
    def test_three_point_phase_structure(self):
        spec = SweepSpec(
            base=HamiltonianSpec(num_sites=12, j=1.0, delta=0.25),
            kind="reflection", pairs=2,
            axes=(("j_prime", (0.2, 1.0, 5.0)),),
        )
        rows = run_sweep(spec)
        assert [row["j_prime"] for row in rows] == [0.2, 1.0, 5.0]
        values = [row["value"] for row in rows]
        assert values[0] > 0.9
        assert values[2] < -0.9
        assert abs(values[1]) < min(abs(values[0]), abs(values[2]))

    def test_deterministic_given_seed(self):
        spec = SweepSpec(
            base=HamiltonianSpec(num_sites=8, j=1.0, delta=0.25),
            kind="reflection", pairs=2,
            axes=(("j_prime", (0.5, 2.0)),),
            mode="sampled", n_unitaries=16, n_shots=16, master_seed=5,
        )
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert first == second

    def test_repetitions_share_leading_draw(self):
        base = dict(
            base=HamiltonianSpec(num_sites=8, j=1.0, delta=0.25),
            kind="reflection", pairs=2, axes=(("j_prime", (0.5,)),),
            mode="sampled", n_unitaries=16, n_shots=16, master_seed=9,
        )
        single = run_sweep(SweepSpec(**base, repetitions=1))
        double = run_sweep(SweepSpec(**base, repetitions=2))
        assert double[0] == single[0]
        assert double[1] != double[0]

    def test_per_point_failure_recorded(self):
        spec = SweepSpec(
            base=HamiltonianSpec(num_sites=8, j=1.0, delta=0.25),
            kind="reflection", pairs=2,
            axes=(("pairs", (2.0, 7.0)),),  # 7 pairs cannot fit half of 8 sites
        )
        rows = run_sweep(spec)
        assert rows[0]["error"] == ""
        assert "pairs" in rows[1]["error"] or "fit" in rows[1]["error"]
        assert rows[1]["value"] is None

    def test_failed_solve_recorded_on_every_row(self):
        spec = SweepSpec(
            base=HamiltonianSpec(num_sites=18, j=1.0, delta=0.25, b_field=0.1),
            kind="reflection", pairs=2, axes=(("j_prime", (0.5, 2.0)),), repetitions=2,
        )
        rows = run_sweep(spec)
        assert len(rows) == 4
        for row in rows:
            assert row["value"] is None and row["exact"] is None
            assert row["error"].startswith("ValueError: ground_state limited to N <= 16 here, "
                                           "got 18")

    def test_sweep_holds_no_states_beyond_the_memo(self, monkeypatch):
        # the memo holds two N = 8 states; the sweep may keep none of its own
        groundstate._solve.cache_clear()
        monkeypatch.setattr(groundstate, "MEMO_BYTES", 2 * 2 ** 8 * np.dtype(float).itemsize)
        returned, alive = [], []

        def tracked(*args, **kwargs):
            result = groundstate.ground_state(*args, **kwargs)
            if not any(ref() is result.state for ref in returned):
                returned.append(weakref.ref(result.state))
            alive.append(sum(ref() is not None for ref in returned))
            return result

        monkeypatch.setattr(analysis, "ground_state", tracked)
        spec = SweepSpec(base=HamiltonianSpec(num_sites=8, j=1.0, delta=0.25),
                         kind="reflection", pairs=2,
                         axes=(("j_prime", (0.4, 0.8, 1.2, 1.6, 2.4, 3.2)),))
        try:
            rows = run_sweep(spec)
        finally:
            groundstate._solve.cache_clear()
        assert not any(row["error"] for row in rows)
        assert len(returned) == 6
        assert max(alive) <= 2

    def test_unnormalizable_point_recorded(self):
        # 2 unitaries x 2 shots at seed 0: every repetition's mean sampled
        # segment purity is <= 0, so no normalized value exists
        spec = SweepSpec(
            base=HamiltonianSpec(num_sites=8, j=1.0, j_prime=5.0, delta=0.25),
            kind="reflection", pairs=2, axes=(("j_prime", (5.0,)),), mode="sampled",
            n_unitaries=2, n_shots=2, master_seed=0, repetitions=2,
        )
        for row in run_sweep(spec):
            assert row["value"] is None and row["exact"] is not None
            assert row["error"].startswith("ValueError: mean sampled segment purity")

    def test_sampled_rows_consistent_with_exact(self):
        # bootstrap error bars must cover the exact value at the 3-sigma
        # level for nearly every point
        spec = SweepSpec(
            base=HamiltonianSpec(num_sites=8, j=1.0, delta=0.25),
            kind="reflection", pairs=2,
            axes=(("j_prime", (0.5, 3.0)),),
            mode="sampled", n_unitaries=64, n_shots=64,
            repetitions=50, master_seed=77,
        )
        rows = run_sweep(spec)
        covered = sum(abs(row["value"] - row["exact"]) <= 3 * row["std_error"]
                      for row in rows)
        assert covered >= 0.99 * len(rows)

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="sweep over"):
            SweepSpec(base=HamiltonianSpec(num_sites=8), kind="reflection", pairs=2,
                      axes=(("coupling", (1.0,)),))

    @pytest.mark.parametrize("seed", [-1, True, np.int64(3)])
    def test_master_seed_validation(self, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"master_seed must be a non-negative integer, got {seed!r}")):
            SweepSpec(base=HamiltonianSpec(num_sites=8), kind="reflection", pairs=2,
                      axes=(("j_prime", (1.0,)),), master_seed=seed)

    @pytest.mark.parametrize("axis", ["pairs", "n_unitaries", "n_shots"])
    def test_integer_axes_reject_fractions(self, axis):
        base = HamiltonianSpec(num_sites=8, j=1.0, delta=0.25)
        with pytest.raises(ValueError, match=f"axis '{axis}' needs integer values, got 1.5"):
            SweepSpec(base=base, kind="reflection", pairs=2, axes=((axis, (1.0, 1.5, 2.0)),))
        SweepSpec(base=base, kind="reflection", pairs=2, axes=((axis, (2.0, 3.0)),))

    @pytest.mark.parametrize("repetitions", [1.5, True])
    def test_repetitions_must_be_integers(self, repetitions):
        with pytest.raises(ValueError, match=re.escape(
                f"repetitions needs integer values, got {repetitions}")):
            SweepSpec(base=HamiltonianSpec(num_sites=8), kind="reflection", pairs=2,
                      axes=(("j_prime", (1.0,)),), repetitions=repetitions)

    def test_whole_float_repetitions_run(self):
        spec = SweepSpec(base=HamiltonianSpec(num_sites=8, j=1.0, delta=0.25),
                         kind="reflection", pairs=2, axes=(("j_prime", (2.0,)),),
                         mode="sampled", n_unitaries=8, n_shots=16, repetitions=2.0)
        assert spec.repetitions == 2 and type(spec.repetitions) is int
        rows = run_sweep(spec)
        assert [row["error"] for row in rows] == ["", ""]

    def test_two_copy_kinds_reach_twelve_site_intervals(self):
        # d2 and the Klein bottle at pairs = 4 contract a 12-site interval,
        # the campaign limit; the exact value stays within Tr B^2
        base = HamiltonianSpec(num_sites=12, j=1.0, j_prime=3.0, delta=0.25)
        state = ground_state(base, seed=0).state
        for kind in ("d2", "klein_bottle"):
            rows = run_sweep(SweepSpec(base=base, kind=kind, pairs=1,
                                       axes=(("pairs", (1.0, 4.0)),)))
            assert [row["error"] for row in rows] == ["", ""]
            value = exact_invariant(state, partition_for(kind, 12, 4), kind)
            assert rows[1]["value"] == value.raw
            assert abs(value.raw) <= value.bound < 1.0

    def test_csv_round_trip(self, tmp_path):
        spec = SweepSpec(
            base=HamiltonianSpec(num_sites=8, j=1.0, delta=0.25),
            kind="reflection", pairs=2, axes=(("j_prime", (0.5,)),),
        )
        rows = run_sweep(spec)
        path = tmp_path / "sweep.csv"
        write_rows_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("j_prime,")
        assert len(lines) == 2


class TestCorrelationLengthFit:
    def test_exact_exponential_recovered(self):
        ns = [1, 2, 3]
        values = [1 - 0.5 * np.exp(-n / 2.0) for n in ns]
        fit = fit_correlation_length(ns, values, target_sign=1.0)
        assert fit.length_scale == pytest.approx(2.0, abs=1e-6)
        assert fit.residual < 1e-12

    def test_amplitude_invariance(self):
        ns = [1, 2, 3]
        for amplitude in (0.1, 0.4, 0.9):
            values = [1 - amplitude * np.exp(-n / 1.7) for n in ns]
            fit = fit_correlation_length(ns, values, 1.0)
            assert fit.length_scale == pytest.approx(1.7, abs=1e-9)

    def test_negative_target(self):
        ns = [1, 2, 3]
        values = [-1 + 0.3 * np.exp(-n / 0.8) for n in ns]
        fit = fit_correlation_length(ns, values, -1.0)
        assert fit.length_scale == pytest.approx(0.8, abs=1e-9)

    def test_constant_series_flagged(self):
        fit = fit_correlation_length([1, 2, 3], [0.5, 0.5, 0.5], 1.0)
        assert fit.flag == "non_decaying"
        assert np.isinf(fit.length_scale)

    def test_overshoot_flagged_as_converged(self):
        fit = fit_correlation_length([1, 2, 3], [0.999, 0.9999, 0.99999], None)
        assert fit.flag == ""
        fit = fit_correlation_length([1, 2, 3], [0.9, 0.99, 0.999][::-1], 1.0)
        assert fit.flag == "non_decaying" or fit.length_scale > 0

    def test_sign_default_from_last_point(self):
        values = [-1 + 0.3 * np.exp(-n / 0.8) for n in [1, 2, 3]]
        fit = fit_correlation_length([1, 2, 3], values)
        assert fit.quantized_target == -1.0

    def test_magnitude_precondition(self):
        with pytest.raises(ValueError, match=r"\|value\| < 1"):
            fit_correlation_length([1, 2, 3], [1.2, 0.9, 0.8], 1.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="points"):
            fit_correlation_length([1, 2], [0.5, 0.6], 1.0)

    def test_uses_first_three_points_only(self):
        ns = [1, 2, 3, 4]
        clean = [1 - 0.5 * np.exp(-n / 2.0) for n in ns]
        noisy_tail = clean[:3] + [0.1]
        fit = fit_correlation_length(ns, noisy_tail, 1.0)
        assert fit.length_scale == pytest.approx(2.0, abs=1e-6)

    def test_sweep_groups_fitted_or_listed_as_skipped(self):
        def row(j_prime, pairs, value, error="", repetition=0):
            return {"j_prime": j_prime, "pairs": pairs, "repetition": repetition,
                    "kind": "reflection", "mode": "exact", "seed": 0, "value": value,
                    "std_error": None, "exact": value, "error": error}

        good = [row(0.5, n, 1 - 0.5 * np.exp(-n / 2.0)) for n in (1, 2, 3)]
        # a second repetition of the same point is its own series
        again = [row(0.5, n, 1 - 0.5 * np.exp(-n / 3.0), repetition=1) for n in (1, 2, 3)]
        overshoot = [row(3.0, n, v) for n, v in ((1, -0.9), (2, -1.01), (3, -0.99))]
        short = [row(1.0, 1, 0.5), row(1.0, 2, 0.6), row(1.0, 3, None, error="boom")]
        fits, skipped = correlation_length_fits(good + again + overshoot + short)
        assert [(fit["j_prime"], fit["repetition"], fit["kind"]) for fit in fits] \
            == [(0.5, 0, "reflection"), (0.5, 1, "reflection")]
        assert fits[0]["length_scale"] == pytest.approx(2.0, abs=1e-6)
        assert fits[1]["length_scale"] == pytest.approx(3.0, abs=1e-6)
        assert [(entry["j_prime"], entry["repetition"], entry["pair_counts"])
                for entry in skipped] == [(3.0, 0, [1, 2, 3]), (1.0, 0, [1, 2])]
        assert skipped[0]["values"] == [-0.9, -1.01, -0.99]
        assert "|value| < 1" in skipped[0]["reason"]
        assert "at least 3" in skipped[1]["reason"]
        assert correlation_length_fits([dict(r, kind="d2") for r in good]) == ([], [])


@pytest.fixture(scope="module")
def scan_state(ground_state_cache):
    return ground_state_cache(num_sites=8, j=1.0, j_prime=3.0, delta=0.25).state


class TestErrorScaling:
    def test_errors_decrease_with_unitaries(self, scan_state):
        base = ProtocolParams("reflection", 16, 32, reflection_partition(8, 2), 101)
        rows = error_scaling_scan(scan_state, base, "n_unitaries",
                                  [16, 32, 64, 128, 256], repetitions=24)
        violations = 0
        for a, b in zip(rows, rows[1:]):
            slack = a["std_of_mean"] + b["std_of_mean"]
            if b["mean_abs_error"] > a["mean_abs_error"] + slack:
                violations += 1
        assert violations == 0

    def test_errors_decrease_with_shots(self, scan_state):
        base = ProtocolParams("time_reversal", 48, 4, reflection_partition(8, 2), 102)
        rows = error_scaling_scan(scan_state, base, "n_shots",
                                  [4, 8, 16, 32], repetitions=24)
        violations = 0
        for a, b in zip(rows, rows[1:]):
            slack = a["std_of_mean"] + b["std_of_mean"]
            if b["mean_abs_error"] > a["mean_abs_error"] + slack:
                violations += 1
        assert violations == 0

    def test_interval_growth_rate(self):
        # fixed budget, growing interval: the time-reversal error grows by
        # about 2^1.5 per added pair (50% tolerance on the prefactor); a
        # structureless state avoids dimerization-induced prefactor swings
        from topoprobe.spincore import random_state

        state = random_state(8, np.random.default_rng(3))
        base = ProtocolParams("time_reversal", 64, 16, reflection_partition(8, 2), 7)
        rows = error_scaling_scan(state, base, "pairs", [1, 2, 3], repetitions=64)
        errors = [row["mean_abs_error"] for row in rows]
        for small, large in zip(errors, errors[1:]):
            assert 0.5 * 2 ** 1.5 <= large / small <= 1.5 * 2 ** 1.5

    def test_rows_match_raw_estimates(self, scan_state):
        # the scan averages the per-unitary raw values itself: the same
        # errors as estimate_raw's value on the same campaigns, bit for bit
        base = ProtocolParams("time_reversal", 16, 32, reflection_partition(8, 2), 106)
        rows = error_scaling_scan(scan_state, base, "n_unitaries", [16, 32], repetitions=8)
        seed_rng = np.random.default_rng(base.master_seed)
        for row in rows:
            params = replace(base, n_unitaries=row["value"])
            errors = np.empty(8)
            for rep in range(8):
                rep_params = replace(params, master_seed=int(seed_rng.integers(0, 2 ** 63 - 1)))
                estimate = estimate_raw(run_campaign(scan_state, rep_params), rep_params)
                errors[rep] = abs(estimate.value - row["exact"])
            assert row["mean_abs_error"] == float(errors.mean())
            assert row["std_of_mean"] == float(errors.std() / np.sqrt(8))

    def test_nonfinite_estimate_raises(self, scan_state, monkeypatch):
        monkeypatch.setattr(analysis, "raw_values", lambda records, params: np.array([np.nan]))
        base = ProtocolParams("reflection", 16, 32, reflection_partition(8, 2), 107)
        with pytest.raises(ValueError, match="not finite"):
            error_scaling_scan(scan_state, base, "n_unitaries", [16], repetitions=8)

    def test_repetition_floor(self, scan_state):
        base = ProtocolParams("reflection", 16, 32, reflection_partition(8, 2), 103)
        with pytest.raises(ValueError, match="repetitions"):
            error_scaling_scan(scan_state, base, "n_unitaries", [16], repetitions=4)

    @pytest.mark.parametrize("repetitions", [8.5, True])
    def test_repetitions_must_be_integers(self, scan_state, repetitions):
        base = ProtocolParams("reflection", 16, 32, reflection_partition(8, 2), 103)
        with pytest.raises(ValueError, match=re.escape(
                f"repetitions needs integer values, got {repetitions}")):
            error_scaling_scan(scan_state, base, "n_unitaries", [16], repetitions=repetitions)

    @pytest.mark.parametrize("axis", ["pairs", "n_unitaries", "n_shots"])
    def test_fractional_values_rejected(self, scan_state, axis):
        base = ProtocolParams("reflection", 16, 32, reflection_partition(8, 2), 105)
        with pytest.raises(ValueError, match=f"axis '{axis}' needs integer values, got 2.5"):
            error_scaling_scan(scan_state, base, axis, [2.0, 2.5], repetitions=8)

    def test_unknown_axis(self, scan_state):
        base = ProtocolParams("reflection", 16, 32, reflection_partition(8, 2), 104)
        with pytest.raises(ValueError, match="axis"):
            error_scaling_scan(scan_state, base, "temperature", [1], repetitions=8)


class TestSymmetryBreakingReport:
    def test_report_structure(self):
        base = HamiltonianSpec(num_sites=10, j=1.0, j_prime=4.0, delta=0.3, b_field=0.1)
        report = symmetry_breaking_report(base, pair_counts=(1, 2))
        assert report["pair_counts"] == [1, 2]
        assert len(report["reflection"]) == 2
        assert len(report["time_reversal"]) == 2

    def test_requires_breaking_field(self):
        with pytest.raises(ValueError, match="b_field"):
            symmetry_breaking_report(HamiltonianSpec(num_sites=8, j_prime=4.0))

    def test_strong_breaking_suppresses_reflection_only(self, ground_state_cache):
        # at a strong breaking field the reflection series collapses with
        # interval size while the time-reversal series survives
        base = HamiltonianSpec(num_sites=12, j=1.0, j_prime=4.0, delta=0.3, b_field=1.0)
        report = symmetry_breaking_report(base)
        reflection = np.abs(report["reflection"])
        time_reversal = np.abs(report["time_reversal"])
        assert reflection[0] > reflection[1] > reflection[2]
        assert time_reversal[2] > reflection[2]

    def test_unbroken_chain_series_agree_in_sign(self, ground_state_cache):
        from topoprobe.rdm import exact_invariant

        for j_prime in (0.25, 4.0):
            state = ground_state_cache(num_sites=12, j=1.0, j_prime=j_prime,
                                       delta=0.3).state
            for pairs in (1, 2, 3):
                part = reflection_partition(12, pairs)
                sign_r = np.sign(exact_invariant(state, part, "reflection").normalized)
                sign_t = np.sign(exact_invariant(state, part, "time_reversal").normalized)
                assert sign_r == sign_t
