"""Command-line surface: config validation, artifacts, determinism."""
import json
import os
import tracemalloc
from pathlib import Path

import pytest

from topoprobe import groundstate
from topoprobe.cli import main
from topoprobe.config import ConfigError, load_config
from topoprobe.partitions import reflection_partition
from topoprobe.rdm import MAX_INTERVAL

TINY_CONFIG = """
[hamiltonian]
num_sites = 8
j = 1.0
j_prime = 5.0
delta = 0.25

[partition]
pairs = 2

[protocol]
kind = reflection
n_unitaries = 32
n_shots = 32

[run]
master_seed = 5
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def strip_timestamp(payload):
    clean = dict(payload)
    clean.pop("created_at")
    return clean


class TestConfigParsing:
    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[hamiltonians]\nnum_sites = 8\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[hamiltonian]\nnum_sites = 8\njay = 1.0\n")
        with pytest.raises(ConfigError, match="hamiltonian.jay"):
            load_config(path)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[hamiltonian]\nnum_sites = eight\n")
        with pytest.raises(ConfigError, match="hamiltonian.num_sites"):
            load_config(path)

    def test_negative_master_seed_names_key(self, tmp_path, capsys):
        path = tmp_path / "negative.cfg"
        path.write_text(TINY_CONFIG.replace("master_seed = 5", "master_seed = -5"))
        with pytest.raises(ConfigError, match=r"run\.master_seed: '-5' \(master_seed must be "
                                              r"a non-negative integer, got -5\)"):
            load_config(path)
        out = tmp_path / "out"
        assert main(["ground-state", "--config", str(path), "--out", str(out)]) == 2
        assert "run.master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_non_invariant_kinds_rejected(self, tmp_path):
        cases = [
            ("[protocol]\nkind = purity\n", "protocol.kind"),
            ("[sweep]\nkinds = reflection, purity\n", "sweep.kinds"),
            ("[ramp]\nt_final = 1.0\nmonitor = time_reversal, bogus\n", "ramp.monitor"),
        ]
        for body, key in cases:
            path = tmp_path / "bad.cfg"
            path.write_text(body)
            with pytest.raises(ConfigError, match=key):
                load_config(path)

    def test_repeated_kind_rejected(self, tmp_path):
        # a sweep's correlation-length series are told apart by kind
        for body, key in (("[sweep]\nkinds = time_reversal, reflection, time_reversal\n",
                           "sweep.kinds"),
                          ("[ramp]\nt_final = 1.0\nmonitor = d2, d2\n", "ramp.monitor")):
            path = tmp_path / "bad.cfg"
            path.write_text(body)
            with pytest.raises(ConfigError, match=key + ".*a kind is listed more than once"):
                load_config(path)

    def test_jobs_key_removed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nmaster_seed = 1\njobs = 2\n")
        with pytest.raises(ConfigError, match="run.jobs"):
            load_config(path)

    def test_layout_must_match_kind(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG.replace("kind = reflection", "kind = d2")
                        .replace("pairs = 2", "pairs = 2\nlayout = reflection"))
        with pytest.raises(ConfigError, match=r"partition\.layout = reflection .*"
                                              r"protocol\.kind = d2 \(three_segment\)"):
            load_config(path)
        path.write_text(TINY_CONFIG.replace("pairs = 2", "pairs = 2\nlayout = mirror"))
        with pytest.raises(ConfigError, match="partition.layout"):
            load_config(path)
        path.write_text("[partition]\npairs = 1\nlayout = mirror\n")
        with pytest.raises(ConfigError, match=r"\(reflection or three_segment\)"):
            load_config(path)
        path.write_text("[partition]\npairs = 1\nlayout = three_segment\n")
        assert load_config(path).get("partition", "layout") == "three_segment"
        path.write_text(TINY_CONFIG.replace("kind = reflection", "kind = klein_bottle")
                        .replace("pairs = 2", "pairs = 2\nlayout = three_segment"))
        assert load_config(path).partition(8).segments == ((1, 3), (3, 5), (5, 7))

    def test_shipped_configs_parse(self):
        config_dir = Path(__file__).resolve().parent.parent / "configs"
        names = sorted(p.name for p in config_dir.glob("*.cfg"))
        assert names == [
            "fig1c_desk.cfg", "fig1e_desk.cfg", "fig2c_desk.cfg", "fig2d_desk.cfg",
            "fig3_desk.cfg", "fig4_desk.cfg", "fig5_desk.cfg",
        ]
        for name in names:
            config = load_config(config_dir / name)
            assert config.master_seed() >= 0


class TestGroundStateCommand:
    def test_smoke(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["ground-state", "--config", str(tiny_config), "--out", str(out)]) == 0
        payload = read_json(out / "ground_state.json")
        assert payload["result"]["residual_norm"] <= 1e-10
        assert payload["config"]["hamiltonian"]["num_sites"] == 8
        assert payload["master_seed"] == 5

    def test_sector_keys(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["ground-state", "--config", str(tiny_config), "--out", str(out / "b0")])
        result = read_json(out / "b0" / "ground_state.json")["result"]
        assert result["sector"] == 0 and result["sector_gap"] > 0
        path = tmp_path / "b.cfg"
        path.write_text(TINY_CONFIG.replace("delta = 0.25", "delta = 0.25\nb_field = 0.1"))
        main(["ground-state", "--config", str(path), "--out", str(out / "b")])
        result = read_json(out / "b" / "ground_state.json")["result"]
        assert result["sector"] is None and result["sector_gap"] is None

    def test_odd_sites_exit_code_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG.replace("num_sites = 8", "num_sites = 7"))
        assert main(["ground-state", "--config", str(path)]) == 2
        assert "num_sites" in capsys.readouterr().err

    def test_tol_below_rounding_exits_2(self, tmp_path, capsys):
        path = tmp_path / "large.cfg"
        path.write_text(TINY_CONFIG.replace("j = 1.0\n", "j = 1.0e6\n"))
        assert main(["ground-state", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error: tol 1e-10 is below the rounding level" in capsys.readouterr().err

    def test_byte_identical_modulo_timestamp(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["ground-state", "--config", str(tiny_config), "--out", str(out_a)])
        main(["ground-state", "--config", str(tiny_config), "--out", str(out_b)])
        payload_a = strip_timestamp(read_json(out_a / "ground_state.json"))
        payload_b = strip_timestamp(read_json(out_b / "ground_state.json"))
        assert json.dumps(payload_a, sort_keys=True) == json.dumps(payload_b, sort_keys=True)


    def test_reports_the_solve_the_other_commands_measure(self, tiny_config, tmp_path):
        # ground-state and the measured state share one seed-0 solve, while
        # the artifact still records the master seed
        groundstate._solve.cache_clear()
        try:
            out = tmp_path / "out"
            assert main(["ground-state", "--config", str(tiny_config), "--out", str(out)]) == 0
            assert main(["invariants", "--exact", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
            assert groundstate._solve.cache_info().misses == 1
            payload = read_json(out / "ground_state.json")
            solved = groundstate.ground_state(load_config(tiny_config).hamiltonian(), seed=0)
            assert payload["result"]["iterations"] == solved.iterations
            assert payload["result"]["residual_norm"] == solved.residual_norm
            assert payload["master_seed"] == 5
        finally:
            groundstate._solve.cache_clear()

    @pytest.mark.parametrize("key", ["neel_delta", "neel_weight"])
    def test_staggered_field_key_alone_exits_2(self, tmp_path, capsys, key):
        # the static field is neel_delta * neel_weight, and neel_weight
        # defaults to 0, so either key alone would change nothing
        path = tmp_path / "field.cfg"
        path.write_text(TINY_CONFIG.replace("delta = 0.25", f"delta = 0.25\n{key} = 0.5"))
        out = tmp_path / "out"
        assert main(["ground-state", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hamiltonian.neel_delta and hamiltonian.neel_weight ")
        assert not out.exists()

    def test_staggered_field_keys_together_move_the_energy(self, tiny_config, tmp_path):
        path = tmp_path / "field.cfg"
        path.write_text(TINY_CONFIG.replace("delta = 0.25",
                                            "delta = 0.25\nneel_delta = 5.0\nneel_weight = 0.5"))
        energies = []
        for name, config in (("plain", tiny_config), ("field", path)):
            out = tmp_path / name
            assert main(["ground-state", "--config", str(config), "--out", str(out)]) == 0
            energies.append(read_json(out / "ground_state.json")["result"]["energy"])
        assert energies[1] < energies[0] - 1.0


class TestInvariantsCommand:
    def test_exact_sanity_bound(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["invariants", "--config", str(tiny_config), "--exact",
                     "--out", str(out)]) == 0
        payload = read_json(out / "invariants.json")
        assert -1.05 <= payload["result"]["normalized"] <= 1.05

    def test_sampled_echoes_provenance(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["invariants", "--config", str(tiny_config), "--sampled",
                     "--out", str(out)]) == 0
        result = read_json(out / "invariants.json")["result"]
        assert result["n_unitaries"] == 32
        assert result["n_shots"] == 32
        assert result["master_seed"] == 5

    def test_seed_override(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["invariants", "--config", str(tiny_config), "--sampled",
              "--seed", "99", "--out", str(out)])
        assert read_json(out / "invariants.json")["result"]["master_seed"] == 99

    def test_exact_reference_wiring(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["invariants", "--config", str(tiny_config), "--sampled",
              "--exact-reference", "--out", str(out)])
        result = read_json(out / "invariants.json")["result"]
        assert "exact_reference" in result
        assert abs(result["value"] - result["exact_reference"]) <= 5 * result["std_error"]


class TestSweepCommand:
    def test_small_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_CONFIG + "\n[sweep]\nmode = exact\naxis_j_prime = 0.5, 2.0\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "j_prime"
        assert len(lines) == 3
        sidecar = read_json(out / "sweep.json")
        assert sidecar["config"]["sweep"]["axis_j_prime"] == [0.5, 2.0]

    def test_sweep_csv_byte_identical_across_runs(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_CONFIG + "\n[sweep]\nkinds = reflection, time_reversal\n"
                                      "mode = sampled\naxis_j_prime = 0.5, 2.0\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(path), "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", str(path), "--out", str(out_b)]) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_fractional_pairs_axis_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_CONFIG + "\n[sweep]\nmode = exact\naxis_pairs = 1, 1.5, 2\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: axis 'pairs' needs integer values, got 1.5\n"
        assert not out.exists()

    def test_jobs_flag_removed(self, tiny_config, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(tiny_config), "--jobs", "2",
                  "--out", str(tmp_path / "out")])

    def test_correlation_sidecar_on_pairs_axis(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(TINY_CONFIG.replace("num_sites = 8", "num_sites = 12")
                        + "\n[sweep]\nmode = exact\naxis_pairs = 1, 2, 3\n")
        out = tmp_path / "out"
        main(["sweep", "--config", str(path), "--out", str(out)])
        sidecar = read_json(out / "sweep.json")
        result = sidecar["result"]
        # one group (no other axis): fitted, or listed as skipped with a reason
        fits = result.get("correlation_lengths", [])
        skipped = result.get("correlation_lengths_skipped", [])
        assert len(fits) + len(skipped) == 1
        assert all(entry["reason"] for entry in skipped)

    def test_unfittable_groups_listed_as_skipped(self, tmp_path):
        config = Path(__file__).resolve().parent.parent / "configs" / "fig2d_desk.cfg"
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        result = read_json(out / "sweep.json")["result"]
        skipped = result["correlation_lengths_skipped"]
        strong = [entry for entry in skipped
                  if entry["kind"] == "time_reversal" and entry["j_prime"] == 3.0]
        assert len(strong) == 1
        assert strong[0]["pair_counts"] == [1.0, 2.0, 3.0]
        assert len(strong[0]["values"]) == 3
        assert any(abs(v) >= 1 for v in strong[0]["values"])
        assert "|value| < 1" in strong[0]["reason"]
        fitted = {(fit["kind"], fit["j_prime"]) for fit in result.get("correlation_lengths", [])}
        assert not fitted & {(entry["kind"], entry["j_prime"]) for entry in skipped}
        assert all(fit["length_scale"] > 0 for fit in result.get("correlation_lengths", []))


class TestOtherCommands:
    def test_twirl_check(self, tmp_path):
        out = tmp_path / "out"
        assert main(["twirl-check", "--samples", "20000", "--seed", "1",
                     "--out", str(out)]) == 0
        result = read_json(out / "twirl_check.json")["result"]
        assert result["phi"]["frobenius_error"] <= 0.1
        assert result["psi"]["frobenius_error"] <= 0.1

    def test_twirl_check_records_default_seed(self, tmp_path):
        out = tmp_path / "out"
        assert main(["twirl-check", "--samples", "1000", "--out", str(out)]) == 0
        assert read_json(out / "twirl_check.json")["master_seed"] == 0

    def test_adiabatic(self, tmp_path):
        path = tmp_path / "ramp.cfg"
        path.write_text(TINY_CONFIG + "\n[ramp]\nt_final = 1.0\ndt = 0.02\n"
                                      "neel_delta = 40.0\nsample_times = 0, 1\n")
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "adiabatic.csv").read_text().splitlines()
        assert len(lines) >= 3
        result = read_json(out / "adiabatic.json")["result"]
        assert result["pinning_active"] is True
        assert result["sector"] == 0
        assert 0.0 <= result["max_norm_drift"] <= 1e-8

    def test_adiabatic_with_b_field_runs_in_full_space(self, tmp_path):
        path = tmp_path / "ramp.cfg"
        path.write_text(TINY_CONFIG.replace("delta = 0.25", "delta = 0.25\nb_field = 0.1")
                        + "\n[ramp]\nt_final = 1.0\ndt = 0.05\n")
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(path), "--out", str(out)]) == 0
        result = read_json(out / "adiabatic.json")["result"]
        assert result["sector"] is None
        assert 0.0 <= result["max_norm_drift"] <= 1e-8

    @pytest.mark.parametrize("key", ["neel_delta", "neel_weight"])
    def test_adiabatic_rejects_hamiltonian_field_keys(self, tmp_path, capsys, key):
        path = tmp_path / "ramp.cfg"
        path.write_text(TINY_CONFIG.replace("delta = 0.25", f"delta = 0.25\n{key} = 0.5")
                        + "\n[ramp]\nt_final = 1.0\ndt = 0.05\n")
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: hamiltonian.{key} has no effect in an adiabatic run")
        assert "ramp.neel_delta" in err
        assert not out.exists()

    def test_adiabatic_monitors_each_kind_on_its_layout(self, tmp_path):
        path = tmp_path / "ramp.cfg"
        path.write_text(TINY_CONFIG + "\n[ramp]\nt_final = 1.0\ndt = 0.05\n"
                                      "sample_times = 0, 1\nmonitor = reflection, d2\n")
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "adiabatic.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["reflection", "d2"] * 2

    @pytest.mark.parametrize("ramp, message", [
        ("dt = 0.6", "dt=0.6 does not divide the evolution time 1.0"),
        ("dt = 0.3", "dt=0.3 does not divide the evolution time 1.0"),
        ("exponent = 3", "ramp exponent must be a positive even integer, got 3"),
        ("exponent = 1", "ramp exponent must be a positive even integer, got 1"),
        ("exponent = 0", "ramp exponent must be a positive even integer, got 0"),
        ("exponent = -2", "ramp exponent must be a positive even integer, got -2"),
    ])
    def test_adiabatic_bad_ramp_exits_2(self, tmp_path, capsys, ramp, message):
        path = tmp_path / "ramp.cfg"
        path.write_text(TINY_CONFIG + f"\n[ramp]\nt_final = 1.0\n{ramp}\n")
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("t_final", ["inf", "1e308"])
    def test_adiabatic_infinite_step_count_exits_2(self, tmp_path, capsys, t_final):
        path = tmp_path / "ramp.cfg"
        path.write_text(TINY_CONFIG + f"\n[ramp]\nt_final = {t_final}\ndt = 0.01\n")
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(path), "--out", str(out)]) == 2
        message = f"t_total={float(t_final)} / dt=0.01 is not a finite step count"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_error_scan(self, tmp_path):
        path = tmp_path / "scan.cfg"
        path.write_text(TINY_CONFIG + "\n[error_scan]\naxis = n_unitaries\n"
                                      "values = 8, 16\nrepetitions = 8\n")
        out = tmp_path / "out"
        assert main(["error-scan", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "error_scan.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_error_scan_fractional_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scan.cfg"
        path.write_text(TINY_CONFIG + "\n[error_scan]\naxis = n_unitaries\n"
                                      "values = 8, 16.5\nrepetitions = 8\n")
        out = tmp_path / "out"
        assert main(["error-scan", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err \
            == "error: axis 'n_unitaries' needs integer values, got 16.5\n"
        assert not out.exists()

    def test_norm_drift_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch):
        from topoprobe import dynamics

        # a negative tolerance makes every snapshot's drift exceed it
        monkeypatch.setattr(dynamics, "NORM_DRIFT_TOL", -1.0)
        path = tmp_path / "ramp.cfg"
        path.write_text(TINY_CONFIG + "\n[ramp]\nt_final = 0.1\ndt = 0.02\n")
        assert main(["adiabatic", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: norm drift")
        assert "Traceback" not in err

    def test_exact_time_reversal_on_whole_chain(self, tmp_path):
        # 14 sites: the column side of the cut keeps the contraction at 2 * 4^7 entries
        path = tmp_path / "whole.cfg"
        path.write_text(TINY_CONFIG.replace("num_sites = 8", "num_sites = 14")
                        .replace("pairs = 2", "pairs = 7")
                        .replace("kind = reflection", "kind = time_reversal"))
        out = tmp_path / "out"
        assert main(["invariants", "--config", str(path), "--exact", "--out", str(out)]) == 0
        result = read_json(out / "invariants.json")["result"]
        assert result["kind"] == "time_reversal"
        assert result["purity_first"] == pytest.approx(result["purity_second"], abs=1e-12)

    def test_campaign_interval_above_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.cfg"
        path.write_text(TINY_CONFIG.replace("num_sites = 8", "num_sites = 14")
                        .replace("pairs = 2", "pairs = 7"))
        assert main(["campaign-export", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "exceeds limit" in capsys.readouterr().err

    def test_campaign_beyond_physical_memory_exits_2(self, tmp_path, capsys):
        # fig1e at 2**32 unitaries: 128 B of outcomes and 2 x 32 B of stream
        # words per unitary, refused before any of it is allocated
        config = Path(__file__).resolve().parent.parent / "configs" / "fig1e_desk.cfg"
        path = tmp_path / "huge.cfg"
        path.write_text(config.read_text().replace("n_unitaries = 512",
                                                   "n_unitaries = 4294967296"))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["campaign-export", "--config", str(path), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: a campaign of 4294967296 unitaries needs "
                              f"{2 ** 32 * (16 * 8 + 2 * 32)} bytes for its outcome table "
                              "and stream words, more than the ")
        assert err.endswith(" bytes of physical memory\n")
        assert peak < 8 * 2 ** 20
        assert not out.exists()

    def test_ramp_snapshots_beyond_physical_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        from topoprobe import dynamics

        # N = 20: 16 MiB per snapshot, and one more distinct sample step than
        # fits; the check comes before the stepper, which must not be built
        monkeypatch.setattr(dynamics, "TrotterStepper", None)
        available = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        count = available // 2 ** 24 + 1
        path = tmp_path / "ramp.cfg"
        path.write_text(TINY_CONFIG.replace("num_sites = 8", "num_sites = 20")
                        + f"\n[ramp]\nt_final = {count - 1}\ndt = 1\n"
                        + f"sample_times = {', '.join(str(t) for t in range(count))}\n")
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["adiabatic", "--config", str(path), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {count} ramp snapshots of {2 ** 20} amplitudes need {count * 2 ** 24} "
            f"bytes, more than the {available} bytes of physical memory\n")
        assert peak < 8 * 2 ** 20
        assert not out.exists()

    def test_out_of_memory_exits_2_without_traceback(self, tiny_config, tmp_path, capsys,
                                                     monkeypatch):
        from topoprobe import protocols

        def refuse(state, params):
            raise MemoryError("Unable to allocate 512. GiB for an array")

        monkeypatch.setattr(protocols, "run_campaign", refuse)
        out = tmp_path / "out"
        assert main(["campaign-export", "--config", str(tiny_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: out of memory: Unable to allocate 512. GiB "
                                           "for an array\n")
        assert not out.exists()

    def test_unnormalizable_sampled_estimate_exits_2(self, tmp_path, capsys):
        # 2 unitaries x 2 shots at seed 1: the mean sampled segment purity is -0.5
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY_CONFIG.replace("n_unitaries = 32", "n_unitaries = 2")
                        .replace("n_shots = 32", "n_shots = 2")
                        .replace("master_seed = 5", "master_seed = 1"))
        out = tmp_path / "out"
        assert main(["invariants", "--config", str(path), "--sampled", "--out", str(out)]) == 2
        assert main(["campaign-export", "--config", str(path), "--out", str(out)]) == 0
        assert main(["campaign-analyze", "--records", str(out / "campaign.records"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error: mean sampled segment purity -0.5 is not positive "
                         "(2 unitaries x 2 shots)") == 2
        assert "Traceback" not in err
        assert not (out / "invariants.json").exists()
        assert not (out / "campaign_analysis.json").exists()

    @pytest.mark.parametrize("command, body, message", [
        (["sweep"], TINY_CONFIG + "\n[sweep]\nmode = exact\n",
         "sweep needs at least one axis_* key"),
        (["ground-state"], TINY_CONFIG.replace("num_sites = 8\n", ""),
         "missing required key hamiltonian.num_sites"),
        (["invariants", "--exact"], TINY_CONFIG.replace("pairs = 2\n", ""),
         "missing required key partition.pairs"),
        (["invariants", "--exact"], TINY_CONFIG.replace("pairs = 2", "pairs = 5"),
         "partition: pairs=5 does not fit in half the chain (4)"),
        (["campaign-analyze"], "0,1,0,32\n", "record file missing JSON header line"),
        (["error-scan"], TINY_CONFIG + "\n[error_scan]\naxis = n_shots\nvalues = 64, 1e30\n"
                                       "repetitions = 8\n",
         f"n_shots must be <= 2**63 - 1 (int64 counts), got {int(1e30)}"),
    ])
    def test_bad_input_exits_2_with_message(self, tmp_path, capsys, command, body, message):
        path = tmp_path / "input"
        path.write_text(body)
        out = tmp_path / "out"
        source = "--records" if command == ["campaign-analyze"] else "--config"
        assert main(command + [source, str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_flag_exits_2_for_every_command(self, tiny_config, tmp_path, capsys):
        config = ["--config", str(tiny_config)]
        for argv in (["ground-state"] + config, ["invariants", "--exact"] + config,
                     ["sweep"] + config, ["adiabatic"] + config, ["error-scan"] + config,
                     ["campaign-export"] + config, ["twirl-check"],
                     ["campaign-analyze", "--records", str(tmp_path / "absent.records")]):
            out = tmp_path / argv[0]
            assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
            assert capsys.readouterr().err == ("error: --seed must be a non-negative integer, "
                                               "got -1\n")
            assert not out.exists()

    def test_missing_records_file_exits_2_without_traceback(self, tmp_path, capsys):
        missing = tmp_path / "absent.records"
        assert main(["campaign-analyze", "--records", str(missing),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "absent.records" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("body, where", [
        ("n_shots = 2\n" + TINY_CONFIG, "line 1: a key before any [section] header"),
        (TINY_CONFIG.replace("j = 1.0\n", "j = 1.0\nj = 2.0\n"),
         "line 5: option 'j' in section 'hamiltonian' already exists"),
        (TINY_CONFIG + "\n[run]\nout = x\n", "line 19: section 'run' already exists"),
        (TINY_CONFIG.replace("delta = 0.25", "delta 0.25"), "line 6: expected 'key = value'"),
        # taken literally, not interpolated
        (TINY_CONFIG.replace("n_shots = 32", "n_shots = %(x)s"),
         "bad value for protocol.n_shots: '%(x)s'"),
    ], ids=["key-before-section", "duplicate-key", "duplicate-section", "no-equals",
            "interpolation"])
    def test_malformed_config_exits_2_naming_the_line(self, tmp_path, capsys, body, where):
        path = tmp_path / "bad.cfg"
        path.write_text(body)
        assert main(["ground-state", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and where in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_record_interval_above_limit_exits_2_on_header(self, tmp_path, capsys):
        # 80 sites first: at 26 sites a missing check builds a 1.07 GB table
        for num_sites in (80, 2 * (MAX_INTERVAL + 1)):
            path = tmp_path / f"long{num_sites}.records"
            partition = reflection_partition(num_sites, num_sites // 2)
            header = {"kind": "reflection", "n_unitaries": 2, "n_shots": 2, "master_seed": 0,
                      "num_sites": num_sites, "pairs": num_sites // 2,
                      "segments": [list(seg) for seg in partition.segments]}
            path.write_text("#" + json.dumps(header) + "\n0,1,0,2\n")
            assert main(["campaign-analyze", "--records", str(path),
                         "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == (
                f"error: line 1: bad record header (ValueError: interval of {num_sites} "
                f"sites exceeds limit {MAX_INTERVAL})\n")
        assert not (tmp_path / "out").exists()

    def test_non_invariant_kind_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "purity.cfg"
        path.write_text(TINY_CONFIG.replace("kind = reflection", "kind = purity"))
        for argv in (["campaign-export"], ["invariants", "--sampled"]):
            out = tmp_path / argv[0]
            assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
            assert "protocol.kind" in capsys.readouterr().err
            assert not out.exists()

    def test_partition_follows_kind(self, tmp_path):
        # no partition.layout: d2 is measured on its three-segment layout
        path = tmp_path / "d2.cfg"
        path.write_text(TINY_CONFIG.replace("kind = reflection", "kind = d2")
                        .replace("pairs = 2", "pairs = 1"))
        out = tmp_path / "out"
        assert main(["invariants", "--config", str(path), "--exact", "--out", str(out)]) == 0
        assert read_json(out / "invariants.json")["result"]["kind"] == "d2"
        assert main(["campaign-export", "--config", str(path), "--out", str(out)]) == 0
        header = json.loads((out / "campaign.records").read_text().splitlines()[0][1:])
        assert header["segments"] == [[3, 4], [4, 5], [5, 6]]

    def test_layout_against_kind_exits_2_for_every_command(self, tmp_path, capsys):
        path = tmp_path / "d2.cfg"
        path.write_text(TINY_CONFIG.replace("kind = reflection", "kind = d2")
                        .replace("pairs = 2", "pairs = 1\nlayout = reflection")
                        + "\n[sweep]\naxis_pairs = 1, 2\n")
        for argv in (["sweep"], ["invariants", "--exact"], ["campaign-export"]):
            out = tmp_path / argv[0]
            assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "partition.layout" in err and "protocol.kind" in err
            assert not out.exists()

    def test_campaign_round_trip(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["campaign-export", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
        assert main(["campaign-analyze", "--records", str(out / "campaign.records"),
                     "--out", str(out)]) == 0
        analysis = read_json(out / "campaign_analysis.json")["result"]
        live = tmp_path / "live"
        main(["invariants", "--config", str(tiny_config), "--sampled", "--out", str(live)])
        live_result = read_json(live / "invariants.json")["result"]
        assert analysis["normalized_value"] == pytest.approx(live_result["value"], abs=1e-12)


class TestSharedResolution:
    def test_out_from_flag_then_config_then_cwd(self, tmp_path, monkeypatch):
        path = tmp_path / "out.cfg"
        path.write_text(TINY_CONFIG + f"out = {tmp_path / 'configured'}\n")
        assert main(["ground-state", "--config", str(path)]) == 0
        assert (tmp_path / "configured" / "ground_state.json").exists()
        assert main(["ground-state", "--config", str(path), "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "ground_state.json").exists()
        monkeypatch.chdir(tmp_path)
        assert main(["twirl-check", "--samples", "1000"]) == 0
        assert (tmp_path / "twirl_check.json").exists()

    def test_seed_from_flag_when_config_has_none(self, tmp_path, capsys):
        path = tmp_path / "unseeded.cfg"
        path.write_text(TINY_CONFIG.replace("master_seed = 5\n", ""))
        out = tmp_path / "out"
        assert main(["ground-state", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: missing required key run.master_seed\n"
        assert not out.exists()
        assert main(["ground-state", "--config", str(path), "--seed", "7",
                     "--out", str(out)]) == 0
        assert read_json(out / "ground_state.json")["master_seed"] == 7

    def test_commands_are_looked_up_on_the_module(self, tmp_path, monkeypatch):
        # the parser takes each cmd_* from the module when main builds it, so
        # a wrapper installed on the module (as a span tracer does) is called
        from topoprobe import cli

        calls = []
        original = cli.cmd_twirl_check

        def wrapped(*args):
            calls.append(args[1:3])
            return original(*args)

        monkeypatch.setattr(cli, "cmd_twirl_check", wrapped)
        assert main(["twirl-check", "--samples", "1000", "--out", str(tmp_path)]) == 0
        assert calls == [(None, None)]
