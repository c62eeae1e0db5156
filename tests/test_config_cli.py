"""Configuration grammar, presets and the command-line entry point."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ramanlight.config import (ConfigError, PresetError, ScenarioConfig,
                               UnitMismatchError, parse_config, preset,
                               PRESETS)
from ramanlight.cli import main, run_scenario
from ramanlight import cli, tables
from ramanlight.atom import PumpModel
from ramanlight.spectra import group_index_at, physical_scale, pump_sweep


class TestParseConfig:
    def test_empty_gives_pulse_defaults(self):
        config = parse_config("")
        assert config.drive.omega_c == 30.0
        assert config.drive.delta == 0.2
        assert config.drive.omega_p == 0.01
        assert config.system.omega43 == 140.0
        assert config.scale.density == 5e17
        assert config.scale.length == 1e-3
        assert config.pulse.sigma == 1e-6
        assert config.pump.rate() == 0.0

    def test_unit_suffixed_key(self):
        config = parse_config("[drive]\nomega_c_gamma3 = 30\n")
        assert config.drive.omega_c == 30.0

    def test_missing_unit_suffix_rejected(self):
        with pytest.raises(UnitMismatchError) as err:
            parse_config("[drive]\nomega_c = 30\n")
        assert "omega_c_gamma3" in str(err.value)
        assert err.value.line == 2

    def test_wrong_unit_suffix_rejected(self):
        with pytest.raises(UnitMismatchError):
            parse_config("[scale]\nlength_s = 1e-3\n")

    @pytest.mark.parametrize("text, field", [
        ("[grid]\nhalf_width_gamma3 = -1\n", "half_width"),
        ("[grid]\nhalf_width_gamma3 = 0\n", "half_width"),
        ("[grid]\npoints = 0\n", "points"),
        ("[pulse]\nsigma_s = 0\n", "sigma"),
        ("[pulse]\nsigma_s = -1e-6\n", "sigma"),
        ("[pulse]\nwindow_s = 0\n", "window"),
    ])
    def test_bad_grid_and_pulse_values_rejected(self, text, field):
        # before any solve: scan once solved 2001 points, then failed on the grid
        with pytest.raises(ValueError, match=field):
            parse_config(text)

    @pytest.mark.parametrize("text, line, field", [
        ("[grid]\nhalf_width_gamma3 = 1\npoints = 0\n", 3, "points"),
        ("[scale]\nlength_m = -1\n", 2, "positive"),
        ("[scale]\nwavelength_m = 0\n", 2, "positive"),
        ("[scale]\nwavelength_m = 1e100\n", 2, "k must be finite"),
        ("[pulse]\nsamples = 1000\n", 2, "samples"),
        ("[pulse]\nsigma_s = 1e-6\nwindow_s = 10e-6\n[grid]\npoints = 5\n", 3,
         "window"),
        ("[doppler]\nnodes = 4\n", 2, "nodes"),
        ("[doppler]\nenabled = true\nmass_kg = 0\n", 3, "mass"),
        ("[doppler]\nenabled = true\nmass_kg = -1e-25\n", 3, "mass"),
        ("[drive]\nomega_c_gamma3 = 10\nomega_c_gamma3 = 20\n", 3, "twice"),
        ("[drive]\ndelta_p_gamma3 = 95\n", 2, "unknown key 'delta_p_gamma3'"),
        ("[drive]\nomega_c_gamma3 = 0\ndelta_gamma3 = 0\n", 3, "delta must be positive"),
        ("[drive]\nomega_p_gamma3 = 0\nomega_c_gamma3 = 10\n", 3, "omega_p must be positive"),
    ])
    def test_rejected_section_reports_its_last_line(self, text, line, field):
        # each was once accepted, or rejected without a line, and failed later
        with pytest.raises(ConfigError, match=field) as err:
            parse_config(text)
        assert err.value.line == line

    @pytest.mark.parametrize("wavelength", ["1e-120", "1e300"])
    def test_impossible_wavelength_reports_its_line(self, wavelength):
        # omega ** 3 overflows or underflows: once a bare OverflowError or
        # ZeroDivisionError from physical_scale
        with pytest.raises(ConfigError, match="no finite positive dipole") as err:
            parse_config(f"[scale]\ndensity_per_m3 = 5e17\nwavelength_m = {wavelength}\n")
        assert err.value.line == 3

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[drive]\n\nfoo_gamma3 = 1\n")
        assert err.value.line == 3

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config("[nonsense]\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError):
            parse_config("omega_c_gamma3 = 30\n")

    def test_comments_and_blank_lines(self):
        text = """
        # full-line comment
        [drive]
        omega_c_gamma3 = 20   # trailing comment
        delta_gamma3 = 0.1
        """
        config = parse_config(text)
        assert config.drive.omega_c == 20.0
        assert config.drive.delta == 0.1

    def test_pump_field_mode(self):
        text = """
        [pump]
        mode = five_level_field
        omega_op_gamma3 = 2.0
        gamma51_gamma3 = 0.5
        gamma52_gamma3 = 0.5
        """
        config = parse_config(text)
        assert config.pump.mode == "five-level-field"
        assert 0.0 < config.pump.rate() < 0.5

    def test_dipole_signs(self):
        config = parse_config("[system]\ndipole_signs = + + + -\n")
        assert config.system.dipole_signs == (1, 1, 1, -1)
        with pytest.raises(ConfigError):
            parse_config("[system]\ndipole_signs = + -\n")

    def test_doppler_block(self):
        text = """
        [doppler]
        enabled = true
        temperature_k = 320
        nodes = 32
        """
        config = parse_config(text)
        assert config.doppler is not None
        assert config.doppler.temperature == 320.0
        assert config.doppler.nodes == 32

    def test_output_section_rejected_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[drive]\n\n[output]\nsvg = true\n")
        assert err.value.line == 3

    def test_overlays_base_key_by_key(self):
        config = parse_config("[grid]\npoints = 41\n", preset("fig2a"))
        assert config.scenario == "fig2a"
        assert config.drive.omega_c == 20.0
        assert config.drive.delta == 0.1
        assert config.grid.points == 41
        assert config.grid.half_width is None
        assert parse_config("", preset("fig6")) == preset("fig6")

    def test_scale_keys_rebuild_the_dipole(self):
        config = parse_config("[scale]\nwavelength_m = 7.8e-7\n", preset("fig4"))
        assert config.scale == physical_scale(5e17, wavelength=7.8e-7)

    def test_doppler_follows_a_parsed_scale(self):
        config = parse_config("[scale]\nwavelength_m = 7.8e-7\n", preset("fig6"))
        assert config.doppler.shift_sigma(config.scale) == pytest.approx(39.01, abs=0.005)
        fig6 = preset("fig6")
        assert fig6.doppler.shift_sigma(fig6.scale) == pytest.approx(38.28, abs=0.005)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[drive]\nomega_c_gamma3 = fast\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_reports_line(self, text):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[drive]\ndelta_gamma3 = 0.2\nomega_c_gamma3 = {text}\n")
        assert err.value.line == 3
        assert "finite" in str(err.value)


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESETS:
            config = preset(name)
            assert config.scenario == name

    def test_fig2a_parameters(self):
        config = preset("fig2a")
        assert config.drive.omega_c == 20.0
        assert config.drive.delta == 0.1
        assert config.pump.rate() == 0.0
        assert config.drive.delta_c == 70.0

    def test_fig3_pump_rates(self):
        assert preset("fig3a").pump.rate() == 0.06
        assert preset("fig3c").pump.rate() == 0.4

    def test_fig5_coupling(self):
        assert preset("fig5").drive.omega_c == 55.0

    def test_fig6_doppler_on(self):
        config = preset("fig6")
        assert config.doppler is not None
        assert config.doppler.temperature == 320.0

    def test_unknown_preset_lists_available(self):
        with pytest.raises(PresetError) as err:
            preset("fig9")
        assert "fig2a" in str(err.value)


SMALL_SCAN = """
[grid]
points = 41
half_width_gamma3 = 0.35
"""


class TestCli:
    def test_scan_roundtrip_and_determinism(self, tmp_path):
        config_path = tmp_path / "small.cfg"
        config_path.write_text(SMALL_SCAN)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["scan", "--config", str(config_path),
                     "--out", str(out_a), "--svg"]) == 0
        assert main(["scan", "--config", str(config_path),
                     "--out", str(out_b), "--svg"]) == 0
        for name in ("scan_spectrum.csv", "scan_spectrum.svg", "scan_metrics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_headline_numbers_present_in_csv(self, tmp_path):
        config_path = tmp_path / "small.cfg"
        config_path.write_text(SMALL_SCAN)
        from ramanlight.config import load_config
        config = dataclasses.replace(load_config(config_path), scenario="scan")
        report = run_scenario(config, tmp_path / "out")
        stored = tables.read_metrics_csv(tmp_path / "out" / "scan_metrics.csv")
        for key, value in report.headline.items():
            assert stored[key] == value

    def test_parameter_echo_matches_preset(self):
        config = preset("fig2c")
        assert config.drive.omega_c == 30.0
        assert config.drive.delta == 0.2
        assert config.system.omega43 == 140.0
        assert config.system.gamma2_deph == 0.01

    def test_unknown_scenario_lists_every_runner(self, tmp_path):
        # once listed only the presets, though scan, pulse and sweep also run
        with pytest.raises(PresetError, match="scan") as err:
            run_scenario(ScenarioConfig(scenario="fig9"), tmp_path)
        assert all(name in str(err.value) for name in ("fig2a", "pulse", "sweep"))

    def test_unknown_scenario_fails_nonzero(self, tmp_path, capsys):
        code = main(["scenario", "fig9", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["error"] == "PresetError"
        assert "fig2a" in payload["message"]

    def test_config_error_fails_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[drive]\nomega_c = 30\n")
        code = main(["scan", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "UnitMismatchError"

    def test_scenario_config_overlays_preset(self, tmp_path):
        config_path = tmp_path / "grid.cfg"
        config_path.write_text("[grid]\npoints = 41\n")
        out = tmp_path / "out"
        assert main(["scenario", "fig2a", "--config", str(config_path),
                     "--out", str(out)]) == 0
        _, (grid, _, _) = tables.read_table(out / "fig2a_spectrum.csv")
        # 41 points spanning 5 delta of fig2a's delta = 0.1
        assert grid.size == 41
        assert grid[-1] == 0.5

    def test_runs_as_module(self):
        # -I without -P: -m finds the package in the working directory only
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-m", "ramanlight", "--help"],
            cwd=Path(__file__).resolve().parent.parent / "src",
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert "scenario" in done.stdout
        assert "RuntimeWarning" not in done.stderr

    def test_strong_coupling_scan_succeeds(self, tmp_path):
        # Omega_c = 150 gamma3 settles at truncation order 28
        config_path = tmp_path / "strong.cfg"
        config_path.write_text("[drive]\nomega_c_gamma3 = 150\n" + SMALL_SCAN)
        assert main(["scan", "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 0

    def test_run_figures_writes_a_command_with_its_defaults(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_figures.py"
        done = subprocess.run([sys.executable, "-I", str(script), "--only", "scan",
                               "--out", str(tmp_path / "figures")],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert main(["scan", "--out", str(tmp_path / "cli"), "--svg"]) == 0
        names = sorted(path.name for path in (tmp_path / "figures").iterdir())
        assert names == ["scan_metrics.csv", "scan_spectrum.csv", "scan_spectrum.svg"]
        for name in names:
            assert ((tmp_path / "figures" / name).read_bytes()
                    == (tmp_path / "cli" / name).read_bytes())

    @pytest.mark.parametrize("script", ["run_figures.py", "compare_outputs.py"])
    def test_script_runs_from_checkout(self, script, tmp_path):
        # -I: no PYTHONPATH, no user site, not the script's directory
        path = Path(__file__).resolve().parent.parent / "scripts" / script
        done = subprocess.run([sys.executable, "-I", str(path), "--help"],
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert "usage" in done.stdout

    def test_sweep_command(self, tmp_path):
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text("")
        code = main(["sweep", "--out", str(tmp_path / "out")])
        assert code == 0
        header, columns = tables.read_table(tmp_path / "out" / "sweep.csv")
        assert header[:2] == ["pump_rate_Gamma3", "group_index"]
        assert columns[0][0] == 0.0
        assert columns[0][-1] == 0.5

    def test_sweep_honours_lindblad_form(self, tmp_path):
        config_path = tmp_path / "jump.cfg"
        config_path.write_text("[pump]\nlindblad_form = true\n")
        code = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 0
        _, (rates, n_g) = tables.read_table(tmp_path / "out" / "sweep.csv")
        config, scale = parse_config(""), physical_scale(5e17)
        assert n_g.tolist() == [
            group_index_at(config.system, config.drive,
                           PumpModel.direct(rate, lindblad_form=True), scale).n_g
            for rate in rates]
        assert not np.allclose(n_g, pump_sweep(config.system, config.drive, rates,
                                               scale)[:, 1])


class TestFig4Scenario:
    def test_report_sign_pair_and_csv(self, tmp_path):
        # slow case positive group index, pumped case negative; every
        # headline number also lands in the metrics CSV
        report = run_scenario(preset("fig4"), tmp_path)
        assert report.headline["group_index_pump_off"] > 0
        assert report.headline["group_index_pump_on"] < 0
        stored = tables.read_metrics_csv(tmp_path / "fig4_metrics.csv")
        for key, value in report.headline.items():
            assert stored[key] == value
        names = {p.rsplit("/", 1)[-1] for p in report.files}
        assert {"fig4_pulse_slow.csv", "fig4_pulse_fast.csv",
                "fig4_pulse_reference.csv"} <= names

    def test_config_pump_sets_pumped_case_only(self, tmp_path):
        config_path = tmp_path / "pump.cfg"
        config_path.write_text("[pump]\npump_rate_gamma3 = 0.3\n[grid]\npoints = 201\n")
        assert main(["scenario", "fig4", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        stored = tables.read_metrics_csv(tmp_path / "fig4_metrics.csv")
        config = preset("fig4")
        for key, rate in (("group_index_pump_off", 0.0),
                          ("group_index_pump_on", 0.3)):
            expected = group_index_at(config.system, config.drive,
                                      PumpModel.direct(rate), physical_scale(5e17))
            assert stored[key] == expected.n_g


class TestPulseRunnerScans:
    @pytest.mark.parametrize("name, scans", [("fig5", 0), ("fig4", 3)])
    def test_scans_only_what_is_written(self, name, scans, tmp_path, monkeypatch):
        # pulses come from the evaluator: fig4 scans its two spectrum CSVs
        # and the transmission window, fig5 writes no spectrum
        calls = []
        scan = cli.scan_evaluator
        monkeypatch.setattr(cli, "scan_evaluator",
                            lambda *args: calls.append(args) or scan(*args))
        run_scenario(preset(name), tmp_path)
        assert len(calls) == scans


class TestDetuningGrids:
    """Every detuning grid is exactly antisymmetric, so each point and its
    mirror share one solve and an odd grid's midpoint is 0.0."""

    @pytest.mark.parametrize("points", [1, 2, 201, 2001])
    def test_scan_and_pulse_band_grids(self, points):
        config = preset("fig2a")
        config = dataclasses.replace(config, grid=dataclasses.replace(config.grid,
                                                                      points=points))
        for grid in (cli._scan_grid(config), cli._pulse_band_grid(config)):
            assert grid.size == points
            assert np.array_equal(grid, -grid[::-1])

    def test_fig4_scans_with_its_window(self, tmp_path, monkeypatch):
        grids = []
        scan = cli.scan_evaluator
        monkeypatch.setattr(cli, "scan_evaluator",
                            lambda evaluator, grid: grids.append(grid) or scan(evaluator, grid))
        run_scenario(preset("fig4"), tmp_path)
        assert [grid.size for grid in grids] == [2001, 1201, 2001]
        for grid in grids:
            assert np.array_equal(grid, -grid[::-1])
            assert grid[grid.size // 2] == 0.0


class TestFig5Scenario:
    def test_pump_off_overlay_runs_one_raman_case(self, tmp_path):
        config_path = tmp_path / "pump_off.cfg"
        config_path.write_text("[pump]\npump_rate_gamma3 = 0\n[grid]\npoints = 201\n")
        assert main(["scenario", "fig5", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        stored = tables.read_metrics_csv(tmp_path / "fig5_metrics.csv")
        assert [key for key in stored if key.startswith("group_index")] == [
            "group_index_eit_0p5", "group_index_eit_1p0",
            "group_index_two_coupling_r0"]


class TestFig6Scenario:
    def test_doppler_disabled_writes_stationary_column_only(self, tmp_path):
        config_path = tmp_path / "no_doppler.cfg"
        config_path.write_text("[doppler]\nenabled = false\n")
        assert main(["scenario", "fig6", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        header, _ = tables.read_table(tmp_path / "fig6_sweep.csv")
        assert header == ["pump_rate_Gamma3", "group_index"]
        stored = tables.read_metrics_csv(tmp_path / "fig6_metrics.csv")
        assert list(stored) == ["pump_rate_bound_gamma3",
                                "zero_crossing_stationary_gamma3",
                                "group_index_stationary_r0"]
