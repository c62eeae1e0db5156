"""Configuration grammar, presets and the command-line entry point."""

import json

import numpy as np
import pytest

from ramanlight.config import (ConfigError, PresetError, UnitMismatchError,
                               parse_config, preset, PRESET_BUILDERS)
from ramanlight.cli import main, run_scenario
from ramanlight import tables
from ramanlight.atom import PumpModel
from ramanlight.spectra import group_index_at, physical_scale


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
        assert config.doppler_enabled
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

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[drive]\nomega_c_gamma3 = fast\n")
        assert err.value.line == 2


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESET_BUILDERS:
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
        assert config.doppler_enabled
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
        import dataclasses
        config = dataclasses.replace(load_config(config_path), scenario="scan")
        report = run_scenario(config, tmp_path / "out")
        stored = tables.read_metrics_csv(tmp_path / "out" / "scan_metrics.csv")
        for key, value in report.headline.items():
            assert stored[key] == value

    def test_parameter_echo_matches_preset(self):
        config = preset("fig2c")
        assert config.drive.omega_c == 30.0
        assert config.drive.delta == 0.2
        from ramanlight.cli import _flatten
        flat = _flatten(config)
        assert flat["drive.omega_c"] == 30.0
        assert flat["drive.delta"] == 0.2
        assert flat["system.omega43"] == 140.0
        assert flat["system.gamma2_deph"] == 0.01

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

    def test_sweep_command(self, tmp_path):
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text("")
        code = main(["sweep", "--out", str(tmp_path / "out")])
        assert code == 0
        header, columns = tables.read_table(tmp_path / "out" / "sweep.csv")
        assert header[:2] == ["pump_rate_Gamma3", "group_index"]
        assert columns[0][0] == 0.0
        assert columns[0][-1] == 0.5


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
