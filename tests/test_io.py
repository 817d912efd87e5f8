"""Config grammar, sweep CSV serialization, mode files, and SVG output."""

import dataclasses
import hashlib
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_linalg import _traced_peak

from epmodes import io
from epmodes.io import (_FIELD_OF_KEY, _SECTIONS, ParseError, csv_columns,
                        parse_config, parse_output_options, read_mode_file,
                        read_sweep_csv, read_text, write_mode_file,
                        write_sweep_csv)
from epmodes.models import CavitySpec, Mode, build_ellipse_grid, \
    solve_cavity_modes, two_level_modes, TwoLevelParams
from epmodes.models import InvalidSetting
from epmodes.sweep import (ModeDiagnostics, SweepConfig, SweepRecord,
                           field_series, mode_diagnostics, run_sweep)
from epmodes.svgplot import _PALETTE, emit_svg


BASE = """
[model]
model = two_level
gamma = 2

[sweep]
delta_range = -0.1:0.1:0.05
"""


class TestParseConfig:
    def test_defaults_from_model_only(self):
        cfg = parse_config("[model]\nmodel = two_level\n")
        assert cfg.N_bins == 720
        assert cfg.K_max == 50
        assert cfg.alphas == (1.0, 1.5, 2.0)
        assert cfg.node_cutoff == 1e-12
        assert cfg.g == 1.0 and cfg.gamma == 0.0
        # canonical window: -1 to 1 in steps of 0.005
        assert cfg.grid.size == 401
        assert cfg.grid[0] == -1.0 and cfg.grid[-1] == 1.0
        assert 0.0 in cfg.grid

    def test_empty_sections_keep_defaults(self):
        text = ("[model]\nmodel = cavity\n[sweep]\n[analysis]\n[output]\n")
        cfg = parse_config(text)
        assert cfg.model == "cavity"
        assert cfg.N_bins == 720
        assert cfg.grid[0] == 0.10

    def test_epsilon_range_point_count(self):
        # 0.10:0.23:0.005 spans 26 steps, so 27 grid points inclusive
        text = ("[model]\nmodel = cavity\n"
                "[sweep]\nepsilon_range = 0.10:0.23:0.005\n")
        cfg = parse_config(text)
        assert cfg.grid.size == 27
        assert cfg.grid[0] == 0.10
        assert abs(cfg.grid[-1] - 0.23) < 1e-15

    def test_full_round_trip_of_values(self):
        text = """
        # comment line
        [model]
        model = cavity
        variant = open
        cap_strength = 5.0
        cap_width = 0.25
        h = 0.04
        k_target = 6.9
        mean_radius = 2.0

        [sweep]
        epsilon_range = 0.1:0.2:0.05
        m = 3

        [analysis]
        n_bins = 360
        k_max = 25
        alpha = 1,1.25,2
        node_cutoff = 1e-10
        """
        cfg = parse_config(text)
        assert cfg.variant == "open"
        assert cfg.cap_strength == 5.0 and cfg.cap_width == 0.25
        assert cfg.h == 0.04 and cfg.k_target == 6.9
        assert cfg.mean_radius == 2.0
        assert cfg.m == 3
        assert cfg.N_bins == 360 and cfg.K_max == 25
        assert cfg.alphas == (1.0, 1.25, 2.0)
        assert cfg.node_cutoff == 1e-10

    def test_explicit_grid_list(self):
        text = "[model]\nmodel = two_level\n[sweep]\ngrid = 0.0, 0.5, 1.0\n"
        assert np.array_equal(parse_config(text).grid,
                              np.array([0.0, 0.5, 1.0]))

    def test_negative_n_bins_names_field(self):
        text = BASE + "[analysis]\nn_bins = -3\n"
        with pytest.raises(InvalidSetting) as err:
            parse_config(text)
        assert err.value.field == "n_bins"

    def test_unknown_key_names_key(self):
        with pytest.raises(InvalidSetting) as err:
            parse_config("[model]\nmodel = two_level\nfrobnicate = 1\n")
        assert err.value.field == "frobnicate"

    def test_missing_model(self):
        with pytest.raises(InvalidSetting) as err:
            parse_config("[model]\ng = 1\n")
        assert err.value.field == "model"

    def test_unknown_model(self):
        with pytest.raises(InvalidSetting) as err:
            parse_config("[model]\nmodel = quartic\n")
        assert err.value.field == "model"

    def test_unknown_section_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config("[model]\nmodel = two_level\n\n[plotting]\n")
        assert err.value.line_number == 4

    def test_malformed_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config("[model]\nmodel = two_level\nnonsense\n")
        assert err.value.line_number == 3

    def test_key_before_any_section(self):
        with pytest.raises(ParseError) as err:
            parse_config("model = two_level\n")
        assert err.value.line_number == 1

    def test_duplicate_key(self):
        with pytest.raises(ParseError) as err:
            parse_config("[model]\nmodel = two_level\nmodel = cavity\n")
        assert err.value.line_number == 3

    def test_grid_key_conflicts(self):
        text = ("[model]\nmodel = cavity\n[sweep]\n"
                "epsilon_range = 0.1:0.2:0.05\ngrid = 0.1, 0.2\n")
        with pytest.raises(InvalidSetting):
            parse_config(text)

    def test_wrong_range_key_for_model(self):
        text = ("[model]\nmodel = two_level\n[sweep]\n"
                "epsilon_range = 0.1:0.2:0.05\n")
        with pytest.raises(InvalidSetting) as err:
            parse_config(text)
        assert err.value.field == "epsilon_range"

    def test_bad_range_shape(self):
        text = "[model]\nmodel = two_level\n[sweep]\ndelta_range = 0:1\n"
        with pytest.raises(InvalidSetting) as err:
            parse_config(text)
        assert err.value.field == "delta_range"

    def test_non_numeric_value(self):
        with pytest.raises(InvalidSetting) as err:
            parse_config("[model]\nmodel = two_level\ng = strong\n")
        assert err.value.field == "g"

    def test_bad_variant(self):
        with pytest.raises(InvalidSetting) as err:
            parse_config("[model]\nmodel = cavity\nvariant = leaky\n")
        assert err.value.field == "variant"

    @pytest.mark.parametrize("model, lines, field", [
        ("cavity", "variant = open\ncap_strength = -1", "cap_strength"),
        ("cavity", "h = 0", "h"),
        ("cavity", "mean_radius = 0", "mean_radius"),
        ("cavity", "cap_width = 0", "cap_width"),
        ("cavity", "k_target = 0", "k_target"),
        ("two_level", "g = 0", "g"),
        ("two_level", "gamma = -1", "gamma"),
        ("two_level", "variant = leaky", "variant"),
        # each model vets the other model's keys too
        ("two_level", "cap_strength = -1", "cap_strength"),
        ("cavity", "g = 0", "g"),
        ("cavity", "gamma = nan", "gamma"),
        # NaN and inf fail before the range checks they could slip past
        ("two_level", "g = inf", "g"),
        ("two_level", "gamma = nan", "gamma"),
        ("cavity", "variant = open\ncap_strength = inf", "cap_strength"),
        ("cavity", "h = -inf", "h"),
        ("cavity", "mean_radius = inf", "mean_radius"),
        ("cavity", "cap_width = nan", "cap_width"),
        ("cavity", "k_target = inf", "k_target"),
    ])
    def test_bad_model_values(self, model, lines, field):
        with pytest.raises(InvalidSetting) as err:
            parse_config(f"[model]\nmodel = {model}\n{lines}\n")
        assert err.value.field == field

    @pytest.mark.parametrize("line,field", [
        ("m = 0", "m"),
        ("m = 1.5", "m"),
        ("epsilon_range = 0.4:0.6:0.05", "epsilon_range"),
        ("grid = 0.2, 0.1", "grid"),
        ("epsilon_range = 0.1:inf:0.05", "epsilon_range"),
        ("epsilon_range = nan:0.2:0.05", "epsilon_range"),
        ("epsilon_range = 0.1:0.2:inf", "epsilon_range"),
        ("grid = 0.1, inf", "grid"),
    ])
    def test_bad_sweep_values(self, line, field):
        with pytest.raises(InvalidSetting) as err:
            parse_config(f"[model]\nmodel = cavity\n[sweep]\n{line}\n")
        assert err.value.field == field

    @pytest.mark.parametrize("line,field", [
        ("alpha = 1,-2", "alpha"),
        ("alpha = 1, inf", "alpha"),
        ("k_max = 0", "k_max"),
        ("node_cutoff = 1.5", "node_cutoff"),
    ])
    def test_bad_analysis_values(self, line, field):
        with pytest.raises(InvalidSetting) as err:
            parse_config(BASE + f"[analysis]\n{line}\n")
        assert err.value.field == field

    @pytest.mark.parametrize("section,line,key", [
        ("analysis", "alpha = 1,,2", "alpha"),
        ("sweep", "grid = 0.1, ,0.2", "grid"),
        ("output", "svg_fields = K,,S_folded", "svg_fields"),
    ])
    def test_empty_list_item_names_key(self, section, line, key):
        text = f"[model]\nmodel = cavity\n[{section}]\n{line}\n"
        with pytest.raises(InvalidSetting, match="empty item") as err:
            parse_output_options(text)
            parse_config(text)
        assert err.value.field == key

    def test_every_setting_has_one_key(self):
        # each SweepConfig field has exactly one key, except the grid, which
        # delta_range, epsilon_range and grid all set
        names = [_FIELD_OF_KEY.get(k, k)
                 for s in ("model", "sweep", "analysis") for k in _SECTIONS[s]]
        assert set(names) == {f.name for f in dataclasses.fields(SweepConfig)}
        assert names.count("grid") == 3
        assert len(names) - len(set(names)) == 2


class TestOutputOptions:
    def test_defaults(self):
        opts = parse_output_options("[model]\nmodel = two_level\n")
        assert opts == {"directory": ".", "csv": "sweep.csv", "svg": None,
                        "svg_fields": ("K", "S_folded"), "marker": None,
                        "timestamp": True}

    def test_explicit_values(self):
        text = ("[output]\ndirectory = out\ncsv = a.csv\nsvg = a.svg\n"
                "svg_fields = R2, S_value\nmarker = 0.16\n"
                "timestamp = false\n")
        opts = parse_output_options(text)
        assert opts["directory"] == "out"
        assert opts["svg_fields"] == ("R2", "S_value")
        assert opts["marker"] == 0.16
        assert opts["timestamp"] is False

    def test_bad_boolean(self):
        with pytest.raises(InvalidSetting) as err:
            parse_output_options("[output]\ntimestamp = maybe\n")
        assert err.value.field == "timestamp"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_marker(self, value):
        with pytest.raises(InvalidSetting,
                           match="^marker must be finite$") as err:
            parse_output_options(f"[output]\nmarker = {value}\n")
        assert err.value.field == "marker"



class TestOverrides:
    def test_replace_and_add(self):
        cfg = parse_config(BASE, ["model.gamma=3", "analysis.k_max = 7"])
        assert cfg.gamma == 3.0 and cfg.K_max == 7

    def test_output_override(self):
        opts = parse_output_options(BASE, ["output.csv=b.csv"])
        assert opts["csv"] == "b.csv"

    @pytest.mark.parametrize("item, field", [
        ("model.gamma", "model.gamma"),
        ("model.gamma=", "gamma"),
    ], ids=["no_value", "empty"])
    def test_bad_override(self, item, field):
        with pytest.raises(InvalidSetting) as err:
            parse_config(BASE, [item])
        assert err.value.field == field


def test_readme_example_config_parses():
    # the example under README's "Command line" heading is real config text
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    text = next(b for b in blocks if b.lstrip().startswith("[model]"))
    cfg = parse_config(text)
    assert cfg.model == "cavity" and cfg.grid.size == 41
    assert parse_output_options(text)["csv"] == "pair.csv"

@pytest.fixture(scope="module")
def small_records():
    cfg = SweepConfig("two_level", np.array([-0.1, -0.05, 0.0, 0.05, 0.1]),
                      gamma=2.0)
    return run_sweep(cfg)


class TestSweepCsv:
    def test_round_trip_is_exact(self, small_records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=False)
        back = read_sweep_csv(path)
        # repr emits shortest round-trip decimals, so equality is bitwise,
        # stronger than the 1-ulp requirement
        assert back == small_records

    def test_header_names_every_field(self, small_records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=False)
        header = path.read_text().splitlines()[0].split(",")
        assert header == csv_columns((1.0, 1.5, 2.0))
        assert "renyi_1.5" in header

    def test_single_record_gives_two_lines(self, small_records, tmp_path):
        path = tmp_path / "one.csv"
        rec = SweepRecord(small_records[0].parameter,
                          [small_records[0].modes[0]])
        write_sweep_csv([rec], path, timestamp=False)
        assert len(path.read_text().splitlines()) == 2

    def test_infinity_spelled_inf(self, small_records, tmp_path):
        # the middle point sits on the degeneracy, where K diverges
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=False)
        row = path.read_text().splitlines()[6]
        assert ",inf," in row
        assert math.isinf(read_sweep_csv(path)[2].modes[0].K)

    def test_flags_written_as_bits(self, small_records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=False)
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[-3] in ("0", "1") and cells[-2] in ("0", "1")

    def test_rerun_byte_identical(self, small_records, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = SweepConfig("two_level",
                          np.array([-0.1, -0.05, 0.0, 0.05, 0.1]), gamma=2.0)
        write_sweep_csv(small_records, a, timestamp=False)
        write_sweep_csv(run_sweep(cfg), b, timestamp=False)
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_comment_leads_file(self, small_records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=True)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# written ")
        assert lines[1].startswith("parameter,")
        # the comment is skipped on read
        assert read_sweep_csv(path) == small_records

    def test_error_record_round_trip(self, small_records, tmp_path):
        records = [small_records[0],
                   SweepRecord(0.33, [], "NoConvergence: gave up")]
        path = tmp_path / "err.csv"
        write_sweep_csv(records, path, timestamp=False)
        back = read_sweep_csv(path)
        assert back[1].parameter == 0.33
        assert back[1].modes == []
        assert back[1].error == "NoConvergence: gave up"
        row = path.read_text().splitlines()[-1]
        assert row.split(",")[1] == "-1"

    @pytest.mark.parametrize("alphas, names", [
        ((0.5, 1.23456789, 3.0),
         ["renyi_0.5", "renyi_1.23456789", "renyi_3"]),
        ((1.000001, 1.0000012), ["renyi_1.000001", "renyi_1.0000012"])])
    def test_every_order_reads_back(self, tmp_path, alphas, names):
        # :g keeps 6 significant digits, so these orders are spelled repr():
        # one distinct column per order, and write -> read -> write is exact
        cfg = SweepConfig("two_level",
                          np.array([-0.1, -0.05, 0.0, 0.05, 0.1]),
                          gamma=2.0, alphas=alphas)
        records = run_sweep(cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(records, a, timestamp=False)
        header = a.read_text().splitlines()[0].split(",")
        assert [c for c in header if c.startswith("renyi_")] == names
        back = read_sweep_csv(a)
        assert back == records
        write_sweep_csv(back, b, timestamp=False)
        assert b.read_bytes() == a.read_bytes()
        for name, alpha in zip(names, alphas):
            for mi in range(2):
                want = [r.modes[mi].renyi[alpha] for r in records]
                assert field_series(back, name, mi)[1].tolist() == want
        for name in csv_columns(alphas)[2:-2]:
            assert np.array_equal(field_series(back, name)[1],
                                  field_series(records, name)[1],
                                  equal_nan=True)

    def test_columns_follow_mode_diagnostics(self):
        names = [f.name for f in dataclasses.fields(ModeDiagnostics)]
        i = names.index("renyi")
        assert csv_columns((2.0, 1.0)) == (
            ["parameter", "mode"] + names[:i] + ["renyi_1", "renyi_2"]
            + names[i + 1:] + ["track_ambiguous", "error"])

    def test_header_must_match_schema(self, small_records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=False)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("R1,R2", "R2,R1")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_sweep_csv(path)
        assert err.value.line_number == 1

    @pytest.mark.parametrize("old, new, message", [
        ("renyi_1,", "renyi_-1,", "alpha must be positive"),
        ("renyi_1,", "renyi_0,", "alpha must be positive"),
        ("renyi_2,", "renyi_nan,", "alpha must be positive"),
        ("renyi_2,", "renyi_inf,", "alphas must be finite"),
    ], ids=["negative", "zero", "nan", "inf"])
    def test_header_orders_obey_the_alpha_rule(self, tmp_path, old, new,
                                               message):
        # a Renyi order that SweepConfig would reject names the header line
        cfg = SweepConfig("two_level", np.array([-0.1, 0.0, 0.1]),
                          gamma=2.0, alphas=(1.0, 2.0))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(run_sweep(cfg), path, timestamp=True)
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(ParseError, match=message) as err:
            read_sweep_csv(path)
        assert err.value.line_number == 2  # after the timestamp comment

    def test_mode_row_must_continue_record(self, small_records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=False)
        lines = path.read_text().splitlines()
        del lines[1]  # the first point's mode 0; its mode 1 now leads
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_sweep_csv(path)
        assert err.value.line_number == 2

    def test_every_mode_row_checks_identity(self, small_records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=False)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")  # the first point's mode 1
        cells[csv_columns((1.0, 1.5, 2.0)).index("K")] = "99.0"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="K \\* R2") as err:
            read_sweep_csv(path)
        assert err.value.line_number == 3

    def test_identity_break_names_file_line(self, small_records, tmp_path):
        # K = 3 on the first data row, file line 3 after the comment and the
        # header, breaks K * R2^2 = 1
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=True)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[csv_columns((1.0, 1.5, 2.0)).index("K")] = "3.0"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_sweep_csv(path)
        assert str(err.value) == "line 3: row violates K * R2^2 = 1"

    def test_bad_row_names_file_line_past_comment(self, small_records,
                                                  tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=True)
        lines = path.read_text().splitlines()
        lines[3] += ",extra"  # file line 4: comment, header, two rows
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_sweep_csv(path)
        assert err.value.line_number == 4

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", [1, 2, 3])  # mode 0, mode 1, mode -1
    def test_non_finite_parameter_names_line(self, small_records, tmp_path,
                                             at, bad):
        path = tmp_path / "sweep.csv"
        records = [small_records[0], SweepRecord(0.5, [], "NoConvergence")]
        write_sweep_csv(records, path, timestamp=False)
        lines = path.read_text().splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]] == ["0", "1", "-1"]
        lines[at] = bad + lines[at][lines[at].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="parameter must be finite") \
                as err:
            read_sweep_csv(path)
        assert err.value.line_number == at + 1

    def test_non_numeric_cell_names_line(self, small_records, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(small_records, path, timestamp=True)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "x"  # the mode index on file line 3
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_sweep_csv(path)
        assert err.value.line_number == 3

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_sweep_csv([], tmp_path / "x.csv")

    def test_unreadable_path_raises_oserror(self, small_records, tmp_path):
        with pytest.raises(OSError):
            write_sweep_csv(small_records, tmp_path / "no" / "dir.csv")
        with pytest.raises(OSError):
            read_sweep_csv(tmp_path / "absent.csv")


@pytest.fixture(scope="module")
def cavity_mode():
    return solve_cavity_modes(CavitySpec(0.1, h=0.05), 3.8, 1)[0]


class TestModeFile:
    def test_two_level_round_trip(self, tmp_path):
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        back, header = read_mode_file(path)
        assert header["parameter"] == 0.3
        assert back.provenance == "two_level"
        assert back.eigen_k == mode.eigen_k
        assert np.array_equal(back.psi, mode.psi)
        assert back.degenerate == mode.degenerate

    def test_cavity_round_trip_preserves_diagnostics(self, cavity_mode,
                                                     tmp_path):
        path = tmp_path / "c.ep"
        write_mode_file(cavity_mode, path, parameter=0.1)
        back, header = read_mode_file(path)
        assert header["parameter"] == 0.1
        assert np.array_equal(back.psi, cavity_mode.psi)
        assert back.geometry.npts == cavity_mode.geometry.npts
        assert np.array_equal(back.geometry.pt_x, cavity_mode.geometry.pt_x)
        # bitwise-identical state, so every downstream diagnostic agrees
        # exactly, well inside the 1e-14 requirement
        assert mode_diagnostics(back) == mode_diagnostics(cavity_mode)

    def test_header_layout(self, tmp_path):
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        lines = path.read_text().splitlines()
        assert lines[0] == "EPMODE 1"
        blank = lines.index("")
        assert all(": " in ln for ln in lines[1:blank])
        assert len(lines) - blank - 1 == mode.psi.size
        assert lines[blank + 1].split()[0] == "0"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ep"
        path.write_text("EPMODE 9\n")
        with pytest.raises(ParseError) as err:
            read_mode_file(path)
        assert err.value.line_number == 1

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "m.ep"
        path.write_text("EPMODE 1\nprovenance: two_level\n\n")
        with pytest.raises(ParseError):
            read_mode_file(path)

    def test_repeated_header_key_names_line(self, tmp_path):
        # as in a config file: a second value would silently win
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        lines = path.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines)
                  if ln.startswith("residual: ")) + 1
        lines.insert(at, "residual: 0.5")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="duplicate key 'residual'") \
                as err:
            read_mode_file(path)
        assert err.value.line_number == at + 1

    @pytest.mark.parametrize("label", ["cavity_closed", "cavity_open",
                                       "cavity_x"])
    def test_cavity_label_without_spec_names_provenance(self, tmp_path,
                                                         label):
        # a header with no cavity key describes a two-level mode
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        path.write_text(path.read_text().replace(
            "provenance: two_level", f"provenance: {label}", 1))
        with pytest.raises(ParseError, match="provenance must be "
                           "'two_level'") as err:
            read_mode_file(path)
        assert err.value.line_number == 2

    def test_partial_spec_names_missing_key(self, cavity_mode, tmp_path):
        path = tmp_path / "c.ep"
        write_mode_file(cavity_mode, path, parameter=0.1)
        path.write_text(path.read_text().replace("epsilon: 0.1\n", "", 1))
        with pytest.raises(ParseError, match="missing 'epsilon'"):
            read_mode_file(path)

    def test_truncated_rows(self, cavity_mode, tmp_path):
        path = tmp_path / "c.ep"
        write_mode_file(cavity_mode, path, parameter=0.1)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ParseError):
            read_mode_file(path)

    def test_malformed_row_names_line(self, tmp_path):
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        lines = path.read_text().splitlines()
        blank = lines.index("")
        lines[blank + 2] = "1 0.0 junk"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_mode_file(path)
        assert err.value.line_number == blank + 3


    @pytest.mark.parametrize("key, bad", [("n", "two"),
                                          ("eigenvalue", "0.5")])
    def test_bad_header_value_names_line(self, tmp_path, key, bad):
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        lines = path.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines)
                  if ln.startswith(key + ": "))
        lines[at] = f"{key}: {bad}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_mode_file(path)
        assert err.value.line_number == at + 1

    @pytest.mark.parametrize("row", ["1 0.0 0.0 junk 0.0",
                                     "x 0.0 0.0 1.0 0.0",
                                     "1 0.0 0.0 0x1p-3 0.0",
                                     "1 0.0 0.0 1_0 0.0"])
    def test_non_numeric_row_names_line(self, tmp_path, row):
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        lines = path.read_text().splitlines()
        blank = lines.index("")
        lines[blank + 2] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_mode_file(path)
        assert err.value.line_number == blank + 3

    @pytest.mark.parametrize("edit", ["short_then_long", "swapped"])
    def test_first_bad_row_is_named(self, cavity_mode, tmp_path, edit):
        # row 3 is the first bad one; the row count is right in both cases,
        # and so is the token total for a 4-token row before a 6-token row
        path = tmp_path / "c.ep"
        write_mode_file(cavity_mode, path, parameter=0.1)
        lines = path.read_text().splitlines()
        r3 = lines.index("") + 4
        if edit == "short_then_long":
            tokens = lines[r3].split()
            lines[r3] = " ".join(tokens[:4])
            lines[r3 + 1] += " " + tokens[4]
        else:
            lines[r3], lines[r3 + 1] = lines[r3 + 1], lines[r3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="bad data row") as err:
            read_mode_file(path)
        assert err.value.line_number == r3 + 1

    @pytest.mark.parametrize("rewrite", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\r"),
        lambda text: text[:-1]], ids=["crlf", "cr", "no_final_newline"])
    def test_line_end_variants_read_bitwise(self, cavity_mode, tmp_path,
                                            rewrite):
        path = tmp_path / "c.ep"
        write_mode_file(cavity_mode, path, parameter=0.1)
        path.write_bytes(rewrite(path.read_text()).encode())
        back, header = read_mode_file(path)
        assert header["parameter"] == 0.1
        assert np.array_equal(back.psi.view(np.float64),
                              cavity_mode.psi.view(np.float64))

    def test_signed_zeros_read_back(self, tmp_path):
        psi = np.array([complex(-0.0, 1.0), complex(0.0, -0.0)])
        path = tmp_path / "m.ep"
        write_mode_file(Mode(None, psi, 1.0, "two_level"), path, parameter=0.0)
        back, _ = read_mode_file(path)
        assert np.array_equal(np.signbit(back.psi.view(np.float64)),
                              [True, False, False, True])

    @pytest.mark.parametrize("kind", ["open", "closed", "two_level"])
    def test_rows_equal_per_row_reference(self, cavity_mode, tmp_path, kind):
        if kind == "open":
            spec = CavitySpec(0.28, h=0.05, variant="open", cap_strength=8.0)
            mode = solve_cavity_modes(spec, 6.92, 1)[0]
        elif kind == "closed":
            mode = cavity_mode
        else:
            mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        # signed zeros in psi, rescaled part by part so that no sign moves
        psi = mode.psi.copy()
        psi.real[:2] = -0.0
        psi.imag[1:3] = -0.0
        scale = 1.0 / (np.sqrt((np.abs(psi) ** 2).sum()) * mode.h)
        psi.real *= scale
        psi.imag *= scale
        mode = dataclasses.replace(mode, psi=psi)
        geo = mode.geometry
        xs, ys = ((geo.pt_x, geo.pt_y) if geo is not None
                  else [np.zeros(psi.size)] * 2)
        want = "".join(f"{i} {float(x)!r} {float(y)!r} {float(p.real)!r} "
                       f"{float(p.imag)!r}\n"
                       for i, (x, y, p) in enumerate(zip(xs, ys, psi)))
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        rows = path.read_text().partition("\n\n")[2]
        assert "-0.0 " in rows
        assert rows == want

    @pytest.mark.parametrize("key, bad", [("epsilon", "0.7"),
                                          ("mean_radius", "0"),
                                          ("h", "0"),
                                          ("h", "0.5"),  # too coarse
                                          ("variant", "shut"),
                                          ("cap_strength", "-1"),
                                          ("cap_width", "0"),
                                          ("mean_radius", "inf"),
                                          ("h", "inf"),
                                          ("cap_strength", "nan"),
                                          ("cap_strength", "inf"),
                                          ("cap_width", "-inf"),
                                          ("provenance", "cavity_x"),
                                          ("provenance", "cavity_open"),
                                          ("provenance", "two_level"),
                                          ("n", "17"),
                                          ("eigenvalue", "nan 0.0"),
                                          ("eigenvalue", "inf 0.0"),
                                          ("residual", "nan"),
                                          ("residual", "inf"),
                                          ("residual", "-1.0"),
                                          ("parameter", "nan"),
                                          ("parameter", "inf"),
                                          ("parameter", "-inf"),
                                          ("degenerate", "2"),
                                          ("degenerate", "-1")])
    def test_invalid_header_value_names_line(self, cavity_mode, tmp_path,
                                             key, bad):
        path = tmp_path / "c.ep"
        write_mode_file(cavity_mode, path, parameter=0.1)
        lines = path.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines)
                  if ln.startswith(key + ": "))
        lines[at] = f"{key}: {bad}"
        if key == "n":  # as many rows as the header claims
            lines = lines[:lines.index("") + 1 + int(bad)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_mode_file(path)
        assert err.value.line_number == at + 1

    def test_spec_header_follows_cavity_spec(self, cavity_mode, tmp_path):
        path = tmp_path / "c.ep"
        write_mode_file(cavity_mode, path, parameter=0.1)
        lines = path.read_text().splitlines()
        keys = [ln.partition(": ")[0] for ln in lines[1:lines.index("")]]
        assert keys == ["provenance", "parameter", "eigenvalue", "residual",
                        "degenerate", "n"] \
            + [f.name for f in dataclasses.fields(CavitySpec)]

    def test_non_finite_psi_names_first_row(self, cavity_mode, tmp_path):
        # a NaN fails the unit-intensity test, as any value off 1 does
        path = tmp_path / "c.ep"
        write_mode_file(cavity_mode, path, parameter=0.1)
        lines = path.read_text().splitlines()
        blank = lines.index("")
        cells = lines[blank + 5].split()
        cells[3] = "nan"
        lines[blank + 5] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="normalized") as err:
            read_mode_file(path)
        assert err.value.line_number == blank + 2

    @pytest.mark.parametrize("column, bad", [(1, "0.123"), (1, "nan"),
                                             (2, "-0.5")])
    def test_row_off_the_grid_names_its_line(self, cavity_mode, tmp_path,
                                             column, bad):
        path = tmp_path / "c.ep"
        write_mode_file(cavity_mode, path, parameter=0.1)
        lines = path.read_text().splitlines()
        at = lines.index("") + 7  # data row 6
        cells = lines[at].split()
        assert cells[column] != bad
        cells[column] = bad
        lines[at] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="coordinates") as err:
            read_mode_file(path)
        assert err.value.line_number == at + 1

    @pytest.mark.parametrize("x, y", [("nan", "inf"), ("0.5", "0.0"),
                                      ("0.0", "-1e-300")])
    def test_two_level_row_off_zero_names_its_line(self, tmp_path, x, y):
        # the writer puts 0.0 in both coordinate columns of a two-level row
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        lines = path.read_text().splitlines()
        at = lines.index("") + 2  # data row 1
        cells = lines[at].split()
        cells[1:3] = x, y
        lines[at] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="must be 0.0") as err:
            read_mode_file(path)
        assert err.value.line_number == at + 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_writes_no_file(self, tmp_path, bad):
        # the reader would refuse `parameter: nan`, so no such file starts
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        with pytest.raises(InvalidSetting, match="parameter must be finite") \
                as err:
            write_mode_file(mode, path, parameter=bad)
        assert err.value.field == "parameter"
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["cavity", "two_level"])
    def test_chunk_size_keeps_bytes(self, cavity_mode, tmp_path,
                                    monkeypatch, kind):
        # one chunk of n or more rows is the whole text at once; sizes 1
        # and n leave a last chunk that is exactly full
        mode = (cavity_mode if kind == "cavity"
                else two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0])
        n = mode.psi.size
        texts = set()
        for size in (1, 3, 2048, n, n + 1):
            monkeypatch.setattr(io, "ROWS_PER_CHUNK", size)
            path = tmp_path / f"m{size}.ep"
            write_mode_file(mode, path, parameter=0.3)
            texts.add(path.read_bytes())
        assert len(texts) == 1
        assert len(texts.pop().split(b"\n\n")[1].splitlines()) == n

    def test_writer_holds_one_chunk_at_a_time(self, tmp_path):
        # analyze_modes' open h = 1/100 file, 1.7 MB of text: its rows as
        # strings and the joined text take about 6.5 MB at once, a chunk of
        # 2048 rows about 0.5 MB
        spec = CavitySpec(0.28, h=0.01, variant="open", cap_strength=8.0)
        geom = build_ellipse_grid(spec)
        assert geom.npts == 28909
        psi = np.exp(1j * np.arange(geom.npts)) / (np.sqrt(geom.npts)
                                                   * geom.h)
        mode = Mode(geom, psi, 5.0 - 0.01j, "cavity_open")
        _, peak = _traced_peak(write_mode_file, mode, tmp_path / "m.ep", 0.28)
        assert peak <= 1.5e6

    def test_unnormalized_psi_names_first_row(self, tmp_path):
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        lines = path.read_text().splitlines()
        blank = lines.index("")
        lines[blank + 1] = "0 0.0 0.0 3.0 0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="normalized") as err:
            read_mode_file(path)
        assert err.value.line_number == blank + 2


def _config_and_options(path):
    text = read_text(path)
    cfg, opts = parse_config(text), parse_output_options(text)
    return repr({k: v.tolist() if isinstance(v, np.ndarray) else v
                 for k, v in vars(cfg).items()}), opts


def _mode_and_header(path):
    mode, header = read_mode_file(path)
    return (mode.psi.tobytes(), mode.eigen_k, mode.provenance,
            mode.residual_norm, mode.degenerate, header)


@pytest.fixture(scope="module")
def line_end_cases(small_records, tmp_path_factory):
    """(reader, file, text written with \\n ends) for a config, a sweep
    CSV and an EPMODE file; each reader returns a comparable value."""
    tmp = tmp_path_factory.mktemp("line_ends")
    write_sweep_csv(small_records, tmp / "sweep.csv")
    mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
    write_mode_file(mode, tmp / "m.ep", parameter=0.3)
    config = ("# two-level\n" + BASE
              + "\n[output]\ncsv = a.csv\ntimestamp = no\n")
    return [(_config_and_options, tmp / "config.ini", config),
            (lambda path: repr(read_sweep_csv(path)), tmp / "sweep.csv",
             (tmp / "sweep.csv").read_text()),
            (_mode_and_header, tmp / "m.ep", (tmp / "m.ep").read_text())]


def _outcome(read, path, text):
    """What `read` makes of `text`: its value, or its error and message."""
    path.write_bytes(text.encode())
    try:
        return read(path)
    except (ParseError, InvalidSetting) as exc:
        return type(exc), str(exc)


class TestLineEnds:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mixed_line_ends_read_as_newline(self, line_end_cases, data):
        # any mix of \n, \r\n and \r reads as the \n text, also cut short
        # (where it gives the \n text's error, message and line), and also
        # without its final line end
        read, path, text = data.draw(st.sampled_from(line_end_cases))
        cut = data.draw(st.none() | st.integers(0, len(text)))
        if cut is not None:
            text = text[:cut]
        lines = text.split("\n")
        ends = []
        for line in lines[:-1]:
            # \r then \n would be one line end, so an empty line after a
            # lone \r ends in \r too
            cr_before = ends[-1:] == ["\r"] and line == ""
            ends.append(data.draw(st.sampled_from(
                ["\r"] if cr_before else ["\n", "\r\n", "\r"])))
        mixed = "".join(map(str.__add__, lines, ends)) + lines[-1]
        if cut is None and data.draw(st.booleans()):
            mixed = mixed[:len(mixed) - len(ends[-1])]
        assert _outcome(read, path, mixed) == _outcome(read, path, text)

    @pytest.mark.parametrize("char", ["\f", "\v", "\x1c", "\x85",
                                      "\u2028"])
    def test_only_newline_ends_a_config_line(self, char):
        # the comment keeps the text after the character, so [bogus] is no
        # section and [nope] is still on line 4
        text = f"# note{char}[bogus]\n[model]\nmodel = two_level\n[nope]\n"
        with pytest.raises(ParseError, match=r"\[nope\]") as err:
            parse_config(text)
        assert err.value.line_number == 4

    @pytest.mark.parametrize("char", ["\f", "\v", "\x1c", "\x85",
                                      "\u2028"])
    def test_only_newline_ends_a_header_line(self, tmp_path, char):
        # the provenance line runs on into the next header line, so its
        # value names no provenance
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path, parameter=0.3)
        text = path.read_text().replace("provenance: two_level\n",
                                        f"provenance: two_level{char}", 1)
        path.write_bytes(text.encode())
        with pytest.raises(ParseError, match="provenance") as err:
            read_mode_file(path)
        assert err.value.line_number == 2


class TestEmitSvg:
    def test_basic_panel(self, small_records, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg(small_records, ("K", "S_folded"), path, marker=0.0)
        text = path.read_text()
        assert text.startswith("<svg ")
        assert 'viewBox="0 0 760 440"' in text
        assert "<polyline" in text
        assert "K (mode 0)" in text and "S_folded (mode 1)" in text
        # second field rides the dashed right axis
        assert 'stroke-dasharray="6,3"' in text
        # dashed vertical marker at the degeneracy
        assert 'stroke-dasharray="2,4"' in text
        assert "</svg>" in text

    def test_single_field_has_no_right_axis(self, small_records, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg(small_records, ("S_folded",), path)
        assert 'stroke-dasharray="6,3"' not in path.read_text()

    def test_deterministic_output(self, small_records, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(small_records, ("K", "S_folded"), a, marker=0.0)
        emit_svg(small_records, ("K", "S_folded"), b, marker=0.0)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_field_list(self, small_records, tmp_path):
        with pytest.raises(ValueError):
            emit_svg(small_records, (), tmp_path / "x.svg")

    def test_unknown_field_named(self, small_records, tmp_path):
        with pytest.raises(ValueError, match="no_such"):
            emit_svg(small_records, ("no_such",), tmp_path / "x.svg")

    def test_all_nan_field_rejected(self, tmp_path):
        nanrow = ModeDiagnostics(
            re_eigenvalue=float("nan"), im_eigenvalue=float("nan"),
            R1=float("nan"), R2=0.0, r_abs=0.0, K=float("inf"),
            S_folded=float("nan"), S_unfolded=float("nan"),
            S_value=float("nan"), uncertainty_sum=float("nan"),
            renyi={1.0: float("nan")}, chi_squared=float("nan"),
            degenerate_alignment=False)
        records = [SweepRecord(float(x), [nanrow]) for x in range(3)]
        with pytest.raises(ValueError, match="S_folded"):
            emit_svg(records, ("S_folded",), tmp_path / "x.svg")

    def test_infinite_values_break_polyline(self, small_records, tmp_path):
        # K is infinite at the middle point; the K polyline must skip it
        # rather than emit a non-finite coordinate
        path = tmp_path / "plot.svg"
        emit_svg(small_records, ("K",), path)
        assert "inf" not in path.read_text()


DEMO_OUT = Path(__file__).resolve().parents[1] / "demos" / "out"


def _plot_cases():
    """(id, records, fields, marker) from the committed demo CSVs: failed
    rows, a one-point finite run, 1 to 3 fields, constant series and
    markers inside and outside the range."""
    two = read_sweep_csv(DEMO_OUT / "two_level.csv")[::10]  # 41 points
    failed = list(two)
    for i in (5, 7, 20):  # leaves a one-point run at index 6
        failed[i] = SweepRecord(two[i].parameter, [], "SingularShift: x")
    pair = read_sweep_csv(DEMO_OUT / "open_pair.csv")
    flat = [SweepRecord(r.parameter, [
        dataclasses.replace(m, S_folded=0.0, chi_squared=0.5)
        for m in r.modes]) for r in two[19:22]]
    return [("two_one_field", two, ("S_folded",), None),
            ("two_marker", two, ("S_folded", "R2"), 0.0),
            ("two_three_fields", two, ("K", "S_folded", "R2"), 0.0),
            ("failed_rows", failed, ("S_folded", "R2"), 0.0),
            ("failed_marker_outside", failed, ("K",), 5.0),
            ("open_pair", pair, ("R2", "K"), 0.3004),
            ("open_three_fields", pair, ("R2", "K", "renyi_2"), None),
            ("open_marker_outside", pair, ("K",), 0.1),
            ("three_points", two[19:22], ("S_folded", "R2"), -0.05),
            ("flat_zero", flat, ("S_folded",), None),
            ("flat_both_axes", flat, ("S_folded", "chi_squared"), 0.0)]


# SHA-256 of each case's SVG, as written before emit_svg drew both y axes
# in one loop and each polyline in one pass
PLOT_DIGESTS = {
    "two_one_field":
        "205af29a418ecf94f1c1d3563d14fcb01646aef0926d6f3dbf8cdee9087027ea",
    "two_marker":
        "ec3c3116a1f20f5f4bd296493148404abf1dbf6e0bfd78575dbad8f49daf4a77",
    "two_three_fields":
        "6953e369cbaf000b3c9ad9258bf96573c4391a93402f7ba89c6fa427f8e174e3",
    "failed_rows":
        "df86fb3de3167ba92ef2c2375fe6e22344a080597dfe4546a4f8b119e1462c03",
    "failed_marker_outside":
        "c7973a9200d6ef459e3347b928773fbcef5258ab220ff42c10e08febbcf6c840",
    "open_pair":
        "800d46145c2f3ecf2d9df8fec38b7477508ddcf3f804fd1e0ff24d5d8fbcc419",
    "open_three_fields":
        "3a5b2654438f134c3f293499b31966e7f3faab1a913af9675058a8d309c37efa",
    "open_marker_outside":
        "6f66c1c1efbea9647eb6c8765139186ca0b1f2af20383cd2279835d091de2d4c",
    "three_points":
        "265d92ed2e660e9f6a21689817b39cab7846f73348b1ddbe1a93084a9c801079",
    "flat_zero":
        "45f291d135154025047cecc40df5ef0038adffbdf1530ebd32b70a096c31dfe2",
    "flat_both_axes":
        "b39f077b97cb569061d58d71730315f422e5c4770781b1c6f4ef571ef4772d93"}


def _svg_digest(records, fields, marker, path):
    emit_svg(records, fields, path, marker=marker)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite_runs(values):
    return [len(list(run)) for finite, run
            in itertools.groupby(values, key=math.isfinite) if finite]


_BASE_ROW = ModeDiagnostics(
    re_eigenvalue=1.0, im_eigenvalue=0.0, R1=0.0, R2=0.5, r_abs=0.5, K=4.0,
    S_folded=0.0, S_unfolded=0.0, S_value=0.0, uncertainty_sum=0.0,
    renyi={1.0: 0.0}, chi_squared=0.0, degenerate_alignment=False)
_GAPPY_FIELDS = ("S_folded", "chi_squared", "R1")


@st.composite
def _gappy_records(draw):
    """Records with up to 3 modes, failed points and non-finite samples in
    the fields `_GAPPY_FIELDS`; at least one record has a mode."""
    value = st.sampled_from([math.nan, math.inf]) | st.floats(-10.0, 10.0)
    records = []
    for x in range(draw(st.integers(1, 9))):
        n = draw(st.integers(0, 3))
        rows = [dataclasses.replace(_BASE_ROW, **{
            f: draw(value) for f in _GAPPY_FIELDS}) for _ in range(n)]
        records.append(SweepRecord(float(x), rows,
                                   None if rows else "SingularShift: x"))
    if not any(r.modes for r in records):
        records[0] = SweepRecord(0.0, [_BASE_ROW])
    return records


class TestPlotBytes:
    # demo 01 marks the EP at delta = 0, demo 03 the epsilon where R2 is
    # smallest
    @pytest.mark.parametrize("name, fields, marker", [
        ("two_level", ("S_folded", "R2"), 0.0),
        ("open_pair", ("R2", "K"), 0.3004)])
    def test_demo_plots_rebuild_byte_for_byte(self, tmp_path, name, fields,
                                              marker):
        records = read_sweep_csv(DEMO_OUT / f"{name}.csv")
        path = tmp_path / f"{name}.svg"
        emit_svg(records, fields, path, marker=marker)
        assert path.read_bytes() == (DEMO_OUT / f"{name}.svg").read_bytes()

    @pytest.mark.parametrize("value", [5e-324, -1e-323])
    def test_subnormal_constant_has_a_finite_range(self, tmp_path, value):
        # a tenth of a subnormal is 0: the flat range had zero width, and
        # the axes divided by it
        records = [SweepRecord(value, [dataclasses.replace(
            _BASE_ROW, S_folded=value)]) for _ in range(2)]
        path = tmp_path / "flat.svg"
        emit_svg(records, ("S_folded",), path)
        assert "nan" not in path.read_text()

    def test_digest_matrix(self, tmp_path):
        got = {case: _svg_digest(records, fields, marker, tmp_path / "x.svg")
               for case, records, fields, marker in _plot_cases()}
        assert got == PLOT_DIGESTS
        # values that span more than a double: the axis would divide by inf
        wide = [SweepRecord(float(x), [dataclasses.replace(
            _BASE_ROW, S_folded=v)])
            for x, v in enumerate((-1e308, 1e308, 0.0))]
        with pytest.raises(InvalidSetting, match="'S_folded' overflows"):
            emit_svg(wide, ("R2", "S_folded"), tmp_path / "wide.svg")

    @given(records=_gappy_records(),
           fields=st.lists(st.sampled_from(_GAPPY_FIELDS), min_size=1,
                           max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_one_polyline_per_finite_run(self, tmp_path_factory, records,
                                         fields):
        # each (field, mode) series, in field then mode order, draws one
        # polyline per run of two or more finite samples and one legend
        # entry; colours cycle through the palette in series order, and
        # fields after the first position are dashed, a repeat of it too
        n_modes = max(len(r.modes) for r in records)
        lines, legend, axis_finite = [], [], [False, False]
        for i, ((fi, f), mi) in enumerate(itertools.product(
                enumerate(fields), range(n_modes))):
            values = [getattr(r.modes[mi], f) if mi < len(r.modes)
                      else math.nan for r in records]
            color, dashed = _PALETTE[i % len(_PALETTE)], fi > 0
            runs = _finite_runs(values)
            lines += [(color, dashed, k) for k in runs if k >= 2]
            legend.append((f"{f} (mode {mi})", color, dashed))
            axis_finite[dashed] |= bool(runs)
        path = tmp_path_factory.getbasetemp() / "gappy.svg"
        for axis, name in enumerate(fields[:2]):
            if not axis_finite[axis]:
                with pytest.raises(ValueError, match=f"'{name}' has no finite"):
                    emit_svg(records, fields, path)
                return
        emit_svg(records, fields, path)
        text = path.read_text()
        drawn = re.findall(r'<polyline points="([^"]*)" fill="none" '
                           r'stroke="(#\w{6})" stroke-width="1.5"'
                           r'( stroke-dasharray="6,3")?/>', text)
        assert [(c, bool(d), len(p.split())) for p, c, d in drawn] == lines
        keys = re.findall(r'<line [^>]*stroke="(#\w{6})" stroke-width="1.5"'
                          r'( stroke-dasharray="6,3")?/>', text)
        labels = re.findall(r'font-size="11">([^<]*)</text>', text)
        assert len(keys) == len(labels)
        assert [(lab, c, bool(d)) for lab, (c, d) in zip(labels, keys)] \
            == legend
