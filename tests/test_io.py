"""Config grammar, sweep CSV serialization, mode files, and SVG output."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from epmodes.io import (ParseError, ValidationError, csv_columns,
                        parse_config, parse_output_options, read_mode_file,
                        read_sweep_csv, write_mode_file, write_sweep_csv)
from epmodes.models import CavitySpec, assemble_helmholtz, \
    build_ellipse_grid, solve_cavity_modes, two_level_modes, TwoLevelParams
from epmodes.sweep import (ModeDiagnostics, SweepConfig, SweepRecord,
                           mode_diagnostics, run_sweep)
from epmodes.svgplot import emit_svg


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
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.field == "n_bins"

    def test_unknown_key_names_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config("[model]\nmodel = two_level\nfrobnicate = 1\n")
        assert err.value.field == "frobnicate"

    def test_missing_model(self):
        with pytest.raises(ValidationError) as err:
            parse_config("[model]\ng = 1\n")
        assert err.value.field == "model"

    def test_unknown_model(self):
        with pytest.raises(ValidationError) as err:
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
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_wrong_range_key_for_model(self):
        text = ("[model]\nmodel = two_level\n[sweep]\n"
                "epsilon_range = 0.1:0.2:0.05\n")
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.field == "epsilon_range"

    def test_bad_range_shape(self):
        text = "[model]\nmodel = two_level\n[sweep]\ndelta_range = 0:1\n"
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.field == "delta_range"

    def test_non_numeric_value(self):
        with pytest.raises(ValidationError) as err:
            parse_config("[model]\nmodel = two_level\ng = strong\n")
        assert err.value.field == "g"

    def test_bad_variant(self):
        with pytest.raises(ValidationError) as err:
            parse_config("[model]\nmodel = cavity\nvariant = leaky\n")
        assert err.value.field == "variant"

    @pytest.mark.parametrize("line,field", [
        ("m = 0", "m"),
        ("m = 1.5", "m"),
    ])
    def test_bad_sweep_values(self, line, field):
        with pytest.raises(ValidationError) as err:
            parse_config(f"[model]\nmodel = cavity\n[sweep]\n{line}\n")
        assert err.value.field == field

    @pytest.mark.parametrize("line,field", [
        ("alpha = 1,-2", "alpha"),
        ("k_max = 0", "k_max"),
        ("node_cutoff = 1.5", "node_cutoff"),
    ])
    def test_bad_analysis_values(self, line, field):
        with pytest.raises(ValidationError) as err:
            parse_config(BASE + f"[analysis]\n{line}\n")
        assert err.value.field == field


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
        with pytest.raises(ValidationError) as err:
            parse_output_options("[output]\ntimestamp = maybe\n")
        assert err.value.field == "timestamp"



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
        with pytest.raises(ValidationError) as err:
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
        with pytest.raises(ValueError, match="K \\* R2"):
            read_sweep_csv(path)

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
    spec = CavitySpec(0.1, h=0.05)
    op = assemble_helmholtz(build_ellipse_grid(spec), spec)
    return solve_cavity_modes(op, 3.8, 1)[0]


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
        write_mode_file(cavity_mode, path)
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

    def test_truncated_rows(self, cavity_mode, tmp_path):
        path = tmp_path / "c.ep"
        write_mode_file(cavity_mode, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ParseError):
            read_mode_file(path)

    def test_malformed_row_names_line(self, tmp_path):
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path)
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
                                     "x 0.0 0.0 1.0 0.0"])
    def test_non_numeric_row_names_line(self, tmp_path, row):
        mode = two_level_modes(TwoLevelParams(0.3, 1.0, 2.0))[0]
        path = tmp_path / "m.ep"
        write_mode_file(mode, path)
        lines = path.read_text().splitlines()
        blank = lines.index("")
        lines[blank + 2] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_mode_file(path)
        assert err.value.line_number == blank + 3


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
