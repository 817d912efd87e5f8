"""End-to-end runs of every subcommand through main(argv)."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from epmodes import sweep
from epmodes.cli import main
from epmodes.io import (csv_columns, read_mode_file, read_sweep_csv,
                        write_mode_file, write_sweep_csv)
from epmodes.models import (CavitySpec, TwoLevelParams, solve_cavity_modes,
                             two_level_modes)
from epmodes.sweep import mode_diagnostics

CONFIG = """
[model]
model = two_level
gamma = 2

[sweep]
delta_range = -0.1:0.1:0.05

[output]
csv = run.csv
svg = run.svg
marker = 0
"""

PAIR_CONFIG = """
[model]
model = cavity
variant = open
cap_strength = 1.0
cap_width = 0.2
h = 0.02
k_target = 8.015

[sweep]
grid = 0.2998, 0.3000
m = 2

[output]
csv = pair.csv
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return str(path)


class TestSweepCommand:
    def test_writes_csv_and_svg(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep", config_path, "--out-dir", str(out),
                     "--no-timestamp"])
        assert code == 0
        records = read_sweep_csv(out / "run.csv")
        assert len(records) == 5
        assert (out / "run.svg").read_text().startswith("<svg ")
        assert "run.csv" in capsys.readouterr().out

    def test_rerun_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", config_path, "--out-dir", str(a),
                     "--no-timestamp"]) == 0
        assert main(["sweep", config_path, "--out-dir", str(b),
                     "--no-timestamp"]) == 0
        assert (a / "run.csv").read_bytes() == (b / "run.csv").read_bytes()
        assert (a / "run.svg").read_bytes() == (b / "run.svg").read_bytes()

    def test_timestamp_present_by_default(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", config_path, "--out-dir", str(out)]) == 0
        first = (out / "run.csv").read_text().splitlines()[0]
        assert first.startswith("# written ")

    def test_override_replaces_value(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", config_path, "--out-dir", str(out),
                     "--no-timestamp", "-O", "model.gamma=0",
                     "-O", "sweep.delta_range=0.5:0.5:1"])
        assert code == 0
        records = read_sweep_csv(out / "run.csv")
        assert len(records) == 1
        # lossless two-level point: eigenvalues real
        assert records[0].modes[0].im_eigenvalue == 0.0

    def test_override_inserts_missing_section(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", config_path, "--out-dir", str(out),
                     "--no-timestamp", "-O", "analysis.alpha=1,3"])
        assert code == 0
        header = (out / "run.csv").read_text().splitlines()[0]
        assert "renyi_3" in header

    @pytest.mark.parametrize("fields, bad", [("K, Sfolded", "Sfolded"),
                                             ("K, renyi_3", "renyi_3"),
                                             ("K, __init__", "__init__")])
    def test_unknown_svg_field_rejected_before_solving(
            self, config_path, tmp_path, capsys, fields, bad):
        out = tmp_path / "out"
        assert main(["sweep", config_path, "--out-dir", str(out),
                     "-O", f"output.svg_fields={fields}"]) == 2
        assert bad in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_svg_field_spelled_as_float_order(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", config_path, "--out-dir", str(out),
                     "-O", "output.svg_fields=R2, renyi_1.0"]) == 0
        assert (out / "run.svg").exists()

    def test_bad_override_format(self, config_path, capsys):
        assert main(["sweep", config_path, "-O", "gamma=2"]) == 2
        assert "section.key=value" in capsys.readouterr().err

    def test_override_unknown_key_rejected(self, config_path, capsys):
        assert main(["sweep", config_path, "-O", "model.frob=1"]) == 2
        assert "frob" in capsys.readouterr().err

    def test_override_unknown_section_rejected(self, config_path, capsys):
        assert main(["sweep", config_path, "-O", "frob.x=1"]) == 2
        err = capsys.readouterr().err
        # the override is not a line of the file, so no line is blamed
        assert "frob" in err and "line" not in err

    def test_override_keeps_file_line_numbers(self, tmp_path, capsys):
        # the bad line is line 8 of the file; an override that adds a key
        # must not shift it
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nmodel = two_level\n\n[sweep]\n"
                        "delta_range = -0.1:0.1:0.05\n\n[analysis]\n"
                        "n_bins 97\n")
        assert main(["sweep", str(path), "-O", "model.g=1"]) == 2
        assert "line 8:" in capsys.readouterr().err

    def test_override_into_repeated_section(self, tmp_path):
        # [model] opens twice and the second block sets g
        path = tmp_path / "twice.cfg"
        path.write_text("[model]\nmodel = two_level\n[sweep]\n"
                        "delta_range = 0.5:0.5:1\n[model]\ng = 1\n")
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--out-dir", str(out),
                     "--no-timestamp", "-O", "model.g=2"]) == 0
        rec = read_sweep_csv(out / "sweep.csv")[0]
        direct = two_level_modes(TwoLevelParams(rec.parameter, 2.0, 0.0))
        assert rec.modes[0].re_eigenvalue == direct[0].eigen_k.real

    @pytest.mark.parametrize("item", [
        "model.g=inf", "model.gamma=nan", "model.cap_strength=inf",
        "model.mean_radius=inf", "model.h=inf", "model.cap_width=inf",
        "model.k_target=inf", "sweep.delta_range=0:inf:0.1",
        "sweep.delta_range=0:1:1e-320", "analysis.alpha=1, inf"])
    def test_non_finite_setting_exit_code(self, config_path, tmp_path,
                                          capsys, item):
        # rejected before any point is solved, under the key that set it
        out = tmp_path / "out"
        assert main(["sweep", config_path, "--out-dir", str(out),
                     "-O", item]) == 2
        key = item.partition("=")[0].partition(".")[2]
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_marker_exit_code(self, config_path, tmp_path, capsys,
                                         value):
        # a marker that is not finite would silently draw no line
        out = tmp_path / "out"
        assert main(["sweep", config_path, "--out-dir", str(out),
                     "-O", f"output.marker={value}"]) == 2
        assert capsys.readouterr().err == "error: marker must be finite\n"
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nmodel = two_level\n[analysis]\n"
                        "n_bins = -3\n")
        assert main(["sweep", str(path)]) == 2
        assert "n_bins" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "solve"])
    def test_unwritable_out_dir_fails_before_solving(
            self, command, config_path, tmp_path, capsys, monkeypatch):
        # the output directory is made first, so a path under a regular
        # file costs no solve
        def never(cfg, x):
            raise AssertionError("solved a point")
        monkeypatch.setattr(sweep, "_solve_point", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([command, config_path,
                     "--out-dir", str(blocker / "out")]) == 4
        assert "file" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "absent.cfg")]) == 4
        assert "absent.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "solve"])
    def test_all_points_failing_exit_code(self, command, tmp_path, capsys):
        # an h this coarse leaves too few interior points at every epsilon
        path = tmp_path / "coarse.cfg"
        path.write_text("[model]\nmodel = cavity\nh = 0.5\n"
                        "[sweep]\nepsilon_range = 0.1:0.12:0.02\n")
        out = tmp_path / "out"
        assert main([command, str(path), "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "GridTooCoarse" in err
        assert "every grid point" in err
        assert not out.exists() or not any(out.iterdir())

    def test_m_beyond_the_grid_exit_code(self, tmp_path, capsys):
        # m is checked against the point count once the grid is built
        config = tmp_path / "pair.cfg"
        config.write_text(PAIR_CONFIG)
        assert main(["sweep", str(config), "-O", "model.h=0.1",
                     "-O", "sweep.m=100000"]) == 2
        assert "m exceeds operator dimension" in capsys.readouterr().err

    def test_fault_inside_a_solve_exit_code(self, tmp_path, capsys,
                                            monkeypatch):
        # a ValueError from inside the solver is no config error
        def broken(spec, k_target, m):
            raise ValueError("operator is not mirror symmetric")
        monkeypatch.setattr(sweep, "solve_cavity_modes", broken)
        config = tmp_path / "pair.cfg"
        config.write_text(PAIR_CONFIG)
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--out-dir", str(out)]) == 3
        assert "mirror symmetric" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestSolveAndAnalyze:
    def test_solve_writes_mode_files(self, config_path, tmp_path):
        out = tmp_path / "modes"
        assert main(["solve", config_path, "--out-dir", str(out)]) == 0
        files = sorted(out.iterdir())
        # five grid points, two branches each
        assert len(files) == 10
        assert files[0].name == "mode_p0000_m0.ep"
        mode, header = read_mode_file(files[0])
        assert header["parameter"] == -0.1
        assert mode.provenance == "two_level"

    def test_analyze_matches_direct_diagnostics(self, config_path,
                                                tmp_path, capsys):
        out = tmp_path / "modes"
        main(["solve", config_path, "--out-dir", str(out)])
        capsys.readouterr()
        target = str(out / "mode_p0000_m0.ep")
        assert main(["analyze", target]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("parameter,")
        cells = lines[1].split(",")
        direct = mode_diagnostics(
            two_level_modes(TwoLevelParams(-0.1, 1.0, 2.0))[0])
        assert float(cells[0]) == -0.1
        assert float(cells[7]) == direct.K
        assert float(cells[8]) == direct.S_folded

    def test_analyze_to_file(self, config_path, tmp_path):
        out = tmp_path / "modes"
        main(["solve", config_path, "--out-dir", str(out)])
        files = [str(p) for p in sorted(out.iterdir())]
        csv_path = tmp_path / "diag.csv"
        assert main(["analyze", *files, "--out", str(csv_path),
                     "--no-timestamp"]) == 0
        records = read_sweep_csv(csv_path)
        # each analyzed file is a record of its own, even at one parameter
        assert [len(r.modes) for r in records] == [1] * 10

    def test_analyze_csv_round_trip(self, config_path, tmp_path):
        # the m0 and m1 files of one point give two records at one parameter;
        # reading them back and writing again must reproduce the file
        out = tmp_path / "modes"
        main(["solve", config_path, "--out-dir", str(out)])
        csv_path = tmp_path / "diag.csv"
        assert main(["analyze", str(out / "mode_p0000_m0.ep"),
                     str(out / "mode_p0000_m1.ep"), "--out", str(csv_path),
                     "--no-timestamp"]) == 0
        records = read_sweep_csv(csv_path)
        assert [len(r.modes) for r in records] == [1, 1]
        again = tmp_path / "again.csv"
        write_sweep_csv(records, again, timestamp=False)
        assert again.read_bytes() == csv_path.read_bytes()

    def test_analyze_honors_analysis_flags(self, config_path, tmp_path,
                                           capsys):
        out = tmp_path / "modes"
        main(["solve", config_path, "--out-dir", str(out)])
        capsys.readouterr()
        target = str(out / "mode_p0000_m0.ep")
        assert main(["analyze", target, "--alpha", "1,4"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "renyi_4" in header and "renyi_1.5" not in header

    def test_files_hold_the_sweeps_branches(self, tmp_path):
        # criterion 6's pair: at 0.3000 the solver returns the branches in
        # the other order, so mode_p0001_m0.ep must hold its second mode
        config = tmp_path / "pair.cfg"
        config.write_text(PAIR_CONFIG)
        assert main(["sweep", str(config), "--out-dir", str(tmp_path),
                     "--no-timestamp"]) == 0
        modes = tmp_path / "modes"
        assert main(["solve", str(config), "--out-dir", str(modes)]) == 0
        files = sorted(str(p) for p in modes.iterdir())
        assert [p[-11:] for p in files] == [
            "p0000_m0.ep", "p0000_m1.ep", "p0001_m0.ep", "p0001_m1.ep"]
        diag = tmp_path / "diag.csv"
        assert main(["analyze", *files, "--out", str(diag),
                     "--no-timestamp"]) == 0
        swept = (tmp_path / "pair.csv").read_text().splitlines()
        analyzed = diag.read_text().splitlines()
        assert analyzed[0] == swept[0]
        # every cell but mode, track_ambiguous and error
        assert [row.split(",")[2:-2] for row in analyzed[1:]] \
            == [row.split(",")[2:-2] for row in swept[1:]]

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-bins", "1", "N_bins must be an integer >= 2"),
        ("--k-max", "0", "K_max must be an integer >= 1"),
        ("--alpha", "0", "alpha must be positive"),
        ("--alpha", "1,-2", "alpha must be positive"),
        ("--node-cutoff", "1.5", "node_cutoff must lie in [0, 1)"),
    ], ids=["n_bins", "k_max", "alpha_zero", "alpha_negative", "node_cutoff"])
    def test_analyze_flag_out_of_range(self, config_path, tmp_path, capsys,
                                       flag, value, message):
        out = tmp_path / "modes"
        main(["solve", config_path, "--out-dir", str(out)])
        capsys.readouterr()
        target = str(out / "mode_p0000_m0.ep")
        assert main(["analyze", target, flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_analyze_coarse_header_h_exit_code(self, tmp_path, capsys):
        # a cavity mode solved at h 0.1 whose header then claims h 0.5: the
        # grid it names is too coarse to build, a bad header value
        config = tmp_path / "disc.cfg"
        config.write_text("[model]\nmodel = cavity\nh = 0.1\n"
                          "[sweep]\ngrid = 0.1\nm = 1\n")
        out = tmp_path / "modes"
        assert main(["solve", str(config), "--out-dir", str(out)]) == 0
        path = out / "mode_p0000_m0.ep"
        lines = path.read_text().split("\n")
        at = lines.index("h: 0.1")
        lines[at] = "h: 0.5"
        path.write_text("\n".join(lines))
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line {at + 1}:" in err and "h=0.5" in err

    def test_analyze_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "no.ep")]) == 4

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-bins", "1", "N_bins must be an integer >= 2"),
        ("--alpha", "1,nan", "alpha must be positive"),
        ("--alpha", "1,inf", "alphas must be finite"),
        ("--alpha", "1,,2", "--alpha: empty item"),
    ], ids=["n_bins", "nan_alpha", "inf_alpha", "empty_alpha"])
    def test_analyze_checks_flags_before_reading(self, tmp_path, capsys,
                                                 flag, value, message):
        # a bad flag is a usage error (2), not the missing file's (4)
        assert main(["analyze", str(tmp_path / "no.ep"), flag, value]) == 2
        assert message in capsys.readouterr().err


class TestPlotCommand:
    @pytest.fixture
    def csv_path(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["sweep", config_path, "--out-dir", str(out),
              "--no-timestamp"])
        return str(out / "run.csv")

    def test_plot_from_csv(self, csv_path, tmp_path):
        svg = tmp_path / "fig.svg"
        code = main(["plot", csv_path, "--fields", "K,S_folded",
                     "--out", str(svg), "--marker", "0"])
        assert code == 0
        text = svg.read_text()
        assert "<polyline" in text and "K (mode 0)" in text

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_plot_rejects_non_finite_marker(self, csv_path, tmp_path, capsys,
                                            value):
        # a marker that is not finite would silently draw no line
        svg = tmp_path / "x.svg"
        assert main(["plot", csv_path, "--out", str(svg),
                     f"--marker={value}"]) == 2
        assert capsys.readouterr().err == "error: --marker must be finite\n"
        assert not svg.exists()

    def test_plot_unknown_field(self, csv_path, tmp_path, capsys):
        assert main(["plot", csv_path, "--fields", "bogus",
                     "--out", str(tmp_path / "x.svg")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_plot_empty_field_rejected(self, csv_path, tmp_path, capsys):
        svg = tmp_path / "x.svg"
        assert main(["plot", csv_path, "--fields", "K,,S_folded",
                     "--out", str(svg)]) == 2
        assert "--fields: empty item" in capsys.readouterr().err
        assert not svg.exists()

    def test_plot_names_line_of_identity_break(self, csv_path, tmp_path,
                                               capsys):
        # K = 3 on the first data row (file line 2) breaks K * R2^2 = 1
        lines = Path(csv_path).read_text().splitlines()
        cells = lines[1].split(",")
        cells[csv_columns((1.0, 1.5, 2.0)).index("K")] = "3.0"
        lines[1] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 2
        assert "line 2: row violates K * R2^2 = 1" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("renyi_1,", "renyi_-1,"), ("renyi_1,", "renyi_0,"),
        ("renyi_2,", "renyi_nan,"), ("renyi_2,", "renyi_inf,")],
        ids=["negative", "zero", "nan", "inf"])
    def test_plot_rejects_bad_header_order(self, csv_path, tmp_path, capsys,
                                           old, new):
        bad = tmp_path / "bad.csv"
        bad.write_text(Path(csv_path).read_text().replace(old, new, 1))
        svg = tmp_path / "x.svg"
        assert main(["plot", str(bad), "--out", str(svg)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: alpha")
        assert not svg.exists()

    @pytest.mark.parametrize("name", ["__init__", "__doc__", "__class__",
                                      "renyi", "renyi_7"])
    def test_plot_rejects_names_of_no_column(self, csv_path, tmp_path,
                                             capsys, name):
        svg = tmp_path / "x.svg"
        assert main(["plot", csv_path, "--fields", f"K,{name}",
                     "--out", str(svg)]) == 2
        assert f"field '{name}'" in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize("fields", ["K,K", "S_folded,K,S_folded"])
    def test_plot_axis_follows_field_position(self, csv_path, tmp_path,
                                              fields):
        # the first field is solid on the left axis and every later one,
        # a repeat of the first too, dashed on the right
        svg = tmp_path / "fig.svg"
        assert main(["plot", csv_path, "--fields", fields,
                     "--out", str(svg)]) == 0
        keys = re.findall(r'<line [^>]*stroke-width="1.5"'
                          r'( stroke-dasharray="6,3")?/>', svg.read_text())
        assert [bool(d) for d in keys] == [
            i > 0 for i in range(len(fields.split(","))) for _ in range(2)]

    def test_plot_missing_csv(self, tmp_path):
        assert main(["plot", str(tmp_path / "no.csv"),
                     "--out", str(tmp_path / "x.svg")]) == 4


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out


@pytest.fixture(scope="module")
def small_mode_file(tmp_path_factory):
    """A closed-cavity EPMODE file at h = 0.1: 305 data rows."""
    path = tmp_path_factory.mktemp("small_mode") / "m.ep"
    mode = solve_cavity_modes(CavitySpec(0.1, h=0.1), 3.8, 1)[0]
    write_mode_file(mode, path, parameter=0.1)
    return path


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_one_bad_value_reads_or_is_bad_input(small_mode_file, data):
    # one header value or row token replaced by a non-finite or an
    # out-of-range number reads, or is bad input (exit 2): it never ends
    # in a traceback or in a fault inside analyze (exit 3)
    lines = small_mode_file.read_text().split("\n")
    blank = lines.index("")
    at = data.draw(st.integers(1, blank - 1)
                   | st.integers(blank + 1, len(lines) - 2))
    key, sep, value = lines[at].partition(": ") if at < blank \
        else ("", "", lines[at])
    tokens = value.split(" ")
    tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(
        st.sampled_from(["nan", "inf", "-inf", "-1", "2"]))
    lines[at] = key + sep + " ".join(tokens)
    bad = small_mode_file.with_name("bad.ep")
    bad.write_text("\n".join(lines))
    assert main(["analyze", str(bad), "--out",
                 str(bad.with_suffix(".csv"))]) in (0, 2)
