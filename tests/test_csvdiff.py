"""tools/csvdiff.py: the per-column table that reports how far a change
moved a sweep CSV."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "csvdiff.py"
OLD = ("# written 2026-01-01\n"
       "parameter,mode,K,error\n"
       "0.1,0,2.0,\n"
       "0.1,1,nan,\n"
       "0.2,-1,0.0,NoConvergence: x\n")


def run(tmp_path, old, new):
    (tmp_path / "old.csv").write_text(old)
    (tmp_path / "new.csv").write_text(new)
    return subprocess.run([sys.executable, str(TOOL), str(tmp_path / "old.csv"),
                           str(tmp_path / "new.csv")],
                          capture_output=True, text=True)


def table(out):
    return {line.split()[0]: line.split()[1:]
            for line in out.splitlines()[1:] if not line.startswith(" ")}


def test_identical_files_show_no_change(tmp_path):
    got = run(tmp_path, OLD, OLD.replace("2026-01-01", "2026-02-02"))
    assert got.returncode == 0
    rows = table(got.stdout)
    assert rows["K"] == ["0", "0", "0"]
    assert "error" not in rows  # text column
    assert "0 text cells differ" in got.stdout


def test_reports_largest_changes_and_text_rows(tmp_path):
    new = OLD.replace("0.1,0,2.0,", "0.1,0,2.5,").replace(
        "0.2,-1,0.0,NoConvergence: x", "0.2,-1,1e-16,NoConvergence: y")
    got = run(tmp_path, OLD, new)
    assert got.returncode == 0
    rows = table(got.stdout)
    assert rows["K"] == ["0.5", "inf", "2"]  # 2.0 -> 2.5; 0.0 -> 1e-16
    assert rows["parameter"] == ["0", "0", "0"]
    assert "1 text cells differ" in got.stdout
    assert "row 3 error: 'NoConvergence: x' -> 'NoConvergence: y'" \
        in got.stdout


@pytest.mark.parametrize("new", [
    OLD.replace("parameter,mode,K,error", "parameter,mode,R2,error"),
    OLD + "0.3,0,1.0,\n",
])
def test_header_or_row_count_mismatch_fails(tmp_path, new):
    got = run(tmp_path, OLD, new)
    assert got.returncode != 0
    assert "differ" in got.stderr


def test_standard_library_only():
    tree = ast.parse(TOOL.read_text())
    names = {alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    assert names and names <= sys.stdlib_module_names
