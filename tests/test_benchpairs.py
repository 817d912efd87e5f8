"""tools/benchpairs.py: the paired statistics behind a BENCH_*.json record,
and the alternating order of its runs."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"
_spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)


@pytest.mark.parametrize("values", [[4.0, 1.0, 3.0, 2.0],
                                    [0.43, 0.41, 0.52, 0.39, 0.47, 0.44,
                                     0.40, 0.61, 0.45, 0.42],
                                    [7.0, 7.0]])
def test_quartiles_match_numpy_linear_percentile(values):
    assert benchpairs.quartiles(values) == pytest.approx(
        np.percentile(values, [25, 50, 75]), rel=1e-15)


def test_quartiles_on_fixed_numbers():
    # positions 0.75, 1.5 and 2.25 of the sorted 1, 2, 3, 4
    assert benchpairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)


PARENT = [61.0, 60.8, 61.2, 60.9, 61.1, 61.0, 60.7, 61.3, 60.9, 61.0]


def test_gain_holds_on_nine_wins_beyond_the_iqr():
    change = [58.0] * 9 + [61.5]  # the last pair goes to the parent
    got = benchpairs.compare(PARENT, change, "lower", 0.05)
    assert (got["change_wins"], got["parent_wins"]) == (9, 1)
    assert got["parent"]["median"] == 61.0
    # sorted positions 2.25 and 6.75: 60.9 and 61.0 + 0.75 * 0.1
    assert got["parent"]["iqr"] == pytest.approx(0.175)
    assert got["change"]["median"] == 58.0
    assert got["gain_holds"] and got["within_bound"]
    assert got["median_change_frac"] == pytest.approx(-3.0 / 61.0)


def test_gain_fails_on_eight_wins():
    change = [58.0] * 8 + [61.5, 61.5]
    got = benchpairs.compare(PARENT, change, "lower", 0.05)
    assert got["change_wins"] == 8 and not got["gain_holds"]


def test_gain_fails_within_the_iqr():
    # every pair won, but by less than the parent's IQR of 0.175
    change = [p - 0.1 for p in PARENT]
    got = benchpairs.compare(PARENT, change, "lower", 0.05)
    assert got["change_wins"] == 10 and not got["gain_holds"]


def test_higher_is_better_and_the_bound():
    parent = [10.0, 10.0, 10.0, 10.0]
    got = benchpairs.compare(parent, [7.0, 7.0, 7.0, 12.0], "higher", 0.25)
    assert (got["change_wins"], got["parent_wins"]) == (1, 3)
    assert got["worse_frac"] == pytest.approx(0.3)
    assert not got["within_bound"] and not got["gain_holds"]
    # equal values: no pair won, nothing worse
    same = benchpairs.compare([1.0] * 4, [1.0] * 4, "higher", 0.001)
    assert (same["change_wins"], same["parent_wins"]) == (0, 0)
    assert same["worse_frac"] == 0.0 and same["within_bound"]


def test_seed_lists():
    assert benchpairs.parse_seeds("201-204") == [201, 202, 203, 204]
    assert benchpairs.parse_seeds("3,9") == [3, 9]


FAKE_RUN = '''
import argparse, json, pathlib
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
a = ap.parse_args()
root = pathlib.Path(__file__).resolve().parent.parent
with open(root.parent / "log.txt", "a") as fh:
    fh.write(f"{root.name} {a.seed}\\n")
out = root / "perfbench" / "out" / a.workload
out.mkdir(parents=True, exist_ok=True)
(out / f"result-s{a.seed}-t0.json").write_text(json.dumps({"machine": {
    "git_commit": root.name, "src_sha256": root.name, "nproc": 2,
    "cpus_usable": 2, "cpu_model": "test", "python": "3", "numpy": "2"}}))
value = {"parent": 61.0, "change": 58.0}[root.name] + int(a.seed) / 100
print("# human lines first")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": value,
                                              "unit": "MB"}}}))
'''


def test_runs_alternate_and_the_record_is_written(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "peak_rss_mb", "unit": "MB",
                             "better": "lower", "bound": 0.05}]}))
    out = tmp_path / "BENCH_x.json"
    benchpairs.main(["benchpairs", str(tmp_path / "parent"),
                     str(tmp_path / "change"), "--seeds", "1-3",
                     "--workloads", "analyze_modes", "--seconds", "1",
                     "--out", str(out)])
    assert (tmp_path / "log.txt").read_text().split("\n") == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3",
        "change 3", ""]
    record = json.loads(out.read_text())
    assert record["parent"]["git_commit"] == "parent"
    assert record["change"]["src_sha256"] == "change"
    wl = record["workloads"]["analyze_modes"]
    assert wl["seeds"] == [1, 2, 3]
    assert wl["all_runs_correct"] == {"parent": True, "change": True}
    rss = wl["metrics"]["peak_rss_mb"]
    assert rss["parent_values"] == [61.01, 61.02, 61.03]
    assert rss["change_values"] == [58.01, 58.02, 58.03]
    assert rss["change_wins"] == 3 and rss["gain_holds"]


def test_standard_library_only():
    tree = ast.parse(TOOL.read_text())
    names = {alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    assert names and names <= sys.stdlib_module_names
