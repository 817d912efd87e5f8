"""The quick demos run end to end, each from a copy in a temporary folder,
so that what a demo writes lands under the copy's own out/. Demo 03 takes
about a minute and is left to be run by hand."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_two_level_locking",
                                  "02_closed_cavity_baseline",
                                  "04_entropy_identities"])
def test_demo_runs(name, tmp_path, capsys):
    script = tmp_path / f"{name}.py"
    shutil.copy(DEMOS / script.name, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    if name.startswith("01"):
        # the committed plot and table are this run's, byte for byte
        for out in ("two_level.csv", "two_level.svg"):
            assert (tmp_path / "out" / out).read_bytes() \
                == (DEMOS / "out" / out).read_bytes()
