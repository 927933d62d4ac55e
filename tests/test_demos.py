"""Each demo runs to the end, so a library name that a demo still uses
cannot disappear unnoticed. The demos print their own checks as True/False.
Demos write their files into a temporary directory, which the test places
under its own tmp_path, so concurrent runs never share a file."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "False" not in out
