"""Smoke tests of the scripts: each runs on a short table and prints it."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(monkeypatch, capsys, name, *args):
    """The stdout of scripts/name run as __main__ with args, in this process."""
    path = str(SCRIPTS / name)
    monkeypatch.setattr(sys, "argv", [path, *args])
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


def test_route_comparison_prints_its_table(monkeypatch, capsys):
    out = _run_script(monkeypatch, capsys, "route_comparison.py", "--times", "0.4")
    assert "kernel vs spectral" in out
    assert "spectral vs conjugation" in out


def test_wave_deviation_table_prints_its_table(monkeypatch, capsys):
    out = _run_script(monkeypatch, capsys, "wave_deviation_table.py",
                      "--times", "0.001,0.1", "--n", "256")
    assert "rel L2 deviation" in out
    assert "monotone growth: yes" in out
