"""Smoke tests of the scripts: each runs on a short table and prints it."""

import os
import subprocess
import sys
from pathlib import Path

import oscwave

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, *args):
    pkg_root = Path(oscwave.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(pkg_root))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env,
    )


def test_route_comparison_prints_its_table():
    done = _run_script("route_comparison.py", "--times", "0.4")
    assert done.returncode == 0, done.stderr
    assert "kernel vs spectral" in done.stdout
    assert "spectral vs conjugation" in done.stdout


def test_wave_deviation_table_prints_its_table():
    done = _run_script("wave_deviation_table.py", "--times", "0.001,0.1",
                       "--n", "256")
    assert done.returncode == 0, done.stderr
    assert "rel L2 deviation" in done.stdout
    assert "monotone growth: yes" in done.stdout
