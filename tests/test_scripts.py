"""Every script under ``scripts/`` starts and prints its help, the profile
script runs end to end, and README's Python quick start runs.

The scripts and README import public names of the package
(``ConditioningFamily``, ``locate_pc``, ``two_point_profile``, ...), and
nothing else in the suite imports some of them: a rename or a deletion in
the package must fail here, not at the next manual run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(script), *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(script):
    assert "usage:" in _run_script(script, "--help")


def test_run_profiles_prints_frozen_profiles_and_fits():
    # both profiles at d = 2, p = 1/2, seed 2024 on five radii, and a fit of
    # each: the table and the fits are deterministic to the last digit
    out = _run_script(ROOT / "scripts" / "run_profiles.py", "--n-samples", "50")
    assert out.splitlines() == [
        "# d=2 p=0.5 seed=2024 n=50",
        "r  two_point +- err      one_arm +- err",
        "2   0.6800 +- 0.0660    0.9000 +- 0.0424",
        "4   0.5000 +- 0.0707    0.8600 +- 0.0491",
        "8   0.4000 +- 0.0693    0.7800 +- 0.0586",
        "16  0.3200 +- 0.0660    0.6600 +- 0.0670",
        "32  0.2600 +- 0.0620    0.5600 +- 0.0702",
        "two-point: value ~ 0.855 * r^(-0.356 +- 0.073)  [window (0, 5), 5 pts]",
        "one-arm: value ~ 1.025 * r^(-0.152 +- 0.036)  [window (0, 5), 5 pts]",
    ]


def test_readme_python_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    assert _run_script("-c", blocks[0]).splitlines() == [
        "(1, 0) 0.760 +- 0.030",
        "(4, 0) 0.540 +- 0.035",
        "(16, 0) 0.360 +- 0.034",
    ]
