"""Every script under ``scripts/`` starts and prints its help.

The scripts import public names of the package (``ConditioningFamily``,
``locate_pc``, ...), and nothing else in the suite imports them: a rename or
a deletion in the package must fail here, not at the next manual run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(script), "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "usage:" in res.stdout
