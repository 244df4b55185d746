"""The example scripts run to completion and their own cross-checks hold."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    return proc.stdout


def test_assembly_survey_agrees_with_the_oracle():
    out = _run("assembly_survey.py")
    rows = out.splitlines()[1:]
    assert len(rows) == 18  # six groups, three families each
    assert "DISAGREE" not in out
    assert all(" agree (" in row for row in rows)


def test_homology_zoo_transfer_folds_multiply():
    out = _run("homology_zoo.py")
    folds = [line for line in out.splitlines() if "every degree multiplied by" in line]
    assert len(folds) == 3
    assert all(line.endswith(": True") for line in folds)
