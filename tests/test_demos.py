import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("0*.py"))


def test_demo_directory_is_populated():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "demos should narrate something"
