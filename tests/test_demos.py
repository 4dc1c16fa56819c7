import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=src_env()
    )
    assert result.returncode == 0, result.stderr
