"""Every demo script runs to completion from a scratch working directory."""

import subprocess
import sys

import pytest

from conftest import REPO_ROOT, cli_env

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=cli_env(),
                       text=True, capture_output=True, timeout=120)
    assert r.returncode == 0, r.stderr
