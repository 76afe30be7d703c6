"""Every demo script runs to completion from a scratch working directory."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                       text=True, capture_output=True, timeout=120)
    assert r.returncode == 0, r.stderr
