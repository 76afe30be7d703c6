import sys
from pathlib import Path

import pytest
from hypothesis import settings

from ionfab.arch import load_architecture

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_JSON = REPO_ROOT / "docs" / "example.json"
SCHEMAS_DIR = REPO_ROOT / "schemas"
GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURES_DIR = Path(__file__).parent / "fixtures"

# Every run draws the same examples; tests set their own max_examples.
settings.register_profile("ionfab", derandomize=True, deadline=None)
settings.load_profile("ionfab")


@pytest.fixture(scope="session")
def example_spec():
    return load_architecture(EXAMPLE_JSON)


@pytest.fixture(scope="session")
def built_spec():
    return load_architecture(EXAMPLE_JSON)


def run_cli(args, cwd=None):
    """Run the CLI in module mode so tests don't depend on console_scripts."""
    import subprocess

    cmd = [sys.executable, "-m", "ionfab", *args]
    return subprocess.run(cmd, cwd=cwd, text=True, capture_output=True,
                          env=cli_env())


def cli_env():
    """The test process's environment with this checkout's ``src`` first on
    PYTHONPATH, so subprocesses import the ionfab under test."""
    import os

    env = dict(os.environ)
    env["COLUMNS"] = "80"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env
