"""The shared conftest: a failing hypothesis example must not end the session."""

import os
import shutil
import subprocess
import sys

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_example_leaves_later_tests_running(tmp_path):
    # under filterwarnings = "error" the plugin's report of a failing example
    # once raised INTERNALERROR, and test_passes never ran ("1 failed")
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    shutil.copy(os.path.join(here, "conftest.py"), tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", os.path.join(root, "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
