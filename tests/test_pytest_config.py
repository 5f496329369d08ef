"""The repository's pytest configuration: a failing test is reported as one
failure and the run goes on."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # every warning is an error under pyproject.toml; one raised while
    # hypothesis reports the failure must not end the run in INTERNALERROR
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir",
         str(tmp_path), "test_two.py"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    assert "INTERNALERROR" not in run.stdout, run.stdout
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), \
        run.stdout
