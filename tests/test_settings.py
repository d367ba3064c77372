"""The test settings themselves: pyproject.toml's warning filters turn a
DeprecationWarning into an error, and that must not stop a session when a
Hypothesis test fails."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 3


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    # on a failure Hypothesis imports its patch writer, whose dependencies
    # warn at import; the session must report both tests, not stop
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_sample.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out[-3000:]
    assert "1 failed, 1 passed" in out, out[-3000:]
