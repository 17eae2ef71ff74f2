"""The repository's pytest configuration reports a failing property test as
one failure and goes on with the remaining tests."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# a failing @given test before a passing one: hypothesis's failure report
# must not abort the run before the second test
PROPERTY_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1 and "1 failed, 1 passed" in out, out
