"""tools/scaling_probes.py rejects probe kinds it does not know."""

import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "scaling_probes.py",
)


@pytest.mark.parametrize(
    "argv", [["bogus"], ["--child", "bogus", "1", "10"], ["--child", "scan", "1"]]
)
def test_unknown_probe_kind_is_a_usage_error(argv):
    out = subprocess.run(
        [sys.executable, SCRIPT, *argv], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 2
    assert out.stderr.startswith("usage:")
