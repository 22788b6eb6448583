"""Each demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
# toy_training.py trains for about 40 s; the training loop it walks through
# is covered by tests/test_train.py and acceptance criterion 9.
SLOW = {"toy_training.py"}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")
                                        if p.name not in SLOW))
def test_demo_exits_zero(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
