"""README's library quickstart runs as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import triphase

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_and_prints_what_it_documents(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    src = str(Path(triphase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    snapshot, outcome = done.stdout.splitlines()
    volts = re.fullmatch(r"VoltageTriple\(v12=(\S+), v23=(\S+), v31=(\S+)\)", snapshot)
    assert volts is not None, snapshot
    assert [float(v) for v in volts.groups()] == pytest.approx([0.72, 0.53, -1.08], abs=0.05)
    assert outcome.split()[0] == "True"  # converged
