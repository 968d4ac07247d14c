"""The README's library example runs as written and prints what its comments promise."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    done = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True, timeout=120,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                                             "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "(4, 4) (0, 2) 4" in lines
    assert "True" in lines
