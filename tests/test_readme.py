"""The README's examples run as written: the library example prints what its comments promise,
and the workflow step that runs the command-line examples exits 0."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_command_line_examples_step_of_the_workflow_exits_0(tmp_path):
    # the step as the runner runs it (`shell: bash` is `bash --noprofile --norc -eo pipefail`),
    # with this interpreter first on PATH
    yaml = pytest.importorskip("yaml")
    bash = shutil.which("bash")
    if bash is None or not os.path.exists("/dev/full"):
        pytest.skip("the step needs bash and /dev/full")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    (step,) = [step for step in workflow["jobs"]["tier1"]["steps"]
               if step.get("name") == "README command-line examples"]
    assert step["shell"] == "bash"
    env = {**os.environ, "GITHUB_WORKSPACE": str(ROOT), "RUNNER_TEMP": str(tmp_path),
           "PYTHONPATH": str(ROOT / "src"),
           "PATH": os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")])}
    done = subprocess.run([bash, "--noprofile", "--norc", "-eo", "pipefail", "-c", step["run"]],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
    assert done.returncode == 0, done.stdout + done.stderr
