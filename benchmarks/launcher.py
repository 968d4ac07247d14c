"""Starts and times the benchmark's child processes, from a process that holds no numpy.

On Linux a new program's peak RSS starts at the peak of the process that
started it. The benchmark process holds numpy and the package, so a CLI
process it started itself would report at least that much. This
launcher imports only the standard library; the largest child it reports
is the CLI's own peak, as a user starting it from a shell would see.

Protocol: one JSON request per stdin line, {"argv": [...], "timeout": seconds};
one JSON reply per stdout line, {"wall_s", "code", "stdout", "stderr",
"children_maxrss_kb"}, where `code` is null on timeout (the child is killed
and waited for) and `children_maxrss_kb` is the largest child so far.
"""

import json
import resource
import subprocess
import sys
import time


def _text(value):
    return value.decode("utf-8", "replace") if isinstance(value, bytes) else value or ""


def main():
    for line in sys.stdin:
        request = json.loads(line)
        start = time.perf_counter()
        try:
            done = subprocess.run(request["argv"], capture_output=True, text=True,
                                  timeout=request["timeout"])
            code, out, err = done.returncode, done.stdout, done.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = None, _text(exc.stdout), _text(exc.stderr)
        wall = time.perf_counter() - start
        reply = {"wall_s": wall, "code": code, "stdout": out, "stderr": err,
                 "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
