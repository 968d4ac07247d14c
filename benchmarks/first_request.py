"""Set-up probe: a fresh interpreter imports sqzsim and serves a workload's first request.

    python3 benchmarks/first_request.py paper_chip|stress_chip SEED

The benchmark times this whole process from outside, so `setup_s` covers
interpreter start, imports, input generation and the first request.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sqzsim

import workloads


def main(workload, seed):
    if workload == "paper_chip":
        text = workloads.paper_inputs(ROOT)[0]
    else:
        text = workloads.stress_chip(seed).text
    noiseless, noise_seed = workloads.schedule(seed)[0]
    workloads.inprocess_request(sqzsim, text, noiseless, noise_seed)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
