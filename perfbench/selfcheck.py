"""Self-check of the benchmark: every workload, traced, at two seeds.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

Runs ``run.py --trace 1`` with a short ``--seconds`` for each workload
at the default seed, where the result digests must equal the pinned
ones, and once at the held-out seed of ``rationale.json``, where only
the cross-pass agreement and the trace closure are checked.  Exits
non-zero when any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOADS  # noqa: E402


def main():
    with open(os.path.join(HERE, "rationale.json")) as f:
        rationale = json.load(f)
    seeds = (rationale["default_seed"], rationale["held_out_seed"])
    bad = 0
    for workload in WORKLOADS:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True)
            ok = proc.returncode == 0 and json.loads(
                proc.stdout.strip().splitlines()[-1])["correct"]
            print(f"{workload:<12} seed={seed:<3} "
                  f"{'ok' if ok else 'FAILED'}", flush=True)
            if not ok:
                bad += 1
                sys.stdout.write(proc.stdout + proc.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
