"""Benchmark of the simulator: one workload per run, metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3-closed --seed 3 \
        --seconds 30 --trace 0

Workloads: ``fig3-closed``, ``flood-open`` and ``mixed-oltp`` (their
reasons, and the prediction each layer metric carries, are in
``perfbench/rationale.json``).  The run starts ``worker.py`` in a fresh
interpreter with a fixed ``PYTHONHASHSEED`` — with ``--trace 0`` first
``SETUP_PROBES`` times for set-up only, then once for the measured
passes — and times each start from launch until the worker is ready to
fork its first pass.  ``setup_s`` is the median of those starts.

Prints a table, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced pass with
``--trace 1``.  Exits non-zero, printing no result, when the simulator's
sources are missing or a pass never completed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig3-closed", "flood-open", "mixed-oltp")
#: set-up-only starts per run, on top of the measured run's own start
SETUP_PROBES = 6
#: the whole run, set-up probes included, must end within this
DEADLINE_S = 170.0
#: fixed so set-based iteration order, and with it every pass's work,
#: is the same in every run
HASH_SEED = "0"


def launch(args, deadline, setup_only):
    """Run the worker once; its JSON document."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.path.join(ROOT, "src"))
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--launched", repr(time.monotonic())]
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the worker's forked passes share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("benchmark run exceeded its deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with status {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit(f"no simulator sources under {os.path.join(ROOT, 'src')}")

    deadline = time.monotonic() + DEADLINE_S
    # only the end-to-end metrics report set-up time
    setups = [launch(args, deadline, setup_only=True)["setup_s"]
              for _ in range(0 if args.trace else SETUP_PROBES)]
    doc = launch(args, deadline, setup_only=False)
    setups.append(doc["setup_s"])

    for error in doc["errors"]:
        print(f"ERROR {error}")
    print(f"{args.workload} seed={args.seed}: {doc['passes']} timed passes; "
          f"fastest per cell: "
          + ", ".join(f"{c}={s:.4f}s" for c, s in doc["fastest_s"].items()))
    print(f"simulated: {doc['notes']['sim_attempts']} query attempts, "
          f"latency percentiles over {doc['notes']['sim_latency_samples']} "
          f"successful queries")
    if args.trace:
        metrics = doc["per_layer"]
    else:
        metrics = dict(doc["end_to_end"],
                       setup_s=(statistics.median(setups), "s"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
