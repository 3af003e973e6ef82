"""One workload run: set up once, then fork every pass from the same parent.

``run.py`` starts this script in a fresh interpreter with a fixed
``PYTHONHASHSEED`` and ``src`` on the path.  After set-up (imports,
spec lowering, workload build) each **timed pass** forks one child per
cell of the workload; the child runs the cell once through
``jobs_for_scenario`` → ``run_experiment``, inline, with no pool, and
reports its wall time, peak RSS, result digest and simulated facts.
Forking every cell from the post-set-up parent means no pass inherits
another's interpreter caches (the ``lru_cache`` s in
``repro.plans.expressions``; with a fixed seed every pass replays the
same query texts), so each pass measures what a fresh ``repro
scenarios run`` pays.  Passes rotate the cell order, so a slow burst of
the host does not land on one cell only, and each cell's metric comes
from its fastest pass.  With ``--trace 1`` one extra forked pass runs
with :mod:`tracer` wrappers installed and gives the per-layer metrics.

Prints one JSON document on stdout and exits 0, or exits 1 when a cell
never completed a pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

#: the seed the scenarios are registered with; only at this seed are
#: result digests compared with the pinned ones
DEFAULT_SEED = 3
#: every cell runs at least this many timed passes, whatever --seconds
MIN_PASSES = 3
#: the traced pass's self times must add up to its wall time within
#: this share (the only gap is the outermost wrapper's own overhead)
CLOSURE_TOLERANCE = 0.01

#: every layer the tracer charges self time to
LAYERS = ("sql.parse", "sql.bind", "optimizer.precheck",
          "optimizer.enumeration", "optimizer.selection",
          "optimizer.parameterization", "compilation", "throttle", "broker",
          "execution", "storage", "sim", "traffic", "admission", "workload",
          "metrics", "experiments")


def build_spec(workload, seed):
    """The scenario a workload runs, at ``seed``."""
    import repro.scenarios.library as library
    from repro.scenarios.registry import get_scenario

    if workload == "fig3-closed":
        spec = get_scenario("fig3")
    elif workload == "flood-open":
        spec = library.scale_flood_scenario(sessions=1000)
    elif workload == "mixed-oltp":
        spec = get_scenario("mixed-rush")
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return dataclasses.replace(spec, seed=seed)


def set_up(workload, seed):
    """Lower the scenario to cells: (name, config, pre-built workload)."""
    from repro.experiments import runner
    from repro.scenarios.facade import jobs_for_scenario
    # run_experiment imports these lazily; a real run pays that once per
    # process, so it belongs to set-up, not to every forked pass
    import repro.sim.wheel  # noqa: F401
    import repro.traffic.openloop  # noqa: F401

    cells = [(job.name, job.config, job.config.build_workload())
             for job in jobs_for_scenario(build_spec(workload, seed))]
    # objects that exist now are never collected again: forked passes
    # then do not touch (and copy) the parent's pages in GC sweeps
    gc.collect()
    gc.freeze()
    return runner, cells


def _capture_instances(cls):
    """Record every instance of ``cls`` constructed from now on."""
    made = []
    init = cls.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
    cls.__init__ = capture
    return made


def _percentile(values, q):
    """Nearest-rank percentile of a sorted list (0.0 when empty)."""
    if not values:
        return 0.0
    rank = math.ceil(q * len(values)) - 1
    return values[min(len(values) - 1, max(0, rank))]


def run_cell(runner, cell, traced):
    """The body of one forked child: run ``cell`` once and report."""
    from repro.experiments.engine import summarize_result
    from repro.experiments.shards import canonical_document
    from repro.metrics.collector import MetricsCollector
    from repro.server.server import DatabaseServer

    name, config, workload = cell
    collectors = _capture_instances(MetricsCollector)
    servers = _capture_instances(DatabaseServer)
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    started = perf_counter()
    result = runner.run_experiment(config, workload=workload)
    wall = perf_counter() - started

    document = json.dumps(canonical_document(summarize_result(result)),
                          sort_keys=True)
    (metrics,) = collectors
    (server,) = servers
    scale = runner.get_preset(config.preset).time_scale
    records = metrics.records
    ok = [r for r in records if r.ok]
    facts = {
        "attempts": len(records),
        "ok": len(ok),
        "completed": result.completed,
        "search_replays": result.search_replays,
        "latencies": sorted(r.elapsed * scale for r in ok),
    }
    out = {
        "cell": name,
        "wall_s": wall,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": hashlib.sha256(document.encode()).hexdigest(),
        "facts": facts,
    }
    if tracer is not None:
        out["layers"] = _layer_facts(tracer, server, metrics, result, scale)
    return out


def _layer_facts(tracer, server, metrics, result, scale):
    """Counters and samples of one traced cell, summed later."""
    pipeline = server.pipeline
    open_loop = result.open_loop or {}
    ok = [r for r in metrics.records if r.ok]
    return {
        "self_s": dict(tracer.self_s),
        "counts": {
            **tracer.counts,
            "sql.distinct_texts": len(tracer.parsed_texts),
            "compilation.compiles": pipeline.compilations,
            "compilation.search_replays": pipeline.search_replays,
            "compilation.degraded_plans": pipeline.degraded_plans,
            "compilation.oom_failures": pipeline.oom_failures,
            "plancache.hits": server.plan_cache.hits,
            "plancache.misses": server.plan_cache.misses,
            "plancache.evictions": server.plan_cache.evictions,
            "throttle.gateway_timeouts": sum(
                g.stats.timeouts for g in server.governor.gateways),
            "broker.sweeps": server.broker.sweeps,
            "broker.soft_denials": pipeline.soft_denials,
            "execution.grant_timeouts":
                metrics.error_counts.get("grant_timeout", 0),
            "storage.bufferpool.hits": server.buffer_pool.hits,
            "storage.bufferpool.misses": server.buffer_pool.misses,
            "storage.bufferpool.evictions": server.buffer_pool.evictions,
            "traffic.offered": open_loop.get("offered", 0.0),
            "admission.admitted": open_loop.get("admitted", 0.0),
            "admission.dropped": open_loop.get("dropped", 0.0),
        },
        "admission.queue_wait_p90_sim_s": open_loop.get("queue_wait_p90",
                                                        0.0),
        "gateway_waits": [r.gateway_wait * scale for r in ok
                          if not r.cached_plan],
        "grant_waits": [r.grant_wait * scale for r in ok],
    }


def fork_cell(runner, cell, traced):
    """Run one cell in a forked child; its report, or an error dict."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 0
        try:
            payload = run_cell(runner, cell, traced)
        except BaseException:
            payload = {"error": traceback.format_exc()}
            code = 1
        with os.fdopen(write_end, "w") as pipe:
            json.dump(payload, pipe)
        os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"pass child ended with status {status} "
                         f"and no report"}
    return json.loads(data)


def timed_passes(runner, cells, seconds):
    """Fork passes until the next one would end past ``seconds``."""
    reports = []
    passes = 0
    started = perf_counter()
    while True:
        for offset in range(len(cells)):
            cell = cells[(passes + offset) % len(cells)]
            reports.append(fork_cell(runner, cell, traced=False))
        passes += 1
        elapsed = perf_counter() - started
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            return reports, passes


def _end_to_end(cells, reference, fastest, rss_kb):
    attempts = sum(reference[c]["facts"]["attempts"] for c in cells)
    ok = sum(reference[c]["facts"]["ok"] for c in cells)
    latencies = sorted(x for c in cells
                       for x in reference[c]["facts"]["latencies"])
    pass_s = sum(fastest[c] for c in cells)
    return {
        "queries_per_s": (attempts / pass_s, "1/s"),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "sim_completed": (float(sum(reference[c]["facts"]["completed"]
                                    for c in cells)), "queries"),
        "sim_success_share": (ok / attempts, "ratio"),
        "sim_latency_p50_s": (_percentile(latencies, 0.50), "sim_s"),
        "sim_latency_p90_s": (_percentile(latencies, 0.90), "sim_s"),
    }, {"sim_latency_samples": len(latencies), "sim_attempts": attempts}


def _per_layer(traced, pass_s):
    counts = {}
    self_s = {}
    gateway_waits, grant_waits, queue_waits = [], [], []
    for report in traced:
        layers = report["layers"]
        for key, value in layers["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in layers["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
        gateway_waits += layers["gateway_waits"]
        grant_waits += layers["grant_waits"]
        queue_waits.append(layers["admission.queue_wait_p90_sim_s"])
    traced_wall = sum(r["wall_s"] for r in traced)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def count(key, unit="count"):
        return (float(counts.get(key, 0)), unit)

    hits = counts["storage.bufferpool.hits"]
    out = {
        "sql.parse.calls": count("sql.parse.calls"),
        "sql.bind.calls": count("sql.bind.calls"),
        "sql.distinct_text_share": (ratio(counts["sql.distinct_texts"],
                                          counts.get("sql.parse.calls", 0)),
                                    "ratio"),
        "optimizer.tasks": count("optimizer.tasks"),
        "optimizer.steps": count("optimizer.steps"),
        "compilation.compiles": count("compilation.compiles"),
        "compilation.search_replays": count("compilation.search_replays"),
        "compilation.replay_share": (
            ratio(counts["compilation.search_replays"],
                  counts.get("compilation.calls", 0)), "ratio"),
        "compilation.degraded_plans": count("compilation.degraded_plans"),
        "compilation.oom_failures": count("compilation.oom_failures"),
        "plancache.hits": count("plancache.hits"),
        "plancache.misses": count("plancache.misses"),
        "plancache.evictions": count("plancache.evictions"),
        "plancache.hit_ratio": (
            ratio(counts["plancache.hits"],
                  counts["plancache.hits"] + counts["plancache.misses"]),
            "ratio"),
        "throttle.ensure.calls": count("throttle.ensure.calls"),
        "throttle.gateway_timeouts": count("throttle.gateway_timeouts"),
        "throttle.gateway_wait_p90_sim_s": (
            _percentile(sorted(gateway_waits), 0.90), "sim_s"),
        "broker.sweeps": count("broker.sweeps"),
        "broker.soft_denials": count("broker.soft_denials"),
        "execution.executions": count("execution.executions"),
        "execution.grant_timeouts": count("execution.grant_timeouts"),
        "execution.grant_wait_p90_sim_s": (
            _percentile(sorted(grant_waits), 0.90), "sim_s"),
        "storage.read_range.calls": count("storage.read_range.calls"),
        "storage.bufferpool.hit_ratio": (
            ratio(hits, hits + counts["storage.bufferpool.misses"]),
            "ratio"),
        "storage.bufferpool.evictions": count("storage.bufferpool.evictions"),
        "sim.events": count("sim.events"),
        "traffic.offered": count("traffic.offered"),
        "admission.admitted": count("admission.admitted"),
        "admission.dropped": count("admission.dropped"),
        "admission.queue_wait_p90_sim_s": (max(queue_waits), "sim_s"),
        "workload.generate.calls": count("workload.generate.calls"),
        "metrics.records": count("metrics.records"),
        "trace.overhead_share": (traced_wall / pass_s - 1.0, "ratio"),
        "trace.unattributed_share": (
            1.0 - sum(self_s.values()) / traced_wall, "ratio"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return out


def measure(runner, cells, workload, seed, seconds, trace):
    """Run every pass of one workload; the worker's JSON document."""
    names = [c[0] for c in cells]
    reports, passes = timed_passes(runner, cells, seconds)
    traced = ([fork_cell(runner, cell, traced=True) for cell in cells]
              if trace else [])

    errors = []
    failed = 0
    reference, fastest = {}, {}
    rss_kb = 0
    for report in reports + traced:
        if "error" in report:
            failed += 1
            errors.append(report["error"])
            continue
        cell = report["cell"]
        ref = reference.setdefault(cell, report)
        if (report["digest"], report["facts"]) != (ref["digest"],
                                                   ref["facts"]):
            failed += 1
            errors.append(f"{cell}: pass disagrees with the first pass")
            continue
        if "layers" in report:
            continue
        fastest[cell] = min(fastest.get(cell, math.inf), report["wall_s"])
        rss_kb = max(rss_kb, report["rss_kb"])
    missing = [c for c in names if c not in fastest]
    if missing or any("error" in r for r in traced):
        sys.stderr.write("\n".join(errors) + "\n")
        raise SystemExit(f"no successful pass of {missing or 'the trace'}")

    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as f:
            pinned = json.load(f)[workload]
        for cell in names:
            if reference[cell]["digest"] != pinned.get(cell):
                errors.append(f"{cell}: digest differs from the pinned one")
    for report in traced:
        attributed = sum(report["layers"]["self_s"].values())
        if abs(attributed - report["wall_s"]) > (CLOSURE_TOLERANCE
                                                 * report["wall_s"]):
            errors.append(f"{report['cell']}: traced self times sum to "
                          f"{attributed:.4f} s, wall {report['wall_s']:.4f} s")

    end_to_end, notes = _end_to_end(names, reference, fastest, rss_kb)
    per_layer = (_per_layer(traced, end_to_end["pass_s"][0])
                 if trace else None)
    return {
        "correct": not errors,
        "attempted": len(reports) + len(traced),
        "failed": failed,
        "errors": errors,
        "passes": passes,
        "fastest_s": fastest,
        "notes": notes,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when run.py started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    runner, cells = set_up(args.workload, args.seed)
    setup_s = time.monotonic() - args.launched
    doc = ({} if args.setup_only else
           measure(runner, cells, args.workload, args.seed, args.seconds,
                   args.trace))
    doc["setup_s"] = setup_s
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
