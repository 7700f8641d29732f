"""Run one workload of the GoFlow middleware benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_amqp --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it is the run record (host, versions, commit, seed, run length, reference
figures), also saved under ``.perfbench-results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path


HERE = Path(__file__).resolve().parent

UNITS = {
    "setup_s": "s",
    "ingest_obs_per_s": "obs/s",
    "uplink_p50_ms": "ms",
    "queries_per_s": "queries/s",
    "query_p50_ms": "ms",
    "rss_mb": "MB",
}


def measure(workload, seconds: float, trace: bool):
    """Set up a few times, running the timed phase on the first set-up,
    and (traced) run the phase again on a traced set-up. Returns
    (untraced phase, metrics, traced extras)."""
    from workloads import Phase

    setup_times, raw_setup_times = [], []
    for index in range(workload.setups):
        workload.prepare()
        # the previous set-up's garbage is not this set-up's cost
        gc.collect()
        if index == 0:
            # rss_mb counts from here, while nothing of the program's is
            # live and no freed heap of an earlier set-up can be reused
            workload.mark_memory()
        clock = Phase()
        state = workload.setup(clock)
        try:
            clock.finish()
            raw_setup_times.append(clock.op_seconds)
            setup_times.append(clock.scaled_total())
            if index == 0:
                phase = workload.run(state, seconds)
        finally:
            workload.teardown(state)
    metrics = {"setup_s": statistics.median(setup_times), **phase.metrics}
    if set(metrics) != set(UNITS):
        raise RuntimeError(f"{workload.name} measured {sorted(metrics)}, not {sorted(UNITS)}")
    phase.info["setup_s_raw"] = raw_setup_times
    if not trace:
        return phase, metrics, None
    from layertrace import PER_LAYER, Analysis, Tracer, layer_metrics, layer_shares

    tracer = Tracer()
    workload.prepare()
    gc.collect()
    state = None
    tracer.install()
    try:
        state = workload.setup(Phase())
        probe_from = workload.probe(state)
        phase_from = len(tracer.spans)
        traced = workload.run(state, seconds)
        probe = workload.probe(state)
    finally:
        tracer.uninstall()
        if state is not None:
            workload.teardown(state)
    # per-layer figures describe the timed phase: its spans (not those of
    # the checks after it), and the program's counters as deltas over
    # it; a workload names the few figures that belong to its set-up,
    # taken over set-up and phase (the traced server was built inside the
    # traced window)
    phase_to = next((i for i in range(phase_from, len(tracer.spans))
                     if tracer.spans[i][1] > traced.finished_at), len(tracer.spans))
    analysis = Analysis(tracer, phase_from, phase_to)
    layers = layer_metrics(analysis, workload.probe_delta(probe_from, probe))
    if workload.SETUP_LAYER_METRICS:
        whole = layer_metrics(Analysis(tracer, 0, phase_to), probe)
        layers.update((name, whole[name]) for name in workload.SETUP_LAYER_METRICS if name in whole)
    traced.info["layer_self_share"] = layer_shares(analysis, traced.op_seconds)
    # span times take the traced phase's mean host-speed scaling, like
    # the end-to-end figures they are read against
    speed = traced.scaled_total() / traced.op_seconds
    for name, (value, unit) in layers.items():
        if unit in ("us", "ms", "s"):
            layers[name] = (value * speed, unit)
    # overhead over the rounds both phases completed: the same inputs on
    # the same state, so store growth does not bias the comparison
    plain, slow = phase.round_seconds(), traced.round_seconds()
    matched = min(len(plain), len(slow))
    layers["trace.overhead_pct"] = ((sum(slow[:matched]) / sum(plain[:matched]) - 1.0) * 100.0, "%")
    # every workload prints every per-layer metric: a layer that did no
    # work in this workload reads 0
    layers = {name: layers.get(name, (0.0, unit)) for name, unit in PER_LAYER.items()}
    return phase, metrics, (traced, layers, tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still closes its workers and removes its data dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: no program under ./src; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    import record as run_record
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        # the inputs live for the whole run: keep the collector from
        # re-walking them (and forked workers from copying their pages)
        gc.collect()
        gc.freeze()
        phase, metrics, traced = measure(workload, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = list(phase.errors)
    attempted, failed = phase.attempted, phase.failed
    info = dict(phase.info)
    if traced is None:
        out_metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    else:
        traced_phase, layers, tracer = traced
        errors += traced_phase.errors
        attempted += traced_phase.attempted
        failed += traced_phase.failed
        out_metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        info["traced_end_to_end"] = traced_phase.metrics
        info["layer_self_share"] = traced_phase.info["layer_self_share"]
        info["untraced_end_to_end"] = metrics
    for message in errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }
    rec = run_record.make(root, args.workload, args.seed, args.seconds, args.trace)
    rec.update(result=result, info=info, errors=errors)
    saved = run_record.save(root, rec)
    if traced is not None:
        tracer.write(saved.with_suffix(".spans.jsonl"))
    print(json.dumps({"record": rec}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
