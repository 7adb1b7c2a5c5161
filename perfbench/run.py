#!/usr/bin/env python3
"""Host-time benchmark of the TCCluster simulator as it ships.

Run from the root of a checkout::

    python3 perfbench/run.py --workload torus_halo --seed 1 --seconds 20 --trace 0

One run repeats whole iterations of one workload (see ``workloads.py``)
until ``--seconds`` have passed, at least once.  Each iteration cold
constructs and boots its system(s) -- the set-up -- and then runs the
measured phase, checking every output and every recorded simulated
statistic.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: medians over the run's
iterations of host time corrected to a reference machine speed (see
``clock.py``; the uncorrected wall times are printed as well) and the
peak resident memory.  ``--trace 1`` spends half the time budget on
the untraced measurement and half on a ``cProfile`` pass, and
reports the per-layer metrics: host self time per ``repro`` package and
module (uncorrected seconds of the traced pass), counter deltas over the
measured phase, and the tracing overhead.  The lines before the JSON
print every metric with its unit, the error rate and the simulator's
feature flags.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

#: Set-ups sampled per run at least (extra cold builds if the measured
#: iterations provide fewer), so ``setup_s`` is a median of several.
MIN_SETUPS = 9


class Run:
    """Samples gathered by repeating one workload.  Times are scaled to
    the reference speed by the clock's per-iteration scale."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.construct_s: List[float] = []
        self.boot_s: List[float] = []
        self.boot_events = 0
        self.run_s: List[float] = []
        self.wall_run_s: List[float] = []
        self.wall_setup_s: List[float] = []
        self.scale: List[float] = []
        self.spans: List[Dict[str, float]] = []
        self.counters: Dict[str, float] = {}
        self.attempted = 0
        self.failed: List[str] = []
        self.features: Dict[str, bool] = {}


def set_up(wl, case, clock, profiler=None):
    """Cold construct + boot of one case's system, timed apart.  Returns
    the system and its set-up sample: (construct, boot) work-clock
    times, the events the boot executed and the feature flags."""
    gc.collect()  # drop the previous system outside the timed parts
    if profiler is not None:
        profiler.enable()
    t0 = clock.now()
    system = wl.construct(case)
    t1 = clock.now()
    system.boot()
    t2 = clock.now()
    if profiler is not None:
        profiler.disable()
    features = dataclasses.asdict(system.sim.features)
    return system, (t1 - t0, t2 - t1, system.sim.event_count, features)


def _add_setup(run: Run, sample: tuple, k: float) -> None:
    construct, boot, run.boot_events, run.features = sample
    run.construct_s.append(construct * k)
    run.boot_s.append(boot * k)
    run.setup_s.append((construct + boot) * k)
    run.wall_setup_s.append(construct + boot)


def measure(wl, seed: int, seconds: float, refs: Dict[str, float], clock,
            setup_prof=None, run_prof=None) -> Run:
    """Repeat whole iterations until ``seconds`` have passed."""
    from workloads import Meter

    run = Run()
    cases = wl.cases(seed)
    deadline = clock.now() + seconds
    while True:
        mark = clock.mark()
        run_s = 0.0
        counters: Dict[str, float] = {}
        spans: Dict[str, float] = {}
        setups = []
        for case in cases:
            system, sample = set_up(wl, case, clock, setup_prof)
            setups.append(sample)
            meter = Meter(refs, clock, run_prof)
            wl.run(system, case, meter)
            del system  # only one system is alive at a time
            run_s += meter.seconds
            for src, dst in ((meter.counters, counters), (meter.spans, spans)):
                for key, value in src.items():
                    dst[key] = dst.get(key, 0) + value
            run.attempted += meter.attempted
            run.failed += meter.failed
        k = clock.scale(mark)
        run.scale.append(k)
        for sample in setups:
            _add_setup(run, sample, k)
        run.run_s.append(run_s * k)
        run.wall_run_s.append(run_s)
        run.spans.append({key: value * k for key, value in spans.items()})
        run.counters = counters
        if clock.now() >= deadline:
            return run


def end_to_end(wl, run: Run, seed: int, clock) -> Dict[str, tuple]:
    case = wl.cases(seed)[0]
    while len(run.setup_s) < MIN_SETUPS:
        mark = clock.mark()
        _, sample = set_up(wl, case, clock)
        _add_setup(run, sample, clock.scale(mark))
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "run_s": (statistics.median(run.run_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def per_layer(base: Run, traced: Run, setup_prof, run_prof) -> Dict[str, tuple]:
    from probe import RUN_LAYERS, SETUP_LAYERS, self_times

    c = base.counters
    n_iter = len(traced.run_s)
    n_setup = len(traced.setup_s)
    run_self = self_times(run_prof)
    setup_self = self_times(setup_prof)
    traced_run_s = sum(traced.run_s) / n_iter
    out: Dict[str, tuple] = {
        "sim.events": (c["sim.events"], "count"),
        "sim.heap_pushes": (c["sim.heap_pushes"], "count"),
        "sim.host_ns_per_event": (_ratio(statistics.median(base.run_s) * 1e9,
                                         c["sim.events"]), "ns"),
    }
    attributed = 0.0
    for pkg, mods in RUN_LAYERS.items():
        pkg_s = run_self.get(pkg, 0.0) / n_iter
        attributed += pkg_s
        out[f"{pkg}.self_s"] = (pkg_s, "s")
        for mod in mods:
            out[f"{pkg}.{mod}.self_s"] = (
                run_self.get(f"{pkg}.{mod}", 0.0) / n_iter, "s")
    out["other.self_s"] = (traced_run_s - attributed, "s")
    for name in ("slot_windows", "slot_slots", "read_reads", "read_demotions",
                 "forward_packets", "forward_demotions"):
        out[f"sim.flows.{name}"] = (c["flows." + name], "count")
    out["sim.flows.read_ratio"] = (
        _ratio(c["flows.read_reads"], c["nb.remote_reads"]), "fraction")
    for name in ("windows", "lines", "demotions"):
        out[f"opteron.train.{name}"] = (c["nb.train_" + name], "count")
    out["opteron.train.line_ratio"] = (
        _ratio(c["nb.train_lines"], c["nb.mmio_writes"]), "fraction")
    for name in ("mmio_writes", "remote_reads", "rx_writes", "forwarded"):
        out[f"opteron.northbridge.{name}"] = (c["nb." + name], "count")
    out["opteron.memory.bytes_copied"] = (c["datapath.bytes_copied"], "bytes")
    out["ht.packet.alloc"] = (c["datapath.packets_alloc"], "count")
    out["ht.packet.pooled"] = (c["datapath.packets_pooled"], "count")
    for name, unit in (("packets", "count"), ("bursts", "count"),
                       ("wire_bytes", "bytes"), ("busy_ns", "ns_sim"),
                       ("credit_stall_ns", "ns_sim"), ("retries", "count")):
        out[f"ht.link.{name}"] = (c["link." + name], unit)
    for name, unit in (("msgs_sent", "count"), ("polls", "count"),
                       ("park_wakes", "count"), ("feedback_writes", "count"),
                       ("tx_stalls", "count"), ("tx_stall_ns", "ns_sim"),
                       ("retransmits", "count")):
        out[f"msglib.{name}"] = (c["ep." + name], unit)
    out["middleware.collective_calls"] = (c["collective.ops"], "count")
    out["middleware.allreduce_s"] = (statistics.median(
        s.get("middleware.allreduce_s", 0.0) for s in base.spans), "s")
    out["setup.construct_s"] = (statistics.median(base.construct_s), "s")
    out["setup.boot_s"] = (statistics.median(base.boot_s), "s")
    out["setup.boot_events"] = (base.boot_events, "count")
    for pkg in SETUP_LAYERS:
        out[f"{pkg}.self_s"] = (setup_self.get(pkg, 0.0) / n_setup, "s")
    out["faults.total"] = (c["faults.total"], "count")
    out["trace.run_s"] = (traced_run_s, "s")
    out["trace.overhead_x"] = (
        _ratio(traced_run_s, statistics.median(base.wall_run_s)), "x")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small runs each workload at its smallest size")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not REFERENCES.is_file():
        print(f"error: {ROOT} holds no src/repro package to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from clock import SpeedClock, WallClock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](small=args.size == "small")
    refs = json.loads(REFERENCES.read_text())[args.size]

    # A traced run splits its time budget between the untraced and the
    # traced pass.
    budget = args.seconds / 2 if args.trace else args.seconds
    with SpeedClock() as clock:
        base = measure(wl, args.seed, budget, refs, clock)
        if not args.trace:
            metrics = end_to_end(wl, base, args.seed, clock)
    attempted, failed = base.attempted, list(base.failed)
    if args.trace:
        setup_prof, run_prof = cProfile.Profile(), cProfile.Profile()
        traced = measure(wl, args.seed, budget, refs, WallClock(),
                         setup_prof, run_prof)
        attempted += traced.attempted
        failed += traced.failed
        metrics = per_layer(base, traced, setup_prof, run_prof)

    print(f"workload {wl.name} seed {args.seed} size {args.size}: "
          f"{len(base.run_s)} iterations, {len(base.setup_s)} set-ups")
    print("features " + " ".join(f"{k}={v}" for k, v in base.features.items()))
    print("wall run_s " + " ".join(f"{t:.4f}" for t in base.wall_run_s))
    print("speed scale " + " ".join(f"{k:.4f}" for k in base.scale))
    print(f"wall setup_s median {statistics.median(base.wall_setup_s):.6g}")
    for what in failed[:20]:
        print(f"FAILED {what}")
    print(f"metric error_rate = {len(failed) / attempted:.6g} fraction "
          f"({len(failed)} of {attempted} checks failed)")
    err = getattr(wl, "paper_err_pct", None)
    if err is not None and err() is not None:
        print(f"metric paper_err_pct = {err():.4g} % (simulated)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
