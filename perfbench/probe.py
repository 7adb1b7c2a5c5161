"""Per-layer measurement from outside the simulator.

Two instruments, both read through the simulator's public accessors and
a stdlib profiler, never by changing code under ``src/``:

* :class:`Probe` snapshots the counters the program already keeps
  (engine event counts, northbridge/train counters, flow counters, the
  packet pool, link and endpoint statistics, collective and fault
  counters) so a workload can take deltas over its measured phase.
* :func:`self_times` folds a ``cProfile`` run into host self-time per
  ``repro.<package>`` and per ``repro.<package>.<module>``.
"""

from __future__ import annotations

import os
import pstats
from typing import Callable, Dict, Iterable, List

from repro.ht.link import LinkSide
from repro.obs.metrics import (collective_counters, datapath_counters,
                               fault_counters, flow_counters)

#: Northbridge counters read per chip (summed over every chip).
NB_COUNTERS = ("mmio_writes", "remote_reads", "rx_writes", "forwarded",
               "train_windows", "train_lines", "train_demotions")
#: Flow-plane counters (sim/flows) read from ``flow_counters``.
FLOW_COUNTERS = ("slot_windows", "slot_slots", "read_reads",
                 "read_demotions", "forward_packets", "forward_demotions")
#: Transmit statistics summed over both directions of every link.
LINK_COUNTERS = ("packets", "bursts", "wire_bytes", "busy_ns",
                 "credit_stall_ns", "retries")
#: Endpoint statistics summed over every registered endpoint.
EP_COUNTERS = ("msgs_sent", "polls", "park_wakes", "feedback_writes",
               "tx_stalls", "tx_stall_ns", "retransmits")


class Probe:
    """Counter snapshot of one simulated system.

    ``endpoints`` is a callable returning the msglib endpoints that exist
    so far; endpoints opened during the measured phase count from zero.
    """

    def __init__(self, sim, chips: Iterable,
                 endpoints: Callable[[], Iterable] = tuple):
        self.sim = sim
        self.chips = list(chips)
        self.endpoints = endpoints
        links = {}
        for chip in self.chips:
            for binding in chip.ports.values():
                links[id(binding.link)] = binding.link
        self.links = list(links.values())

    def snapshot(self) -> Dict[str, float]:
        sim = self.sim
        out: Dict[str, float] = {
            "sim.events": sim.event_count,
            "sim.heap_pushes": sim.heap_pushes,
        }
        for name in NB_COUNTERS:
            out["nb." + name] = sum(c.nb.counters.get(name) for c in self.chips)
        flows = flow_counters(sim)
        for name in FLOW_COUNTERS:
            out["flows." + name] = getattr(flows, name)
        dp = datapath_counters(sim, memories=[c.memory for c in self.chips])
        out["datapath.bytes_copied"] = dp["bytes_copied"]
        out["datapath.packets_alloc"] = dp["packets_alloc"]
        out["datapath.packets_pooled"] = dp["packets_pooled"]
        stats = [l.stats(side) for l in self.links
                 for side in (LinkSide.A, LinkSide.B)]
        for name in LINK_COUNTERS:
            out["link." + name] = sum(getattr(s, name) for s in stats)
        eps = [ep.stats for ep in self.endpoints()]
        for name in EP_COUNTERS:
            out["ep." + name] = sum(getattr(s, name) for s in eps)
        out["collective.ops"] = collective_counters(sim).ops
        out["faults.total"] = sum(fault_counters(sim).as_dict().values())
        return out


def add_delta(acc: Dict[str, float], before: Dict[str, float],
              after: Dict[str, float]) -> None:
    """Accumulate ``after - before`` into ``acc``."""
    for key, value in after.items():
        acc[key] = acc.get(key, 0) + value - before.get(key, 0)


#: Packages whose self time is reported for the measured phase; the
#: modules listed are reported on their own as well.
RUN_LAYERS = {
    "sim": ("engine", "queues", "flows"),
    "ht": ("link", "packet"),
    "opteron": ("core", "wc", "train", "northbridge", "memory"),
    "kernel": (),
    "msglib": ("endpoint",),
    "middleware": (),
    "obs": (),
}
#: Packages whose self time is reported for set-up (construct + boot).
SETUP_LAYERS = ("topology", "firmware", "cluster")


def _layer_of(filename: str) -> List[str]:
    """``[package, package.module]`` for a file under ``src/repro/``."""
    parts = filename.replace(os.sep, "/").split("/")
    for i in range(len(parts) - 3, -1, -1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            pkg, mod = parts[i + 2], parts[-1].rsplit(".", 1)[0]
            return [pkg, f"{pkg}.{mod}"]
    return []


def self_times(profile) -> Dict[str, float]:
    """Host self-time (cProfile ``tottime``) per package and module.

    Builtins and the standard library are left out; callers charge them,
    together with the benchmark's own frames, to ``other``.
    """
    out: Dict[str, float] = {}
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        for key in _layer_of(filename):
            out[key] = out.get(key, 0.0) + row[2]
    return out
