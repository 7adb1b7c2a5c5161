"""The benchmark's four workloads, driven through the public API.

Every system is built through a public constructor with the shipped
``SimFeatures`` and the default ``TimingModel``.  A workload iteration is
a list of *cases*; each case is one cold construct + boot (the set-up)
followed by the measured phase, which the workload brackets with
:meth:`Meter.segment` so host time, counter deltas and (in the traced
pass) the profiler cover exactly the work and not the output checks.

Every operation checks its output, and every simulated statistic that a
speed-only change must leave alone is compared with the recorded
reference in ``references.json``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import TCClusterSystem
from repro.bench import run_bandwidth_sweep, run_msglib_latency
from repro.cluster import build_single_board_prototype
from repro.middleware import Communicator
from repro.msglib import MsgConfig
from repro.topology import torus2d, torus3d
from repro.util.units import KiB, MiB

from probe import Probe, add_delta


class Meter:
    """Measured-phase bookkeeping of one case: host time of the timed
    segments on ``clock``, counter deltas, named host spans and output
    checks."""

    def __init__(self, refs: Dict[str, float], clock, profiler=None):
        self.refs = refs
        self.clock = clock
        self.profiler = profiler
        self.seconds = 0.0
        self.counters: Dict[str, float] = {}
        self.spans: Dict[str, float] = {}
        self.attempted = 0
        self.failed: List[str] = []

    @contextmanager
    def segment(self, probe: Probe, span: Optional[str] = None):
        before = probe.snapshot()
        if self.profiler is not None:
            self.profiler.enable()
        t0 = self.clock.now()
        try:
            yield
        finally:
            dt = self.clock.now() - t0
            if self.profiler is not None:
                self.profiler.disable()
            self.seconds += dt
            if span:
                self.spans[span] = self.spans.get(span, 0.0) + dt
            add_delta(self.counters, before, probe.snapshot())

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)

    def expect(self, key: str, got: float) -> None:
        """Compare a simulated statistic with its recorded reference."""
        want = self.refs.get(key)
        self.check(want == got, f"{key}: simulated {got!r}, reference {want!r}")


def _cluster_chips(system: TCClusterSystem) -> List:
    return [info.chip for info in system.cluster.ranks]


class PaperFigs:
    """Figure 6 store-bandwidth grid and Figure 7 msglib ping-pong on the
    booted two-board prototype."""

    name = "paper_figs"
    #: Destination offset of the Fig. 6 stream window in the peer's DRAM
    #: (``repro.bench.microbench`` streams to rank base + 32 MiB).
    WINDOW_OFF = 32 * MiB
    LINE = bytes(range(64))
    #: Paper anchors: (reference key, paper value).
    ANCHORS = (
        ("paper_figs.fig6.weak.64.mbps", 2500.0),
        ("paper_figs.fig6.weak.262144.mbps", 5300.0),
        ("paper_figs.fig6.weak.4194304.mbps", 2700.0),
        ("paper_figs.fig6.strict.4194304.mbps", 2000.0),
        ("paper_figs.fig7.slots1.hrt_ns", 227.0),
    )

    def __init__(self, small: bool):
        if small:
            self.sizes: Sequence[int] = (64, 4096)
            self.slots: Sequence[int] = (1, 8)
        else:
            self.sizes = tuple(64 << i for i in range(17))  # 64 B .. 4 MiB
            self.slots = (1, 2, 4, 8, 16, 32, 64)

    def cases(self, seed: int) -> List[Any]:
        return [None]  # the paper's streams carry a fixed pattern

    def construct(self, case) -> TCClusterSystem:
        return TCClusterSystem.two_board_prototype()

    def run(self, system: TCClusterSystem, case, meter: Meter) -> None:
        cl = system.cluster
        a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
        dst = cl.ranks[b].chip.memory
        probe = Probe(system.sim, _cluster_chips(system))
        self.observed: Dict[str, float] = {}
        for mode in ("weak", "strict"):
            for size in self.sizes:
                with meter.segment(probe):
                    (point,) = run_bandwidth_sweep(sizes=(size,), modes=(mode,),
                                                   system=system)
                meter.check(dst.read(self.WINDOW_OFF, size)
                            == self.LINE * (size // 64),
                            f"fig6 {mode} {size} B: destination bytes")
                # Clear the window so the next stream is checked on its own.
                dst.write(self.WINDOW_OFF, bytes(size))
                self.observed[f"paper_figs.fig6.{mode}.{size}.mbps"] = point.mbps
        eps = system.connect(a, b)
        probe.endpoints = lambda: eps
        with meter.segment(probe):
            points = run_msglib_latency(slot_counts=self.slots, system=system)
        for p in points:
            self.observed[f"paper_figs.fig7.slots{p.slots}.hrt_ns"] = p.hrt_ns
        for key, got in self.observed.items():
            meter.expect(key, got)

    def paper_err_pct(self) -> Optional[float]:
        """Largest relative error (%) against the paper's anchors."""
        errs = [abs(self.observed[k] - paper) / paper * 100
                for k, paper in self.ANCHORS if k in self.observed]
        return max(errs) if errs else None


class RemoteRead:
    """``core.load`` of the other node's DRAM as sequential coherent line
    reads on the single-board prototype."""

    name = "remote_read"
    #: node1-local offset of the buffer, and its global address as node0
    #: sees it (node1 DRAM starts at 256 MiB).
    OFFSET = 0x40000
    ADDR = 256 * MiB + OFFSET

    def __init__(self, small: bool):
        self.nbytes = 16 * KiB if small else 256 * KiB

    def cases(self, seed: int) -> List[Any]:
        return [random.Random(seed).randbytes(self.nbytes)]

    def construct(self, case):
        return build_single_board_prototype()

    def run(self, proto, data: bytes, meter: Meter) -> None:
        sim = proto.sim
        proto.node1.memory.write(self.OFFSET, data)  # place the input
        probe = Probe(sim, proto.board.chips)
        got = {}

        def reader():
            got["data"] = yield from proto.node0.cores[0].load(self.ADDR,
                                                               self.nbytes)

        with meter.segment(probe):
            t0 = sim.now
            sim.run_until_event(sim.process(reader()))
            sim.run()
            elapsed = sim.now - t0
        meter.check(got.get("data") == data, "remote read: read-back bytes")
        meter.expect(f"remote_read.{self.nbytes}.virtual_ns", elapsed)


class TorusHalo:
    """A 1-D halo shift over msglib on a 3-D torus: every rank sends
    seeded eager messages to its +x neighbour and receives from -x."""

    name = "torus_halo"
    MSG_BYTES = 7168  # 128 ring slots
    COMPUTE_NS = 200.0

    def __init__(self, small: bool):
        self.dims = (2, 2, 2) if small else (4, 4, 4)
        self.msgs = 2 if small else 8

    def cases(self, seed: int) -> List[Any]:
        rng = random.Random(seed)
        n = self.dims[0] * self.dims[1] * self.dims[2]
        return [[[rng.randbytes(self.MSG_BYTES) for _ in range(self.msgs)]
                 for _ in range(n)]]

    def construct(self, case) -> TCClusterSystem:
        return TCClusterSystem(torus3d(*self.dims), msg_cfg=MsgConfig(
            ring_bytes=16 * KiB,       # 256 slots: two messages in flight
            eager_max=self.MSG_BYTES,
            fb_interval_slots=128,     # one feedback line per message
            read_chunk=4 * KiB,
            heap_bytes=64 * KiB,
        ))

    def run(self, system: TCClusterSystem, payloads, meter: Meter) -> None:
        cl = system.cluster
        sim = system.sim
        topo = cl.topology
        n = topo.num_supernodes
        ranks = [cl.rank_of(s) for s in range(n)]
        succ = []
        for s in range(n):
            c = list(topo.coords_of(s))
            c[0] = (c[0] + 1) % self.dims[0]
            succ.append(cl.rank_of(topo.supernode_at(tuple(c))))
        sent = dict(zip(ranks, payloads))
        got = {r: [] for r in ranks}
        eps: Dict[int, Any] = {}
        probe = Probe(sim, _cluster_chips(system),
                      endpoints=lambda: [e for pair in eps.values()
                                         for e in pair])

        def worker(r, tx, rx):
            for m in sent[r]:
                yield from tx.send(m)
                got[r].append((yield from rx.recv()))
                yield self.COMPUTE_NS  # the stencil compute phase
            yield from tx.flush()

        with meter.segment(probe):
            t0 = sim.now
            for i, r in enumerate(ranks):
                eps[r] = system.connect(r, succ[i])
            rx_of = {succ[i]: eps[r][1] for i, r in enumerate(ranks)}
            procs = [sim.process(worker(r, eps[r][0], rx_of[r]))
                     for r in ranks]
            sim.run_until_event(sim.all_of(procs))
            sim.run()
            elapsed = sim.now - t0
        pred = {succ[i]: r for i, r in enumerate(ranks)}
        for r in ranks:
            for k, want in enumerate(sent[pred[r]]):
                meter.check(k < len(got[r]) and got[r][k] == want,
                            f"halo: rank {r} message {k} from rank {pred[r]}")
        meter.expect(f"torus_halo.{'x'.join(map(str, self.dims))}"
                     f".{self.msgs}.virtual_ns", elapsed)


class Allreduce:
    """A seeded float64 allreduce through ``Communicator`` on a 2-D torus,
    once forced to the ring algorithm and once to binomial, each on its
    own freshly booted system."""

    name = "allreduce"
    ALGORITHMS = ("ring", "binomial")

    def __init__(self, small: bool):
        self.shape = (2, 2) if small else (4, 4)
        self.nbytes = 4 * KiB if small else 64 * KiB

    def cases(self, seed: int) -> List[Any]:
        rng = np.random.default_rng(seed)
        n = self.shape[0] * self.shape[1]
        # Integer-valued doubles: every summation order is exact, so the
        # oracle comparison is bitwise for both algorithms.
        inputs = [rng.integers(-2**20, 2**20, self.nbytes // 8).astype(np.float64)
                  for _ in range(n)]
        return [(algo, inputs) for algo in self.ALGORITHMS]

    def construct(self, case) -> TCClusterSystem:
        return TCClusterSystem(torus2d(*self.shape), msg_cfg=MsgConfig(
            ring_bytes=64 * KiB, eager_max=24576, fb_interval_slots=128,
            heap_bytes=max(512 * KiB, 2 * self.nbytes)))

    def run(self, system: TCClusterSystem, case, meter: Meter) -> None:
        algo, inputs = case
        cl = system.cluster
        sim = system.sim
        comms: List[Communicator] = []
        results: Dict[int, np.ndarray] = {}
        probe = Probe(sim, _cluster_chips(system),
                      endpoints=lambda: [ep for c in comms
                                         for ep in c.lib.endpoints()])

        def driver(c):
            results[c.rank] = yield from c.allreduce(inputs[c.rank], op="sum",
                                                     algorithm=algo)

        with meter.segment(probe, span="middleware.allreduce_s"):
            t0 = sim.now
            comms.extend(Communicator.for_cluster(cl, r)
                         for r in range(cl.nranks))
            procs = [sim.process(driver(c)) for c in comms]
            sim.run_until_event(sim.all_of(procs))
            sim.run()
            elapsed = sim.now - t0
        oracle = np.sum(inputs, axis=0)
        for r in range(cl.nranks):
            res = results.get(r)
            meter.check(res is not None and np.array_equal(res, oracle),
                        f"allreduce {algo}: rank {r} against the oracle")
        meter.expect(f"allreduce.{'x'.join(map(str, self.shape))}."
                     f"{self.nbytes}.{algo}.elapsed_ns", elapsed)


WORKLOADS = {w.name: w for w in (PaperFigs, RemoteRead, TorusHalo, Allreduce)}
