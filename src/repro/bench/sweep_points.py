"""Module-level, picklable sweep-point functions for the parallel runner.

Each function here builds a **fresh** deterministic system, runs exactly
one evaluation point, and returns a picklable dataclass -- the unit of
work :mod:`repro.sim.parallel` fans out across worker processes.  The
serial sweep drivers in :mod:`repro.bench.microbench` et al. stay the
reference implementations; the ``*_parallel`` wrappers below produce the
same points in the same order, just computed out-of-process.

Every point is independent by construction (no shared virtual clock, no
shared system), which is what makes the fan-out safe: a fresh
two-board prototype booted from cold reaches the same drained quiescent
state the serial sweep restores between points, so per-point virtual
times are identical either way (asserted by
``tests/test_parallel_sweep.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..sim.parallel import PointPayload, SweepPoint, run_sweep
from ..util.units import CACHELINE, KiB
from .coherence_bench import CoherenceScalePoint, run_coherence_scaling
from .microbench import (
    BandwidthPoint,
    HopPoint,
    _RawWindow,
    _echo,
    _pingpong,
    make_prototype,
    prototype_image,
    run_bandwidth_sweep,
)

__all__ = [
    "fig6_point",
    "multihop_point",
    "coherence_point",
    "torus_point",
    "TorusPoint",
    "collective_point",
    "nic_collective_point",
    "CollectivePoint",
    "recovery_point",
    "run_bandwidth_sweep_parallel",
    "run_multihop_parallel",
    "run_coherence_scaling_parallel",
    "run_torus_sweep_parallel",
    "run_collectives_sweep_parallel",
    "run_recovery_sweep_parallel",
]

#: Socket bindings per extra-hop count, as in ``run_multihop``.
_HOP_BINDINGS: Tuple[Tuple[int, int], ...] = ((1, 1), (0, 1), (0, 0))


def _maybe_metrics(sim, with_metrics: bool):
    if not with_metrics:
        return None
    from ..obs.metrics import enable_metrics

    return enable_metrics(sim)


def _seed_images(images) -> None:
    """Worker initializer: install parent-built boot images in the
    worker-local cache so same-signature points restore instead of
    cold-booting (see :func:`repro.cluster.snapshot.seed_image_cache`)."""
    from ..cluster.snapshot import seed_image_cache

    seed_image_cache(images)


def fig6_point(size: int, mode: str, with_metrics: bool = False,
               use_image: bool = False) -> Any:
    """One Figure 6 bandwidth point on a fresh booted prototype.

    With ``use_image=True`` the prototype is restored from the cached
    boot image for its signature (bit-exact vs a cold boot) instead of
    re-simulating the boot protocol.
    """
    sys_ = make_prototype(image=prototype_image() if use_image else None)
    reg = _maybe_metrics(sys_.sim, with_metrics)
    pts = run_bandwidth_sweep(sizes=(size,), modes=(mode,), system=sys_)
    point = pts[0]
    if reg is not None:
        return PointPayload(point, reg.snapshot(sys_.sim.now))
    return point


def multihop_point(extra_hops: int, iters: int = 40, size: int = 64,
                   with_metrics: bool = False,
                   use_image: bool = False) -> Any:
    """One multi-hop latency point (fresh prototype, numactl binding)."""
    chip_a, chip_b = _HOP_BINDINGS[extra_hops]
    sys_ = make_prototype(image=prototype_image() if use_image else None)
    reg = _maybe_metrics(sys_.sim, with_metrics)
    cluster = sys_.cluster
    a = cluster.rank_of(0, chip_a)
    b = cluster.rank_of(1, chip_b)
    win_a = _RawWindow(cluster, a, b)
    win_b = _RawWindow(cluster, b, a)
    out: Dict = {}
    cluster.sim.process(_echo(win_b, size, iters))
    done = cluster.sim.process(_pingpong(win_a, win_b, size, iters, out))
    cluster.sim.run_until_event(done)
    point = HopPoint(extra_hops, out["elapsed"] / (2 * iters))
    if reg is not None:
        return PointPayload(point, reg.snapshot(sys_.sim.now))
    return point


def coherence_point(protocol: str, nodes: int, ops_per_node: int = 60,
                    **kwargs) -> CoherenceScalePoint:
    """One coherence-scaling point (its own Simulator per call)."""
    return run_coherence_scaling(
        node_counts=(nodes,), protocols=(protocol,),
        ops_per_node=ops_per_node, **kwargs,
    )[0]


# ---------------------------------------------------------------------------
# Torus-scale points (64..512 supernodes on the folded interval maps)
# ---------------------------------------------------------------------------

@dataclass
class TorusPoint:
    """One torus-scale evaluation point (picklable sweep payload)."""

    shape: Tuple[int, int, int]
    workload: str          # "corner" | "halo" | "chaos"
    size: int              # bytes per transfer
    pairs: int             # concurrent transfers
    mbps: float            # aggregate goodput over the transfer window
    boot_ns: float         # virtual time spent booting
    transfer_ns: float     # virtual time of the transfer window
    events: int            # calendar entries executed by the transfer


def torus_point(shape: Tuple[int, int, int], size: int = 256 * KiB,
                workload: str = "corner",
                use_image: bool = False) -> TorusPoint:
    """One fig6-style bulk transfer on a fresh booted 3D-torus cluster.

    * ``corner`` -- a single stream between antipodal corners (worst-case
      hop count through the folded interval maps);
    * ``halo``   -- every supernode streams to its +x neighbour at once
      (each x-link carries exactly one transfer: the scale-out pattern);
    * ``chaos``  -- the halo workload with one link killed mid-transfer,
      exercising route-around at scale; delivery is still verified.
    """
    from ..core.api import TCClusterSystem
    from ..topology import torus3d

    if use_image:
        from ..cluster.snapshot import image_for

        sys_ = TCClusterSystem.from_image(image_for(torus3d(*shape)))
    else:
        sys_ = TCClusterSystem(torus3d(*shape))
        sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    boot_ns = sim.now
    topo = cl.topology
    n = topo.num_supernodes
    if workload == "corner":
        pairs = [(cl.rank_of(0), cl.rank_of(n - 1))]
    elif workload in ("halo", "chaos"):
        pairs = []
        for s in range(n):
            c = list(topo.coords_of(s))
            c[0] = (c[0] + 1) % shape[0]
            pairs.append((cl.rank_of(s), cl.rank_of(topo.supernode_at(tuple(c)))))
    else:
        raise ValueError(f"unknown torus workload {workload!r}")
    wins = [_RawWindow(cl, a, b) for a, b in pairs]
    data = bytes(range(256)) * (size // 256)

    def xfer(win):
        yield from win.proc.store(win.tx_base, data)
        yield from win.proc.core.sfence()

    if workload == "chaos":
        from ..faults import FaultInjector, FaultKind, FaultPlan

        plan = FaultPlan().add(10_000.0, FaultKind.LINK_KILL, 0)
        FaultInjector(cl, plan).arm()
    e0 = sim.event_count
    t0 = sim.now
    procs = [sim.process(xfer(w)) for w in wins]
    sim.run_until_event(sim.all_of(procs))
    sim.run()
    elapsed = sim.now - t0
    # Delivery check: every destination window holds the streamed bytes
    # (also the chaos oracle -- route-around must not eat posted writes).
    for (a, b), win in zip(pairs, wins):
        off = win.tx_base - cl.ranks[b].base
        got = cl.ranks[b].chip.memctrl.memory.read(off, size)
        if got != data:
            raise AssertionError(f"torus transfer rank {a}->{b} corrupted")
    total = size * len(pairs)
    return TorusPoint(tuple(shape), workload, size, len(pairs),
                      round(total / (elapsed / 1e9) / 1e6, 1),
                      round(boot_ns, 1), round(elapsed, 1),
                      sim.event_count - e0)


# ---------------------------------------------------------------------------
# Collective-algorithm points (torus-embedded MPI vs the NIC baselines)
# ---------------------------------------------------------------------------

@dataclass
class CollectivePoint:
    """One collective-operation evaluation point (picklable payload)."""

    op: str                # "allreduce" | "bcast" | "alltoall"
    algorithm: str         # forced algorithm (see middleware.collectives)
    fabric: str            # "torus2d(8,8)" | baseline name ("ConnectX IB")
    nranks: int
    size: int              # payload bytes per rank (alltoall: per block)
    elapsed_ns: float      # virtual time of the collective
    mbps: float            # size / elapsed -- the effective per-rank rate
    events: int            # calendar entries executed by the collective
    slot_windows: int      # flow-fidelity spans engaged (0 = per-packet)
    slot_slots: int        # ring slots carried by those spans
    ring_single_hop: bool  # embedding proof: every ring hop crosses <=1 link


def _collective_drivers(op: str, comms, size: int):
    """Per-rank generator drivers plus a correctness check.

    Inputs are deterministic per rank; the check asserts the simulated
    result against the NumPy oracle (``allclose`` -- tree and ring
    combine in different float orders) and, for allreduce, bitwise
    equality *across* ranks (every rank must hold the same bytes).
    """
    import numpy as np

    n = len(comms)
    results: Dict[int, Any] = {}
    if op == "allreduce":
        nel = max(1, size // 8)
        inputs = [np.arange(nel, dtype=np.float64) * 0.5 + r
                  for r in range(n)]

        def driver(c, algorithm):
            results[c.rank] = yield from c.allreduce(
                inputs[c.rank], op="sum", algorithm=algorithm)

        def check():
            oracle = np.sum(inputs, axis=0)
            assert np.allclose(results[0], oracle)
            ref = results[0].tobytes()
            assert all(results[r].tobytes() == ref for r in range(n))
    elif op == "bcast":
        payload = bytes(range(256)) * (max(size, 256) // 256)
        payload = payload[:size]

        def driver(c, algorithm):
            data = payload if c.rank == 0 else None
            results[c.rank] = yield from c.bcast(data, root=0,
                                                 algorithm=algorithm)

        def check():
            assert all(results[r] == payload for r in range(n))
    elif op == "alltoall":

        def block(src, dst):
            seed = (src * 31 + dst * 7) & 0xFF
            pattern = bytes((seed + i) & 0xFF for i in range(256))
            return (pattern * (size // 256 + 1))[:size]

        def driver(c, algorithm):
            blocks = [block(c.rank, d) for d in range(n)]
            results[c.rank] = yield from c.alltoall(blocks,
                                                    algorithm=algorithm)

        def check():
            for dst in range(n):
                for src in range(n):
                    assert results[dst][src] == block(src, dst)
    else:
        raise ValueError(f"unknown collective op {op!r}")
    return driver, check


def _drive_collective(sim, comms, op: str, algorithm: str, size: int):
    """Run one collective across all ranks; returns (elapsed, events)."""
    driver, check = _collective_drivers(op, comms, size)
    t0 = sim.now
    e0 = sim.event_count
    procs = [sim.process(driver(c, algorithm),
                         name=f"{op}[{c.rank}]") for c in comms]
    sim.run_until_event(sim.all_of(procs))
    sim.run()
    check()
    return sim.now - t0, sim.event_count - e0


def _collective_cfg(size: int):
    """The message-library config a collective point of ``size`` runs
    with (shared by the point function and the parallel image builder,
    so their boot signatures agree)."""
    from ..msglib import MsgConfig

    return MsgConfig(ring_bytes=64 * KiB, eager_max=24576,
                     fb_interval_slots=128,
                     heap_bytes=max(512 * KiB, 2 * size))


def collective_point(op: str, algorithm: str, size: int,
                     shape: Tuple[int, int] = (8, 8),
                     use_image: bool = False) -> CollectivePoint:
    """One forced-algorithm collective on a fresh booted 2D-torus cluster.

    ``shape=(8, 8)`` is the 64-rank acceptance configuration: one rank
    per supernode, ring collectives embedded on the Hamiltonian
    supernode ring (single-hop by construction on even grids).  The
    message-library window is widened so bandwidth-bound chunks stay on
    the eager ring path, where the flow-fidelity layer coalesces them
    into slot spans (reported via ``slot_windows``/``slot_slots``).
    """
    from ..core.api import TCClusterSystem
    from ..middleware import Communicator
    from ..obs.metrics import flow_counters
    from ..topology import torus2d

    cfg = _collective_cfg(size)
    if use_image:
        from ..cluster.snapshot import image_for

        sys_ = TCClusterSystem.from_image(
            image_for(torus2d(*shape), msg_cfg=cfg))
    else:
        sys_ = TCClusterSystem(torus2d(*shape), msg_cfg=cfg)
        sys_.boot()
    sim = sys_.sim
    cl = sys_.cluster
    comms = [Communicator.for_cluster(cl, r) for r in range(cl.nranks)]
    elapsed, events = _drive_collective(sim, comms, op, algorithm, size)
    fl = flow_counters(sim)
    return CollectivePoint(
        op, algorithm, f"torus2d({shape[0]},{shape[1]})", cl.nranks, size,
        round(elapsed, 2), round(size / (elapsed / 1e9) / 1e6, 1),
        events, fl.slot_windows, fl.slot_slots,
        comms[0].ring_single_hop)


def nic_collective_point(op: str, algorithm: str, size: int,
                         nranks: int = 64,
                         baseline: str = "connectx") -> CollectivePoint:
    """The same forced-algorithm collective over a NIC full-mesh fabric
    (idealized non-blocking switch -- contention-free, which only favours
    the baseline; see :mod:`repro.baselines.fabric`)."""
    from ..baselines import CONNECTX_IB, TEN_GBE, NicFabric
    from ..middleware import Communicator
    from ..sim import Simulator

    params = {"connectx": CONNECTX_IB, "10gbe": TEN_GBE}[baseline]
    sim = Simulator()
    fabric = NicFabric(sim, nranks, params)
    comms = [Communicator(fabric.comm_provider(r)) for r in range(nranks)]
    elapsed, events = _drive_collective(sim, comms, op, algorithm, size)
    return CollectivePoint(
        op, algorithm, params.name, nranks, size,
        round(elapsed, 2), round(size / (elapsed / 1e9) / 1e6, 1),
        events, 0, 0, False)


# ---------------------------------------------------------------------------
# Parallel sweep wrappers (serial-order outputs, size-descending schedule)
# ---------------------------------------------------------------------------

def _run_points(points: List[SweepPoint], order: List[str],
                jobs: Optional[Any], timeout: Optional[float],
                images: Optional[List[Any]] = None) -> Dict[str, Any]:
    worker_state = images if images else None
    worker_init = _seed_images if images else None
    report = run_sweep(points, jobs=jobs, timeout=timeout,
                       worker_state=worker_state, worker_init=worker_init)
    by_key = {r.key: r.unwrap() for r in report.results}
    return {k: by_key[k] for k in order}


def run_bandwidth_sweep_parallel(
    sizes: Sequence[int],
    modes: Sequence[str] = ("weak", "strict"),
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
    with_metrics: bool = False,
    use_image: bool = False,
) -> List[BandwidthPoint]:
    """Figure 6 sweep, one fresh system per point, pool fan-out.

    Output order matches ``run_bandwidth_sweep`` (mode-major); the
    *schedule* submits the largest transfers first so the long points do
    not straggle at the tail of the pool.  With ``use_image=True`` the
    prototype is booted **once** in the parent, snapshotted, and every
    point restores the image (shipped to workers via the pool
    initializer) instead of re-simulating the boot protocol.
    """
    for s in sizes:
        if s % CACHELINE:
            raise ValueError(f"size {s} not line aligned")
    order = [f"fig6:{mode}:{size}" for mode in modes for size in sizes]
    points = [
        SweepPoint(
            key=f"fig6:{mode}:{size}",
            fn=fig6_point,
            args=(size, mode),
            kwargs={"with_metrics": with_metrics, "use_image": use_image},
        )
        for mode in modes
        for size in sizes
    ]
    points.sort(key=lambda p: p.args[0], reverse=True)
    images = [prototype_image()] if use_image else None
    by_key = _run_points(points, order, jobs, timeout, images=images)
    return [by_key[k] for k in order]


def run_multihop_parallel(
    iters: int = 40,
    size: int = 64,
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
    use_image: bool = False,
) -> List[HopPoint]:
    """Multi-hop sweep (0/1/2 extra hops), pool fan-out."""
    order = [f"hops:{extra}" for extra in range(len(_HOP_BINDINGS))]
    points = [
        SweepPoint(key=f"hops:{extra}", fn=multihop_point,
                   args=(extra,),
                   kwargs={"iters": iters, "size": size,
                           "use_image": use_image})
        for extra in range(len(_HOP_BINDINGS))
    ]
    images = [prototype_image()] if use_image else None
    by_key = _run_points(points, order, jobs, timeout, images=images)
    return [by_key[k] for k in order]


def run_torus_sweep_parallel(
    shapes: Sequence[Tuple[int, int, int]] = ((4, 4, 4),),
    workloads: Sequence[str] = ("corner", "halo"),
    size: int = 256 * KiB,
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
    use_image: bool = False,
) -> List[TorusPoint]:
    """Torus-scale sweep (64..512 supernodes), pool fan-out.

    Each point boots its own cluster from cold, so points are
    independent and the process pool fans them out safely; the largest
    shapes are scheduled first so they do not straggle at the tail.
    With ``use_image=True`` each distinct shape is booted once in the
    parent and every point restores the matching snapshot.
    """
    order = [f"torus:{x}x{y}x{z}:{w}" for (x, y, z) in shapes
             for w in workloads]
    points = [
        SweepPoint(key=f"torus:{x}x{y}x{z}:{w}", fn=torus_point,
                   args=((x, y, z),),
                   kwargs={"size": size, "workload": w,
                           "use_image": use_image})
        for (x, y, z) in shapes
        for w in workloads
    ]
    points.sort(key=lambda p: p.args[0][0] * p.args[0][1] * p.args[0][2],
                reverse=True)
    images = None
    if use_image:
        from ..cluster.snapshot import image_for
        from ..topology import torus3d

        images = [image_for(torus3d(*shape)) for shape in shapes]
    by_key = _run_points(points, order, jobs, timeout, images=images)
    return [by_key[k] for k in order]


def run_collectives_sweep_parallel(
    specs: Sequence[Tuple[str, str, int]],
    shape: Tuple[int, int] = (8, 8),
    baselines: Sequence[str] = (),
    nic_nranks: int = 64,
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
    use_image: bool = False,
) -> List[CollectivePoint]:
    """Collective sweep, one fresh cluster per point, pool fan-out.

    ``specs`` is a list of ``(op, algorithm, size)`` triples run on the
    torus cluster; each entry of ``baselines`` ("connectx" / "10gbe")
    additionally runs every spec over that NIC fabric.  Output order:
    all torus points in spec order, then each baseline's points.
    With ``use_image=True`` the torus cluster is booted once per
    distinct message-library config (sizes above 256 KiB widen the
    heap, changing the boot signature) and restored per point.
    """
    order = [f"coll:{op}:{algo}:{size}" for op, algo, size in specs]
    points = [
        SweepPoint(
            key=f"coll:{op}:{algo}:{size}",
            fn=collective_point,
            args=(op, algo, size),
            kwargs={"shape": tuple(shape), "use_image": use_image},
        )
        for op, algo, size in specs
    ]
    for b in baselines:
        order.extend(f"coll:{b}:{op}:{algo}:{size}"
                     for op, algo, size in specs)
        points.extend(
            SweepPoint(
                key=f"coll:{b}:{op}:{algo}:{size}",
                fn=nic_collective_point,
                args=(op, algo, size),
                kwargs={"nranks": nic_nranks, "baseline": b},
            )
            for op, algo, size in specs
        )
    points.sort(key=lambda p: p.args[2], reverse=True)
    images = None
    if use_image:
        from ..cluster.snapshot import image_for
        from ..topology import torus2d

        seen = {}
        for _op, _algo, sz in specs:
            cfg = _collective_cfg(sz)
            seen.setdefault(cfg, torus2d(*shape))
        images = [image_for(topo, msg_cfg=cfg)
                  for cfg, topo in seen.items()]
    by_key = _run_points(points, order, jobs, timeout, images=images)
    return [by_key[k] for k in order]


def recovery_point(**kwargs):
    """One end-to-end recovery scenario (fresh booted cluster per call;
    see :func:`repro.bench.recovery.run_recovery_scenario`)."""
    from .recovery import run_recovery_scenario

    return run_recovery_scenario(**kwargs)


def run_recovery_sweep_parallel(
    specs: Sequence[Tuple[str, dict]],
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
) -> List[Any]:
    """Recovery-figure sweep, one fresh cluster per point, pool fan-out.

    ``specs`` is ``[(key, scenario_kwargs), ...]`` (see
    ``repro.bench.recovery.RECOVERY_FIGURE_SPECS``); output order matches
    the spec order.  The longest outages (biggest ``duration_ns``) are
    scheduled first so they do not straggle at the tail of the pool.
    """
    order = [key for key, _ in specs]
    points = [
        SweepPoint(key=key, fn=recovery_point, args=(), kwargs=dict(kw))
        for key, kw in specs
    ]
    points.sort(key=lambda p: p.kwargs.get("duration_ns", 0.0),
                reverse=True)
    by_key = _run_points(points, order, jobs, timeout)
    return [by_key[k] for k in order]


def run_coherence_scaling_parallel(
    node_counts: Sequence[int] = (2, 4, 8, 16, 32, 64),
    protocols: Sequence[str] = ("broadcast", "directory"),
    ops_per_node: int = 60,
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
    timing=None,
    **kwargs,
) -> List[CoherenceScalePoint]:
    """Coherence scaling sweep, pool fan-out, serial output order.

    Only the DES-simulated protocols fan out; the analytical TCCluster
    equivalents are appended locally, exactly as the serial sweep does.
    """
    from ..util.calibration import DEFAULT_TIMING
    from .coherence_bench import tcc_op_latency_ns

    t = timing or DEFAULT_TIMING
    if timing is not None:
        kwargs["timing"] = timing
    order = [f"coh:{p}:{n}" for p in protocols for n in node_counts]
    points = [
        SweepPoint(
            key=f"coh:{protocol}:{n}",
            fn=coherence_point,
            args=(protocol, n),
            kwargs={"ops_per_node": ops_per_node, **kwargs},
        )
        for protocol in protocols
        for n in node_counts
    ]
    # Biggest node counts dominate runtime; schedule them first.
    points.sort(key=lambda p: p.args[1], reverse=True)
    by_key = _run_points(points, order, jobs, timeout)
    out = [by_key[k] for k in order]
    for n in node_counts:
        lat = tcc_op_latency_ns(n, t)
        out.append(
            CoherenceScalePoint(n, "tccluster", n * ops_per_node, lat, 0.0,
                                lat * ops_per_node)
        )
    return out
