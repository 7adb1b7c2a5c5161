"""Flow-level fidelity equivalence oracle (DESIGN.md section 12).

``repro.sim.flows`` collapses msglib eager ring-slot traffic into one
contiguous span store (which rides the bulk-train machinery) and the
train's per-line destination commits into an arithmetic
:class:`~repro.sim.flows.CommitSpan`.  The claim under test mirrors
``test_train_equivalence``: with ``SimFeatures.fidelity`` set to
``"packet"`` or ``"macro"``, a msglib exchange produces identical

* virtual end times and per-message receive instants,
* received payloads and destination memory images,
* destination memory-controller accounting (reads/writes/bytes),
* link stats and northbridge counters,

on the clean path and across demotions forced at arbitrary instants by
foreign posted writes, foreign link sends, or BER pulses -- each of
which aborts the carrying train and truncates its commit span mid-run.

Deliberate divergences (excluded): the per-burst ``bursts`` LinkStats
counter and the ``train_*`` / flow telemetry counters, which exist only
when the fast paths engage.
"""

import random

import pytest

from repro.cluster import build_single_board_prototype
from repro.core import TCClusterSystem
from repro.msglib import MsgConfig
from repro.obs.metrics import flow_counters
from repro.util.units import KiB, MiB

MSG_BYTES = 7168          # 128 slots of 56-byte payload
_CFG = dict(ring_bytes=16 * KiB, eager_max=7168, fb_interval_slots=128,
            read_chunk=4 * KiB, heap_bytes=64 * KiB)


def run_exchange(fidelity, nmsgs=2, kind=None, t_off=None, msg_bytes=MSG_BYTES):
    """Rank 0 streams ``nmsgs`` eager messages to rank 1; returns an
    end-state dict.  ``kind``/``t_off`` optionally schedule a foreign
    disturbance ``t_off`` ns into the run:

    * ``"submit"`` -- a local posted write enters the sender's NB,
    * ``"send"``   -- a foreign packet enters the same link direction,
    * ``"ber"``    -- a BER pulse degrades and restores the link.
    """
    sys_ = TCClusterSystem(msg_cfg=MsgConfig(**_CFG))
    sys_.sim.features.fidelity = fidelity
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    tx, rx = sys_.connect(0, 1)
    nb = cl.ranks[0].chip.nb
    dest_chip = cl.ranks[1].chip

    rng = random.Random(0x5EED)
    payloads = [rng.randbytes(msg_bytes) for _ in range(nmsgs)]
    got = []
    recv_times = []

    def sender():
        for m in payloads:
            yield from tx.send(m)
            # Drain gap (a compute phase): without it message k+1's
            # submit lands in message k's drain tail and demotes it --
            # legitimate, but the clean-path test wants clean windows.
            yield 4000.0
        yield from tx.flush()

    def receiver():
        for _ in payloads:
            got.append((yield from rx.recv()))
            recv_times.append(sim.now)

    # The link between the two ranks (for the foreign-send disturbance).
    link = side = None
    for binding in cl.ranks[0].chip.ports.values():
        other = binding.link.attached["B" if binding.side == "A" else "A"]
        if other is dest_chip:
            link, side = binding.link, binding.side
            break
    assert link is not None

    def disturb():
        if kind == "submit":
            nb.submit_posted(cl.ranks[0].base + (900 << 10), b"\xa5" * 8)
        elif kind == "send":
            from repro.ht.packet import make_posted_write

            pkt = make_posted_write(cl.ranks[1].base + (900 << 10),
                                    b"\x5a" * 64, unitid=nb.nodeid,
                                    coherent=False)
            if not link.try_send(side, pkt):
                link.send(side, pkt)
        elif kind == "ber":
            link.ber = 1e-6
            link.ber = 0.0

    if kind is not None:
        sim.schedule(t_off, disturb)
    e0 = sim.event_count
    ps = [sim.process(sender()), sim.process(receiver())]
    sim.run_until_event(sim.all_of(ps))
    sim.run()

    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    for s in stats:
        stats[s].pop("bursts", None)
    counters = {k: v for k, v in nb.counters.as_dict().items()
                if not k.startswith("train_")}
    dmc = dest_chip.memctrl
    return dict(
        t_end=sim.now,
        recv_times=recv_times,
        payload_ok=got == payloads,
        stats=stats,
        counters=counters,
        dest_counters={k: v for k, v in dest_chip.nb.counters.as_dict().items()
                       if not k.startswith("train_")},
        dest_mc=(dmc.reads, dmc.writes, dmc.bytes_read, dmc.bytes_written),
        dest_mem=dmc.memory.read(0, 1 << 20),
        events=sim.event_count - e0,
        train_windows=cl.ranks[0].chip.nb.counters.get("train_windows"),
        train_demotions=cl.ranks[0].chip.nb.counters.get("train_demotions"),
        slot_windows=flow_counters(sim).slot_windows,
    )


_COMPARED = ("t_end", "recv_times", "payload_ok", "stats", "counters",
             "dest_counters", "dest_mc", "dest_mem")


def assert_equivalent(slow, fast):
    assert slow["payload_ok"] and fast["payload_ok"]
    for key in _COMPARED:
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}"
        )


# ---------------------------------------------------------------------------
# Clean path: spans promote, commit spans run to finalize undisturbed
# ---------------------------------------------------------------------------

def test_clean_exchange_exact():
    slow = run_exchange("packet")
    fast = run_exchange("macro")
    assert_equivalent(slow, fast)
    assert fast["slot_windows"] >= 2, "slot coalescing never engaged"
    assert fast["train_windows"] >= 2, "spans never rode a train"
    assert fast["train_demotions"] == 0
    assert slow["slot_windows"] == 0
    assert fast["events"] < slow["events"] * 0.5, (
        f"flow fidelity saved too little: {slow['events']} -> {fast['events']}"
    )


@pytest.mark.parametrize("msg_bytes", [168, 616, 3640])
def test_clean_exchange_sizes_exact(msg_bytes):
    slow = run_exchange("packet", msg_bytes=msg_bytes)
    fast = run_exchange("macro", msg_bytes=msg_bytes)
    assert_equivalent(slow, fast)


# ---------------------------------------------------------------------------
# Seeded fuzz: foreign events at random instants force span demotion
# ---------------------------------------------------------------------------

def _fuzz_cases(seed, n, kinds=("submit", "send", "ber")):
    rng = random.Random(seed)
    for _ in range(n):
        yield rng.choice(kinds), round(rng.uniform(1.0, 6500.0), 2)


@pytest.mark.parametrize("seed", [3, 11, 77])
def test_flow_demotion_fuzz_oracle(seed):
    for kind, t_off in _fuzz_cases(seed, 4):
        slow = run_exchange("packet", kind=kind, t_off=t_off)
        fast = run_exchange("macro", kind=kind, t_off=t_off)
        try:
            assert_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(6)))
def test_flow_demotion_fuzz_oracle_deep(seed):
    for kind, t_off in _fuzz_cases(seed + 500, 10):
        slow = run_exchange("packet", kind=kind, t_off=t_off)
        fast = run_exchange("macro", kind=kind, t_off=t_off)
        try:
            assert_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


def test_mid_commit_demotion_exact():
    # ~1200 ns in: the first message's train is serializing and the commit
    # span holds applied-but-unflushed lines; a foreign submit on the
    # sender demotes the train, and the span, truncated at the cut, still
    # commits every line that left before it.
    slow = run_exchange("packet", kind="submit", t_off=1200.0)
    fast = run_exchange("macro", kind="submit", t_off=1200.0)
    assert_equivalent(slow, fast)
    assert fast["train_demotions"] >= 1, "disturbance never demoted a train"


# ---------------------------------------------------------------------------
# ReadFlow: coherent remote read/response chains (single-board prototype,
# node0 reading node1's DRAM slice over the coherent fabric link)
# ---------------------------------------------------------------------------

M256 = 256 * MiB


def run_read_exchange(fidelity, nlines=24, kind=None, t_off=None):
    """node0's core reads ``nlines`` cachelines of node1 memory (a chain
    of same-route coherent fabric reads); optional foreign disturbance
    ``t_off`` ns after the reads start."""
    proto = build_single_board_prototype()
    sim = proto.sim
    sim.features.fidelity = fidelity
    proto.boot()
    node0, node1 = proto.node0, proto.node1
    link = proto.coherent_link
    binding = node0.ports[3]

    rng = random.Random(0xBEAD)
    payload = rng.randbytes(nlines * 64)
    node1.memory.write(0x40000, payload)
    addr = M256 + 0x40000

    got = {}

    def reader():
        got["data"] = yield from node0.cores[0].load(addr, nlines * 64)

    def disturb():
        if kind == "submit":
            # A foreign posted write to node1 crosses the same link.
            node0.nb.submit_posted(M256 + 0x700000, b"\xa5" * 8)
        elif kind == "send":
            from repro.ht.packet import make_posted_write

            pkt = make_posted_write(M256 + 0x700000, b"\x5a" * 64,
                                    unitid=node0.nb.nodeid, coherent=True)
            if not link.try_send(binding.side, pkt):
                link.send(binding.side, pkt)
        elif kind == "ber":
            link.ber = 1e-6
            link.ber = 0.0
        elif kind == "stall":
            # Credit theft (the injector's CREDIT_STALL), inline.
            link._abort_trains()
            stolen = []
            for d in link._dirs.values():
                for pool in d.credits.values():
                    n = 0
                    while pool.try_take():
                        n += 1
                    if n:
                        stolen.append((pool, n))

            def _restore():
                for pool, n in stolen:
                    pool.give(n)

            sim.schedule(200.0, _restore)

    if kind is not None:
        sim.schedule(t_off, disturb)
    e0 = sim.event_count
    done = sim.process(reader())
    sim.run_until_event(done)
    sim.run()

    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    for s in stats:
        stats[s].pop("bursts", None)
    mc1 = node1.memctrl
    fl = flow_counters(sim)
    return dict(
        t_end=sim.now,
        payload_ok=got.get("data") == payload,
        stats=stats,
        counters={k: v for k, v in node0.nb.counters.as_dict().items()
                  if not k.startswith("train_")},
        dest_counters=node1.nb.counters.as_dict(),
        dest_mc=(mc1.reads, mc1.writes, mc1.bytes_read, mc1.bytes_written),
        dest_mem=mc1.memory.read(0, 1 << 20),
        events=sim.event_count - e0,
        read_windows=fl.read_windows,
        read_reads=fl.read_reads,
        read_demotions=fl.read_demotions,
    )


_READ_COMPARED = ("t_end", "payload_ok", "stats", "counters",
                  "dest_counters", "dest_mc", "dest_mem")


def assert_read_equivalent(slow, fast):
    assert slow["payload_ok"] and fast["payload_ok"]
    for key in _READ_COMPARED:
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}"
        )


def test_clean_read_chain_exact():
    slow = run_read_exchange("packet")
    fast = run_read_exchange("macro")
    assert_read_equivalent(slow, fast)
    assert fast["read_windows"] >= 1, "read flow never engaged"
    assert fast["read_reads"] == 24, "not every read promoted"
    assert fast["read_demotions"] == 0
    assert slow["read_reads"] == 0
    assert fast["events"] < slow["events"] * 0.7, (
        f"read flow saved too little: {slow['events']} -> {fast['events']}"
    )


@pytest.mark.parametrize("seed", [5, 23, 91])
def test_read_demotion_fuzz_oracle(seed):
    rng = random.Random(seed)
    for _ in range(4):
        kind = rng.choice(("submit", "send", "ber", "stall"))
        t_off = round(rng.uniform(1.0, 4000.0), 2)
        slow = run_read_exchange("packet", kind=kind, t_off=t_off)
        fast = run_read_exchange("macro", kind=kind, t_off=t_off)
        try:
            assert_read_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(4)))
def test_read_demotion_fuzz_oracle_deep(seed):
    rng = random.Random(seed + 900)
    for _ in range(10):
        kind = rng.choice(("submit", "send", "ber", "stall"))
        t_off = round(rng.uniform(1.0, 4000.0), 2)
        slow = run_read_exchange("packet", kind=kind, t_off=t_off)
        fast = run_read_exchange("macro", kind=kind, t_off=t_off)
        try:
            assert_read_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


# ---------------------------------------------------------------------------
# multi-hop forwarding: packet == macro (3-supernode chain, rank 0 -> rank 2
# through rank 1's northbridge; the hop forwards per packet in both modes)
# ---------------------------------------------------------------------------

def run_forward_exchange(fidelity, nmsgs=2, kind=None, t_off=None,
                         msg_bytes=3584):
    """Rank 0 streams eager messages to rank 2; every slot write is
    forwarded by rank 1.  Disturbances target the hop: a foreign send on
    the outbound link, a runt packet chasing the stream on the inbound
    link, a BER pulse, or a credit theft."""
    sys_ = TCClusterSystem(num_supernodes=3, msg_cfg=MsgConfig(**_CFG))
    sys_.sim.features.fidelity = fidelity
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    tx, rx = sys_.connect(0, 2)
    chips = [cl.ranks[i].chip for i in range(3)]

    def link_between(ca, cb):
        for binding in ca.ports.values():
            other = binding.link.attached["B" if binding.side == "A" else "A"]
            if other is cb:
                return binding.link, binding.side
        raise AssertionError("no link")

    l01, side0 = link_between(chips[0], chips[1])
    l12, side1 = link_between(chips[1], chips[2])

    rng = random.Random(0xF02D)
    payloads = [rng.randbytes(msg_bytes) for _ in range(nmsgs)]
    got = []
    recv_times = []

    def sender():
        for m in payloads:
            yield from tx.send(m)
            yield 4000.0
        yield from tx.flush()

    def receiver():
        for _ in payloads:
            got.append((yield from rx.recv()))
            recv_times.append(sim.now)

    def disturb():
        from repro.ht.packet import make_posted_write

        if kind == "send_out":
            # Hop-originated traffic contending with the forwarded stream
            # on the outbound link.
            pkt = make_posted_write(cl.ranks[2].base + (900 << 10),
                                    b"\x5a" * 64,
                                    unitid=chips[1].nb.nodeid, coherent=False)
            if not l12.try_send(side1, pkt):
                l12.send(side1, pkt)
        elif kind == "send_in":
            # A runt packet chasing the stream into the hop on the
            # inbound link.
            pkt = make_posted_write(cl.ranks[2].base + (900 << 10),
                                    b"\xa5" * 8,
                                    unitid=chips[0].nb.nodeid, coherent=False)
            if not l01.try_send(side0, pkt):
                l01.send(side0, pkt)
        elif kind == "ber":
            l12.ber = 1e-6
            l12.ber = 0.0
        elif kind == "stall":
            l12._abort_trains()
            stolen = []
            for d in l12._dirs.values():
                for pool in d.credits.values():
                    n = 0
                    while pool.try_take():
                        n += 1
                    if n:
                        stolen.append((pool, n))

            def _restore():
                for pool, n in stolen:
                    pool.give(n)

            sim.schedule(200.0, _restore)

    if kind is not None:
        sim.schedule(t_off, disturb)
    e0 = sim.event_count
    ps = [sim.process(sender()), sim.process(receiver())]
    sim.run_until_event(sim.all_of(ps))
    sim.run()

    stats = {}
    for name, link in (("l01", l01), ("l12", l12)):
        for s in ("A", "B"):
            d = link.stats(s).as_dict(sim.now)
            d.pop("bursts", None)
            stats[f"{name}.{s}"] = d
    dmc = chips[2].memctrl
    fl = flow_counters(sim)
    return dict(
        t_end=sim.now,
        recv_times=recv_times,
        payload_ok=got == payloads,
        stats=stats,
        counters={
            f"nb{i}": {k: v for k, v in chips[i].nb.counters.as_dict().items()
                       if not k.startswith("train_")}
            for i in range(3)
        },
        dest_mc=(dmc.reads, dmc.writes, dmc.bytes_read, dmc.bytes_written),
        dest_mem=dmc.memory.read(0, 1 << 20),
        events=sim.event_count - e0,
        slot_windows=fl.slot_windows,
    )


_FWD_COMPARED = ("t_end", "recv_times", "payload_ok", "stats", "counters",
                 "dest_mc", "dest_mem")


def assert_forward_equivalent(slow, fast):
    assert slow["payload_ok"] and fast["payload_ok"]
    for key in _FWD_COMPARED:
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}"
        )


def test_clean_forward_exact():
    slow = run_forward_exchange("packet")
    fast = run_forward_exchange("macro")
    assert_forward_equivalent(slow, fast)
    # The multi-hop route keeps the store train per packet, so the two
    # modes differ only in slot-span coalescing at the source.
    assert fast["slot_windows"] >= 1, "slot spans never engaged"
    assert slow["slot_windows"] == 0


@pytest.mark.parametrize("seed", [7, 41])
def test_forward_demotion_fuzz_oracle(seed):
    rng = random.Random(seed)
    for _ in range(3):
        kind = rng.choice(("send_out", "send_in", "ber", "stall"))
        t_off = round(rng.uniform(1.0, 6500.0), 2)
        slow = run_forward_exchange("packet", kind=kind, t_off=t_off)
        fast = run_forward_exchange("macro", kind=kind, t_off=t_off)
        try:
            assert_forward_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(4)))
def test_forward_demotion_fuzz_oracle_deep(seed):
    rng = random.Random(seed + 1300)
    for _ in range(8):
        kind = rng.choice(("send_out", "send_in", "ber", "stall"))
        t_off = round(rng.uniform(1.0, 6500.0), 2)
        slow = run_forward_exchange("packet", kind=kind, t_off=t_off)
        fast = run_forward_exchange("macro", kind=kind, t_off=t_off)
        try:
            assert_forward_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


# ---------------------------------------------------------------------------
# Many concurrent stream windows feeding commit spans: pairwise alltoall
# ---------------------------------------------------------------------------

def _pairwise_alltoall(fidelity):
    """A 16-rank pairwise alltoall on torus2d(4,4): every rank sends from a second (isend) process on its core while its
    driver receives, so windows open and demote all over the fabric and
    the destination commit spans grow store by store."""
    from repro.bench.sweep_points import _collective_cfg, _drive_collective
    from repro.middleware import Communicator
    from repro.topology import torus2d

    system = TCClusterSystem(torus2d(4, 4), msg_cfg=_collective_cfg(4096))
    system.sim.features.fidelity = fidelity
    system.boot()
    cl = system.cluster
    comms = [Communicator.for_cluster(cl, r) for r in range(cl.nranks)]
    elapsed, _events = _drive_collective(system.sim, comms, "alltoall",
                                         "pairwise", 4096)
    windows = sum(info.chip.nb.counters.get("train_windows")
                  for info in cl.ranks)
    return elapsed, windows


def test_pairwise_alltoall_stream_windows_exact():
    slow, _ = _pairwise_alltoall("packet")
    fast, windows = _pairwise_alltoall("macro")
    assert fast == slow
    assert windows > 0


# ---------------------------------------------------------------------------
# Allreduce in both modes: binomial trees send to several children
# from one core, so coalesced slot spans race same-instant stores
# ---------------------------------------------------------------------------

def run_allreduce(algorithm, fidelity, nbytes=16 * KiB):
    """A seeded float64 allreduce on torus2d(4,4) under ``fidelity``;
    returns the virtual
    elapsed time, every rank's result bytes and every node's DRAM image
    (resident pages)."""
    import numpy as np

    from repro.middleware import Communicator
    from repro.topology import torus2d

    system = TCClusterSystem(torus2d(4, 4), msg_cfg=MsgConfig(
        ring_bytes=64 * KiB, eager_max=24576, fb_interval_slots=128,
        heap_bytes=max(512 * KiB, 2 * nbytes)))
    system.sim.features.fidelity = fidelity
    system.boot()
    cl = system.cluster
    sim = system.sim
    rng = np.random.default_rng(1)
    inputs = [rng.integers(-2**20, 2**20, nbytes // 8).astype(np.float64)
              for _ in range(cl.nranks)]
    comms = [Communicator.for_cluster(cl, r) for r in range(cl.nranks)]
    results = {}

    def driver(c):
        results[c.rank] = yield from c.allreduce(inputs[c.rank], op="sum",
                                                 algorithm=algorithm)

    t0 = sim.now
    procs = [sim.process(driver(c)) for c in comms]
    sim.run_until_event(sim.all_of(procs))
    sim.run()
    oracle = np.sum(inputs, axis=0)
    assert all(np.array_equal(results[r], oracle) for r in range(cl.nranks))
    memory = [{p: bytes(page) for p, page in info.chip.memory._pages.items()}
              for info in cl.ranks]
    return dict(elapsed=sim.now - t0,
                results=[results[r].tobytes() for r in range(cl.nranks)],
                memory=memory, slot_windows=flow_counters(sim).slot_windows)


@pytest.mark.parametrize("algorithm", ["binomial", "ring"])
def test_allreduce_fidelity_exact(algorithm):
    """A multi-slot span store whose first line ends its fill at the very
    instant another process's store on the same core submits must keep
    the per-slot order (the binomial tree's sibling sends); ring pins the
    clean case."""
    packet = run_allreduce(algorithm, "packet")
    macro = run_allreduce(algorithm, "macro")
    for key in ("elapsed", "results", "memory"):
        assert packet[key] == macro[key], f"{algorithm}: {key} diverged"
    assert macro["slot_windows"] > 0 and packet["slot_windows"] == 0
