"""Aggregate-vs-per-packet equivalence oracle for WC stream windows.

``repro.opteron.train`` runs a core's full-line WC stores into a quiescent
link -- one bulk store or a program-order stream of line stores -- as a
growing window of closed-form arithmetic (see its module docstring).
The claim it must uphold is *virtual-time equivalence*: with
``SimFeatures.fidelity`` set to ``"packet"`` or ``"macro"``, a run
produces identical

* completion times (store return, sfence, final drain),
* destination commit instants and memory contents,
* LinkStats (packets/payload/wire/busy) and endpoint counters,
* metrics-registry snapshots (depth samples included),

both on the clean path (no demotion) and across a demotion triggered at
an arbitrary instant by a foreign posted write, a foreign link send, a
BER pulse or an interrupt.  The seeded fuzz below drives exactly that
comparison, for bulk stores and for mixed store programs.

In macro mode a :class:`~repro.sim.flows.CommitSpan` computes a window's
destination commits arithmetically, so the oracle compares the union of
real and computed commits (instant, offset, length) and of memory-port
claim instants.

Known, deliberate divergences (excluded from comparison): the per-burst
``bursts`` LinkStats counter and the train's own ``train_*`` /
``train.*`` telemetry (absent in per-packet mode by construction).
"""

import random
from contextlib import contextmanager, nullcontext

import pytest

from repro.util.units import CACHELINE


@contextmanager
def spy_dest_commits(sim, mc):
    """Record the destination controller's commits as ``(instant, offset,
    length)`` and its port claims as transfer-end instants: the real
    calendar commits in ``commits``, and in ``span_commits`` /
    ``span_claims`` the ones a commit span computes arithmetically (a
    span line's claim when the span folds it into the port arithmetic,
    its commit when the span makes it real).  Spies nest, one per
    controller."""
    from repro.sim import flows

    log = dict(commits=[], claims=[], span_commits=[], span_claims=[])
    applied = {}
    orig_commit, orig_claim = mc._commit_write, mc._claim_port
    Span = flows.CommitSpan
    orig = (Span.sync_to, Span.apply_one, Span.flush_until)
    orig_sync, orig_apply, orig_flush = orig

    def commit_spy(offset, d, mask, done):
        log["commits"].append((sim.now, offset, len(d)))
        return orig_commit(offset, d, mask, done)

    def claim_spy(nbytes):
        end = orig_claim(nbytes)
        log["claims"].append(end)
        return end

    def record(span, a0):
        if span.mc is not mc:
            return
        b = span._base
        for g in range(a0, span._applied):
            c = span._c[g - b]
            applied[id(span), g] = (c, span.offs[g - b], span.line)
            log["span_claims"].append(c - span._lat)

    def sync_spy(span, now):
        a0 = span._applied
        orig_sync(span, now)
        record(span, a0)

    def apply_spy(span):
        a0 = span._applied
        orig_apply(span)
        record(span, a0)

    def flush_spy(span, now, claimed=float("inf")):
        f0 = span._flushed
        orig_flush(span, now, claimed)
        if span.mc is not mc:
            return
        for g in range(f0, span._flushed):
            log["span_commits"].append(applied.pop((id(span), g)))

    mc._commit_write, mc._claim_port = commit_spy, claim_spy
    Span.sync_to, Span.apply_one, Span.flush_until = (sync_spy, apply_spy,
                                                      flush_spy)
    try:
        yield log
    finally:
        Span.sync_to, Span.apply_one, Span.flush_until = orig
        del mc._commit_write, mc._claim_port


def commit_results(log):
    """End-state entries of a :func:`spy_dest_commits` log."""
    return dict(
        all_commits=sorted(log["commits"] + log["span_commits"]),
        claims=sorted(log["claims"] + log["span_claims"]),
    )


def run_train_mode(K, fidelity, kind=None, t_off=None, tail=0,
                   trace_dest=False):
    """One two-board bulk store of ``K`` lines (+``tail`` bytes) under
    ``fidelity``; returns an end-state dict.  ``trace_dest`` traces the
    destination memory controller (and nothing else).  ``kind``/``t_off``
    optionally schedule a foreign disturbance ``t_off`` ns after the
    store begins:

    * ``"submit"``   -- a local posted write enters the same northbridge,
    * ``"send"``     -- a foreign packet enters the same link direction,
    * ``"interrupt"``-- the storing process is interrupted,
    * ``"ber"``      -- the link degrades (BER pulse) mid-window.
    """
    from repro.bench.microbench import _RawWindow
    from repro.core import TCClusterSystem
    from repro.sim import Tracer
    from repro.sim.engine import Interrupt

    system = TCClusterSystem.two_board_prototype()
    system.enable_metrics()
    system.sim.features.fidelity = fidelity
    system.boot()
    cl = system.cluster
    sim = cl.sim
    a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
    win = _RawWindow(cl, a, b)
    proc = win.proc
    core = proc.core
    chip = core.chip
    nb = chip.nb
    r = nb.route(win.tx_base)
    binding = chip.ports[r.dst_link]
    link, side = binding.link, binding.side
    dest_chip = link.attached["B" if side == "A" else "A"]
    if trace_dest:
        dest_chip.memctrl.tracer = Tracer()
    data = bytes((i * 37 + 5) % 256 for i in range(K * CACHELINE + tail))

    done = {}
    handle = [None]

    def job():
        try:
            yield from proc.store(win.tx_base, data)
            done["store_end"] = sim.now
        except Interrupt:
            done["store_interrupted"] = sim.now
        try:
            # Post-disturbance probe: a second store and a fence must
            # behave identically too (reconstructed state is live state).
            yield 100.0
            yield from proc.store(win.tx_base, data[: 4 * CACHELINE])
            done["probe_end"] = sim.now
            yield from core.sfence()
            done["sfence_end"] = sim.now
        except Interrupt:
            done["late_interrupt"] = sim.now

    handle[0] = sim.process(job())
    local_addr = cl.ranks[a].base + (900 << 10)

    def disturb():
        if kind == "submit":
            nb.submit_posted(local_addr, b"\xa5" * 8)
        elif kind == "send":
            from repro.ht.packet import make_posted_write

            pkt = make_posted_write(win.tx_mailbox, b"\x5a" * 64,
                                    unitid=nb.nodeid, coherent=False)
            if not link.try_send(side, pkt):
                link.send(side, pkt)
        elif kind == "interrupt":
            handle[0].interrupt("fidelity-test")
        elif kind == "ber":
            # A BER pulse: degradation demotes any train; restoring 0.0
            # before the next transmission keeps the RNG stream unused so
            # both fidelity modes stay bit-comparable.
            link.ber = 1e-6
            link.ber = 0.0

    if kind is not None:
        sim.schedule(t_off, disturb)
    with spy_dest_commits(sim, dest_chip.memctrl) as log:
        sim.run_until_event(handle[0])
        sim.run()

    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    for s in stats:
        stats[s].pop("bursts", None)
    snap = nb._m.snapshot(sim.now)
    snap["counters"] = {k: v for k, v in snap["counters"].items()
                        if not k.startswith("train.")}
    counters = {k: v for k, v in nb.counters.as_dict().items()
                if not k.startswith("train_")}
    return dict(
        t_end=sim.now,
        done=done,
        stats=stats,
        counters=counters,
        dest_counters=dest_chip.nb.counters.as_dict(),
        wc=(core.wc.fills, core.wc.full_flushes, core.wc.partial_flushes),
        snap=snap,
        dest_mem=dest_chip.memctrl.memory.read(0, 1 << 16),
        dest_trace=dest_chip.memctrl.tracer.records,
        local_mem=chip.memctrl.memory.read(900 << 10, 64),
        events=sim.event_count,
        train_windows=nb.counters.get("train_windows"),
        train_demotions=nb.counters.get("train_demotions"),
        **commit_results(log),
    )


_COMPARED = ("t_end", "done", "all_commits", "claims", "stats", "counters",
             "dest_counters", "wc", "snap", "dest_mem", "local_mem",
             "dest_trace")


def assert_equivalent(slow, fast):
    for key in _COMPARED:
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}"
        )


# ---------------------------------------------------------------------------
# Clean path: whole train collapses, nothing disturbs it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [1, 4, 5, 16, 64])
def test_clean_bulk_store_exact(K):
    slow = run_train_mode(K, "packet")
    fast = run_train_mode(K, "macro")
    assert_equivalent(slow, fast)
    if K >= 4:
        assert fast["train_windows"] >= 1, "fast path never engaged"
    if K <= 5:
        # Larger K: the probe store lands inside the main train's drain
        # tail and legitimately demotes it (covered by the fuzz below).
        assert fast["train_demotions"] == 0


def test_clean_bulk_store_saves_events():
    slow = run_train_mode(64, "packet")
    fast = run_train_mode(64, "macro")
    assert_equivalent(slow, fast)
    assert fast["events"] < slow["events"] * 0.75, (
        f"aggregate fidelity saved too little: "
        f"{slow['events']} -> {fast['events']}"
    )


def test_partial_tail_line_exact():
    # 16 full lines plus a 20-byte tail: the train covers the aligned
    # prefix, the tail goes through the ordinary per-packet partial path.
    slow = run_train_mode(16, "packet", tail=20)
    fast = run_train_mode(16, "macro", tail=20)
    assert_equivalent(slow, fast)
    assert fast["train_windows"] >= 1


def test_traced_destination_stays_per_packet():
    """A traced destination memory controller records every commit
    entry, so a store into it never opens a window: macro mode matches
    packet mode, trace records included."""
    slow = run_train_mode(16, "packet", trace_dest=True)
    fast = run_train_mode(16, "macro", trace_dest=True)
    assert_equivalent(slow, fast)
    assert fast["dest_trace"], "the destination controller traced nothing"
    assert fast["train_windows"] == 0
    assert fast["events"] == slow["events"]


@pytest.mark.slow
@pytest.mark.parametrize("K", [300, 4500])
def test_clean_bulk_store_exact_large(K):
    slow = run_train_mode(K, "packet")
    fast = run_train_mode(K, "macro")
    assert_equivalent(slow, fast)
    assert fast["events"] < slow["events"] * 0.65


# ---------------------------------------------------------------------------
# Seeded fuzz: a foreign event at a random instant forces demotion
# ---------------------------------------------------------------------------

def _fuzz_cases(seed, n, kinds=("submit", "send", "interrupt", "ber")):
    rng = random.Random(seed)
    span = {5: 220.0, 16: 600.0, 64: 1900.0}
    for _ in range(n):
        K = rng.choice(list(span))
        yield (rng.choice(kinds), K,
               round(rng.uniform(0.1, span[K]), 2))


def assert_train_fuzz_exact(cases):
    for kind, K, t_off in cases:
        slow = run_train_mode(K, "packet", kind, t_off)
        fast = run_train_mode(K, "macro", kind, t_off)
        try:
            assert_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(
                f"kind={kind} K={K} t_off={t_off}: {exc}") from exc


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_demotion_fuzz_oracle(seed):
    assert_train_fuzz_exact(_fuzz_cases(seed, 4))


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(8)))
def test_demotion_fuzz_oracle_deep(seed):
    assert_train_fuzz_exact(_fuzz_cases(seed + 100, 12))


def test_drain_tail_demotion_exact():
    # K=16 window: fills finish around 12*16 ns, the wire drains until
    # roughly 24*16 ns.  A foreign submit in between lands after the core
    # resumed but while the dispatcher/serializer are still replaying the
    # precomputed schedule.
    assert_train_fuzz_exact([("submit", 16, 300.0)])


# ---------------------------------------------------------------------------
# Streamed stores: per-line program-order runs ride one growing window
# ---------------------------------------------------------------------------

def _stream_program(seed, nops=48):
    """A seeded program-order mix for the storing core.

    Ops: ``("line", k)`` full-line WC store to window line ``k``,
    ``("bulk", k, n)`` an ``n``-line WC store, ``("sfence",)``,
    ``("gap", ns)`` compute, ``("partial", k, off, n)`` a partial-line WC
    store, ``("uc", k)`` an 8-byte UC store into the window, and
    ``("load",)`` a local UC poll-style load.  Runs come in three styles:
    weak (no fences), strict (sfence per line) and fence-interval.
    """
    rng = random.Random(seed)
    ops = []
    k = rng.randrange(0, 64)
    while len(ops) < nops:
        style = rng.choice(("weak", "strict", "interval"))
        interval = rng.choice((2, 3, 5))
        for n in range(rng.randrange(2, 12)):
            r = rng.random()
            if r < 0.08:
                k += rng.randrange(2, 40)           # non-consecutive line
            if r < 0.85:
                ops.append(("line", k))
                k += 1
            else:
                n_bulk = rng.randrange(2, 6)
                ops.append(("bulk", k, n_bulk))
                k += n_bulk
            if style == "strict" or (style == "interval"
                                     and n % interval == interval - 1):
                ops.append(("sfence",))
        r = rng.random()
        if r < 0.35:
            ops.append(("gap", rng.choice((2.0, 7.5, 40.0, 400.0))))
        elif r < 0.50:
            ops.append(("partial", k + rng.randrange(0, 3),
                        rng.choice((0, 4, 20)), rng.choice((4, 8, 12))))
        elif r < 0.60:
            ops.append(("uc", k + rng.randrange(0, 3)))
        elif r < 0.75:
            ops.append(("load",))
    ops.append(("sfence",))
    return ops


def run_stream_mode(ops, fidelity, kind=None, t_off=None, metrics=True,
                    ops2=None, chain=False, pq_cap=None, left_ops=None):
    """Execute ``ops`` on the two-board prototype's storing core under
    ``fidelity``; returns an end-state dict.  ``kind``/``t_off`` schedule one disturbance (see
    :func:`run_train_mode`) ``t_off`` ns after the program starts; an
    interrupt abandons the op in progress and the program continues.
    ``ops2`` runs as a second process storing through the same core.
    Besides :func:`run_train_mode`'s kinds, ``"flap"`` takes the link down
    and warm-retrains it 2 us later.

    ``chain`` runs instead from the middle supernode of a 3-supernode
    chain, which has a second TCCluster port: the program streams to the
    right neighbour, and the ``"foreign"`` disturbance is a second
    process on the storing core writing one full line to the left
    neighbour (an inserted slot when it can ride the open window),
    ``"foreign_busy"`` the same after six packets sent straight into
    the left port, which fill its TX queue (a busy target still
    demotes), and ``"foreign_interrupt"`` one interrupted 5 ns into its
    line fill (the line is never stored).  ``left_ops`` replaces that
    process's one line, with ``("left", k)`` a line to the left
    neighbour.  ``pq_cap`` shrinks the storing chip's posted queue so
    stores block on it."""
    from repro.bench.microbench import _WINDOW_OFF, _RawWindow
    from repro.core import TCClusterSystem
    from repro.opteron.mtrr import MemoryType
    from repro.sim.engine import Interrupt

    if chain:
        system = TCClusterSystem(num_supernodes=3)
    else:
        system = TCClusterSystem.two_board_prototype()
    if metrics:
        system.enable_metrics()
    system.sim.features.fidelity = fidelity
    system.boot()
    cl = system.cluster
    sim = cl.sim
    if chain:
        a, b = 1, 2
    else:
        a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
    win = _RawWindow(cl, a, b)
    proc = win.proc
    core = proc.core
    chip = core.chip
    nb = chip.nb
    if pq_cap is not None:
        nb.posted_q.capacity = pq_cap
    binding = chip.ports[nb.route(win.tx_base).dst_link]
    link, side = binding.link, binding.side
    dest_chip = link.attached["B" if side == "A" else "A"]
    if chain:
        # The left neighbour's window, mapped into the storing process.
        left_base = cl.ranks[0].base + _WINDOW_OFF
        info = cl.ranks[a]
        cl.kernels[info.supernode].driver_for(info.chip_index).mmap_remote(
            proc.pagetable, left_base, 1 << 16, tag="fuzz-left")
        left = chip.ports[nb.route(left_base).dst_link]
        left_chip = left.link.attached["B" if left.side == "A" else "A"]

    trace = []

    def job(ops, tag=0):
        for i, op in enumerate(ops):
            try:
                if op[0] == "line":
                    yield from proc.store(win.tx_base + op[1] * CACHELINE,
                                          bytes([i % 251]) * CACHELINE)
                elif op[0] == "bulk":
                    _, k, n = op
                    data = bytes((i + j) % 256 for j in range(n * CACHELINE))
                    yield from proc.store(win.tx_base + k * CACHELINE, data)
                elif op[0] == "sfence":
                    yield from proc.sfence()
                elif op[0] == "gap":
                    yield op[1]
                elif op[0] == "partial":
                    _, k, off, n = op
                    yield from proc.store(
                        win.tx_base + k * CACHELINE + off, bytes([7 + i]) * n)
                elif op[0] == "uc":
                    yield from core.store(win.tx_base + op[1] * CACHELINE,
                                          b"\x3c" * 8, mtype=MemoryType.UC)
                elif op[0] == "load":
                    yield from proc.load(win.rx_mailbox, 8)
                elif op[0] == "left":
                    yield from proc.store(left_base + op[1] * CACHELINE,
                                          bytes([0x40 + i]) * CACHELINE)
                trace.append((tag, i, sim.now))
            except Interrupt:
                trace.append((tag, i, "interrupted", sim.now))

    handle = sim.process(job(ops))
    if ops2 is not None:
        sim.process(job(ops2, 1))
    local_addr = cl.ranks[a].base + (900 << 10)

    def disturb():
        if kind == "submit":
            nb.submit_posted(local_addr, b"\xa5" * 8)
        elif kind == "send":
            from repro.ht.packet import make_posted_write

            pkt = make_posted_write(win.tx_mailbox, b"\x5a" * 64,
                                    unitid=nb.nodeid, coherent=False)
            if not link.try_send(side, pkt):
                link.send(side, pkt)
        elif kind == "interrupt":
            handle.interrupt("stream-fuzz")
        elif kind == "ber":
            link.ber = 1e-6
            link.ber = 0.0
        elif kind == "flap":
            # Link down mid-window (a packet may be inside the
            # serializer: NAK + retransmit), warm retrain 2 us later.
            link.bring_down()
            sim.schedule(2000.0, binding.fsm.retrain, "warm")
        elif kind in ("foreign", "foreign_busy", "foreign_interrupt"):
            if kind == "foreign_busy":
                from repro.ht.packet import make_posted_write

                for j in range(6):
                    pkt = make_posted_write(left_base + (64 + j) * CACHELINE,
                                            b"\x66" * 64, unitid=nb.nodeid,
                                            coherent=False)
                    if not left.link.try_send(left.side, pkt):
                        left.link.send(left.side, pkt)
            left_job = sim.process(job(left_ops or [("left", 1)], 2))
            if kind == "foreign_interrupt":
                sim.schedule(5.0, left_job.interrupt, "abandon")

    if kind is not None:
        sim.schedule(t_off, disturb)
    t_start = sim.now
    left_spy = (spy_dest_commits(sim, left_chip.memctrl) if chain
                else nullcontext())
    with spy_dest_commits(sim, dest_chip.memctrl) as log, left_spy as log2:
        sim.run_until_event(handle)
        sim.run()

    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    for s in stats:
        stats[s].pop("bursts", None)
    snap = nb._m.snapshot(sim.now)
    snap["counters"] = {k: v for k, v in snap["counters"].items()
                        if not k.startswith("train.")}

    def plain(counters):
        return {k: v for k, v in counters.as_dict().items()
                if not k.startswith("train_")}

    off = dest_chip.nb._local_offset(win.tx_base)
    dmc = dest_chip.memctrl
    extra = {}
    if chain:
        lmc = left_chip.memctrl
        extra = dict(
            left_stats={s: left.link.stats(s).as_dict(sim.now)
                        for s in ("A", "B")},
            left_counters=plain(left_chip.nb.counters),
            left_mem=lmc.memory.read(left_chip.nb._local_offset(left_base),
                                     1 << 12),
            left_commits=commit_results(log2))
        for st in extra["left_stats"].values():
            st.pop("bursts", None)
    return dict(
        **extra,
        t_end=sim.now,
        span=sim.now - t_start,
        trace=trace,
        stats=stats,
        counters=plain(nb.counters),
        dest_counters=plain(dest_chip.nb.counters),
        wc=(core.wc.fills, core.wc.full_flushes, core.wc.partial_flushes,
            core.wc.evictions),
        snap=snap,
        dest_mc=(dmc.reads, dmc.writes, dmc.bytes_read, dmc.bytes_written),
        dest_mem=dmc.memory.read(off, 1 << 16),
        local_mem=chip.memctrl.memory.read(900 << 10, 64),
        events=sim.event_count,
        train_windows=nb.counters.get("train_windows"),
        train_lines=nb.counters.get("train_lines"),
        train_demotions=nb.counters.get("train_demotions"),
        **commit_results(log),
    )


_STREAM_COMPARED = ("t_end", "trace", "all_commits", "claims", "stats",
                    "counters", "dest_counters", "wc", "snap", "dest_mc",
                    "dest_mem", "local_mem")


#: What a link-down run is compared on.  Under a link flap the per-packet
#: reference itself depends on burst serialization: a burst window NAKs
#: all its unfinished packets at once, which moves NAK/busy accounting,
#: TX-queue refill and so whether the dispatcher meets the dead link
#: (fault-forward counters, the patience timer left on the calendar).
#: Per-packet runs with and without bursts disagree there, so the oracle
#: keeps what they agree on: program-visible completion times and every
#: destination commit (DESIGN.md section 8.2).
_LINK_DOWN_COMPARED = ("trace", "dest_counters", "wc", "dest_mc",
                       "dest_mem", "local_mem")


def assert_stream_equivalent(slow, fast, label="", link_down=False):
    # Commit spans apply destination writes arithmetically: the oracle
    # compares real plus computed commits (see spy_dest_commits).
    keys = _LINK_DOWN_COMPARED if link_down else _STREAM_COMPARED
    for key in keys:
        assert slow[key] == fast[key], (
            f"{label} {key} diverged:\n  slow: {str(slow[key])[:600]}"
            f"\n  fast: {str(fast[key])[:600]}"
        )


@pytest.mark.parametrize("metrics", [True, False])
@pytest.mark.parametrize("seed", [3, 11, 21])
def test_stream_clean_exact(seed, metrics):
    ops = _stream_program(seed)
    slow = run_stream_mode(ops, "packet", metrics=metrics)
    fast = run_stream_mode(ops, "macro", metrics=metrics)
    assert_stream_equivalent(slow, fast, f"seed={seed}")
    assert fast["train_lines"] > 0, "stream windows never engaged"
    assert fast["events"] < slow["events"]


@pytest.mark.parametrize("seed", [1, 5, 8, 13, 17, 19, 23, 29])
def test_stream_disturbance_fuzz(seed):
    """Each disturbance kind (a link flap too) at a seeded random instant
    of a seeded program -- while the core fills, blocks, fences, computes
    or sits between stores."""
    rng = random.Random(1000 + seed)
    ops = _stream_program(seed, nops=64)
    span = run_stream_mode(ops, "packet", metrics=False)["span"]
    for kind in ("submit", "send", "interrupt", "ber", "flap"):
        t_off = round(rng.uniform(5.0, span), 2)
        metrics = rng.random() < 0.5
        slow = run_stream_mode(ops, "packet", kind, t_off, metrics)
        fast = run_stream_mode(ops, "macro", kind, t_off, metrics)
        assert_stream_equivalent(
            slow, fast, f"seed={seed} kind={kind} t_off={t_off} "
                        f"metrics={metrics}", link_down=kind == "flap")


def test_two_processes_one_core_exact():
    """A second process storing through the same core while the first
    waits on a store is foreign traffic: it demotes the window instead of
    appending to it (appending would strand the first process's wait)."""
    ops = [("line", k) for k in range(2200)] + [("sfence",)]
    ops2 = [("gap", 3000.5)] + [("line", 4000 + k) for k in range(40)] + [
        ("gap", 40.0), ("line", 5000), ("sfence",)]
    slow = run_stream_mode(ops, "packet", ops2=ops2)
    fast = run_stream_mode(ops, "macro", ops2=ops2)
    assert_stream_equivalent(slow, fast)
    assert fast["train_demotions"] >= 1


def _second_process_program(seed):
    """Short multi-line and line stores for a second process on the
    storing core, starting within a few fills of the first program so its
    fill ends land on the first store's per-line instants."""
    rng = random.Random(seed)
    ops, k = [], 3000
    for _ in range(rng.randrange(2, 8)):
        r = rng.random()
        if r < 0.5:
            n = rng.randrange(2, 9)
            ops.append(("bulk", k, n))
            k += n
        elif r < 0.8:
            ops.append(("line", k))
            k += 1
        else:
            ops.append(("gap", rng.choice((0.0, 12.0, 24.0, 36.0, 2.5))))
    if rng.random() < 0.5:
        ops.insert(0, ("gap", rng.choice((0.0, 12.0, 24.0, 48.0))))
    return ops


@pytest.mark.parametrize("seed", [9, 14, 22, 35])
def test_two_processes_same_instant_stores_exact(seed):
    """Two processes store through one core from the first instant on: a
    multi-line store's fill ends meet the other process's fill ends in
    the same instant, where per-packet calendar order decides which line
    is submitted first (the first line's relay and the demotion's
    fill-end entry reproduce it)."""
    ops = _stream_program(seed, nops=40)
    ops2 = _second_process_program(seed)
    slow = run_stream_mode(ops, "packet", metrics=False, ops2=ops2)
    fast = run_stream_mode(ops, "macro", metrics=False, ops2=ops2)
    assert_stream_equivalent(slow, fast, f"seed={seed}")
    assert fast["train_demotions"] >= 1


@pytest.mark.parametrize("ops", [
    # A WC flush at the very instant a store retires: the core has seen
    # the acceptance, so the demotion must count it (the pop that freed
    # the slot included, once the posted queue is full).
    [("partial", 3000, 0, 8), ("bulk", 0, 16), ("sfence",)],
    [("partial", 3000, 4, 8), ("line", 0), ("sfence",)],
    [("partial", 3000, 0, 8)] + [("line", k) for k in range(2100)]
    + [("sfence",)],
], ids=["bulk", "line", "queue-full"])
def test_flush_at_acceptance_instant_exact(ops):
    slow = run_stream_mode(ops, "packet")
    fast = run_stream_mode(ops, "macro")
    assert_stream_equivalent(slow, fast)
    assert fast["train_demotions"] == 1


_LEFT_COMPARED = ("left_stats", "left_counters", "left_mem",
                  "left_commits")


def assert_chain_equivalent(slow, fast, label=""):
    """The stream oracle plus the second port's link stats and the left
    neighbour's commits and memory."""
    assert_stream_equivalent(slow, fast, label)
    for key in _LEFT_COMPARED:
        assert slow[key] == fast[key], (
            f"{label} {key} diverged:\n  slow: {str(slow[key])[:600]}"
            f"\n  fast: {str(fast[key])[:600]}")


def run_chain_pair(ops, kind, t_off, **kw):
    slow = run_stream_mode(ops, "packet", kind, t_off, chain=True, **kw)
    fast = run_stream_mode(ops, "macro", kind, t_off, chain=True, **kw)
    assert_chain_equivalent(slow, fast, f"kind={kind} t_off={t_off} {kw}")
    return slow, fast


# One 48-line store, then two single lines 400 ns apart.
_CHAIN_OPS = ([("bulk", 0, 48), ("gap", 400.0), ("line", 48),
               ("gap", 400.0), ("line", 49), ("sfence",)])


@pytest.mark.parametrize("t_off", [5.0, 100.0, 301.5, 587.0])
def test_foreign_line_while_core_fills_exact(t_off):
    """A feedback-style line to the other port lands while the core fills
    a multi-line store (another process on the same core): it splices in
    between that store's lines as one dispatcher slot and shifts the rest
    of the window, which stays open."""
    slow, fast = run_chain_pair(_CHAIN_OPS, "foreign", t_off)
    assert fast["train_demotions"] == 0
    assert sum(st["packets"] for st in slow["left_stats"].values()) == 1


@pytest.mark.parametrize("t_off", [700.0, 1203.0, 1666.5])
def test_foreign_line_between_stores_exact(t_off):
    """The line lands while the storing core computes between stores,
    with the window's lines still in the posted queue or on the wire."""
    _, fast = run_chain_pair(_CHAIN_OPS, "foreign", t_off)
    assert fast["train_demotions"] == 0


@pytest.mark.parametrize("t_off", [30.0, 250.0, 400.5])
def test_foreign_line_core_blocked_exact(t_off):
    """A posted queue of four packets: the storing core blocks on it, and
    a line landing then cannot keep the core's schedule -- it demotes."""
    _, fast = run_chain_pair(_CHAIN_OPS, "foreign", t_off, pq_cap=4)
    assert fast["train_demotions"] >= 1


@pytest.mark.parametrize("t_off", [100.0, 301.5, 1203.0])
def test_foreign_line_interrupted_mid_fill_exact(t_off):
    """The process writing the line is interrupted during its fill: per
    packet the line never exists, so an inserted slot must come out of
    the window again (by demoting it)."""
    slow, fast = run_chain_pair(_CHAIN_OPS, "foreign_interrupt", t_off)
    assert fast["train_demotions"] == 1
    assert not any(st["packets"] for st in slow["left_stats"].values())


@pytest.mark.parametrize("t_off", [100.0, 1203.0])
def test_foreign_line_busy_target_demotes_exact(t_off):
    """The other port's TX queue is full (packets sent straight into it):
    the line cannot be inserted, so the window demotes as before."""
    _, fast = run_chain_pair(_CHAIN_OPS, "foreign_busy", t_off)
    assert fast["train_demotions"] >= 1


def _left_program(rng):
    """One to three lines to the left neighbour, some with short gaps:
    later ones land while earlier ones are still queued."""
    ops = []
    for k in range(rng.randrange(1, 4)):
        ops.append(("left", k + 1))
        if rng.random() < 0.5:
            ops.append(("gap", rng.choice((0.0, 2.5, 12.0, 40.0))))
    return ops


@pytest.mark.parametrize("seed", [2, 6, 10, 31])
def test_foreign_line_fuzz(seed):
    """A seeded program on the chain's middle supernode, disturbed at
    seeded instants by a few lines to the other port (sometimes onto a
    busy port, sometimes interrupted mid-fill, sometimes through a
    four-packet posted queue)."""
    rng = random.Random(3000 + seed)
    ops = _stream_program(seed, nops=40)
    span = run_stream_mode(ops, "packet", metrics=False, chain=True)["span"]
    for _ in range(4):
        kind = rng.choice(("foreign", "foreign", "foreign_busy",
                           "foreign_interrupt"))
        t_off = round(rng.uniform(5.0, span), 2)
        pq_cap = rng.choice((None, None, 4))
        run_chain_pair(ops, kind, t_off, metrics=rng.random() < 0.5,
                       pq_cap=pq_cap, left_ops=_left_program(rng))


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(40, 52)))
def test_foreign_line_fuzz_deep(seed):
    """The foreign-line fuzz on longer programs, including ring-like ones
    (a few large multi-line stores) where the line splices in between a
    store's lines."""
    rng = random.Random(4000 + seed)
    if seed % 2:
        ops = _stream_program(seed, nops=64)
    else:
        ops, k = [], 0
        for _ in range(rng.randrange(2, 5)):
            n = rng.randrange(8, 70)
            ops += [("bulk", k, n), ("gap", rng.choice((0.0, 12.0, 700.0)))]
            k += n
        ops.append(("sfence",))
    span = run_stream_mode(ops, "packet", metrics=False, chain=True)["span"]
    for _ in range(6):
        kind = rng.choice(("foreign", "foreign", "foreign", "foreign_busy",
                           "foreign_interrupt"))
        t_off = round(rng.uniform(5.0, span), 2)
        pq_cap = rng.choice((None, None, None, 4, 16))
        run_chain_pair(ops, kind, t_off, metrics=rng.random() < 0.5,
                       pq_cap=pq_cap, left_ops=_left_program(rng))


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(20, 32)))
def test_stream_disturbance_fuzz_deep(seed):
    rng = random.Random(2000 + seed)
    ops = _stream_program(seed, nops=96)
    span = run_stream_mode(ops, "packet", metrics=False)["span"]
    for _ in range(6):
        kind = rng.choice(("submit", "send", "interrupt", "ber", "flap"))
        t_off = round(rng.uniform(5.0, span), 2)
        metrics = rng.random() < 0.5
        slow = run_stream_mode(ops, "packet", kind, t_off, metrics)
        fast = run_stream_mode(ops, "macro", kind, t_off, metrics)
        assert_stream_equivalent(
            slow, fast, f"seed={seed} kind={kind} t_off={t_off} "
                        f"metrics={metrics}", link_down=kind == "flap")


def test_stream_window_state_bounded(monkeypatch):
    """A 4 MiB per-line stream keeps O(pipeline) schedule state: the
    open window never holds more lines than the posted buffer plus the
    TX queue can keep in flight, plus the retirement batching slack."""
    from repro.bench.microbench import run_bandwidth_sweep
    from repro.core import TCClusterSystem
    from repro.opteron import train
    from repro.util.units import MiB

    peak = [0]
    extend = train.BulkTrain._extend

    def spy(self, *args):
        extend(self, *args)
        peak[0] = max(peak[0], len(self.ss))

    monkeypatch.setattr(train.BulkTrain, "_extend", spy)
    system = TCClusterSystem.two_board_prototype().boot()
    run_bandwidth_sweep(sizes=(4 * MiB,), modes=("weak",), system=system)
    cl = system.cluster
    chip = cl.ranks[cl.rank_of(0, 1)].chip
    link = next(iter(chip.ports.values())).link
    bound = (chip.timing.posted_buffer_packets + link.tx_queue_depth
             + 2 * train._RETIRE_BATCH + 8)
    assert 2048 < peak[0] <= bound, (peak[0], bound)
    assert chip.nb.counters.get("train_lines") == 4 * MiB // CACHELINE


def _msglib_weak_send(fidelity):
    """Single-slot eager messages sent back to back (weak mode) over the
    two-board prototype: slot coalescing declines a one-slot message, so
    every slot is its own line store."""
    from repro.core import TCClusterSystem
    from repro.msglib.config import SLOT_PAYLOAD

    system = TCClusterSystem.two_board_prototype()
    system.sim.features.fidelity = fidelity
    system.boot()
    cl = system.cluster
    sim = cl.sim
    a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
    ep_ab, ep_ba = system.connect(a, b)
    nmsgs = 3 * 41
    msgs = [bytes((i * 13 + k) % 256 for i in range(SLOT_PAYLOAD - k % 5))
            for k in range(nmsgs)]
    got = {}

    def sender():
        for k, msg in enumerate(msgs):
            yield from ep_ab.send(msg)
            got[f"sent{k}"] = sim.now
        yield from ep_ab.flush()

    def receiver():
        for k in range(nmsgs):
            got[k] = yield from ep_ba.recv()
            got[f"recv{k}"] = sim.now

    ps = [sim.process(sender()), sim.process(receiver())]
    sim.run_until_event(sim.all_of(ps))
    sim.run()
    nb = cl.ranks[a].chip.nb
    link = next(iter(cl.ranks[a].chip.ports.values())).link
    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    for s in stats:
        stats[s].pop("bursts", None)
    return dict(
        t_end=sim.now, got=got, stats=stats,
        counters={k: v for k, v in nb.counters.as_dict().items()
                  if not k.startswith("train_")},
        train_lines=nb.counters.get("train_lines"),
    )


def test_msglib_per_slot_weak_send_exact():
    slow = _msglib_weak_send("packet")
    fast = _msglib_weak_send("macro")
    for key in ("t_end", "got", "stats", "counters"):
        assert slow[key] == fast[key], key
    assert fast["train_lines"] > 100, "slot stores never rode a window"


def test_latency_sweep_point_exact():
    """A Figure 7 raw ping-pong point: ``_write_message``'s line loop
    rides a window per message and the half round trip is unchanged."""
    from repro.bench.microbench import make_prototype, run_latency_sweep

    points = {}
    for fidelity in ("packet", "macro"):
        system = make_prototype()
        system.sim.features.fidelity = fidelity
        points[fidelity] = run_latency_sweep(sizes=(512,), iters=6,
                                             system=system)
        nb = system.cluster.ranks[system.cluster.rank_of(0, 1)].chip.nb
        lines = nb.counters.get("train_lines")
    assert points["packet"] == points["macro"]
    assert lines >= 6 * 512 // CACHELINE
