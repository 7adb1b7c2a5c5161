"""Adaptive-fidelity WC stream windows: the write-combined packet train.

The TCCluster transmit pipeline for weakly-ordered line stores is a fixed
four-stage pipeline (WC line fill -> posted queue -> dispatcher -> link
serializer) whose per-packet schedule is *closed under arithmetic* as
long as nothing else touches the queues involved: every fill, pop,
dispatch and serialization instant of packet ``i`` is determined by the
recurrence in :meth:`BulkTrain._extend`.  Simulating it packet by packet
costs ~8 calendar entries per 64-byte line; a 4 MiB stream is half a
million heap operations that compute what three ``max()`` chains
already know.

:func:`plan_train` opens a window when an aligned full-line WC store
targets a quiescent single-hop TCCluster window.  Every later full-line
WC store by the same core into the same route range is *appended*
(:meth:`BulkTrain.admits` / :meth:`BulkTrain.feed`): the recurrence is
causal, so line ``i`` filled from ``fs_i = now`` (at or after the
previous acceptance) extends the schedule exactly -- back-to-back weak
stores, sfence gaps and compute gaps alike.  A multi-line store is the
same window fed ``K`` lines at once.  While the window is open:

* the sender side (core fills, posted queue, dispatcher, TX queue,
  serializer) is pure arithmetic -- its externally visible effects
  (WC stats, ``mmio_writes``, link TX stats, posted-queue depth metric
  samples) are applied lazily at the virtual times they would have
  occurred, and the storing core spends one calendar entry per store
  (its resume at the acceptance instant; a multi-line store first
  relays at its first line's fill end and its last line's fill start);
* the receiver side is a :class:`~repro.sim.flows.CommitSpan`: it
  folds each line's arrival into the destination memory controller's
  port arithmetic and applies its commit, ``rx_writes`` accounting and
  doorbell rings at the exact per-packet instants, so destination
  memory timing, receiver polling and doorbells are bit-identical to
  per-packet mode.  A traced destination controller keeps the store
  per-packet (its trace records each commit entry).

Per-line state is bounded by the pipeline, not the stream: each append
first applies the deferred effects due by ``now`` and retires the prefix
whose lines have left the wire and been committed, so an open window
holds O(posted buffer + TX queue) lines however long the stream runs.

**Inserted slots.**  One full-line WC store by the window's core into a
TCCluster window that leaves by a *different*, quiescent local port --
msglib's feedback line to the other ring neighbour, written by the
receiving process while the sending process streams -- does not touch
the window's link direction: it shares only the posted queue and the
dispatcher.  :meth:`BulkTrain.inserts` admits it as one inserted
dispatcher slot (fill, acceptance, pop plus one crossbar step, no
serialization on the window's direction) at its acceptance position, so
the lines behind it shift by that slot, and at its dispatch instant it
runs as one real per-packet send on its own port.  The window claims
that port's direction until then, so any foreign use of it demotes.

**Demotion.**  The schedule is only valid while the window owns its
queues.  Any foreign action that could perturb it -- another submit into
the same northbridge (the storing core's own UC store or WC flush
included), any send on the same link direction, a link rate/BER/state
change, an interrupt thrown into the storing core while it waits on a
store -- calls :meth:`BulkTrain.abort`, which reconstructs the exact
per-packet state at the abort instant ``T`` (queue contents, blocked
putters, the dispatcher's in-flight packet (an inserted line's
included), a mid-serialization phy
hold, the receiver's busy conversion, the core mid-fill or blocked, or
idle between stores) and falls back to per-packet simulation for the
remainder; packets that left before the cut still commit from the
commit span, truncated there.  The reconstruction is exact: every
timestamp in the recurrence is a dyadic rational under the default
timing model, so float arithmetic reproduces the per-packet event times
bit-for-bit (non-dyadic timing would only be ulp-close).

Known, documented divergences (all invisible to the golden metrics and
the equivalence oracle, which excludes them):

* ``LinkStats.bursts`` is not incremented (burst mode's counter);
* POSTED credits are not taken/returned mid-window (net zero; at most
  2 credits of transient difference while a packet is in flight --
  eligibility requires enough headroom that gating can never differ);
* deferred sender-side stats are applied at each retire batch, when the
  window closes and at demotion, so a *foreign* observer reading them
  mid-window sees values that lag by up to one batch.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Optional

from ..ht.link import LinkDownError, LinkState
from ..ht.packet import VirtualChannel, make_posted_write
from ..obs.metrics import fault_counters
from ..sim import Event, Interrupt
from ..sim.flows import CommitSpan
from ..util.units import CACHELINE
from .northbridge import RouteKind

if TYPE_CHECKING:  # pragma: no cover
    from .core import CpuCore

__all__ = ["BulkTrain", "plan_train"]

_INF = float("inf")

#: Retired schedule prefixes are dropped in batches of at least this many
#: lines (one list memmove per batch instead of one per append).
_RETIRE_BATCH = 32


def _clear_range(table, addr: int):
    """``(lo, hi, result)``: the widest range around ``addr`` that the first
    matching route-table row serves with no higher-priority row shadowing
    any part of it; ``None`` when no row matches."""
    lo, hi = 0, _INF
    for b, lim, result, _re, _we in table:
        if b <= addr < lim:
            return max(lo, b), min(hi, lim), result
        if lim <= addr:
            lo = max(lo, lim)
        elif b > addr:
            hi = min(hi, b)
    return None


def _wc_clear(wc, addr: int, nlines: int) -> bool:
    """The WC streaming fast path holds for every line: no open buffer
    aliases one and a buffer slot stays free throughout."""
    bufs = wc._buffers
    if not bufs:
        return True
    if len(bufs) >= wc.num_buffers:
        return False
    end = addr + nlines * CACHELINE
    return not any(addr <= line < end for line in bufs)


def plan_train(core: "CpuCore", addr: int,
               nlines: int) -> Optional["BulkTrain"]:
    """Open a stream window for an aligned run of ``nlines`` full WC lines
    at ``addr``; ``None`` keeps the store on the per-packet path.

    Eligibility = (a) the run routes out one local TCCluster link and
    every line lands in the destination's ready local DRAM, (b) the whole
    pipeline for that link direction is quiescent (queues empty, pumps
    parked, credits full, phy idle), and (c) the storing core's WC
    buffers leave the streaming fast path open.  Anything else:
    per-packet.
    """
    chip = core.chip
    if not core.sim.features.macro:
        return None
    nb = chip.nb
    if nb._train is not None or not nb._started:
        return None
    pq = nb.posted_q
    if pq._items or pq._putters or len(pq._getters) != 1:
        return None
    r = nb.route(addr)
    if r.kind is not RouteKind.MMIO_LOCAL_LINK or not r.writable:
        return None
    if not _wc_clear(core.wc, addr, nlines):
        return None
    binding = chip.ports.get(r.dst_link)
    if binding is None:
        return None
    link, side = binding.link, binding.side
    if getattr(link, "_dirs", None) is None:  # striped/aggregated wrapper
        return None
    if link.state != LinkState.ACTIVE or link.ber > 0 or link.tracer.enabled:
        return None
    d = link._dirs[side]
    if d._train is not None or d._flow is not None:
        return None
    # Direction quiescence: all VC TX queues empty with their pumps
    # parked, serializer idle with no waiters, POSTED credits full.
    for q in d.txq.values():
        if q._items or q._putters or len(q._getters) != 1:
            return None
        if q._phantom and q._live_phantoms():
            return None
    if d.phy._in_use or d.phy._waiters:
        return None
    cred = d.credits[VirtualChannel.POSTED]
    if cred._credits != cred.initial:
        return None
    if d.rx._items or len(d.rx._getters) != 1:
        return None
    dest_chip = getattr(link, "attached", {}).get(d.rx_side)
    if dest_chip is None:
        return None
    dest_nb = dest_chip.nb
    if not dest_nb._started or dest_chip.memctrl.tracer.enabled:
        return None  # a traced controller records every commit entry
    proto = make_posted_write(addr, bytes(CACHELINE), unitid=nb.nodeid,
                              coherent=False)
    ser = link.serialization_ns(proto)
    prop = link.propagation_ns
    # Credit headroom: at most ceil((ser+prop)/ser) per-packet credits are
    # ever in flight; with strictly more than that (+1 margin) available
    # the pump can never stall, so skipping credit traffic is invisible.
    if cred.initial <= math.ceil((ser + prop) / ser) + 1:
        return None
    dt = dest_chip.timing
    rxs = dt.nb_request_ns + dt.nb_iobridge_ns
    if rxs > ser:
        return None  # receive loop could fall behind the wire
    if dest_nb.route(addr).kind is not RouteKind.DRAM_LOCAL:
        return None  # multi-hop stays per-packet
    if not dest_nb._dram_ready():
        return None
    src = _clear_range(nb._route_table, addr)
    dst = _clear_range(dest_nb._route_table, addr)
    lo, hi = max(src[0], dst[0]), min(src[1], dst[1])
    if addr + nlines * CACHELINE > hi:
        return None
    return BulkTrain(core, binding, d, ser, prop, rxs, lo, hi, proto)


class _Insert:
    """One inserted line's egress and its core's and dispatcher's
    calendar entries."""

    __slots__ = ("port", "dir", "fs", "accept", "wake", "done_seq", "seq",
                 "accepted", "removed")

    def __init__(self, port, direction, fs, accept):
        self.port = port
        self.dir = direction
        self.fs = fs              # fill start (its fill sleep's push instant)
        self.accept = accept
        self.wake: Optional[Event] = None
        self.done_seq = None      # the core's fill-end entry
        self.seq = None           # the dispatcher's pending pop/send entry
        self.accepted = False
        self.removed = False


class BulkTrain:
    """One aggregate-fidelity stream window (see module docstring).

    Built by :func:`plan_train` only; the core's WC store path drives it
    with ``consumed = yield from train.feed(addr, data, nlines)`` for the
    opening store and every store :meth:`admits`.
    """

    def __init__(self, core, binding, direction, ser, prop, rxs, lo, hi,
                 proto):
        self.core = core
        self.sim = sim = core.sim
        self.nb = nb = core.chip.nb
        self.port = binding.port
        self.dir = direction
        dest_chip = binding.link.attached[direction.rx_side]
        self.dest_nb = dest_chip.nb
        self.dest_mc = dest_chip.memctrl
        # Route range the window may grow over, valid while neither
        # route table is rebuilt (any register write drops it).
        self._lo, self._hi = lo, hi
        self._src_tbl = nb._route_table
        self._dst_tbl = self.dest_nb._route_table
        #: Destination DRAM offset minus source address (one local DRAM
        #: row covers the whole range, so the map is a shift).
        self._off_delta = self.dest_nb._local_offset(lo) - lo
        t = core.chip.timing
        self.F = t.wc_line_fill_ns
        self.TS = t.nb_request_ns + t.nb_iobridge_ns
        self.ser = ser
        # Packet departure to its receive-side commit: wire, cable and
        # the receiver's crossbar/IO-bridge conversion.
        self._mcw_off = ser + prop + rxs
        pq_cap = nb.posted_q.capacity
        self.capq = pq_cap if pq_cap is not None else _INF
        txq_cap = direction.txq[VirtualChannel.POSTED].capacity
        self.capt = txq_cap if txq_cap is not None else _INF
        #: ``capt`` plus the retained inserted lines: the TX-queue
        #: lookback distance in posted-line indices for the next append.
        self._capt_p = self.capt
        self.wire_per_pkt = proto.wire_bytes(binding.link.timing.ht_crc_bytes)
        self.metrics_on = nb._m.enabled
        self._depth_series = f"{nb.name}.posted_q_depth"
        self._wake_name = f"{nb.name}.train"
        # Per-line schedule, indexed by global line number minus _base
        # (the retired prefix).  See _extend for the series' meaning.
        # Every series but ``ss`` counts posted-queue lines, inserted
        # ones included; ``ss`` counts only the window's own lines (its
        # wire, and the commit span's line numbers), from ``_bw``.
        self._base = 0
        self._bw = 0
        self.K = 0               # lines appended so far
        self.fs = []             # core fill start (push instant of the fill)
        self.fill_done = []
        self.accept = []
        self.pop = []
        self.putc = []
        self.ss = []
        self._offs = []          # destination DRAM offset per line
        self._srcs = []          # (source memoryview, its offset origin)
        # Inserted lines: retained global indices (sorted), their records,
        # and the global index just past the last one sent.
        self._ins = []
        self._insd = {}
        self._sent_mark = 0
        #: Global indices of the window core's latest store's first and
        #: last lines.
        self._first = 0
        self._last = -1
        self.t_end = 0.0         # the last line's acceptance
        self.t_final = 0.0       # the last line's receive-side commit
        # lifecycle
        self.done = False        # no further aborts possible
        self.aborted = False
        self.cut = 0             # first window line NOT owned (set by abort)
        self._seen = 0           # lines whose acceptance the core observed
        self._filled = 0         # lines whose fill end the core observed
        # The core's pending entry: its instant, and the line whose
        # per-packet fill-end entry it was pushed in place of (the seq
        # slot it holds), or None.
        self._pend_at = 0.0
        self._pend_slot: Optional[int] = None
        #: The core runs inside its completion entry (pushed at its
        #: store's last fill start): True; inside an inserted line's
        #: acceptance entry: that entry's push instant; else False.
        self._resuming = False
        self.resume_fills = 0
        self.resume_put: Optional[Event] = None
        self.wake: Optional[Event] = None
        self._complete_seq = None
        self._finalize_seq = None
        self._disp_wake: Optional[Event] = None
        self._pump_wake: Optional[Event] = None
        self._rx_getter: Optional[Event] = None
        self._rx_seq = None
        # receiver side: the destination commit schedule is one
        # arithmetic span on the controller instead of two calendar
        # entries per line (see repro.sim.flows)
        self._span = CommitSpan(sim, self.dest_mc, self.dest_nb, CACHELINE, 0)
        # deferred-effect cursors (global line counts)
        self._fills_applied = 0
        self._mmio_applied = 0
        self._ser_applied = 0
        self._depth_applied = 0
        self._ja = 0             # accepts strictly before the last sampled pop
        self._off_wire = 0       # lines whose serialization has ended
        self._retain_check = _RETIRE_BATCH
        nb._train = self
        direction._train = self
        nb.counters.inc("train_windows")
        if self.metrics_on:
            nb._m.inc("train.windows")

    # ------------------------------------------------------------------
    # The schedule recurrence (exact; see DESIGN.md "Adaptive fidelity")
    # ------------------------------------------------------------------
    def _extend(self, fs: float, off0: int, src, n: int) -> None:
        """Append ``n`` lines at destination offsets ``off0, off0+64, ...``
        of one store; the first fill starts at ``fs``, each later one at
        its predecessor's acceptance.

        fs[i]        core starts filling line i
        fill_done[i] WC fill of line i completes (the submit instant)
        accept[i]    posted queue accepts packet i (the store retires)
        pop[i]       dispatcher pops packet i from the posted queue
        putc[i]      packet i accepted into the link TX queue
        ss[i]        serialization of packet i starts on the wire

        Retired lines (off the wire before the last retire's ``now``)
        cannot bind anything later, so a lookback into the retired prefix
        is simply skipped.  The TX-queue lookback counts the window's own
        lines only: inserted slots never enter its TX queue.
        """
        F, TS, SER = self.F, self.TS, self.ser
        CAPQ = self.capq
        fsl, fill_done, accept = self.fs, self.fill_done, self.accept
        pop, putc, ss = self.pop, self.putc, self.ss
        offs, srcs = self._offs, self._srcs
        li = len(pop)
        CAPT = self._capt_p  # ss[li - CAPT]: the CAPT-th previous wire line
        pc_prev = putc[-1] if li else -_INF
        s_next = ss[-1] + SER if ss else -_INF
        o = off0
        for _ in range(n):
            fd = fs + F
            a = fd
            if li >= CAPQ and pop[li - CAPQ] > fd:
                a = pop[li - CAPQ]  # posted queue full: core blocks
            p = pc_prev if pc_prev > a else a
            pc = p + TS
            if li >= CAPT and ss[li - CAPT] > pc:
                pc = ss[li - CAPT]  # TX queue full: dispatcher blocks
            st = s_next if s_next > pc else pc
            fsl.append(fs)
            fill_done.append(fd)
            accept.append(a)
            pop.append(p)
            putc.append(pc)
            ss.append(st)
            offs.append(o)
            srcs.append(src)
            o += CACHELINE
            fs, pc_prev, s_next = a, pc, st + SER
            li += 1
        self.K += n
        self._last = self._base + li - 1
        self.t_end = a
        # The last packet's receive-side commit: until then the window
        # owns the destination's receive loop too.
        self.t_final = st + self._mcw_off

    def _insert(self, fs: float, off: int, src, plan) -> "_Insert":
        """Splice one inserted line into the schedule at the posted
        position ``plan`` (from :meth:`inserts`) found for it.  The lines
        behind it -- the tail of the core's store in flight -- are taken
        off and appended again, so the recurrence shifts their pops,
        TX-queue puts and wire starts; their fills and acceptances stay."""
        port, d, k, p = plan
        g = self._base + k
        ntail = len(self.pop) - k
        if ntail:
            tail = (self.fs[k], self._offs[k], self._srcs[k])
            for lst in (self.fs, self.fill_done, self.accept, self.pop,
                        self.putc, self._offs, self._srcs):
                del lst[k:]
            del self.ss[len(self.ss) - ntail:]
            self.K -= ntail
        a = fs + self.F
        for lst, v in ((self.fs, fs), (self.fill_done, a), (self.accept, a),
                       (self.pop, p), (self.putc, p + self.TS),
                       (self._offs, off), (self._srcs, src)):
            lst.append(v)
        self.K += 1
        self._ins.append(g)
        self._capt_p += 1
        rec = self._insd[g] = _Insert(port, d, fs, a)
        d._train = self
        rec.seq = self.sim._push_cancellable(p, self._ins_pop, (g,))
        if self._pend_slot is not None and self._pend_slot >= g:
            self._pend_slot += 1
        if ntail:
            self._extend(*tail, ntail)
            mcw = self._mcw_off
            self._span.retime(self._bw + len(self.ss) - ntail,
                              [s + mcw for s in self.ss[-ntail:]])
        if p + self.TS > self.t_final:
            self.t_final = p + self.TS
        return rec

    def _depth_sample(self, i: int) -> float:
        """Posted-queue depth the dispatcher would have tracked at pop
        ``i``, replaying its exact tie-breaks.

        A pop that finds the queue empty (the dispatcher was parked and a
        put woke it) samples 0.  Otherwise the sample counts the packets
        whose acceptance *dispatch entry* precedes the dispatcher's wake
        entry in the calendar: all accepts strictly before the pop, plus
        same-instant accepts whose triggering entry was pushed earlier
        than the dispatcher's (a blocked putter admitted inside the pop
        always is; a direct put ties on fill-entry vs wake-entry push
        time), minus the i+1 packets already consumed.
        """
        b = self._base
        li = i - b
        accept, pop, putc = self.accept, self.pop, self.putc
        if i == 0 or accept[li] >= putc[li - 1]:
            return 0
        tpop = pop[li]
        K = self.K
        ja = self._ja
        while ja < K and accept[ja - b] < tpop:
            ja += 1
        self._ja = ja
        n = ja
        attempt = pop[li - 1] + self.TS
        disp_push = attempt if putc[li - 1] > attempt else pop[li - 1]
        fill_done, fsl = self.fill_done, self.fs
        jb = ja
        while jb < K and accept[jb - b] == tpop:
            if accept[jb - b] > fill_done[jb - b] or fsl[jb - b] < disp_push:
                n += 1  # blocked putter admitted inside this pop / fill first
            jb += 1
        return n - (i + 1)

    # ------------------------------------------------------------------
    # Deferred sender-side effects
    # ------------------------------------------------------------------
    def _apply_until(self, T: float) -> None:
        """Apply every pipeline effect due strictly before ``T``."""
        b = self._base
        self._apply(b + bisect_left(self.fill_done, T),
                    b + bisect_left(self.putc, T),
                    self._bw + bisect_left(self.ss, T),
                    b + bisect_left(self.pop, T))

    def _apply(self, nf: int, nm: int, ns: int, nd: int) -> None:
        """Apply WC stats, mmio_writes, link TX stats and depth metric
        samples for the first ``nf`` fills, ``nm`` TX-queue puts, ``ns``
        serialization starts (window lines) and ``nd`` dispatcher pops
        (chronological per series, so live samples afterwards stay
        monotone)."""
        if nf > self._fills_applied:
            delta = nf - self._fills_applied
            wc = self.core.wc
            wc.fills += delta
            wc.full_flushes += delta
            self._fills_applied = nf
        if nm > self._mmio_applied:
            self.nb.counters.inc("mmio_writes", nm - self._mmio_applied)
            self._mmio_applied = nm
        if ns > self._ser_applied:
            delta = ns - self._ser_applied
            st = self.dir.stats
            st.packets += delta
            st.payload_bytes += CACHELINE * delta
            st.wire_bytes += self.wire_per_pkt * delta
            st.busy_ns += self.ser * delta
            self._ser_applied = ns
        if self.metrics_on and nd > self._depth_applied:
            m = self.nb._m
            name = self._depth_series
            pop, b = self.pop, self._base
            for i in range(self._depth_applied, nd):
                m.track(name, pop[i - b], self._depth_sample(i))
            self._depth_applied = nd

    def _retire(self, now: float) -> None:
        """Apply the effects due before ``now`` (a demotion at ``now`` cuts
        there too), then drop the schedule prefix no later append, effect
        or demotion can consult: lines off the wire before ``now`` whose
        destination commit has happened."""
        self._apply_until(now)
        b, bw = self._base, self._bw
        ss, SER = self.ss, self.ser
        kw = bw + len(ss)
        w = self._off_wire
        while w < kw and ss[w - bw] + SER < now:
            w += 1
        self._off_wire = w
        # The retire batch is the commit span's flush point too (only
        # commits strictly before now: one at this instant may still trail
        # a same-instant read).
        self._span.flush_until(now, -_INF)
        rw = min(w, self._span._flushed) - bw
        if self._ins:
            # Keep an inserted line until it is sent.
            r = b + min(self._posted(rw), bisect_left(self.putc, now))
        else:
            r = b + rw
        if self.metrics_on:
            # The next depth sample looks back one pop and scans accepts.
            r = min(r, self._depth_applied - 1, self._ja)
        n = r - b
        if n >= _RETIRE_BATCH:
            ins = self._ins
            k = bisect_left(ins, r)
            for g in ins[:k]:
                del self._insd[g]
            del ins[:k]
            self._capt_p -= k
            nw = n - k
            for lst in (self.fs, self.fill_done, self.accept, self.pop,
                        self.putc, self._offs, self._srcs):
                del lst[:n]
            del ss[:nw]
            self._base = b = r
            self._bw = bw + nw
        # Next look once another batch has been appended.
        self._retain_check = self.K - b + _RETIRE_BATCH

    def _wire(self, lp: int) -> int:
        """Window lines among the first ``lp`` retained posted lines."""
        if not self._ins:
            return lp
        return lp - bisect_left(self._ins, self._base + lp)

    def _posted(self, lw: int) -> int:
        """Retained posted index of retained window line ``lw`` (for
        ``lw == len(ss)``: of the next window line)."""
        b = self._base
        for g in self._ins:
            if g - b > lw:
                break
            lw += 1
        return lw

    # ------------------------------------------------------------------
    # Appending / completion
    # ------------------------------------------------------------------
    def admits(self, core, addr: int, nlines: int) -> bool:
        """True when a store of ``nlines`` full lines at ``addr`` by
        ``core`` extends this window: same core with its previous store
        retired (a second process storing through the core meanwhile is
        foreign traffic), same route range, route tables unchanged, WC
        streaming path open."""
        return (core is self.core and self._seen > self._last
                and self._lo <= addr
                and addr + nlines * CACHELINE <= self._hi
                and self.nb._route_table is self._src_tbl
                and self.dest_nb._route_table is self._dst_tbl
                and _wc_clear(core.wc, addr, nlines))

    def inserts(self, core, addr: int, nlines: int):
        """For a store :meth:`admits` refused: the plan to splice it in as
        one inserted slot, else None.

        That takes one full line by this window's core into a writable
        TCCluster window out of another local port whose direction is
        unclaimed (or claimed by this window's earlier inserted lines),
        ACTIVE, error-free and untraced, with room in its POSTED TX queue
        for them and this one (nothing else can fill that queue before
        the line's send without demoting the window first).  The core's
        own store may still be in flight (msglib's receiving process
        writes its feedback line while the sending process streams): the
        line then lands between that store's lines by acceptance instant,
        which must be unshared and unblocked so the core-side schedule
        stays as it is.
        """
        if nlines != 1 or core is not self.core:
            return None
        r = self.nb.route(addr)
        if (r.kind is not RouteKind.MMIO_LOCAL_LINK or not r.writable
                or r.dst_link == self.port):
            return None
        binding = core.chip.ports.get(r.dst_link)
        if binding is None:
            return None
        link = binding.link
        dirs = getattr(link, "_dirs", None)
        if (dirs is None or link.state != LinkState.ACTIVE or link.ber > 0
                or link.tracer.enabled):
            return None
        d = dirs[binding.side]
        q = d.txq[VirtualChannel.POSTED]
        if (d._flow is not None or q._putters
                or not _wc_clear(core.wc, addr, 1)):
            return None
        if d._train is None:
            queued = 0
        elif d._train is self:
            queued = self._unsent(d)  # sent ahead of this one
        else:
            return None
        if q.capacity is not None and (len(q._items) + queued
                                       + (q._live_phantoms() if q._phantom
                                          else 0)) >= q.capacity:
            return None
        accept, putc = self.accept, self.putc
        n = len(putc)
        if n >= self.capq:
            return None  # the posted queue could block a line
        a = self.sim._now + self.F
        k = bisect_left(accept, a)
        if k < n and accept[k] == a:
            return None  # same-instant acceptance: its order is unknown
        if self._ins and self._ins[-1] >= self._base + k:
            return None  # only the core's store in flight may shift
        p = putc[k - 1] if k and putc[k - 1] > a else a
        return r.dst_link, d, k, p

    def feed(self, addr: int, data, nlines: int):
        """Append the store's ``nlines`` full lines and wait for the last
        one's acceptance, as the per-packet core would.

        Generator driven from ``CpuCore._store_wc`` via ``yield from``;
        returns the number of bytes fully handled (clean: all lines;
        demotion: everything up to and including the in-flight line,
        finished here exactly as the per-packet core would)."""
        sim = self.sim
        now = sim._now
        first = self._first = self.K
        if first - self._base >= self._retain_check:
            self._retire(now)
        # Lines share their store's buffer: (span, origin) maps a line's
        # destination offset back to its bytes without a per-line slice.
        off0 = addr + self._off_delta
        src = (memoryview(data), off0)
        self._extend(now, off0, src, nlines)
        nb = self.nb
        # All entries are speculative (a demotion revokes whatever part of
        # the precomputed future did not happen), so push them cancellable:
        # a guarded no-op would still drag the clock out to t_end when an
        # interrupt makes the calendar drain early.
        self.wake = Event(sim, name=self._wake_name)
        ss, b = self.ss, self._base
        # The core's entries are pushed where the per-packet core pushes
        # its fill sleeps, so each keeps that entry's seq slot within its
        # instant: a single line resumes at its acceptance; a multi-line
        # store first relays at its first line's fill end (a same-instant
        # foreign submit must see that line submitted exactly when the
        # per-packet core's entry ran first), then at its last fill start.
        if nlines == 1:
            self._arm_core(self.t_end, self._complete, first)
        else:
            self._arm_core(self.fill_done[first - b], self._relay, first)
        off = self._mcw_off
        self._span.append([s + off for s in ss[-nlines:]],
                          self._offs[first - b:], self._srcs[first - b:])
        if self._finalize_seq is None:
            self._finalize_seq = sim._push_cancellable(
                self.t_final, self._finalize, None)
        try:
            yield self.wake
        except Interrupt:
            if not self.done:
                self.abort(sim.now)
            raise
        if not self.aborted:
            return nlines * CACHELINE
        f = self.resume_fills
        # Lines inserted among this store's are not its bytes; one taken
        # out again before it moved the store's lines down.
        first = self._first
        ins = self._ins
        f_own = f - bisect_left(ins, f) + bisect_left(ins, first)
        if self.resume_put is not None:
            # Line f-1 was submitted but not yet accepted; wait out the
            # acceptance like the per-packet core.
            yield self.resume_put
            return (f_own - first) * CACHELINE
        if f > self._last:
            return nlines * CACHELINE
        # Mid-fill of line f at the abort instant: finish the fill, then
        # combine and submit that one line (its fill sleep already ran).
        lf = f - self._base
        remaining = self.fill_done[lf] - sim.now
        if remaining > 0:
            yield remaining
        o = self._offs[lf]
        for op in self.core.wc.store(o - self._off_delta,
                                     self._line_data(lf)):
            ev = nb.submit_posted(op.addr, op.data, op.mask)
            if ev is not None:
                yield ev
        return (f_own - first + 1) * CACHELINE

    def insert(self, addr: int, data, plan):
        """Splice a one-line store in as an inserted slot (``plan`` from
        :meth:`inserts`) and wait for its acceptance; generator driven
        like :meth:`feed`, returning the bytes handled.

        Its core entry is pushed here, where the per-packet core pushes
        the line's fill sleep, and stands for that fill end.  A demotion
        before it fires takes the line out of the window again; the line
        is then submitted per packet from that entry."""
        sim = self.sim
        off = addr + self._off_delta
        rec = self._insert(sim._now, off, (memoryview(data), off), plan)
        rec.wake = Event(sim, name=self._wake_name)
        rec.done_seq = sim._push_cancellable(rec.accept, self._ins_accept,
                                             (rec,))
        if self._finalize_seq is None:
            self._finalize_seq = sim._push_cancellable(
                self.t_final, self._finalize, None)
        try:
            yield rec.wake
        except Interrupt:
            # The fill is abandoned: the line never existed.
            if rec.done_seq is not None:
                sim._cancel(rec.done_seq)
            if not self.done:
                self.abort(sim.now)
            raise
        if rec.removed:
            for op in self.core.wc.store(addr, data):
                ev = self.nb.submit_posted(op.addr, op.data, op.mask, rec.fs)
                if ev is not None:
                    yield ev
        return CACHELINE

    def _unsent(self, d=None) -> int:
        """Inserted lines not yet sent (into link direction ``d``)."""
        return sum(1 for rec in self._insd.values()
                   if rec.seq is not None and (d is None or rec.dir is d))

    def _ins_accept(self, rec: "_Insert") -> None:
        """An inserted line's fill end: unblocked, it is accepted here."""
        rec.done_seq = None
        if rec.removed:
            rec.wake._succeed_inline()
            return
        rec.accepted = True
        self._resuming = rec.fs
        try:
            rec.wake._succeed_inline()
        finally:
            self._resuming = False

    def _line_data(self, li: int):
        o = self._offs[li]
        mv, origin = self._srcs[li]
        k = o - origin
        return mv[k:k + CACHELINE]

    def _arm_core(self, at: float, fn, slot: Optional[int]) -> None:
        self._pend_at = at
        self._pend_slot = slot
        self._complete_seq = self.sim._push_cancellable(at, fn, None)

    def _relay(self, _=None) -> None:
        """A multi-line store's core entry before its last line: at the
        fill end of the line whose slot it holds, the per-packet core
        submits that line here and starts the next fill."""
        if self.aborted:
            self._complete()  # kept by the demotion as the core's fill end
            return
        b = self._base
        now = self.sim._now
        i = self._pend_slot
        if i is not None and self.fill_done[i - b] == now:
            self._filled = i + 1
        last = self._last
        if self.fs[last - b] <= now:
            self._arm_core(self.t_end, self._complete, last)
        else:
            if i is not None:
                i += 1
                while i in self._insd:
                    i += 1  # the store's next line
                if self.fs[i - b] != now:
                    i = None
            self._arm_core(self.fs[last - b], self._relay, i)

    def _complete(self, _=None) -> None:
        self._complete_seq = None
        if not self.aborted:
            self._seen = self._last + 1
        self._resuming = True
        try:
            self.wake._succeed_inline()
        finally:
            self._resuming = False

    def _finalize(self, _=None) -> None:
        """Close the window at its last receive-side commit."""
        self._finalize_seq = None
        if self.done:
            return
        if self.t_final > self.sim._now:
            # The window grew since this entry was pushed: follow it.
            self._finalize_seq = self.sim._push_cancellable(
                self.t_final, self._finalize, None)
            return
        if self._unsent():
            return  # an inserted line's send at this instant closes it
        self._span.seal()
        self._close()

    def _ins_pop(self, g: int) -> None:
        """The dispatcher pops inserted line ``g``: its crossbar step's
        end goes on the calendar here, as the per-packet dispatcher
        pushes it."""
        self._insd[g].seq = self.sim._push_cancellable(
            self.sim._now + self.TS, self._ins_send, (g,))

    def _ins_send(self, g: int) -> None:
        """Inserted line ``g`` leaves the crossbar: one real send on its
        own port, whose TX queue has room (its mmio_writes count is a
        deferred effect like the window's)."""
        rec = self._insd[g]
        rec.seq = None
        self._sent_mark = g + 1
        d = rec.dir
        d._train = None  # the window's own send, not a foreign one
        ev = self.nb._send_on_port_fast(
            rec.port, self._make_pkt(g - self._base, coherent=False))
        assert ev is None, "train invariant: inserted slot's TX queue has room"
        if self._unsent(d):
            d._train = self
        if (self._finalize_seq is None and self.t_final <= self.sim._now
                and not self._unsent()):
            self._finalize()

    def _close(self) -> None:
        self.done = True
        self._count_lines()
        self._apply_until(_INF)
        self._unhook()

    def _count_lines(self) -> None:
        self.nb.counters.inc("train_lines", self.K)
        if self.metrics_on:
            self.nb._m.inc("train.lines", self.K)

    def _unhook(self) -> None:
        if self.nb._train is self:
            self.nb._train = None
        if self.dir._train is self:
            self.dir._train = None
        for rec in self._insd.values():
            if rec.seq is not None:
                self.sim._cancel(rec.seq)
                rec.seq = None
            if rec.dir._train is self:
                rec.dir._train = None

    # ------------------------------------------------------------------
    # Demotion
    # ------------------------------------------------------------------
    def _make_pkt(self, li: int, coherent: bool):
        pkt = self.nb._pool.posted_write(
            self._offs[li] - self._off_delta, self._line_data(li),
            unitid=self.nb.nodeid, coherent=coherent)
        pkt.inject_time = self.fill_done[li]
        return pkt

    def abort(self, T: float, pushed: float = -_INF) -> None:
        """Demote at virtual time ``T``: reconstruct the exact per-packet
        state and hand every queue back to the live processes.  ``pushed``
        is the push instant of the aborting calendar entry, where known.

        Cuts are strict-< (the triggering foreign action has not yet
        mutated anything), except for what the core already observed:
        an acceptance at ``T`` that resumed the core happened, and so did
        the same-instant pop, put and serialization start that caused it.
        Works whether the core waits on a store or sits between stores.
        Posted-queue counts include inserted lines; ``nser`` and the TX
        queue count the window's own lines.
        """
        if self.done:
            return
        self.done = True
        self.aborted = True
        self._unhook()
        self._drop_unaccepted()
        self._count_lines()
        self.nb.counters.inc("train_demotions")
        if self.metrics_on:
            self.nb._m.inc("train.demotions")
        sim = self.sim
        b = self._base
        accept, fill_done, pop, putc, ss = (self.accept, self.fill_done,
                                            self.pop, self.putc, self.ss)
        TS, SER = self.TS, self.ser
        n = len(pop)
        f = bisect_left(fill_done, T)     # WC fills done
        m = bisect_left(accept, T)        # packets in the posted queue ever
        if m < n and accept[m] == T and b + m in self._insd:
            # An inserted line whose acceptance entry ran before this one.
            m += 1
            f = max(f, m)
        npop = bisect_left(pop, T)        # packets popped by the dispatcher
        # packets accepted into a TX queue (an inserted line sent at T
        # included: its entry ran before this one)
        nput = max(bisect_left(putc, T), self._sent_mark - b)
        nser = bisect_left(ss, T)         # packets whose serialization began
        seen = self._seen - b
        if m < seen:
            m = seen
            f = max(f, seen)
            j = m - 1
            if accept[j] > fill_done[j]:
                # A blocked line is admitted by the pop freeing its slot.
                npop = max(npop, j - self.capq + 1)
        # Push instant of the triggering calendar entry, where known: the
        # core's own completion entry went on the calendar at the store's
        # last fill start.
        P = self._resuming
        if P is True:
            P = self.fs[self._last - b]
        elif P is False:
            P = pushed
        filled = self._filled - b
        if (f < n and fill_done[f] == T and self.fs[f] < P
                and b + f not in self._insd):
            # The core's fill-end entry for this line went on the
            # calendar before the aborting one, so it ran first.
            filled = max(filled, f + 1)
        if f < filled:
            # The core's relay ran at this line's fill end before the
            # aborting entry: the line was submitted (and, unblocked,
            # accepted) there.
            f = filled
            if m < f and accept[f - 1] == fill_done[f - 1]:
                m = f
        npop, nput, nser = self._same_instant_cuts(T, P, m, npop, nput,
                                                   nser)
        self.cut = self._bw + nser
        # Revoke the speculative future (the core's completion entry is
        # settled below).  The packets that left before the cut still
        # commit from the span, which now ends there.
        if self._finalize_seq is not None:
            sim._cancel(self._finalize_seq)
            self._finalize_seq = None
        self._span.truncate(self.cut)
        self._apply(b + f, b + nput, self.cut, b + npop)
        self.resume_fills = b + f

        # --- link direction: canonical non-burst state --------------------
        d = self.dir
        txq = d.txq[VirtualChannel.POSTED]
        ss_end = ss[nser - 1] + SER if nser else T
        rx_free = ss[nser - 1] + self._mcw_off if nser else T
        if rx_free > T and d.rx._getters:
            # The destination's receive loop is still converting the last
            # packet that left before T: packets sent after the demotion
            # must queue behind it, so hold its getter until then.
            self._rx_getter = d.rx._getters.popleft()
            self._rx_seq = sim._push_cancellable(rx_free, self._release_rx,
                                                 None)
        wput = self._wire(nput)
        for j in range(nser, wput):
            txq._items.append(self._make_pkt(self._posted(j), coherent=False))
        if nser < wput or ss_end > T:
            # The per-packet pump is asleep serializing packet nser-1 and
            # pops the next one only at ss_end (a refill nonempty implies
            # the serializer is busy until then): hold its getter so it
            # wakes exactly there.
            self._pump_wake = txq._getters.popleft()

        if npop > nput:
            # Dispatcher mid-flight on packet npop-1: steal its parked
            # getter; the packet's handling is finished here and the
            # getter handed back to the real loop afterwards.
            self._disp_wake = self.nb.posted_q._getters.popleft()
            p = npop - 1
            if pop[p] + TS <= T:
                # The dispatcher's send() happened before T and blocked on
                # the TX queue; its putter must precede any foreign put at
                # T (FIFO), and it resumes where the admission wakes it.
                q = self._via(p)[1].txq[VirtualChannel.POSTED]
                q.put(self._make_pkt(p, coherent=False)).add_callback(
                    self._disp_sent)

        # --- posted queue -------------------------------------------------
        pq = self.nb.posted_q
        for i in range(npop, m):
            pq._items.append(self._make_pkt(i, coherent=True))
        self.resume_put = None
        if f == m + 1:
            # Line m submitted (fill ended before T) but not yet accepted:
            # queue its putter now, ahead of the aborting foreign action.
            self.resume_put = pq.put(self._make_pkt(m, coherent=True))

        # --- re-create the live calendar entries --------------------------
        # Seq order within a timestamp is push order, so entries that
        # collide at the same future instant must be pushed here in the
        # same relative order the per-packet run pushed them: the pump's
        # serialization sleep went on the calendar at ss[nser-1], the
        # dispatcher's crossbar sleep at pop[npop-1], and the core's
        # fill sleep at fs[f] (or, blocked, at its last acceptance).
        entries = []
        if nser and ss_end > T:
            took = d.phy.try_acquire()
            assert took, "train invariant: phy idle during window"
            entries.append((ss[nser - 1], 0, ss_end,
                            lambda: sim._push(ss_end, self._phy_release,
                                              None)))
        elif self._pump_wake is not None:
            self._resume_pump()
        if npop > nput and pop[npop - 1] + TS > T:
            p = npop - 1
            entries.append((pop[p], 1, pop[p] + TS,
                            lambda: sim._push(pop[p] + TS, self._disp_send,
                                              (p,))))
        if not self.wake._triggered:
            key = self.fs[f] if f < n else accept[f - 1]
            # A core mid-fill on line f keeps its pending entry if that
            # entry holds line f's seq slot: moved to the fill end, it sits
            # exactly where the per-packet core's fill-end entry would
            # (same instant, same push order) -- unless a re-created entry
            # pushed earlier collides with it.
            keep = (self._pend_slot == b + f and f == m and f < n
                    and self._complete_seq is not None
                    and not any(at == fill_done[f] and k <= key
                                for k, _, at, _ in entries))
            if keep and self._pend_at != fill_done[f]:
                sim._retime(self._complete_seq, fill_done[f])
            if not keep:
                if self._complete_seq is not None:
                    sim._cancel(self._complete_seq)
                    self._complete_seq = None
                if f == m and f < n:
                    # Mid-fill: the fill-end entry goes on the calendar
                    # now, ahead of anything the aborting action pushes.
                    fd = fill_done[f]
                    entries.append((key, 2, fd, lambda: self._arm_core(
                        fd, self._complete, None)))
                else:
                    entries.append((key, 2, T, self.wake.succeed))
        entries.sort(key=lambda e: (e[0], e[1]))
        for _, _, _, push in entries:
            push()

    def _drop_unaccepted(self) -> None:
        """Take the inserted lines whose fill has not ended out of the
        schedule: per packet they were never submitted, and their own
        core entries submit them.  Every later line is accepted after
        them, so the shifts they caused lie past the cut."""
        b, ins = self._base, self._ins
        while ins and not self._insd[ins[-1]].accepted:
            g = ins.pop()
            self._insd.pop(g).removed = True
            li = g - b
            for lst in (self.fs, self.fill_done, self.accept, self.pop,
                        self.putc, self._offs, self._srcs):
                del lst[li]
            self.K -= 1
            if self._pend_slot is not None and self._pend_slot > g:
                self._pend_slot -= 1
            if self._first > g:
                self._first -= 1
            if self._last > g:
                self._last -= 1

    def _same_instant_cuts(self, T, P, m, npop, nput, nser):
        """Extend the strict-< cuts by the pipeline steps at exactly ``T``
        that precede the aborting entry, pushed at ``P``.

        A step that happened drags its same-instant causes along (a pop
        follows the previous put, a put blocked on a full TX queue
        follows the pump's take).  Every dispatcher or pump step at ``T``
        whose calendar entry the per-packet run pushed before ``P``
        happened too.
        """
        pop, putc, ss = self.pop, self.putc, self.ss
        TS, SER, CAPT = self.TS, self.ser, self.capt
        n = len(pop)
        b, via = self._base, self._insd
        while True:
            wput = self._wire(nput)  # window lines among the puts
            if nput < npop - 1 and putc[npop - 2] == T:
                nput = npop - 1  # a pop at T follows the previous put
            elif (nser + CAPT < wput and putc[nput - 1] == T
                  and b + nput - 1 not in via
                  and ss[wput - 1 - CAPT] == T):
                nser = wput - CAPT  # a TX-blocked put follows the take
            elif (nput < npop and putc[nput] == T
                  and pop[nput] + TS == T and pop[nput] < P
                  and b + nput not in via and wput - CAPT < nser):
                nput += 1  # the dispatcher's crossbar sleep ended first
            elif (nser < wput and ss[nser] == T and nser
                  and ss[nser - 1] + SER == T and ss[nser - 1] < P):
                nser += 1  # the pump's serialization sleep ended first
            elif (npop < m and npop < n and pop[npop] == T and npop
                  and putc[npop - 1] == T and npop - 1 < nput
                  and (b + npop - 1 < self._sent_mark
                       if b + npop - 1 in via else pop[npop - 1] < P)):
                npop += 1  # ...and the dispatcher popped the next inline
            else:
                return npop, nput, nser

    def _release_rx(self, _=None) -> None:
        self._rx_seq = None
        rx = self.dir.rx
        rx._getters.appendleft(self._rx_getter)
        self._rx_getter = None
        rx._wake_getter()

    def _phy_release(self, _=None) -> None:
        d = self.dir
        d.phy.release()
        link = d.link
        if link.state != LinkState.ACTIVE:
            # The link died mid-serialization: NAK the packet back to the
            # head of its TX queue and park until retrain, exactly as the
            # per-packet pump does.
            self._nak_in_flight()
            link.up_gate.wait().add_callback(self._resume_pump)
            return
        self._resume_pump()

    def _nak_in_flight(self) -> None:
        sim = self.sim
        self.cut -= 1
        i = self.cut
        li = i - self._bw
        self._span.truncate(i)
        if self._rx_seq is not None:
            # The receiver only ever sees the packets before this one.
            sim._cancel(self._rx_seq)
            free = self.ss[li - 1] + self._mcw_off if li else sim._now
            if free > sim._now:
                self._rx_seq = sim._push_cancellable(free, self._release_rx,
                                                     None)
            else:
                self._release_rx()
        d = self.dir
        st = d.stats
        st.packets -= 1
        st.payload_bytes -= CACHELINE
        st.wire_bytes -= self.wire_per_pkt
        st.naks += 1
        fault_counters(sim).link_naks += 1
        d.txq[VirtualChannel.POSTED].unget(
            self._make_pkt(self._posted(li), coherent=False))

    def _resume_pump(self, _=None) -> None:
        ev = self._pump_wake
        self._pump_wake = None
        txq = self.dir.txq[VirtualChannel.POSTED]
        if txq._items:
            # Replicate try_get exactly: pop, admit a blocked putter, then
            # resume the pump *synchronously* -- the per-packet pump pops
            # and acts within a single dispatch, so a lazy succeed() would
            # shift its actions one seq later and lose same-instant
            # tie-breaks against other calendar entries.
            item = txq._items.popleft()
            if txq._putters:
                txq._admit_putter()
            ev._succeed_inline(item)
        else:
            txq._getters.append(ev)

    def _via(self, li: int):
        """``(port, direction)`` posted line ``li`` leaves by."""
        rec = self._insd.get(self._base + li)
        return (self.port, self.dir) if rec is None else (rec.port, rec.dir)

    def _disp_send(self, p: int) -> None:
        """The dispatcher's crossbar sleep for packet ``p`` (local index)
        ends: send it exactly as the real loop would."""
        pkt = self._make_pkt(p, coherent=False)
        try:
            ev = self.nb._send_on_port_fast(self._via(p)[0], pkt)
        except LinkDownError:
            # Same contract as the per-packet dispatcher: a link that died
            # between the demotion and this send parks the packet on the
            # fault path (retrain wait / reroute).
            self.sim.process(self._disp_fault(pkt),
                             name=f"{self.nb.name}.train_demote")
            return
        if ev is not None:
            ev.add_callback(self._disp_sent)
        else:
            self._disp_sent()

    def _disp_fault(self, pkt):
        yield from self.nb._forward_fault(pkt)
        self._disp_sent()

    def _disp_sent(self, _=None) -> None:
        """The in-flight packet reached the TX queue: count it and hand
        the stolen getter back to the real dispatcher loop."""
        self.nb.counters.inc("mmio_writes")
        ev = self._disp_wake
        self._disp_wake = None
        pq = self.nb.posted_q
        if pq._items:
            # Same-dispatch handback (see _resume_pump): the per-packet
            # dispatcher pops and samples its depth metric inside the very
            # dispatch that finished the previous packet's send, so the
            # real loop must resume inline, before any same-instant core
            # fill-end entry submits the next line.
            item = pq._items.popleft()
            if pq._putters:
                pq._admit_putter()
            ev._succeed_inline(item)
        else:
            pq._getters.append(ev)
