"""Flow-level adaptive fidelity: macro events for the remaining traffic
classes.

:mod:`repro.opteron.train` proved the macro-event pattern for one traffic
class -- uncontended WC line stores -- by replacing the per-packet
pipeline with a closed-form schedule plus an *exact demotion* path that
reconstructs per-packet state at an arbitrary instant.  This module
generalizes the pattern to the classes that still ran packet by packet:

* **msglib ring slot traffic** (:func:`plan_eager_span`): an uncontended
  run of eager ring-slot writes is coalesced into one contiguous
  multi-line store, which then rides a WC stream window in one append.
  The coalescing itself is *virtual-time neutral by construction*: the
  per-slot path issues back-to-back 64-byte WC stores with zero virtual
  time between the store calls, so a single span store walks the same
  fill/stream schedule line for line.  Exact per-slot timestamps on
  demotion therefore come for free -- the train's own abort replays the
  identical per-line instants.

* **read/response chains** (:class:`ReadFlow`): a run of same-route
  remote reads through one quiescent link is collapsed to two calendar
  entries per read (the DRAM issue instant and the response-complete
  instant) instead of the ~10-entry request/response pipeline.  The
  destination memory controller is still *really* called at the exact
  per-packet issue instant, so port arbitration against unrelated local
  traffic (receive-side polling!) stays exact.

Contract (DESIGN.md section 12): a flow may only *promote* while every
queue, credit pool and resource it would bypass is quiescent and
deterministic; any foreign interaction -- a send on an owned link
direction, a fault injection, a BER/rate change, a link state change --
must *demote* the flow first, reconstructing bit-identical per-packet
state at the demotion instant.  Flows change wall-clock cost, never
virtual time; they engage with ``SimFeatures.fidelity = "macro"`` (the
default), and ``"packet"`` gives the per-packet reference.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

__all__ = ["plan_eager_span", "CommitSpan", "ReadFlow"]

_INF = float("inf")

#: A commit span drops its flushed prefix in batches of at least this
#: many lines (one list memmove per batch instead of one per append).
_PRUNE_BATCH = 32


# ---------------------------------------------------------------------------
# msglib ring slot traffic: span coalescing
# ---------------------------------------------------------------------------

def plan_eager_span(seq0: int, nslots: int, free_slots: int,
                    data: bytes, pos: int, remaining: int,
                    pack_slot, slot_payload: int
                    ) -> Optional[Tuple[int, bytes, List[int]]]:
    """Plan the largest coalescible run of eager ring slots.

    Returns ``(n, span, chunk_lens)`` -- the number of slots, the packed
    ``n * 64``-byte contiguous slot image starting at ``seq0``'s ring
    address, and each slot's payload length -- or ``None`` when no run of
    at least two slots is possible.  The run is bounded by the message's
    remaining payload, by the transmit window (``free_slots``, sampled
    once: acknowledgements only ever *grow* the window, so a run that
    fits now also fits slot by slot), and by the ring wrap (slots are
    contiguous in memory only up to the ring's end).

    Pure planning: no simulation state is touched.  The caller stores the
    span through the ordinary WC path, which is schedule-identical to the
    per-slot stores it replaces (see the module docstring) and feeds a
    WC stream window as one multi-line store.
    """
    msg_slots = (remaining + slot_payload - 1) // slot_payload
    run = nslots - ((seq0 - 1) % nslots)   # contiguity ends at the wrap
    n = min(msg_slots, free_slots, run)
    if n < 2:
        return None
    parts = []
    chunk_lens = []
    rem = remaining
    p = pos
    for i in range(n):
        chunk = data[p : p + slot_payload]
        parts.append(pack_slot(seq0 + i, rem, chunk))
        chunk_lens.append(len(chunk))
        p += len(chunk)
        rem -= len(chunk)
    return n, b"".join(parts), chunk_lens


# ---------------------------------------------------------------------------
# Destination-side commit spans
# ---------------------------------------------------------------------------

class CommitSpan:
    """Arithmetic destination commits of a train's lines.

    Per packet, each line costs two calendar entries on the destination
    side: the receive loop's ``write_posted`` at the arrival instant and
    the memory controller's own commit entry.  A ``CommitSpan`` replaces
    both for every line of a :class:`~repro.opteron.train.BulkTrain`.  The
    train appends each store's arrival schedule to it (:meth:`append`; a
    stream window grows store by store), and the span keeps three
    lazily-advanced cursors over global line numbers:

    * ``_applied``  -- arrivals folded into the controller's FCFS port
      arithmetic.  The controller calls :meth:`sync_to` before serving
      any foreign request, so interleaved claims (the receiver's polling
      loads!) see exactly the ``busy_until`` evolution the per-packet
      run produces, and span commit times pick up exactly the delays
      foreign occupancy would have imposed.
    * ``_flushed``  -- commits whose DRAM content, ``writes`` accounting
      and doorbell rings have been applied.  Flushing happens at
      observation points only, in batches: a foreign commit, a direct
      sample, a doorbell wake, the owner's retire batch, demotion, or
      the span's finalize entry.  An append only records the schedule.
    * deferred doorbell rings -- the span registers as a *provider* on
      every watched doorbell overlapping its range, so ``Doorbell.count``
      reads fold in rings that exist arithmetically, and a calendar
      entry is spent only when a consumer actually parks (:meth:`arm`).

    Flushed lines are dropped in batches, so a long stream holds only its
    in-flight lines.

    Exactness contract: every externally observable quantity -- port
    claim times, memory contents at read-commit instants, doorbell
    counts and wake times, ``writes``/``rx_writes`` totals at any
    quiescent point -- matches the per-packet run.  On demotion
    (:meth:`truncate`) the span keeps the lines whose packets left before
    the cut and drops the rest, which the per-packet plane then carries.
    """

    __slots__ = ("sim", "mc", "dest_nb", "offs", "srcs", "times", "K",
                 "_base", "line", "occ", "_lat", "_c", "_applied",
                 "_flushed", "_recs", "_entries", "_fin_seq", "_fin_pushed",
                 "_detached")

    def __init__(self, sim, mc, dest_nb, line, base):
        self.sim = sim
        self.mc = mc
        self.dest_nb = dest_nb
        # Per-line series, indexed by global line number minus _base.
        self.offs = []                # destination DRAM offsets
        self.srcs = []                # (memoryview, offset origin) per line
        self.times = []               # exact per-line write_posted instants
        self._c = []                  # commit instants, filled as applied
        self._base = base
        self.K = base
        self.line = line
        self.occ = mc._occupancy_ns(line)
        self._lat = mc.timing.dram_write_ns
        self._applied = base
        self._flushed = base
        #: (doorbell, sorted overlapping global line numbers) per watch.
        self._recs = []
        #: doorbell -> (entry seq, target line, push instant)
        self._entries = {}
        self._fin_seq = None
        self._fin_pushed = 0.0
        self._detached = False
        mc._spans.append(self)

    def append(self, times, offs, srcs) -> None:
        """Extend the arrival schedule (causal: no new arrival precedes
        an existing one).  A line's bytes are ``mv[off - origin:][:line]``
        for its ``(mv, origin)`` source.

        Pure bookkeeping: nothing is applied or flushed here -- that waits
        for an observation point (the owner's retire batches bound the
        backlog, and :meth:`seal` ends the span)."""
        i0 = self.K
        self.times += times
        self.offs += offs
        self.srcs += srcs
        self.K += len(times)
        line = self.line
        for lo, hi, db in self.mc._watches:
            idxs = [i0 + j for j, o in enumerate(offs)
                    if o < hi and o + line > lo]
            if not idxs:
                continue
            for d, existing in self._recs:
                if d is db:
                    existing += idxs
                    break
            else:
                self._recs.append((db, idxs))
                db._providers.append(self)
            # A consumer parked before these lines existed (the usual
            # receive pattern: park first, traffic arrives later) would
            # never hit the park-time arming hook -- arm for it now.
            if db._waiters:
                self.arm(db)

    def retime(self, n: int, times) -> None:
        """The owner moved the arrivals of lines from global line ``n`` on
        later (a line inserted ahead of them); none has arrived yet.  A
        ring entry armed for one now fires early and re-arms."""
        k = n - self._base
        self.times[k:] = times

    def seal(self) -> None:
        """The owner appends no more: one entry now holds the calendar
        open to the last commit (the per-packet run's final
        ``_commit_write`` entry), re-armed while foreign port occupancy
        pushes that commit later."""
        self._arm_finalize()

    def truncate(self, n: int) -> None:
        """The owner demoted: only lines before global line ``n`` (their
        packets left before the cut) are still its to commit.  Drop the
        rest and seal; a span with nothing left to commit detaches.

        No dropped line has arrived yet, so none is in the port
        arithmetic; a ring entry armed for one is revoked.
        """
        if n < self.K:
            k = n - self._base
            del self.times[k:], self.offs[k:], self.srcs[k:]
            self.K = n
            for _db, idxs in self._recs:
                del idxs[bisect_left(idxs, n):]
            for db, (seq, target, _p) in list(self._entries.items()):
                if target >= n:
                    self.sim._cancel(seq)
                    del self._entries[db]
        if self._fin_seq is not None:
            self.sim._cancel(self._fin_seq)
            self._fin_seq = None
        if self._flushed >= self.K:
            self._close()
        else:
            self.seal()

    def _prune(self) -> None:
        n = self._flushed - self._base
        if n < _PRUNE_BATCH:
            return
        del self.offs[:n], self.srcs[:n], self.times[:n], self._c[:n]
        self._base = f = self._flushed
        for _db, idxs in self._recs:
            del idxs[:bisect_left(idxs, f)]

    # -- port arithmetic ----------------------------------------------------
    def next_arrival(self) -> float:
        a = self._applied
        return self.times[a - self._base] if a < self.K else _INF

    def apply_one(self) -> None:
        """Fold the next arrival into the controller's port FCFS state."""
        a = self.times[self._applied - self._base]
        mc = self.mc
        b = mc._busy_until
        start = b if b > a else a
        mc._busy_until = end = start + self.occ
        self._c.append(end + self._lat)
        self._applied += 1
        self.dest_nb.counters.inc("rx_writes")

    def sync_to(self, now: float) -> None:
        """Fold every arrival due by ``now`` into the port FCFS state
        (:meth:`apply_one` in a loop, with the cursor state in locals)."""
        base = self._base
        i = j = self._applied - base
        times = self.times
        n = self.K - base
        if j >= n or times[j] > now:
            return
        mc = self.mc
        b = mc._busy_until
        occ, lat, c = self.occ, self._lat, self._c
        while j < n:
            a = times[j]
            if a > now:
                break
            b = (b if b > a else a) + occ
            c.append(b + lat)
            j += 1
        mc._busy_until = b
        self._applied = base + j
        self.dest_nb.counters.inc("rx_writes", j - i)

    def _estimate(self, j: int) -> float:
        """Earliest possible commit instant of line ``j`` (exact once the
        arrival is applied; a lower bound before -- foreign claims only
        ever push commits later, so an early entry re-arms, never a late
        one fires after the fact)."""
        base = self._base
        if j < self._applied:
            return self._c[j - base]
        b = self.mc._busy_until
        for i in range(self._applied, j + 1):
            a = self.times[i - base]
            b = (b if b > a else a) + self.occ
        return b + self._lat

    # -- content / accounting flush -----------------------------------------
    def _rings(self, idxs, n: int) -> int:
        return bisect_left(idxs, n)

    def flush_until(self, now: float, claimed: float = _INF) -> None:
        """Apply content, accounting and rings of every commit due by
        ``now``; one committing exactly at ``now`` only if it claimed the
        port at or before ``claimed`` (a same-instant read that claimed
        first commits, and samples memory, ahead of it)."""
        self.sync_to(now)
        base = self._base
        c = self._c
        k = bisect_left(c, now)
        if k < len(c) and c[k] == now and self.times[k] <= claimed:
            k += 1
        n = base + k
        f = self._flushed
        if n <= f:
            return
        mc = self.mc
        offs, srcs, line = self.offs, self.srcs, self.line
        i = f - base
        end = n - base
        while i < end:
            # One write per run of lines from the same store buffer.
            src = srcs[i]
            o = offs[i]
            j = i + 1
            while j < end and srcs[j] is src and offs[j] == o + (j - i) * line:
                j += 1
            mv, origin = src
            k = o - origin
            mc.memory.write_span(o, mv[k:k + (j - i) * line])
            i = j
        mc.writes += n - f
        mc.bytes_written += (n - f) * line
        for db, idxs in self._recs:
            db._count += self._rings(idxs, n) - self._rings(idxs, f)
        self._flushed = n
        self._prune()

    # -- dynamic watch registration -----------------------------------------
    def add_watch(self, lo: int, hi: int, db, now: float) -> None:
        """A watch appeared mid-span (the receive path registers lazily on
        first park).  Per-packet semantics: only commits *after* the
        registration instant ring -- commits due by ``now`` were already
        observable (and are flushed here for good measure)."""
        self.sync_to(now)
        self.flush_until(now)
        base, line, offs = self._base, self.line, self.offs
        idxs = [i for i in range(self._flushed, self.K)
                if offs[i - base] < hi and offs[i - base] + line > lo]
        if not idxs:
            return
        for d, existing in self._recs:
            if d is db:
                merged = sorted(set(existing) | set(idxs))
                existing[:] = merged
                break
        else:
            self._recs.append((db, idxs))
            db._providers.append(self)
        if db._waiters:
            self.arm(db)

    def remove_watch(self, db) -> None:
        ent = self._entries.pop(db, None)
        if ent is not None:
            self.sim._cancel(ent[0])
        for i, (d, _idxs) in enumerate(self._recs):
            if d is db:
                del self._recs[i]
                db._providers.remove(self)
                return

    # -- doorbell provider protocol -----------------------------------------
    def pending_rings(self, db, now: float) -> int:
        self.sync_to(now)
        n = self._base + bisect_right(self._c, now)
        for d, idxs in self._recs:
            if d is db:
                return self._rings(idxs, n) - self._rings(idxs, self._flushed)
        return 0

    def arm(self, db) -> None:
        """A consumer parked on ``db``: spend a calendar entry at the
        next overlapping commit instant so the wake is not lost."""
        if db in self._entries:
            return
        for d, idxs in self._recs:
            if d is db:
                k = self._rings(idxs, self._flushed)
                if k >= len(idxs):
                    return
                sim = self.sim
                seq = sim._push_cancellable(
                    self._estimate(idxs[k]), self._ring_fire, (db,))
                self._entries[db] = (seq, idxs[k], sim._now)
                return

    def _ring_fire(self, db) -> None:
        """The armed commit's instant.  The entry stands in for that
        commit's per-packet entry, pushed at its arrival: a commit at this
        very instant counts only if it arrived no later than this entry
        was pushed -- otherwise the per-packet entry would run after
        everything already queued here (a read claimed first included),
        so re-arm behind them."""
        _, target, pushed = self._entries.pop(db)
        self.flush_until(self.sim._now, pushed)
        if not db._waiters:
            return
        if self._flushed > target:
            db._wake_waiters()
        else:
            self.arm(db)  # early estimate or same-instant tie; re-arm

    # -- lifecycle ----------------------------------------------------------
    def _finalize(self, _=None) -> None:
        self._fin_seq = None
        self.flush_until(self.sim._now, self._fin_pushed)
        if self._flushed >= self.K:
            self._close()
        else:
            self._arm_finalize()

    def _close(self) -> None:
        """Every commit is flushed: detach.  A ring entry still armed can
        only be due at this very instant, and the detach would cancel it,
        so deliver its wake here instead."""
        for db in list(self._entries):
            self.sim._cancel(self._entries[db][0])
            self._ring_fire(db)
        self.detach()

    def _arm_finalize(self) -> None:
        sim = self.sim
        self._fin_pushed = sim._now
        self._fin_seq = sim._push_cancellable(
            self._estimate(self.K - 1), self._finalize, None)

    def detach(self) -> None:
        if self._detached:
            return
        self._detached = True
        sim = self.sim
        if self._fin_seq is not None:
            sim._cancel(self._fin_seq)
            self._fin_seq = None
        for seq, _t, _p in self._entries.values():
            sim._cancel(seq)
        self._entries.clear()
        for db, _ in self._recs:
            db._providers.remove(self)
        self.mc._spans.remove(self)


# ---------------------------------------------------------------------------
# Read/response chains
# ---------------------------------------------------------------------------

class ReadFlow:
    """Closed-form remote read: request wire, destination DRAM issue and
    response completion as three calendar entries instead of the
    ~13-entry per-packet request/response pipeline (pump wakes, phy
    handshakes, two rx-loop round trips, response routing).

    The destination memory controller is still *really* called at the
    exact per-packet issue instant, so port arbitration against unrelated
    local traffic (receive-side polling!) stays exact; the responder's rx
    loop is stolen for exactly the busy window the per-packet loop would
    occupy.  A run of same-route reads promotes read after read -- each
    one costs pure arithmetic plus the three entries, the "pipelined
    schedule" over the run.

    Demotion (:meth:`abort`): wherever the read is at instant ``T`` --
    request serializing, on the cable, inside the responder crossbar,
    awaiting DRAM, response serializing, on the cable, or inside the
    requester crossbar -- the per-packet state is reconstructed (phy held
    to the exact serialization end, credits taken, real deliver entries
    pushed, rx loops busy-stolen) and the ordinary machinery finishes.
    Link death mid-wire replays the pump's NAK dance with identical
    counter effects at identical instants.
    """

    __slots__ = ("sim", "nb", "dest_nb", "dest_mc", "link", "req_d",
                 "rsp_d", "pkt", "addr", "length", "response", "t0",
                 "ser_req", "t_d1", "t_issue", "t_r", "ser_rsp", "rsp",
                 "_e1", "_e3", "_getter", "_resp_port", "_demoted",
                 "_done")

    @classmethod
    def plan(cls, nb, port, pkt, addr, length, response):
        """Promote when every resource the macro path bypasses is
        quiescent and the response provably routes straight back over the
        same link; otherwise return None (per-packet path).

        The credits-full checks double as an in-flight test: any packet
        between TX queue and receiver consumption holds a credit, so full
        pools mean nothing can arrive on either direction until a foreign
        send happens -- and a foreign send demotes the flow first.
        """
        from ..opteron.northbridge import MasterAbort, RouteKind

        binding = nb.chip.ports.get(port)
        if binding is None:
            return None
        link = binding.link
        if (link.state != "active" or link._ber > 0 or link.tracer.enabled
                or nb._m.enabled):
            return None
        req_d = link._dirs[binding.side]
        rsp_side = "B" if binding.side == "A" else "A"
        rsp_d = link._dirs[rsp_side]
        for d in (req_d, rsp_d):
            if d._train is not None or d._flow is not None:
                return None
            if d.phy._in_use or d.phy._waiters:
                return None
            if d.rx._items or len(d.rx._getters) != 1:
                return None
            for vc, q in d.txq.items():
                if q._items or len(q._getters) != 1:
                    return None
                cred = d.credits[vc]
                if cred._credits != cred.initial:
                    return None
        dest_chip = link.attached.get(rsp_side)
        if dest_chip is None:
            return None
        dest_nb = dest_chip.nb
        if (not dest_nb._started or dest_nb._m.enabled
                or pkt.unitid == dest_nb.nodeid
                or dest_chip.memctrl.tracer.enabled):
            return None
        try:
            r = dest_nb.route(addr)
            r2 = dest_nb.route(addr + length - 1)
            resp_port = dest_nb._fabric_port_for(pkt.unitid, route="response")
        except MasterAbort:
            return None
        if (r.kind is not RouteKind.DRAM_LOCAL or not r.readable
                or r2.kind is not r.kind or not dest_nb._dram_ready()):
            return None
        rb = dest_nb.chip.ports.get(resp_port)
        if rb is None or rb.link is not link or rb.side != rsp_side:
            return None
        return cls(nb, link, req_d, rsp_d, dest_nb, resp_port, pkt, addr,
                   length, response)

    def __init__(self, nb, link, req_d, rsp_d, dest_nb, resp_port, pkt,
                 addr, length, response):
        from .engine import MacroEntry

        sim = nb.sim
        self.sim = sim
        self.nb = nb
        self.dest_nb = dest_nb
        self.dest_mc = dest_nb.chip.memctrl
        self.link = link
        self.req_d = req_d
        self.rsp_d = rsp_d
        self.pkt = pkt
        self.addr = addr
        self.length = length
        self.response = response
        self.t0 = sim._now
        self.ser_req = link.serialization_ns(pkt)
        self.t_d1 = self.t0 + self.ser_req + link.propagation_ns
        self.t_issue = self.t_d1 + nb.timing.nb_request_ns
        self.t_r = None
        self.ser_rsp = None
        self.rsp = None
        self._getter = None
        self._resp_port = resp_port
        self._demoted = False
        self._done = False
        req_d._flow = self
        rsp_d._flow = self
        self._e1 = MacroEntry(sim)
        self._e3 = MacroEntry(sim)
        self._e1.arm(self.t_issue, self._issue, None)

    # -- macro path ---------------------------------------------------------
    def _issue(self, _=None) -> None:
        """E1 (t_issue): the request "arrived" and crossed the responder
        crossbar -- steal the responder's rx loop for its per-packet busy
        window and issue the real DRAM read."""
        self._e1.fired()
        if self._getter is None:
            self._getter = self.req_d.rx._getters.popleft()
        ev = self.dest_mc.read(self.dest_nb._local_offset(self.addr),
                               self.length, uncached=False)
        ev.add_callback(self._mc_done)

    def _mc_done(self, ev) -> None:
        """The DRAM read committed (t_r): build the response and either
        schedule the completion arithmetically (macro) or route it for
        real (demoted while the read was in flight)."""
        from ..ht.packet import make_read_response

        sim = self.sim
        self.t_r = sim._now
        pkt = self.pkt
        self.rsp = make_read_response(ev.value, srctag=pkt.srctag,
                                      unitid=pkt.unitid,
                                      coherent=pkt.coherent)
        if self._demoted:
            sim.process(self._demoted_tail(),
                        name=f"{self.dest_nb.name}.readflow_demote")
            return
        self.dest_nb.counters.inc("rx_reads")
        self._restore_getter(self.req_d.rx)
        self.ser_rsp = self.link.serialization_ns(self.rsp)
        t_done = (self.t_r + self.ser_rsp + self.link.propagation_ns
                  + self.nb.timing.nb_request_ns)
        self._e3.arm(t_done, self._complete, None)

    def _demoted_tail(self):
        """Post-demotion completion: exactly the per-packet rx-loop tail
        (response routed with real back-pressure, then accounting, then
        the rx loop re-parks)."""
        nb = self.dest_nb
        yield from nb._route_response(self.rsp, self._resp_port)
        nb.counters.inc("rx_reads")
        self._restore_getter(self.req_d.rx)

    def _restore_getter(self, rx) -> None:
        if self._getter is not None:
            rx._getters.appendleft(self._getter)
            self._getter = None
            rx._wake_getter()

    def _complete(self, _=None) -> None:
        """E3 (t_done): response consumed and matched at the requester."""
        self._e3.fired()
        if not self._demoted:
            self._apply_req_stats()
            self._apply_rsp_stats()
        self._detach()
        nb = self.nb
        ev = nb.tags.match(self.pkt.srctag)
        nb._pending_reads.pop(self.pkt.srctag, None)
        if not ev.triggered:
            ev.succeed(self.rsp.data)
        nb.counters.inc("responses_matched")
        self._restore_getter(self.rsp_d.rx)

    # -- bookkeeping --------------------------------------------------------
    def _apply_req_stats(self) -> None:
        s = self.req_d.stats
        s.packets += 1
        s.payload_bytes += len(self.pkt.data)
        s.wire_bytes += self.pkt.wire_bytes(self.link._crc_bytes)
        s.busy_ns += self.ser_req

    def _apply_rsp_stats(self) -> None:
        s = self.rsp_d.stats
        s.packets += 1
        s.payload_bytes += len(self.rsp.data)
        s.wire_bytes += self.rsp.wire_bytes(self.link._crc_bytes)
        s.busy_ns += self.ser_rsp

    def _detach(self) -> None:
        self._done = True
        if self.req_d._flow is self:
            self.req_d._flow = None
        if self.rsp_d._flow is self:
            self.rsp_d._flow = None

    # -- demotion -----------------------------------------------------------
    def _replay_tx(self, d, pkt, ser_end, ser) -> None:
        """Reconstruct a packet mid-serialization: hold the phy to the
        exact end instant, then deliver (link up) or hand the packet to
        the pump for the per-packet NAK dance (link died mid-wire).  The
        caller has already taken the packet's credit."""
        sim = self.sim
        d.phy.try_acquire()

        def _end(_=None):
            link = self.link
            stats = d.stats
            stats.busy_ns += ser
            d.phy.release()
            if link.state == "active":
                stats.packets += 1
                stats.payload_bytes += len(pkt.data)
                stats.wire_bytes += pkt.wire_bytes(link._crc_bytes)
                sim._push(sim._now + link.propagation_ns, d._deliver,
                          (pkt, pkt.vc))
            else:
                d.credits[pkt.vc].give()
                q = d.txq[pkt.vc]
                q.unget(pkt)
                q._wake_getter()

        sim._push(ser_end, _end, None)

    def abort(self, T: float) -> None:
        """Demote at instant ``T``: make the per-packet state real for
        whatever phase the read is in and let the ordinary machinery
        finish the job."""
        if self._done:
            return
        from ..obs.metrics import flow_counters

        flow_counters(self.sim).read_demotions += 1
        self.nb._read_flow_port = None
        self._detach()
        sim = self.sim
        pkt = self.pkt
        if self._e1.armed:
            # Request on the wire or inside the responder crossbar.
            if T < self.t0 + self.ser_req:
                self._e1.cancel()
                self.req_d.credits[pkt.vc].try_take()
                self._replay_tx(self.req_d, pkt, self.t0 + self.ser_req,
                                self.ser_req)
            elif T < self.t_d1:
                self._e1.cancel()
                self._apply_req_stats()
                self.req_d.credits[pkt.vc].try_take()
                sim._push(self.t_d1, self.req_d._deliver, (pkt, pkt.vc))
            else:
                # Consumed by the responder's rx loop, crossbar latency in
                # progress: keep E1 (it issues the DRAM read at the exact
                # per-packet instant) but steal the rx loop now -- the
                # per-packet loop is busy from t_d1 on.
                self._apply_req_stats()
                if self._getter is None:
                    self._getter = self.req_d.rx._getters.popleft()
                self._demoted = True
            return
        if self.t_r is None:
            # DRAM read in flight: _mc_done will route the response for
            # real (rx loop stays stolen until then, as per-packet).
            self._apply_req_stats()
            self._demoted = True
            return
        if not self._e3.armed:
            return
        self._apply_req_stats()
        rsp = self.rsp
        t_d2 = self.t_r + self.ser_rsp + self.link.propagation_ns
        if T < self.t_r + self.ser_rsp:
            self._e3.cancel()
            self.rsp_d.credits[rsp.vc].try_take()
            self._replay_tx(self.rsp_d, rsp, self.t_r + self.ser_rsp,
                            self.ser_rsp)
        elif T < t_d2:
            self._e3.cancel()
            self._apply_rsp_stats()
            self.rsp_d.credits[rsp.vc].try_take()
            sim._push(t_d2, self.rsp_d._deliver, (rsp, rsp.vc))
        else:
            # Response consumed at the requester, crossbar latency in
            # progress: E3 stays (its instant is exact); the requester rx
            # loop is busy until then, so steal it for the window.
            self._apply_rsp_stats()
            self._demoted = True
            if self._getter is None and self.rsp_d.rx._getters:
                self._getter = self.rsp_d.rx._getters.popleft()
