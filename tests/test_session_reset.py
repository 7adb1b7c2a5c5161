"""Unit coverage for the crash/rejoin resynchronization machinery.

The chaos harness (``test_chaos.py``) proves the end-to-end property;
these tests pin the individual contracts: the HELLO/feedback wire
format, the lost-volatile-state model of ``crash_node``, the epoch
handshake itself, the fail-fast error of an endpoint that cannot run
it, and the injector's up-front plan validation.
"""

import pytest

from repro.cluster import TCCluster
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.faults.injector import FaultPlanError
from repro.msglib import MsgConfig, SessionReset, TransportError
from repro.msglib.slots import (
    pack_feedback,
    pack_hello,
    unpack_feedback,
    unpack_feedback_epoch,
    unpack_header,
    unpack_hello,
)
from repro.obs.metrics import fault_counters
from repro.topology import chain
from repro.util.units import MiB

CFG = dict(send_deadline_ns=2e5, recv_deadline_ns=5e5,
           retransmit_base_ns=50_000.0)


def _pair():
    cfg = MsgConfig(**CFG)
    cl = TCCluster(chain(2), msg_cfg=cfg, memory_bytes=64 * MiB).boot()
    return cl, cl.library(0).connect(1), cl.library(1).connect(0)


def _drive(cl, gen, horizon_ns=5e6, name="driver"):
    """Run one generator process to completion; returns its result box."""
    box = {}

    def wrap():
        box["value"] = yield from gen()

    cl.sim.process(wrap(), name=name)
    cl.run(until=cl.sim.now + horizon_ns)
    return box


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def test_hello_roundtrip_and_validation():
    raw = pack_hello(7, epoch=3, recv_seq=41, heap_recvd=4096)
    seq, marker = unpack_header(raw)
    assert seq == 7
    assert unpack_hello(raw) == (3, 41, 4096)
    with pytest.raises(ValueError):
        pack_hello(7, epoch=0, recv_seq=0, heap_recvd=0)
    with pytest.raises(ValueError):
        pack_hello(7, epoch=-1, recv_seq=0, heap_recvd=0)


def test_feedback_epoch_zero_is_byte_identical_to_legacy_layout():
    """The epoch field rides in what used to be zero padding: fault-free
    feedback lines must stay bit-identical to the two-field format."""
    legacy = pack_feedback(12, 3072)
    assert unpack_feedback(legacy) == (12, 3072)
    assert unpack_feedback_epoch(legacy) == 0
    assert legacy == pack_feedback(12, 3072, epoch=0)
    stamped = pack_feedback(12, 3072, epoch=5)
    assert unpack_feedback(stamped) == (12, 3072)
    assert unpack_feedback_epoch(stamped) == 5
    # Only the epoch bytes differ.
    assert stamped[:16] == legacy[:16]
    assert stamped[24:] == legacy[24:]


# ---------------------------------------------------------------------------
# Lost-volatile-state model
# ---------------------------------------------------------------------------

def test_crash_node_discards_volatile_state_and_marks_sessions():
    cl, ep_a, ep_b = _pair()

    got = []

    def rx():
        data = yield from ep_b.recv()
        got.append(data)

    def warm():
        yield from ep_a.send(b"x" * 64)

    cl.sim.process(rx(), name="warm-rx")
    _drive(cl, warm)
    assert got == [b"x" * 64]
    fc = fault_counters(cl.sim)
    assert fc.node_crashes == 0
    # Warm a line into the victim's cache hierarchy (msglib polling is
    # uncached, so the ring traffic alone leaves the caches cold).
    cl.ranks[1].chip.caches.fill_line(0x1000, b"\xAA" * 64)
    cl.crash_node(1)
    assert fc.node_crashes == 1
    # The warmed line copy was on-chip state and is gone with the crash.
    assert fc.crash_lines_discarded > 0
    assert 0x1000 not in cl.ranks[1].chip.caches.levels[0]
    # The victim's endpoints are marked dead toward their peers so the
    # next reliable send runs the handshake instead of transmitting into
    # a torn session.
    assert ep_b.peer_dead
    assert not ep_a.peer_dead  # survivor learns via its send deadline


def test_crash_discard_drops_unacked_retransmit_images():
    cl, ep_a, _ = _pair()
    ep_a._unacked.append((1, 0, b"\x00" * 64, None, None))
    assert ep_a.crash_discard() == 1
    assert not ep_a._unacked
    assert ep_a.peer_dead


# ---------------------------------------------------------------------------
# The epoch handshake end to end
# ---------------------------------------------------------------------------

def test_handshake_resynchronizes_after_crash_rejoin():
    """Crash the receiver long enough to expire the send deadline; the
    sender's retry must resynchronize via HELLO/HELLO-ACK and deliveries
    must resume gap-free."""
    cl, ep_a, ep_b = _pair()
    # The crash must land mid-stream (one message costs ~600 ns here).
    plan = (FaultPlan()
            .add(2_000.0, FaultKind.NODE_CRASH, 1)
            .add(400_000.0, FaultKind.NODE_WARM_RESET, 1))
    FaultInjector(cl, plan).arm()
    got = []

    def tx():
        sent = 0
        for i in range(6):
            for _ in range(8):
                try:
                    yield from ep_a.send(bytes([i]) * 64)
                    sent += 1
                    break
                except TransportError:
                    continue
        return sent

    def rx():
        # Dedupe: an expired send whose slots had already landed in DRAM
        # is legally redelivered after its app-level retry (at-least-once
        # on TransportError).
        while len(got) < 6:
            try:
                msg = yield from ep_b.recv()
            except TransportError:
                continue
            if msg[0] not in got:
                got.append(msg[0])

    cl.sim.process(rx(), name="rx")
    box = _drive(cl, tx, horizon_ns=2e7, name="tx")
    assert box["value"] == 6
    assert got == list(range(6))
    assert fault_counters(cl.sim).session_resets >= 1
    assert ep_a.session_epoch >= 1
    assert ep_a.session_epoch == ep_b.session_epoch
    assert ep_a.stats.session_resets + ep_b.stats.session_resets >= 2


def test_reconnect_times_out_with_session_reset_when_peer_stays_dead():
    """No rejoin: the reconnect handshake must fail with a typed
    SessionReset within its deadline instead of hanging."""
    cl, ep_a, _ = _pair()
    cl.crash_node(1)

    def tx():
        outcomes = []
        for _ in range(2):
            try:
                yield from ep_a.send(b"y" * 64)
                outcomes.append("ok")
            except SessionReset:
                outcomes.append("reset")
            except TransportError:
                outcomes.append("expired")
        return outcomes

    box = _drive(cl, tx, horizon_ns=5e6)
    # First send burns the deadline (peer declared dead), the retry runs
    # the handshake against a dead peer and surfaces SessionReset.
    assert box["value"] == ["expired", "reset"]
    assert ep_a.peer_dead


def test_unreliable_endpoint_fails_fast_after_crash():
    """Without a deadline the endpoint cannot run the session handshake:
    after ``crash_node`` a send fails fast with a typed error, and the
    verdict stands across the rejoin."""
    cl = TCCluster(chain(2), msg_cfg=MsgConfig(), memory_bytes=64 * MiB).boot()
    ep_b = cl.library(1).connect(0)
    cl.crash_node(1)
    assert ep_b.peer_dead

    def dead():
        try:
            yield from ep_b.send(b"z" * 64)
        except TransportError as exc:
            return exc

    exc = _drive(cl, dead)["value"]
    assert type(exc) is TransportError
    assert "declared dead" in str(exc) and "revive" not in str(exc)

    def rejoin():
        yield from cl.rejoin_node(1)

    _drive(cl, rejoin)
    assert ep_b.peer_dead
    assert type(_drive(cl, dead)["value"]) is TransportError


# ---------------------------------------------------------------------------
# Injector plan validation
# ---------------------------------------------------------------------------

def test_arm_rejects_kill_then_kill_on_same_link():
    cl, _, _ = _pair()
    plan = (FaultPlan()
            .add(1_000.0, FaultKind.LINK_KILL, 0)
            .add(2_000.0, FaultKind.LINK_KILL, 0))
    with pytest.raises(FaultPlanError, match="conflict"):
        FaultInjector(cl, plan).arm()


def test_arm_rejects_fault_on_crashed_rank():
    cl, _, _ = _pair()
    plan = (FaultPlan()
            .add(1_000.0, FaultKind.NODE_CRASH, 1)
            .add(2_000.0, FaultKind.NODE_CRASH, 1))
    with pytest.raises(FaultPlanError):
        FaultInjector(cl, plan).arm()


def test_arm_on_conflict_skip_records_dropped_events():
    cl, _, _ = _pair()
    plan = (FaultPlan()
            .add(1_000.0, FaultKind.LINK_KILL, 0)
            .add(2_000.0, FaultKind.LINK_KILL, 0)
            .add(3_000.0, FaultKind.NODE_CRASH, 1))
    inj = FaultInjector(cl, plan)
    armed = inj.arm(on_conflict="skip")
    assert armed == 2
    assert len(inj.skipped) == 1
    ev, why = inj.skipped[0]
    assert ev.at_ns == 2_000.0 and ev.kind is FaultKind.LINK_KILL
    assert why
    with pytest.raises(ValueError):
        FaultInjector(cl, plan).arm(on_conflict="maybe")
