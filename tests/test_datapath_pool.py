"""Tests for the zero-copy data plane: packet pool, lazy wire image,
span payloads and the one-copy/O(1)-allocation invariants end to end.

The pool hands out flyweight packets that skip dataclass init, so the
load-bearing property is *state isolation*: a recycled-and-reused packet
must be indistinguishable from a constructor-built one.  The fuzz test
checks exactly that, by encoding every pooled packet against a fresh
reference built through the fully-validated constructor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TCClusterSystem
from repro.ht.packet import (
    Command,
    PacketError,
    PacketPool,
    make_broadcast,
    make_nonposted_write,
    make_posted_write,
    pool_for,
)
from repro.obs.metrics import datapath_counters
from repro.sim import Simulator
from repro.util.units import KiB


# ---------------------------------------------------------------------------
# Pool lifecycle
# ---------------------------------------------------------------------------

def test_pool_checkout_recycle_reuses_object():
    pool = PacketPool()
    p1 = pool.posted_write(0x100, b"\xAA" * 16)
    assert pool.allocated == 1 and pool.reused == 0
    pool.recycle(p1)
    assert pool.recycled == 1
    p2 = pool.posted_write(0x200, b"\xBB" * 8)
    assert p2 is p1, "free-listed packet not reused"
    assert pool.allocated == 1 and pool.reused == 1
    assert p2.addr == 0x200 and bytes(p2.data) == b"\xBB" * 8


def test_recycle_is_noop_for_foreign_and_double_recycle():
    pool = PacketPool()
    foreign = make_posted_write(0x40, b"\x01" * 4)
    pool.recycle(foreign)
    assert pool.recycled == 0 and not pool._free
    p = pool.posted_write(0x40, b"\x02" * 4)
    pool.recycle(p)
    pool.recycle(p)  # double recycle must not duplicate the free entry
    assert pool.recycled == 1
    assert len(pool._free) == 1


def test_pool_free_list_is_capped():
    pool = PacketPool()
    pkts = [pool.posted_write(0x40, b"\x00" * 4) for _ in range(pool.MAX_FREE + 10)]
    for p in pkts:
        pool.recycle(p)
    assert len(pool._free) == pool.MAX_FREE
    assert pool.recycled == pool.MAX_FREE + 10


def test_pool_fast_path_still_validates():
    pool = PacketPool()
    with pytest.raises(PacketError):
        pool.posted_write(0x41, b"\x00" * 4)  # unaligned address
    with pytest.raises(PacketError):
        pool.posted_write(0x40, b"\x00" * 3)  # ragged payload
    with pytest.raises(PacketError):
        pool.posted_write(0x40, b"")  # empty payload
    with pytest.raises(PacketError):
        pool.posted_write(1 << 48, b"\x00" * 4)  # beyond phys addr space


def test_pool_masked_write_takes_validated_constructor():
    pool = PacketPool()
    p = pool.posted_write(0x40, b"\x01\x02\x03\x04", mask=b"\x01\x00\x01\x00")
    assert p.cmd is Command.WRITE_POSTED_BYTE
    assert not p._pooled  # constructor-built: recycle must ignore it
    pool.recycle(p)
    assert pool.recycled == 0


# ---------------------------------------------------------------------------
# Lazy wire image == eager construction
# ---------------------------------------------------------------------------

def test_pooled_packet_wire_image_matches_constructor():
    pool = PacketPool()
    pkt = pool.posted_write(0x1000, b"\xCD" * 64, unitid=3, coherent=True)
    ref = make_posted_write(0x1000, b"\xCD" * 64, unitid=3, coherent=True)
    assert pkt.wire_bytes() == ref.wire_bytes()
    assert pkt.crc32 == ref.crc32
    assert pkt.encode() == ref.encode()


def test_wire_bytes_cache_consistent_with_encode():
    pkt = make_posted_write(0x1000, b"\x11" * 32)
    # wire_bytes (cached, arithmetic) must equal the actual encoded length.
    assert pkt.wire_bytes() == len(pkt.encode())
    assert pkt.wire_bytes(crc_bytes=0) == len(pkt.encode()) - 4


def test_memoryview_span_payload_is_not_copied():
    src = bytes(range(256))
    span = memoryview(src)[64:128]
    pool = PacketPool()
    pkt = pool.posted_write(0x2000, span)
    assert type(pkt.data) is memoryview, "span payload must ride by reference"
    ref = make_posted_write(0x2000, bytes(span))
    assert pkt.encode() == ref.encode()


# ---------------------------------------------------------------------------
# Fuzzed round trip: reuse never leaks state (satellite: property test)
# ---------------------------------------------------------------------------

_aligned_addr = st.integers(min_value=0, max_value=(1 << 30) // 4 - 1).map(
    lambda a: a * 4
)
_dword_payload = st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.binary(min_size=4 * n, max_size=4 * n)
)
_op = st.tuples(
    st.sampled_from(["posted", "posted_masked", "nonposted", "broadcast"]),
    _aligned_addr,
    _dword_payload,
)


@given(ops=st.lists(_op, min_size=1, max_size=40))
@settings(max_examples=60)
def test_pool_round_trip_never_leaks_state(ops):
    """Property: pooled/recycled packets are byte-identical on the wire
    to constructor-built references, across mixed posted / non-posted /
    broadcast traffic with interleaved recycling."""
    pool = PacketPool()
    live = []
    for kind, addr, payload, in ops:
        if kind == "posted":
            pkt = pool.posted_write(addr, payload, unitid=1)
            ref = make_posted_write(addr, payload, unitid=1)
        elif kind == "posted_masked":
            msk = bytes((i % 2) for i in range(1, len(payload) + 1))
            pkt = pool.posted_write(addr, payload, mask=msk)
            ref = make_posted_write(addr, payload, mask=msk)
        elif kind == "nonposted":
            pkt = make_nonposted_write(addr, payload, srctag=5)
            ref = make_nonposted_write(addr, payload, srctag=5)
        else:
            pkt = make_broadcast(addr, payload)
            ref = make_broadcast(addr, payload)
        assert pkt.wire_bytes() == ref.wire_bytes()
        assert pkt.crc32 == ref.crc32
        assert pkt.encode() == ref.encode()
        live.append(pkt)
        if len(live) > 4:
            pool.recycle(live.pop(0))  # interleaved return -> forces reuse
    for p in live:
        pool.recycle(p)
    # After all that churn, a fresh checkout must be pristine.
    pkt = pool.posted_write(0x40, b"\x3C" * 8)
    assert pkt.mask is None and pkt.srctag == 0 and pkt.seqid == 0
    assert pkt.src_node is None and pkt._agg_tag is None
    assert not pkt.passpw and not pkt.error
    assert pkt.encode() == make_posted_write(0x40, b"\x3C" * 8).encode()


# ---------------------------------------------------------------------------
# End to end: one copy per byte, O(1) packet objects
# ---------------------------------------------------------------------------

def test_bulk_transfer_one_copy_and_pooled_packets():
    """A bulk store through the per-packet data plane copies each payload
    byte exactly once (at destination page commit) and recirculates a
    bounded packet population."""
    sys_ = TCClusterSystem.two_board_prototype()
    sys_.sim.features.fidelity = "packet"
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    proc = cl.spawn_process(0, name="txp")
    info, pinfo = cl.ranks[0], cl.ranks[1]
    driver = cl.kernels[info.supernode].driver_for(info.chip_index)
    window_off = 32 * 1024 * 1024
    tx_base = pinfo.base + window_off
    size = 16 * KiB
    driver.mmap_remote(proc.pagetable, tx_base, size, tag="pool-test")
    data = bytes(range(256)) * (size // 256)
    dest = pinfo.chip.memctrl.memory

    before = datapath_counters(sim, memories=(dest,))

    def xfer():
        yield from proc.store(tx_base, data)
        yield from proc.core.sfence()

    sim.run_until_event(sim.process(xfer()))
    sim.run()
    after = datapath_counters(sim, memories=(dest,))

    assert dest.read(window_off, size) == data
    lines = size // 64
    copied = after["bytes_copied"] - before["bytes_copied"]
    alloc = after["packets_alloc"] - before["packets_alloc"]
    pooled = after["packets_pooled"] - before["packets_pooled"]
    recycled = after["packets_recycled"] - before["packets_recycled"]
    assert copied == size, f"one-copy invariant broken: {copied} != {size}"
    assert recycled == lines, "every data packet must return to the pool"
    assert alloc + pooled == lines
    assert alloc < lines, "pool never engaged: every packet freshly built"


def test_pool_is_per_simulation():
    sim1, sim2 = Simulator(), Simulator()
    pool1, pool2 = pool_for(sim1), pool_for(sim2)
    assert pool1 is not pool2
    assert pool_for(sim1) is pool1  # stable across calls
