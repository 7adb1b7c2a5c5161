"""Message-library configuration and the per-node region layout.

Paper Section IV.A:

    "As there exists no hardware support for managing messages it is
    impossible to share receive buffer space between multiple endpoints.
    Therefore, each node has to allocate a 4 KB ring buffer for each
    endpoint it want to communicate with.  While this limitation prohibits
    unlimited scalability the approach is sufficient to support hundreds
    of endpoints."

Every node reserves three regions inside its exported local DRAM, at
offsets identical across the cluster (all ranks compute the same layout):

* **ring region** -- one 4 KB ring per possible sender rank,
* **feedback region** -- one cache line per peer, written *by* that peer
  (as receiver) to acknowledge consumption ("Periodically, the APIs on
  the endpoints have to exchange pointer information to communicate
  buffer fill levels and to implement flow control"),
* **heap region** -- one rendezvous landing zone per sender rank for
  large messages ("data is written directly to the final destination on
  the remote node and an additional queue is used for synchronization").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..util.units import CACHELINE, KiB, MiB

__all__ = ["MsgConfig", "RegionLayout", "SLOT_BYTES", "SLOT_PAYLOAD", "SLOT_HEADER"]

SLOT_BYTES = CACHELINE          # one slot == one posted write == one line
SLOT_HEADER = 8                 # u32 seq, u32 len/marker
SLOT_PAYLOAD = SLOT_BYTES - SLOT_HEADER
PAGE = 4096

#: len-field marker for rendezvous control slots.
RENDEZVOUS_MARKER = 0xFFFF_FFFF

#: len-field marker for session-handshake (HELLO) control slots.
HELLO_MARKER = 0xFFFF_FFFE


def _round_up(x: int, align: int) -> int:
    return (x + align - 1) // align * align


@dataclass(frozen=True)
class MsgConfig:
    """Tunables of the message library."""

    #: Per-endpoint receive ring ("a 4 KB ring buffer for each endpoint").
    ring_bytes: int = 4 * KiB
    #: Messages up to this size go eagerly through the ring; larger ones
    #: use the rendezvous heap.
    eager_max: int = 1024
    #: Per-sender rendezvous landing zone.
    heap_bytes: int = 1 * MiB
    #: Receiver acknowledges every this-many consumed slots.
    fb_interval_slots: int = 16
    #: Bulk UC read chunk for draining multi-slot messages / heap payloads.
    read_chunk: int = 1024
    #: Offset of the message regions inside each node's local DRAM (leaves
    #: low memory to the OS).
    region_offset: int = 1 * MiB
    # -- reliability (all default-off: the fault-free protocol, its
    # timing and its calendar footprint are unchanged) -------------------
    #: End-to-end delivery guard: when set, ``send()`` only completes
    #: once the peer has acknowledged the message's ring slots, and
    #: raises :class:`~repro.msglib.endpoint.TransportError` (declaring
    #: the peer dead) if that takes longer than this many ns.
    send_deadline_ns: Optional[float] = None
    #: ``recv()`` deadline: raise ``TransportError`` when no message
    #: completes within this many ns (per-call override available).
    recv_deadline_ns: Optional[float] = None
    #: First retransmit backoff while waiting for acknowledgements;
    #: doubles after every retransmission round (exponential backoff).
    retransmit_base_ns: float = 50_000.0
    #: In-band session handshake: when a reliable endpoint (either
    #: deadline set) finds its peer declared dead, ``send()`` runs an
    #: epoch-numbered HELLO/HELLO-ACK exchange over the ring, resyncing
    #: both sides' cursors and resuming.  This is the deadline for one
    #: round trip before the reconnect attempt is abandoned with
    #: :class:`SessionReset` (falls back to ``send_deadline_ns`` when
    #: unset).
    reconnect_deadline_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.ring_bytes % SLOT_BYTES or self.ring_bytes < 4 * SLOT_BYTES:
            raise ValueError("ring_bytes must be >= 4 slots and slot-aligned")
        if self.ring_bytes % PAGE:
            raise ValueError("ring_bytes must be page aligned (mmap granularity)")
        if self.eager_max > (self.nslots // 2) * SLOT_PAYLOAD:
            raise ValueError("eager_max larger than half the ring capacity")
        if self.heap_bytes % PAGE:
            raise ValueError("heap_bytes must be page aligned")
        if self.fb_interval_slots >= self.nslots:
            raise ValueError("fb_interval_slots must be below the slot count")
        if self.read_chunk % SLOT_BYTES:
            raise ValueError("read_chunk must be line aligned")
        if self.send_deadline_ns is not None and self.send_deadline_ns <= 0:
            raise ValueError("send_deadline_ns must be positive (or None)")
        if self.recv_deadline_ns is not None and self.recv_deadline_ns <= 0:
            raise ValueError("recv_deadline_ns must be positive (or None)")
        if self.retransmit_base_ns <= 0:
            raise ValueError("retransmit_base_ns must be positive")
        if self.reconnect_deadline_ns is not None and self.reconnect_deadline_ns <= 0:
            raise ValueError("reconnect_deadline_ns must be positive (or None)")

    @property
    def nslots(self) -> int:
        return self.ring_bytes // SLOT_BYTES

    def layout(self, nranks: int) -> "RegionLayout":
        return RegionLayout(self, nranks)


class RegionLayout:
    """Concrete offsets once the rank count is known."""

    def __init__(self, cfg: MsgConfig, nranks: int):
        if nranks < 2:
            raise ValueError("a cluster needs at least two ranks")
        self.cfg = cfg
        self.nranks = nranks
        self.ring_off = cfg.region_offset
        ring_total = _round_up(nranks * cfg.ring_bytes, PAGE)
        self.fb_off = self.ring_off + ring_total
        fb_total = _round_up(nranks * CACHELINE, PAGE)
        self.heap_off = self.fb_off + fb_total
        self.total = self.heap_off + nranks * cfg.heap_bytes - cfg.region_offset

    # All helpers return offsets *within a node's local DRAM*.
    def ring_of_sender(self, sender_rank: int) -> int:
        self._check(sender_rank)
        return self.ring_off + sender_rank * self.cfg.ring_bytes

    def feedback_of_peer(self, peer_rank: int) -> int:
        """The line peer_rank (as receiver) writes acknowledgements into."""
        self._check(peer_rank)
        return self.fb_off + peer_rank * CACHELINE

    def heap_of_sender(self, sender_rank: int) -> int:
        self._check(sender_rank)
        return self.heap_off + sender_rank * self.cfg.heap_bytes

    def fb_region(self) -> Tuple[int, int]:
        return self.fb_off, _round_up(self.nranks * CACHELINE, PAGE)

    def ring_region(self) -> Tuple[int, int]:
        return self.ring_off, _round_up(self.nranks * self.cfg.ring_bytes, PAGE)

    def heap_region(self) -> Tuple[int, int]:
        return self.heap_off, self.nranks * self.cfg.heap_bytes

    def required_bytes(self) -> int:
        """Local DRAM the layout needs, from offset 0."""
        return self.heap_off + self.nranks * self.cfg.heap_bytes

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of 0..{self.nranks - 1}")
