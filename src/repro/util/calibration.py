"""Calibration constants, each tied to a figure the paper itself states.

The TCCluster paper reports measurements from a two-node prototype built
from Tyan S2912E boards with Shanghai Opterons and an HTX cable limited to
1.6 Gbit/s per lane (paper Section VI).  Our discrete-event models are
parameterized by the constants below; every constant carries the paper
quote (or the derivation from one) that justifies it.

The point of centralizing these is honesty: the *shape* of the reproduced
figures comes from the component pipeline (write-combining, credit flow
control, serialization, polling), while the absolute anchors come from
these few numbers.

Derivation of the steady-state link rate
----------------------------------------
Paper Section VI: "a 16 bit wide TCCluster link running at HT800 which
equals 1.6 Gbit/s per lane".  16 lanes x 1.6 Gbit/s = 25.6 Gbit/s
= 3.2 bytes/ns raw.  An HT sized posted write carries an 8-byte request
header (HT I/O Link Specification, 64-bit addressing) and, in HT3 retry
mode, a 4-byte per-packet CRC.  A 64-byte payload therefore occupies
8 + 64 + 4 = 76 wire bytes -> 23.75 ns -> 64/23.75 = 2.695 bytes/ns
= **2695 MB/s**, matching the paper's "sustained bandwidth of 2700 MB/s"
for weakly-ordered writes.

The CPU-side issue rate is set by write-combining: the paper's peak of
5300 MB/s (Figure 6, 256 KB point) is the rate at which the core can fill
and hand off 64-byte WC buffers while the fabric still has buffer credits;
we model that as 12 ns per cache line (5333 MB/s).

The strictly-ordered curve ("after each cache line sized store operation an
Sfence instruction is triggered ... limiting the write performance to
2000 MB/s") adds an sfence drain stall per line; 32 ns per 64 B line
= 2000 MB/s, i.e. a drain stall of 32 - 12 = 20 ns.

The 5300 MB/s hump exists because the microbenchmark times the *store
stream retiring*, which runs ahead of the link while posted-write buffering
(store queue + WC buffers + SRQ + HT retry buffers + the L3-assisted
behaviour the paper alludes to: "leverages caching structures within the
Opteron") soaks up the burst.  We model the aggregate as a posted-write
buffer of 2048 packets (128 KiB), which places the measured peak exactly at
the 256 KB point as in Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["TimingModel", "DEFAULT_TIMING", "IBModel", "DEFAULT_IB", "EthernetModel"]


@dataclass(frozen=True)
class TimingModel:
    """All timing parameters of the simulated TCCluster hardware."""

    # ---- link physical layer ------------------------------------------
    #: Gbit/s per lane.  Paper: HTX cable limited to 1.6 (HT800 DDR);
    #: silicon itself supports up to 5.2.
    link_gbit_per_lane: float = 1.6
    #: lanes per direction.  Paper: "16 bit wide TCCluster link".
    link_width_bits: int = 16
    #: Cable / trace propagation delay.  ~24 inch HTX cable at ~5 ns/m.
    link_propagation_ns: float = 3.0

    # ---- HT packet framing ---------------------------------------------
    #: Sized-write request header bytes (HT spec, 64-bit addressing).
    ht_header_bytes: int = 8
    #: Per-packet CRC bytes in HT3 retry mode.
    ht_crc_bytes: int = 4
    #: Maximum payload of one sized dword write (16 dwords).
    ht_max_payload: int = 64
    #: Response packet size (read response header).
    ht_response_header_bytes: int = 8

    # ---- northbridge ---------------------------------------------------
    #: Address-map + routing-table lookup and crossbar traversal for a
    #: packet entering from a link or the SRQ.  Paper Section III quotes
    #: "approximately 50 ns per hop" for HT; that hop figure includes
    #: serialization, so the internal processing share is below it.
    nb_request_ns: float = 14.0
    #: Forwarding overhead at an intermediate node (route + crossbar).
    #: Together with re-serialization (23.75 ns) this keeps the measured
    #: per-hop increment under the paper's "less than 50 ns".
    nb_forward_ns: float = 18.0
    #: IO bridge conversion between coherent and non-coherent packets.
    nb_iobridge_ns: float = 6.0
    #: Posted-write buffering in the fabric, in packets (see module doc).
    posted_buffer_packets: int = 2048
    #: HT flow-control credits per virtual channel at each receiver.
    link_credits_per_vc: int = 32

    # ---- memory system ---------------------------------------------------
    #: DRAM write (posted, to open page) at the receiving memory controller.
    dram_write_ns: float = 30.0
    #: Uncacheable DRAM read latency (polling path, cache bypassed).
    dram_read_uc_ns: float = 70.0
    #: Cacheable DRAM read miss latency.
    dram_read_ns: float = 75.0
    #: L1/L2/L3 hit latencies (Shanghai, 2.8 GHz, in ns).
    l1_hit_ns: float = 1.1
    l2_hit_ns: float = 5.4
    l3_hit_ns: float = 16.0

    # ---- CPU store path ---------------------------------------------------
    #: Time for the core to fill one 64-byte WC buffer and hand it to the
    #: SRQ (eight 64-bit stores through the store queue).  5333 MB/s.
    wc_line_fill_ns: float = 12.0
    #: Extra stall for sfence to drain store queue + WC buffers to the SRQ.
    sfence_drain_ns: float = 20.0
    #: Number of write-combining buffers ("The Opteron provides eight
    #: write combining buffers", paper Section VI).
    wc_buffers: int = 8
    #: Per-send() software overhead in the message library (ring-slot
    #: bookkeeping, write-pointer update).  Calibrated so the 64 B point of
    #: the weakly-ordered curve lands at the abstract's "2500 MB/s for
    #: messages as small as 64 Byte".
    send_overhead_ns: float = 13.5
    #: Receive-side software overhead per message (copy out + slot free).
    recv_overhead_ns: float = 20.0
    #: Polling loop iteration (UC load issue + compare + branch).
    poll_iteration_ns: float = 12.0
    #: Per-store cost on the UC (non-combining, strongly ordered) path --
    #: the write-combining ablation disables WC and pays this per 8 bytes.
    uc_store_ns: float = 10.0
    #: WB store / cache-pipeline cost per store burst.
    wb_store_ns: float = 1.0

    # ---- coherence (supernode substrate / motivation ablation) ----------
    #: Probe processing at a snooping cache.
    probe_process_ns: float = 12.0
    #: Probe response collection overhead per responder at the requester.
    probe_response_ns: float = 4.0
    #: Coherent HT hop latency (on-board traces, full speed links).
    cht_hop_ns: float = 50.0

    # ---- derived helpers ---------------------------------------------------
    @property
    def link_bytes_per_ns(self) -> float:
        """Raw unidirectional link rate in bytes/ns."""
        return self.link_width_bits * self.link_gbit_per_lane / 8.0

    def wire_bytes(self, payload: int) -> int:
        """Wire footprint of one posted write carrying ``payload`` bytes."""
        if payload < 0 or payload > self.ht_max_payload:
            raise ValueError(
                f"payload {payload} outside [0, {self.ht_max_payload}]"
            )
        return self.ht_header_bytes + payload + self.ht_crc_bytes

    def serialization_ns(self, payload: int) -> float:
        """Time to clock one posted write onto the link."""
        return self.wire_bytes(payload) / self.link_bytes_per_ns

    def scaled(self, **overrides) -> "TimingModel":
        """A copy with some parameters replaced (for sweeps/ablations)."""
        return replace(self, **overrides)


#: The calibrated prototype configuration (HT800 x16 over the HTX cable).
DEFAULT_TIMING = TimingModel()


@dataclass(frozen=True)
class IBModel:
    """Infiniband ConnectX baseline, calibrated to the paper's quotes.

    Paper Section VI: "the Infiniband ConnectX network adapter from
    Mellanox can be referenced.  It provides an MPI bandwidth of 2500 MB/s
    for 1 MB messages, 1500 MB/s for 1K messages and 200 MB/s for cacheline
    sized messages" and Section I: "end-to-end latency of about 1.4 us".

    Those three bandwidth points pin down a classic two-parameter NIC
    model: per-message initiation overhead (driver + doorbell + WQE fetch +
    DMA setup) and a streaming rate:

    * 64 B  / 200 MB/s  -> 320 ns total per message; less the 64-byte wire
      time (~25 ns) that's a 295 ns initiation overhead,
    * 1 KB: 1024 / (295 ns + 1024/r) = 1500 MB/s -> r ~ 2.6 bytes/ns
    * 1 MB: 1048576 / (295 ns + 1048576/r) = 2500 MB/s -> r ~ 2.60 bytes/ns
    """

    per_message_overhead_ns: float = 295.0
    stream_bytes_per_ns: float = 2.6
    #: One-way small-message latency ("about 1.4 us").
    base_latency_ns: float = 1400.0
    #: MTU for segmentation.
    mtu_bytes: int = 2048
    #: DMA engine segment setup cost.
    per_segment_ns: float = 24.0

    def message_gap_ns(self, size: int) -> float:
        """Steady-state time between back-to-back messages of ``size``."""
        return self.per_message_overhead_ns + size / self.stream_bytes_per_ns

    def bandwidth_mbps(self, size: int) -> float:
        return size / self.message_gap_ns(size) * 1000.0

    def latency_ns(self, size: int) -> float:
        """Half-round-trip latency for a message of ``size`` bytes."""
        return self.base_latency_ns + size / self.stream_bytes_per_ns


DEFAULT_IB = IBModel()


@dataclass(frozen=True)
class EthernetModel:
    """A 10 GbE + kernel TCP stack baseline for the motivation tables."""

    per_message_overhead_ns: float = 4000.0  # syscall + stack traversal
    stream_bytes_per_ns: float = 1.1         # ~9 Gbit/s goodput
    base_latency_ns: float = 15000.0         # ~15 us typical kernel RTT/2
    mtu_bytes: int = 1500
    per_segment_ns: float = 80.0

    def message_gap_ns(self, size: int) -> float:
        return self.per_message_overhead_ns + size / self.stream_bytes_per_ns

    def bandwidth_mbps(self, size: int) -> float:
        return size / self.message_gap_ns(size) * 1000.0

    def latency_ns(self, size: int) -> float:
        return self.base_latency_ns + size / self.stream_bytes_per_ns
