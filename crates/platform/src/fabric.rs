//! The bridge fabric as one board sees it, shared by the three board
//! models on the conservative-parallel engine ([`crate::cluster`],
//! [`crate::service`] and [`crate::traffic`]): per-destination 100 Gb/s
//! channels, their traffic ledgers, the envelope sequence counter, and
//! the digest every run report is folded into.

use enzian_net::eth::{EthLinkConfig, FRAME_OVERHEAD_BYTES};
use enzian_sim::channel::Transfer;
use enzian_sim::{Channel, ChannelConfig, Fnv, Time};

/// Per-destination traffic accounting for one board's bridge, as seen
/// at the sender. `wire_bytes` is what the sender's channel carried;
/// it splits per fabric: `payload_bytes + frames ×`
/// [`BRIDGE_HEADER`](crate::cluster::BRIDGE_HEADER) for the cluster and
/// service fabrics, plus a 28-byte segment header per frame for
/// traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Bridge frames sent to this destination.
    pub frames: u64,
    /// Payload bytes carried by those frames.
    pub payload_bytes: u64,
    /// Total bytes handed to the fabric.
    pub wire_bytes: u64,
}

/// One board's sending half of the bridge fabric: a 100 Gb/s channel
/// and a [`FlowStats`] ledger per destination board, plus the board's
/// envelope sequence counter.
///
/// Every flow's `wire_bytes` equals its channel's
/// [`Channel::bytes_carried`]; [`FabricPort::audit`] asserts it. The
/// payload/header split is per fabric:
///
/// * cluster and service frames are the whole bridge encoding, so
///   `wire_bytes == payload_bytes + frames *`
///   [`BRIDGE_HEADER`](crate::cluster::BRIDGE_HEADER);
/// * traffic frames also carry the 28-byte encoded segment header
///   ([`SEGMENT_HEADER_BYTES`](enzian_net::traffic::SEGMENT_HEADER_BYTES))
///   and are charged for their synthetic payload, so
///   `wire_bytes == payload_bytes + frames * (BRIDGE_HEADER + 28)`.
pub(crate) struct FabricPort {
    id: usize,
    /// Outgoing channel per destination board (`None` for self).
    channels: Vec<Option<Channel>>,
    flows: Vec<FlowStats>,
    seq: u64,
}

impl FabricPort {
    /// Board `id`'s port onto a full mesh of `n` boards.
    pub(crate) fn new(id: usize, n: usize) -> Self {
        let link = EthLinkConfig::hundred_gig();
        let cfg = ChannelConfig {
            bits_per_sec: link.bits_per_sec,
            coding_efficiency: 1.0,
            propagation: link.propagation,
            frame_overhead_bytes: FRAME_OVERHEAD_BYTES,
        };
        FabricPort {
            id,
            channels: (0..n)
                .map(|d| (d != id).then(|| Channel::new(cfg)))
                .collect(),
            flows: vec![FlowStats::default(); n],
            seq: 0,
        }
    }

    /// Takes the board's next envelope sequence number. `(board, seq)`
    /// is unique, so the merge order `(time, src, seq)` is total.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Serializes a `wire`-byte frame carrying `payload` bytes onto the
    /// channel towards `dst`, starting no earlier than `at`, and
    /// accounts it.
    pub(crate) fn send(&mut self, dst: usize, at: Time, wire: u64, payload: u64) -> Transfer {
        let ch = self.channels[dst].as_mut().expect("no channel to self");
        let xfer = ch.send(at, wire);
        let flow = &mut self.flows[dst];
        flow.frames += 1;
        flow.payload_bytes += payload;
        flow.wire_bytes += wire;
        xfer
    }

    /// The ledger per destination board.
    pub(crate) fn flows(&self) -> &[FlowStats] {
        &self.flows
    }

    /// Folds every ledger into `d`.
    pub(crate) fn digest_into(&self, d: &mut Fnv) {
        for f in &self.flows {
            d.u64(f.frames);
            d.u64(f.payload_bytes);
            d.u64(f.wire_bytes);
        }
    }

    /// Asserts every ledger agrees with its channel and returns their
    /// sum over all destinations.
    ///
    /// # Panics
    ///
    /// Panics when a flow's `wire_bytes` differs from what its channel
    /// carried.
    pub(crate) fn audit(&self) -> FlowStats {
        let mut total = FlowStats::default();
        for (dst, (f, ch)) in self.flows.iter().zip(&self.channels).enumerate() {
            if let Some(ch) = ch {
                assert_eq!(
                    f.wire_bytes,
                    ch.bytes_carried(),
                    "flow accounting diverged from the channel ({} -> {dst})",
                    self.id
                );
            }
            total.frames += f.frames;
            total.payload_bytes += f.payload_bytes;
            total.wire_bytes += f.wire_bytes;
        }
        total
    }
}
