//! The traced `coherence` run.
//!
//! The cluster's board shards are private to `enzian-platform`, so this
//! module rebuilds one from the same public calls (`EciSystem::try_*`,
//! the bridge codec, `Channel::send`) and wraps each call in a span.
//! The board logic follows `enzian_platform::cluster` step for step;
//! the traced report must equal the untraced one on every field that
//! does not depend on the engine, which the caller checks.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use enzian_eci::bridge::{decode_bridge, encode_bridge, BridgeMsg, BridgeOp};
use enzian_eci::{EciSystem, EngineStats};
use enzian_mem::Addr;
use enzian_net::eth::{EthLinkConfig, FRAME_OVERHEAD_BYTES};
use enzian_platform::cluster::{ClusterRunReport, ClusterWorkload, EnzianCluster, FlowStats};
use enzian_sim::par::{run_conservative, Envelope, EpochWindow, ParConfig, Shard};
use enzian_sim::{Channel, ChannelConfig, Duration, SimRng, Time};

use crate::trace::{Layer, Tracer};
use crate::traced::{Fnv, StepClock, TracedRun};
use crate::workload::add_engine_stats;

type WorkKey = (Time, u8, u64, u64);
type Out = Vec<(usize, Envelope<Vec<u8>>)>;

struct PendingOp {
    write: bool,
    global: u64,
    fill: u8,
}

struct Stream {
    rng: SimRng,
    at: Time,
    remaining: u64,
    blocked: Option<PendingOp>,
    shadow: BTreeMap<u64, Option<u8>>,
}

struct Board {
    id: usize,
    n: usize,
    slice_bytes: u64,
    streams_per_board: usize,
    slots_per_stream: u64,
    remote_bp: u64,
    write_bp: u64,
    bridge_latency: Duration,
    sys: EciSystem,
    out: Vec<Option<Channel>>,
    streams: Vec<Stream>,
    inbox: BinaryHeap<Reverse<Envelope<Vec<u8>>>>,
    seq: u32,
    flows: Vec<FlowStats>,
    last: Time,
    local_reads: u64,
    local_writes: u64,
    remote_reads: u64,
    remote_writes: u64,
    nacks: u64,
    failures: u64,
    tracer: Tracer,
    clock: StepClock,
}

impl Board {
    fn slot_offset(&self, stream: usize, slot: u64) -> u64 {
        ((self.id * self.streams_per_board + stream) as u64 * self.slots_per_stream + slot) * 128
    }

    fn next_key(&self) -> Option<WorkKey> {
        let mut best: Option<WorkKey> = None;
        if let Some(Reverse(env)) = self.inbox.peek() {
            best = Some((env.at, 0, env.src as u64, env.seq));
        }
        for (i, s) in self.streams.iter().enumerate() {
            if s.remaining == 0 || s.blocked.is_some() {
                continue;
            }
            let k = (s.at, 1, i as u64, 0);
            if best.is_none_or(|b| k < b) {
                best = Some(k);
            }
        }
        best
    }

    fn next_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn send_frame(&mut self, dst: usize, at: Time, msg: &BridgeMsg, out: &mut Out) {
        let bytes = self.tracer.span(Layer::BridgeCodec, || encode_bridge(msg));
        let payload = match msg.op {
            BridgeOp::ReadResp(_) | BridgeOp::WriteReq(_) => 128,
            _ => 0,
        };
        let ch = self.out[dst].as_mut().expect("no channel to self");
        let len = bytes.len() as u64;
        let xfer = self.tracer.span(Layer::ChannelSend, || ch.send(at, len));
        let flow = &mut self.flows[dst];
        flow.frames += 1;
        flow.payload_bytes += payload;
        flow.wire_bytes += len;
        out.push((
            dst,
            Envelope {
                at: xfer.done + self.bridge_latency,
                src: self.id,
                seq: u64::from(msg.seq),
                payload: bytes,
            },
        ));
    }

    fn reply(&mut self, to: &BridgeMsg, op: BridgeOp, at: Time, out: &mut Out) {
        self.last = self.last.max(at);
        let reply = BridgeMsg {
            src: self.id as u8,
            dst: to.src,
            token: to.token,
            addr: to.addr,
            seq: self.next_seq(),
            op,
        };
        self.send_frame(usize::from(to.src), at, &reply, out);
    }

    fn process_envelope(&mut self, out: &mut Out) {
        let Reverse(env) = self.inbox.pop().expect("inbox not empty");
        let msg = self
            .tracer
            .span(Layer::BridgeCodec, || decode_bridge(&env.payload))
            .expect("fabric frames survive transit");
        let sys = &mut self.sys;
        match &msg.op {
            BridgeOp::ReadReq => {
                let local = Addr(msg.addr % self.slice_bytes);
                let (op, at) = match self
                    .tracer
                    .span(Layer::EciOp, || sys.try_fpga_read_line(env.at, local))
                {
                    Ok((data, served)) => (BridgeOp::ReadResp(Box::new(data)), served),
                    Err(_) => (BridgeOp::Nack, env.at + Duration::from_us(1)),
                };
                self.reply(&msg, op, at, out);
            }
            BridgeOp::WriteReq(data) => {
                let local = Addr(msg.addr % self.slice_bytes);
                let (op, at) = match self.tracer.span(Layer::EciOp, || {
                    sys.try_fpga_write_line(env.at, local, data)
                }) {
                    Ok(committed) => (BridgeOp::WriteAck, committed),
                    Err(_) => (BridgeOp::Nack, env.at + Duration::from_us(1)),
                };
                self.reply(&msg, op, at, out);
            }
            BridgeOp::ReadResp(data) => {
                let s = &mut self.streams[usize::from(msg.token)];
                let p = s.blocked.take().expect("response for an idle stream");
                if let Some(Some(fill)) = s.shadow.get(&p.global) {
                    assert_eq!(
                        data.as_ref(),
                        &[*fill; 128],
                        "bridged read returned stale data"
                    );
                }
                s.at = env.at;
                s.remaining -= 1;
                self.remote_reads += 1;
                self.last = self.last.max(env.at);
            }
            BridgeOp::WriteAck => {
                let s = &mut self.streams[usize::from(msg.token)];
                let p = s.blocked.take().expect("ack for an idle stream");
                s.shadow.insert(p.global, Some(p.fill));
                s.at = env.at;
                s.remaining -= 1;
                self.remote_writes += 1;
                self.last = self.last.max(env.at);
            }
            BridgeOp::Nack => {
                let s = &mut self.streams[usize::from(msg.token)];
                let p = s.blocked.take().expect("nack for an idle stream");
                if p.write {
                    s.shadow.insert(p.global, None);
                }
                s.at = env.at;
                s.remaining -= 1;
                self.nacks += 1;
                self.failures += 1;
                self.last = self.last.max(env.at);
            }
            BridgeOp::SvcClient(_)
            | BridgeOp::SvcRep(_)
            | BridgeOp::SvcCtl(_)
            | BridgeOp::Tcp(_) => {
                unreachable!("service/traffic frames never ride the memory-bridge workload")
            }
        }
    }

    fn process_stream(&mut self, si: usize, out: &mut Out) {
        let (at, remote, write, slot, fill, dst) = {
            let s = &mut self.streams[si];
            let remote = self.n > 1 && s.rng.next_below(10_000) < self.remote_bp;
            let write = s.rng.next_below(10_000) < self.write_bp;
            let slot = s.rng.next_below(self.slots_per_stream);
            let fill = s.rng.next_u64() as u8;
            let dst = if remote {
                let r = s.rng.next_below(self.n as u64 - 1) as usize;
                if r >= self.id {
                    r + 1
                } else {
                    r
                }
            } else {
                self.id
            };
            (s.at, remote, write, slot, fill, dst)
        };
        let offset = self.slot_offset(si, slot);
        let global = dst as u64 * self.slice_bytes + offset;
        let sys = &mut self.sys;
        if !remote {
            let local = Addr(offset);
            if write {
                let line = [fill; 128];
                match self
                    .tracer
                    .span(Layer::EciOp, || sys.try_cpu_write_line(at, local, &line))
                {
                    Ok(done) => {
                        let s = &mut self.streams[si];
                        s.shadow.insert(global, Some(fill));
                        s.at = done;
                        s.remaining -= 1;
                        self.local_writes += 1;
                        self.last = self.last.max(done);
                    }
                    Err(_) => self.fail_local(si, at, Some(global)),
                }
            } else {
                match self
                    .tracer
                    .span(Layer::EciOp, || sys.try_cpu_read_line(at, local))
                {
                    Ok((data, done)) => {
                        let s = &mut self.streams[si];
                        if let Some(Some(expect)) = s.shadow.get(&global) {
                            assert_eq!(data, [*expect; 128], "local read returned stale data");
                        }
                        s.at = done;
                        s.remaining -= 1;
                        self.local_reads += 1;
                        self.last = self.last.max(done);
                    }
                    Err(_) => self.fail_local(si, at, None),
                }
            }
        } else {
            let op = if write {
                BridgeOp::WriteReq(Box::new([fill; 128]))
            } else {
                BridgeOp::ReadReq
            };
            let msg = BridgeMsg {
                src: self.id as u8,
                dst: dst as u8,
                token: si as u8,
                addr: global,
                seq: self.next_seq(),
                op,
            };
            self.streams[si].blocked = Some(PendingOp {
                write,
                global,
                fill,
            });
            self.send_frame(dst, at, &msg, out);
        }
    }

    fn fail_local(&mut self, si: usize, at: Time, poisoned: Option<u64>) {
        let s = &mut self.streams[si];
        if let Some(global) = poisoned {
            s.shadow.insert(global, None);
        }
        s.at = at + Duration::from_us(1);
        s.remaining -= 1;
        self.failures += 1;
        self.last = self.last.max(s.at);
    }

    fn digest_into(&self, d: &mut Fnv) {
        d.u64(self.id as u64);
        for s in &self.streams {
            d.u64(s.at.as_ps());
            d.u64(s.remaining);
            for (addr, val) in &s.shadow {
                d.u64(*addr);
                match val {
                    Some(v) => {
                        d.u64(1);
                        d.u64(u64::from(*v));
                    }
                    None => d.u64(2),
                }
            }
        }
        for f in &self.flows {
            d.u64(f.frames);
            d.u64(f.payload_bytes);
            d.u64(f.wire_bytes);
        }
        d.u64(self.last.as_ps());
        d.u64(self.local_reads);
        d.u64(self.local_writes);
        d.u64(self.remote_reads);
        d.u64(self.remote_writes);
        d.u64(self.nacks);
        d.u64(self.failures);
        d.bytes(self.sys.trace().wire_bytes());
    }
}

impl Shard for Board {
    type Msg = Vec<u8>;

    fn step(&mut self, window: EpochWindow, arrivals: Vec<Envelope<Vec<u8>>>, out: &mut Out) {
        self.clock.enter(&mut self.tracer);
        for env in arrivals {
            self.inbox.push(Reverse(env));
        }
        while let Some(key) = self.next_key() {
            if key.0 >= window.end {
                break;
            }
            if key.1 == 0 {
                self.process_envelope(out);
            } else {
                self.process_stream(key.2 as usize, out);
            }
        }
        self.clock.exit(&mut self.tracer);
    }

    fn idle(&self) -> bool {
        self.inbox.is_empty()
            && self
                .streams
                .iter()
                .all(|s| s.remaining == 0 && s.blocked.is_none())
    }

    fn next_activity(&self) -> Option<Time> {
        self.next_key().map(|k| k.0)
    }
}

/// A traced coherence run: the rebuilt report and the boards' engine
/// counters.
pub struct CoherenceRun {
    /// The report `EnzianCluster::run_parallel` builds.
    pub report: ClusterRunReport,
    /// Engine counters summed over the boards.
    pub engine: EngineStats,
}

/// Runs `w` traced on a fresh `boards`-board cluster with `threads`
/// workers.
///
/// # Panics
///
/// Panics when `w` injects faults: the benchmark's coherence workload
/// runs fault-free, and the traced boards do not install fault plans.
pub fn run(
    boards: usize,
    slice_bytes: u64,
    w: &ClusterWorkload,
    threads: usize,
    span_budget: usize,
) -> TracedRun<CoherenceRun> {
    assert_eq!(w.fault_rate_bp, 0, "the traced cluster runs fault-free");
    // The cluster supplies the board configuration and the timing
    // constants; its own boards are not used.
    let cluster = EnzianCluster::new(boards, slice_bytes);
    let link = EthLinkConfig::hundred_gig();
    let bridge_latency = cluster.lookahead() - link.propagation;
    let chan_cfg = ChannelConfig {
        bits_per_sec: link.bits_per_sec,
        coding_efficiency: 1.0,
        propagation: link.propagation,
        frame_overhead_bytes: FRAME_OVERHEAD_BYTES,
    };
    let origin = Instant::now();
    let mut shards: Vec<Board> = (0..boards)
        .map(|id| Board {
            id,
            n: boards,
            slice_bytes,
            streams_per_board: w.streams_per_board,
            slots_per_stream: w.slots_per_stream,
            remote_bp: w.remote_bp,
            write_bp: w.write_bp,
            bridge_latency,
            sys: EciSystem::new(cluster.board_config()),
            out: (0..boards)
                .map(|d| (d != id).then(|| Channel::new(chan_cfg)))
                .collect(),
            streams: (0..w.streams_per_board)
                .map(|s| Stream {
                    rng: SimRng::seed_from(
                        w.seed
                            ^ ((id * w.streams_per_board + s) as u64 + 1)
                                .wrapping_mul(0x2545_F491_4F6C_DD1D),
                    ),
                    at: Time::ZERO + Duration::from_ns(50) * s as u64,
                    remaining: w.ops_per_stream,
                    blocked: None,
                    shadow: BTreeMap::new(),
                })
                .collect(),
            inbox: BinaryHeap::new(),
            seq: 0,
            flows: vec![FlowStats::default(); boards],
            last: Time::ZERO,
            local_reads: 0,
            local_writes: 0,
            remote_reads: 0,
            remote_writes: 0,
            nacks: 0,
            failures: 0,
            tracer: Tracer::new(origin, span_budget),
            clock: StepClock::default(),
        })
        .collect();
    let cfg = ParConfig::new(cluster.lookahead())
        .with_threads(threads)
        .with_channel_capacity(256);
    let start = Instant::now();
    let par = run_conservative(&mut shards, &cfg);
    let wall_s = start.elapsed().as_secs_f64();
    let report = finish(&shards, w, par.epochs, par.epochs_skipped, par.messages);
    let mut engine = EngineStats::default();
    for s in &shards {
        add_engine_stats(&mut engine, s.sys.engine_stats());
    }
    let (tracers, clocks) = shards.into_iter().map(|b| (b.tracer, b.clock)).unzip();
    TracedRun {
        report: CoherenceRun { report, engine },
        wall_s,
        tracers,
        clocks,
    }
}

/// The report `enzian_platform::cluster` builds, from the traced boards.
fn finish(
    shards: &[Board],
    w: &ClusterWorkload,
    epochs: u64,
    epochs_skipped: u64,
    messages: u64,
) -> ClusterRunReport {
    let n = shards.len();
    let mut r = ClusterRunReport {
        boards: n,
        total_ops: (n * w.streams_per_board) as u64 * w.ops_per_stream,
        local_reads: 0,
        local_writes: 0,
        remote_reads: 0,
        remote_writes: 0,
        nacks: 0,
        failures: 0,
        bridge_frames: 0,
        bridge_payload_bytes: 0,
        bridge_wire_bytes: 0,
        sim_end: Time::ZERO,
        epochs,
        epochs_skipped,
        messages,
        trace_digest: 0,
        flows: Vec::with_capacity(n),
    };
    let mut digest = Fnv::new();
    for s in shards {
        assert!(s.idle(), "run finished with live work on a board");
        assert!(
            s.sys.checker().violations().is_empty(),
            "board {}: {:?}",
            s.id,
            s.sys.checker().violations()
        );
        s.digest_into(&mut digest);
        r.local_reads += s.local_reads;
        r.local_writes += s.local_writes;
        r.remote_reads += s.remote_reads;
        r.remote_writes += s.remote_writes;
        r.nacks += s.nacks;
        r.failures += s.failures;
        r.sim_end = r.sim_end.max(s.last);
        for f in &s.flows {
            r.bridge_frames += f.frames;
            r.bridge_payload_bytes += f.payload_bytes;
            r.bridge_wire_bytes += f.wire_bytes;
        }
        r.flows.push(s.flows.clone());
    }
    r.trace_digest = digest.0;
    r
}
