//! The traced `traffic` run.
//!
//! The platform's traffic boards are private to `enzian-platform`, so
//! this module rebuilds one from the same public calls
//! (`SessionMux::open/on_segment/fire_next_timer`, the segment and
//! bridge codecs, `Channel::send`) and wraps each call in a span. The
//! board logic follows `enzian_platform::traffic` step for step; the
//! traced report must equal the untraced one on every field that does
//! not depend on the engine, which the caller checks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use enzian_eci::bridge::{decode_bridge, encode_bridge, BridgeMsg, BridgeOp};
use enzian_net::eth::{EthLinkConfig, FRAME_OVERHEAD_BYTES};
use enzian_net::tcp::{LossPattern, SessionMux, WireSegment, SEGMENT_LOSS_TARGET};
use enzian_net::traffic::{decode_segment, encode_segment, PortMask};
use enzian_platform::cluster::FlowStats;
use enzian_platform::traffic::{TrafficRunReport, TrafficWorkload};
use enzian_sim::par::{run_conservative, Envelope, EpochWindow, ParConfig, Shard};
use enzian_sim::stats::LatencyHistogram;
use enzian_sim::{Channel, ChannelConfig, Duration, FaultPlan, FaultSpec, Time};

use crate::trace::{Layer, Tracer};
use crate::traced::{Fnv, StepClock, TracedRun};

/// The top-of-rack hop every inter-board frame crosses.
const SWITCH_LATENCY: Duration = Duration::from_us(1);

type WorkKey = (Time, u8, u64, u64);
type Out = Vec<(usize, Envelope<Vec<u8>>)>;

struct Board {
    id: usize,
    n: usize,
    w: TrafficWorkload,
    mux: SessionMux,
    opens_left: u64,
    opens_issued: u64,
    next_open: Option<Time>,
    out: Vec<Option<Channel>>,
    inbox: BinaryHeap<Reverse<Envelope<Vec<u8>>>>,
    seq: u64,
    flows: Vec<FlowStats>,
    buf: Vec<WireSegment>,
    last: Time,
    tracer: Tracer,
    clock: StepClock,
}

impl Board {
    fn open_dst(&self, i: u64) -> u8 {
        if self.w.proxy {
            return 1;
        }
        let others = self.n as u64 - 1;
        ((self.id as u64 + 1 + i % others) % self.n as u64) as u8
    }

    fn next_key(&self) -> Option<WorkKey> {
        let mut best: Option<WorkKey> = None;
        let consider = |k: WorkKey, best: &mut Option<WorkKey>| {
            if best.is_none_or(|b| k < b) {
                *best = Some(k);
            }
        };
        if let Some(Reverse(env)) = self.inbox.peek() {
            consider((env.at, 0, env.src as u64, env.seq), &mut best);
        }
        if let Some((t, seq)) = self.mux.next_timer() {
            consider((t, 1, seq, 0), &mut best);
        }
        if let Some(t) = self.next_open {
            consider((t, 2, 0, 0), &mut best);
        }
        best
    }

    fn flush(&mut self, out: &mut Out) {
        let mut buf = std::mem::take(&mut self.buf);
        for ws in buf.drain(..) {
            let dst = usize::from(ws.seg.dst_board);
            let segment = self
                .tracer
                .span(Layer::SegmentCodec, || encode_segment(&ws.seg));
            let msg = BridgeMsg {
                src: self.id as u8,
                dst: ws.seg.dst_board,
                token: 0,
                addr: 0,
                seq: self.seq as u32,
                op: BridgeOp::Tcp(segment),
            };
            let frame = self.tracer.span(Layer::BridgeCodec, || encode_bridge(&msg));
            let wire = frame.len() as u64 + u64::from(ws.seg.len);
            let ch = self.out[dst].as_mut().expect("no channel to self");
            let xfer = self
                .tracer
                .span(Layer::ChannelSend, || ch.send(ws.at, wire));
            let flow = &mut self.flows[dst];
            flow.frames += 1;
            flow.payload_bytes += u64::from(ws.seg.len);
            flow.wire_bytes += wire;
            out.push((
                dst,
                Envelope {
                    at: xfer.done + SWITCH_LATENCY,
                    src: self.id,
                    seq: self.seq,
                    payload: frame,
                },
            ));
            self.seq += 1;
        }
        self.buf = buf;
    }

    fn process_next(&mut self, out: &mut Out) {
        let key = self.next_key().expect("process_next on a quiescent board");
        match key.1 {
            0 => {
                let Reverse(env) = self.inbox.pop().expect("inbox not empty");
                self.last = self.last.max(env.at);
                let msg = self
                    .tracer
                    .span(Layer::BridgeCodec, || decode_bridge(&env.payload))
                    .expect("fabric frames survive transit");
                let BridgeOp::Tcp(bytes) = &msg.op else {
                    unreachable!("non-traffic frame on the traffic fabric")
                };
                let seg = self
                    .tracer
                    .span(Layer::SegmentCodec, || decode_segment(bytes))
                    .expect("segments survive transit");
                let (mux, buf) = (&mut self.mux, &mut self.buf);
                self.tracer
                    .span(Layer::MuxSegment, || mux.on_segment(env.at, &seg, buf));
            }
            1 => {
                let (mux, buf) = (&mut self.mux, &mut self.buf);
                if let Some(at) = self
                    .tracer
                    .span(Layer::MuxTimer, || mux.fire_next_timer(buf))
                {
                    self.last = self.last.max(at);
                }
            }
            2 => {
                let now = key.0;
                self.last = self.last.max(now);
                let dst = self.open_dst(self.opens_issued);
                let (bytes, hold) = (self.w.bytes_per_session, self.w.hold);
                let (mux, buf) = (&mut self.mux, &mut self.buf);
                self.tracer
                    .span(Layer::MuxOpen, || mux.open(now, dst, bytes, hold, buf));
                self.opens_issued += 1;
                self.opens_left -= 1;
                self.next_open = (self.opens_left > 0).then(|| now + self.w.open_gap);
            }
            _ => unreachable!("unknown work class"),
        }
        self.flush(out);
    }

    fn digest_into(&self, d: &mut Fnv) {
        d.u64(self.id as u64);
        d.u64(self.mux.state_digest());
        for f in &self.flows {
            d.u64(f.frames);
            d.u64(f.payload_bytes);
            d.u64(f.wire_bytes);
        }
        d.u64(self.last.as_ps());
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
            self.process_next(out);
        }
        self.clock.exit(&mut self.tracer);
    }

    fn idle(&self) -> bool {
        self.inbox.is_empty() && self.next_open.is_none() && self.mux.idle()
    }

    fn next_activity(&self) -> Option<Time> {
        self.next_key().map(|k| k.0)
    }
}

fn loss_for(w: &TrafficWorkload, board: u8) -> LossPattern {
    if w.loss_bp == 0 {
        return LossPattern::none();
    }
    let seed = w
        .seed
        .wrapping_add((u64::from(board) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut plan = FaultPlan::new(seed);
    plan.add(FaultSpec::probability(
        SEGMENT_LOSS_TARGET,
        f64::from(w.loss_bp) / 10_000.0,
    ));
    LossPattern::from_plan(plan)
}

fn make_boards(w: &TrafficWorkload, origin: Instant, span_budget: usize) -> Vec<Board> {
    w.validate();
    let n = usize::from(w.boards);
    let mask = PortMask::for_boards(n);
    let link = EthLinkConfig::hundred_gig();
    let chan_cfg = ChannelConfig {
        bits_per_sec: link.bits_per_sec,
        coding_efficiency: 1.0,
        propagation: link.propagation,
        frame_overhead_bytes: FRAME_OVERHEAD_BYTES,
    };
    (0..n)
        .map(|id| {
            let mut mux =
                SessionMux::new(id as u8, w.stack.config(), mask).with_loss(loss_for(w, id as u8));
            if w.proxy && id == 1 {
                mux = mux.with_proxy_route(2);
            }
            let generates = !w.proxy || id == 0;
            let opens = if generates { w.sessions_per_board } else { 0 };
            Board {
                id,
                n,
                w: *w,
                mux,
                opens_left: opens,
                opens_issued: 0,
                next_open: (opens > 0)
                    .then(|| Time::ZERO + Duration::from_ns(50) * (id as u64 + 1)),
                out: (0..n)
                    .map(|d| (d != id).then(|| Channel::new(chan_cfg)))
                    .collect(),
                inbox: BinaryHeap::new(),
                seq: 0,
                flows: vec![FlowStats::default(); n],
                buf: Vec::new(),
                last: Time::ZERO,
                tracer: Tracer::new(origin, span_budget),
                clock: StepClock::default(),
            }
        })
        .collect()
}

/// Runs `w` traced on `threads` workers and rebuilds the platform's
/// report from the traced boards.
pub fn run(w: &TrafficWorkload, threads: usize, span_budget: usize) -> TracedRun<TrafficRunReport> {
    let origin = Instant::now();
    let mut boards = make_boards(w, origin, span_budget);
    let cfg = ParConfig::new(w.lookahead())
        .with_threads(threads)
        .with_channel_capacity(256);
    let start = Instant::now();
    let par = run_conservative(&mut boards, &cfg);
    let wall_s = start.elapsed().as_secs_f64();
    let report = finish(&boards, par.epochs, par.epochs_skipped, par.messages);
    let (tracers, clocks) = boards.into_iter().map(|b| (b.tracer, b.clock)).unzip();
    TracedRun {
        report,
        wall_s,
        tracers,
        clocks,
    }
}

/// The report `enzian_platform::traffic` builds, from the traced boards.
fn finish(boards: &[Board], epochs: u64, epochs_skipped: u64, messages: u64) -> TrafficRunReport {
    let mut digest = Fnv::new();
    let mut r = TrafficRunReport {
        boards: boards.len(),
        opened: 0,
        completed: 0,
        accepted: 0,
        closed_server: 0,
        relayed_sessions: 0,
        peak_flows: 0,
        peak_flows_board: 0,
        table_slots: 0,
        segments_tx: 0,
        segments_rx: 0,
        data_segments: 0,
        control_segments: 0,
        dup_acks: 0,
        payload_delivered: 0,
        relayed_bytes: 0,
        retransmissions: 0,
        rto_fires: 0,
        out_of_order: 0,
        losses_injected: 0,
        losses_recovered: 0,
        frames: 0,
        wire_bytes: 0,
        handshake: LatencyHistogram::new(),
        session: LatencyHistogram::new(),
        sim_end: Time::ZERO,
        epochs,
        epochs_skipped,
        messages,
        digest: 0,
    };
    for b in boards {
        assert!(b.idle(), "run finished with live work on a board");
        b.digest_into(&mut digest);
        let s = b.mux.stats();
        r.opened += s.opened;
        r.completed += s.completed;
        r.accepted += s.accepted;
        r.closed_server += s.closed_server;
        r.relayed_sessions += s.relayed_sessions;
        r.peak_flows += u64::from(b.mux.peak_flows());
        r.peak_flows_board = r.peak_flows_board.max(u64::from(b.mux.peak_flows()));
        r.table_slots += u64::from(b.mux.table_slots());
        r.segments_tx += s.segments_tx;
        r.segments_rx += s.segments_rx;
        r.data_segments += s.data_segments;
        r.control_segments += s.control_segments;
        r.dup_acks += s.dup_acks;
        r.payload_delivered += s.payload_delivered;
        r.relayed_bytes += s.relayed_bytes;
        r.retransmissions += s.retransmissions;
        r.rto_fires += s.rto_fires;
        r.out_of_order += s.out_of_order;
        r.losses_injected += b.mux.loss().plan().injected(SEGMENT_LOSS_TARGET);
        r.losses_recovered += b.mux.loss().plan().recovered(SEGMENT_LOSS_TARGET);
        r.handshake.merge(&s.handshake);
        r.session.merge(&s.session);
        r.sim_end = r.sim_end.max(b.last);
        for f in &b.flows {
            r.frames += f.frames;
            r.wire_bytes += f.wire_bytes;
        }
    }
    r.digest = digest.0;
    r
}
