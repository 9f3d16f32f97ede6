//! The span recorder of the traced run.
//!
//! Every traced shard owns one [`Tracer`], so recording needs no
//! synchronisation. A span is opened just before a call into a layer's
//! public function and closed just after it. Each span's self time is
//! its duration minus the time its child spans cover, and its self
//! allocations are the heap allocations made inside it minus those made
//! inside its children. Both are aggregated per layer as spans close,
//! so the totals cover every call. The raw spans are kept in memory up
//! to a fixed budget per tracer and written out when the run ends.

use std::io::Write;
use std::time::Instant;

use enzian_sim::alloc_count;

/// The layer calls the traced run wraps in spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Shard::step` of one board: the root of every span tree.
    Step,
    /// `SessionMux::open`.
    MuxOpen,
    /// `SessionMux::on_segment`.
    MuxSegment,
    /// `SessionMux::fire_next_timer`.
    MuxTimer,
    /// `encode_segment` / `decode_segment`.
    SegmentCodec,
    /// `encode_bridge` / `decode_bridge`.
    BridgeCodec,
    /// `Channel::send`.
    ChannelSend,
    /// `EciSystem::try_*_line`.
    EciOp,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 8] = [
        Layer::Step,
        Layer::MuxOpen,
        Layer::MuxSegment,
        Layer::MuxTimer,
        Layer::SegmentCodec,
        Layer::BridgeCodec,
        Layer::ChannelSend,
        Layer::EciOp,
    ];

    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Step => "platform.shard.step",
            Layer::MuxOpen => "net.mux.open",
            Layer::MuxSegment => "net.mux.on_segment",
            Layer::MuxTimer => "net.mux.fire_next_timer",
            Layer::SegmentCodec => "net.traffic.codec",
            Layer::BridgeCodec => "eci.bridge.codec",
            Layer::ChannelSend => "sim.channel.send",
            Layer::EciOp => "eci.system.op",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Layers whose per-call durations are kept for percentiles.
    fn keeps_samples(self) -> bool {
        matches!(self, Layer::MuxSegment | Layer::EciOp)
    }
}

/// One closed span. `parent` is the index of the enclosing span in the
/// same tracer's span list, or `None` for a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer call the span covers.
    pub layer: Layer,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// Aggregates of one layer over every closed span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
    /// Heap allocations made inside the spans but outside their children.
    pub self_allocs: u64,
    /// Per-call durations in nanoseconds (kept for a few layers only).
    pub samples: Vec<u64>,
}

struct Open {
    layer: Layer,
    slot: Option<u32>,
    start_ns: u64,
    start_allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    span_budget: usize,
    dropped: u64,
    totals: Vec<LayerTotals>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` and which keeps at most
    /// `span_budget` raw spans.
    pub fn new(origin: Instant, span_budget: usize) -> Self {
        Tracer {
            origin,
            stack: Vec::with_capacity(8),
            spans: Vec::with_capacity(span_budget),
            span_budget,
            dropped: 0,
            totals: vec![LayerTotals::default(); Layer::ALL.len()],
        }
    }

    /// Runs `f` inside a span for `layer`, reading the host clock and
    /// the allocation counter on both sides.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.enter(layer, self.now_ns(), alloc_count::allocations());
        let r = f();
        self.exit(self.now_ns(), alloc_count::allocations());
        r
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span at `now_ns` with the allocation counter at `allocs`.
    pub fn enter(&mut self, layer: Layer, now_ns: u64, allocs: u64) {
        // The slot is claimed at open time so children can name their
        // parent; spans past the budget are aggregated but not kept.
        let slot = if self.spans.len() < self.span_budget {
            let parent = self.stack.last().and_then(|o| o.slot);
            self.spans.push(Span {
                layer,
                parent,
                start_ns: now_ns,
                end_ns: now_ns,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open {
            layer,
            slot,
            start_ns: now_ns,
            start_allocs: allocs,
            child_ns: 0,
            child_allocs: 0,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn exit(&mut self, now_ns: u64, allocs: u64) {
        let open = self.stack.pop().expect("exit without an open span");
        let dur = now_ns.saturating_sub(open.start_ns);
        let made = allocs.saturating_sub(open.start_allocs);
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = now_ns;
        }
        let t = &mut self.totals[open.layer.index()];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        t.self_allocs += made.saturating_sub(open.child_allocs);
        if open.layer.keeps_samples() {
            t.samples.push(dur);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs += made;
        }
    }

    /// The aggregates of `layer`.
    pub fn totals(&self, layer: Layer) -> &LayerTotals {
        &self.totals[layer.index()]
    }

    /// The raw spans kept, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans aggregated but not kept because the budget ran out.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Folds `other`'s aggregates into `self` (raw spans are not merged).
    pub fn absorb_totals(&mut self, other: &Tracer) {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            a.self_allocs += b.self_allocs;
            a.samples.extend_from_slice(&b.samples);
        }
    }

    /// Writes the kept spans as tab-separated
    /// `tracer, id, parent, name, start_ns, end_ns` lines.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    pub fn write_spans(&self, tracer: usize, w: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{tracer}\t{id}\t{parent}\t{}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Nearest-rank quantile `q` of ascending `sorted` samples; zero when
/// there are none. The result is always one of the samples, so it never
/// exceeds the observed maximum.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the quantiles 0.5, 0.9, 0.99, 0.999, … that leaves at
/// least ten of `n` samples beyond it (0.5 when even the median does
/// not).
pub fn tail_quantile(n: usize) -> f64 {
    // Quantile 1 - 1/d leaves n/d samples beyond it.
    let mut q = 0.5;
    let mut d = 10usize;
    while n / d >= 10 {
        q = 1.0 - 1.0 / d as f64;
        d = d.saturating_mul(10);
    }
    q
}
