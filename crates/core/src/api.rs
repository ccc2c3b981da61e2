use mlvc_graph::{EdgeMutation, Edges, Entry, Segment, VertexId, VertexIntervals, Weights};
use mlvc_log::Update;
use mlvc_mutate::MutationDelta;

/// Commutative+associative message reduction (paper §V-D). When a program
/// provides one, the sort & group unit merges each destination's messages
/// into a single update before the processing function runs.
pub type Combine = fn(u64, u64) -> u64;

/// How a program seeds superstep 1.
#[derive(Debug, Clone)]
pub enum InitActive {
    /// Every vertex is processed in superstep 1 with an empty inbox
    /// (PageRank, CDLP, coloring, MIS: "initially many vertices are
    /// active").
    All,
    /// Only the destinations of these initial updates are active in
    /// superstep 1 (BFS from a source, random-walk sources).
    Seeds(Vec<Update>),
}

/// Where processing calls put their outgoing messages: buffers the engine
/// owns, hands to one [`VertexCtx`] after another, drains and reuses. A
/// routed sink keeps one buffer per destination interval — the multi-log's
/// append unit — so a message is written once, where its log will take it
/// from; a flat sink keeps a single buffer. Each buffer holds its messages
/// in send order.
///
/// A message sent over an edge by its index ([`VertexCtx::send_along`]) has
/// no destination until that entry of the adjacency is read. The sink of an
/// engine that reads adjacency in place holds such messages — and, to keep
/// send order, every message after the first of them — until the engine
/// calls [`Self::settle`], which reads all the entries in one pass and then
/// routes the messages in the order they were sent.
pub struct SendSink {
    intervals: Option<VertexIntervals>,
    bufs: Vec<Vec<Update>>,
    /// The buffer the last message went to and the destinations it takes
    /// (inclusive): neighbours mostly share an interval, so most sends skip
    /// the interval search.
    cur: usize,
    cur_lo: VertexId,
    cur_hi: VertexId,
    /// Messages waiting for [`Self::settle`], in send order.
    held: Vec<Held>,
}

/// A message held back until the sink settles.
struct Held {
    hop: Hop,
    src: VertexId,
    data: u64,
}

/// Where a held message goes.
#[derive(Clone, Copy)]
enum Hop {
    To(VertexId),
    /// Over out-edge `edge` of the vertex the engine numbered `slot`.
    Edge { slot: usize, edge: usize },
    /// Over an edge the vertex does not have: nowhere.
    Nowhere,
}

impl SendSink {
    /// One buffer for everything.
    pub fn flat() -> Self {
        SendSink {
            intervals: None,
            bufs: vec![Vec::new()],
            cur: 0,
            cur_lo: 0,
            cur_hi: VertexId::MAX,
            held: Vec::new(),
        }
    }

    /// One buffer per interval of `intervals`.
    pub fn routed(intervals: &VertexIntervals) -> Self {
        SendSink {
            bufs: vec![Vec::new(); intervals.num_intervals()],
            // An empty range: the first send seeks.
            cur: 0,
            cur_lo: 1,
            cur_hi: 0,
            intervals: Some(intervals.clone()),
            held: Vec::new(),
        }
    }

    /// The buffers, by destination interval (a flat sink has one).
    pub fn buffers(&self) -> &[Vec<Update>] {
        &self.bufs
    }

    /// Empty every buffer, keeping its capacity for the next fill.
    pub fn clear(&mut self) {
        debug_assert!(self.held.is_empty(), "a sink is settled before it is drained");
        self.bufs.iter_mut().for_each(Vec::clear);
    }

    /// Make `cur` the buffer that takes `dest`.
    fn seek(&mut self, dest: VertexId) {
        if (self.cur_lo..=self.cur_hi).contains(&dest) {
            return;
        }
        if let Some(iv) = &self.intervals {
            let i = iv.interval_of(dest);
            (self.cur, self.cur_lo, self.cur_hi) = (i as usize, iv.start(i), iv.end(i) - 1);
        }
    }

    fn push(&mut self, u: Update) {
        if self.held.is_empty() {
            self.route(u);
        } else {
            self.held.push(Held { hop: Hop::To(u.dest), src: u.src, data: u.data });
        }
    }

    fn route(&mut self, u: Update) {
        self.seek(u.dest);
        self.bufs[self.cur].push(u);
    }

    /// `data` from `src` over out-edge `edge` of the vertex numbered `slot`:
    /// held until [`Self::settle`] reads the edge's endpoint.
    fn push_along(&mut self, src: VertexId, slot: usize, edge: usize, data: u64) {
        self.held.push(Held { hop: Hop::Edge { slot, edge }, src, data });
    }

    /// Route every held message, in send order. `endpoint(slot, edge)` reads
    /// the destination of an edge sent along by index (`None` for an edge the
    /// vertex does not have: that message goes nowhere). All the endpoints
    /// are read first, in one loop that does nothing else: the reads land
    /// anywhere in the lent pages, and only side by side do they overlap
    /// instead of each waiting out a memory latency.
    pub fn settle(&mut self, endpoint: impl Fn(usize, usize) -> Option<VertexId>) {
        for h in &mut self.held {
            if let Hop::Edge { slot, edge } = h.hop {
                h.hop = endpoint(slot, edge).map_or(Hop::Nowhere, Hop::To);
            }
        }
        let mut held = std::mem::take(&mut self.held);
        for h in held.drain(..) {
            if let Hop::To(dest) = h.hop {
                self.route(Update::new(dest, h.src, h.data));
            }
        }
        // Keep the allocation for the next fill.
        self.held = held;
    }

    /// `data` from `src` to every vertex of `dests`, one page segment of the
    /// list after another — a stored list is decoded here, in the pass that
    /// routes it, and nowhere before.
    fn push_all(&mut self, src: VertexId, dests: Edges<'_>, data: u64) {
        if !self.held.is_empty() {
            self.held.extend(dests.iter().map(|d| Held { hop: Hop::To(d), src, data }));
            return;
        }
        for seg in dests.segments() {
            match seg {
                Segment::Decoded(ids) => self.push_runs(src, ids, |&d| d, data),
                Segment::Le(ids) => self.push_runs(src, ids, |&d| VertexId::decode(d), data),
            }
        }
    }

    /// One segment of [`Self::push_all`], a run of neighbours bound for one
    /// buffer at a time — each run reserves once.
    fn push_runs<E>(
        &mut self,
        src: VertexId,
        dests: &[E],
        id: impl Fn(&E) -> VertexId + Copy,
        data: u64,
    ) {
        let mut rest = dests;
        while let Some(first) = rest.first() {
            self.seek(id(first));
            let (lo, hi) = (self.cur_lo, self.cur_hi);
            let run =
                rest.iter().position(|d| !(lo..=hi).contains(&id(d))).unwrap_or(rest.len());
            // `seek` put `first` in range; the `max` only keeps a send to a
            // vertex the graph does not have from looping here.
            let (now, later) = rest.split_at(run.max(1));
            self.bufs[self.cur].extend(now.iter().map(|d| Update::new(id(d), src, data)));
            rest = later;
        }
    }
}

/// Everything a vertex sees and does during its processing call — the
/// paper's `ProcessVertex(VertexId, VertexData, VertexUpdates)` plus the
/// `SendUpdate` / `deactivate` surface (Algorithm 2).
///
/// Engines construct one per processed vertex over a [`SendSink`] they own
/// and collect the outputs.
pub struct VertexCtx<'a> {
    v: VertexId,
    superstep: usize,
    num_vertices: usize,
    state: u64,
    msgs: &'a [Update],
    edges: Edges<'a>,
    weights: Option<Weights<'a>>,
    sink: &'a mut SendSink,
    keep_active: bool,
    structural: Vec<EdgeMutation>,
    seed: u64,
    rng_counter: u64,
    /// The engine's number for this vertex when [`Self::send_along`] is to
    /// be held in the sink; `None` reads the edge at once.
    slot: Option<usize>,
}

/// What a processing call produced besides the messages in its sink,
/// drained by the engine.
pub struct VertexOutputs {
    pub state: u64,
    pub keep_active: bool,
    pub structural: Vec<EdgeMutation>,
}

impl<'a> VertexCtx<'a> {
    /// Engine-implementor constructor. An engine that holds adjacency as
    /// slices passes them as they are (`&[VertexId]` is an [`Edges`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        v: VertexId,
        superstep: usize,
        num_vertices: usize,
        state: u64,
        msgs: &'a [Update],
        edges: impl Into<Edges<'a>>,
        weights: Option<Weights<'a>>,
        seed: u64,
        sink: &'a mut SendSink,
    ) -> Self {
        VertexCtx {
            v,
            superstep,
            num_vertices,
            state,
            msgs,
            edges: edges.into(),
            weights,
            sink,
            keep_active: false,
            structural: Vec::new(),
            seed,
            rng_counter: 0,
            slot: None,
        }
    }

    /// Engine-implementor option: hold this vertex's [`Self::send_along`]
    /// messages in the sink under the number `slot`, for the engine to give
    /// their endpoints when it calls [`SendSink::settle`] after the
    /// processing calls — an engine whose adjacency is read in place, where
    /// it pays to read many endpoints side by side.
    pub fn holding_along(mut self, slot: usize) -> Self {
        self.slot = Some(slot);
        self
    }

    /// Drain the call's effects.
    pub fn into_outputs(self) -> VertexOutputs {
        VertexOutputs {
            state: self.state,
            keep_active: self.keep_active,
            structural: self.structural,
        }
    }

    /// The vertex being processed.
    pub fn vertex(&self) -> VertexId {
        self.v
    }

    /// Current superstep number (1-based; seeds are delivered in 1).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// This vertex's value (the paper's `V_inf.get_value()`).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Update this vertex's value (`V_inf.set_value(...)`).
    pub fn set_state(&mut self, s: u64) {
        self.state = s;
    }

    /// All incoming messages, individually preserved (the salient
    /// generality property of MultiLogVC, §V-D). With a `combine` operator
    /// installed, engines deliver the single reduced message instead.
    ///
    /// Like [`Self::edges`] and [`Self::weights`], what is returned borrows
    /// the engine's buffers, not the context: a program can walk its inbox
    /// or edge list while it draws random numbers and sends.
    pub fn msgs(&self) -> &'a [Update] {
        self.msgs
    }

    /// Out-neighbors of this vertex: a view, not a slice. On the multi-log
    /// engine it reads the CSR pages the device lent, decoding a neighbour
    /// where the program asks for one — `len()`, `get(k)`, `iter()` — so a
    /// program that follows one edge of a thousand pays for one.
    pub fn edges(&self) -> Edges<'a> {
        self.edges
    }

    /// Out-edge weights, parallel to [`Self::edges`] (only when the program
    /// declares `needs_weights`).
    pub fn weights(&self) -> Option<Weights<'a>> {
        self.weights
    }

    pub fn degree(&self) -> usize {
        self.edges.len()
    }

    /// The paper's `SendUpdate(v_dest, m)`: the message is logged into the
    /// destination interval's log and delivered next superstep. The
    /// source id is filled in automatically.
    pub fn send(&mut self, dest: VertexId, data: u64) {
        self.sink.push(Update::new(dest, self.v, data));
    }

    /// `SendUpdate` over the `k`-th out-edge, to whichever vertex
    /// `edges().get(k)` is — for a program that follows an edge without
    /// needing to know where it leads (a random walk's next hop). The
    /// neighbour id is never handed to the program, so the engine is free to
    /// read it later, with every other endpoint asked for this way; the
    /// message is delivered next superstep in send order like any other. A
    /// `k` past the degree sends nothing.
    pub fn send_along(&mut self, k: usize, data: u64) {
        match self.slot {
            Some(slot) => self.sink.push_along(self.v, slot, k, data),
            None => {
                if let Some(dest) = self.edges.get(k) {
                    self.send(dest, data);
                }
            }
        }
    }

    /// Send the same payload over every out-edge.
    pub fn send_all(&mut self, data: u64) {
        self.sink.push_all(self.v, self.edges, data);
    }

    /// Stay active next superstep even without incoming messages (the
    /// inverse of the paper's `deactivate`: a vertex is deactivated by
    /// default and reactivated by messages; algorithms with round structure
    /// — MIS — keep undecided vertices alive explicitly).
    pub fn keep_active(&mut self) {
        self.keep_active = true;
    }

    /// Queue a structural edge addition (merged per §V-E batching): from
    /// the next superstep on `dest` is an out-neighbor of this vertex —
    /// *ensure present*, so adding an edge that is already there changes
    /// nothing (DESIGN.md §17's upsert rule). An endpoint outside the graph,
    /// or any structural update on a weighted graph, ends the run with a
    /// typed error in [`crate::RunReport::interrupted`].
    pub fn add_edge(&mut self, dest: VertexId) {
        self.structural.push(EdgeMutation::add(self.v, dest));
    }

    /// Queue a structural edge removal: every occurrence of the edge to
    /// `dest` goes; removing an absent edge changes nothing.
    pub fn remove_edge(&mut self, dest: VertexId) {
        self.structural.push(EdgeMutation::remove(self.v, dest));
    }

    /// Deterministic per-(run, vertex, superstep, call) random stream —
    /// randomized algorithms (MIS, random walk) stay reproducible across
    /// engines and runs.
    pub fn rand_u64(&mut self) -> u64 {
        self.rng_counter += 1;
        let mut x = self
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((self.v as u64) << 32)
            .wrapping_add(self.superstep as u64)
            .wrapping_add(self.rng_counter.wrapping_mul(0xD1B54A32D192ED03));
        // splitmix64 finalizer.
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        x
    }

    /// Uniform float in [0, 1).
    pub fn rand_f64(&mut self) -> f64 {
        (self.rand_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A vertex-centric program (paper §V-F). State is an opaque `u64` encoded
/// by the application; helpers for packing floats/labels live in
/// `mlvc-apps`.
pub trait VertexProgram: Send + Sync {
    /// Application name used in reports ("bfs", "pagerank", …).
    fn name(&self) -> &'static str;

    /// Initial per-vertex state.
    fn init_state(&self, v: VertexId) -> u64;

    /// Initial active set / seed messages for superstep 1.
    fn init_active(&self, num_vertices: usize) -> InitActive;

    /// The vertex processing function.
    fn process(&self, ctx: &mut VertexCtx<'_>);

    /// Optional associative+commutative reduction over message payloads.
    /// Returning `Some` lets engines merge messages (MultiLogVC's optional
    /// optimization path; GraFBoost *requires* it).
    fn combine(&self) -> Option<Combine> {
        None
    }

    /// Whether `process` reads out-edge weights (loads `val` pages).
    fn needs_weights(&self) -> bool {
        false
    }

    /// Whether `process` reads the `src` of its incoming messages. A
    /// program that never does (PageRank, BFS, WCC, …) returns `false`:
    /// the multi-log then stores its records without the source and
    /// `msgs()` delivers them with `src = VertexId::MAX` — the same value
    /// a combined message already carries. The default is always correct;
    /// `false` only makes the logged records smaller.
    fn reads_src(&self) -> bool {
        true
    }

    /// How to resume after a mutation batch merges into the stored CSR
    /// (DESIGN.md §17). The default — recompute from scratch — is always
    /// correct. Programs whose fixpoint is monotone under edge *additions*
    /// (WCC's min-label, BFS's min-distance) override this to return
    /// [`Reconverge::Seed`] for adds-only deltas: only the endpoints of
    /// effective new edges re-activate, and the fixpoint they converge to is
    /// bit-identical to a cold run on the mutated graph.
    fn reconverge(&self, states: &[u64], delta: &MutationDelta) -> Reconverge {
        let _ = (states, delta);
        Reconverge::Restart
    }
}

/// A program's answer to "a mutation batch just merged — how do we get the
/// states consistent with the new graph?".
#[derive(Debug, Clone)]
pub enum Reconverge {
    /// Re-initialize every vertex and recompute from superstep 1 (always
    /// correct; the only safe answer when edges were removed or the
    /// algorithm's converged state is history-dependent, like PageRank's
    /// threshold-truncated residuals).
    Restart,
    /// Keep current states and inject these messages as the next
    /// superstep's inbox; only their destinations re-activate. Valid only
    /// when replaying the delta through the normal `process` path provably
    /// reaches the same fixpoint as a cold run.
    Seed(Vec<Update>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_send_fills_source() {
        let edges = [5u32, 6];
        let mut sink = SendSink::flat();
        let mut ctx = VertexCtx::new(3, 1, 10, 0, &[], &edges, None, 42, &mut sink);
        ctx.send(5, 99);
        ctx.send_all(7);
        let sends = &sink.buffers()[0];
        assert_eq!(sends.len(), 3);
        assert!(sends.iter().all(|u| u.src == 3));
        assert_eq!(sends[1].dest, 5);
        assert_eq!(sends[2].dest, 6);
    }

    #[test]
    fn routed_sink_buckets_by_interval_in_send_order() {
        // Three intervals; neighbours unsorted on purpose.
        let iv = VertexIntervals::uniform(10, 3);
        let edges = [9u32, 1, 2, 5, 0, 8];
        let mut sink = SendSink::routed(&iv);
        let mut ctx = VertexCtx::new(3, 1, 10, 0, &[], &edges, None, 42, &mut sink);
        ctx.send(7, 1);
        ctx.send_all(2);
        ctx.send(0, 3);
        let sent = [(7u32, 1u64), (9, 2), (1, 2), (2, 2), (5, 2), (0, 2), (8, 2), (0, 3)];
        for i in iv.iter_ids() {
            let got: Vec<(u32, u64)> =
                sink.buffers()[i as usize].iter().map(|u| (u.dest, u.data)).collect();
            let want: Vec<(u32, u64)> =
                sent.iter().copied().filter(|&(d, _)| iv.interval_of(d) == i).collect();
            assert_eq!(got, want, "interval {i}");
            assert!(!want.is_empty(), "every interval must be exercised");
        }
        sink.clear();
        assert!(sink.buffers().iter().all(Vec::is_empty));
    }

    /// `msgs()` / `edges()` borrow the engine's buffers for `'a`, so the
    /// inbox can be walked while the context draws and sends.
    #[test]
    fn inbox_can_be_iterated_while_drawing_and_sending() {
        let msgs = [Update::new(3, 0, 2), Update::new(3, 1, 0), Update::new(3, 2, 5)];
        let edges = [5u32, 6, 7];
        let mut sink = SendSink::flat();
        let mut ctx = VertexCtx::new(3, 1, 10, 0, &msgs, &edges, None, 42, &mut sink);
        let mut draws = Vec::new();
        for m in ctx.msgs().iter().filter(|m| m.data > 0) {
            let r = ctx.rand_u64();
            draws.push(r);
            ctx.send(ctx.edges().get((r % 3) as usize).unwrap(), m.data - 1);
        }
        // Same stream as drawing up front: one value per forwarded message.
        let mut again = SendSink::flat();
        let mut fresh = VertexCtx::new(3, 1, 10, 0, &msgs, &edges, None, 42, &mut again);
        assert_eq!(draws, [fresh.rand_u64(), fresh.rand_u64()]);
        let sent: Vec<(u32, u64)> = sink.buffers()[0].iter().map(|u| (u.dest, u.data)).collect();
        let want: Vec<(u32, u64)> =
            draws.iter().zip([1u64, 4]).map(|(r, d)| (edges[(r % 3) as usize], d)).collect();
        assert_eq!(sent, want);
    }

    /// Messages sent along an edge wait for `settle`, everything sent after
    /// the first of them waits behind it, and each buffer ends up in send
    /// order — the same buffers an engine that reads the edge at once fills.
    #[test]
    fn held_sends_settle_in_send_order() {
        let iv = VertexIntervals::uniform(10, 3);
        let lists: [&[VertexId]; 2] = [&[9, 1, 2, 5], &[0, 8, 4]];
        let run = |hold: bool| {
            let mut sink = SendSink::routed(&iv);
            for (slot, edges) in lists.iter().enumerate() {
                let v = 3 + slot as VertexId;
                let ctx = VertexCtx::new(v, 1, 10, 0, &[], *edges, None, 42, &mut sink);
                let mut ctx = if hold { ctx.holding_along(slot) } else { ctx };
                ctx.send(7, 1);
                ctx.send_along(2, 2);
                ctx.send(6, 3);
                ctx.send_along(99, 4); // no such edge: nowhere
                ctx.send_all(5);
                ctx.send_along(0, 6);
            }
            if hold {
                let held: usize = sink.buffers().iter().map(Vec::len).sum();
                assert_eq!(held, 1, "only the send before the first one held is routed");
                sink.settle(|slot, edge| lists[slot].get(edge).copied());
            }
            let sent: Vec<Vec<(u32, u32, u64)>> = sink
                .buffers()
                .iter()
                .map(|b| b.iter().map(|u| (u.src, u.dest, u.data)).collect())
                .collect();
            sink.clear();
            sent
        };
        let (at_once, held) = (run(false), run(true));
        assert_eq!(at_once, held);
        assert_eq!(
            held[2],
            [(3, 7, 1), (3, 6, 3), (3, 9, 5), (3, 9, 6), (4, 7, 1), (4, 6, 3), (4, 8, 5)]
        );
        assert_eq!(held.iter().map(Vec::len).sum::<usize>(), 2 * (1 + 1 + 1 + 1) + 4 + 3);
    }

    #[test]
    fn ctx_state_and_flags() {
        let mut sink = SendSink::flat();
        let mut ctx = VertexCtx::new(0, 2, 4, 11, &[], &[], None, 0, &mut sink);
        assert_eq!(ctx.state(), 11);
        ctx.set_state(22);
        ctx.keep_active();
        ctx.add_edge(1);
        ctx.remove_edge(2);
        let out = ctx.into_outputs();
        assert_eq!(out.state, 22);
        assert!(out.keep_active);
        assert_eq!(out.structural.len(), 2);
    }

    #[test]
    fn rand_is_deterministic_and_varies() {
        let (mut sa, mut sb, mut sc) = (SendSink::flat(), SendSink::flat(), SendSink::flat());
        let mut a = VertexCtx::new(1, 1, 4, 0, &[], &[], None, 7, &mut sa);
        let mut b = VertexCtx::new(1, 1, 4, 0, &[], &[], None, 7, &mut sb);
        assert_eq!(a.rand_u64(), b.rand_u64());
        assert_ne!(a.rand_u64(), a.rand_u64(), "stream advances");
        let mut c = VertexCtx::new(2, 1, 4, 0, &[], &[], None, 7, &mut sc);
        assert_ne!(b.rand_u64(), c.rand_u64(), "different vertex, different value");
        let f = c.rand_f64();
        assert!((0.0..1.0).contains(&f));
    }
}
