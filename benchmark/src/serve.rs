//! `serve-mix`: one daemon, two datasets, closed-loop clients driving
//! `Daemon::serve` over in-memory pipes. A job is a request line written
//! until its `done` line is read.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

use multilogvc::apps::{Bfs, PageRank, Wcc};
use multilogvc::core::{Engine, ReferenceEngine, VertexProgram};
use multilogvc::graph::Csr;
use multilogvc::obs::json::{self, Json};
use multilogvc::par;
use multilogvc::serve::{Daemon, JobRequest, ServeConfig};
use multilogvc::ssd::{CacheSnapshot, SsdStatsSnapshot};

use crate::harness::{
    end_to_end, ms, ratio, secs, set_up, Ctx, DeviceSide, Ledger, Outcome, Walls,
};
use crate::inputs::{
    bfs_sources, serve_block, serve_mutation, ServeJob, SERVE_APPS, SERVE_BLOCK, SERVE_DATASETS,
};
use crate::stats::{median, Summary};

/// Superstep cap of every request (the protocol's default).
const STEPS: usize = 15;
const RANK_TOLERANCE: f64 = 1e-8;
/// A `mutate` line follows every this-many run lines.
const MUTATE_EVERY: usize = 10;
/// Blocks the end-to-end session runs at least: 160 requests, so p90 has
/// its ten samples beyond it. The traced pass, which also runs the
/// sequence job by job, runs a shorter session.
const MIN_BLOCKS: usize = 8;
const MIN_BLOCKS_TRACED: usize = 6;

/// The request side of the pipe: the daemon's dispatcher blocks here
/// until a client writes a line; a closed channel is end of input.
struct PipeReader {
    lines: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let have = self.fill_buf()?;
        let n = have.len().min(out.len());
        out[..n].copy_from_slice(&have[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PipeReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            self.pos = 0;
            self.buf = match self.lines.recv() {
                Ok(line) => (line + "\n").into_bytes(),
                Err(_) => Vec::new(),
            };
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The reply side: whole lines go to the client as the daemon ends them.
struct PipeWriter {
    lines: Sender<String>,
    partial: Vec<u8>,
}

impl Write for PipeWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        for &b in bytes {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.partial.clear();
                // A client that hung up has stopped reading; the daemon
                // ignores reply errors anyway.
                self.lines.send(line).ok();
            } else {
                self.partial.push(b);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What a standalone run of one (app, dataset, source) produces.
struct Golden {
    supersteps: usize,
    converged: bool,
    states: Vec<u64>,
}

type Goldens = BTreeMap<ServeJob, Golden>;

fn program(job: &ServeJob) -> Box<dyn VertexProgram> {
    match job.app {
        "bfs" => Box::new(Bfs::new(job.source)),
        "wcc" => Box::new(Wcc),
        "pagerank" => Box::new(PageRank::default()),
        other => unreachable!("{other} is not in the mix"),
    }
}

struct Served {
    daemon: Daemon,
    graphs: [Csr; 2],
    sources: [Vec<u32>; 2],
    /// `add_dataset` durations of this set-up, ms.
    add_dataset_ms: Vec<f64>,
}

/// Generate both datasets, start the daemon and register them. Timed as
/// set-up.
fn setup(ctx: &Ctx) -> Served {
    let scale = ctx.sizes.serve_scale;
    let graphs = [
        multilogvc::gen::cf_mini(scale, ctx.seed).graph,
        multilogvc::gen::yws_mini(scale, ctx.seed).graph,
    ];
    let mut daemon = Daemon::new(ServeConfig {
        workers: ctx.nproc,
        ..Default::default()
    });
    let mut add_dataset_ms = Vec::new();
    for (name, g) in SERVE_DATASETS.into_iter().zip(&graphs) {
        let t = Instant::now();
        daemon.add_dataset(name, g).expect("register the dataset");
        add_dataset_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let sources = [
        bfs_sources(&graphs[0], ctx.seed, SERVE_DATASETS[0]),
        bfs_sources(&graphs[1], ctx.seed, SERVE_DATASETS[1]),
    ];
    Served {
        daemon,
        graphs,
        sources,
        add_dataset_ms,
    }
}

/// One reference run per distinct request the sequence can contain.
fn goldens(ctx: &Ctx, served: &Served) -> Goldens {
    let mut out = Goldens::new();
    for (d, dataset) in SERVE_DATASETS.into_iter().enumerate() {
        let mut reference = ReferenceEngine::new(served.graphs[d].clone(), ctx.seed);
        for app in SERVE_APPS {
            let sources = if app == "bfs" {
                served.sources[d].as_slice()
            } else {
                &[0]
            };
            for &source in sources {
                let job = ServeJob {
                    app,
                    dataset,
                    source,
                };
                let report = reference.run(program(&job).as_ref(), STEPS);
                let golden = Golden {
                    supersteps: report.supersteps.len(),
                    converged: report.converged,
                    states: reference.states().to_vec(),
                };
                out.insert(job, golden);
            }
        }
    }
    out
}

fn run_line(ctx: &Ctx, id: &str, job: &ServeJob) -> String {
    format!(
        "{{\"op\":\"run\",\"id\":\"{id}\",\"app\":\"{}\",\"dataset\":\"{}\",\"memory_kb\":{},\
         \"steps\":{STEPS},\"seed\":{},\"source\":{}}}",
        job.app, job.dataset, ctx.sizes.serve_job_kb, ctx.seed, job.source
    )
}

fn mutate_line(ctx: &Ctx, served: &Served, index: usize) -> String {
    let m = serve_mutation(&served.graphs, ctx.seed, index);
    let pairs = |edges: &[(u32, u32)]| {
        let items: Vec<String> = edges.iter().map(|(s, d)| format!("[{s},{d}]")).collect();
        items.join(",")
    };
    format!(
        "{{\"op\":\"mutate\",\"id\":\"m{index}\",\"dataset\":\"{}\",\"add\":[{}],\
         \"remove\":[{}]}}",
        m.dataset,
        pairs(&m.add),
        pairs(&m.remove)
    )
}

/// Totals of one closed-loop session.
#[derive(Default)]
struct Session {
    /// Request written → `done` read, per completed job.
    walls: Walls,
    /// Request written → `mutated` read, ms.
    mutate_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Σ `sim_time_ns` of the `done` lines.
    sim_ns: u64,
    queued: u64,
    rejected: u64,
}

fn field_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_num).map_or(0, |n| n as u64)
}

/// The client side of one closed-loop session.
struct Clients<'a> {
    ctx: &'a mut Ctx,
    served: &'a Served,
    goldens: &'a Goldens,
    requests: &'a Sender<String>,
    replies: &'a Receiver<String>,
    /// Request ids are `<prefix><index>`; mutate ids `m<index>`, counted
    /// across the sessions of one daemon.
    prefix: String,
    mutations: usize,
    written: usize,
    /// Requests written and not yet answered: job, span id, time written.
    pending: HashMap<String, (ServeJob, u64, Instant)>,
    pending_mutations: HashMap<String, Instant>,
    /// Whether this is the traced pass's timed session: its blocks pair
    /// up, one with spans on and one off, on first in every other pair.
    record: bool,
    /// Requests the current block may still write, and the walls of the
    /// jobs it has completed.
    room: usize,
    block_walls: Vec<f64>,
    session: Session,
}

impl<'a> Clients<'a> {
    fn new(
        ctx: &'a mut Ctx,
        served: &'a Served,
        goldens: &'a Goldens,
        (requests, replies): (&'a Sender<String>, &'a Receiver<String>),
        prefix: String,
        mutations: usize,
        record: bool,
    ) -> Self {
        Clients {
            ctx,
            served,
            goldens,
            requests,
            replies,
            prefix,
            mutations,
            written: 0,
            pending: HashMap::new(),
            pending_mutations: HashMap::new(),
            record,
            room: 0,
            block_walls: Vec::new(),
            session: Session::default(),
        }
    }

    fn send(&self, line: String) {
        self.requests
            .send(line)
            .expect("the daemon reads until shutdown");
    }

    /// Write the next request of the sequence if the block has room for
    /// it, and a `mutate` line after every tenth.
    fn write_next(&mut self, next: &mut dyn FnMut(usize) -> Option<ServeJob>) {
        if self.room == 0 {
            return;
        }
        let Some(job) = next(self.written) else {
            return;
        };
        self.room -= 1;
        let id = format!("{}{}", self.prefix, self.written);
        let line = run_line(self.ctx, &id, &job);
        self.pending
            .insert(id, (job, self.ctx.job_id(), Instant::now()));
        self.send(line);
        self.written += 1;
        if self.written.is_multiple_of(MUTATE_EVERY) {
            let line = mutate_line(self.ctx, self.served, self.mutations);
            self.pending_mutations
                .insert(format!("m{}", self.mutations), Instant::now());
            self.send(line);
            self.mutations += 1;
        }
    }

    /// One request per client outstanding at any time, the next written
    /// when a `done` (or a refusal) is read. `next` yields the sequence,
    /// asked with the number of requests written so far, and ends the
    /// session by returning `None`. After every block of `SERVE_BLOCK`
    /// requests the clients let the daemon drain and run the calibration
    /// kernel, which must not share the cores with a job.
    fn run(mut self, next: &mut dyn FnMut(usize) -> Option<ServeJob>) -> (Session, usize) {
        self.ctx.probe.start();
        let mut block = 0;
        loop {
            self.ctx
                .tracer
                .set_enabled(self.record && matches!(block % 4, 0 | 3));
            block += 1;
            let t = Instant::now();
            self.room = SERVE_BLOCK;
            for _ in 0..self.ctx.nproc {
                self.write_next(next);
            }
            if self.pending.is_empty() {
                return (self.session, self.mutations);
            }
            while !self.pending.is_empty() || !self.pending_mutations.is_empty() {
                self.read_reply(next);
            }
            let stretch = t.elapsed().as_secs_f64();
            let walls = std::mem::take(&mut self.block_walls);
            let correction = self.ctx.probe.lap();
            self.session.walls.push(&walls, stretch, correction);
        }
    }

    fn read_reply(&mut self, next: &mut dyn FnMut(usize) -> Option<ServeJob>) {
        let line = self
            .replies
            .recv()
            .expect("the daemon replies to every request");
        let now = Instant::now();
        let reply = json::parse(&line).unwrap_or(Json::Null);
        let event = reply.get("event").and_then(Json::as_str).unwrap_or("");
        let id = reply.get("id").and_then(Json::as_str).unwrap_or("");
        if let Some(sent) = self.pending_mutations.remove(id) {
            if event == "mutated" {
                self.session.mutate_ms.push(secs(sent, now) * 1e3);
            } else {
                self.session.failed += 1;
                self.session
                    .problems
                    .push(format!("serve-mix: mutate refused: {line}"));
            }
            return;
        }
        match event {
            "accepted" => {}
            "queued" => self.session.queued += 1,
            "done" | "failed" | "rejected" => {
                self.finish(id, event, &reply, &line, now);
                self.write_next(next);
            }
            _ => self
                .session
                .problems
                .push(format!("serve-mix: unreadable reply {line}")),
        }
    }

    /// Account for one answered request: a `done` line must carry the
    /// supersteps and convergence of a standalone run of the same
    /// (app, dataset, source); anything else is a failed job.
    fn finish(&mut self, id: &str, event: &str, reply: &Json, line: &str, now: Instant) {
        let s = &mut self.session;
        let Some((job, span_job, sent)) = self.pending.remove(id) else {
            s.problems
                .push(format!("serve-mix: reply to nothing asked: {line}"));
            return;
        };
        s.attempted += 1;
        let golden = &self.goldens[&job];
        let same = field_u64(reply, "supersteps") == golden.supersteps as u64
            && reply.get("converged").and_then(Json::as_bool) == Some(golden.converged);
        if event == "done" && same {
            self.block_walls.push(secs(sent, now));
            s.sim_ns += field_u64(reply, "sim_time_ns");
            let tr = &mut self.ctx.tracer;
            let (from, to) = (tr.ns_of(sent), tr.ns_of(now));
            tr.add("serve.request", span_job, None, from, to, false);
        } else {
            s.failed += 1;
            s.rejected += u64::from(event == "rejected");
            s.problems
                .push(format!("serve-mix: {job:?} came back as {line}"));
        }
    }
}

/// A session's device and cache activity, read off the shared device.
struct Activity {
    dev: SsdStatsSnapshot,
    cache_before: CacheSnapshot,
    cache_after: CacheSnapshot,
}

/// Run the daemon's serve loop on its own thread and drive two closed-loop
/// sessions against it: the discarded warm-up (one request per app and
/// dataset), then the timed one, given `share` of the run's time.
fn serve_session(
    ctx: &mut Ctx,
    served: &Served,
    goldens: &Goldens,
    share: f64,
) -> (Session, Activity) {
    let (requests, request_rx) = channel::<String>();
    let (reply_tx, replies) = channel::<String>();
    let daemon = &served.daemon;
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let reader = PipeReader {
                lines: request_rx,
                buf: Vec::new(),
                pos: 0,
            };
            let writer = PipeWriter {
                lines: reply_tx,
                partial: Vec::new(),
            };
            daemon.serve(reader, writer)
        });
        let pipes = (&requests, &replies);

        let mut warm_up: Vec<ServeJob> = goldens.keys().cloned().collect();
        warm_up.dedup_by(|a, b| (a.app, a.dataset) == (b.app, b.dataset));
        let (warm, mutations) =
            Clients::new(ctx, served, goldens, pipes, "w".to_string(), 0, false)
                .run(&mut |k| warm_up.get(k).cloned());

        let min_blocks = if ctx.traced {
            MIN_BLOCKS_TRACED
        } else {
            MIN_BLOCKS
        };
        let clock = ctx.clock(share, min_blocks * SERVE_BLOCK);
        let dev_before = daemon.device().stats().snapshot();
        let cache_before = daemon.cache().snapshot();
        let (seed, record) = (ctx.seed, ctx.traced);
        let mut block: Vec<ServeJob> = Vec::new();
        // Whole blocks only, so the mix stays exact.
        let mut sequence = |written: usize| {
            if written.is_multiple_of(SERVE_BLOCK) {
                if !clock.more(written) {
                    return None;
                }
                block = serve_block(seed, written / SERVE_BLOCK, &served.sources);
            }
            Some(block[written % SERVE_BLOCK].clone())
        };
        let (mut session, _) = Clients::new(
            ctx,
            served,
            goldens,
            pipes,
            "j".to_string(),
            mutations,
            record,
        )
        .run(&mut sequence);
        ctx.tracer.set_enabled(ctx.traced);
        session.problems.extend(warm.problems);
        let activity = Activity {
            dev: daemon.device().stats().snapshot().since(&dev_before),
            cache_before,
            cache_after: daemon.cache().snapshot(),
        };

        requests.send("{\"op\":\"shutdown\"}".to_string()).ok();
        server
            .join()
            .expect("the serve loop does not panic")
            .expect("in-memory pipes do not fail");
        (session, activity)
    })
}

fn inputs_line(ctx: &Ctx, served: &Served) -> String {
    let [cf, yws] = &served.graphs;
    format!(
        "cf = cf_mini({scale}): {} vertices, {} edges; yws = yws_mini({scale}): {} vertices, {} \
         edges; {} KiB per job, 8 MiB shared cache, 64 MiB admission budget; {} closed-loop \
         clients, {} workers, engine threads 1",
        cf.num_vertices(),
        cf.num_edges(),
        yws.num_vertices(),
        yws.num_edges(),
        ctx.sizes.serve_job_kb,
        ctx.nproc,
        ctx.nproc,
        scale = ctx.sizes.serve_scale,
    )
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    // Workers run jobs side by side; one engine thread each keeps the
    // total at nproc.
    par::set_thread_override(Some(1));
    let mut ledger = Ledger::default();
    let (served, setups) = set_up(ctx, setup);
    let goldens = goldens(ctx, &served);
    let mut out = Outcome::new("serve-mix", inputs_line(ctx, &served));

    if !ctx.traced {
        let (s, activity) = serve_session(ctx, &served, &goldens, 1.0);
        let jobs = s.walls.raw.len();
        let per_job = |total: u64| Summary::single(ratio(total as f64, jobs as f64), jobs);
        let dev = DeviceSide {
            sim_ms: Summary::single(ratio(ms(s.sim_ns), jobs as f64), jobs),
            pages_read: per_job(activity.dev.pages_read),
            pages_written: per_job(activity.dev.pages_written),
            read_amp: Summary::single(activity.dev.read_amplification().unwrap_or(0.0), jobs),
        };
        out.metrics = end_to_end(&setups, &s.walls, dev);
        out.attempted = s.attempted;
        out.failed = s.failed;
        out.problems = s.problems;
        return out;
    }

    for &t in &served.add_dataset_ms {
        ledger.push("serve.add_dataset_ms", t);
    }
    direct_jobs(ctx, &served, &goldens, &mut ledger, &mut out);

    // One session whose blocks alternate spans on and off; block by block
    // the mix is the same, so pairs of block medians compare.
    let (on, activity) = serve_session(ctx, &served, &goldens, 0.6);
    let jobs = on.walls.raw.len();
    let blocks: Vec<f64> = on
        .walls
        .corrected
        .chunks_exact(SERVE_BLOCK)
        .map(median)
        .collect();
    let by_pair: Vec<f64> = blocks
        .chunks_exact(2)
        .enumerate()
        .map(|(pair, b)| {
            let (spans_on, spans_off) = if pair % 2 == 0 {
                (b[0], b[1])
            } else {
                (b[1], b[0])
            };
            ratio(spans_on, spans_off)
        })
        .collect();
    ledger.set(
        "bench.trace_overhead_frac",
        median(&by_pair) - 1.0,
        by_pair.len(),
    );
    ledger.set(
        "serve.queued_frac",
        ratio(on.queued as f64, on.attempted as f64),
        jobs,
    );
    ledger.set("serve.rejected", on.rejected as f64, jobs);
    let cross = activity.cache_after.cross_tenant_hits - activity.cache_before.cross_tenant_hits;
    ledger.set(
        "serve.cross_tenant_hits",
        ratio(cross as f64, jobs as f64),
        jobs,
    );
    for &t in &on.mutate_ms {
        ledger.push("serve.mutate_ms", t);
    }
    ledger.push_cache(&activity.cache_before, &activity.cache_after, jobs);
    out.attempted += on.attempted;
    out.failed += on.failed;
    out.problems.extend(on.problems);
    out.metrics = ledger.per_layer();
    out
}

/// The sequence again, one job at a time through `Daemon::run_job`: the
/// call returns the job's `RunReport`, device view and final states, which
/// the reply lines of a session do not carry.
fn direct_jobs(
    ctx: &mut Ctx,
    served: &Served,
    goldens: &Goldens,
    ledger: &mut Ledger,
    out: &mut Outcome,
) {
    let clock = ctx.clock(0.4, SERVE_BLOCK);
    let mut done = 0usize;
    let mut block = Vec::new();
    while !done.is_multiple_of(SERVE_BLOCK) || clock.more(done) {
        if done.is_multiple_of(SERVE_BLOCK) {
            block = serve_block(ctx.seed, done / SERVE_BLOCK, &served.sources);
        }
        let job = &block[done % SERVE_BLOCK];
        let req = JobRequest {
            id: format!("d{done}"),
            app: job.app.to_string(),
            dataset: job.dataset.to_string(),
            memory_bytes: ctx.sizes.serve_job_kb << 10,
            steps: STEPS,
            seed: ctx.seed,
            source: job.source,
            ..Default::default()
        };
        let id = ctx.job_id();
        let span = ctx.tracer.begin("serve.run_job", id);
        let result = served.daemon.run_job(&req);
        let call_ms = ctx.tracer.end(span);
        done += 1;
        out.attempted += 1;
        let golden = &goldens[job];
        match result.outcome {
            Ok(o) if states_match(job, &o.states, &golden.states) => {
                let run_ns: u64 = o.report.supersteps.iter().map(|s| s.wall_ns).sum();
                if let Some(call) = span {
                    let end = ctx.tracer.spans()[call].end_ns;
                    let run = ctx
                        .tracer
                        .add("core.run", id, span, end - run_ns, end, true);
                    ctx.tracer.add_supersteps(run, &o.report);
                }
                ledger.push("serve.run_job_overhead_ms", (call_ms - ms(run_ns)).max(0.0));
                ledger.push_report(&o.report, ms(run_ns), &o.device);
            }
            Ok(_) => {
                out.failed += 1;
                out.problems.push(format!(
                    "serve-mix: {job:?}: states differ from the golden's"
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("serve-mix: {job:?}: {e}"));
            }
        }
    }
}

/// bfs and wcc states exact, PageRank ranks within the tolerance
/// `tests/engine_agreement.rs` uses.
fn states_match(job: &ServeJob, got: &[u64], golden: &[u64]) -> bool {
    if job.app != "pagerank" {
        return got == golden;
    }
    got.len() == golden.len()
        && got
            .iter()
            .zip(golden)
            .all(|(&a, &b)| (PageRank::rank(a) - PageRank::rank(b)).abs() < RANK_TOLERANCE)
}
