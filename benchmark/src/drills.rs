//! Drills: each times one public function on CF-shaped input, so a layer
//! has a number of its own that no other layer's change moves.

use std::fs::File;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use multilogvc::core::Update;
use multilogvc::graph::{Csr, GraphLoader, StoredGraph, VertexIntervals};
use multilogvc::io::{read_csr_binary, write_csr_binary};
use multilogvc::log::{MultiLog, MultiLogConfig};
use multilogvc::par;
use multilogvc::recover::{CheckpointManager, CheckpointState};
use multilogvc::serve::Request;
use multilogvc::ssd::{FileId, IoQueue, PageCache, Ssd, SsdConfig};

use crate::harness::{ratio, Clock, Ctx, Ledger, Reps};
use crate::inputs::stream;
use crate::stats::median;

/// Pages per device batch, and intervals the loader and log drills use —
/// the shape the batch workloads give the engine.
const BATCH_PAGES: usize = 64;
const INTERVALS: usize = 20;
/// One in this many vertices is active in the sparse loader drill.
const SPARSE_STRIDE: usize = 64;

/// Seconds one drill measures for on a full pass; with warm-ups and input
/// generation the drills together stay near three seconds.
const DRILL_SECONDS: f64 = 0.1;

/// Time `body` (after one discarded call) until the drill's time is used,
/// at least three times, and return each call's seconds.
fn timed(ctx: &Ctx, mut body: impl FnMut()) -> Vec<f64> {
    body();
    let clock = match ctx.reps {
        Reps::Seconds(_) => Clock::new(Reps::Seconds(DRILL_SECONDS), 3),
        jobs => Clock::new(jobs, 0),
    };
    let mut out = Vec::new();
    while clock.more(out.len()) {
        let t = Instant::now();
        body();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Append `pages` pages in batches, from empty.
fn append(ssd: &Ssd, file: FileId, pages: usize) {
    ssd.truncate(file).expect("truncate");
    let data = vec![0xA5u8; ssd.page_size()];
    let batch: Vec<&[u8]> = vec![data.as_slice(); BATCH_PAGES];
    let mut left = pages;
    while left > 0 {
        let n = left.min(BATCH_PAGES);
        ssd.append_pages(file, &batch[..n]).expect("append");
        left -= n;
    }
}

fn read_requests(ssd: &Ssd, file: FileId, pages: usize) -> Vec<Vec<(FileId, u64, usize)>> {
    let all: Vec<(FileId, u64, usize)> = (0..pages as u64)
        .map(|p| (file, p, ssd.page_size()))
        .collect();
    all.chunks(BATCH_PAGES).map(<[_]>::to_vec).collect()
}

fn read_all(ssd: &Ssd, batches: &[Vec<(FileId, u64, usize)>]) {
    for reqs in batches {
        black_box(ssd.read_batch(reqs).expect("read"));
    }
}

/// `read_batch` / `append_pages` throughput of one backend; returns the
/// file it filled and the median seconds of a read pass over it.
fn device(
    ctx: &Ctx,
    l: &mut Ledger,
    ssd: &Ssd,
    pages: usize,
    read: &'static str,
    append_name: &'static str,
) -> (FileId, f64) {
    let file = ssd.open_or_create("drill.pages").expect("open");
    let secs = timed(ctx, || append(ssd, file, pages));
    l.set(append_name, ratio(pages as f64, median(&secs)), secs.len());
    let batches = read_requests(ssd, file, pages);
    let secs = timed(ctx, || read_all(ssd, &batches));
    l.set(read, ratio(pages as f64, median(&secs)), secs.len());
    (file, median(&secs))
}

fn ssd_drills(ctx: &Ctx, l: &mut Ledger, pages: usize) {
    let mem = Arc::new(Ssd::new(SsdConfig::default()));
    let (file, _) = device(
        ctx,
        l,
        &mem,
        pages,
        "ssd.mem.read_pages_per_s",
        "ssd.mem.append_pages_per_s",
    );
    let batches = read_requests(&mem, file, pages);

    // The same requests through the queue, pass by pass beside a plain
    // `read_batch` pass; what the queue adds is its own host cost.
    let queue = IoQueue::new(Arc::clone(&mem), 16);
    let mut extra = Vec::new();
    timed(ctx, || {
        let t = Instant::now();
        read_all(&mem, &batches);
        let plain = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for reqs in &batches {
            let ticket = queue.submit_read(reqs.clone());
            black_box(queue.fetch(ticket).expect("fetch"));
            queue.complete(ticket);
        }
        extra.push(t.elapsed().as_secs_f64() - plain);
    });
    l.set(
        "ssd.queue_ns_per_req",
        median(&extra[1..]).max(0.0) * 1e9 / pages as f64,
        extra.len() - 1,
    );

    // Second read over pages the first left resident: the hit path.
    let cached = Ssd::new(SsdConfig::default());
    let file = cached.open_or_create("drill.pages").expect("open");
    append(&cached, file, pages);
    // 2Q keeps a quarter of its frames for first-touch pages; four times
    // the working set keeps every page resident after one pass.
    cached.attach_cache(Arc::new(PageCache::new(pages * 4)));
    let batches = read_requests(&cached, file, pages);
    let secs = timed(ctx, || read_all(&cached, &batches));
    let misses = cached.cache().map_or(0, |c| c.snapshot().total_misses());
    assert_eq!(
        misses, pages as u64,
        "only the first pass goes to the device"
    );
    l.set(
        "ssd.cache_hit_ns_per_page",
        median(&secs) * 1e9 / pages as f64,
        secs.len(),
    );

    // The file-backed device: real positional I/O beside the simulator's
    // time for the same requests.
    let dir = ctx.out_dir.join("ssd-dir");
    std::fs::remove_dir_all(&dir).ok();
    let disk = Ssd::new_on_disk(SsdConfig::default(), dir.clone()).expect("file-backed device");
    let before = disk.stats().snapshot();
    let (_, read_s) = device(
        ctx,
        l,
        &disk,
        pages,
        "ssd.dir.read_pages_per_s",
        "ssd.dir.append_pages_per_s",
    );
    let sim = disk.stats().snapshot().since(&before);
    let sim_s_per_pass = ratio(sim.read_time_ns as f64 / 1e9, sim.read_batches as f64)
        * pages.div_ceil(BATCH_PAGES) as f64;
    l.set("ssd.dir.wall_over_sim", ratio(read_s, sim_s_per_pass), 1);
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
}

fn loader_drills(ctx: &Ctx, l: &mut Ledger, g: &Csr) {
    let ssd = Arc::new(Ssd::new(SsdConfig::default()));
    let iv = VertexIntervals::uniform(g.num_vertices(), INTERVALS.min(g.num_vertices()));
    let stored = StoredGraph::store_with(&ssd, g, "drill", iv).expect("store");
    let actives = |stride: usize| -> Vec<Vec<u32>> {
        stored
            .intervals()
            .iter_ids()
            .map(|i| stored.intervals().range(i).step_by(stride).collect())
            .collect()
    };
    let load = |actives: &[Vec<u32>]| -> GraphLoader {
        let mut loader = GraphLoader::new();
        for (i, active) in stored.intervals().iter_ids().zip(actives) {
            black_box(
                loader
                    .load_active(&stored, i, active, false, None)
                    .expect("load"),
            );
        }
        loader
    };

    let dense = actives(1);
    let secs = timed(ctx, || drop(load(&dense)));
    l.set(
        "graph.load_dense_ns_per_edge",
        median(&secs) * 1e9 / g.num_edges().max(1) as f64,
        secs.len(),
    );

    let sparse = actives(SPARSE_STRIDE);
    let vertices: usize = sparse.iter().map(Vec::len).sum();
    let secs = timed(ctx, || drop(load(&sparse)));
    l.set(
        "graph.load_sparse_ns_per_vertex",
        median(&secs) * 1e9 / vertices.max(1) as f64,
        secs.len(),
    );
    let loader = load(&sparse);
    let pages = loader.rowptr_pages_read() + loader.colidx_pages_read();
    l.set(
        "graph.load_sparse_pages_per_kvertex",
        pages as f64 * 1e3 / vertices.max(1) as f64,
        1,
    );
}

fn par_drills(ctx: &Ctx, l: &mut Ledger, n_vertices: usize) {
    // What the engine pays per interval per batch per superstep: a
    // fork/join over one unit item per thread.
    let items: Vec<u64> = (0..par::max_threads() as u64).collect();
    const CALLS: usize = 200;
    let secs = timed(ctx, || {
        for _ in 0..CALLS {
            black_box(par::par_map(&items, |x| x + 1));
        }
    });
    l.set(
        "par.fork_join_us",
        median(&secs) * 1e6 / CALLS as f64,
        secs.len() * CALLS,
    );

    let mut rng = stream(ctx.seed, "drill-sort");
    let unsorted: Vec<Update> = (0..ctx.sizes.drill_sort_elems)
        .map(|k| Update::new(rng.gen_range(0..n_vertices as u32), k as u32, k as u64))
        .collect();
    let mut work = unsorted.clone();
    let mut secs = Vec::new();
    for _ in 0..4 {
        work.copy_from_slice(&unsorted);
        let t = Instant::now();
        par::par_sort_by_u32_key(&mut work, |u| u.dest);
        secs.push(t.elapsed().as_secs_f64());
    }
    let secs = &secs[1..];
    l.set(
        "par.sort_ns_per_elem",
        median(secs) * 1e9 / unsorted.len() as f64,
        secs.len(),
    );
}

fn log_drill(ctx: &Ctx, l: &mut Ledger, n_vertices: usize) {
    let iv = VertexIntervals::uniform(n_vertices, INTERVALS.min(n_vertices));
    let mut rng = stream(ctx.seed, "drill-log");
    let msgs = ctx.sizes.drill_sort_elems / 4;
    let mut routed: Vec<Vec<Update>> = vec![Vec::new(); iv.num_intervals()];
    for k in 0..msgs {
        let dest = rng.gen_range(0..n_vertices as u32);
        routed[iv.interval_of(dest) as usize].push(Update::new(dest, k as u32, k as u64));
    }
    let ssd = Arc::new(Ssd::new(SsdConfig::default()));
    // A fresh unit per call starts from empty logs under the same tag;
    // its construction is outside the clock.
    let mut secs = Vec::new();
    for _ in 0..4 {
        let cfg = MultiLogConfig {
            buffer_bytes: 1 << 20,
            ..Default::default()
        };
        let mut log = MultiLog::new(Arc::clone(&ssd), iv.clone(), cfg, "drill").expect("multi-log");
        let t = Instant::now();
        for (i, ups) in routed.iter().enumerate() {
            log.send_batch(i as u32, ups).expect("send_batch");
        }
        black_box(log.finish_superstep().expect("finish_superstep"));
        secs.push(t.elapsed().as_secs_f64());
    }
    let secs = &secs[1..];
    l.set(
        "log.send_batch_ns_per_msg",
        median(secs) * 1e9 / msgs.max(1) as f64,
        secs.len(),
    );
}

fn recover_drill(ctx: &Ctx, l: &mut Ledger, n_vertices: usize) {
    let ssd = Arc::new(Ssd::new(SsdConfig::default()));
    let mut manager = CheckpointManager::open(&ssd, "drill").expect("checkpoint manager");
    let state = CheckpointState {
        superstep: 1,
        all_active: false,
        states: (0..n_vertices as u64).collect(),
        active_bits: CheckpointState::bits_from_vertices(n_vertices, &[0]),
        msgs: Vec::new(),
    };
    let before = ssd.stats().snapshot().pages_written;
    manager.write(&state).expect("checkpoint");
    let pages = ssd.stats().snapshot().pages_written - before;
    let secs = timed(ctx, || {
        black_box(manager.write(&state).expect("checkpoint"));
    });
    l.set("recover.ckpt_write_ms", median(&secs) * 1e3, secs.len());
    l.set("recover.ckpt_pages", pages as f64, 1);
}

fn parse_drill(ctx: &Ctx, l: &mut Ledger) {
    let line = "{\"op\":\"run\",\"id\":\"s0j17\",\"app\":\"pagerank\",\"dataset\":\"cf\",\
                \"memory_kb\":2048,\"steps\":15,\"seed\":42,\"source\":0}";
    const LINES: usize = 2000;
    let secs = timed(ctx, || {
        for _ in 0..LINES {
            black_box(Request::parse(black_box(line)).expect("a valid run line"));
        }
    });
    l.set(
        "serve.parse_ns_per_line",
        median(&secs) * 1e9 / LINES as f64,
        secs.len() * LINES,
    );
}

fn snapshot_drill(ctx: &Ctx, l: &mut Ledger, g: &Csr) {
    let path = ctx.out_dir.join("drill.csr");
    write_csr_binary(File::create(&path).expect("create"), g).expect("write snapshot");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    let secs = timed(ctx, || {
        black_box(read_csr_binary(File::open(&path).expect("open")).expect("read snapshot"));
    });
    l.set(
        "io.read_snapshot_mb_per_s",
        ratio(bytes as f64 / 1e6, median(&secs)),
        secs.len(),
    );
    std::fs::remove_file(&path).ok();
}

/// Run every drill, engine threads pinned to `nproc`.
pub fn run(ctx: &Ctx, l: &mut Ledger) {
    par::set_thread_override(Some(ctx.nproc));
    let g = multilogvc::gen::cf_mini(ctx.sizes.drill_scale, ctx.seed).graph;
    let colidx_pages = (g.num_edges() * 4)
        .div_ceil(SsdConfig::default().page_size)
        .max(BATCH_PAGES);
    ssd_drills(ctx, l, colidx_pages);
    loader_drills(ctx, l, &g);
    par_drills(ctx, l, g.num_vertices());
    log_drill(ctx, l, g.num_vertices());
    recover_drill(ctx, l, g.num_vertices());
    parse_drill(ctx, l);
    snapshot_drill(ctx, l, &g);
}
