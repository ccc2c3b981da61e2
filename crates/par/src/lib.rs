//! # mlvc-par — scoped-thread data-parallel helpers
//!
//! The engines need exactly four parallel shapes — map a slice, map a slice
//! with per-worker state, map two zipped slices, map contiguous chunks of a
//! slice — and the ledger's sort drill one more, a stable sort by a `u32`
//! key. This crate provides them on plain `std::thread::scope`, with no
//! external dependencies, so the workspace builds offline and the
//! parallelism story stays auditable. Every fan-out is one fork/join in
//! which the calling thread takes the first chunk itself and spawns a
//! thread for each of the others.
//!
//! Determinism: results are always concatenated in input order and the sort
//! is stable (ties keep their input order), so every helper is a drop-in,
//! bit-for-bit replacement for its sequential counterpart — **for any
//! worker thread count** — a property the BSP engines rely on for
//! reproducible supersteps (DESIGN.md §12).
//!
//! ## Thread count
//!
//! Workers default to the hardware parallelism. The `MLVC_THREADS`
//! environment variable pins the count for reproducible runs and CI;
//! [`set_thread_override`] pins it programmatically (tests sweeping thread
//! counts). Both the variable and the hardware parallelism are read once per
//! process — the latter costs a `sched_getaffinity` and the cgroup files,
//! and [`max_threads`] is asked once per fan-out. Both pins are capped at
//! the hardware parallelism — requesting more threads than cores buys
//! nothing and makes timings noisy. The `race-detect` feature lifts that
//! cap: there the point is exercising real cross-thread interleavings,
//! which a single-core CI box would otherwise never produce.
//!
//! One thread means one thread: at `max_threads() == 1` no helper here
//! forks and the engine hands nothing off, so nothing is spawned at all —
//! [`spawn_count`] stays where it was.
//!
//! ## Race detection
//!
//! All spawning funnels through [`scope`], so with the `race-detect`
//! feature every fork, join and `mlvc_ssd::sync` lock transfer maintains a
//! vector clock, and [`Tracked`] shadow cells audit shared engine state
//! against them — see the [`race`] module and DESIGN.md §14.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

pub mod race;

pub use race::Tracked;
#[cfg(feature = "race-detect")]
pub use race::{set_panic_on_race, set_schedule_seed, take_reports, RaceReport};

/// Below this length a parallel sort is all overhead; fall back to the
/// sequential stable sort.
const PAR_SORT_MIN: usize = 4096;

/// Process-wide programmatic override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Threads spawned through [`Scope::spawn`] since the process started.
static SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Hardware parallelism, asked of the OS once per process.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
}

/// `MLVC_THREADS`, parsed once per process; 0 means "unset / invalid".
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("MLVC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// Pin the worker thread count (`Some(n)`) or restore the default
/// resolution (`None`: `MLVC_THREADS`, else hardware parallelism). The
/// value is global to the process and capped at hardware parallelism, like
/// the environment variable. Intended for tests that sweep thread counts;
/// production runs should use `MLVC_THREADS`.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The resolved worker thread count: override, else `MLVC_THREADS`, else
/// hardware parallelism — always in `1..=hardware_parallelism`. Under
/// `race-detect` the hardware cap is lifted (bounded at 64): the detector
/// wants real cross-thread interleavings even on a single-core machine,
/// where capping would silently serialize every fan-out under audit.
pub fn max_threads() -> usize {
    let hw = hardware_threads();
    let req = match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => env_threads(),
        n => n,
    };
    if req == 0 {
        hw
    } else if cfg!(feature = "race-detect") {
        req.clamp(1, 64)
    } else {
        req.min(hw).max(1)
    }
}

/// How many threads this process has spawned through [`Scope::spawn`] — the
/// one funnel every spawn in the workspace goes through — so a caller can
/// tell what a piece of work cost in threads by reading it before and after.
/// Process-wide: concurrent callers see each other's spawns.
pub fn spawn_count() -> u64 {
    SPAWNS.load(Ordering::SeqCst)
}

/// Scoped threads whose fork/join edges the race detector can see — the
/// workspace-wide replacement for `std::thread::scope` (enforced by the
/// `no-raw-thread-spawn` lint). With `race-detect` off this compiles to
/// the std scope with zero overhead.
pub fn scope<'env, T, F>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    thread::scope(|s| f(&Scope { inner: s }))
}

/// See [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a scoped thread. Under `race-detect` the child inherits the
    /// parent's vector clock (fork edge); [`ScopedJoinHandle::join`]
    /// merges the child's exit clock back (join edge).
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        SPAWNS.fetch_add(1, Ordering::SeqCst);
        #[cfg(feature = "race-detect")]
        {
            let child = race::fork();
            ScopedJoinHandle {
                inner: self.inner.spawn(move || {
                    race::register_child(child);
                    let out = f();
                    (out, race::take_exit_clock())
                }),
            }
        }
        #[cfg(not(feature = "race-detect"))]
        {
            ScopedJoinHandle { inner: self.inner.spawn(f) }
        }
    }
}

/// Handle returned by [`Scope::spawn`].
pub struct ScopedJoinHandle<'scope, T> {
    #[cfg(feature = "race-detect")]
    inner: thread::ScopedJoinHandle<'scope, (T, race::ExitClock)>,
    #[cfg(not(feature = "race-detect"))]
    inner: thread::ScopedJoinHandle<'scope, T>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Wait for the thread; `Err` carries the child's panic payload. A
    /// panicked child contributes no join edge — its slot stays retired,
    /// which can only lose happens-before information, never invent it.
    pub fn join(self) -> thread::Result<T> {
        #[cfg(feature = "race-detect")]
        {
            match self.inner.join() {
                Ok((out, exit)) => {
                    race::join_merge(exit);
                    Ok(out)
                }
                Err(payload) => Err(payload),
            }
        }
        #[cfg(not(feature = "race-detect"))]
        {
            self.inner.join()
        }
    }

    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Spawn `jobs` returning handles in job order. Under `race-detect` with a
/// schedule seed set, the *spawn* order is a seeded permutation — the way
/// the permutation harness exercises interleavings one program order would
/// never produce — while results still land at their original index.
fn spawn_ordered<'scope, 'env, F, R>(
    s: &Scope<'scope, 'env>,
    jobs: Vec<F>,
) -> Vec<ScopedJoinHandle<'scope, R>>
where
    F: FnOnce() -> R + Send + 'scope,
    R: Send + 'scope,
{
    #[cfg(feature = "race-detect")]
    {
        let order = race::spawn_order(jobs.len());
        let mut slots: Vec<Option<F>> = jobs.into_iter().map(Some).collect();
        let mut handles: Vec<Option<ScopedJoinHandle<'scope, R>>> =
            (0..slots.len()).map(|_| None).collect();
        for i in order {
            if let Some(job) = slots[i].take() {
                handles[i] = Some(s.spawn(job));
            }
        }
        handles.into_iter().flatten().collect()
    }
    #[cfg(not(feature = "race-detect"))]
    {
        jobs.into_iter().map(|j| s.spawn(j)).collect()
    }
}

/// Number of worker threads to use for `n` items.
fn threads_for(n: usize) -> usize {
    max_threads().min(n).max(1)
}

/// Re-raise a worker panic on the calling thread.
fn join_unwind<R>(r: thread::Result<R>) -> R {
    match r {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// The one fork/join every helper below goes through: run `jobs`
/// concurrently and return their results in job order. The caller is a
/// worker — it spawns jobs `1..` through [`spawn_ordered`] (so the seeded
/// spawn-order permutation applies to them), runs job 0 itself, then joins
/// — so a fan-out over `n` chunks costs `n - 1` spawns and never parks the
/// calling thread behind work it could be doing. A panic in any job
/// propagates: the caller's own unwinds through the scope (which first
/// joins the rest), a spawned one is re-raised at its join.
fn fork_join<'env, F, R>(jobs: Vec<F>) -> Vec<R>
where
    F: FnOnce() -> R + Send + 'env,
    R: Send + 'env,
{
    let mut jobs = jobs.into_iter();
    let Some(mine) = jobs.next() else {
        return Vec::new();
    };
    scope(|s| {
        let handles = spawn_ordered(s, jobs.collect());
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(mine());
        out.extend(handles.into_iter().map(|h| join_unwind(h.join())));
        out
    })
}

/// Per-chunk results, `n` elements in all, joined in chunk order.
fn concat<R>(chunks: Vec<Vec<R>>, n: usize) -> Vec<R> {
    let mut out = Vec::with_capacity(n);
    chunks.into_iter().for_each(|c| out.extend(c));
    out
}

/// Parallel `items.iter().map(f).collect()`, preserving input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads_for(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    let jobs: Vec<_> =
        items.chunks(chunk).map(|c| move || c.iter().map(f).collect::<Vec<R>>()).collect();
    concat(fork_join(jobs), n)
}

/// [`par_map`] with per-worker state: `items` splits into at most
/// `workers.len()` contiguous chunks, chunk `k` is mapped by one thread
/// holding `&mut workers[k]`, and the results are concatenated in input
/// order. Whatever a worker accumulates in its state is therefore in input
/// order within the worker, and visiting `workers` by index afterwards
/// visits it in input order overall — for any thread count. Panics if
/// `workers` is empty while `items` is not (caller bug).
pub fn par_map_with<T, S, R, F>(items: &[T], workers: &mut [S], f: F) -> Vec<R>
where
    T: Sync,
    S: Send,
    R: Send,
    F: Fn(&T, &mut S) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads_for(n).min(workers.len());
    if threads <= 1 {
        let w = &mut workers[0];
        return items.iter().map(|x| f(x, w)).collect();
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    let jobs: Vec<_> = items
        .chunks(chunk)
        .zip(workers.iter_mut())
        .map(|(c, w)| move || c.iter().map(|x| f(x, w)).collect::<Vec<R>>())
        .collect();
    concat(fork_join(jobs), n)
}

/// Parallel `a.iter().zip(b).map(|(x, y)| f(x, y)).collect()`, preserving
/// input order. Panics if the slices differ in length (caller bug).
pub fn par_map2<A, B, R, F>(a: &[A], b: &[B], f: F) -> Vec<R>
where
    A: Sync,
    B: Sync,
    R: Send,
    F: Fn(&A, &B) -> R + Sync,
{
    assert_eq!(a.len(), b.len(), "par_map2 requires equal-length slices");
    let n = a.len();
    let threads = threads_for(n);
    if threads <= 1 {
        return a.iter().zip(b).map(|(x, y)| f(x, y)).collect();
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    let jobs: Vec<_> = a
        .chunks(chunk)
        .zip(b.chunks(chunk))
        .map(|(ca, cb)| move || ca.iter().zip(cb).map(|(x, y)| f(x, y)).collect::<Vec<R>>())
        .collect();
    concat(fork_join(jobs), n)
}

/// Apply `f` to contiguous chunks of `items` (at most [`max_threads`] of
/// them), one worker per chunk, returning the per-chunk results in chunk
/// order.
///
/// The chunk boundaries depend on the resolved thread count, so callers
/// must only combine the results in a chunking-invariant way — e.g. an
/// order-preserving concatenation of per-chunk buffers, which is exactly
/// what the engine's parallel update scatter does.
pub fn par_chunk_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads_for(n);
    if threads <= 1 {
        return vec![f(items)];
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    fork_join(items.chunks(chunk).map(|c| move || f(c)).collect())
}

/// Stable LSD radix sort by a `u32` key — the guarantee `slice::sort_by_key`
/// gives (equal keys keep input order), with output independent of the
/// thread count, in linear time: for dense keys such as vertex ids, one or
/// two 16-bit counting passes beat any comparison sort. The engines sort
/// inside the log decode now; what still calls this is the ledger's
/// `par.sort_ns_per_elem` drill (`benchmark/`).
///
/// Keys are extracted once on the worker threads; the counting passes are
/// serial (their cost is a small fraction of the comparison sort they
/// replace) and therefore trivially chunking-invariant. Small inputs fall
/// back to `sort_by_key`, where the histogram setup would dominate.
pub fn par_sort_by_u32_key<T, F>(items: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u32 + Sync,
{
    let n = items.len();
    if n < PAR_SORT_MIN {
        items.sort_by_key(|t| key(t));
        return;
    }
    let mut keys: Vec<u32> = Vec::with_capacity(n);
    for ck in par_chunk_map(items, |c| c.iter().map(&key).collect::<Vec<u32>>()) {
        keys.extend(ck);
    }
    let max = keys.iter().copied().max().unwrap_or(0);
    let mut scratch: Vec<T> = items.to_vec();
    let mut kscratch: Vec<u32> = keys.clone();
    if max <= 0xFFFF {
        radix_pass_u16(items, &mut scratch, &keys, &mut kscratch, 0);
        items.copy_from_slice(&scratch);
    } else {
        radix_pass_u16(items, &mut scratch, &keys, &mut kscratch, 0);
        radix_pass_u16(&scratch, items, &kscratch, &mut keys, 16);
    }
}

/// One stable counting pass over the 16-bit digit of `keys` at `shift`,
/// scattering `src` into `dst` (and the keys alongside, so a second pass
/// sees them in the new order).
fn radix_pass_u16<T: Copy>(src: &[T], dst: &mut [T], keys: &[u32], kdst: &mut [u32], shift: u32) {
    let mut counts = vec![0usize; 1 << 16];
    for &k in keys {
        counts[((k >> shift) & 0xFFFF) as usize] += 1;
    }
    let mut total = 0usize;
    for c in counts.iter_mut() {
        let x = *c;
        *c = total;
        total += x;
    }
    for (i, &k) in keys.iter().enumerate() {
        let d = ((k >> shift) & 0xFFFF) as usize;
        dst[counts[d]] = src[i];
        kdst[counts[d]] = k;
        counts[d] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let doubled = par_map(&items, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_tiny() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_with_keeps_worker_state_in_input_order() {
        let items: Vec<u32> = (0..10_000).collect();
        for t in [1, 2, 3, 8] {
            set_thread_override(Some(t));
            let mut seen: Vec<Vec<u32>> = vec![Vec::new(); 8];
            let out = par_map_with(&items, &mut seen, |x, mine| {
                mine.push(*x);
                x + 1
            });
            assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>(), "threads {t}");
            assert_eq!(seen.concat(), items, "threads {t}");
        }
        set_thread_override(None);
        // Fewer workers than threads: the workers bound the fan-out.
        let mut one = vec![0u64];
        assert_eq!(par_map_with(&items, &mut one, |x, sum| { *sum += u64::from(*x); *x }), items);
        assert_eq!(one[0], items.iter().map(|&x| u64::from(x)).sum::<u64>());
        let none: &mut [u8] = &mut [];
        assert!(par_map_with(&[] as &[u32], none, |x, _| *x).is_empty());
    }

    #[test]
    fn par_map2_zips_in_order() {
        let a: Vec<u64> = (0..5_000).collect();
        let b: Vec<u64> = (0..5_000).map(|x| x * 10).collect();
        let sums = par_map2(&a, &b, |x, y| x + y);
        assert_eq!(sums, (0..5_000).map(|x| x * 11).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn par_map2_rejects_length_mismatch() {
        par_map2(&[1u8, 2], &[1u8], |a, b| a + b);
    }

    #[test]
    fn par_chunk_map_concatenates_to_input_order() {
        let items: Vec<u32> = (0..9_999).collect();
        let flat: Vec<u32> = par_chunk_map(&items, |c| c.to_vec()).concat();
        assert_eq!(flat, items);
        let empty: Vec<u32> = Vec::new();
        assert!(par_chunk_map(&empty, |c: &[u32]| c.len()).is_empty());
    }

    #[test]
    fn radix_sort_matches_stable_sort() {
        // Both digit widths: keys that fit one 16-bit pass and keys that
        // need two. Stability is visible through the payload index.
        for spread in [50_000u32, 5_000_000u32] {
            let mut items: Vec<(u32, usize)> = (0..30_000usize)
                .map(|i| (((i as u32).wrapping_mul(0x9E37_79B9)) % spread, i))
                .collect();
            let mut expect = items.clone();
            expect.sort_by_key(|p| p.0);
            par_sort_by_u32_key(&mut items, |p| p.0);
            assert_eq!(items, expect, "spread {spread}");
        }
        // Below the cutoff the fallback must behave identically.
        let mut small: Vec<(u32, usize)> = (0..100).map(|i| (99 - i as u32, i)).collect();
        let mut expect = small.clone();
        expect.sort_by_key(|p| p.0);
        par_sort_by_u32_key(&mut small, |p| p.0);
        assert_eq!(small, expect);
    }

    #[test]
    #[cfg(not(feature = "race-detect"))]
    fn thread_override_caps_at_hardware() {
        set_thread_override(Some(100_000));
        assert!(max_threads() <= hardware_threads());
        set_thread_override(None);
        assert!(max_threads() >= 1);
    }

    #[test]
    #[cfg(feature = "race-detect")]
    fn race_detect_lifts_the_hardware_cap() {
        // The detector needs real threads even on a one-core box; the
        // override is honored past the hardware parallelism (bounded).
        set_thread_override(Some(100_000));
        assert_eq!(max_threads(), 64);
        set_thread_override(Some(8));
        assert_eq!(max_threads(), 8);
        set_thread_override(None);
        assert!(max_threads() >= 1);
    }

    /// `max_threads` is asked once per fan-out — once per interval visit in
    /// the engine — so it must not go to the OS each time: 10 000 calls take
    /// ≈ 150 ms when every one reads the affinity mask and the cgroup files.
    /// Best of five rounds, so a preempted round does not fail the test.
    #[test]
    fn max_threads_does_not_ask_the_os_every_call() {
        let round = || {
            let t = std::time::Instant::now();
            for _ in 0..10_000 {
                std::hint::black_box(max_threads());
            }
            t.elapsed()
        };
        let best = (0..5).map(|_| round()).min().unwrap_or_default();
        assert!(best.as_millis() < 20, "10 000 max_threads() calls took {best:?}");
    }

    /// Every spawn is counted: three from a scope, `n - 1` from a fan-out
    /// over `n` jobs. The counter is process-wide and other tests spawn
    /// meanwhile, hence a lower bound.
    #[test]
    fn spawn_count_counts_scope_spawns() {
        let before = spawn_count();
        scope(|s| {
            let hs: Vec<_> = (0..3).map(|k| s.spawn(move || k)).collect();
            hs.into_iter().for_each(|h| assert!(h.join().is_ok()));
        });
        fork_join(vec![|| (), || (), || ()]);
        assert!(spawn_count() - before >= 5);
    }

    /// The caller is a worker: of two jobs exactly one — the first — runs on
    /// the calling thread, and results still come back in job order.
    #[test]
    fn fork_join_runs_the_first_job_on_the_calling_thread() {
        let me = thread::current().id();
        let job = |k: usize| move || (k, thread::current().id());
        let ran = fork_join(vec![job(0), job(1)]);
        assert_eq!(ran.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(ran[0].1, me);
        assert_ne!(ran[1].1, me);
        assert!(fork_join(Vec::<fn() -> u8>::new()).is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let res = std::panic::catch_unwind(|| {
            let items: Vec<u32> = (0..10_000).collect();
            par_map(&items, |x| {
                assert!(*x != 5_000, "boom");
                *x
            })
        });
        assert!(res.is_err());
    }
}
