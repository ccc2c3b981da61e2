//! External sort microbenchmarks — the GraFBoost bottleneck the multi-log
//! design eliminates. Compares the in-memory fast path, external runs +
//! merge, and the sort-reduce (combine) path.

use mlvc_bench::micro;
use mlvc_grafboost::external_sort;
use mlvc_log::Update;
use mlvc_ssd::{Ssd, SsdConfig};

const N: u64 = 200_000;

fn make_log(ssd: &Ssd) -> mlvc_ssd::FileId {
    let f = ssd.open_or_create("log").unwrap();
    ssd.truncate(f).unwrap();
    let ups: Vec<Update> = (0..N)
        .map(|k| Update::new(((k * 2_654_435_761) % 50_000) as u32, k as u32, 1))
        .collect();
    mlvc_grafboost::write_log_pages(ssd, f, &ups, true).unwrap();
    f
}

fn setup() -> (Ssd, mlvc_ssd::FileId) {
    let ssd = Ssd::new(SsdConfig::default());
    let f = make_log(&ssd);
    (ssd, f)
}

fn main() {
    micro::case("extsort/in_memory_200k", 10, Some(N), setup, |(ssd, f)| {
        external_sort(&ssd, f, 64 << 20, None, true, "b")
    });
    micro::case("extsort/external_200k", 10, Some(N), setup, |(ssd, f)| {
        external_sort(&ssd, f, 256 << 10, None, true, "b")
    });
    micro::case("extsort/external_sort_reduce_200k", 10, Some(N), setup, |(ssd, f)| {
        external_sort(&ssd, f, 256 << 10, Some(u64::wrapping_add as _), true, "b")
    });
}
