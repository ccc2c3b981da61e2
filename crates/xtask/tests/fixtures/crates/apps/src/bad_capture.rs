//! Seeded violations for `no-shared-mut-capture-in-par`: closures handed
//! to a fan-out must not mutate shared state behind the detector's back.

pub fn sums(xs: &[u32]) -> Vec<u32> {
    let mut total = 0u32;
    mlvc_par::par_map(xs, |x| {
        accumulate(&mut total, *x);
        *x + 1
    })
}

pub fn cells(xs: &[u32]) -> Vec<u32> {
    mlvc_par::par_map(xs, |x| {
        CACHE.with(|c| c.borrow_mut().push(*x));
        *x
    })
}

pub fn worker_private(xs: &mut [u32]) {
    mlvc_par::par_sort_by_u32_key(xs, |x| *x);
    let _ = mlvc_par::par_map(xs, |x| {
        let mut acc = 0;
        push(&mut acc, *x);
        acc
    });
}

pub fn waived(xs: &[u32]) {
    // mlvc-lint: allow(no-shared-mut-capture-in-par) -- fixture shows a reasoned waiver
    let _ = mlvc_par::par_map(xs, |x| join(&mut count, *x));
}
