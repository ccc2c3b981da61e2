//! Seeded violations for `no-raw-thread-spawn`: raw std threads escape
//! mlvc-par's `spawn_count` and its seeded spawn order.

pub fn fan_out() -> u32 {
    let h = std::thread::spawn(move || 1);
    h.join().unwrap_or(0)
}

pub fn scoped() {
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
}

pub fn named() {
    // mlvc-lint: allow(no-raw-thread-spawn) -- fixture shows a reasoned waiver
    let _ = std::thread::Builder::new();
}

#[cfg(test)]
mod tests {
    #[test]
    fn raw_threads_are_test_exempt() {
        std::thread::spawn(|| ()).join().ok();
    }
}
