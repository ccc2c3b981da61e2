//! Fixture: log-page arithmetic re-derived by hand instead of taken from
//! `mlvc_log::page` must trip `no-magic-layout-literal`.

pub fn narrow_records_per_page() -> usize {
    (16 * 1024 - 8) / 10
}

pub fn widest_page(records: usize) -> usize {
    let bytes = 8 + records * 16;
    bytes
}

pub fn fits(page: &[u8]) -> bool {
    page.len() <= 16384
}

pub fn allowed_record() -> usize {
    // mlvc-lint: allow(no-magic-layout-literal) -- fixture demonstrates suppression
    let widest_record_bytes = 16;
    widest_record_bytes
}

pub fn from_the_codec(shape: mlvc_log::PageShape, page_size: usize) -> usize {
    shape.capacity(page_size) * shape.record_bytes()
}
