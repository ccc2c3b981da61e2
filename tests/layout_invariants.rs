//! Cross-crate on-disk layout invariants.
//!
//! The interval planner in `mlvc-graph` sizes sort batches with its own
//! update-record width because the dependency arrow points the other way
//! (`mlvc-log` depends on `mlvc-graph`), so neither crate can check the
//! other at compile time. This root-level test pins the duplicated
//! constants together; `mlvc-lint`'s `no-magic-layout-literal` rule keeps
//! further copies from appearing elsewhere.

use multilogvc::graph;
use multilogvc::log::page::{self, PageShape};
use multilogvc::log::{Update, UPDATE_BYTES};

#[test]
fn update_record_width_agrees_across_crates() {
    assert_eq!(UPDATE_BYTES, graph::UPDATE_BYTES);
}

#[test]
fn update_width_is_its_in_memory_size_and_bounds_every_logged_record() {
    // dest: u32, src: u32, data: u64 — no padding. Interval sizing and the
    // sort budget count messages at this width; no page shape logs a wider
    // record, so budgets sized with it hold for every shape.
    assert_eq!(UPDATE_BYTES, 4 + 4 + 8);
    assert_eq!(UPDATE_BYTES, std::mem::size_of::<Update>());
    for wide_dest in [false, true] {
        for has_src in [false, true] {
            assert!(PageShape { wide_dest, has_src }.record_bytes() <= UPDATE_BYTES);
        }
    }
}

#[test]
fn log_page_format_is_pinned() {
    // Header: count u16 | flags u16 | dest_base u32, little-endian.
    assert_eq!((page::COUNT_BYTES, page::FLAGS_BYTES, page::DEST_BASE_BYTES), (2, 2, 4));
    assert_eq!(page::PAGE_HEADER_BYTES, 8);
    assert_eq!((page::FLAG_WIDE_DEST, page::FLAG_HAS_SRC), (1, 2));
    assert_eq!(page::NARROW_DEST_SPAN, 65_536);
    // The four record widths: {u16 offset | u32 dest}{u32 src?}{u64 data}.
    let width = |wide_dest, has_src| PageShape { wide_dest, has_src }.record_bytes();
    assert_eq!(
        [width(false, false), width(true, false), width(false, true), width(true, true)],
        [10, 12, 14, 16]
    );
    // Byte-exact image of a one-record page in the narrowest and the
    // widest shape.
    let u = Update::new(0x0102_0304, 0x0A0B_0C0D, 0x1122_3344_5566_7788);
    let mut narrow = Vec::new();
    page::push_record(&mut narrow, PageShape { wide_dest: false, has_src: false }, 0x0102_0300, &u);
    page::seal_page(&mut narrow);
    assert_eq!(
        narrow,
        [1, 0, 0, 0, 0x00, 0x03, 0x02, 0x01, 0x04, 0x00, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
    );
    let mut wide = Vec::new();
    page::push_record(&mut wide, PageShape { wide_dest: true, has_src: true }, 0x0102_0300, &u);
    page::seal_page(&mut wide);
    assert_eq!(
        wide,
        [
            1, 0, 3, 0, 0, 0, 0, 0, 0x04, 0x03, 0x02, 0x01, 0x0D, 0x0C, 0x0B, 0x0A, 0x88, 0x77,
            0x66, 0x55, 0x44, 0x33, 0x22, 0x11
        ]
    );
}

#[test]
fn csr_entry_widths_match_their_element_types() {
    // Row pointers are u64 edge offsets; column indices are u32 vertex ids.
    assert_eq!(graph::ROW_PTR_BYTES, std::mem::size_of::<u64>());
    assert_eq!(graph::COL_IDX_BYTES, std::mem::size_of::<multilogvc::graph::VertexId>());
}

#[test]
fn checkpoint_manifest_constants_are_pinned() {
    use multilogvc::recover as rec;

    // "MLVCCKPT" in big-endian ASCII; bumping either constant invalidates
    // every checkpoint on disk, so changes here must be deliberate.
    assert_eq!(rec::CKPT_MAGIC, 0x4D4C_5643_434B_5054);
    assert_eq!(rec::CKPT_MAGIC.to_be_bytes(), *b"MLVCCKPT");
    // Version 2: the pending-messages segment holds `log::page` pages.
    assert_eq!(rec::CKPT_VERSION, 2);
    assert_eq!(rec::NUM_SEGMENTS, 3);
    assert_eq!(
        [rec::SEG_STATES, rec::SEG_ACTIVE, rec::SEG_MSGS],
        [0, 1, 2],
        "segment order is part of the on-disk format"
    );
}

#[test]
fn checkpoint_manifest_header_matches_its_field_layout() {
    use multilogvc::recover as rec;
    use multilogvc::recover::manifest as mf;

    // magic + version + seq + superstep + num_vertices + flags
    // + NUM_SEGMENTS × (len: u64, crc: u32) + trailing crc32.
    assert_eq!(mf::MAGIC_BYTES, 8);
    assert_eq!(mf::VERSION_BYTES, 4);
    assert_eq!(mf::SEQ_BYTES, 8);
    assert_eq!(mf::SUPERSTEP_BYTES, 8);
    assert_eq!(mf::NUM_VERTICES_BYTES, 8);
    assert_eq!(mf::FLAGS_BYTES, 4);
    assert_eq!(mf::SEGMENT_DESC_BYTES, 8 + 4);
    assert_eq!(mf::MANIFEST_CRC_BYTES, 4);
    assert_eq!(
        rec::MANIFEST_HEADER_BYTES,
        8 + 4 + 8 + 8 + 8 + 4 + rec::NUM_SEGMENTS * 12 + 4
    );
    assert_eq!(rec::MANIFEST_HEADER_BYTES, 80);

    // An encoded manifest is exactly the header and round-trips.
    let m = rec::Manifest {
        seq: 7,
        superstep: 3,
        num_vertices: 100,
        all_active: true,
        segments: [rec::SegmentDesc { len: 800, crc: 0xDEAD_BEEF }; rec::NUM_SEGMENTS],
    };
    let bytes = m.encode();
    assert_eq!(bytes.len(), rec::MANIFEST_HEADER_BYTES);
    assert_eq!(rec::Manifest::decode(&bytes), Ok(Some(m)));
}

#[test]
fn checkpoint_crc_is_crc32_ieee() {
    // The standard check value pins the polynomial and bit order: a
    // different CRC variant would still round-trip but reject every
    // checkpoint written by other builds.
    assert_eq!(multilogvc::recover::crc32(b"123456789"), 0xCBF4_3926);
}
