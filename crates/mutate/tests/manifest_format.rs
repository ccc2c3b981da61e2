//! The merge manifest's format change (DESIGN.md §17): version 2 widened
//! its magic to the shared commit record's 8 bytes. An intact manifest
//! this build does not read — version 1's `MLMT` layout, or another
//! version of the current one — is refused as corrupt mutation state by
//! both `MutationLog::new` and `recover`, never skipped: skipping a merge
//! that committed but did not retire would leave a half-installed CSR.

use std::sync::Arc;

use mlvc_graph::{StoredGraph, VertexIntervals};
use mlvc_mutate::{MutationConfig, MutationError, MutationLog};
use mlvc_recover::{crc32, MERGE_RECORD};
use mlvc_ssd::{Ssd, SsdConfig};

/// A committed, unretired merge naming interval 1, written field by field
/// after `magic`, with a CRC over all of it.
fn manifest_page(magic: &[u8], version: u32) -> Vec<u8> {
    let mut page = magic.to_vec();
    page.extend_from_slice(&version.to_le_bytes());
    page.extend_from_slice(&5u64.to_le_bytes()); // seq
    page.extend_from_slice(&120u64.to_le_bytes()); // new edge total
    page.extend_from_slice(&1u32.to_le_bytes()); // one entry:
    page.extend_from_slice(&1u32.to_le_bytes()); // interval 1,
    page.extend_from_slice(&7u64.to_le_bytes()); // 7 colidx entries
    let crc = crc32(&page);
    page.extend_from_slice(&crc.to_le_bytes());
    page
}

/// Put `page` in a manifest slot of a log that is already open, then ask
/// that log to recover and a new one to open: both refuse, and the stored
/// CSR is untouched.
fn assert_refused(page: &[u8], version: u32) {
    let g = mlvc_gen::erdos_renyi(40, 120, 7);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let iv = VertexIntervals::uniform(g.num_vertices(), 4);
    let sg = StoredGraph::store_with(&ssd, &g, "g", iv.clone()).unwrap();
    let open = || MutationLog::new(Arc::clone(&ssd), iv.clone(), MutationConfig::default(), "m");
    let mut log = open().unwrap();
    let slot = ssd.lookup("m.mut.manifest.1").unwrap();
    ssd.append_page(slot, page).unwrap();

    let want = format!("merge manifest: format version {version}, this build reads version 2");
    for (who, got) in [("recover", log.recover(&sg).map(drop)), ("new", open().map(drop))] {
        match got {
            Err(MutationError::Corrupt(msg)) if msg == want => {}
            other => panic!("{who} on a version-{version} manifest: {other:?}"),
        }
    }
    assert_eq!(sg.to_csr().unwrap(), g, "the refusal rewrote the CSR");
}

#[test]
fn an_intact_version_1_manifest_is_refused() {
    assert_refused(&manifest_page(&0x4D4C_4D54u32.to_le_bytes(), 1), 1);
}

#[test]
fn an_intact_manifest_of_another_version_is_refused() {
    assert_refused(&manifest_page(&MERGE_RECORD.magic.to_le_bytes(), 3), 3);
}
