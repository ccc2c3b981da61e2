//! Versioned binary CSR snapshots: reload a preprocessed graph without
//! re-parsing/re-sorting the edge-list text.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [8]  magic  "MLVCCSR\0"
//! [4]  version (u32)
//! [4]  flags   (bit 0 = weighted)
//! [8]  num_vertices (u64)
//! [8]  num_edges    (u64)
//! [8×(V+1)] row_ptr
//! [4×E]     col_idx
//! [4×E]     weights (f32 bits; only when weighted)
//! ```

use std::io::{BufReader, BufWriter, Read, Write};

use mlvc_graph::Csr;

use crate::IoError;

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MLVCCSR\0";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Serialize a CSR graph.
pub fn write_csr_binary<W: Write>(writer: W, graph: &Csr) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(SNAPSHOT_MAGIC)?;
    w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    let flags: u32 = graph.has_weights() as u32;
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    for &x in graph.row_ptr() {
        w.write_all(&x.to_le_bytes())?;
    }
    for &x in graph.col_idx() {
        w.write_all(&x.to_le_bytes())?;
    }
    if let Some(ws) = graph.weights_all() {
        for &x in ws {
            w.write_all(&x.to_bits().to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), IoError> {
    r.read_exact(buf)
        .map_err(|_| IoError::Format(format!("truncated snapshot while reading {what}")))
}

fn header_count(bytes: [u8; 8], what: &str) -> Result<usize, IoError> {
    usize::try_from(u64::from_le_bytes(bytes))
        .map_err(|_| IoError::Format(format!("{what} out of range")))
}

/// Bytes requested from the reader at a time.
const BLOCK_BYTES: usize = 64 << 10;

/// Read `count` little-endian `W`-byte words, a block at a time. `count`
/// comes from the unvalidated header, so nothing is sized by it: the vector
/// grows as bytes actually arrive, and a header that claims more than the
/// file holds ends in the truncation error.
fn read_words<const W: usize, T>(
    r: &mut impl Read,
    count: usize,
    what: &str,
    from_le: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, IoError> {
    let mut block = vec![0u8; BLOCK_BYTES];
    let mut out = Vec::new();
    let mut left = count;
    while left > 0 {
        let take = left.min(BLOCK_BYTES / W);
        let bytes = &mut block[..take * W];
        read_exact_or(r, bytes, what)?;
        out.extend(bytes.as_chunks::<W>().0.iter().map(|word| from_le(*word)));
        left -= take;
    }
    Ok(out)
}

/// Deserialize a CSR graph, validating magic, version, and structure.
pub fn read_csr_binary<R: Read>(reader: R) -> Result<Csr, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    read_exact_or(&mut r, &mut magic, "magic")?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(IoError::Format("bad magic: not an mlvc CSR snapshot".into()));
    }
    let mut b4 = [0u8; 4];
    read_exact_or(&mut r, &mut b4, "version")?;
    let version = u32::from_le_bytes(b4);
    if version != SNAPSHOT_VERSION {
        return Err(IoError::Format(format!(
            "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        )));
    }
    read_exact_or(&mut r, &mut b4, "flags")?;
    let flags = u32::from_le_bytes(b4);
    if flags > 1 {
        return Err(IoError::Format(format!("unknown flags {flags:#x}")));
    }
    let weighted = flags & 1 == 1;
    let mut b8 = [0u8; 8];
    read_exact_or(&mut r, &mut b8, "vertex count")?;
    let n = header_count(b8, "vertex count")?;
    read_exact_or(&mut r, &mut b8, "edge count")?;
    let m = header_count(b8, "edge count")?;

    let rows = n
        .checked_add(1)
        .ok_or_else(|| IoError::Format("vertex count out of range".into()))?;
    let row_ptr = read_words(&mut r, rows, "row_ptr", u64::from_le_bytes)?;
    let col_idx = read_words(&mut r, m, "col_idx", u32::from_le_bytes)?;
    let weights = if weighted {
        Some(read_words(&mut r, m, "weights", |b| f32::from_bits(u32::from_le_bytes(b)))?)
    } else {
        None
    };
    // Trailing garbage is a format error, not silently ignored.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(IoError::Format("trailing bytes after snapshot".into()));
    }
    if row_ptr.last().copied() != Some(m as u64) {
        return Err(IoError::Format("row_ptr/edge-count mismatch".into()));
    }
    if !row_ptr.windows(2).all(|w| w[0] <= w[1]) {
        return Err(IoError::Format("row_ptr not monotone".into()));
    }
    if col_idx.iter().any(|&c| c as usize >= n.max(1)) {
        return Err(IoError::Format("column index out of range".into()));
    }
    Ok(Csr::from_parts(row_ptr, col_idx, weights))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_unweighted() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(8, 4), 9);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        assert_eq!(read_csr_binary(buf.as_slice()).unwrap(), g);
    }

    #[test]
    fn roundtrip_weighted() {
        let mut b = mlvc_graph::EdgeListBuilder::new(6).symmetrize(true);
        b.push_weighted(0, 1, 0.5);
        b.push_weighted(2, 3, 7.75);
        let g = b.build();
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        assert_eq!(read_csr_binary(buf.as_slice()).unwrap(), g);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let g = mlvc_gen::path(3);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_csr_binary(bad.as_slice()), Err(IoError::Format(_))));

        let mut bad = buf.clone();
        bad[8] = 99;
        assert!(matches!(read_csr_binary(bad.as_slice()), Err(IoError::Format(_))));
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let g = mlvc_gen::path(5);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();

        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(read_csr_binary(truncated), Err(IoError::Format(_))));

        let mut extended = buf.clone();
        extended.push(0);
        assert!(matches!(read_csr_binary(extended.as_slice()), Err(IoError::Format(_))));
    }

    /// The header's counts size nothing: a file that claims more than it
    /// holds is a truncated snapshot, however much it claims.
    #[test]
    fn header_counts_beyond_the_file_are_a_typed_error() {
        let g = mlvc_gen::path(5);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        let truncated = |r: Result<Csr, IoError>, what: &str| match r {
            Err(IoError::Format(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a truncation error in {what}, got {other:?}"),
        };
        // Cut mid-`col_idx`: header + row_ptr + one and a half entries.
        let col_off = 8 + 4 + 4 + 8 + 8 + (5 + 1) * 8;
        truncated(read_csr_binary(&buf[..col_off + 6]), "col_idx");
        // A 40-byte file: header claiming 2^60 edges, one row_ptr word.
        let mut huge = buf[..16].to_vec();
        huge.extend_from_slice(&0u64.to_le_bytes());
        huge.extend_from_slice(&(1u64 << 60).to_le_bytes());
        huge.extend_from_slice(&(1u64 << 60).to_le_bytes());
        assert_eq!(huge.len(), 40);
        truncated(read_csr_binary(huge.as_slice()), "col_idx");
        // And 2^64 - 1 vertices: the row count itself does not fit.
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_csr_binary(huge.as_slice()), Err(IoError::Format(_))));
    }

    #[test]
    fn rejects_corrupt_structure() {
        let g = mlvc_gen::path(4);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        // Corrupt a col_idx entry to an out-of-range vertex.
        let col_off = 8 + 4 + 4 + 8 + 8 + (4 + 1) * 8;
        buf[col_off..col_off + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(read_csr_binary(buf.as_slice()), Err(IoError::Format(_))));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = mlvc_graph::EdgeListBuilder::new(1).build();
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        assert_eq!(read_csr_binary(buf.as_slice()).unwrap(), g);
    }
}
