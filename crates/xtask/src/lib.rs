//! # xtask — repo-local developer tooling
//!
//! Hosts **mlvc-lint**, the in-repo static analysis pass that enforces the
//! invariants the compiler cannot see: on-disk-format discipline in the
//! serialization crates, determinism of the SSD simulator, and panic
//! safety of the superstep loop. Run it with:
//!
//! ```text
//! cargo run -p xtask -- lint                   # whole workspace
//! cargo run -p xtask -- lint FILE...           # specific files (fixture tests)
//! cargo run -p xtask -- lint --report-waivers  # audit every allow directive
//! ```
//!
//! and **sim-pins** ([`sim_pins`]), which holds the benchmark's
//! simulated-clock metrics to the values committed in `BENCH_sim.json`.
//!
//! A violation can be acknowledged in place with a trailing or
//! immediately-preceding comment:
//!
//! ```text
//! // mlvc-lint: allow(no-truncating-cast) -- widening u32 to u64 is lossless
//! ```
//!
//! The `-- <reason>` is mandatory; a reasonless `allow` is itself reported.
//! Rules, scopes, and rationale live in `rules.rs` and DESIGN.md
//! ("Static analysis & invariants").

pub mod rules;
pub mod scan;
pub mod sim_pins;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Diagnostic, WaiverUse, RULES};

/// Directories never walked: build output, VCS, and the lint's own
/// seeded-violation fixtures.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", ".claude"];

/// Lint one file's source text. `rel` is the workspace-relative path with
/// `/` separators — it selects which rules apply.
pub fn lint_source(rel: &str, source: &str) -> Vec<Diagnostic> {
    rules::check_file(rel, &scan::scan(source))
}

/// Lint one on-disk file, deriving its rule scope from `rel`.
pub fn lint_file(path: &Path, rel: &str) -> io::Result<Vec<Diagnostic>> {
    Ok(lint_source(rel, &fs::read_to_string(path)?))
}

/// Recursively collect every `.rs` file under `root`, skipping
/// `SKIP_DIRS`, in deterministic (sorted) order.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !SKIP_DIRS.contains(&name) {
                    stack.push(p);
                }
            } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint the whole workspace rooted at `root`; diagnostics come back sorted
/// by (file, line).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for p in collect_rs_files(root)? {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.extend(lint_file(&p, &rel)?);
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

/// One waiver directive found in the workspace, located by file.
#[derive(Debug, Clone)]
pub struct WaiverReport {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    pub waiver: WaiverUse,
}

impl WaiverReport {
    /// A waiver that suppressed nothing is stale — the code it excused no
    /// longer trips the rule, so the directive should be deleted.
    pub fn is_stale(&self) -> bool {
        self.waiver.suppressed == 0
    }
}

/// Collect every waiver directive in the workspace, sorted by (file, line).
/// `crates/xtask` itself is excluded: its sources and docs quote directives
/// as data (examples, parser tests), not as live waivers.
pub fn report_waivers(root: &Path) -> io::Result<Vec<WaiverReport>> {
    let mut out = Vec::new();
    for p in collect_rs_files(root)? {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.starts_with("crates/xtask/") {
            continue;
        }
        let source = fs::read_to_string(&p)?;
        let (_, waivers) = rules::check_file_with_waivers(&rel, &scan::scan(&source));
        out.extend(waivers.into_iter().map(|waiver| WaiverReport { file: rel.clone(), waiver }));
    }
    out.sort_by(|a, b| (&a.file, a.waiver.line).cmp(&(&b.file, b.waiver.line)));
    Ok(out)
}

/// Workspace root: the directory two levels above this crate's manifest,
/// in the checkout the binary runs in (see `manifest_dir`).
pub fn workspace_root() -> PathBuf {
    let manifest = manifest_dir(std::env::var_os("CARGO_MANIFEST_DIR"), env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// This crate's manifest directory: `runtime`, the `CARGO_MANIFEST_DIR`
/// that `cargo run` and `cargo test` set for the checkout they run in, when
/// set, else `compiled`, the one the binary was built in. A copy of a
/// checkout that carries its `target/` runs the copy's binary unrebuilt, so
/// the compile-time value alone would check the original checkout.
fn manifest_dir(runtime: Option<std::ffi::OsString>, compiled: &str) -> PathBuf {
    runtime.map_or_else(|| PathBuf::from(compiled), PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_dir_prefers_the_runtime_value() {
        let copy = Some("/copy/crates/xtask".into());
        assert_eq!(manifest_dir(copy, "/orig/crates/xtask"), Path::new("/copy/crates/xtask"));
        assert_eq!(manifest_dir(None, "/orig/crates/xtask"), Path::new("/orig/crates/xtask"));
    }
}
