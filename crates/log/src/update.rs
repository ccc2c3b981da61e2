use mlvc_graph::VertexId;

/// One logged message: `<v_dest, m>` where `m` carries the sending vertex
/// and an 8-byte payload (paper §V-A: "Each message appended to the log is
/// of the format <v_dest, m>").
///
/// The payload is an opaque `u64`; applications encode labels, ranks,
/// colors, walk states, … into it (helpers in `mlvc-apps`). This is the
/// in-memory form; how a message is laid out on a log page is
/// [`crate::page`]'s business.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Update {
    pub dest: VertexId,
    pub src: VertexId,
    pub data: u64,
}

/// Size of one update in host memory — the width the interval sizing and
/// the sort budget count messages in. A logged record is never wider
/// (`crate::page`), so budgets sized with it stay conservative.
pub const UPDATE_BYTES: usize = 16;

impl Update {
    pub fn new(dest: VertexId, src: VertexId, data: u64) -> Self {
        Update { dest, src, data }
    }
}
