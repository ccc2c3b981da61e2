
use crate::{DEFAULT_CHANNELS, DEFAULT_PAGE_SIZE};

/// Geometry of the simulated SSD. The service-time model is one device's —
/// a SATA TLC drive in the class of the paper's Samsung 860 EVO — and lives
/// beside the code that charges it ([`READ_NS`], [`WRITE_NS`],
/// [`SEQ_DISCOUNT`]). Absolute values only scale the simulated clock; the
/// experiments report *ratios* between engines running on identical
/// devices, so shapes are insensitive to the exact figures.
///
/// [`READ_NS`]: crate::READ_NS
/// [`WRITE_NS`]: crate::WRITE_NS
/// [`SEQ_DISCOUNT`]: crate::SEQ_DISCOUNT
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Page size in bytes; minimum unit of every read and write.
    pub page_size: usize,
    /// Number of independent flash channels. Requests in one batch are
    /// striped across channels and serviced in parallel.
    pub channels: usize,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig { page_size: DEFAULT_PAGE_SIZE, channels: DEFAULT_CHANNELS }
    }
}

impl SsdConfig {
    /// A config with `page_size` overridden (builder-style convenience).
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        assert!(page_size >= 64, "page size unrealistically small");
        self.page_size = page_size;
        self
    }

    /// A config with `channels` overridden.
    pub fn with_channels(mut self, channels: usize) -> Self {
        assert!(channels >= 1);
        self.channels = channels;
        self
    }

    /// A small-page config convenient for unit tests (256-byte pages) so
    /// that page-boundary behaviour is exercised with tiny data.
    pub fn test_small() -> Self {
        SsdConfig::default().with_page_size(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::READ_NS;

    #[test]
    fn defaults_match_paper_geometry() {
        let c = SsdConfig::default();
        assert_eq!(c.page_size, 16 * 1024);
        assert_eq!(c.channels, 4);
        // SATA-class read bandwidth: page_size * channels / READ_NS.
        let mbps = (c.page_size * c.channels) as f64 / (READ_NS as f64 / 1e9) / 1e6;
        assert!((400.0..700.0).contains(&mbps), "read bandwidth {mbps} MB/s");
    }

    #[test]
    #[should_panic]
    fn zero_channels_rejected() {
        let _ = SsdConfig::default().with_channels(0);
    }
}
