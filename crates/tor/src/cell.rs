//! Tor cell layout (link protocol v4 fixed-size cells).
//!
//! The layout constants of the 514-byte cell and its RELAY payload. The
//! performance model uses [`relay_payload_overhead`], derived from this
//! layout rather than a hard-coded factor.

/// Total size of a fixed-length cell: 4-byte circuit id, 1-byte command,
/// 509-byte payload (link protocol ≥ 4).
pub const CELL_LEN: usize = 514;

/// Payload bytes in a fixed-length cell.
pub const CELL_PAYLOAD_LEN: usize = 509;

/// RELAY cell header inside the payload: command(1) + recognized(2) +
/// stream id(2) + digest(4) + length(2).
pub const RELAY_HEADER_LEN: usize = 11;

/// Application bytes a single RELAY_DATA cell can carry.
pub const RELAY_DATA_LEN: usize = CELL_PAYLOAD_LEN - RELAY_HEADER_LEN;

/// Multiplicative overhead of Tor cell framing for large transfers
/// (≈ 1.033).
pub fn relay_payload_overhead() -> f64 {
    CELL_LEN as f64 / RELAY_DATA_LEN as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_close_to_three_percent() {
        let oh = relay_payload_overhead();
        assert!(oh > 1.02 && oh < 1.05, "{oh}");
        // Cell-by-cell wire bytes agree with the factor on large sizes:
        // every RELAY_DATA_LEN application bytes (rounded up) cost one
        // CELL_LEN-byte cell on the link.
        let app = 10_000_000u64;
        let cells = app.div_ceil(RELAY_DATA_LEN as u64);
        let wire = (cells * CELL_LEN as u64) as f64;
        assert!((wire / app as f64 - oh).abs() < 0.01);
    }
}
