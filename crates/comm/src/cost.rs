//! α-β (latency-bandwidth) communication cost model.
//!
//! The evaluation machine of the paper is NERSC Cori (Cray Aries,
//! dragonfly). We cannot time a real interconnect, so the exact
//! message/byte counts the runtime records are priced with this
//! analytical model after the run (`louvain_dist::model`); nothing on the
//! send path knows it. The resulting time is what reproduces the scaling
//! shape of the paper's Figures 3–4 when ranks are simulated by threads.

/// Analytical model: a point-to-point message of `n` bytes costs
/// `alpha + beta * n`; a collective over `p` ranks costs
/// `ceil(log2 p) * (alpha + beta * n_per_stage)` (binomial-tree shaped).
/// Both are linear in the message and byte counts, so a batch is priced
/// from its totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency in seconds.
    pub alpha: f64,
    /// Per-byte transfer time in seconds (inverse bandwidth).
    pub beta: f64,
}

impl CostModel {
    /// Cray-Aries-like constants: ~1.3 µs latency, ~9 GB/s effective
    /// per-rank bandwidth.
    pub const fn aries() -> Self {
        Self {
            alpha: 1.3e-6,
            beta: 1.0 / 9.0e9,
        }
    }

    /// Cost of `nmsgs` point-to-point messages carrying `bytes` bytes in
    /// total (the sends inside the irregular all-to-alls included: the
    /// sum of the individual sends is the dominant term for the sparse
    /// exchanges in distributed Louvain).
    pub fn p2p(&self, nmsgs: u64, bytes: u64) -> f64 {
        nmsgs as f64 * self.alpha + self.beta * bytes as f64
    }

    /// Cost of `calls` tree-shaped collectives over `p` ranks moving
    /// `bytes` bytes per stage in total (e.g. all-reduces of a scalar,
    /// or broadcasts).
    pub fn collective(&self, p: usize, calls: u64, bytes: u64) -> f64 {
        let stages = (usize::BITS - p.saturating_sub(1).leading_zeros()).max(1) as f64;
        stages * self.p2p(calls, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_cost_is_affine_and_batches_by_totals() {
        let m = CostModel {
            alpha: 1.0,
            beta: 0.5,
        };
        assert_eq!(m.p2p(1, 0), 1.0);
        assert_eq!(m.p2p(1, 10), 6.0);
        assert_eq!(m.p2p(3, 30), 3.0 * m.p2p(1, 10));
    }

    #[test]
    fn collective_scales_logarithmically() {
        let m = CostModel {
            alpha: 1.0,
            beta: 0.0,
        };
        assert_eq!(m.collective(1, 1, 0), 1.0);
        assert_eq!(m.collective(2, 1, 0), 1.0);
        assert_eq!(m.collective(4, 1, 0), 2.0);
        assert_eq!(m.collective(8, 1, 0), 3.0);
        assert_eq!(m.collective(5, 1, 0), 3.0); // rounded up to 8
        assert_eq!(m.collective(8, 7, 0), 21.0);
    }

    #[test]
    fn aries_defaults_are_sane() {
        let m = CostModel::aries();
        // One MB transfer should take on the order of 100 µs.
        let t = m.p2p(1, 1 << 20);
        assert!(t > 1e-5 && t < 1e-3, "t = {t}");
    }
}
