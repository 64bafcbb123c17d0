//! Area model: the Table I comparison (Static Bubble ≈ 0.5% router
//! overhead; escape VC ≈ 18%).

use serde::{Deserialize, Serialize};

/// Area of one router, in relative units where a conventional 4-VC-per-vnet
/// mesh router is ~1.0. Buffers and crossbar dominate, per Section IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct RouterArea {
    /// Input buffer area (per packet-sized buffer).
    pub per_buffer: f64,
    /// Crossbar + allocators + pipeline.
    pub base: f64,
    /// The Static Bubble FSM + counter + turn buffer + IO-priority/source
    /// registers (the paper measured < 0.5% of a router in 32 nm DSENT).
    pub sb_control: f64,
    /// Per-router escape routing table (the escape-VC design needs one).
    pub escape_table: f64,
}

/// Network-level area accounting for the three designs of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    router: RouterArea,
}

impl AreaModel {
    /// Reference relative-area constants: with 12 buffers per port group
    /// (3 vnets × 4 VCs) a router's buffers are ~64% of its area.
    pub fn dsent_32nm() -> Self {
        AreaModel {
            router: RouterArea {
                per_buffer: 0.0133,
                base: 0.36,
                sb_control: 0.004,
                escape_table: 0.03,
            },
        }
    }

    /// Area of one conventional router with `buffers` packet buffers.
    pub(crate) fn plain_router(&self, buffers: usize) -> f64 {
        self.router.base + buffers as f64 * self.router.per_buffer
    }

    /// Area of a Static Bubble router (one extra buffer + FSM/registers).
    pub(crate) fn sb_router(&self, buffers: usize) -> f64 {
        self.plain_router(buffers + 1) + self.router.sb_control
    }

    /// Area of an escape-VC router: `buffers` regular + `vnets` escape VCs
    /// + a routing table.
    pub(crate) fn escape_router(&self, buffers: usize, vnets: usize) -> f64 {
        self.plain_router(buffers + vnets) + self.router.escape_table
    }

    /// Total network area of the three designs on an `n` router mesh with
    /// `buffers` regular packet buffers per router and `sb_routers` static
    /// bubbles, as `(spanning_tree, static_bubble, escape_vc)`.
    pub fn network_comparison(
        &self,
        n: usize,
        buffers: usize,
        vnets: usize,
        sb_routers: usize,
    ) -> (f64, f64, f64) {
        let plain = self.plain_router(buffers);
        let sp_tree = n as f64 * plain;
        let sb = (n - sb_routers) as f64 * plain + sb_routers as f64 * self.sb_router(buffers);
        let evc = n as f64 * self.escape_router(buffers, vnets);
        (sp_tree, sb, evc)
    }

    /// Percentage overhead of design area `x` over the plain network.
    pub fn overhead_pct(plain: f64, x: f64) -> f64 {
        (x / plain - 1.0) * 100.0
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel::dsent_32nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I / Section IV-C anchors: SB network overhead ≈ 0% (<1%),
    /// escape VC ≈ 18%, and SB is ~18% smaller than escape VC.
    #[test]
    fn table_i_area_anchors() {
        let model = AreaModel::dsent_32nm();
        // 64-core mesh, 3 vnets × 4 VCs per port ⇒ 48 buffers per router
        // (4 mesh ports); 21 SB routers.
        let (sp, sb, evc) = model.network_comparison(64, 48, 3 * 4, 21);
        let sb_overhead = AreaModel::overhead_pct(sp, sb);
        let evc_overhead = AreaModel::overhead_pct(sp, evc);
        assert!(
            sb_overhead < 1.0,
            "SB overhead {sb_overhead:.2}% should be <1%"
        );
        assert!(
            (10.0..30.0).contains(&evc_overhead),
            "escape VC overhead {evc_overhead:.1}% should be ≈18%"
        );
        assert!(sb < evc);
    }

    #[test]
    fn per_router_overhead_is_small() {
        let model = AreaModel::dsent_32nm();
        let plain = model.plain_router(48);
        let sb = model.sb_router(48);
        assert!((sb - plain) / plain < 0.03);
    }

    #[test]
    fn buffers_dominate_router_area() {
        let model = AreaModel::dsent_32nm();
        let plain = model.plain_router(48);
        let buffer_part = 48.0 * 0.0133;
        assert!(buffer_part / plain > 0.5);
    }
}
