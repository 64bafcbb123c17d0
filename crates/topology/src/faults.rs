//! Seeded random fault / power-gating models (Section V-A).
//!
//! The paper randomly injects faults into an 8×8 mesh and maps them to link
//! failures in one model and router failures in the other, in line with prior
//! resiliency work. The same machinery models power-gated link drivers and
//! routers.

use crate::geom::NodeId;
use crate::mesh::Mesh;
use crate::topology::Topology;
use rand::seq::index::sample;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which component class faults are mapped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Remove bidirectional links (or power-gate link drivers).
    Links,
    /// Remove whole routers (or power-gate them), taking their ports along.
    Routers,
}

/// A random fault model: `count` faults of the given kind, sampled uniformly
/// without replacement.
///
/// ```
/// use sb_topology::{FaultKind, FaultModel, Mesh};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let topo = FaultModel::new(FaultKind::Routers, 5).inject(Mesh::new(8, 8), &mut rng);
/// assert_eq!(topo.alive_node_count(), 59);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultModel {
    kind: FaultKind,
    count: usize,
}

impl FaultModel {
    /// Create a fault model.
    pub fn new(kind: FaultKind, count: usize) -> Self {
        FaultModel { kind, count }
    }

    /// Derive a random irregular topology from `mesh`.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of available components of the
    /// chosen kind.
    pub fn inject<R: Rng + ?Sized>(&self, mesh: Mesh, rng: &mut R) -> Topology {
        let mut topo = Topology::full(mesh);
        match self.kind {
            FaultKind::Links => {
                let links: Vec<_> = mesh.links().collect();
                assert!(
                    self.count <= links.len(),
                    "cannot remove {} of {} links",
                    self.count,
                    links.len()
                );
                for i in sample(rng, links.len(), self.count) {
                    let (node, dir) = links[i];
                    topo.remove_link(node, dir);
                }
            }
            FaultKind::Routers => {
                let n = mesh.node_count();
                assert!(
                    self.count <= n,
                    "cannot remove {} of {} routers",
                    self.count,
                    n
                );
                for i in sample(rng, n, self.count) {
                    topo.remove_router(NodeId::from(i));
                }
            }
        }
        topo
    }

    /// Convenience: generate `samples` independent topologies with a
    /// deterministic per-sample seed derived from `base_seed`, so sweeps are
    /// reproducible and parallelizable.
    pub fn sample_topologies(&self, mesh: Mesh, base_seed: u64, samples: usize) -> Vec<Topology> {
        use rand::SeedableRng;
        (0..samples)
            .map(|i| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    base_seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                );
                self.inject(mesh, &mut rng)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn link_faults_remove_exact_count() {
        let mesh = Mesh::new(8, 8);
        for count in [0, 1, 10, 50, 112] {
            let mut rng = StdRng::seed_from_u64(1);
            let topo = FaultModel::new(FaultKind::Links, count).inject(mesh, &mut rng);
            assert_eq!(topo.alive_links().count(), mesh.link_count() - count);
            assert_eq!(topo.alive_node_count(), 64);
        }
    }

    #[test]
    fn router_faults_remove_exact_count() {
        let mesh = Mesh::new(8, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let topo = FaultModel::new(FaultKind::Routers, 30).inject(mesh, &mut rng);
        assert_eq!(topo.alive_node_count(), 34);
    }

    #[test]
    fn same_seed_same_topology() {
        let mesh = Mesh::new(8, 8);
        let model = FaultModel::new(FaultKind::Links, 20);
        let a = model.inject(mesh, &mut StdRng::seed_from_u64(99));
        let b = model.inject(mesh, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_topologies_are_distinct_and_reproducible() {
        let mesh = Mesh::new(8, 8);
        let model = FaultModel::new(FaultKind::Links, 20);
        let batch1 = model.sample_topologies(mesh, 7, 8);
        let batch2 = model.sample_topologies(mesh, 7, 8);
        assert_eq!(batch1, batch2);
        // With 20 of 112 links removed, two identical samples are vanishingly
        // unlikely.
        assert_ne!(batch1[0], batch1[1]);
    }

    #[test]
    #[should_panic(expected = "cannot remove")]
    fn too_many_faults_panics() {
        let mesh = Mesh::new(2, 2);
        FaultModel::new(FaultKind::Links, 5).inject(mesh, &mut StdRng::seed_from_u64(0));
    }
}
