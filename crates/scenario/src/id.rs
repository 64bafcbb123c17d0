//! Stable identities for scenarios inside a sweep.
//!
//! A sweep grid expands to many [`Scenario`]s; results stream back from
//! worker threads in whatever order they finish, so every expanded scenario
//! carries a [`ScenarioId`] the aggregator can key on. The id is *stable*:
//! it depends only on the expansion order and the human-readable grid
//! coordinates, never on scheduling. [`Scenario::fingerprint`] adds a
//! content hash over the canonical JSON form — two specs with equal
//! fingerprints describe byte-identical experiments (the future
//! result-cache key of the simulation service, ROADMAP item 3).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::spec::Scenario;
use crate::value::SpecError;

/// Identity of one expanded scenario inside a sweep.
///
/// `index` is the position in the deterministic expansion order (the
/// aggregator's sort key); `key` is the human-readable grid coordinate
/// (`"8x8/links:12/t3/static-bubble/full/r0.18/s5"`) used in reports.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ScenarioId {
    /// Position in the expansion order; unique within one sweep.
    pub index: u32,
    /// Human-readable grid coordinate; unique within one sweep.
    pub key: String,
}

impl ScenarioId {
    /// Build an id from its expansion index and grid key.
    pub fn new(index: u32, key: impl Into<String>) -> Self {
        ScenarioId {
            index,
            key: key.into(),
        }
    }
}

impl fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}", self.index, self.key)
    }
}

/// FNV-1a over a byte string: tiny, dependency-free, stable across
/// platforms. Not cryptographic — a cache/identity hash only.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Scenario {
    /// Content hash over the canonical (JSON) form of this scenario: equal
    /// fingerprints ⇒ byte-identical specs ⇒ (by the determinism contract)
    /// identical results.
    pub fn fingerprint(&self) -> Result<u64, SpecError> {
        Ok(fnv1a(self.to_json()?.as_bytes()))
    }

    /// The *result-cache* content hash: like [`Scenario::fingerprint`] but
    /// with the cosmetic [`Scenario::name`] normalized away, because the
    /// name labels the experiment without influencing the simulation
    /// (nothing in `build_on` reads it). Two grid points with different
    /// human-readable keys but identical physics therefore share one
    /// content fingerprint — the property the fleet's cross-grid dedup and
    /// on-disk result cache key on. [`Scenario::threads`] is normalized
    /// away too: nothing reads it, and a spec that says `threads = 4` must
    /// still hit the entry written for `threads = 1`. Every
    /// *simulation-relevant* field (topology, design, traffic, config,
    /// seeds, window, clock, audit cadence) still feeds the hash.
    pub fn content_fingerprint(&self) -> Result<u64, SpecError> {
        let mut canon = self.clone();
        canon.name = String::new();
        canon.threads = 1;
        Ok(fnv1a(canon.to_json()?.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Design;

    #[test]
    fn ids_order_by_index() {
        let a = ScenarioId::new(0, "z");
        let b = ScenarioId::new(1, "a");
        assert!(a < b, "index dominates the ordering, not the key");
        assert_eq!(format!("{a}"), "#0 z");
    }

    #[test]
    fn fingerprint_tracks_content() {
        let base = Scenario::new("fp", Design::StaticBubble);
        let same = Scenario::new("fp", Design::StaticBubble);
        assert_eq!(base.fingerprint().unwrap(), same.fingerprint().unwrap());
        let other = base.clone().with_seed(base.seed + 1);
        assert_ne!(base.fingerprint().unwrap(), other.fingerprint().unwrap());
    }

    #[test]
    fn content_fingerprint_ignores_the_cosmetic_name() {
        let a = Scenario::new("grid-a/r0.1/s1", Design::StaticBubble);
        let b = Scenario::new("grid-b/point-7", Design::StaticBubble);
        // Different labels, identical physics: one content key.
        assert_ne!(a.fingerprint().unwrap(), b.fingerprint().unwrap());
        assert_eq!(
            a.content_fingerprint().unwrap(),
            b.content_fingerprint().unwrap()
        );
        // Any simulation-relevant field still changes the key.
        let c = b.clone().with_seed(b.seed + 1);
        assert_ne!(
            b.content_fingerprint().unwrap(),
            c.content_fingerprint().unwrap()
        );
        let d = b.clone().with_tdd(b.tdd + 1);
        assert_ne!(
            b.content_fingerprint().unwrap(),
            d.content_fingerprint().unwrap()
        );
    }

    #[test]
    fn content_fingerprint_ignores_threads() {
        // Nothing reads `threads`, so it must not split the result cache.
        let seq = Scenario::new("par", Design::StaticBubble).with_mesh(4, 4);
        let (mut par, mut auto) = (seq.clone(), seq.clone());
        par.threads = 4;
        auto.threads = 0;
        assert_ne!(seq.fingerprint().unwrap(), par.fingerprint().unwrap());
        assert_eq!(
            seq.content_fingerprint().unwrap(),
            par.content_fingerprint().unwrap()
        );
        assert_eq!(
            seq.content_fingerprint().unwrap(),
            auto.content_fingerprint().unwrap()
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
