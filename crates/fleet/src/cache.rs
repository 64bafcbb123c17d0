//! The content-addressed result cache: dedup keys and the on-disk store
//! (see `DESIGN.md` §11).
//!
//! The determinism contract (bit-identical `Stats` for a given spec)
//! makes a scenario's result a pure function of its content, so results
//! can be *addressed by content* instead of recomputed:
//!
//! * a [`CacheKey`] is `(schema epoch, content fingerprint)` — the epoch
//!   hashes the engine's result semantics ([`sb_sim::RESULT_EPOCH`]) plus
//!   the serialized shape of [`sb_sim::Stats`], the fingerprint hashes
//!   the scenario spec with its cosmetic name normalized away
//!   ([`sb_scenario::Scenario::content_fingerprint`]) plus the execution
//!   options that shape the result (drain budget, forensics capture);
//! * the [`DiskCache`] stores one file per key (atomic tmp+rename
//!   writes, versioned single-line header), and *validates* the header
//!   against the requested key on every load — a stale epoch, foreign
//!   fingerprint, truncation or plain corruption is a **miss**, never a
//!   crash and never a stale serve. Resuming an interrupted sweep is
//!   re-running it against the same directory: the store serves what
//!   finished, the remainder simulates.
//!
//! Everything here is best-effort: a cache that cannot be read or written
//! degrades to re-simulation, it never takes the sweep down with it.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sb_scenario::{fnv1a, Scenario, SpecError};
use sb_sim::Stats;
use serde::{Deserialize, Serialize};

use crate::agg::RunResult;
use crate::ExecOptions;

/// On-disk format version of cache entries. Bump on any
/// change to the file layout; old files then fail header validation and
/// fall back to re-simulation.
pub(crate) const CACHE_FORMAT: u32 = 1;

/// The schema/epoch hash every cache key folds in: FNV-1a over a manifest
/// naming the cache format, the engine's [`sb_sim::RESULT_EPOCH`], and the
/// serialized shape of [`Stats::default`]. Renaming, adding or removing a
/// `Stats` field changes the default's JSON and thus the epoch, so entries
/// written under an older layout can never be served; semantic changes
/// that keep the layout must bump `RESULT_EPOCH` (documented there).
pub fn schema_epoch() -> u64 {
    let stats_shape = sb_scenario::json::to_json_string(&Stats::default())
        .unwrap_or_else(|_| "unserializable-stats".to_string());
    let manifest = format!(
        "sbcache format={CACHE_FORMAT} engine-epoch={} stats-shape={stats_shape}",
        sb_sim::RESULT_EPOCH
    );
    fnv1a(manifest.as_bytes())
}

/// Content address of one simulation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Schema/epoch hash ([`schema_epoch`]).
    pub epoch: u64,
    /// Content fingerprint of the scenario + execution options.
    pub fp: u64,
}

impl CacheKey {
    /// The entry's file name inside a cache directory.
    pub(crate) fn file_name(&self) -> String {
        format!("sb-{:016x}-{:016x}.entry", self.epoch, self.fp)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}-{:016x}", self.epoch, self.fp)
    }
}

/// The full content key of `(scenario, exec options)` under `epoch`.
///
/// The execution options fold into the fingerprint because they shape the
/// [`RunResult`]: a drain probe adds the `drained` field, forensics
/// capture adds the report — results produced under different options are
/// different content.
pub fn content_key(
    scenario: &Scenario,
    opts: ExecOptions,
    epoch: u64,
) -> Result<CacheKey, SpecError> {
    let mut fp = scenario.content_fingerprint()?;
    let opts_tag = format!(
        "opts forensics={} drain={:?}",
        opts.forensics, opts.drain_budget
    );
    fp ^= fnv1a(opts_tag.as_bytes()).rotate_left(17);
    Ok(CacheKey { epoch, fp })
}

/// Tallies of how a batch of runs was actually serviced. `simulated` is
/// the number of scenario executions performed — the number the warm-path
/// CI check pins to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheAccounting {
    /// Runs requested (one per expanded `SweepRun`).
    pub total_requested: usize,
    /// Distinct content keys among them (the in-process dedup factor).
    pub unique_scenarios: usize,
    /// Unique scenarios actually executed this time.
    pub simulated: usize,
    /// Requests served by fanning out another request's in-process result.
    pub dedup_served: usize,
    /// Unique scenarios served from the on-disk store.
    pub disk_hits: usize,
    /// Results durably written to the on-disk store.
    pub stored: usize,
    /// Always 0: kept only because `benchmark/src/fleet.rs` names it
    /// (ROADMAP item 4's benchmark-PR list).
    pub journal_resumed: usize,
}

impl CacheAccounting {
    /// One-line JSON rendering (stderr accounting of the `sweep` binary;
    /// CI greps `"simulated": 0` out of the warm run).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"cache\": {{\"total_requested\": {}, \"unique_scenarios\": {}, \
             \"simulated\": {}, \"dedup_served\": {}, \"disk_hits\": {}, \
             \"stored\": {}}}}}",
            self.total_requested,
            self.unique_scenarios,
            self.simulated,
            self.dedup_served,
            self.disk_hits,
            self.stored
        )
    }
}

/// Serialized body of one cache entry (the part after the header line).
/// A dedicated struct — rather than `RunResult` itself — so the stored
/// form can carry the redundant identity fields the loader cross-checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct EntryBody {
    /// Human-readable scenario label of the first writer (debugging only;
    /// *not* part of the identity — names are cosmetic).
    written_for: String,
    /// The memoized result.
    result: RunResult,
}

/// Monotonic discriminator for temp-file names: concurrent writers in one
/// process must never share a tmp path (cross-process uniqueness comes
/// from the pid).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A content-addressed store of [`RunResult`]s: one file per [`CacheKey`]
/// in one flat directory, shareable between sweeps, grids and binaries —
/// any client that computes the same content key reads the same entry.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Open (creating if needed) a cache directory. Returns `None` — with
    /// a stderr warning — if the directory cannot be created; callers then
    /// run uncached rather than failing the sweep.
    pub fn open(dir: impl Into<PathBuf>) -> Option<DiskCache> {
        let dir = dir.into();
        match std::fs::create_dir_all(&dir) {
            Ok(()) => Some(DiskCache { dir }),
            Err(e) => {
                eprintln!(
                    "sb-fleet: cache dir {} unusable ({e}); running uncached",
                    dir.display()
                );
                None
            }
        }
    }

    /// Path of `key`'s entry file.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Load the result stored under `key`, or `None` on *any* defect:
    /// missing file, truncated or corrupted content, format/epoch/
    /// fingerprint mismatch. A miss means "re-simulate"; it is never an
    /// error and never serves stale bytes.
    pub fn load(&self, key: &CacheKey) -> Option<RunResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let (header, body) = text.split_once('\n')?;
        // Header: `sbcache v<format> epoch=<hex> fp=<hex>` — validated
        // field by field against the *requested* key, so a renamed or
        // hand-copied file can still only serve its own content.
        let mut parts = header.split_ascii_whitespace();
        if parts.next() != Some("sbcache") {
            return None;
        }
        if parts.next() != Some(&format!("v{CACHE_FORMAT}")) {
            return None;
        }
        if parts.next() != Some(&format!("epoch={:016x}", key.epoch)) {
            return None;
        }
        if parts.next() != Some(&format!("fp={:016x}", key.fp)) {
            return None;
        }
        let body: EntryBody = sb_scenario::json::from_json_str(body).ok()?;
        Some(body.result)
    }

    /// Durably store `result` under `key`: write a temp file in the cache
    /// directory, fsync-free but atomic via `rename`, so readers only ever
    /// observe absent or complete entries and concurrent writers of the
    /// same key race benignly (equal keys ⇒ equal bytes; last rename
    /// wins). Returns whether the entry landed; failures warn and return
    /// `false` (the sweep's own result is unaffected).
    pub fn store(&self, key: &CacheKey, written_for: &str, result: &RunResult) -> bool {
        let body = EntryBody {
            written_for: written_for.to_string(),
            result: result.clone(),
        };
        let json = match sb_scenario::json::to_json_string(&body) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("sb-fleet: cache serialize {key}: {e}");
                return false;
            }
        };
        let text = format!(
            "sbcache v{CACHE_FORMAT} epoch={:016x} fp={:016x}\n{json}",
            key.epoch, key.fp
        );
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
            key.file_name()
        ));
        let finish =
            std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, self.entry_path(key)));
        match finish {
            Ok(()) => true,
            Err(e) => {
                eprintln!("sb-fleet: cache store {key}: {e}");
                let _ = std::fs::remove_file(&tmp);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_stable_within_a_build() {
        assert_eq!(schema_epoch(), schema_epoch());
    }

    #[test]
    fn exec_options_change_the_content_key() {
        let sc = Scenario::new("k", sb_scenario::Design::StaticBubble);
        let epoch = schema_epoch();
        let plain = content_key(&sc, ExecOptions::default(), epoch).unwrap();
        let drained = content_key(
            &sc,
            ExecOptions {
                forensics: false,
                drain_budget: Some(100),
            },
            epoch,
        )
        .unwrap();
        let forensics = content_key(
            &sc,
            ExecOptions {
                forensics: true,
                drain_budget: None,
            },
            epoch,
        )
        .unwrap();
        assert_ne!(plain, drained);
        assert_ne!(plain, forensics);
        assert_ne!(drained, forensics);
    }

    #[test]
    fn thread_counts_share_one_content_key() {
        // Nothing reads `threads`, so the scenario's field may not split
        // the cache.
        let epoch = schema_epoch();
        let sc = Scenario::new("k", sb_scenario::Design::StaticBubble);
        let base = content_key(&sc, ExecOptions::default(), epoch).unwrap();
        let mut spec_threads = sc.clone();
        spec_threads.threads = 8;
        assert_eq!(
            base,
            content_key(&spec_threads, ExecOptions::default(), epoch).unwrap()
        );
    }

    #[test]
    fn keys_ignore_names_but_track_content() {
        let epoch = schema_epoch();
        let a = Scenario::new("alpha", sb_scenario::Design::EscapeVc);
        let b = Scenario::new("omega", sb_scenario::Design::EscapeVc);
        assert_eq!(
            content_key(&a, ExecOptions::default(), epoch).unwrap(),
            content_key(&b, ExecOptions::default(), epoch).unwrap()
        );
        let c = b.clone().with_cycles(b.cycles + 1);
        assert_ne!(
            content_key(&b, ExecOptions::default(), epoch).unwrap(),
            content_key(&c, ExecOptions::default(), epoch).unwrap()
        );
    }
}
