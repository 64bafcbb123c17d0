//! The serializable sweep grid and its deterministic expansion.
//!
//! A [`SweepSpec`] is the fleet's unit of input: a grid over mesh size ×
//! fault model × design × offered load × seed (plus the Static Bubble
//! ablation variants), written as scalar arrays so it round-trips through
//! both the TOML and JSON codecs and stays hand-editable. [`SweepSpec::expand`]
//! multiplies the axes out — in one documented, stable order — into
//! [`SweepRun`]s, each carrying a [`ScenarioId`] whose `index` is the
//! expansion position and whose `key` is the human-readable grid
//! coordinate. Everything downstream (scheduling, aggregation, reports)
//! keys on those ids, which is what makes fleet output independent of
//! worker count.

use sb_scenario::{ClockMode, Design, FaultSpec, Scenario, ScenarioId, SpecError, TrafficSpec};
use sb_sim::SimConfig;
use sb_topology::FaultKind;
use serde::{Deserialize, Serialize};
use static_bubble::SbOptions;

/// A sweep grid. Axes are scalar arrays (labels where the underlying type
/// is structured) so the spec stays TOML-representable; they are validated
/// at [`SweepSpec::expand`] time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Sweep label (report title, file names).
    pub name: String,
    /// Mesh sizes as `"WxH"` strings (e.g. `"8x8"`).
    pub meshes: Vec<String>,
    /// Link-fault counts; `0` means the pristine mesh.
    pub link_faults: Vec<usize>,
    /// Router-fault counts (each `> 0`).
    pub router_faults: Vec<usize>,
    /// Fault-injection seeds: each fault point is sampled once per seed
    /// (pristine points collapse to a single sample).
    pub topo_seeds: Vec<u64>,
    /// Designs under test, by [`Design::label`].
    pub designs: Vec<String>,
    /// Static Bubble ablation variants (`full`, `no-forking`,
    /// `no-check-probe`, `neither`); non-SB designs ignore this axis.
    pub sb_variants: Vec<String>,
    /// Offered loads in flits/node/cycle.
    pub rates: Vec<f64>,
    /// Simulation seeds (injection process and tie-breaks).
    pub seeds: Vec<u64>,
    /// Traffic pattern: `uniform` or `bit-complement`.
    pub pattern: String,
    /// Confine traffic to vnet 0 (the synthetic-sweep default).
    pub single_vnet: bool,
    /// Network configuration (vnets, VCs, packet length).
    pub config: SimConfig,
    /// Warmup cycles before the measurement window.
    pub warmup: u64,
    /// Measurement-window cycles.
    pub cycles: u64,
    /// Deadlock-detection threshold.
    pub tdd: u64,
    /// Invariant-auditor cadence (0 = off).
    pub audit_every: u64,
    /// Arrival sampler for every scenario (see `Scenario::clock`).
    pub clock: ClockMode,
    /// Acceptance threshold for saturation-point detection.
    pub accept: f64,
}

impl SweepSpec {
    /// A one-point sweep with the scenario-layer defaults; widen the axes
    /// from here.
    pub fn new(name: impl Into<String>) -> Self {
        SweepSpec {
            name: name.into(),
            meshes: vec!["8x8".into()],
            link_faults: vec![0],
            router_faults: vec![],
            topo_seeds: vec![1],
            designs: vec![Design::StaticBubble.label().into()],
            sb_variants: vec!["full".into()],
            rates: vec![0.1],
            seeds: vec![1],
            pattern: "uniform".into(),
            single_vnet: true,
            config: SimConfig::single_vnet(),
            warmup: 1_000,
            cycles: 10_000,
            tdd: sb_scenario::T_DD,
            audit_every: 0,
            clock: ClockMode::Step,
            accept: 0.85,
        }
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> Result<String, SpecError> {
        sb_scenario::json::to_json_string(self)
    }

    /// Parse from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        sb_scenario::json::from_json_str(text)
    }

    /// Serialize as TOML.
    pub fn to_toml(&self) -> Result<String, SpecError> {
        sb_scenario::toml::to_toml_string(self)
    }

    /// Parse from TOML text.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        sb_scenario::toml::from_toml_str(text)
    }

    /// Load from a `.toml` or `.json` file (by extension, like
    /// [`Scenario::load`]).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("read {}: {e}", path.display())))?;
        if path.extension().is_some_and(|e| e == "json") {
            Self::from_json(&text)
        } else {
            Self::from_toml(&text)
        }
        .map_err(|e| SpecError(format!("parse {}: {e}", path.display())))
    }

    /// The fault-point axis in expansion order: link points first, then
    /// router points (matching the figure binaries' plotting order).
    fn fault_points(&self) -> Vec<(FaultKind, usize)> {
        self.link_faults
            .iter()
            .map(|&c| (FaultKind::Links, c))
            .chain(self.router_faults.iter().map(|&c| (FaultKind::Routers, c)))
            .collect()
    }

    /// Expand the grid into concrete runs, in the stable order
    /// mesh → fault point → topology seed → design → SB variant → rate →
    /// seed. Pristine points (0 faults) collapse the topology-seed axis;
    /// non-SB designs collapse the variant axis. Errors on empty axes,
    /// unknown labels or a run that fails [`Scenario::validate`] instead of
    /// silently producing an empty sweep or a panicking one.
    pub fn expand(&self) -> Result<Vec<SweepRun>, SpecError> {
        let meshes: Vec<(u16, u16)> = self
            .meshes
            .iter()
            .map(|m| parse_mesh(m))
            .collect::<Result<_, _>>()?;
        let designs: Vec<Design> = self
            .designs
            .iter()
            .map(|label| {
                Design::from_label(label)
                    .ok_or_else(|| SpecError(format!("unknown design label `{label}`")))
            })
            .collect::<Result<_, _>>()?;
        let variants: Vec<(String, SbOptions)> = self
            .sb_variants
            .iter()
            .map(|label| Ok((label.clone(), parse_variant(label)?)))
            .collect::<Result<_, _>>()?;
        let points = self.fault_points();
        for (name, len) in [
            ("meshes", meshes.len()),
            ("fault points", points.len()),
            ("topo_seeds", self.topo_seeds.len()),
            ("designs", designs.len()),
            ("sb_variants", variants.len()),
            ("rates", self.rates.len()),
            ("seeds", self.seeds.len()),
        ] {
            if len == 0 {
                return Err(SpecError(format!(
                    "sweep `{}`: empty {name} axis",
                    self.name
                )));
            }
        }
        if self.router_faults.contains(&0) {
            return Err(SpecError(
                "router_faults must be > 0 (use link_faults = [0] for pristine)".into(),
            ));
        }
        if !matches!(self.pattern.as_str(), "uniform" | "bit-complement") {
            return Err(SpecError(format!(
                "unknown traffic pattern `{}` (uniform | bit-complement)",
                self.pattern
            )));
        }

        let mut runs = Vec::new();
        for &(w, h) in &meshes {
            for &(kind, count) in &points {
                let topo_seeds: &[u64] = if count == 0 {
                    &self.topo_seeds[..1]
                } else {
                    &self.topo_seeds
                };
                for &topo_seed in topo_seeds {
                    for &design in &designs {
                        let dvariants: &[(String, SbOptions)] = if design == Design::StaticBubble {
                            &variants
                        } else {
                            &variants[..1]
                        };
                        for (vlabel, vopts) in dvariants {
                            let vkey: &str = if design == Design::StaticBubble {
                                vlabel
                            } else {
                                "-"
                            };
                            for &rate in &self.rates {
                                for &seed in &self.seeds {
                                    let key = format!(
                                        "{w}x{h}/{}:{count}/t{topo_seed}/{}/{vkey}/r{rate:?}/s{seed}",
                                        kind_label(kind),
                                        design.label(),
                                    );
                                    let series = format!(
                                        "{w}x{h}/{}:{count}/t{topo_seed}/{}/{vkey}",
                                        kind_label(kind),
                                        design.label(),
                                    );
                                    let group = format!("{series}/r{rate:?}");
                                    let scenario = self.scenario(
                                        &key, w, h, kind, count, topo_seed, design, *vopts, rate,
                                        seed,
                                    );
                                    scenario.validate().map_err(|e| {
                                        SpecError(format!("sweep `{}`: run {key}: {e}", self.name))
                                    })?;
                                    runs.push(SweepRun {
                                        id: ScenarioId::new(runs.len() as u32, key),
                                        group,
                                        series,
                                        rate,
                                        scenario,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(runs)
    }

    #[allow(clippy::too_many_arguments)]
    fn scenario(
        &self,
        key: &str,
        w: u16,
        h: u16,
        kind: FaultKind,
        count: usize,
        topo_seed: u64,
        design: Design,
        opts: SbOptions,
        rate: f64,
        seed: u64,
    ) -> Scenario {
        let faults = if count == 0 {
            FaultSpec::Pristine
        } else {
            FaultSpec::Model {
                kind,
                count,
                seed: topo_seed,
            }
        };
        let traffic = match self.pattern.as_str() {
            "bit-complement" => TrafficSpec::BitComplement {
                rate,
                single_vnet: self.single_vnet,
            },
            _ => TrafficSpec::Uniform {
                rate,
                single_vnet: self.single_vnet,
            },
        };
        Scenario::new(key, design)
            .with_mesh(w, h)
            .with_faults(faults)
            .with_traffic(traffic)
            .with_config(self.config)
            .with_tdd(self.tdd)
            .with_sb_options(opts)
            .with_warmup(self.warmup)
            .with_cycles(self.cycles)
            .with_seed(seed)
            .with_audit_every(self.audit_every)
            .with_clock(self.clock)
    }
}

fn parse_mesh(text: &str) -> Result<(u16, u16), SpecError> {
    let err = || SpecError(format!("mesh `{text}` is not of the form WxH (e.g. 8x8)"));
    let (w, h) = text.split_once('x').ok_or_else(err)?;
    Ok((
        w.trim().parse().map_err(|_| err())?,
        h.trim().parse().map_err(|_| err())?,
    ))
}

fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Links => "links",
        FaultKind::Routers => "routers",
    }
}

fn parse_variant(label: &str) -> Result<SbOptions, SpecError> {
    let full = SbOptions::default();
    Ok(match label {
        "full" => full,
        "no-forking" => SbOptions {
            forking: false,
            ..full
        },
        "no-check-probe" => SbOptions {
            check_probe: false,
            ..full
        },
        "neither" => SbOptions {
            forking: false,
            check_probe: false,
            ..full
        },
        "no-return-forwarding" => SbOptions {
            return_forwarding: false,
            ..full
        },
        "no-desync" => SbOptions {
            probe_desync: false,
            ..full
        },
        other => {
            return Err(SpecError(format!(
                "unknown SB variant `{other}` (full | no-forking | no-check-probe | neither | \
                 no-return-forwarding | no-desync)"
            )))
        }
    })
}

/// One expanded scenario plus its aggregation coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// Stable identity (expansion index + grid key).
    pub id: ScenarioId,
    /// Aggregation group: the key minus the seed axis — results across
    /// seeds of one group merge into one [`crate::agg::PointSummary`].
    pub group: String,
    /// Saturation series: the group minus the rate axis — groups of one
    /// series form a load ladder for knee detection.
    pub series: String,
    /// Offered load of this run (the series' ladder coordinate).
    pub rate: f64,
    /// The fully-described experiment.
    pub scenario: Scenario,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_stable_and_counts_multiply() {
        let mut spec = SweepSpec::new("t");
        spec.meshes = vec!["4x4".into()];
        spec.link_faults = vec![0, 4];
        spec.router_faults = vec![2];
        spec.topo_seeds = vec![1, 2];
        spec.designs = vec!["sp-tree".into(), "static-bubble".into()];
        spec.sb_variants = vec!["full".into(), "no-forking".into()];
        spec.rates = vec![0.05, 0.1];
        spec.seeds = vec![7, 8];
        let runs = spec.expand().unwrap();
        // Pristine point: 1 topo seed × (1 sp-tree variant + 2 SB variants)
        // = 3 design-variant rows; faulted points: 2 topo seeds each.
        // Per design-variant row: 2 rates × 2 seeds = 4 runs.
        let rows = 3 + 2 * 2 * 3;
        assert_eq!(runs.len(), rows * 4);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.id.index, i as u32);
            assert!(run.group.starts_with(&run.series));
            assert!(run.id.key.starts_with(&run.group));
        }
        // Deterministic: same spec, same expansion.
        assert_eq!(spec.expand().unwrap(), runs);
    }

    #[test]
    fn keys_are_unique() {
        let mut spec = SweepSpec::new("t");
        spec.link_faults = vec![0, 3];
        spec.seeds = vec![1, 2, 3];
        let runs = spec.expand().unwrap();
        let mut keys: Vec<&str> = runs.iter().map(|r| r.id.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), runs.len());
    }

    #[test]
    fn bad_labels_are_rejected() {
        let mut spec = SweepSpec::new("t");
        spec.designs = vec!["warp-drive".into()];
        assert!(spec.expand().is_err());
        let mut spec = SweepSpec::new("t");
        spec.meshes = vec!["8by8".into()];
        assert!(spec.expand().is_err());
        let mut spec = SweepSpec::new("t");
        spec.sb_variants = vec!["extra-bubbles".into()];
        assert!(spec.expand().is_err());
        let mut spec = SweepSpec::new("t");
        spec.router_faults = vec![0];
        assert!(spec.expand().is_err());
        let mut spec = SweepSpec::new("t");
        spec.rates = vec![];
        assert!(spec.expand().is_err());
        let mut spec = SweepSpec::new("t");
        spec.pattern = "tornado".into();
        assert!(spec.expand().is_err());
    }

    #[test]
    fn unbuildable_runs_are_rejected_by_key() {
        // Every label parses; one expanded run asks for more dead links
        // than its mesh has (`Scenario::validate`).
        let mut spec = SweepSpec::new("t");
        spec.link_faults = vec![5, 9999];
        let err = spec.expand().expect_err("9999 of 112 links").0;
        assert!(err.contains("links:9999"), "names the run: {err}");
        assert!(err.contains("has 112 links"), "names the limit: {err}");
        // The same goes for a network configuration nothing can be built on.
        let mut spec = SweepSpec::new("t");
        spec.config.vcs_per_vnet = 0;
        let err = spec.expand().expect_err("no VCs").0;
        assert!(
            err.contains("run 8x8/") && err.contains("config.vcs_per_vnet: 0"),
            "{err}"
        );
    }

    #[test]
    fn spec_round_trips_through_both_codecs() {
        let mut spec = SweepSpec::new("round-trip");
        spec.link_faults = vec![0, 5, 10];
        spec.router_faults = vec![5];
        spec.designs = vec!["sp-tree".into(), "escape-vc".into(), "static-bubble".into()];
        spec.rates = vec![0.02, 0.1];
        spec.clock = ClockMode::Leap;
        let json = spec.to_json().unwrap();
        assert_eq!(SweepSpec::from_json(&json).unwrap(), spec);
        let toml = spec.to_toml().unwrap();
        assert_eq!(SweepSpec::from_toml(&toml).unwrap(), spec);
    }

    #[test]
    fn scenarios_inherit_grid_settings() {
        let mut spec = SweepSpec::new("t");
        spec.audit_every = 16;
        spec.clock = ClockMode::Leap;
        spec.pattern = "bit-complement".into();
        spec.tdd = 20;
        let runs = spec.expand().unwrap();
        let sc = &runs[0].scenario;
        assert_eq!(sc.audit_every, 16);
        assert_eq!(sc.clock, ClockMode::Leap);
        assert_eq!(sc.tdd, 20);
        assert!(matches!(sc.traffic, TrafficSpec::BitComplement { .. }));
    }
}
