//! Traffic sources: synthetic open-loop injectors and scripted traffic.
//!
//! The richer application profiles (PARSEC / Rodinia stand-ins) live in
//! `sb-workloads`; this module has the trait plus the two synthetic patterns
//! of Table II and test helpers.
//!
//! The synthetic injectors offer two statistically equivalent samplers:
//! the per-cycle **Bernoulli** coin (the historical reference — one
//! `gen_bool` per node per cycle from the shared engine RNG), and
//! **geometric inter-arrival** sampling ([`UniformTraffic::geometric`])
//! where each node owns a derived RNG stream and a precomputed next-arrival
//! cycle. A Bernoulli(p) process injects after i.i.d. geometric gaps with
//! mean 1/p, so both samplers offer the same mean load; the geometric form
//! consumes no randomness on quiet cycles, which is what lets the leap
//! clock ([`crate::ClockMode::Leap`]) skip them wholesale.

use crate::packet::{NewPacket, Packet};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sb_topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// Produces injection requests each cycle and observes deliveries (for
/// closed-loop workloads).
pub trait TrafficSource {
    /// Packets to enqueue this cycle.
    fn generate(
        &mut self,
        time: u64,
        topo: &Topology,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<NewPacket>;

    /// Called when a packet reaches its destination NI.
    fn on_delivered(&mut self, pkt: &Packet, time: u64) {
        let _ = (pkt, time);
    }

    /// `true` once the source will never generate again (lets drain loops
    /// terminate early).
    fn exhausted(&self) -> bool {
        false
    }

    /// Called when the engine resets the measurement window (end of
    /// warmup). Sources that record per-delivery observations (e.g.
    /// [`crate::Traced`]) discard warmup samples here; open-loop sources
    /// need not do anything.
    fn on_measurement_reset(&mut self) {}

    /// The earliest cycle at or after `now + 1` at which this source may
    /// produce a packet, viewed from cycle `now` (whose `generate` call
    /// has already happened). The leap clock uses this to skip dead
    /// cycles, so an implementation must guarantee that `generate` would
    /// return an empty vector — *without consuming any shared RNG state* —
    /// for every cycle strictly before the returned value.
    ///
    /// `None` means "never again". Any value `<= now` means "unknown; do
    /// not leap", which is the conservative default and exactly right for
    /// the Bernoulli sampler (it flips a coin every cycle).
    fn next_arrival(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    /// The engine swapped the topology (runtime reconfiguration): drop any
    /// cached liveness-derived state, such as a memoized alive-node list.
    /// Default: no-op. Wrapper sources must forward this to their inner
    /// source.
    fn on_topology_change(&mut self) {}

    /// Serialize the source's complete mutable state as a JSON blob for an
    /// [`crate::EngineSnapshot`]. Restoring it into a freshly built source
    /// (same constructor arguments) via [`TrafficSource::restore_state`]
    /// must resume bit-identically. The default suits stateless sources;
    /// sources with private RNG streams or cursors must override both.
    fn snapshot_state(&self) -> Result<String, String> {
        Ok("null".to_string())
    }

    /// Restore state captured by [`TrafficSource::snapshot_state`] into
    /// `self` (freshly constructed for the same scenario).
    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        let _ = blob;
        Ok(())
    }
}

/// A memoized alive-node list: rebuilding it costs a full node walk plus an
/// allocation, which the per-cycle samplers would otherwise pay on *every*
/// `generate` call. Invalidated by [`TrafficSource::on_topology_change`];
/// liveness only changes through engine reconfiguration, which emits that
/// hook.
#[derive(Debug, Clone, Default)]
struct AliveCache {
    nodes: Vec<NodeId>,
    valid: bool,
}

impl AliveCache {
    fn refresh(&mut self, topo: &Topology) -> &[NodeId] {
        if !self.valid {
            self.nodes.clear();
            self.nodes.extend(topo.alive_nodes());
            self.valid = true;
        }
        &self.nodes
    }
}

/// Flit length used for data packets by the synthetic sources.
pub const DATA_FLITS: u16 = 5;
/// Flit length used for control packets by the synthetic sources.
pub const CTRL_FLITS: u16 = 1;

/// Common knobs of the synthetic injection patterns: offered load in
/// flits/node/cycle with the paper's mix of 1-flit and 5-flit packets.
#[derive(Debug, Clone, Copy)]
struct SyntheticLoad {
    rate: f64,
    data_fraction: f64,
    ctrl_vnet: u8,
    data_vnet: u8,
}

impl SyntheticLoad {
    fn new(rate: f64) -> Self {
        let load = Self::default_mix(rate);
        load.validate();
        load
    }

    /// `rate` at the default packet mix, bound not yet checked.
    fn default_mix(rate: f64) -> Self {
        SyntheticLoad {
            rate,
            data_fraction: 0.5,
            ctrl_vnet: 0,
            data_vnet: 2,
        }
    }

    /// An injector can offer at most one packet per node per cycle, i.e.
    /// `rate / avg_flits ≤ 1`. Loads beyond that used to be clamped
    /// silently (`gen_bool(p.min(1.0))`), flattening saturation sweeps
    /// without telling anyone; now they are rejected at construction.
    fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// The bound behind [`SyntheticLoad::validate`], as a value.
    fn check(&self) -> Result<(), String> {
        if self.rate.is_nan() || self.rate < 0.0 {
            return Err(format!(
                "injection rate must be non-negative, got {}",
                self.rate
            ));
        }
        let p = self.packet_prob();
        if p > 1.0 {
            return Err(format!(
                "offered load {} flits/node/cycle is not injectable: it needs \
                 {p:.3} packets/node/cycle at {} flits/packet average, and the \
                 injector caps at one packet per node per cycle (at most {} \
                 flits/node/cycle)",
                self.rate,
                self.avg_flits(),
                self.avg_flits(),
            ));
        }
        Ok(())
    }

    fn avg_flits(&self) -> f64 {
        self.data_fraction * DATA_FLITS as f64 + (1.0 - self.data_fraction) * CTRL_FLITS as f64
    }

    /// Probability a given node injects a packet this cycle.
    fn packet_prob(&self) -> f64 {
        self.rate / self.avg_flits()
    }

    fn draw_shape(&self, rng: &mut dyn rand::RngCore) -> (u8, u16) {
        if rng.gen_bool(self.data_fraction) {
            (self.data_vnet, DATA_FLITS)
        } else {
            (self.ctrl_vnet, CTRL_FLITS)
        }
    }
}

/// Can a synthetic source offer `rate` flits/node/cycle at the default
/// packet mix? `Err` carries the reason [`UniformTraffic::new`] and
/// [`BitComplementTraffic::new`] would panic with, so a spec validator can
/// refuse the load before anything is built.
pub fn check_injectable(rate: f64) -> Result<(), String> {
    SyntheticLoad::default_mix(rate).check()
}

/// How a synthetic source decides *when* each node injects.
#[derive(Debug, Clone)]
enum Sampler {
    /// One coin per node per cycle from the shared engine RNG — the
    /// statistical reference. Consumes randomness on every cycle, so
    /// `next_arrival` stays at the conservative "do not leap" default.
    Bernoulli,
    /// Precomputed geometric inter-arrival gaps on per-node RNG streams.
    Geometric(GeomState),
}

/// State of the geometric sampler. Lazily seeded on the first `generate`
/// call: one `next_u64` is drawn from the shared engine RNG (the same
/// single draw in step and leap mode, at the same cycle) and fanned out
/// into per-node streams, after which the engine RNG is never touched
/// again by this source.
#[derive(Debug, Clone, Default)]
struct GeomState {
    /// One independent stream per mesh node (empty = not yet seeded).
    streams: Vec<StdRng>,
    /// Next arrival cycle per node; `u64::MAX` means never.
    next: Vec<u64>,
    /// Cached `min(next)`, so quiet cycles are a single compare.
    next_min: u64,
}

impl GeomState {
    fn seed(&mut self, time: u64, nodes: usize, p: f64, rng: &mut dyn RngCore) {
        let base = rng.next_u64();
        self.streams = (0..nodes)
            .map(|i| StdRng::seed_from_u64(base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        // First arrival at `time + G − 1` so the current cycle itself has
        // probability p of an arrival, matching a Bernoulli coin flipped
        // from `time` onwards.
        self.next = self
            .streams
            .iter_mut()
            .map(|s| time.saturating_add(sample_gap(p, s) - 1))
            .collect();
        self.next_min = self.next.iter().copied().min().unwrap_or(u64::MAX);
    }
}

/// Serializable mirror of a [`Sampler`] for [`crate::EngineSnapshot`]
/// blobs: RNG streams travel as raw xoshiro words. The `AliveCache` is
/// deliberately absent — it is a pure function of the topology, rebuilt on
/// first use after a restore.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SamplerState {
    geometric: bool,
    streams: Vec<[u64; 4]>,
    next: Vec<u64>,
    next_min: u64,
}

impl Sampler {
    fn snapshot(&self) -> SamplerState {
        match self {
            Sampler::Bernoulli => SamplerState {
                geometric: false,
                streams: Vec::new(),
                next: Vec::new(),
                next_min: u64::MAX,
            },
            Sampler::Geometric(st) => SamplerState {
                geometric: true,
                streams: st.streams.iter().map(StdRng::state).collect(),
                next: st.next.clone(),
                next_min: st.next_min,
            },
        }
    }

    fn restore(state: SamplerState) -> Self {
        if !state.geometric {
            return Sampler::Bernoulli;
        }
        Sampler::Geometric(GeomState {
            streams: state.streams.into_iter().map(StdRng::from_state).collect(),
            next: state.next,
            next_min: state.next_min,
        })
    }
}

/// Geometric gap on support {1, 2, …} with success probability `p`: the
/// number of cycles from one Bernoulli(p) success to the next, inclusive.
/// Inverse-CDF sampling, `G = ⌊ln U / ln(1−p)⌋ + 1` for `U ∈ (0, 1)`.
fn sample_gap(p: f64, rng: &mut StdRng) -> u64 {
    if p >= 1.0 {
        return 1;
    }
    if p <= 0.0 {
        return u64::MAX;
    }
    let u = loop {
        // 53-bit uniform in [0, 1); reject 0 so the log stays finite.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if u > 0.0 {
            break u;
        }
    };
    let g = (u.ln() / (1.0 - p).ln()).floor() + 1.0;
    if g >= u64::MAX as f64 {
        u64::MAX
    } else {
        g as u64
    }
}

/// Uniform-random traffic: every alive node injects packets to uniformly
/// chosen alive destinations, Bernoulli per cycle by default or via
/// geometric inter-arrival gaps ([`UniformTraffic::geometric`]).
///
/// `rate` is in flits/node/cycle, the unit of the paper's injection sweeps.
#[derive(Debug, Clone)]
pub struct UniformTraffic {
    load: SyntheticLoad,
    sampler: Sampler,
    alive: AliveCache,
}

impl UniformTraffic {
    /// Uniform-random traffic at `rate` flits/node/cycle, 50/50 mix of
    /// 1-flit (vnet 0) and 5-flit (vnet 2) packets.
    pub fn new(rate: f64) -> Self {
        UniformTraffic {
            load: SyntheticLoad::new(rate),
            sampler: Sampler::Bernoulli,
            alive: AliveCache::default(),
        }
    }

    /// Put all packets in one vnet (for single-vnet configurations).
    pub fn single_vnet(mut self) -> Self {
        self.load.ctrl_vnet = 0;
        self.load.data_vnet = 0;
        self
    }

    /// Override the fraction of 5-flit data packets (default 0.5).
    pub fn data_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.load.data_fraction = f;
        self.load.validate();
        self
    }

    /// Switch to geometric inter-arrival sampling: same mean offered load,
    /// but each node precomputes its next arrival cycle on a private RNG
    /// stream, so quiet cycles consume no randomness and [`TrafficSource::
    /// next_arrival`] is exact. Required for the leap clock to skip
    /// traffic-free gaps; the Bernoulli default remains the statistical
    /// reference (the two draw different streams, so per-run numbers
    /// differ while distributions agree).
    pub fn geometric(mut self) -> Self {
        self.sampler = Sampler::Geometric(GeomState::default());
        self
    }
}

impl TrafficSource for UniformTraffic {
    fn generate(
        &mut self,
        time: u64,
        topo: &Topology,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<NewPacket> {
        match &mut self.sampler {
            Sampler::Bernoulli => {
                let alive = self.alive.refresh(topo);
                if alive.len() < 2 {
                    return Vec::new();
                }
                let p = self.load.packet_prob();
                let mut out = Vec::new();
                for &src in alive {
                    if rng.gen_bool(p) {
                        let mut dst = alive[rng.gen_range(0..alive.len())];
                        while dst == src {
                            dst = alive[rng.gen_range(0..alive.len())];
                        }
                        let (vnet, len_flits) = self.load.draw_shape(rng);
                        out.push(NewPacket {
                            src,
                            dst,
                            vnet,
                            len_flits,
                        });
                    }
                }
                out
            }
            Sampler::Geometric(st) => {
                let p = self.load.packet_prob();
                if st.streams.is_empty() {
                    st.seed(time, topo.mesh().node_count(), p, rng);
                }
                if time < st.next_min {
                    return Vec::new();
                }
                let alive = self.alive.refresh(topo);
                let mut out = Vec::new();
                let mut min = u64::MAX;
                for i in 0..st.next.len() {
                    // Arrivals at dead sources (or with no possible
                    // destination) are discarded, but their draws still
                    // advance the node's private stream so the schedule
                    // stays deterministic under reconfiguration.
                    while st.next[i] <= time {
                        let src = NodeId(i as u16);
                        let stream = &mut st.streams[i];
                        if alive.len() >= 2 && topo.router_alive(src) {
                            let mut dst = alive[stream.gen_range(0..alive.len())];
                            while dst == src {
                                dst = alive[stream.gen_range(0..alive.len())];
                            }
                            let (vnet, len_flits) = self.load.draw_shape(stream);
                            out.push(NewPacket {
                                src,
                                dst,
                                vnet,
                                len_flits,
                            });
                        }
                        let gap = sample_gap(p, stream);
                        st.next[i] = st.next[i].saturating_add(gap);
                    }
                    min = min.min(st.next[i]);
                }
                st.next_min = min;
                out
            }
        }
    }

    fn next_arrival(&self, now: u64) -> Option<u64> {
        match &self.sampler {
            Sampler::Bernoulli => Some(now),
            Sampler::Geometric(st) => {
                if st.streams.is_empty() {
                    Some(now) // unseeded until the first generate call
                } else if st.next_min == u64::MAX {
                    None
                } else {
                    Some(st.next_min)
                }
            }
        }
    }

    fn on_topology_change(&mut self) {
        self.alive.valid = false;
    }

    fn snapshot_state(&self) -> Result<String, String> {
        crate::json::to_json_string(&self.sampler.snapshot()).map_err(|e| e.0)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        let state: SamplerState = crate::json::from_json_str(blob).map_err(|e| e.0)?;
        self.sampler = Sampler::restore(state);
        self.alive.valid = false;
        Ok(())
    }
}

/// Bit-complement traffic: node (x, y) sends to (width−1−x, height−1−y).
///
/// Packets whose complement node is dead are not generated; unreachable
/// (but alive) destinations are dropped by the engine, as in the paper.
#[derive(Debug, Clone)]
pub struct BitComplementTraffic {
    load: SyntheticLoad,
    sampler: Sampler,
}

impl BitComplementTraffic {
    /// Bit-complement traffic at `rate` flits/node/cycle.
    pub fn new(rate: f64) -> Self {
        BitComplementTraffic {
            load: SyntheticLoad::new(rate),
            sampler: Sampler::Bernoulli,
        }
    }

    /// Put all packets in one vnet.
    pub fn single_vnet(mut self) -> Self {
        self.load.ctrl_vnet = 0;
        self.load.data_vnet = 0;
        self
    }

    /// Switch to geometric inter-arrival sampling; see
    /// [`UniformTraffic::geometric`].
    pub fn geometric(mut self) -> Self {
        self.sampler = Sampler::Geometric(GeomState::default());
        self
    }
}

impl TrafficSource for BitComplementTraffic {
    fn generate(
        &mut self,
        time: u64,
        topo: &Topology,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<NewPacket> {
        let mesh = topo.mesh();
        let p = self.load.packet_prob();
        match &mut self.sampler {
            Sampler::Bernoulli => {
                let mut out = Vec::new();
                for src in topo.alive_nodes() {
                    let c = mesh.coord(src);
                    let dst = mesh.node_at(mesh.width() - 1 - c.x, mesh.height() - 1 - c.y);
                    if dst == src || !topo.router_alive(dst) {
                        continue;
                    }
                    if rng.gen_bool(p) {
                        let (vnet, len_flits) = self.load.draw_shape(rng);
                        out.push(NewPacket {
                            src,
                            dst,
                            vnet,
                            len_flits,
                        });
                    }
                }
                out
            }
            Sampler::Geometric(st) => {
                if st.streams.is_empty() {
                    st.seed(time, mesh.node_count(), p, rng);
                }
                if time < st.next_min {
                    return Vec::new();
                }
                let mut out = Vec::new();
                let mut min = u64::MAX;
                for i in 0..st.next.len() {
                    while st.next[i] <= time {
                        let src = NodeId(i as u16);
                        let stream = &mut st.streams[i];
                        let c = mesh.coord(src);
                        let dst = mesh.node_at(mesh.width() - 1 - c.x, mesh.height() - 1 - c.y);
                        if topo.router_alive(src) && dst != src && topo.router_alive(dst) {
                            let (vnet, len_flits) = self.load.draw_shape(stream);
                            out.push(NewPacket {
                                src,
                                dst,
                                vnet,
                                len_flits,
                            });
                        }
                        st.next[i] = st.next[i].saturating_add(sample_gap(p, stream));
                    }
                    min = min.min(st.next[i]);
                }
                st.next_min = min;
                out
            }
        }
    }

    fn next_arrival(&self, now: u64) -> Option<u64> {
        match &self.sampler {
            Sampler::Bernoulli => Some(now),
            Sampler::Geometric(st) => {
                if st.streams.is_empty() {
                    Some(now)
                } else if st.next_min == u64::MAX {
                    None
                } else {
                    Some(st.next_min)
                }
            }
        }
    }

    fn snapshot_state(&self) -> Result<String, String> {
        crate::json::to_json_string(&self.sampler.snapshot()).map_err(|e| e.0)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        let state: SamplerState = crate::json::from_json_str(blob).map_err(|e| e.0)?;
        self.sampler = Sampler::restore(state);
        Ok(())
    }
}

/// No traffic at all (drain phases, hand-constructed network states in
/// tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTraffic;

impl TrafficSource for NoTraffic {
    fn generate(
        &mut self,
        _time: u64,
        _topo: &Topology,
        _rng: &mut dyn rand::RngCore,
    ) -> Vec<NewPacket> {
        Vec::new()
    }

    fn exhausted(&self) -> bool {
        true
    }

    fn next_arrival(&self, _now: u64) -> Option<u64> {
        None
    }
}

/// A fixed script of `(cycle, packet)` injections, for deterministic tests
/// and walk-through reproductions.
#[derive(Debug, Clone, Default)]
pub struct ScriptedTraffic {
    /// Remaining events, sorted by cycle ascending.
    events: Vec<(u64, NewPacket)>,
    cursor: usize,
}

impl ScriptedTraffic {
    /// Create a script. Events need not be pre-sorted.
    pub fn new(mut events: Vec<(u64, NewPacket)>) -> Self {
        events.sort_by_key(|(t, _)| *t);
        ScriptedTraffic { events, cursor: 0 }
    }
}

impl TrafficSource for ScriptedTraffic {
    fn generate(
        &mut self,
        time: u64,
        _topo: &Topology,
        _rng: &mut dyn rand::RngCore,
    ) -> Vec<NewPacket> {
        let mut out = Vec::new();
        while self.cursor < self.events.len() && self.events[self.cursor].0 <= time {
            out.push(self.events[self.cursor].1);
            self.cursor += 1;
        }
        out
    }

    fn exhausted(&self) -> bool {
        self.cursor >= self.events.len()
    }

    fn next_arrival(&self, _now: u64) -> Option<u64> {
        self.events.get(self.cursor).map(|&(t, _)| t)
    }

    fn snapshot_state(&self) -> Result<String, String> {
        // The event list is constructor input; only the cursor is state.
        crate::json::to_json_string(&self.cursor).map_err(|e| e.0)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        self.cursor = crate::json::from_json_str(blob).map_err(|e| e.0)?;
        if self.cursor > self.events.len() {
            return Err(format!(
                "scripted cursor {} beyond {} events — snapshot from a \
                 different script?",
                self.cursor,
                self.events.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sb_topology::{Mesh, Topology};

    #[test]
    fn uniform_traffic_rate_is_calibrated() {
        let topo = Topology::full(Mesh::new(8, 8));
        let mut src = UniformTraffic::new(0.3);
        let mut rng = StdRng::seed_from_u64(0);
        let mut flits = 0u64;
        let cycles = 4_000;
        for t in 0..cycles {
            for p in src.generate(t, &topo, &mut rng) {
                assert_ne!(p.src, p.dst);
                flits += p.len_flits as u64;
            }
        }
        let rate = flits as f64 / 64.0 / cycles as f64;
        assert!((rate - 0.3).abs() < 0.02, "measured {rate}");
    }

    #[test]
    fn geometric_sampler_rate_is_calibrated() {
        // Same mean offered load as the Bernoulli reference, within the
        // same tolerance the reference test uses.
        let topo = Topology::full(Mesh::new(8, 8));
        let mut src = UniformTraffic::new(0.3).geometric();
        let mut rng = StdRng::seed_from_u64(0);
        let mut flits = 0u64;
        let cycles = 4_000;
        for t in 0..cycles {
            for p in src.generate(t, &topo, &mut rng) {
                assert_ne!(p.src, p.dst);
                flits += p.len_flits as u64;
            }
        }
        let rate = flits as f64 / 64.0 / cycles as f64;
        assert!((rate - 0.3).abs() < 0.02, "measured {rate}");
    }

    #[test]
    fn geometric_next_arrival_is_exact() {
        let topo = Topology::full(Mesh::new(4, 4));
        let mut src = UniformTraffic::new(0.02).geometric();
        let mut rng = StdRng::seed_from_u64(3);
        src.generate(0, &topo, &mut rng); // seeds the per-node streams
        let mut t = 0u64;
        for _ in 0..50 {
            let next = src
                .next_arrival(t)
                .expect("open-loop source never exhausts");
            assert!(next > t, "next_arrival({t}) = {next} is not in the future");
            if next > t + 1 {
                // A probe strictly inside the gap is empty and must not
                // disturb the schedule — the leap-clock contract.
                assert!(src.generate(t + 1, &topo, &mut rng).is_empty());
                assert_eq!(src.next_arrival(t + 1), Some(next));
            }
            let pkts = src.generate(next, &topo, &mut rng);
            assert!(!pkts.is_empty(), "an arrival was promised at {next}");
            t = next;
        }
    }

    #[test]
    fn geometric_bit_complement_pairs() {
        let mesh = Mesh::new(4, 4);
        let topo = Topology::full(mesh);
        let mut src = BitComplementTraffic::new(1.0).single_vnet().geometric();
        let mut rng = StdRng::seed_from_u64(1);
        let mut total = 0usize;
        for t in 0..200 {
            for p in src.generate(t, &topo, &mut rng) {
                let a = mesh.coord(p.src);
                let b = mesh.coord(p.dst);
                assert_eq!((b.x, b.y), (3 - a.x, 3 - a.y));
                assert_eq!(p.vnet, 0);
                total += 1;
            }
        }
        assert!(total > 0);
    }

    #[test]
    #[should_panic(expected = "not injectable")]
    fn oversaturated_rate_is_rejected() {
        // 3.5 flits/node/cycle at 3 flits/packet average would need more
        // than one packet per node per cycle.
        let _ = UniformTraffic::new(3.5);
    }

    #[test]
    #[should_panic(expected = "not injectable")]
    fn data_fraction_revalidates_load() {
        // 2.0 is fine at the default 3-flit average but not with
        // all-control 1-flit packets.
        let _ = UniformTraffic::new(2.0).data_fraction(0.0);
    }

    #[test]
    fn bit_complement_pairs() {
        let mesh = Mesh::new(4, 4);
        let topo = Topology::full(mesh);
        let mut src = BitComplementTraffic::new(1.0).single_vnet();
        let mut rng = StdRng::seed_from_u64(1);
        for p in src.generate(0, &topo, &mut rng) {
            let a = mesh.coord(p.src);
            let b = mesh.coord(p.dst);
            assert_eq!((b.x, b.y), (3 - a.x, 3 - a.y));
            assert_eq!(p.vnet, 0);
        }
    }

    #[test]
    fn scripted_traffic_fires_in_order() {
        let topo = Topology::full(Mesh::new(2, 2));
        let pkt = NewPacket {
            src: NodeId(0),
            dst: NodeId(3),
            vnet: 0,
            len_flits: 1,
        };
        let mut src = ScriptedTraffic::new(vec![(5, pkt), (2, pkt)]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(src.next_arrival(0), Some(2));
        assert!(src.generate(0, &topo, &mut rng).is_empty());
        assert_eq!(src.generate(2, &topo, &mut rng).len(), 1);
        assert_eq!(src.next_arrival(2), Some(5));
        assert!(src.generate(3, &topo, &mut rng).is_empty());
        assert_eq!(src.generate(6, &topo, &mut rng).len(), 1);
        assert!(src.exhausted());
        assert_eq!(src.next_arrival(6), None);
    }
}
