//! Traffic sources: the open-loop synthetic injector and scripted traffic.
//!
//! [`Synthetic`] is the one open-loop injector: it owns the arrival
//! process, the packet mix and the load bound, and asks a [`Pattern`] only
//! where a packet goes. The two patterns of Table II live here, four more
//! in `sb-workloads`, next to the closed-loop application profiles (PARSEC
//! / Rodinia stand-ins).
//!
//! The injector offers two statistically equivalent samplers: the
//! per-cycle **Bernoulli** coin (the historical reference — one `gen_bool`
//! per node per cycle from the shared engine RNG), and **geometric
//! inter-arrival** sampling ([`Synthetic::geometric`]) where each node owns
//! a derived RNG stream and a precomputed next-arrival cycle. A
//! Bernoulli(p) process injects after i.i.d. geometric gaps with mean 1/p,
//! so both samplers offer the same mean load; the geometric form consumes
//! no randomness on quiet cycles, which is what lets the engine skip them
//! wholesale.

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
    /// has already happened). The engine uses this to skip dead cycles,
    /// so an implementation must guarantee that `generate` would return an
    /// empty vector — *without consuming any shared RNG state* — for every
    /// cycle strictly before the returned value.
    ///
    /// `None` means "never again". Any value `<= now` means "unknown;
    /// execute every cycle", which is the conservative default and exactly
    /// right for the Bernoulli sampler (it flips a coin every cycle).
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

    // `#[inline]` here and below: `Synthetic::generate` is monomorphised in
    // the crate that names the pattern, where these would be real calls.
    #[inline]
    fn avg_flits(&self) -> f64 {
        self.data_fraction * DATA_FLITS as f64 + (1.0 - self.data_fraction) * CTRL_FLITS as f64
    }

    /// Probability a given node injects a packet this cycle.
    #[inline]
    fn packet_prob(&self) -> f64 {
        self.rate / self.avg_flits()
    }

    #[inline]
    fn draw_shape(&self, rng: &mut dyn rand::RngCore) -> (u8, u16) {
        if rng.gen_bool(self.data_fraction) {
            (self.data_vnet, DATA_FLITS)
        } else {
            (self.ctrl_vnet, CTRL_FLITS)
        }
    }
}

/// Can a synthetic source offer `rate` flits/node/cycle at the default
/// packet mix? `Err` carries the reason [`Synthetic::new`] would panic
/// with, so a spec validator can refuse the load before anything is built.
pub fn check_injectable(rate: f64) -> Result<(), String> {
    SyntheticLoad::default_mix(rate).check()
}

/// How a synthetic source decides *when* each node injects.
#[derive(Debug, Clone)]
enum Sampler {
    /// One coin per node per cycle from the shared engine RNG — the
    /// statistical reference. Consumes randomness on every cycle, so
    /// `next_arrival` stays at the conservative "every cycle" default.
    Bernoulli,
    /// Precomputed geometric inter-arrival gaps on per-node RNG streams.
    Geometric(GeomState),
}

/// State of the geometric sampler. Lazily seeded on the first `generate`
/// call: one `next_u64` is drawn from the shared engine RNG (the same
/// single draw at the same cycle however the run is driven) and fanned out
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
/// blobs: RNG streams travel as raw xoshiro words.
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
#[inline]
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

/// Where a synthetic source sends — the one thing the open-loop patterns
/// differ in. [`Synthetic`] owns when a node injects, how long the packet is
/// and which vnet carries it; a pattern only names destinations.
///
/// The two methods fix the order in which a source consumes randomness,
/// which is what keeps a pattern's packet stream stable: arrival, then the
/// draws of `pick`, then the packet's shape. `can_send` takes no RNG so
/// that a node with nowhere to send (a permutation partner that is itself
/// or dead, no alive neighbour, nobody else alive) never flips the arrival
/// coin; under the geometric sampler its arrivals are discarded while its
/// private stream advances, so the schedule stays deterministic when the
/// fault map changes mid-run.
pub trait Pattern {
    /// Has alive `src` any destination on `topo`? `alive` is the alive
    /// nodes in id order.
    fn can_send(&self, src: NodeId, topo: &Topology, alive: &[NodeId]) -> bool;

    /// The destination of one arrival at a `src` that `can_send`. `None`
    /// drops the arrival after its draws; no shape is drawn for it.
    fn pick(
        &self,
        src: NodeId,
        topo: &Topology,
        alive: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Option<NodeId>;
}

/// The open-loop injector: every alive node that [`Pattern::can_send`]
/// offers packets to [`Pattern::pick`]ed destinations at `rate`
/// flits/node/cycle (the unit of the paper's injection sweeps), Bernoulli
/// per cycle by default or via geometric inter-arrival gaps
/// ([`Synthetic::geometric`]).
#[derive(Debug, Clone)]
pub struct Synthetic<P> {
    pattern: P,
    load: SyntheticLoad,
    sampler: Sampler,
    /// The alive nodes in id order, memoized: rebuilding the list is a full
    /// node walk, which every `generate` call would otherwise pay. `None`
    /// after [`TrafficSource::on_topology_change`] — liveness only changes
    /// through engine reconfiguration, which emits that hook — and after a
    /// restore: a function of the topology, it is not part of a snapshot.
    alive: Option<Vec<NodeId>>,
}

impl<P: Pattern> Synthetic<P> {
    /// `pattern` at `rate` flits/node/cycle, 50/50 mix of 1-flit (vnet 0)
    /// and 5-flit (vnet 2) packets.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative, NaN or more than the mix can inject
    /// ([`check_injectable`]).
    pub fn with_pattern(pattern: P, rate: f64) -> Self {
        Synthetic {
            pattern,
            load: SyntheticLoad::new(rate),
            sampler: Sampler::Bernoulli,
            alive: None,
        }
    }

    /// [`Synthetic::with_pattern`] for a pattern with no parameters.
    pub fn new(rate: f64) -> Self
    where
        P: Default,
    {
        Self::with_pattern(P::default(), rate)
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
    /// next_arrival`] is exact. Required for the engine to skip
    /// traffic-free gaps; the Bernoulli default remains the statistical
    /// reference (the two draw different streams, so per-run numbers
    /// differ while distributions agree).
    pub fn geometric(mut self) -> Self {
        self.sampler = Sampler::Geometric(GeomState::default());
        self
    }
}

impl<P: Pattern> TrafficSource for Synthetic<P> {
    fn generate(
        &mut self,
        time: u64,
        topo: &Topology,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<NewPacket> {
        let Synthetic {
            pattern,
            load,
            sampler,
            alive,
        } = self;
        let alive: &[NodeId] = alive.get_or_insert_with(|| topo.alive_nodes().collect());
        let p = load.packet_prob();
        let mut out = Vec::new();
        // One arrival at `src`: destination draws, then the shape.
        let mut arrive = |src, rng: &mut dyn RngCore| {
            if let Some(dst) = pattern.pick(src, topo, alive, rng) {
                let (vnet, len_flits) = load.draw_shape(rng);
                out.push(NewPacket {
                    src,
                    dst,
                    vnet,
                    len_flits,
                });
            }
        };
        match sampler {
            Sampler::Bernoulli => {
                for &src in alive {
                    if pattern.can_send(src, topo, alive) && rng.gen_bool(p) {
                        arrive(src, rng);
                    }
                }
            }
            Sampler::Geometric(st) => {
                if st.streams.is_empty() {
                    st.seed(time, topo.mesh().node_count(), p, rng);
                }
                if time < st.next_min {
                    return Vec::new();
                }
                let mut min = u64::MAX;
                for (i, (next, stream)) in st.next.iter_mut().zip(&mut st.streams).enumerate() {
                    // Arrivals at sources that are dead or cannot send are
                    // discarded, but the gap draw still advances the node's
                    // private stream.
                    while *next <= time {
                        let src = NodeId(i as u16);
                        if topo.router_alive(src) && pattern.can_send(src, topo, alive) {
                            arrive(src, stream);
                        }
                        *next = next.saturating_add(sample_gap(p, stream));
                    }
                    min = min.min(*next);
                }
                st.next_min = min;
            }
        }
        out
    }

    fn next_arrival(&self, now: u64) -> Option<u64> {
        match &self.sampler {
            Sampler::Bernoulli => Some(now),
            // Unseeded until the first generate call.
            Sampler::Geometric(st) if st.streams.is_empty() => Some(now),
            Sampler::Geometric(st) => (st.next_min != u64::MAX).then_some(st.next_min),
        }
    }

    fn on_topology_change(&mut self) {
        self.alive = None;
    }

    fn snapshot_state(&self) -> Result<String, String> {
        crate::json::to_json_string(&self.sampler.snapshot()).map_err(|e| e.0)
    }

    fn restore_state(&mut self, blob: &str) -> Result<(), String> {
        let state: SamplerState = crate::json::from_json_str(blob).map_err(|e| e.0)?;
        self.sampler = Sampler::restore(state);
        self.alive = None;
        Ok(())
    }
}

/// Uniform-random destinations: any alive node but the source.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

/// Uniform-random traffic (Table II).
pub type UniformTraffic = Synthetic<Uniform>;

impl Pattern for Uniform {
    #[inline]
    fn can_send(&self, _src: NodeId, _topo: &Topology, alive: &[NodeId]) -> bool {
        alive.len() >= 2
    }

    #[inline]
    fn pick(
        &self,
        src: NodeId,
        _topo: &Topology,
        alive: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        loop {
            let dst = alive[rng.gen_range(0..alive.len())];
            if dst != src {
                return Some(dst);
            }
        }
    }
}

/// Bit-complement destinations: node (x, y) sends to (width−1−x,
/// height−1−y). A node whose complement is itself or dead sends nothing;
/// unreachable (but alive) destinations are dropped by the engine, as in
/// the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitComplement;

/// Bit-complement traffic (Table II).
pub type BitComplementTraffic = Synthetic<BitComplement>;

fn complement(src: NodeId, topo: &Topology) -> NodeId {
    let mesh = topo.mesh();
    let c = mesh.coord(src);
    mesh.node_at(mesh.width() - 1 - c.x, mesh.height() - 1 - c.y)
}

impl Pattern for BitComplement {
    #[inline]
    fn can_send(&self, src: NodeId, topo: &Topology, _alive: &[NodeId]) -> bool {
        let dst = complement(src, topo);
        dst != src && topo.router_alive(dst)
    }

    #[inline]
    fn pick(
        &self,
        src: NodeId,
        topo: &Topology,
        _alive: &[NodeId],
        _rng: &mut dyn RngCore,
    ) -> Option<NodeId> {
        Some(complement(src, topo))
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
    fn offered_rate_is_calibrated_under_both_samplers() {
        // The geometric sampler offers the same mean load as the Bernoulli
        // reference, within the same tolerance.
        let topo = Topology::full(Mesh::new(8, 8));
        for mut src in [
            UniformTraffic::new(0.3),
            UniformTraffic::new(0.3).geometric(),
        ] {
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
    }

    #[test]
    fn bit_complement_pairs_under_both_samplers() {
        let mesh = Mesh::new(4, 4);
        let topo = Topology::full(mesh);
        let bernoulli = BitComplementTraffic::new(1.0).single_vnet();
        for mut src in [bernoulli.clone(), bernoulli.geometric()] {
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
