//! Packet-stream pin for the open-loop synthetic sources: what each one
//! offers, what it answers to `next_arrival` and what it leaves of the
//! shared RNG, with no simulator in the loop.
//!
//! `tests/fixtures/packet_stream.txt` was written by this generator at the
//! commit before the six sources were folded into `sb_sim::Synthetic`
//! (582b7ec), so it holds every configuration that commit could express:
//! uniform with both samplers, both vnet layouts and two packet mixes,
//! bit-complement with both samplers and both layouts, and the four
//! `sb-workloads` patterns as they then were (Bernoulli, vnet 0, 50/50
//! mix). There `source` named six separate types, the four here had no
//! `single_vnet`, and the hot set was an argument of `HotspotTraffic::new`;
//! nothing else differed. `PACKET_STREAM_REGEN=1` rewrites the file.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sb_sim::{BitComplementTraffic, Pattern, Synthetic, TrafficSource, UniformTraffic};
use sb_topology::{FaultKind, FaultModel, Mesh, NodeId, Topology};
use sb_workloads::{Hotspot, HotspotTraffic, NeighborTraffic, ShuffleTraffic, TransposeTraffic};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/packet_stream.txt"
);
const CYCLES: u64 = 3_000;
/// The cycle at which the topology is swapped under the running source.
const SWAP_AT: u64 = 1_500;

/// `(pattern, geometric, single_vnet, data_fraction)`.
type Variant = (&'static str, bool, bool, f64);

fn variants() -> Vec<Variant> {
    let mut out = Vec::new();
    for (geometric, single) in [(false, true), (false, false), (true, true), (true, false)] {
        out.push(("uniform", geometric, single, 0.5));
        out.push(("uniform", geometric, single, 0.2));
        out.push(("bit-complement", geometric, single, 0.5));
    }
    out.extend(["transpose", "hotspot", "shuffle", "neighbor"].map(|p| (p, false, true, 0.5)));
    out
}

fn source(v: Variant, rate: f64, mesh: Mesh) -> Box<dyn TrafficSource> {
    fn knobs<P: Pattern + 'static>(t: Synthetic<P>, v: Variant) -> Box<dyn TrafficSource> {
        let (_, geometric, single_vnet, mix) = v;
        let t = if single_vnet { t.single_vnet() } else { t };
        let t = if mix == 0.5 { t } else { t.data_fraction(mix) };
        Box::new(if geometric { t.geometric() } else { t })
    }
    let hot = Hotspot::new(vec![NodeId(0), NodeId::from(mesh.node_count() - 1)], 0.6);
    match v.0 {
        "uniform" => knobs(UniformTraffic::new(rate), v),
        "bit-complement" => knobs(BitComplementTraffic::new(rate), v),
        "transpose" => knobs(TransposeTraffic::new(rate), v),
        "hotspot" => knobs(HotspotTraffic::with_pattern(hot, rate), v),
        "shuffle" => knobs(ShuffleTraffic::new(rate), v),
        "neighbor" => knobs(NeighborTraffic::new(rate), v),
        other => unreachable!("{other}"),
    }
}

/// `(label, packets per node per cycle, [topology, the topology swapped in at
/// SWAP_AT])`: a mid load under link faults, a low one on the large mesh, all
/// but saturation where routers die, and a mesh whose second node wakes up.
fn meshes() -> Vec<(&'static str, f64, [Topology; 2])> {
    let faulty = |side, kind, count, seed| {
        FaultModel::new(kind, count).inject(Mesh::new(side, side), &mut StdRng::seed_from_u64(seed))
    };
    let (links, routers) = (FaultKind::Links, FaultKind::Routers);
    let eight = [faulty(8, links, 12, 3), faulty(8, links, 14, 4)];
    let sixteen = [faulty(16, links, 20, 5), faulty(16, links, 20, 6)];
    let six = [faulty(6, routers, 5, 7), faulty(6, routers, 9, 8)];
    let mut two = [
        Topology::full(Mesh::new(2, 1)),
        Topology::full(Mesh::new(2, 1)),
    ];
    two[0].remove_router(NodeId(1));
    vec![
        ("8x8-12-links", 0.1, eight),
        ("16x16-20-links", 0.007, sixteen),
        ("6x6-dead-routers", 0.96, six),
        ("2x1-one-alive", 0.1, two),
    ]
}

/// FNV-1a taken a 64-bit word at a time.
fn fnv(hash: &mut u64, word: u64) {
    *hash = (*hash ^ word).wrapping_mul(0x0100_0000_01B3);
}

/// `packets:arrivals:rng` — FNV over `(cycle, src, dst, vnet, len)` of every
/// offered packet, FNV over every `next_arrival` answer, and the shared RNG's
/// next word after the run.
fn run(v: Variant, load: f64, [before, after]: &[Topology; 2]) -> String {
    let rate = load * (1.0 + 4.0 * v.3); // packets a cycle times flits a packet
    let mut src = source(v, rate, before.mesh());
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let (mut packets, mut arrivals) = (0xCBF2_9CE4_8422_2325u64, 0xCBF2_9CE4_8422_2325u64);
    for t in 0..CYCLES {
        if t == SWAP_AT {
            src.on_topology_change();
        }
        let topo = if t < SWAP_AT { before } else { after };
        for p in src.generate(t, topo, &mut rng) {
            let (from, to) = (p.src.index() as u64, p.dst.index() as u64);
            for word in [t, from, to, p.vnet as u64, p.len_flits as u64] {
                fnv(&mut packets, word);
            }
        }
        fnv(&mut arrivals, src.next_arrival(t).unwrap_or(u64::MAX));
    }
    format!("{packets:016x}:{arrivals:016x}:{:016x}", rng.next_u64())
}

/// One line per source configuration, one `mesh=digests` token per mesh.
fn table() -> String {
    let (mut out, meshes) = (String::new(), meshes());
    for v in variants() {
        let (pattern, geometric, single_vnet, mix) = v;
        let sampler = if geometric { "geometric" } else { "bernoulli" };
        let vnets = if single_vnet { "single" } else { "multi" };
        out += &format!("{pattern}/{sampler}/{vnets}/{mix}");
        for (label, load, topologies) in &meshes {
            // Transpose needs a square mesh.
            if !(pattern == "transpose" && label.starts_with("2x1")) {
                out += &format!(" {label}={}", run(v, *load, topologies));
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn every_source_offers_the_pinned_packet_stream() {
    let today = table();
    if std::env::var_os("PACKET_STREAM_REGEN").is_some() {
        std::fs::write(FIXTURE, &today).expect("write fixture");
    }
    let pinned = std::fs::read_to_string(FIXTURE).expect("read fixture");
    assert_eq!(today.lines().count(), pinned.lines().count());
    for (got, want) in today.lines().zip(pinned.lines()) {
        let tokens = got.split(' ').zip(want.split(' '));
        let differing: Vec<_> = tokens.filter(|(got, want)| got != want).collect();
        assert!(got == want, "(today, pinned) {differing:?} in\n{got}");
    }
}
