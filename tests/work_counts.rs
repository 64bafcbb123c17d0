//! Tier-1 pins on the work the engine saves, by count, the same in debug
//! and release and on any machine:
//!
//! * router scans per grant below saturation, where the paper's evaluation
//!   spends most of its simulated time, on a shortened `low_load` shape and
//!   on the `sparse_leap` shape of the repo benchmark. A scan is owed only
//!   to a router that can still compete — a granting router whose leftover
//!   candidates all wait on a busy link, a full port or the hop pipeline is
//!   not re-scanned, and a feeder with no packet for the freed port gets no
//!   credit wake — so either wake rule regressing shows here as a count;
//! * router scans per grant in the onset regime, where fig03 and
//!   `fig02 --sim` drive an unprotected mesh into a deadlock;
//! * allocator work per grant past the knee, on the `saturated` shape: every
//!   router contends every cycle, so candidate collection, the winner
//!   search, commit, route stamping and injection-queue growth run flat out;
//! * the scan set itself: what each immediate wake of DESIGN.md §6's table
//!   puts in it, how it empties when nothing can move, and the wheel and
//!   the clock across gaps.
//!
//! Whether a saved scan or cycle is also *invisible* is the determinism
//! harness's question, `tests/contracts.rs`.

use static_bubble_repro::routing::{MinimalRouting, Route};
use static_bubble_repro::scenario::{ClockMode, Design, FaultSpec, Scenario, TrafficSpec};
use static_bubble_repro::sim::{InputRef, NetCore, NewPacket, NoTraffic, NullPlugin, Packet};
use static_bubble_repro::sim::{PacketId, Plugin, ScriptedTraffic, SimConfig, Simulator, SlotRef};
use static_bubble_repro::sim::{TrafficSource, UniformTraffic, VcRef};
use static_bubble_repro::topology::{Direction, FaultKind, FaultModel, Mesh, NodeId, Topology};

/// Static Bubble on a `side`×`side` mesh with `link_faults` faulty links,
/// uniform-random single-vnet traffic at `rate`.
fn shape(side: u16, link_faults: usize, rate: f64, clock: ClockMode) -> Scenario {
    Scenario::new("work-counts", Design::StaticBubble)
        .with_mesh(side, side)
        .with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: link_faults,
            seed: 1,
        })
        .with_traffic(TrafficSpec::Uniform {
            rate,
            single_vnet: true,
        })
        .with_clock(clock)
        .with_seed(1)
}

/// Run `cycles` of `scenario` and assert that router scans per grant since
/// construction stay at or below `ceiling`.
fn scans_per_grant(scenario: Scenario, cycles: u64, ceiling: f64) {
    let mut sim = scenario.build();
    sim.run(cycles);
    let k = sim.kernel_counters();
    assert!(k.grants > 1_000, "too little traffic to read: {k:?}");
    let per_grant = k.scans as f64 / k.grants as f64;
    assert!(
        per_grant <= ceiling,
        "router scans per grant {per_grant:.3} rose above {ceiling}: {k:?}"
    );
}

/// The `saturated` regime of the repo benchmark and of the
/// `BENCH_kernel.json` ledger: up*/down* routing on a 16×16 mesh with 20
/// link faults at 0.08 flits/node/cycle. Up*/down* is deadlock-free, so the
/// network stays live however far past its knee it is pushed — every router
/// contends every cycle and source queues grow for the whole run — where an
/// unprotected mesh driven past saturation wedges within a few thousand
/// cycles (the `blocked` regime, pinned below by
/// `deadlocked_mesh_with_injection_cut_scans_no_router`).
///
/// Where a tree's knee lies depends on its root and its faults, so the
/// fault pattern is pinned: this is the tree the benchmark's `saturated`
/// workload runs, which accepts 0.35–0.41 of the offered load on every
/// simulation seed tried.
fn saturated() -> Scenario {
    Scenario::new("saturated", Design::SpanningTree)
        .with_mesh(16, 16)
        .with_faults(FaultSpec::Model {
            kind: FaultKind::Links,
            count: 20,
            seed: 2,
        })
        .with_traffic(TrafficSpec::Uniform {
            rate: 0.08,
            single_vnet: true,
        })
        .with_seed(5)
}

/// Ceilings on allocator work per grant over the whole run, warmup
/// included: router scans, scans that granted nothing, and candidate
/// packets the winner search dereferenced, each 5 % above its measured
/// value. Measured 1.176 / 0.239 / 1.064 once an output whose downstream
/// port has no unoccupied buffer is skipped before the winner search, a
/// granting router is re-scanned only for a candidate left untried or a
/// surfaced injection head, and a take wakes only a feeder wanting the
/// freed port; 1.832 / 0.879 / 2.114 when a granting router was re-scanned
/// for any candidate left and a take woke a feeder holding any packet;
/// 2.095 / 0.938 / 2.114 before that, with wakes scheduled at the cycle
/// their event takes effect and the winner search giving up on a full
/// downstream port after one candidate; 2.59 / 1.44 / 9.06 before those.
const MAX_SCANS: f64 = 1.235;
const MAX_ZERO_GRANT_SCANS: f64 = 0.251;
const MAX_CANDIDATES: f64 = 1.117;

/// The network must stay live and past its knee (packets delivered, 0.2–0.6
/// of the offered flits accepted), and the allocator's work per grant under
/// its ceilings.
#[test]
fn saturated_regime_holds_and_work_per_grant_stays_under_its_ceilings() {
    let mut sim = saturated().build();
    sim.warmup(1_000);
    sim.run(20_000);
    let stats = sim.stats();
    assert!(
        stats.delivered_packets > 0 && (0.2..=0.6).contains(&stats.acceptance()),
        "not a live saturated network: {} packets delivered, acceptance {:.3} (want 0.2..=0.6)",
        stats.delivered_packets,
        stats.acceptance()
    );
    // The counters run since construction, so divide by their own grant
    // count, not by the measurement window's `stats.movements`.
    let k = sim.kernel_counters();
    let per_grant = |count: u64| count as f64 / k.grants as f64;
    let work = [
        ("router scans", k.scans, MAX_SCANS),
        ("zero-grant scans", k.zero_grant_scans, MAX_ZERO_GRANT_SCANS),
        ("candidates examined", k.candidates_examined, MAX_CANDIDATES),
    ];
    let report: Vec<String> = work
        .iter()
        .map(|(name, count, ceiling)| {
            format!("{name} {:.3} (ceiling {ceiling})", per_grant(*count))
        })
        .collect();
    for (name, count, ceiling) in work {
        assert!(
            per_grant(count) <= ceiling,
            "{name} per grant rose above its ceiling: {report:?}"
        );
    }
}

/// `low_load`: 16×16, 20 link faults, UR 0.02, a coin per node per cycle.
/// Measured 1.026 scans per grant; 1.107 when a granting router was
/// re-scanned for any candidate left and a take woke a feeder holding any
/// packet; 2.582 when a granting router was always re-scanned and every
/// take woke its feeder.
#[test]
fn low_load_scans_about_once_per_grant() {
    scans_per_grant(shape(16, 20, 0.02, ClockMode::Step), 4_000, 1.08);
}

/// `sparse_leap`: 8×8, 12 link faults, UR 0.0005, geometric arrivals so
/// the engine leaps the dead cycles. Measured 1.003; 2.844 before.
#[test]
fn sparse_leap_scans_once_per_grant() {
    scans_per_grant(shape(8, 12, 0.0005, ClockMode::Leap), 400_000, 1.1);
}

/// The onset regime of fig03 and `fig02 --sim`: unprotected minimal
/// routing on an 8×8 with 10 faulty links (the first of fig03's sampled
/// topologies at that count), UR 0.3 on one vnet, driven by the deadlock
/// oracle's loop, `run_until_deadlock(20_000, 64)`, until it wedges. Until
/// it does, every router contends and queues grow as in the saturated
/// regime, but nothing keeps the network live. Measured 1.130 scans per
/// grant (17,865 grants, wedged at cycle 640); the ceiling is 5 % above.
#[test]
fn onset_regime_scans_about_once_per_grant() {
    let mesh = Mesh::new(8, 8);
    let model = FaultModel::new(FaultKind::Links, 10);
    let topo = model.sample_topologies(mesh, 0xF16_0003 + 10, 1).remove(0);
    let traffic = UniformTraffic::new(0.3).single_vnet();
    let mut sim = bare(&topo, SimConfig::single_vnet(), traffic);
    let wedged = sim.run_until_deadlock(20_000, 64);
    let k = sim.kernel_counters();
    assert!(wedged.is_some(), "UR 0.3 must wedge this topology: {k:?}");
    assert!(k.grants > 10_000, "too little traffic to read: {k:?}");
    let per_grant = k.scans as f64 / k.grants as f64;
    assert!(
        per_grant <= 1.19,
        "router scans per grant {per_grant:.3} rose above 1.19: {k:?}"
    );
}

/// A bare engine over `topo`: minimal routes, no mechanism.
fn bare<T: TrafficSource>(topo: &Topology, cfg: SimConfig, traffic: T) -> Simulator<NullPlugin, T> {
    let planner = Box::new(MinimalRouting::new(topo));
    Simulator::new(topo, cfg, planner, NullPlugin, traffic, 0)
}

/// The routers in the scan set.
fn active(core: &NetCore) -> Vec<NodeId> {
    let nodes = core.topology().mesh().nodes();
    nodes.filter(|&r| core.is_active(r)).collect()
}

/// The router a wake row mutates, at (1, 1) of a 4×4, and its feeder
/// across the East port, where its static bubble attaches.
const R: NodeId = NodeId(5);
const F: NodeId = NodeId(6);
const PORT: Direction = Direction::East;

/// No mechanism, except that a free attached bubble is taken before any
/// VC, so that a packet can be staged in one. Its one bubble sits at `R`.
struct BubbleFirst;

impl Plugin for BubbleFirst {
    fn bubble_routers(&self) -> Vec<NodeId> {
        vec![R]
    }

    fn pick_slot(
        &self,
        core: &NetCore,
        router: NodeId,
        port: Direction,
        pkt: &Packet,
    ) -> Option<SlotRef> {
        if core.bubble_available(router, port, pkt.vnet) {
            return Some(SlotRef::Bubble);
        }
        let vc = core.first_free_regular_vc(router, port, pkt.vnet);
        vc.map(SlotRef::Regular)
    }

    fn next_timer(&self, _core: &NetCore) -> Option<u64> {
        None
    }
}

type Rig = Simulator<BubbleFirst, NoTraffic>;

/// A 4×4, one vnet, with a static bubble at `R`.
fn rig<T: TrafficSource>(traffic: T) -> Simulator<BubbleFirst, T> {
    let topo = Topology::full(Mesh::new(4, 4));
    assert_eq!(topo.neighbor(R, PORT), Some(F));
    let planner = Box::new(MinimalRouting::new(&topo));
    let cfg = SimConfig::single_vnet();
    Simulator::new(&topo, cfg, planner, BubbleFirst, traffic, 0)
}

/// A packet travelling West through `R`, switchable from `ready_at`.
fn westbound(ready_at: u64) -> (Packet, u64) {
    let route = Route::new(vec![Direction::West, Direction::West]);
    let req = NewPacket {
        src: NodeId(7),
        dst: NodeId(4),
        vnet: 0,
        len_flits: 5,
    };
    (Packet::new(PacketId(1), req, route, 0), ready_at)
}

/// Park a packet in `R`'s first East VC, not switchable for a while.
fn park_at_r(sim: &mut Rig) {
    let (pkt, ready) = westbound(sim.time() + 40);
    let vc = VcRef {
        router: R,
        port: PORT,
        vc: 0,
    };
    sim.core_mut().place_packet(vc, pkt, ready);
}

/// Attach `R`'s bubble to the East port and let `F` send a packet into it,
/// where it stays: every VC it could move on into is taken.
fn fill_bubble(sim: &mut Rig) {
    for vc in 0..sim.core().config().vcs_per_port() as u8 {
        let (pkt, ready) = westbound(sim.time() + 40);
        let router = NodeId(4);
        sim.core_mut().place_packet(
            VcRef {
                router,
                port: PORT,
                vc,
            },
            pkt,
            ready,
        );
    }
    sim.core_mut().bubble_activate(R, PORT, 0);
    let (pkt, ready) = westbound(sim.time());
    let vc = VcRef {
        router: F,
        port: PORT,
        vc: 0,
    };
    sim.core_mut().place_packet(vc, pkt, ready);
    while sim.core().bubble_occupant(R).is_none() {
        sim.run(1);
    }
}

/// Each immediate wake of DESIGN.md §6's table, one row a mutation: the
/// staging, then — once every router has retired — the mutation, and the
/// routers it must put in the scan set. (`None`: every router.)
#[test]
fn every_immediate_wake_lands_where_the_design_table_says() {
    type Step = fn(&mut Rig);
    let nothing: Step = |_| {};
    let rows: [(&str, Step, Step, Option<[NodeId; 2]>); 7] = [
        (
            "a slot forced free (`vc_clear`)",
            park_at_r,
            |sim| {
                let vc = VcRef {
                    router: R,
                    port: PORT,
                    vc: 0,
                };
                sim.core_mut().vc_clear(vc);
            },
            Some([R, F]),
        ),
        (
            "an occupant re-stamped (`with_packet_mut`)",
            park_at_r,
            |sim| {
                let vc = VcRef {
                    router: R,
                    port: PORT,
                    vc: 0,
                };
                sim.core_mut().with_packet_mut(InputRef::Vc(vc), |_| ());
            },
            Some([R, F]),
        ),
        (
            "a bubble attached",
            nothing,
            |sim| sim.core_mut().bubble_activate(R, PORT, 0),
            Some([R, F]),
        ),
        (
            "a bubble detached",
            |sim| sim.core_mut().bubble_activate(R, PORT, 0),
            |sim| sim.core_mut().bubble_deactivate(R),
            Some([R, F]),
        ),
        (
            "a bubble occupant relocated",
            fill_bubble,
            |sim| {
                sim.core_mut().bubble_take_occupant(R);
            },
            Some([R, F]),
        ),
        (
            "a reconfiguration",
            nothing,
            |sim| {
                let topo = sim.core().topology().clone();
                sim.reconfigure(&topo, Box::new(MinimalRouting::new(&topo)));
            },
            None,
        ),
        (
            "a kernel-mode toggle",
            nothing,
            |sim| {
                sim.scan_all_routers(true);
                sim.scan_all_routers(false);
            },
            None,
        ),
    ];
    for (what, stage, mutate, woken) in rows {
        let mut sim = rig(NoTraffic);
        stage(&mut sim);
        // A router with nothing to grant retires after one scan.
        sim.run(2);
        assert_eq!(active(sim.core()), [], "{what}: staged");
        mutate(&mut sim);
        let every: Vec<NodeId> = sim.core().topology().mesh().nodes().collect();
        let woken = woken.map_or(every, Vec::from);
        assert_eq!(active(sim.core()), woken, "{what}");
    }
}

/// An arrival's timed wake, into a VC or a bubble at its `ready_at`, is
/// never late: a packet crosses `R` through its bubble under an audit every
/// cycle, which fails the first cycle a router with a grantable candidate
/// is not scanned.
#[test]
fn timed_wakes_are_never_late() {
    let offer = NewPacket {
        src: F,
        dst: NodeId(4),
        vnet: 0,
        len_flits: 5,
    };
    let mut sim = rig(ScriptedTraffic::new(vec![(0, offer)]));
    sim.set_audit(1);
    sim.core_mut().bubble_activate(R, PORT, 0);
    let mut through_bubble = false;
    while sim.core().stats().delivered_packets == 0 && sim.time() < 100 {
        sim.run(1);
        through_bubble |= sim.core().bubble_occupant(R).is_some();
    }
    assert!(through_bubble, "the packet must take the bubble");
    assert!(sim.time() < 100, "delivered");
}

/// A router that granted sleeps when every candidate it has left waits on
/// something that wakes it by itself: here a packet behind the grant's busy
/// link, woken when the link frees, and one for a port whose every VC is
/// full, woken by the take that frees one. Neither is scanned again in the
/// meantime, and the one behind the link still leaves on the first cycle
/// it can.
#[test]
fn a_granting_router_whose_leftovers_all_wait_sleeps() {
    let topo = Topology::full(Mesh::new(4, 4));
    let mut sim = bare(&topo, SimConfig::single_vnet(), NoTraffic);
    let south = topo.neighbor(R, Direction::South).expect("interior");
    let packet = |id, towards| {
        let route = Route::new(vec![towards]);
        let dst = topo.neighbor(R, towards).expect("interior");
        let req = NewPacket {
            src: R,
            dst,
            vnet: 0,
            len_flits: 5,
        };
        Packet::new(PacketId(id), req, route, 0)
    };
    let core = sim.core_mut();
    // Every VC of the port the South candidate would enter is full, with
    // occupants still far from switchable.
    for vc in 0..core.config().vcs_per_port() as u8 {
        let port = Direction::North;
        let full = VcRef {
            router: south,
            port,
            vc,
        };
        core.place_packet(full, packet(10 + vc as u64, Direction::East), 1_000);
    }
    let at = |port, vc| VcRef {
        router: R,
        port,
        vc,
    };
    core.place_packet(at(Direction::West, 0), packet(1, Direction::East), 0);
    let behind_link = at(Direction::West, 1);
    core.place_packet(behind_link, packet(2, Direction::East), 0);
    core.place_packet(at(Direction::North, 0), packet(3, Direction::South), 0);
    sim.run(1); // the first East candidate leaves; its link is busy to 5
    assert!(sim.core().vc_occupant(at(Direction::West, 0)).is_none());
    assert!(!sim.core().is_active(R), "re-scanned with nothing to grant");
    let scans = sim.kernel_counters().scans;
    sim.run(4);
    assert!(sim.core().vc_occupant(behind_link).is_some());
    // Cycles 1–4 scan only the first packet's arrival at F.
    assert_eq!(sim.kernel_counters().scans - scans, 1);
    sim.run(1);
    assert!(sim.core().vc_occupant(behind_link).is_none(), "late");
    assert!(sim.core().vc_occupant(at(Direction::North, 0)).is_some());
}

/// An idle network retires every router after one pass and stays retired;
/// touching a router twice puts it in the scan set once.
#[test]
fn the_scan_set_retires_idle_routers_and_touch_is_idempotent() {
    let topo = Topology::full(Mesh::new(16, 16));
    let mut sim = bare(&topo, SimConfig::default(), NoTraffic);
    // Construction marks everything active; the first pass prunes it all.
    assert_eq!(sim.core().active_count(), 256);
    sim.run(2);
    assert_eq!(sim.core().active_count(), 0);
    sim.run(100);
    assert_eq!(sim.core().active_count(), 0);
    assert_eq!(sim.core().stats().cycles, 102);
    sim.core_mut().touch(NodeId(3));
    sim.core_mut().touch(NodeId(3));
    assert_eq!(active(sim.core()), [NodeId(3)]);
    sim.run(1); // empty router: pruned again on the next pass
    assert_eq!(sim.core().active_count(), 0);
}

/// One packet from corner to corner of an 8×8 at cycle `at`.
fn corner_to_corner(mesh: Mesh, at: u64) -> (u64, NewPacket) {
    let packet = NewPacket {
        src: mesh.node_at(0, 0),
        dst: mesh.node_at(7, 7),
        vnet: 0,
        len_flits: 5,
    };
    (at, packet)
}

#[test]
fn traffic_reactivates_and_drains_back_to_idle() {
    let topo = Topology::full(Mesh::new(8, 8));
    let mesh = topo.mesh();
    let script = ScriptedTraffic::new(vec![corner_to_corner(mesh, 5)]);
    let mut sim = bare(&topo, SimConfig::default(), script);
    sim.run(4); // idle prelude: everything retires
    assert_eq!(sim.core().active_count(), 0);
    // The offer at t=5 touches the source, which grants it the same cycle.
    // With nothing left to send the source retires at once: the packet's
    // only wake is its arrival downstream, on the wheel.
    sim.run(2);
    assert_eq!(sim.core().stats().injected_packets, 1);
    assert_eq!(sim.core().active_count(), 0);
    assert_eq!(sim.core().in_flight(), 1);
    assert!(sim.run_until_drained(10_000));
    sim.run(8); // a few cycles to retire the last draining router
    assert_eq!(sim.core().active_count(), 0, "all retire after delivery");
    assert_eq!(sim.core().stats().delivered_packets, 1);
}

/// The blocked regime: an unprotected mesh driven into a deadlock, injection
/// cut, the unaffected residue delivered. Every packet left is blocked for
/// good, so the worklist is empty and the rest of the run must cost no
/// router scan at all.
#[test]
fn deadlocked_mesh_with_injection_cut_scans_no_router() {
    let topo = Topology::full(Mesh::new(16, 16));
    let traffic = UniformTraffic::new(0.6).single_vnet();
    let mut sim = bare(&topo, SimConfig::single_vnet(), traffic);
    sim.run_until_deadlock(100_000, 64)
        .expect("a 16x16 unprotected mesh at 0.6 must deadlock");
    sim.halt_injection();
    sim.run(5_000);
    let (settled, cycles) = (sim.kernel_counters().scans, sim.core().stats().cycles);
    sim.run(10_000);
    assert!(sim.core().in_flight() > 0, "the deadlock holds its packets");
    assert_eq!(sim.core().stats().cycles, cycles + 10_000);
    assert_eq!(sim.kernel_counters().scans, settled);
}

/// A wheel wake scheduled far beyond the 64-slot horizon is clamped, not
/// lost: the router wakes exactly at the horizon boundary (early wakes are
/// allowed by the wheel contract, late ones never) — and a leap stops at
/// that boundary instead of jumping over the entry.
#[test]
fn wheel_wake_beyond_horizon_fires_at_the_clamped_cycle() {
    for chunk in [1, 62] {
        let topo = Topology::full(Mesh::new(4, 4));
        let mut sim = bare(&topo, SimConfig::tiny(), NoTraffic);
        sim.run(2); // retire every router
        let t0 = sim.time();
        // Requested 200 cycles out; the wheel holds at most 63.
        sim.core_mut().wake_at(NodeId(5), t0 + 200);
        (0..62 / chunk).for_each(|_| sim.run(chunk));
        assert!(sim.audit_now().is_none());
        assert_eq!(active(sim.core()), [], "{chunk}: woke early");
        sim.run(1); // now sitting exactly on the t0 + 63 boundary
        assert!(sim.audit_now().is_none()); // drains the due wheel slot
        assert_eq!(active(sim.core()), [NodeId(5)], "{chunk}: entry lost");
        assert_eq!(sim.time(), t0 + 63);
    }
}

/// An occupant first switchable beyond the wheel's horizon: its arrival
/// wake is clamped, so its router wakes early, finds it still in the hop
/// pipeline and must re-arm its own wake, a horizon at a time, until the
/// packet leaves on the first cycle it can. (An early wake is the wheel's
/// contract; this re-arm is what makes it sound.)
#[test]
fn an_occupant_beyond_the_horizon_leaves_at_its_ready_cycle() {
    let mut sim = rig(NoTraffic);
    sim.run(2); // retire every router
    let (pkt, ready) = westbound(sim.time() + 200);
    let vc = VcRef {
        router: R,
        port: PORT,
        vc: 0,
    };
    sim.core_mut().place_packet(vc, pkt, ready);
    sim.run(ready - sim.time());
    assert!(sim.core().vc_occupant(vc).is_some(), "left before {ready}");
    sim.run(1);
    assert!(
        sim.core().vc_occupant(vc).is_none(),
        "still parked at {ready}"
    );
}

/// Two scripted bursts separated by a 100k-cycle dead gap: one call costs
/// O(events), not O(cycles), and reports the exact statistics block of the
/// full sweep and of a cycle a call, which both execute every cycle.
#[test]
fn the_clock_is_exact_over_long_idle_gaps() {
    let topo = Topology::full(Mesh::new(8, 8));
    let mesh = topo.mesh();
    let run = |full_scan: bool, chunk: u64| {
        let script = [3, 100_000, 100_001].map(|at| corner_to_corner(mesh, at));
        let mut sim = bare(
            &topo,
            SimConfig::single_vnet(),
            ScriptedTraffic::new(script.into()),
        );
        sim.scan_all_routers(full_scan);
        (0..150_000 / chunk).for_each(|_| sim.run(chunk));
        assert_eq!(sim.core().stats().cycles, 150_000);
        assert_eq!(sim.core().stats().delivered_packets, 3);
        sim.core().stats().clone()
    };
    let one_call = run(false, 150_000);
    assert_eq!(run(true, 150_000), one_call, "full sweep");
    assert_eq!(run(false, 1), one_call, "a cycle a call");
}
