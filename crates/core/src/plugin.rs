//! The Static Bubble runtime adapter: the per-router registers, the special
//! messages in flight, and the [`Plugin`] hooks that tie the protocol kernel
//! into the simulator (Section IV of the paper).
//!
//! Nothing is decided here. Each cycle the adapter gathers that cycle's
//! events in one fixed order (see `before_cycle`), hands them one at a time
//! to [`protocol::step`] together with a read-only view of the router, and
//! applies the actions it gets back — each kind at exactly one site
//! (`apply`). What happened is kept by [`crate::trace`].

use crate::fsm::{FsmState, SbFsm};
use crate::msg::{InFlightMsg, SpecialMsg};
use crate::placement;
use crate::protocol::{self, Action, ActionBuf, Arrival, Deadline, DropReason, Event, Local};
use crate::protocol::{Occupant, ProtState, RouterView, SbOptions};
use crate::trace::{MsgRecord, ProtoCounters, ProtoEvent, Recorder};
use sb_sim::{AuditClass, InputRef, NetCore, OutPort, Plugin, SlotRef, VcRef, Violation};
use sb_topology::{Direction, Mesh, NodeId, NodeSet, Topology};
use serde::Serialize;

/// The kernel's window onto one router of the live network.
struct CoreView<'c>(&'c NetCore, NodeId);

impl RouterView for CoreView<'_> {
    fn vcs_per_port(&self) -> usize {
        self.0.config().vcs_per_port()
    }
    fn occupancy(&self) -> u64 {
        self.0.occupancy_mask(self.1)
    }
    fn occupant(&self, port: Direction, vc: u8) -> Option<Occupant> {
        let router = self.1;
        let pkt = self.0.vc_occupant(VcRef { router, port, vc })?;
        Some(Occupant {
            id: pkt.id,
            vnet: pkt.vnet,
            wants: pkt.desired_hop(),
        })
    }
    fn all_vcs_occupied(&self, port: Direction, vnet: u8) -> bool {
        self.0.all_vcs_occupied(self.1, port, vnet)
    }
    fn wanted_outputs(&self, port: Direction, vnet: u8) -> Vec<OutPort> {
        self.0.wanted_outputs(self.1, port, vnet)
    }
    fn bubble_empty(&self) -> bool {
        self.0.has_bubble(self.1) && self.0.bubble_occupant(self.1).is_none()
    }
}

/// The Static Bubble deadlock-recovery plugin (one per simulation).
#[derive(Debug)]
pub struct StaticBubblePlugin {
    /// One FSM per static-bubble router, ascending by node id — the order
    /// every walk of them (tick dispatch, timers, audit, snapshot) runs in.
    fsms: Vec<SbFsm>,
    /// Where `fsms` holds a router's FSM, indexed by node id over the whole
    /// mesh. Derived from `fsms` by [`fsm_table`], never serialised.
    slot_of: Vec<Option<u16>>,
    /// The routers that hold an FSM. Derived from `fsms` like `slot_of`.
    placement: NodeSet,
    /// The routers whose FSM is not in `SOff` — at least those: refreshed
    /// after every [`protocol::step`] at a router ([`Self::step`]), and a
    /// stale member costs one re-test.
    armed: NodeSet,
    /// The FSMs the live walks loaded, in order (the pin that an idle one
    /// is not).
    #[cfg(test)]
    visited: std::cell::RefCell<Vec<NodeId>>,
    prot: Vec<ProtState>,
    /// Special messages on a link, oldest first. Every hop takes the same
    /// two cycles, so this is also ascending arrival order.
    in_flight: Vec<InFlightMsg>,
    tdd: u64,
    /// TTL of `is_deadlock` restrictions (cycles).
    restriction_ttl: u64,
    opts: SbOptions,
    /// Cycle of the last `before_cycle` call. FSM counters advance by the
    /// elapsed time since then, so cycles the engine skipped — during which
    /// the counted condition provably held — are accounted exactly as if
    /// they had been executed.
    last_tick: Option<u64>,
    /// Counters, transmission ring and event trace.
    trace: Recorder,
    /// The routers whose `prot` entry has `is_deadlock` set, in no
    /// particular order: what the TTL sweep and [`Plugin::next_timer`]
    /// visit instead of every router. Derived from `prot` (cross-checked by
    /// the audit), maintained by [`Self::set_restriction`].
    frozen: Vec<NodeId>,
    /// Per-tick scratch, kept for its capacity: the kernel's output, one
    /// router's transit messages.
    actions: ActionBuf,
    transit: Vec<(Direction, SpecialMsg)>,
}

impl StaticBubblePlugin {
    /// Build the plugin for `topo`, installing a static bubble and its FSM
    /// at every alive placement router ([`placement::alive_bubbles`]).
    ///
    /// `tdd` is the deadlock-detection threshold (Table II uses 34).
    pub fn new(topo: &Topology, tdd: u64) -> Self {
        Self::with_options(topo, tdd, SbOptions::default())
    }

    /// Build the plugin with explicit ablation options.
    pub fn with_options(topo: &Topology, tdd: u64, opts: SbOptions) -> Self {
        Self::with_bubble_nodes(topo.mesh(), tdd, opts, &placement::alive_bubbles(topo))
    }

    /// Build the plugin with an explicit static-bubble router set (the paper
    /// notes that "alternate hand-optimized placements, some with fewer
    /// static bubbles, are also possible" — see
    /// [`placement::greedy_placement`]). Each of `nodes` gets a bubble and
    /// its FSM. The order of `nodes` is immaterial and a repeated id counts
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if a node is not on `mesh`.
    pub fn with_bubble_nodes(mesh: Mesh, tdd: u64, opts: SbOptions, nodes: &[NodeId]) -> Self {
        // Each router's detection timer gets a small id-dependent stagger:
        // identical periods at every node phase-lock probe collisions in a
        // synchronous network (real timers drift; DSENT-era designs stagger
        // counters for the same reason).
        let fsms = nodes
            .iter()
            .map(|&n| {
                let mut fsm = SbFsm::new(n, tdd + u64::from(n.0) % 7);
                if opts.probe_desync {
                    fsm.retry_stagger = u64::from(n.0);
                }
                fsm
            })
            .collect();
        let (fsms, slot_of) = fsm_table(mesh.node_count(), fsms).unwrap_or_else(|e| panic!("{e}"));
        let (placement, armed) = live_sets(mesh.node_count(), &fsms);
        StaticBubblePlugin {
            fsms,
            slot_of,
            placement,
            armed,
            #[cfg(test)]
            visited: Default::default(),
            prot: vec![ProtState::default(); mesh.node_count()],
            in_flight: Vec::new(),
            tdd,
            restriction_ttl: 64 * tdd.max(1),
            opts,
            last_tick: None,
            trace: Recorder::default(),
            frozen: Vec::new(),
            actions: ActionBuf::default(),
            transit: Vec::new(),
        }
    }

    /// The always-on protocol counters.
    pub fn counters(&self) -> &ProtoCounters {
        &self.trace.counters
    }

    /// The FSM of a static-bubble router, if `node` is one.
    pub fn fsm(&self, node: NodeId) -> Option<&SbFsm> {
        self.slot(node).map(|slot| &self.fsms[slot])
    }

    /// Mutable access to the FSM of a static-bubble router — a test hook
    /// for seeding auditor violations. Production transitions go through
    /// [`protocol::step`]. Whatever the caller writes, the FSM is visited
    /// on the next tick.
    #[cfg(test)]
    pub(crate) fn fsm_mut(&mut self, node: NodeId) -> Option<&mut SbFsm> {
        let slot = self.slot(node)?;
        self.armed.insert(node);
        Some(&mut self.fsms[slot])
    }

    /// Where `fsms` holds `node`'s FSM: `None` off the placement, and off
    /// the mesh.
    fn slot(&self, node: NodeId) -> Option<usize> {
        (*self.slot_of.get(node.index())?).map(usize::from)
    }

    /// Number of routers currently frozen (`is_deadlock` set).
    pub fn frozen_routers(&self) -> usize {
        self.frozen.len()
    }

    /// Diagnostic view of frozen routers: `(router, (in, out), source)`.
    pub fn frozen_details(&self) -> Vec<(NodeId, (Direction, Direction), NodeId)> {
        let detail = |n: NodeId| {
            let p = &self.prot[n.index()];
            let io = p.io.expect("frozen router has io");
            (n, io, p.source.expect("frozen router has source"))
        };
        frozen_index(&self.prot).into_iter().map(detail).collect()
    }

    /// Special messages currently in flight (diagnostics).
    pub fn in_flight_messages(&self) -> usize {
        self.in_flight.len()
    }

    /// `router`'s registers, as the kernel takes them.
    fn local(&mut self, now: u64, router: NodeId) -> Local<'_> {
        Local {
            node: router,
            now,
            restriction_ttl: self.restriction_ttl,
            opts: self.opts,
            prot: self.prot[router.index()],
            fsm: (self.slot(router)).map(|slot| &mut self.fsms[slot]),
        }
    }

    /// Run the kernel for one event at `router` into `buf`, and keep
    /// `armed` in step with where that left the router's FSM.
    fn step(&mut self, core: &NetCore, router: NodeId, event: Event<'_>, buf: &mut ActionBuf) {
        let mut local = self.local(core.time(), router);
        protocol::step(&mut local, &CoreView(core, router), event, buf);
        match local.fsm {
            Some(fsm) if fsm.state == FsmState::SOff => self.armed.remove(router),
            Some(_) => self.armed.insert(router),
            None => false,
        };
    }

    /// Word `w` of the live set `(occupied ∩ placement) ∪ armed` (DESIGN.md
    /// §3): every router whose FSM is out of `SOff` or has a packet to leave
    /// it for — all that a tick, a gap or a timer query can concern.
    fn live_word(&self, core: &NetCore, w: usize) -> u64 {
        core.occupied_routers().words()[w] & self.placement.words()[w] | self.armed.words()[w]
    }

    /// Run the kernel for one event at `router` and apply its actions.
    fn dispatch(&mut self, core: &mut NetCore, router: NodeId, event: Event<'_>) {
        let mut buf = std::mem::take(&mut self.actions);
        self.step(core, router, event, &mut buf);
        let about = match event {
            Event::Returned(at) | Event::Transit(at) | Event::Granted(at, _) => Some(at),
            Event::Tick | Event::Gap(_) | Event::BubbleFreed => None,
        };
        for action in buf.actions.drain(..) {
            self.apply(core, router, action, about);
        }
        self.actions = buf;
    }

    /// Apply one action of an event at `router`; `about` is the event's
    /// message, if it has one.
    fn apply(
        &mut self,
        core: &mut NetCore,
        router: NodeId,
        action: Action,
        about: Option<Arrival<'_>>,
    ) {
        let about = || about.expect("only an arrival is dropped or re-circulated");
        match action {
            Action::Send(out, msg) => self.send(core, router, out, msg),
            Action::Restrict(state) => self.set_restriction(core, router, state),
            Action::BubbleOn(port, vnet) => core.bubble_activate(router, port, vnet),
            Action::BubbleOff => core.bubble_deactivate(router),
            Action::Count(stat) => self.trace.counters.count(stat, core.stats_mut()),
            Action::Drop(reason) => self.drop_msg(core, router, about(), reason),
            Action::Record(event) => self.trace.record(event),
            Action::Recirculate => (self.transit).push((about().in_port, about().msg.clone())),
            Action::Offer(_) => unreachable!("offers are consumed by the arbitration loop"),
        }
    }

    /// Schedule `msg` out of `(from, out)`: it arrives at the neighbour in
    /// 2 cycles (1-cycle process + 1-cycle link) and its link traversal is
    /// accounted per class. Never over a dead link: a fault can cut the
    /// latched path while a round is in flight, and the message is dropped
    /// here — the enable retries and the restriction TTL clean up after it.
    fn send(&mut self, core: &mut NetCore, from: NodeId, out: Direction, msg: SpecialMsg) {
        let Some(to) = core.topology().neighbor(from, out) else {
            let at = Arrival {
                in_port: out,
                msg: &msg,
            };
            return self.drop_msg(core, from, at, DropReason::Revalidation);
        };
        core.stats_mut().special_link_flits[msg.kind.stat_class().index()] += 1;
        self.trace.sent(MsgRecord {
            time: core.time(),
            from,
            out,
            to,
            kind: msg.kind,
            sender: msg.sender,
            vnet: msg.vnet,
        });
        let arrive_at = core.time() + 2;
        debug_assert!((self.in_flight.last()).is_none_or(|m| m.arrive_at <= arrive_at));
        self.in_flight.push(InFlightMsg {
            in_port: out.opposite(),
            arrive_at,
            msg,
            to,
        });
    }

    /// Replace `router`'s restriction registers, keeping the `frozen` index
    /// in step. Any change to them changes what `allow_grant` permits
    /// there, so the router is woken (wakeup invariant, see
    /// `sb_sim::Plugin`).
    fn set_restriction(&mut self, core: &mut NetCore, router: NodeId, state: ProtState) {
        let prot = &mut self.prot[router.index()];
        match (prot.is_deadlock, state.is_deadlock) {
            (false, true) => self.frozen.push(router),
            (true, false) => {
                let at = self.frozen.iter().position(|&r| r == router);
                self.frozen
                    .swap_remove(at.expect("frozen router is indexed"));
            }
            _ => {}
        }
        *prot = state;
        core.touch(router);
    }

    /// Account one message discarded at `router`.
    fn drop_msg(&mut self, core: &mut NetCore, router: NodeId, at: Arrival<'_>, why: DropReason) {
        (self.trace.counters).note_drop(why, core.stats_mut());
        self.trace.record(ProtoEvent::Drop {
            time: core.time(),
            router,
            in_port: at.in_port,
            kind: at.msg.kind,
            sender: at.msg.sender,
            vnet: at.msg.vnet,
            turns: at.msg.turns.len(),
            reason: why,
        });
    }

    /// Deliver the first `arriving` messages of `in_flight` (step 3 of
    /// `before_cycle`).
    fn deliver(&mut self, core: &mut NetCore, arriving: usize) {
        let mut arrived: Vec<InFlightMsg> = self.in_flight.drain(..arriving).collect();
        arrived.sort_by_key(|m| {
            (
                m.to,
                std::cmp::Reverse(m.msg.kind.priority()),
                std::cmp::Reverse(m.msg.sender),
            )
        });
        let mut msgs = arrived.into_iter().peekable();
        while let Some(router) = msgs.peek().map(|m| m.to) {
            let alive = core.topology().router_alive(router);
            // Returned messages are consumed as they come (the FSM has
            // additional control over processing order at its own node); a
            // returned probe whose walk has not closed joins the transit
            // list in its place.
            while let Some(m) = msgs.next_if(|m| m.to == router) {
                let (in_port, msg) = (m.in_port, m.msg);
                let at = Arrival { in_port, msg: &msg };
                if !alive {
                    self.drop_msg(core, router, at, DropReason::Revalidation);
                } else if msg.sender == router {
                    self.dispatch(core, router, Event::Returned(at));
                } else {
                    self.transit.push((in_port, msg));
                }
            }
            self.arbitrate(core, router);
        }
    }

    /// Section IV-C at `router`: evaluate this cycle's transit messages
    /// against pre-state, pick one winner per output port (an index into
    /// `transit`), then grant the winners in output order.
    fn arbitrate(&mut self, core: &mut NetCore, router: NodeId) {
        let transit = std::mem::take(&mut self.transit);
        let arrival = |i: usize| Arrival {
            in_port: transit[i].0,
            msg: &transit[i].1,
        };
        let mut buf = std::mem::take(&mut self.actions);
        let mut winner: [Option<usize>; 4] = [None; 4];
        for i in 0..transit.len() {
            self.step(core, router, Event::Transit(arrival(i)), &mut buf);
            for action in buf.actions.drain(..) {
                let Action::Offer(out) = action else {
                    self.apply(core, router, action, Some(arrival(i)));
                    continue;
                };
                let prot = &self.prot[router.index()];
                let slot = &mut winner[out.index()];
                let loser = match *slot {
                    None => {
                        *slot = Some(i);
                        continue;
                    }
                    Some(cur) if protocol::beats(&transit[i].1, &transit[cur].1, prot) => {
                        *slot = Some(i);
                        cur
                    }
                    Some(_) => i,
                };
                self.drop_msg(core, router, arrival(loser), DropReason::OutputConflict);
            }
        }
        self.actions = buf;
        for (out, won) in winner.into_iter().enumerate() {
            if let Some(i) = won {
                let event = Event::Granted(arrival(i), Direction::from_index(out));
                self.dispatch(core, router, event);
            }
        }
        self.transit = transit;
        self.transit.clear();
    }

    /// Hand `event` to every FSM it can concern, in id order: the live set,
    /// re-tested as each is reached (no tick changes another router's FSM
    /// or buffers, so a word read once is still right at its last bit).
    fn run_fsms(&mut self, core: &mut NetCore, event: Event<'static>) {
        for w in 0..self.armed.words().len() {
            for router in NodeSet::members_of(w, self.live_word(core, w)) {
                if self.concerned(core, router).is_some() {
                    self.dispatch(core, router, event);
                }
            }
        }
    }

    /// The FSM of live router `router`, if the predicate the live set
    /// over-approximates holds: it is out of `SOff`, or a VC there holds a
    /// packet for it to start counting.
    fn concerned(&self, core: &NetCore, router: NodeId) -> Option<&SbFsm> {
        #[cfg(test)]
        self.visited.borrow_mut().push(router);
        let fsm = self.fsm(router).expect("live, so on the placement");
        (fsm.state != FsmState::SOff || core.any_occupied(router)).then_some(fsm)
    }
}

impl Plugin for StaticBubblePlugin {
    fn bubble_routers(&self) -> Vec<NodeId> {
        self.fsms.iter().map(|fsm| fsm.node).collect()
    }

    /// Footnote 6 of the paper: a packet sitting in the static bubble that
    /// is waiting for some *other* output port moves sideways into a regular
    /// VC of its vnet at the attached input port as soon as one frees (the
    /// chain packet departing through the protected output frees it). This
    /// is what lets the bubble be re-claimed even when its occupant is stuck
    /// behind unrelated congestion.
    ///
    /// A bubble is attached only while its FSM is in `SSbActive`, so the
    /// armed routers are the only ones to look at.
    fn after_cycle(&mut self, core: &mut NetCore) {
        let mut cur = 0;
        while let Some(router) = self.armed.first_set_from(cur) {
            cur = router.index() + 1;
            let Some((port, vnet)) = core.bubble_attach(router) else {
                continue;
            };
            if core.bubble_occupant(router).is_none() {
                continue;
            }
            let Some(vc) = core.first_free_regular_vc(router, port, vnet) else {
                continue;
            };
            // Move the packet bubble → regular VC (intra-router, no link),
            // keeping its hop-pipeline readiness.
            let (h, ready) = core.bubble_take_occupant(router).expect("checked occupied");
            core.vc_put(VcRef { router, port, vc }, h, ready);
            // The bubble is re-claimed: same transition as on_bubble_freed.
            self.on_bubble_freed(core, router);
        }
    }

    /// One cycle of protocol work, in a fixed order (DESIGN.md §3).
    fn before_cycle(&mut self, core: &mut NetCore) {
        let now = core.time();
        // 1. Cycles the engine skipped since the previous executed tick.
        // Before the deliveries, so a counter a delivery restarts counts
        // from this tick — as it does when every cycle executes — and not
        // from the start of the gap.
        let gap = (self.last_tick).map_or(0, |prev| (now - prev).saturating_sub(1));
        self.last_tick = Some(now);
        if gap > 0 {
            self.run_fsms(core, Event::Gap(gap));
        }
        // 2. TTL sweep: lost enables cannot poison a router forever.
        // Back to front, because lifting a restriction swap-removes the
        // router from the list being walked.
        for i in (0..self.frozen.len()).rev() {
            let router = self.frozen[i];
            if now >= self.prot[router.index()].expires_at {
                self.set_restriction(core, router, ProtState::default());
            }
        }
        // 3. Deliver the messages arriving this cycle, by router id; at a
        // router by priority, then sender (both descending). Arrivals are a
        // prefix of `in_flight`; the sort is stable. A message whose
        // destination router died on the way is dropped.
        let arriving = self.in_flight.partition_point(|m| m.arrive_at <= now);
        if arriving > 0 {
            self.deliver(core, arriving);
        }
        // 4. Tick the FSMs.
        self.run_fsms(core, Event::Tick);
    }

    fn next_timer(&self, core: &NetCore) -> Option<u64> {
        let now = core.time();
        let mut best: Option<u64> = None;
        let mut note = |at: u64| {
            let at = at.max(now);
            if best.is_none_or(|b| at < b) {
                best = Some(at);
            }
        };
        // Special messages deliver at their arrival cycle, oldest first.
        if let Some(m) = self.in_flight.first() {
            note(m.arrive_at);
        }
        // Restriction TTLs expire on their own clock.
        for r in &self.frozen {
            note(self.prot[r.index()].expires_at);
        }
        // Counter FSMs: each fires (probe / timeout / watchdog) at the tick
        // where its counter reaches the state's deadline. `fsm.count`
        // reflects the last executed tick at `now - 1`, so that tick is
        // `now + (deadline - count - 1)`. An FSM outside the live set is
        // `Idle`.
        let live = (0..self.armed.words().len())
            .flat_map(|w| NodeSet::members_of(w, self.live_word(core, w)));
        for fsm in live.filter_map(|router| self.concerned(core, router)) {
            let router = fsm.node;
            match protocol::deadline(fsm, &CoreView(core, router)) {
                Deadline::Idle => {}
                Deadline::Now => note(now),
                Deadline::FiresAt(at) => note(now + at.saturating_sub(fsm.count + 1)),
            }
            // Footnote-6 relocation (after_cycle) triggers as soon as a
            // regular VC at the attach port frees — which can happen purely
            // by time when a slot is draining.
            if fsm.state == FsmState::SSbActive && core.bubble_occupant(router).is_some() {
                if let Some((port, vnet)) = core.bubble_attach(router) {
                    for vc in core.config().vcs_of_vnet(vnet) {
                        if let Some(until) = core.vc_draining_until(VcRef { router, port, vc }) {
                            note(until);
                        }
                    }
                }
            }
        }
        best
    }

    fn allow_grant(
        &self,
        core: &NetCore,
        router: NodeId,
        input: InputRef,
        out: OutPort,
        _pkt: &sb_sim::Packet,
    ) -> bool {
        let prot = &self.prot[router.index()];
        if !prot.is_deadlock {
            return true;
        }
        let Some((chain_in, chain_out)) = prot.io else {
            return true;
        };
        if out != OutPort::Dir(chain_out) {
            return true;
        }
        // Only the frozen chain's input port (or the bubble attached to it)
        // may inject into the protected output.
        match input {
            InputRef::Vc(v) => v.port == chain_in,
            InputRef::Bubble(b) => core.bubble_attach(b).is_some_and(|(p, _)| p == chain_in),
            InputRef::Inject { .. } => false,
        }
    }

    fn pick_slot(
        &self,
        core: &NetCore,
        router: NodeId,
        port: Direction,
        pkt: &sb_sim::Packet,
    ) -> Option<SlotRef> {
        if let Some(vc) = core.first_free_regular_vc(router, port, pkt.vnet) {
            return Some(SlotRef::Regular(vc));
        }
        core.bubble_available(router, port, pkt.vnet)
            .then_some(SlotRef::Bubble)
    }

    fn on_bubble_freed(&mut self, core: &mut NetCore, router: NodeId) {
        self.dispatch(core, router, Event::BubbleFreed);
    }

    fn audit_check(&mut self, core: &NetCore, out: &mut Vec<Violation>) {
        // Derived == recomputed: each index against the function that
        // builds it. `armed` may hold more than it must.
        let n = self.prot.len();
        let (placement, armed) = live_sets(n, &self.fsms);
        let mut frozen = self.frozen.clone();
        frozen.sort_unstable();
        let table = fsm_table(n, self.fsms.clone());
        let table_stale = |(fsms, slot_of)| fsms != self.fsms || slot_of != self.slot_of;
        let unarmed = armed.iter().any(|node| !self.armed.contains(node));
        let stale = [
            ("FSM table and slot index", table.map_or(true, table_stale)),
            ("placement set", placement != self.placement),
            ("armed set", unarmed),
            ("frozen-router index", frozen != frozen_index(&self.prot)),
        ];
        for (index, _) in stale.iter().filter(|(_, stale)| *stale) {
            out.push(Violation {
                class: AuditClass::Derived,
                router: None,
                detail: format!("the {index} disagrees with the state it is derived from"),
            });
        }
        let mut flag = |router: Option<NodeId>, detail: String| {
            out.push(Violation {
                class: AuditClass::FsmLegality,
                router,
                detail,
            });
        };
        // (a) FSM edges outside the Fig. 5 diagram, recorded by goto() at
        // transition time so nothing slips between two audits.
        for fsm in self.fsms.iter_mut() {
            for it in fsm.take_illegal() {
                let detail = format!("illegal FSM transition {:?} -> {:?}", it.from, it.to);
                flag(Some(fsm.node), detail);
            }
        }
        for fsm in self.fsms.iter() {
            let node = fsm.node;
            let mut flag = |detail: String| flag(Some(node), detail);
            // (b) Bubble attachment <=> FSM in SSbActive, with the attach
            // port/vnet agreeing with the latched chain.
            let attach = core.bubble_attach(node);
            match (fsm.state == FsmState::SSbActive, attach) {
                (true, None) => flag("FSM is SSbActive but the bubble is deactivated".to_string()),
                (false, Some(_)) => flag(format!("bubble attached while FSM is {:?}", fsm.state)),
                (true, Some((port, vnet))) => {
                    if port != fsm.chain_in || vnet != fsm.probe_vnet {
                        flag(format!(
                            "bubble attach ({:?}, vnet {}) disagrees with the latched \
                             chain ({:?}, vnet {})",
                            port, vnet, fsm.chain_in, fsm.probe_vnet
                        ));
                    }
                }
                (false, None) => {}
            }
            // (c) Detection always has a pointer.
            if fsm.state == FsmState::SDd && fsm.watching.is_none() {
                flag("FSM in SDd without a watched VC".to_string());
            }
        }
        // (d) Attached bubbles exist only at static-bubble routers.
        for node in core.topology().mesh().nodes() {
            if core.bubble_attach(node).is_some() && self.fsm(node).is_none() {
                flag(
                    Some(node),
                    "bubble attached at a router with no FSM".to_string(),
                );
            }
        }
        // (e) Restriction registers are consistent: frozen => io + source
        // present with an SB source; a self-frozen SB node must be in
        // recovery; unfrozen => registers clear.
        for (i, p) in self.prot.iter().enumerate() {
            let node = NodeId::from(i);
            let mut flag = |detail: String| flag(Some(node), detail);
            if p.is_deadlock {
                let (Some(_), Some(src)) = (p.io, p.source) else {
                    flag("frozen router with missing io/source registers".to_string());
                    continue;
                };
                match self.fsm(src) {
                    None => flag(format!(
                        "restriction source n{} is not a static-bubble node",
                        src.0
                    )),
                    Some(fsm) if src == node && !fsm.in_recovery() => {
                        flag("self-frozen SB router whose FSM is not in recovery".to_string());
                    }
                    Some(_) => {}
                }
            } else if p.io.is_some() || p.source.is_some() {
                flag("unfrozen router with stale io/source registers".to_string());
            }
        }
    }

    fn trace_lines(&mut self) -> Vec<String> {
        self.trace.trace_lines()
    }

    fn set_tracing(&mut self, enable: bool) {
        self.trace.set_tracing(enable);
        self.actions.tracing = enable;
    }

    fn snapshot_state(&self) -> Result<String, String> {
        sb_sim::json::to_json_string(&SbState {
            fsms: self.fsms.clone(),
            prot: self.prot.clone(),
            in_flight: self.in_flight.clone(),
            tdd: self.tdd,
            restriction_ttl: self.restriction_ttl,
            opts: self.opts,
            recent: self.trace.recent.iter().cloned().collect(),
            last_tick: self.last_tick,
            counters: self.trace.counters,
            trace_on: self.trace.trace_on,
            events: self.trace.events.iter().cloned().collect(),
            events_lost: self.trace.events_lost,
        })
        .map_err(|e| e.0)
    }

    fn forensic_lines(&self, _core: &NetCore) -> Vec<String> {
        (self.trace).forensic_lines(self.fsms.iter(), &self.prot, &self.in_flight)
    }
}

/// Snapshot blob of the plugin's complete mutable state
/// ([`sb_sim::Plugin::snapshot_state`]). The FSMs travel as the plain
/// vector they are kept in (each [`SbFsm`] carries its node id).
#[derive(Serialize)]
struct SbState {
    fsms: Vec<SbFsm>,
    prot: Vec<ProtState>,
    in_flight: Vec<InFlightMsg>,
    tdd: u64,
    restriction_ttl: u64,
    opts: SbOptions,
    recent: Vec<MsgRecord>,
    last_tick: Option<u64>,
    counters: ProtoCounters,
    trace_on: bool,
    events: Vec<ProtoEvent>,
    events_lost: u64,
}

/// The FSM table of an `n`-router mesh: `fsms` in ascending node order,
/// one per node (of several for one node the last given stays), and the
/// node → slot index over it. An FSM for a router that is not on the mesh
/// is refused.
fn fsm_table(n: usize, mut fsms: Vec<SbFsm>) -> Result<(Vec<SbFsm>, Vec<Option<u16>>), String> {
    fsms.sort_by_key(|fsm| fsm.node);
    let mut table: Vec<SbFsm> = Vec::with_capacity(fsms.len());
    let mut slot_of = vec![None; n];
    for fsm in fsms {
        let node = fsm.node;
        let slot = slot_of.get_mut(node.index()).ok_or_else(|| {
            format!(
                "static-bubble router n{} is not on the {n}-router mesh",
                node.0
            )
        })?;
        match *slot {
            Some(at) => table[usize::from(at)] = fsm,
            None => {
                // At most one FSM a node and at most 2^16 nodes.
                *slot = Some(table.len() as u16);
                table.push(fsm);
            }
        }
    }
    Ok((table, slot_of))
}

/// The placement and the armed set of an `n`-router mesh holding `fsms`: the
/// routers with an FSM, and those whose FSM is not in `SOff`.
fn live_sets(n: usize, fsms: &[SbFsm]) -> (NodeSet, NodeSet) {
    let (mut placement, mut armed) = (NodeSet::new(n), NodeSet::new(n));
    for fsm in fsms {
        placement.insert(fsm.node);
        if fsm.state != FsmState::SOff {
            armed.insert(fsm.node);
        }
    }
    (placement, armed)
}

/// The routers whose `is_deadlock` bit is set, ascending.
fn frozen_index(prot: &[ProtState]) -> Vec<NodeId> {
    (prot.iter().enumerate())
        .filter(|(_, p)| p.is_deadlock)
        .map(|(i, _)| NodeId::from(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_sim::{NoTraffic, SimConfig, Simulator};

    #[test]
    fn plugin_installs_an_fsm_per_placement_node() {
        let mesh = Mesh::new(8, 8);
        let plugin = StaticBubblePlugin::new(&Topology::full(mesh), 34);
        assert_eq!(plugin.bubble_routers(), placement::placement(mesh));
        for n in placement::placement(mesh) {
            assert!(plugin.fsm(n).is_some());
        }
        assert!(plugin.fsm(NodeId(0)).is_none());
        assert_eq!(plugin.frozen_routers(), 0);
        assert_eq!(plugin.in_flight_messages(), 0);
    }

    #[test]
    fn custom_bubble_sets_are_honoured() {
        let mesh = Mesh::new(4, 4);
        let nodes = [NodeId(5), NodeId(10)];
        let plugin = StaticBubblePlugin::with_bubble_nodes(mesh, 8, SbOptions::default(), &nodes);
        assert!(plugin.fsm(NodeId(5)).is_some());
        assert!(plugin.fsm(NodeId(10)).is_some());
        assert!(plugin.fsm(NodeId(6)).is_none());
    }

    #[test]
    fn the_fsm_table_is_ascending_whatever_order_it_was_given() {
        let mesh = Mesh::new(4, 4);
        let nodes = [NodeId(10), NodeId(3), NodeId(10), NodeId(5)];
        let plugin = StaticBubblePlugin::with_bubble_nodes(mesh, 8, SbOptions::default(), &nodes);
        let order: Vec<NodeId> = plugin.fsms.iter().map(|fsm| fsm.node).collect();
        assert_eq!(order, [NodeId(3), NodeId(5), NodeId(10)], "a repeat is one");
        for n in mesh.nodes() {
            assert_eq!(
                plugin.fsm(n).map(|fsm| fsm.node),
                nodes.contains(&n).then_some(n)
            );
        }
        assert!(plugin.fsm(NodeId(16)).is_none(), "off the mesh");
    }

    #[test]
    #[should_panic(expected = "static-bubble router n16 is not on the 16-router mesh")]
    fn a_bubble_node_off_the_mesh_is_refused_at_construction() {
        StaticBubblePlugin::with_bubble_nodes(
            Mesh::new(4, 4),
            8,
            SbOptions::default(),
            &[NodeId(5), NodeId(16)],
        );
    }

    /// `run_fsms` dispatches in id order: a placement handed over backwards
    /// and with repeats recovers the same deadlocks at the same cycles.
    #[test]
    fn placement_order_does_not_reach_the_protocol() {
        use rand::SeedableRng;
        let mesh = Mesh::new(8, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let topo =
            sb_topology::FaultModel::new(sb_topology::FaultKind::Links, 12).inject(mesh, &mut rng);
        let ascending = placement::placement(mesh);
        let mut shuffled: Vec<NodeId> = ascending.iter().rev().copied().collect();
        shuffled.extend_from_slice(&ascending[..3]);
        let run = |nodes: &[NodeId]| {
            let mut sim = Simulator::new(
                &topo,
                SimConfig::single_vnet(),
                Box::new(sb_routing::MinimalRouting::new(&topo)),
                StaticBubblePlugin::with_bubble_nodes(mesh, 10, SbOptions::default(), nodes),
                sb_sim::UniformTraffic::new(0.3).single_vnet(),
                1,
            );
            sim.run(600);
            assert!(sim.core().stats().deadlocks_recovered > 0, "must recover");
            (sim.core().stats().clone(), sim.plugin().snapshot_state())
        };
        assert_eq!(run(&shuffled), run(&ascending));
    }

    /// The walk over the whole FSM table the live walks replaced, kept as
    /// their oracle: the routers it would hand a tick, in its order.
    fn table_walk(plugin: &StaticBubblePlugin, core: &NetCore) -> Vec<NodeId> {
        let due = |fsm: &&SbFsm| fsm.state != FsmState::SOff || core.any_occupied(fsm.node);
        plugin.fsms.iter().filter(due).map(|fsm| fsm.node).collect()
    }

    /// The routers the last live walks acted on, in order (and forget them).
    fn live_walk(plugin: &StaticBubblePlugin, core: &NetCore) -> Vec<NodeId> {
        let mut loaded = plugin.visited.take();
        let placement = |&node: &NodeId| plugin.fsm(node).is_some();
        assert!(loaded.iter().all(placement), "a live walk left the table");
        loaded.retain(|&node| plugin.concerned(core, node).is_some());
        plugin.visited.take();
        loaded
    }

    fn packet(id: u64, dst: NodeId) -> sb_sim::Packet {
        let ends = sb_sim::NewPacket {
            src: NodeId(0),
            dst,
            vnet: 0,
            len_flits: 5,
        };
        let east = sb_routing::Route::new(vec![Direction::East]);
        sb_sim::Packet::new(sb_sim::PacketId(id), ends, east, 0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        /// Through recoveries and hand-placed and hand-removed packets, the
        /// timer query and the tick dispatch visit exactly what a walk over
        /// the whole table would, in its order.
        fn the_live_walks_are_the_table_walk(seed in 0u64..1_000) {
            use rand::{Rng, SeedableRng};
            let mesh = Mesh::new(8, 8);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let faults = sb_topology::FaultModel::new(sb_topology::FaultKind::Links, 12);
            let topo = faults.inject(mesh, &mut rng);
            let mut sim = Simulator::new(
                &topo,
                SimConfig::single_vnet(),
                Box::new(sb_routing::MinimalRouting::new(&topo)),
                StaticBubblePlugin::new(&topo, 10),
                sb_sim::UniformTraffic::new(0.3).single_vnet(),
                seed,
            );
            for round in 0..60u64 {
                sim.run(rng.gen_range(1..20u64));
                let router = NodeId(rng.gen_range(0..64u16));
                let port = Direction::from_index(rng.gen_range(0..4usize));
                let slot = VcRef { router, port, vc: rng.gen_range(0..4u8) };
                if sim.core().vc_is_free(slot) {
                    let (now, pkt) = (sim.time(), packet(1 << 40 | round, router));
                    sim.core_mut().place_packet(slot, pkt, now);
                } else if rng.gen_bool(0.5) {
                    sim.core_mut().remove_packet(slot);
                }
                sim.plugin().visited.take();
                sim.plugin().next_timer(sim.core());
                let (plugin, core) = (sim.plugin(), sim.core());
                proptest::prop_assert_eq!(live_walk(plugin, core), table_walk(plugin, core));
            }
            // (Four of the six cases also recover a deadlock on the way.)
            proptest::prop_assert!(sim.core().stats().probes_sent > 0, "FSMs must leave SOff");
        }
    }

    /// Machine-independent pin of the live set: on a 16x16, where the table
    /// holds 89 FSMs, a packet parked at a router without one costs a tick
    /// and a timer query not a single FSM load.
    #[test]
    fn an_executed_tick_loads_no_idle_fsm() {
        let mesh = Mesh::new(16, 16);
        let topo = Topology::full(mesh);
        let bubbles = placement::placement(mesh);
        assert_eq!(bubbles.len(), 89);
        let mut sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(sb_routing::MinimalRouting::new(&topo)),
            StaticBubblePlugin::new(&topo, 34),
            NoTraffic,
            0,
        );
        let parked = mesh
            .nodes()
            .find(|n| !bubbles.contains(n))
            .expect("89 of 256");
        let slot = VcRef {
            router: parked,
            port: Direction::North,
            vc: 0,
        };
        // Bound for the far corner: it stays parked while the tick runs.
        sim.core_mut().place_packet(slot, packet(1, NodeId(255)), 5);
        sim.run(1);
        assert_eq!(sim.plugin().next_timer(sim.core()), None);
        assert_eq!(sim.core().in_flight(), 1);
        assert_eq!(sim.plugin().visited.take(), []);
        // One at a router with an FSM is that FSM's business alone.
        let slot = VcRef {
            router: bubbles[40],
            ..slot
        };
        sim.core_mut().place_packet(slot, packet(2, NodeId(255)), 9);
        sim.run(1);
        assert_eq!(sim.plugin().visited.take(), [bubbles[40]]);
    }

    /// One seeded violation per derived index the plugin keeps.
    #[test]
    fn each_stale_plugin_index_is_caught() {
        let mesh = Mesh::new(4, 4);
        let topo = Topology::full(mesh);
        let core = NetCore::new(&topo, SimConfig::tiny(), &[]);
        let nodes = [NodeId(5), NodeId(10)];
        type Seed = fn(&mut StaticBubblePlugin);
        let rows: [(&str, Seed); 4] = [
            ("FSM table and slot index", |p| p.slot_of.swap(5, 6)),
            ("placement set", |p| {
                p.placement.insert(NodeId(6));
            }),
            ("armed set", |p| {
                p.fsm_mut(NodeId(10)).unwrap().state = FsmState::SDd;
                p.armed.clear();
            }),
            ("frozen-router index", |p| p.frozen.push(NodeId(3))),
        ];
        for (row, seed) in rows {
            let mut plugin =
                StaticBubblePlugin::with_bubble_nodes(mesh, 8, SbOptions::default(), &nodes);
            let mut v = Vec::new();
            plugin.audit_check(&core, &mut v);
            assert_eq!(v, [], "{row}");
            seed(&mut plugin);
            plugin.audit_check(&core, &mut v);
            v.retain(|v| v.class == AuditClass::Derived);
            assert_eq!(v.len(), 1, "{row}: {v:?}");
            assert!(v[0].detail.contains(row), "{row}: {}", v[0].detail);
        }
        // More than it must hold is what `armed` is allowed.
        let mut plugin = StaticBubblePlugin::new(&topo, 8);
        plugin.armed.fill();
        let mut v = Vec::new();
        plugin.audit_check(&core, &mut v);
        assert_eq!(v, []);
    }

    /// A pristine 8×8 with the paper's placement and no traffic.
    fn idle_sim() -> (Simulator<StaticBubblePlugin, NoTraffic>, Vec<NodeId>) {
        let mesh = Mesh::new(8, 8);
        let topo = Topology::full(mesh);
        let bubbles = placement::placement(mesh);
        let sim = Simulator::new(
            &topo,
            SimConfig::single_vnet(),
            Box::new(sb_routing::MinimalRouting::new(&topo)),
            StaticBubblePlugin::new(&topo, 5),
            NoTraffic,
            0,
        );
        (sim, bubbles)
    }

    #[test]
    fn auditor_catches_seeded_illegal_fsm_transition() {
        let (mut sim, bubbles) = idle_sim();
        sim.run(50);
        assert!(sim.audit_now().is_none(), "idle network audits clean");
        // SOff -> SEnable skips detection and the whole disable handshake:
        // not an edge of the Fig. 5 diagram.
        let b = bubbles[0];
        sim.plugin_mut().fsm_mut(b).unwrap().goto(FsmState::SEnable);
        let report = sim.audit_now().expect("illegal edge must be caught");
        let v = (report.violations.iter())
            .find(|v| v.class == AuditClass::FsmLegality)
            .expect("an fsm-legality violation");
        assert_eq!(v.router, Some(b));
        assert!(v.detail.contains("SOff -> SEnable"), "{}", v.detail);
        // The recorded edge is drained by the audit; repairing the state by
        // hand leaves nothing for a second audit to find.
        sim.plugin_mut().fsm_mut(b).unwrap().state = FsmState::SOff;
        assert!(sim.audit_now().is_none());
    }

    #[test]
    fn auditor_catches_bubble_fsm_disagreement() {
        let (mut sim, bubbles) = idle_sim();
        sim.run(10);
        // Claim the bubble is active without attaching it: protocol state
        // and network state now disagree. Direct field write, so no illegal
        // *edge* is recorded — the state cross-check must catch it alone.
        let b = bubbles[1];
        sim.plugin_mut().fsm_mut(b).unwrap().state = FsmState::SSbActive;
        let report = sim.audit_now().expect("disagreement must be caught");
        assert!(report.violations.iter().any(|v| {
            v.class == AuditClass::FsmLegality
                && v.router == Some(b)
                && v.detail.contains("deactivated")
        }));
    }

    #[test]
    #[should_panic(expected = "invariant audit failed")]
    fn periodic_audit_panics_on_illegal_fsm_edge() {
        let (mut sim, bubbles) = idle_sim();
        sim.run(10);
        sim.set_audit(1);
        let fsm = sim.plugin_mut().fsm_mut(bubbles[2]).unwrap();
        fsm.goto(FsmState::SDisable);
        sim.run(2);
    }

    #[test]
    fn idle_network_sends_no_messages() {
        let (mut sim, bubbles) = idle_sim();
        sim.run(500);
        let s = sim.core().stats();
        assert_eq!(s.probes_sent, 0, "FSMs stay in SOff with empty VCs");
        assert_eq!(sim.plugin().in_flight_messages(), 0);
        for b in &bubbles {
            assert_eq!(sim.plugin().fsm(*b).unwrap().state, FsmState::SOff);
        }
    }
}
