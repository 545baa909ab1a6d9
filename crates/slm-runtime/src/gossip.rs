//! Deterministic failure detection: SWIM-style gossip and the central
//! prober, behind one [`FailureDetector`] trait.
//!
//! The cluster router needs one answer per member — "do I route to it?" —
//! and two very different protocols can produce it:
//!
//! * [`CentralDetector`] — the router probes every member on a fixed
//!   interval and marks a member down when a probe goes unanswered past a
//!   timeout. Simple, O(N) probes per round from one vantage point, and
//!   blind to the difference between a dead member and a dead router link.
//!   This is the original cluster prober, kept as the parity baseline.
//! * [`SwimDetector`] — SWIM-style gossip ([SWIM], Das et al. 2002): every
//!   member probes one *seeded-random* peer per round; a failed direct
//!   probe retries indirectly through `K` proxies (ping-req) before the
//!   target is *suspected*; suspicion carries an incarnation number the
//!   target can refute by announcing a higher one; and every probe/ack
//!   exchange piggybacks a bounded number of recent membership deltas, so
//!   facts spread epidemically in O(log N) rounds. A suspect that never
//!   refutes is declared down after a fixed number of rounds.
//!
//! Both run entirely on virtual time and seeded arithmetic: peers and
//! proxies are chosen by `splitmix64(seed, round, member)`, messages
//! "travel" instantaneously within a round, and every map is a `BTreeMap`,
//! so a run's complete membership timeline is a pure function of
//! `(seed, config, ground-truth schedule)` — two runs of the same chaos
//! plan produce bitwise-identical [`ViewEvent`] sequences.
//!
//! Ground truth enters only through the [`LinkOracle`] the host passes to
//! [`FailureDetector::poll`]: whether a process is running and whether a
//! message between two actors is delivered. The detector never reads chaos
//! state directly — it learns the way a real cluster does, by probing.
//!
//! Routing verdicts pass through a [`HysteresisConfig`]-driven damper
//! before they reach [`FailureDetector::is_up`]: distinct up/down
//! thresholds (`down_after` consecutive failure signals to leave, `up_after`
//! consecutive recovery signals to return), a minimum dwell time before a
//! downed member is readmitted, and an exponential penalty for members that
//! flap — each down-transition shortly after a recovery doubles the dwell,
//! up to a cap, so an intermittently failing member is quarantined for
//! progressively longer instead of whipsawing the router. The default
//! [`HysteresisConfig::passthrough`] disables all of it, reproducing the
//! raw detector verdict bit-for-bit.
//!
//! [SWIM]: https://www.cs.cornell.edu/projects/Quicksilver/public_pdfs/SWIM.pdf

use std::collections::BTreeMap;

use hallu_obs::{splitmix64, Counter, Obs};

/// Identity of one cluster member in detector scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId {
    /// The member's shard.
    pub shard: u32,
    /// The member's replica index within the shard (0 = primary).
    pub replica: u32,
}

impl std::fmt::Display for MemberId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}r{}", self.shard, self.replica)
    }
}

/// A member's state in one node's local membership view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewState {
    /// Believed up.
    Alive,
    /// A probe and its indirect retries failed; awaiting refutation.
    Suspect,
    /// Declared failed (suspicion expired unrefuted, or probe timeout).
    Down,
}

/// One transition of the router's *routing* view — the post-damper belief
/// [`FailureDetector::is_up`] reports. The sequence of these events is the
/// membership timeline the reproducibility suite compares bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewEvent {
    /// Virtual time of the transition.
    pub at_ms: f64,
    /// Which member changed.
    pub member: MemberId,
    /// `true` = readmitted to routing, `false` = removed from routing.
    pub up: bool,
    /// What drove the transition (`probe_timeout`, `delivery_failed`,
    /// `probe_ack`, `gossip_suspect`, `gossip_down`, `gossip_alive`).
    pub why: &'static str,
    /// The member's incarnation number at the transition (0 under the
    /// central prober, which has no incarnation protocol).
    pub incarnation: u64,
}

/// Ground-truth connectivity, supplied by the host at poll time. `from =
/// None` is the router; members never probe the router.
pub trait LinkOracle {
    /// Whether `m`'s process is currently running.
    fn member_alive(&self, m: MemberId) -> bool;
    /// Whether a message from `from` (router when `None`) is delivered to
    /// `to` right now.
    fn link_up(&self, from: Option<MemberId>, to: MemberId) -> bool;
}

/// A pluggable failure detector: the router consults [`is_up`](Self::is_up)
/// when placing requests and drives the protocol through
/// [`poll`](Self::poll) on the shared virtual clock.
pub trait FailureDetector {
    /// Add a member (admitted to routing immediately).
    fn register(&mut self, m: MemberId, now_ms: f64);
    /// Remove a member and all protocol state about it.
    fn deregister(&mut self, m: MemberId);
    /// The member warm-restarted. Gossip bumps its incarnation so its
    /// recovery announcement overrides any standing suspicion or death
    /// certificate; the central prober re-learns it by probing and needs
    /// nothing here.
    fn notify_restart(&mut self, m: MemberId, now_ms: f64);
    /// A delivery to `m` failed on the data path — as good as a probe
    /// timeout. Returns any routing-view transitions.
    fn observe_delivery_failure(&mut self, m: MemberId, now_ms: f64) -> Vec<ViewEvent>;
    /// The next virtual time the protocol has work scheduled.
    fn next_wake_ms(&self) -> Option<f64>;
    /// Run every protocol step due at or before `now_ms` against ground
    /// truth. Returns routing-view transitions in a deterministic order.
    fn poll(&mut self, now_ms: f64, oracle: &dyn LinkOracle) -> Vec<ViewEvent>;
    /// The damped routing verdict: should the router place requests on `m`?
    fn is_up(&self, m: MemberId) -> bool;
    /// Mirror protocol activity into `obs` (e.g.
    /// `hallu_detector_probes_total{protocol}`). Observation only — never
    /// influences detection or routing. Default: record nothing.
    fn bind_obs(&mut self, _obs: &Obs) {}
}

// ---------------------------------------------------------------------------
// Hysteresis / flap damping
// ---------------------------------------------------------------------------

/// Flap damping for routing verdicts. See the module docs for the state
/// machine; [`passthrough`](Self::passthrough) (the default) disables it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisConfig {
    /// Consecutive recovery signals required before a downed member is
    /// readmitted.
    pub up_after: u32,
    /// Consecutive failure signals required before a routed member is
    /// removed.
    pub down_after: u32,
    /// Minimum time a member stays out of routing once removed.
    pub min_dwell_ms: f64,
    /// Dwell multiplier applied per flap (a removal within
    /// [`flap_window_ms`](Self::flap_window_ms) of the last readmission).
    pub flap_penalty: f64,
    /// Upper bound on the penalized dwell.
    pub max_dwell_ms: f64,
    /// A removal this soon after a readmission counts as a flap; a removal
    /// later than this clears the accumulated penalty.
    pub flap_window_ms: f64,
}

impl HysteresisConfig {
    /// No damping: every raw signal flips the routing view immediately,
    /// reproducing the undamped detector bit-for-bit.
    pub fn passthrough() -> Self {
        Self {
            up_after: 1,
            down_after: 1,
            min_dwell_ms: 0.0,
            flap_penalty: 1.0,
            max_dwell_ms: 0.0,
            flap_window_ms: 0.0,
        }
    }
}

impl Default for HysteresisConfig {
    /// Damping suitable for the cluster's default probe cadence: two
    /// confirmations to readmit, immediate removal, 200 ms dwell doubling
    /// per flap up to 5 s.
    fn default() -> Self {
        Self {
            up_after: 2,
            down_after: 1,
            min_dwell_ms: 200.0,
            flap_penalty: 2.0,
            max_dwell_ms: 5_000.0,
            flap_window_ms: 1_000.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct DampState {
    routing_up: bool,
    consec_up: u32,
    consec_down: u32,
    went_down_at_ms: f64,
    readmitted_at_ms: f64,
    /// Flap count; the dwell is `min_dwell * penalty^flaps`.
    flaps: u32,
}

impl DampState {
    fn fresh() -> Self {
        Self {
            routing_up: true,
            consec_up: 0,
            consec_down: 0,
            went_down_at_ms: f64::NEG_INFINITY,
            readmitted_at_ms: f64::NEG_INFINITY,
            flaps: 0,
        }
    }
}

/// The damper: raw up/down signals in, routing-view transitions out.
#[derive(Debug, Clone)]
struct Damper {
    cfg: HysteresisConfig,
    members: BTreeMap<MemberId, DampState>,
}

impl Damper {
    fn new(cfg: HysteresisConfig) -> Self {
        Self {
            cfg,
            members: BTreeMap::new(),
        }
    }

    fn register(&mut self, m: MemberId) {
        self.members.entry(m).or_insert_with(DampState::fresh);
    }

    fn deregister(&mut self, m: MemberId) {
        self.members.remove(&m);
    }

    fn routing_up(&self, m: MemberId) -> bool {
        self.members.get(&m).is_none_or(|s| s.routing_up)
    }

    fn dwell_ms(&self, flaps: u32) -> f64 {
        let penalty = self.cfg.flap_penalty.max(1.0).powi(flaps.min(30) as i32);
        (self.cfg.min_dwell_ms * penalty).min(self.cfg.max_dwell_ms.max(self.cfg.min_dwell_ms))
    }

    /// One failure signal about `m`; emits a Down transition when the
    /// down-threshold is crossed.
    fn signal_down(
        &mut self,
        m: MemberId,
        now_ms: f64,
        why: &'static str,
        incarnation: u64,
    ) -> Option<ViewEvent> {
        let cfg = self.cfg;
        let s = self.members.get_mut(&m)?;
        s.consec_up = 0;
        s.consec_down = s.consec_down.saturating_add(1);
        if !s.routing_up || s.consec_down < cfg.down_after.max(1) {
            return None;
        }
        s.routing_up = false;
        s.went_down_at_ms = now_ms;
        if now_ms - s.readmitted_at_ms <= cfg.flap_window_ms {
            // Down again right after coming back: a flap. Escalate.
            s.flaps = s.flaps.saturating_add(1);
        } else {
            // A long clean stretch before this failure: forgive history.
            s.flaps = 0;
        }
        Some(ViewEvent {
            at_ms: now_ms,
            member: m,
            up: false,
            why,
            incarnation,
        })
    }

    /// One recovery signal about `m`; emits an Up transition once the
    /// up-threshold and the (penalized) dwell are both satisfied.
    fn signal_up(
        &mut self,
        m: MemberId,
        now_ms: f64,
        why: &'static str,
        incarnation: u64,
    ) -> Option<ViewEvent> {
        let dwell = {
            let s = self.members.get(&m)?;
            self.dwell_ms(s.flaps)
        };
        let cfg = self.cfg;
        let s = self.members.get_mut(&m)?;
        s.consec_down = 0;
        s.consec_up = s.consec_up.saturating_add(1);
        if s.routing_up || s.consec_up < cfg.up_after.max(1) || now_ms < s.went_down_at_ms + dwell {
            return None;
        }
        s.routing_up = true;
        s.readmitted_at_ms = now_ms;
        Some(ViewEvent {
            at_ms: now_ms,
            member: m,
            up: true,
            why,
            incarnation,
        })
    }
}

// ---------------------------------------------------------------------------
// Central prober
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct CentralState {
    raw_up: bool,
    suspect_deadline_ms: Option<f64>,
}

/// The router-driven prober: every member is probed each
/// `probe_interval_ms`; an unreachable member gets a suspect deadline
/// `probe_timeout_ms` later that removes it from routing; a reachable probe
/// clears the deadline and readmits it (through the damper).
#[derive(Debug, Clone)]
pub struct CentralDetector {
    probe_interval_ms: f64,
    probe_timeout_ms: f64,
    next_probe_ms: f64,
    members: BTreeMap<MemberId, CentralState>,
    damper: Damper,
    /// Probes sent, mirrored via [`FailureDetector::bind_obs`]
    /// (disconnected by default).
    probes: Counter,
}

impl CentralDetector {
    /// Build with the probe cadence and the damping policy
    /// ([`HysteresisConfig::passthrough`] reproduces the raw prober).
    pub fn new(
        probe_interval_ms: f64,
        probe_timeout_ms: f64,
        hysteresis: HysteresisConfig,
    ) -> Self {
        Self {
            probe_interval_ms: probe_interval_ms.max(1e-3),
            probe_timeout_ms: probe_timeout_ms.max(0.0),
            next_probe_ms: 0.0,
            members: BTreeMap::new(),
            damper: Damper::new(hysteresis),
            probes: Counter::default(),
        }
    }
}

impl FailureDetector for CentralDetector {
    fn register(&mut self, m: MemberId, _now_ms: f64) {
        self.members.entry(m).or_insert(CentralState {
            raw_up: true,
            suspect_deadline_ms: None,
        });
        self.damper.register(m);
    }

    fn deregister(&mut self, m: MemberId) {
        self.members.remove(&m);
        self.damper.deregister(m);
    }

    fn notify_restart(&mut self, _m: MemberId, _now_ms: f64) {
        // The next reachable probe re-learns the member; nothing to do.
    }

    fn observe_delivery_failure(&mut self, m: MemberId, now_ms: f64) -> Vec<ViewEvent> {
        let Some(s) = self.members.get_mut(&m) else {
            return Vec::new();
        };
        s.raw_up = false;
        s.suspect_deadline_ms = None;
        self.damper
            .signal_down(m, now_ms, "delivery_failed", 0)
            .into_iter()
            .collect()
    }

    fn next_wake_ms(&self) -> Option<f64> {
        let mut wake = self.next_probe_ms;
        for s in self.members.values() {
            if let Some(d) = s.suspect_deadline_ms {
                wake = wake.min(d);
            }
        }
        Some(wake)
    }

    fn poll(&mut self, now_ms: f64, oracle: &dyn LinkOracle) -> Vec<ViewEvent> {
        let mut events = Vec::new();
        // Suspect deadlines first (matching the original cluster loop's
        // apply-deadlines-then-probe order at equal timestamps).
        let ids: Vec<MemberId> = self.members.keys().copied().collect();
        for m in &ids {
            let Some(s) = self.members.get_mut(m) else {
                continue;
            };
            if s.suspect_deadline_ms.is_some_and(|d| d <= now_ms) {
                let at = s.suspect_deadline_ms.take().unwrap_or(now_ms);
                if s.raw_up {
                    s.raw_up = false;
                    events.extend(self.damper.signal_down(*m, at, "probe_timeout", 0));
                }
            }
        }
        // Then every probe round due at or before `now_ms`.
        while self.next_probe_ms <= now_ms {
            let probe_t = self.next_probe_ms;
            self.next_probe_ms += self.probe_interval_ms;
            for m in &ids {
                let Some(s) = self.members.get_mut(m) else {
                    continue;
                };
                self.probes.inc();
                if oracle.link_up(None, *m) {
                    s.suspect_deadline_ms = None;
                    s.raw_up = true;
                    events.extend(self.damper.signal_up(*m, probe_t, "probe_ack", 0));
                } else if s.raw_up && s.suspect_deadline_ms.is_none() {
                    s.suspect_deadline_ms = Some(probe_t + self.probe_timeout_ms);
                }
            }
        }
        events
    }

    fn is_up(&self, m: MemberId) -> bool {
        self.damper.routing_up(m)
    }

    fn bind_obs(&mut self, obs: &Obs) {
        self.probes = obs.counter(
            "hallu_detector_probes_total",
            "Health probes sent by the failure detector, by protocol",
            &[("protocol", "central")],
        );
    }
}

// ---------------------------------------------------------------------------
// SWIM gossip
// ---------------------------------------------------------------------------

/// Tuning for [`SwimDetector`]. All draws derive from `seed` by pure
/// arithmetic, so the whole protocol run is reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Seed for peer and proxy selection.
    pub seed: u64,
    /// One protocol round (every node probes one peer) per this interval.
    pub round_interval_ms: f64,
    /// Indirect ping-req proxies tried after a failed direct probe.
    pub proxies: u32,
    /// Rounds a suspect stays unrefuted before it is declared down.
    pub suspicion_rounds: u32,
    /// Maximum membership deltas piggybacked per message.
    pub piggyback: usize,
    /// Each fresh delta is retransmitted `ceil(factor * log2(N + 1))`
    /// times, the SWIM dissemination multiplier.
    pub retransmit_factor: f64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self {
            seed: 0x9055_1D0D,
            round_interval_ms: 25.0,
            proxies: 2,
            suspicion_rounds: 3,
            piggyback: 6,
            retransmit_factor: 3.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeView {
    state: ViewState,
    incarnation: u64,
    /// Round this node first saw the current suspicion (for expiry).
    suspect_since_round: u64,
}

/// A pending membership delta awaiting piggyback slots.
#[derive(Debug, Clone, Copy)]
struct Delta {
    about: MemberId,
    state: ViewState,
    incarnation: u64,
    remaining: u32,
}

/// One gossip participant's protocol state. The router participates as a
/// node too (`id = None`): it probes like everyone else and its local view
/// is the routing view.
#[derive(Debug, Clone)]
struct Node {
    id: Option<MemberId>,
    own_incarnation: u64,
    view: BTreeMap<MemberId, NodeView>,
    deltas: Vec<Delta>,
}

impl Node {
    fn new(id: Option<MemberId>) -> Self {
        Self {
            id,
            own_incarnation: 0,
            view: BTreeMap::new(),
            deltas: Vec::new(),
        }
    }
}

/// The SWIM gossip detector. See the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct SwimDetector {
    cfg: GossipConfig,
    round: u64,
    next_round_ms: f64,
    router: Node,
    nodes: BTreeMap<MemberId, Node>,
    damper: Damper,
    /// Probe contacts sent, mirrored via [`FailureDetector::bind_obs`]
    /// (disconnected by default).
    probes: Counter,
}

impl SwimDetector {
    /// Build with gossip tuning and the routing damper.
    pub fn new(cfg: GossipConfig, hysteresis: HysteresisConfig) -> Self {
        Self {
            cfg: GossipConfig {
                round_interval_ms: cfg.round_interval_ms.max(1e-3),
                proxies: cfg.proxies,
                suspicion_rounds: cfg.suspicion_rounds.max(1),
                piggyback: cfg.piggyback.max(1),
                retransmit_factor: cfg.retransmit_factor.max(1.0),
                seed: cfg.seed,
            },
            round: 0,
            next_round_ms: 0.0,
            router: Node::new(None),
            nodes: BTreeMap::new(),
            damper: Damper::new(hysteresis),
            probes: Counter::default(),
        }
    }

    /// Retransmission budget for a fresh delta at the current cluster size.
    fn fresh_ttl(&self) -> u32 {
        let n = self.nodes.len().max(1) as f64;
        (self.cfg.retransmit_factor * (n + 1.0).log2()).ceil() as u32
    }

    /// One node's current view of a member: `None` when either is unknown
    /// or when asking about the observer itself. `observer = None` reads
    /// the router's (raw, pre-damper) view. Introspection for tests,
    /// health endpoints, and the convergence suite.
    pub fn view_of(
        &self,
        observer: Option<MemberId>,
        target: MemberId,
    ) -> Option<(ViewState, u64)> {
        let node = match observer {
            None => &self.router,
            Some(m) => self.nodes.get(&m)?,
        };
        node.view.get(&target).map(|v| (v.state, v.incarnation))
    }

    /// A member's own incarnation number (0 if unknown).
    pub fn incarnation_of(&self, m: MemberId) -> u64 {
        self.nodes.get(&m).map_or(0, |n| n.own_incarnation)
    }

    /// SWIM override rules: does `(new_state, new_inc)` supersede `cur`?
    fn supersedes(cur: &NodeView, state: ViewState, inc: u64) -> bool {
        match state {
            // A higher incarnation always proves liveness afresh — it even
            // resurrects a declared-down member after a warm restart.
            ViewState::Alive => inc > cur.incarnation,
            // Suspicion beats liveness at the same incarnation (that is the
            // point of the refutation protocol) but never beats a death
            // certificate at the same incarnation.
            ViewState::Suspect => {
                inc > cur.incarnation || (inc == cur.incarnation && cur.state == ViewState::Alive)
            }
            ViewState::Down => {
                inc > cur.incarnation || (inc == cur.incarnation && cur.state != ViewState::Down)
            }
        }
    }

    /// Queue a delta on `node`, superseding any pending delta about the
    /// same member (at most one delta per member is ever queued).
    fn enqueue(node: &mut Node, about: MemberId, state: ViewState, inc: u64, ttl: u32) {
        node.deltas.retain(|d| d.about != about);
        node.deltas.push(Delta {
            about,
            state,
            incarnation: inc,
            remaining: ttl.max(1),
        });
    }

    /// Merge one fact into `node`'s view. Accepted facts re-enter the
    /// node's delta queue with a fresh TTL (epidemic relay). A node that
    /// hears itself suspected or declared down refutes by bumping its own
    /// incarnation and announcing it.
    fn merge_fact(
        node: &mut Node,
        about: MemberId,
        state: ViewState,
        inc: u64,
        round: u64,
        ttl: u32,
    ) {
        if node.id == Some(about) {
            if state != ViewState::Alive && inc >= node.own_incarnation {
                node.own_incarnation = inc + 1;
                let announce = node.own_incarnation;
                Self::enqueue(node, about, ViewState::Alive, announce, ttl);
            }
            return;
        }
        let Some(cur) = node.view.get_mut(&about) else {
            // Unknown member (deregistered mid-flight): drop the fact.
            return;
        };
        if !Self::supersedes(cur, state, inc) {
            return;
        }
        cur.state = state;
        cur.incarnation = inc;
        if state == ViewState::Suspect {
            cur.suspect_since_round = round;
        }
        Self::enqueue(node, about, state, inc, ttl);
    }

    /// Take up to `piggyback` deltas from `from`'s queue for transmission,
    /// preferring the freshest (highest remaining TTL; ties broken by
    /// member id so selection is deterministic).
    fn take_deltas(&mut self, from: Option<MemberId>) -> Vec<Delta> {
        let budget = self.cfg.piggyback;
        let node = match from {
            None => &mut self.router,
            Some(m) => match self.nodes.get_mut(&m) {
                Some(n) => n,
                None => return Vec::new(),
            },
        };
        node.deltas
            .sort_by(|a, b| b.remaining.cmp(&a.remaining).then(a.about.cmp(&b.about)));
        let take = node.deltas.len().min(budget);
        let sent: Vec<Delta> = node.deltas[..take].to_vec();
        for d in node.deltas.iter_mut().take(take) {
            d.remaining = d.remaining.saturating_sub(1);
        }
        node.deltas.retain(|d| d.remaining > 0);
        sent
    }

    /// Deliver facts to a node (router when `None`).
    fn deliver(&mut self, to: Option<MemberId>, facts: &[Delta], round: u64) {
        let ttl = self.fresh_ttl();
        let node = match to {
            None => &mut self.router,
            Some(m) => match self.nodes.get_mut(&m) {
                Some(n) => n,
                None => return,
            },
        };
        for f in facts {
            Self::merge_fact(node, f.about, f.state, f.incarnation, round, ttl);
        }
    }

    /// A successful contact from `prober` to `target`: piggybacked deltas
    /// flow both ways, the prober confronts the target with any standing
    /// suspicion (so it can refute by incarnation bump), the target acks
    /// with its current incarnation, and the prober pulls the target's full
    /// view — the ack doubles as the anti-entropy pull that lets a
    /// stale-rejoining node catch up in O(1) successful probes.
    fn contact(&mut self, prober: Option<MemberId>, target: MemberId) {
        let round = self.round;
        self.probes.inc();
        // Confront the target with what the prober believes about it.
        let accusation = {
            let node = match prober {
                None => &self.router,
                Some(m) => match self.nodes.get(&m) {
                    Some(n) => n,
                    None => return,
                },
            };
            node.view
                .get(&target)
                .filter(|v| v.state != ViewState::Alive)
                .map(|v| Delta {
                    about: target,
                    state: v.state,
                    incarnation: v.incarnation,
                    remaining: 0,
                })
        };
        if let Some(acc) = accusation {
            self.deliver(Some(target), &[acc], round);
        }
        // Push: prober's deltas to the target.
        let push = self.take_deltas(prober);
        self.deliver(Some(target), &push, round);
        // Ack: target's deltas + liveness proof back to the prober.
        let mut ack = self.take_deltas(Some(target));
        let target_inc = self.nodes.get(&target).map_or(0, |n| n.own_incarnation);
        ack.push(Delta {
            about: target,
            state: ViewState::Alive,
            incarnation: target_inc,
            remaining: 0,
        });
        self.deliver(prober, &ack, round);
        // Pull: the prober merges the target's full view (anti-entropy).
        let pulled: Vec<Delta> = self
            .nodes
            .get(&target)
            .map(|n| {
                n.view
                    .iter()
                    .map(|(m, v)| Delta {
                        about: *m,
                        state: v.state,
                        incarnation: v.incarnation,
                        remaining: 0,
                    })
                    .collect()
            })
            .unwrap_or_default();
        self.deliver(prober, &pulled, round);
        // Direct liveness evidence: whatever the merge rules said, the
        // target answered *now*, with its current incarnation — force the
        // prober's entry up to (Alive, target_inc) if that supersedes.
        let ttl = self.fresh_ttl();
        let node = match prober {
            None => &mut self.router,
            Some(m) => match self.nodes.get_mut(&m) {
                Some(n) => n,
                None => return,
            },
        };
        Self::merge_fact(node, target, ViewState::Alive, target_inc, round, ttl);
    }

    /// Seeded choice of a probe target for `actor_idx` this round.
    fn pick_peer(&self, actor_idx: u64, candidates: &[MemberId]) -> Option<MemberId> {
        if candidates.is_empty() {
            return None;
        }
        let r = splitmix64(
            self.cfg
                .seed
                .wrapping_add(self.round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ actor_idx.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        Some(candidates[(r % candidates.len() as u64) as usize])
    }

    /// Seeded rotation over proxy candidates for the indirect ping-req.
    fn pick_proxies(
        &self,
        actor_idx: u64,
        candidates: &[MemberId],
        target: MemberId,
    ) -> Vec<MemberId> {
        let pool: Vec<MemberId> = candidates
            .iter()
            .copied()
            .filter(|&m| m != target)
            .collect();
        if pool.is_empty() {
            return Vec::new();
        }
        let r = splitmix64(
            self.cfg
                .seed
                .wrapping_add(self.round.wrapping_mul(0xBF58_476D_1CE4_E5B9))
                ^ actor_idx.wrapping_mul(0x94D0_49BB_1331_11EB),
        );
        let start = (r % pool.len() as u64) as usize;
        (0..pool.len().min(self.cfg.proxies as usize))
            .map(|i| pool[(start + i) % pool.len()])
            .collect()
    }

    /// One full protocol round at `t`: every live node (router first, then
    /// members in id order) probes one seeded peer, falling back to
    /// indirect ping-req; then suspicion timers expire; then the router's
    /// raw view is fed through the damper.
    fn run_round(&mut self, t: f64, oracle: &dyn LinkOracle) -> Vec<ViewEvent> {
        let members: Vec<MemberId> = self.nodes.keys().copied().collect();
        let ttl = self.fresh_ttl();
        // Probe phase. Actor index 0 is the router.
        for (actor_idx, actor) in std::iter::once(None)
            .chain(members.iter().copied().map(Some))
            .enumerate()
        {
            if let Some(m) = actor {
                if !oracle.member_alive(m) {
                    continue;
                }
            }
            let candidates: Vec<MemberId> = members
                .iter()
                .copied()
                .filter(|&m| actor != Some(m))
                .collect();
            let Some(target) = self.pick_peer(actor_idx as u64, &candidates) else {
                continue;
            };
            if oracle.link_up(actor, target) {
                self.contact(actor, target);
                continue;
            }
            // Direct probe failed: ask K proxies to ping the target.
            let mut reached = false;
            for proxy in self.pick_proxies(actor_idx as u64, &candidates, target) {
                let proxy_believed_up = {
                    let node = match actor {
                        None => &self.router,
                        Some(m) => match self.nodes.get(&m) {
                            Some(n) => n,
                            None => continue,
                        },
                    };
                    node.view
                        .get(&proxy)
                        .is_some_and(|v| v.state == ViewState::Alive)
                };
                if !proxy_believed_up {
                    continue;
                }
                if oracle.link_up(actor, proxy) && oracle.link_up(Some(proxy), target) {
                    // The proxy vouches: exchange with the proxy, and relay
                    // the target's liveness proof through it.
                    self.contact(actor, proxy);
                    let target_inc = self.nodes.get(&target).map_or(0, |n| n.own_incarnation);
                    let proof = Delta {
                        about: target,
                        state: ViewState::Alive,
                        incarnation: target_inc,
                        remaining: 0,
                    };
                    self.deliver(actor, &[proof], self.round);
                    reached = true;
                    break;
                }
            }
            if reached {
                continue;
            }
            // Unreachable directly and indirectly: suspect.
            let round = self.round;
            let node = match actor {
                None => &mut self.router,
                Some(m) => match self.nodes.get_mut(&m) {
                    Some(n) => n,
                    None => continue,
                },
            };
            if let Some(v) = node.view.get(&target) {
                if v.state == ViewState::Alive {
                    let inc = v.incarnation;
                    Self::merge_fact(node, target, ViewState::Suspect, inc, round, ttl);
                }
            }
        }
        // Suspicion expiry (router first, then members), local timers.
        let expiry_round = self.round;
        let horizon = u64::from(self.cfg.suspicion_rounds);
        for actor in std::iter::once(None).chain(members.iter().copied().map(Some)) {
            if let Some(m) = actor {
                if !oracle.member_alive(m) {
                    continue;
                }
            }
            let node = match actor {
                None => &mut self.router,
                Some(m) => match self.nodes.get_mut(&m) {
                    Some(n) => n,
                    None => continue,
                },
            };
            let expired: Vec<(MemberId, u64)> = node
                .view
                .iter()
                .filter(|(_, v)| {
                    v.state == ViewState::Suspect
                        && expiry_round.saturating_sub(v.suspect_since_round) >= horizon
                })
                .map(|(m, v)| (*m, v.incarnation))
                .collect();
            for (m, inc) in expired {
                Self::merge_fact(node, m, ViewState::Down, inc, expiry_round, ttl);
            }
        }
        // Feed the router's raw view into the damper.
        let mut events = Vec::new();
        for m in &members {
            let Some(v) = self.router.view.get(m).copied() else {
                continue;
            };
            let ev = match v.state {
                ViewState::Alive => self.damper.signal_up(*m, t, "gossip_alive", v.incarnation),
                ViewState::Suspect => {
                    self.damper
                        .signal_down(*m, t, "gossip_suspect", v.incarnation)
                }
                ViewState::Down => self.damper.signal_down(*m, t, "gossip_down", v.incarnation),
            };
            events.extend(ev);
        }
        events
    }
}

impl FailureDetector for SwimDetector {
    fn register(&mut self, m: MemberId, _now_ms: f64) {
        if self.nodes.contains_key(&m) {
            return;
        }
        let mut node = Node::new(Some(m));
        // The newcomer starts believing every existing member alive at the
        // incarnation it currently announces; everyone (router included)
        // starts believing the newcomer alive at incarnation 0.
        for (id, other) in &self.nodes {
            node.view.insert(
                *id,
                NodeView {
                    state: ViewState::Alive,
                    incarnation: other.own_incarnation,
                    suspect_since_round: 0,
                },
            );
        }
        let fresh = NodeView {
            state: ViewState::Alive,
            incarnation: 0,
            suspect_since_round: 0,
        };
        for other in self.nodes.values_mut() {
            other.view.insert(m, fresh);
        }
        self.router.view.insert(m, fresh);
        self.nodes.insert(m, node);
        self.damper.register(m);
    }

    fn deregister(&mut self, m: MemberId) {
        self.nodes.remove(&m);
        self.router.view.remove(&m);
        self.router.deltas.retain(|d| d.about != m);
        for node in self.nodes.values_mut() {
            node.view.remove(&m);
            node.deltas.retain(|d| d.about != m);
        }
        self.damper.deregister(m);
    }

    fn notify_restart(&mut self, m: MemberId, _now_ms: f64) {
        let ttl = self.fresh_ttl();
        let Some(node) = self.nodes.get_mut(&m) else {
            return;
        };
        // A warm restart rejoins with a strictly higher incarnation, so its
        // liveness announcement overrides any suspicion or death
        // certificate issued against the previous incarnation. Stale
        // queued deltas from before the crash are dropped.
        node.own_incarnation += 1;
        let inc = node.own_incarnation;
        node.deltas.clear();
        Self::enqueue(node, m, ViewState::Alive, inc, ttl);
    }

    fn observe_delivery_failure(&mut self, m: MemberId, now_ms: f64) -> Vec<ViewEvent> {
        let ttl = self.fresh_ttl();
        let round = self.round;
        if let Some(v) = self.router.view.get(&m) {
            if v.state == ViewState::Alive {
                let inc = v.incarnation;
                Self::merge_fact(&mut self.router, m, ViewState::Suspect, inc, round, ttl);
            }
        }
        let inc = self.router.view.get(&m).map_or(0, |v| v.incarnation);
        self.damper
            .signal_down(m, now_ms, "delivery_failed", inc)
            .into_iter()
            .collect()
    }

    fn next_wake_ms(&self) -> Option<f64> {
        Some(self.next_round_ms)
    }

    fn poll(&mut self, now_ms: f64, oracle: &dyn LinkOracle) -> Vec<ViewEvent> {
        let mut events = Vec::new();
        while self.next_round_ms <= now_ms {
            let t = self.next_round_ms;
            self.next_round_ms += self.cfg.round_interval_ms;
            self.round += 1;
            events.extend(self.run_round(t, oracle));
        }
        events
    }

    fn is_up(&self, m: MemberId) -> bool {
        self.damper.routing_up(m)
    }

    fn bind_obs(&mut self, obs: &Obs) {
        self.probes = obs.counter(
            "hallu_detector_probes_total",
            "Health probes sent by the failure detector, by protocol",
            &[("protocol", "swim")],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Ground truth for the tests: a set of live members, full mesh links.
    #[derive(Debug, Clone, Default)]
    struct Truth {
        alive: BTreeSet<MemberId>,
        partitioned: BTreeSet<u32>,
    }

    impl LinkOracle for Truth {
        fn member_alive(&self, m: MemberId) -> bool {
            self.alive.contains(&m)
        }

        fn link_up(&self, from: Option<MemberId>, to: MemberId) -> bool {
            match from {
                None => self.member_alive(to) && !self.partitioned.contains(&to.shard),
                Some(a) => self.member_alive(a) && self.member_alive(to),
            }
        }
    }

    fn member(i: u32) -> MemberId {
        MemberId {
            shard: i,
            replica: 0,
        }
    }

    fn swim(n: u32, seed: u64) -> (SwimDetector, Truth) {
        let cfg = GossipConfig {
            seed,
            ..GossipConfig::default()
        };
        let mut det = SwimDetector::new(cfg, HysteresisConfig::passthrough());
        let mut truth = Truth::default();
        for i in 0..n {
            det.register(member(i), 0.0);
            truth.alive.insert(member(i));
        }
        (det, truth)
    }

    fn run_rounds(det: &mut SwimDetector, truth: &Truth, t: &mut f64, rounds: u32) {
        let step = det.cfg.round_interval_ms;
        for _ in 0..rounds {
            *t += step;
            det.poll(*t, truth);
        }
    }

    /// Generous convergence bound: epidemic dissemination in O(log N)
    /// rounds plus the suspicion horizon plus slack for unlucky seeds.
    fn convergence_rounds(n: u32, suspicion_rounds: u32) -> u32 {
        suspicion_rounds + 6 * ((n + 2) as f64).log2().ceil() as u32 + 8
    }

    /// Every live observer's view (and the router's) matches ground truth.
    fn assert_converged(det: &SwimDetector, truth: &Truth, n: u32) {
        let observers = std::iter::once(None).chain(
            (0..n)
                .map(member)
                .filter(|m| truth.alive.contains(m))
                .map(Some),
        );
        for obs in observers {
            for i in 0..n {
                let target = member(i);
                if obs == Some(target) {
                    continue;
                }
                let (state, _) = det
                    .view_of(obs, target)
                    .expect("registered member has a view entry");
                let want_alive = truth.alive.contains(&target);
                let got_alive = state == ViewState::Alive;
                assert_eq!(
                    got_alive, want_alive,
                    "observer {obs:?} view of {target}: {state:?}, truth alive={want_alive}"
                );
            }
        }
    }

    #[test]
    fn crash_is_detected_and_disseminated() {
        let n = 8;
        let (mut det, mut truth) = swim(n, 0xABCD);
        let mut t = 0.0;
        run_rounds(&mut det, &truth, &mut t, 4);
        truth.alive.remove(&member(3));
        let rounds = convergence_rounds(n, det.cfg.suspicion_rounds);
        run_rounds(&mut det, &truth, &mut t, rounds);
        assert_converged(&det, &truth, n);
        assert!(!det.is_up(member(3)), "router must stop routing to s3r0");
        assert!(det.is_up(member(2)));
    }

    #[test]
    fn restart_refutes_death_certificate_by_incarnation_bump() {
        let n = 8;
        let (mut det, mut truth) = swim(n, 0x5EED);
        let mut t = 0.0;
        truth.alive.remove(&member(5));
        let rounds = convergence_rounds(n, det.cfg.suspicion_rounds);
        run_rounds(&mut det, &truth, &mut t, rounds);
        let (state, inc) = det.view_of(None, member(5)).unwrap();
        assert_eq!(state, ViewState::Down);
        // Warm restart: incarnation bumps past the death certificate.
        truth.alive.insert(member(5));
        det.notify_restart(member(5), t);
        assert!(det.incarnation_of(member(5)) > inc);
        let rounds = convergence_rounds(n, det.cfg.suspicion_rounds);
        run_rounds(&mut det, &truth, &mut t, rounds);
        assert_converged(&det, &truth, n);
        assert!(det.is_up(member(5)), "refuted member routes again");
    }

    #[test]
    fn router_partition_is_survived_by_indirect_ping_req() {
        // The router cannot reach shard 2, but members can: SWIM's
        // indirect path keeps the member Alive in the router's raw view
        // (distinguishing a dead node from a dead link).
        let n = 6;
        let (mut det, mut truth) = swim(n, 0x1CE);
        truth.partitioned.insert(2);
        let mut t = 0.0;
        let rounds = convergence_rounds(n, det.cfg.suspicion_rounds);
        run_rounds(&mut det, &truth, &mut t, rounds);
        let (state, _) = det.view_of(None, member(2)).unwrap();
        assert_eq!(
            state,
            ViewState::Alive,
            "proxies vouch for a member the router cannot reach"
        );
    }

    #[test]
    fn delivery_failure_suspects_immediately_and_peers_refute() {
        let n = 6;
        let (mut det, truth) = swim(n, 0xF00D);
        let mut t = 0.0;
        run_rounds(&mut det, &truth, &mut t, 2);
        let events = det.observe_delivery_failure(member(1), t);
        assert_eq!(events.len(), 1);
        assert!(!events[0].up);
        assert_eq!(events[0].why, "delivery_failed");
        assert!(!det.is_up(member(1)));
        // The member is actually fine; gossip refutes the suspicion.
        let rounds = convergence_rounds(n, det.cfg.suspicion_rounds);
        run_rounds(&mut det, &truth, &mut t, rounds);
        assert!(det.is_up(member(1)), "false suspicion must be refuted");
    }

    #[test]
    fn same_seed_same_timeline_different_seed_differs() {
        let run = |seed: u64| {
            let n = 8;
            let (mut det, mut truth) = swim(n, seed);
            let mut t = 0.0;
            let mut timeline = Vec::new();
            let step = det.cfg.round_interval_ms;
            for round in 0..60 {
                if round == 10 {
                    truth.alive.remove(&member(2));
                }
                if round == 30 {
                    truth.alive.insert(member(2));
                    det.notify_restart(member(2), t);
                }
                t += step;
                timeline.extend(det.poll(t, &truth));
            }
            timeline
        };
        assert_eq!(run(7), run(7), "same seed, same membership timeline");
        assert!(!run(7).is_empty());
    }

    #[test]
    fn hysteresis_dampens_a_flapping_member() {
        let n = 6;
        let cfg = GossipConfig {
            seed: 0xFA1A,
            ..GossipConfig::default()
        };
        let hysteresis = HysteresisConfig {
            up_after: 2,
            down_after: 1,
            min_dwell_ms: 100.0,
            flap_penalty: 2.0,
            max_dwell_ms: 2_000.0,
            flap_window_ms: 500.0,
        };
        let mut damped = SwimDetector::new(cfg, hysteresis);
        let mut raw = SwimDetector::new(cfg, HysteresisConfig::passthrough());
        let mut truth = Truth::default();
        for i in 0..n {
            damped.register(member(i), 0.0);
            raw.register(member(i), 0.0);
            truth.alive.insert(member(i));
        }
        let flapper = member(1);
        let step = cfg.round_interval_ms;
        let mut t = 0.0;
        let mut damped_events = Vec::new();
        let mut raw_events = Vec::new();
        // Flap every 4 rounds: 2 down, 2 up.
        for round in 0..120u32 {
            if round % 4 == 0 {
                truth.alive.remove(&flapper);
            } else if round % 4 == 2 {
                truth.alive.insert(flapper);
                damped.notify_restart(flapper, t);
                raw.notify_restart(flapper, t);
            }
            t += step;
            damped_events.extend(
                damped
                    .poll(t, &truth)
                    .into_iter()
                    .filter(|e| e.member == flapper),
            );
            raw_events.extend(
                raw.poll(t, &truth)
                    .into_iter()
                    .filter(|e| e.member == flapper),
            );
        }
        let damped_flips = damped_events.len();
        let raw_flips = raw_events.len();
        assert!(
            damped_flips < raw_flips,
            "damping must shrink routing-view churn: damped={damped_flips} raw={raw_flips}"
        );
        // The exponential penalty must hold the flapper out of routing for
        // at least one full flap period by the end.
        let readmissions = damped_events.iter().filter(|e| e.up).count();
        let raw_readmissions = raw_events.iter().filter(|e| e.up).count();
        assert!(
            readmissions < raw_readmissions,
            "penalized dwell must skip readmissions: {readmissions} vs {raw_readmissions}"
        );
    }

    #[test]
    fn central_detector_matches_probe_timeout_semantics() {
        let mut det = CentralDetector::new(50.0, 25.0, HysteresisConfig::passthrough());
        let mut truth = Truth::default();
        det.register(member(0), 0.0);
        det.register(member(1), 0.0);
        truth.alive.insert(member(0));
        truth.alive.insert(member(1));
        // t=0 probe: both reachable.
        assert!(det.poll(0.0, &truth).is_empty());
        truth.alive.remove(&member(1));
        // t=50 probe arms the suspect deadline; nothing transitions yet.
        assert!(det.poll(50.0, &truth).is_empty());
        assert!(det.is_up(member(1)), "probe timeout not yet elapsed");
        assert_eq!(det.next_wake_ms(), Some(75.0));
        // t=75: the deadline fires.
        let events = det.poll(75.0, &truth);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].why, "probe_timeout");
        assert!(!events[0].up);
        assert!(!det.is_up(member(1)));
        assert!(det.is_up(member(0)));
        // Restart: the next probe readmits on the spot (passthrough).
        truth.alive.insert(member(1));
        let events = det.poll(100.0, &truth);
        assert_eq!(events.len(), 1);
        assert!(events[0].up);
        assert_eq!(events[0].why, "probe_ack");
        assert!(det.is_up(member(1)));
    }

    #[test]
    fn deregister_forgets_member_everywhere() {
        let (mut det, truth) = swim(5, 0xDEAD);
        let mut t = 0.0;
        run_rounds(&mut det, &truth, &mut t, 6);
        det.deregister(member(2));
        assert!(det.view_of(None, member(2)).is_none());
        for i in [0u32, 1, 3, 4] {
            assert!(det.view_of(Some(member(i)), member(2)).is_none());
        }
        run_rounds(&mut det, &truth, &mut t, 6);
        assert!(det.is_up(member(2)), "unknown members default to routable");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// After an arbitrary crash/restart schedule quiesces, every live
        /// member's view (and the router's) converges to ground truth
        /// within O(log N) gossip rounds plus the suspicion horizon.
        #[test]
        fn views_converge_after_any_crash_restart_schedule(
            n in 4u32..14,
            seed in 0u64..u64::MAX,
            ops in prop::collection::vec((0u32..14, prop::bool::ANY), 0..10),
        ) {
            let (mut det, mut truth) = swim(n, seed);
            let mut t = 0.0;
            for (idx, up) in ops {
                let m = member(idx % n);
                if up {
                    if truth.alive.insert(m) {
                        det.notify_restart(m, t);
                    }
                } else {
                    truth.alive.remove(&m);
                }
                run_rounds(&mut det, &truth, &mut t, 2);
            }
            let rounds = convergence_rounds(n, det.cfg.suspicion_rounds);
            run_rounds(&mut det, &truth, &mut t, rounds);
            assert_converged(&det, &truth, n);
        }
    }
}
