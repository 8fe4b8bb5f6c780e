//! Incremental dynamic-tree scheduling (Yao & Bekhor-style) for the
//! per-vehicle stop-sequence search.
//!
//! The insertion DP (`mtshare-model::best_insertion`) re-derives every
//! committed-leg cost and re-issues Θ(m²) cost-oracle queries per
//! candidate taxi on every request. This crate maintains, per vehicle, a
//! pruned tree of feasible stop sequences:
//!
//! - the **spine** (tree root) is the committed stop sequence, annotated
//!   with cached leg costs that survive across dispatch rounds;
//! - **branches** are the candidate (pickup, dropoff) insertion points
//!   scored by [`DTree::score`]; per evaluation the distinct cost queries
//!   collapse from Θ(m²) to Θ(m) through lazy memo tables;
//! - [`DTree::commit`] promotes the winning branch by splicing the pair
//!   into the spine (pruning all sibling branches), [`DTree::remove`]
//!   splices a cancelled request back out, [`DTree::advance`] pops
//!   completed stops, and [`DTree::refresh_version`] re-keys the tree
//!   after a traffic-shift retime that left the stop sequence intact.
//!
//! **Determinism contract:** `score` replicates the insertion DP's exact
//! control flow and floating-point operation order — including the
//! "abort the whole evaluation on an unreachable leg" semantics of the
//! DP's `?` operator and its strict-`<`, earliest-(i, j) tie-break — so
//! a dtree-backed dispatcher produces byte-identical traces to the DP
//! (property-tested in `tests/dtree_equivalence.rs`). Cached values are
//! only ever *reused*, never recomputed differently: the cost oracle is
//! a pure function, so memoization cannot change any answer, only the
//! number of queries.
//!
//! The crate is dependency-free: vehicles, stops and the road network
//! appear only as opaque `u32` ids plus caller-supplied cost/deadline
//! closures (same layering as `mtshare-lap`).

/// One committed stop on a vehicle's spine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stop {
    /// Road-network node of the stop (opaque to this crate).
    pub node: u32,
    /// Request id the stop belongs to (opaque to this crate).
    pub request: u32,
    /// Pickup (`true`) or drop-off (`false`).
    pub pickup: bool,
    /// Party size boarding/alighting at this stop.
    pub riders: u32,
}

/// The request being probed for insertion, plus the vehicle context the
/// DP reads fresh on every call (position, time and onboard load move
/// between calls and are never cached).
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Pickup node.
    pub origin: u32,
    /// Drop-off node.
    pub destination: u32,
    /// Party size.
    pub passengers: u32,
    /// Drop-off deadline (absolute seconds).
    pub deadline: f64,
    /// Pickup deadline (absolute seconds).
    pub pickup_deadline: f64,
    /// Evaluation time.
    pub now: f64,
    /// Vehicle position node at `now`.
    pub pos: u32,
    /// Riders already onboard at `now`.
    pub initial_load: u32,
    /// Vehicle seat capacity.
    pub capacity: u32,
}

/// Winning branch of one [`DTree::score`] evaluation; field semantics
/// match `mtshare-model::BestInsertion` (and
/// `Schedule::with_insertion(req, i, j)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Insertion {
    /// Pickup index in the resulting stop sequence.
    pub i: usize,
    /// Drop-off index in the resulting stop sequence.
    pub j: usize,
    /// Added route cost in seconds.
    pub delta_s: f64,
}

/// Cumulative per-tree counters (profiling only; never affect results).
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeStats {
    /// `score` evaluations.
    pub scores: u64,
    /// Committed-leg costs served from the spine cache.
    pub legs_reused: u64,
    /// Committed-leg costs filled by a fresh oracle query.
    pub legs_filled: u64,
    /// Per-evaluation memo-table hits (queries the DP would re-issue).
    pub memo_reuses: u64,
    /// Per-evaluation memo-table fills (distinct oracle queries).
    pub memo_fills: u64,
    /// Full spine rebuilds.
    pub rebuilds: u64,
    /// Completed-stop advances (front pops).
    pub advances: u64,
    /// Branch promotions (request splice-ins).
    pub commits: u64,
    /// Request splice-outs (cancel / breakdown repair).
    pub removes: u64,
    /// Version refreshes after retime with an unchanged stop sequence.
    pub retimes: u64,
}

impl TreeStats {
    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: &TreeStats) {
        self.scores += other.scores;
        self.legs_reused += other.legs_reused;
        self.legs_filled += other.legs_filled;
        self.memo_reuses += other.memo_reuses;
        self.memo_fills += other.memo_fills;
        self.rebuilds += other.rebuilds;
        self.advances += other.advances;
        self.commits += other.commits;
        self.removes += other.removes;
        self.retimes += other.retimes;
    }
}

/// Whether a pickup arrival is late at its spine position *and at every
/// later one*: past `pickup_deadline` by more than the 1e-6 s feasibility
/// tolerance plus 1e-7 s.
///
/// In exact arithmetic pickup arrivals `a_{i-1} + d(n_{i-1}, o)` never
/// fall along a spine (`d(n_{i-1}, o) <= d(n_{i-1}, n_i) + d(n_i, o)`),
/// and `now + d(pos, o)` — driving straight there — is the least of
/// them. Leg costs are exact dyadic sums but `now` is not, so the f64
/// arrival sums round; below 10^6 s and 100 stops that moves an arrival
/// by < 1e-8 s, which the extra 1e-7 s absorbs. So the verdict holds for
/// the computed arrivals the feasibility checks compare, not only for the
/// real-valued ones.
pub fn late_for_good(arrival: f64, pickup_deadline: f64) -> bool {
    arrival > pickup_deadline + (1e-6 + 1e-7)
}

/// Leg/memo cell encoding: `NaN` = not yet queried, `+∞` = queried and
/// unreachable, finite = cached cost.
const UNKNOWN: f64 = f64::NAN;

/// Per-evaluation scratch (allocation amortized across calls).
#[derive(Debug, Default)]
struct Scratch {
    arrivals: Vec<f64>,
    loads: Vec<u32>,
    slack: Vec<f64>,
    /// `to_origin[k]` = cost(nodes[k], origin); nodes[0] is the vehicle
    /// position, nodes[k ≥ 1] the spine stop k − 1.
    to_origin: Vec<f64>,
    /// `from_origin[k]` = cost(origin, nodes[k]).
    from_origin: Vec<f64>,
    /// `to_dest[k]` = cost(nodes[k], destination).
    to_dest: Vec<f64>,
    /// `from_dest[k]` = cost(destination, nodes[k]).
    from_dest: Vec<f64>,
    /// cost(origin, destination).
    leg_od: f64,
    /// cost(position, nodes[1]) — fresh every call, the position moves.
    pos_leg: f64,
}

impl Scratch {
    /// Resets the per-probe memo tables. The prefix arrays (`arrivals`,
    /// `loads`, `pos_leg`) are keyed by `DTree::prefix_key` and survive
    /// across evaluations; `slack` is fully rewritten each evaluation.
    fn reset_memo(&mut self, m: usize) {
        for v in
            [&mut self.to_origin, &mut self.from_origin, &mut self.to_dest, &mut self.from_dest]
        {
            v.clear();
            v.resize(m + 1, UNKNOWN);
        }
        self.leg_od = UNKNOWN;
    }
}

/// The per-vehicle dynamic tree: committed spine + cached leg costs +
/// scoring scratch.
#[derive(Debug, Default)]
pub struct DTree {
    built: bool,
    version: u64,
    spine: Vec<Stop>,
    /// `leg_cost[k]` = cost(spine[k].node, spine[k + 1].node); see
    /// [`UNKNOWN`] for the cell encoding.
    leg_cost: Vec<f64>,
    scratch: Scratch,
    /// Key of the cached arrival/load prefix in `scratch`:
    /// `(position, now bits, initial load)`. The prefix is a pure
    /// function of that key and the spine, so it is reused verbatim
    /// across evaluations with the same key (the common case inside one
    /// dispatch window) and dropped on any spine mutation. Deadlines
    /// are deliberately *not* part of it — the slack pass runs fresh
    /// every evaluation.
    prefix_key: Option<(u32, u64, u32)>,
    /// Whether the cached prefix proved every committed leg reachable.
    prefix_ok: bool,
    /// Counters (profiling only).
    pub stats: TreeStats,
}

impl DTree {
    /// An empty, unbuilt tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the tree mirrors exactly (`version`, `len`) of the
    /// vehicle's committed plan.
    pub fn is_synced(&self, version: u64, len: usize) -> bool {
        self.built && self.version == version && self.spine.len() == len
    }

    /// Plan version the tree was last synced to.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the tree has ever been built since creation/clear.
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// Number of spine stops.
    pub fn len(&self) -> usize {
        self.spine.len()
    }

    /// Whether the spine is empty.
    pub fn is_empty(&self) -> bool {
        self.spine.is_empty()
    }

    /// The committed spine.
    pub fn stops(&self) -> &[Stop] {
        &self.spine
    }

    /// Discards everything (vehicle removed, or state restored from a
    /// snapshot — the tree is rebuilt lazily from the restored plan).
    pub fn clear(&mut self) {
        self.built = false;
        self.version = 0;
        self.spine.clear();
        self.leg_cost.clear();
        self.prefix_key = None;
    }

    /// Rebuilds the spine from scratch; every leg cost is refilled
    /// lazily on the next evaluation.
    pub fn rebuild(&mut self, version: u64, stops: impl IntoIterator<Item = Stop>) {
        self.spine.clear();
        self.spine.extend(stops);
        self.leg_cost.clear();
        self.leg_cost.resize(self.spine.len().saturating_sub(1), UNKNOWN);
        self.prefix_key = None;
        self.version = version;
        self.built = true;
        self.stats.rebuilds += 1;
    }

    /// Pops the first `k` stops (vehicle completed them); the surviving
    /// leg costs keep their cached values.
    pub fn advance(&mut self, k: usize) {
        let k = k.min(self.spine.len());
        if k == 0 {
            return;
        }
        self.spine.drain(..k);
        let l = k.min(self.leg_cost.len());
        self.leg_cost.drain(..l);
        self.prefix_key = None;
        self.stats.advances += 1;
    }

    /// Re-keys the tree after a plan-version bump that left the stop
    /// sequence unchanged (route retiming under a traffic shift: the
    /// shortest-path metric is static, so cached leg costs stay valid).
    pub fn refresh_version(&mut self, version: u64) {
        self.version = version;
        self.stats.retimes += 1;
    }

    /// Promotes the winning branch: splices `(pickup, dropoff)` into the
    /// spine at the [`Insertion`] positions and re-keys to `version`.
    /// All sibling branches die with the pre-splice scratch. Untouched
    /// leg costs survive; the up-to-four legs around the new stops are
    /// refilled lazily.
    pub fn commit(&mut self, version: u64, ins: Insertion, pickup: Stop, dropoff: Stop) {
        debug_assert!(ins.i < ins.j && ins.j <= self.spine.len() + 1);
        self.insert_stop(ins.i, pickup);
        self.insert_stop(ins.j, dropoff);
        self.prefix_key = None;
        self.version = version;
        self.stats.commits += 1;
    }

    /// Splices every stop of `request` out of the spine (cancel or
    /// breakdown repair) and re-keys to `version`. Returns how many
    /// stops were removed.
    pub fn remove(&mut self, version: u64, request: u32) -> usize {
        let mut removed = 0;
        while let Some(idx) = self.spine.iter().position(|s| s.request == request) {
            self.remove_stop(idx);
            removed += 1;
        }
        self.prefix_key = None;
        self.version = version;
        if removed > 0 {
            self.stats.removes += 1;
        }
        removed
    }

    fn insert_stop(&mut self, idx: usize, stop: Stop) {
        self.spine.insert(idx, stop);
        let n = self.spine.len();
        if n == 1 {
            return;
        }
        if idx == 0 {
            self.leg_cost.insert(0, UNKNOWN);
        } else if idx == n - 1 {
            self.leg_cost.push(UNKNOWN);
        } else {
            // Old leg (idx−1 → old idx) is cut by the new stop.
            self.leg_cost[idx - 1] = UNKNOWN;
            self.leg_cost.insert(idx, UNKNOWN);
        }
    }

    fn remove_stop(&mut self, idx: usize) {
        self.spine.remove(idx);
        let n = self.spine.len();
        if n == 0 {
            self.leg_cost.clear();
            return;
        }
        if idx == 0 {
            self.leg_cost.remove(0);
        } else if idx == n {
            self.leg_cost.pop();
        } else {
            // Legs (idx−1 → idx) and (idx → idx+1) merge into a bridge.
            self.leg_cost.remove(idx);
            self.leg_cost[idx - 1] = UNKNOWN;
        }
    }

    /// Scores the cheapest feasible insertion of `probe` against the
    /// spine — the dynamic-tree replacement for the insertion DP.
    ///
    /// `dropoff_deadline` maps a request id to its (mutable, chaos-
    /// renegotiated) drop-off deadline and is consulted fresh on every
    /// call; `cost` is the shortest-path oracle (`None` = unreachable).
    ///
    /// This is a line-for-line transcription of
    /// `mtshare-model::best_insertion` over the cached spine: identical
    /// floating-point operation order, identical abort/skip semantics,
    /// identical tie-breaking, the same two exact cuts — the reach bound
    /// before any spine work and the break at the first pickup position
    /// that is [`late_for_good`]. Only the *number* of oracle queries
    /// changes (Θ(m²) → Θ(m) distinct, each issued at most once).
    pub fn score(
        &mut self,
        probe: &Probe,
        dropoff_deadline: &mut dyn FnMut(u32) -> f64,
        cost: &mut dyn FnMut(u32, u32) -> Option<f64>,
    ) -> Option<Insertion> {
        self.stats.scores += 1;
        let Self { spine, leg_cost, scratch: s, stats, prefix_key, prefix_ok, .. } = self;
        let m = spine.len();
        let capacity = probe.capacity;
        let p = probe.passengers;
        s.reset_memo(m);

        // nodes[0] = vehicle position, nodes[k ≥ 1] = spine stop k − 1.
        let node = |k: usize| if k == 0 { probe.pos } else { spine[k - 1].node };

        // Lazy memo lookup: fill a table cell with one oracle query on
        // first touch, reuse it afterwards. `None` exactly where the DP
        // sees `None`.
        macro_rules! memo {
            ($tbl:ident, $k:expr, $a:expr, $b:expr) => {{
                let slot = &mut s.$tbl[$k];
                if slot.is_nan() {
                    stats.memo_fills += 1;
                    *slot = cost($a, $b).unwrap_or(f64::INFINITY);
                } else {
                    stats.memo_reuses += 1;
                }
                if slot.is_finite() {
                    Some(*slot)
                } else {
                    None
                }
            }};
        }

        // The reach bound: a vehicle that cannot make the pickup driving
        // straight there makes it at no position.
        match memo!(to_origin, 0, probe.pos, probe.origin) {
            Some(d) if !late_for_good(probe.now + d, probe.pickup_deadline) => {}
            _ => return None,
        }

        // The arrival/load prefix is a pure function of the spine and
        // (position, now, initial load): when the key matches the
        // previous evaluation — consecutive candidates scored against
        // the same vehicle state inside one dispatch window — the
        // cached arrays are the bit-exact values recomputation would
        // produce, so the whole pass (and its oracle queries) is
        // skipped. Any spine mutation drops the key.
        let key = (probe.pos, probe.now.to_bits(), probe.initial_load);
        if *prefix_key == Some(key) {
            if !*prefix_ok {
                return None; // a committed leg is unreachable
            }
        } else {
            *prefix_key = Some(key);
            *prefix_ok = false;
            s.arrivals.clear();
            s.arrivals.resize(m + 2, 0.0);
            s.loads.clear();
            s.loads.resize(m + 1, 0);

            // Arrival times a_0..a_m, summed in the DP's sequential
            // order over per-leg costs (floating-point addition is
            // order-sensitive; never pre-aggregate). The position →
            // first-stop leg is queried fresh (the position moves
            // between windows); committed legs come from the spine
            // cache.
            s.arrivals[0] = probe.now;
            for k in 0..m {
                let c = if k == 0 {
                    let c = cost(probe.pos, spine[0].node)?; // the DP's `?` abort
                    s.pos_leg = c;
                    c
                } else {
                    let slot = &mut leg_cost[k - 1];
                    if slot.is_nan() {
                        stats.legs_filled += 1;
                        *slot = cost(spine[k - 1].node, spine[k].node).unwrap_or(f64::INFINITY);
                    } else {
                        stats.legs_reused += 1;
                    }
                    if !slot.is_finite() {
                        return None;
                    }
                    *slot
                };
                s.arrivals[k + 1] = s.arrivals[k] + c;
            }

            // Load after each prefix.
            s.loads[0] = probe.initial_load;
            for (k, st) in spine.iter().enumerate().take(m) {
                s.loads[k + 1] = if st.pickup {
                    s.loads[k] + st.riders
                } else {
                    s.loads[k].saturating_sub(st.riders)
                };
            }
            *prefix_ok = true;
        }

        // Committed leg cost cost(nodes[a], nodes[a+1]), known finite
        // after the arrivals pass.
        let committed_leg = |s: &Scratch, leg_cost: &[f64], a: usize| {
            if a == 0 {
                s.pos_leg
            } else {
                leg_cost[a - 1]
            }
        };

        if s.loads[0] + p > capacity && m == 0 {
            return None;
        }

        // Suffix slack over fresh deadlines (traffic shifts mutate them
        // in place, so they are never cached — unlike the prefix, the
        // slack pass runs every evaluation).
        s.slack.clear();
        s.slack.resize(m + 2, 0.0);
        s.slack[m + 1] = f64::INFINITY;
        for k in (1..=m).rev() {
            let st = &spine[k - 1];
            let own = if st.pickup {
                f64::INFINITY
            } else {
                dropoff_deadline(st.request) - s.arrivals[k]
            };
            s.slack[k] = own.min(s.slack[k + 1]);
            if s.slack[k] < 0.0 {
                return None;
            }
        }

        let mut best: Option<Insertion> = None;

        for i in 1..=m + 1 {
            if s.loads[i - 1] + p > capacity {
                continue;
            }
            let Some(to_o) = memo!(to_origin, i - 1, node(i - 1), probe.origin) else { continue };
            let arrival_pickup = s.arrivals[i - 1] + to_o;
            if arrival_pickup > probe.pickup_deadline + 1e-6 {
                if late_for_good(arrival_pickup, probe.pickup_deadline) {
                    break; // and so is every later position
                }
                continue;
            }
            // pickup_delta, clamped like the DP (a tiny negative means
            // the origin sits on the shortest path).
            let dp = if i <= m {
                let Some(from_o) = memo!(from_origin, i, probe.origin, node(i)) else { continue };
                to_o + from_o - committed_leg(s, leg_cost, i - 1)
            } else {
                to_o
            };
            let dp = dp.max(0.0);

            // j == i: drop-off immediately after pickup.
            {
                if s.leg_od.is_nan() {
                    stats.memo_fills += 1;
                    s.leg_od = cost(probe.origin, probe.destination).unwrap_or(f64::INFINITY);
                } else {
                    stats.memo_reuses += 1;
                }
                if !s.leg_od.is_finite() {
                    return None; // the DP's `?` on cost(origin, dest)
                }
                let leg_od = s.leg_od;
                let (pair_delta, arrive_d) = if i <= m {
                    let d = to_o + leg_od + memo!(from_dest, i, probe.destination, node(i))?
                        - committed_leg(s, leg_cost, i - 1);
                    (d, arrival_pickup + leg_od)
                } else {
                    (to_o + leg_od, arrival_pickup + leg_od)
                };
                let ok = arrive_d <= probe.deadline + 1e-6 && pair_delta <= s.slack[i] + 1e-6;
                if ok && best.is_none_or(|b| pair_delta < b.delta_s) {
                    best = Some(Insertion { i: i - 1, j: i, delta_s: pair_delta });
                }
            }

            // j > i: drop-off later.
            if i <= m {
                let mut mid_slack_ok = dp <= s.slack[i] + 1e-6;
                for j in (i + 1)..=(m + 1) {
                    if s.loads[j - 1] + p > capacity {
                        break;
                    }
                    if !mid_slack_ok {
                        break;
                    }
                    let to_d = memo!(to_dest, j - 1, node(j - 1), probe.destination)?;
                    let dd = if j <= m {
                        to_d + memo!(from_dest, j, probe.destination, node(j))?
                            - committed_leg(s, leg_cost, j - 1)
                    } else {
                        to_d
                    };
                    let arrive_d = s.arrivals[j - 1] + dp + to_d;
                    let total = dp + dd.max(0.0);
                    let ok = arrive_d <= probe.deadline + 1e-6 && total <= s.slack[j] + 1e-6;
                    if ok && best.is_none_or(|b| total < b.delta_s) {
                        best = Some(Insertion { i: i - 1, j, delta_s: total });
                    }
                    if j <= m {
                        let st = &spine[j - 1];
                        if !st.pickup {
                            let own = dropoff_deadline(st.request) - s.arrivals[j];
                            if dp > own + 1e-6 {
                                mid_slack_ok = false;
                            }
                        }
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D line metric: cost(a, b) = |a − b|, every pair reachable.
    fn line(a: u32, b: u32) -> Option<f64> {
        Some((a as f64 - b as f64).abs())
    }

    fn stop(node: u32, request: u32, pickup: bool) -> Stop {
        Stop { node, request, pickup, riders: 1 }
    }

    fn probe(origin: u32, destination: u32, pos: u32, deadline: f64) -> Probe {
        Probe {
            origin,
            destination,
            passengers: 1,
            deadline,
            pickup_deadline: deadline,
            now: 0.0,
            pos,
            initial_load: 0,
            capacity: 4,
        }
    }

    #[test]
    fn empty_spine_scores_direct_insertion() {
        let mut t = DTree::new();
        t.rebuild(1, []);
        let p = probe(10, 20, 0, 100.0);
        let ins = t.score(&p, &mut |_| unreachable!(), &mut |a, b| line(a, b)).unwrap();
        assert_eq!((ins.i, ins.j), (0, 1));
        assert!((ins.delta_s - 20.0).abs() < 1e-12);
    }

    #[test]
    fn commit_splices_and_preserves_cached_legs() {
        let mut t = DTree::new();
        t.rebuild(1, [stop(10, 0, true), stop(20, 0, false)]);
        // Prime the committed-leg cache.
        let p = probe(12, 18, 0, 1e9);
        let ins = t.score(&p, &mut |_| 1e9, &mut |a, b| line(a, b)).unwrap();
        assert_eq!(t.stats.legs_filled, 1);
        // Winning branch: pickup at 12 and drop at 18 between the stops.
        assert_eq!((ins.i, ins.j), (1, 2));
        t.commit(2, ins, stop(12, 1, true), stop(18, 1, false));
        assert_eq!(t.len(), 4);
        assert_eq!(t.stops().iter().map(|s| s.node).collect::<Vec<_>>(), vec![10, 12, 18, 20]);
        assert!(t.is_synced(2, 4));
        // The untouched legs would be reused; spliced ones are unknown.
        let filled_before = t.stats.legs_filled;
        let p2 = probe(11, 19, 0, 1e9);
        let _ = t.score(&p2, &mut |_| 1e9, &mut |a, b| line(a, b));
        // Three legs refilled (10→12, 12→18, 18→20): the splice cut the
        // only cached leg.
        assert_eq!(t.stats.legs_filled - filled_before, 3);
        let filled = t.stats.legs_filled;
        let _ = t.score(&p2, &mut |_| 1e9, &mut |a, b| line(a, b));
        assert_eq!(t.stats.legs_filled, filled, "second score reuses all legs");
    }

    #[test]
    fn remove_splices_out_both_stops() {
        let mut t = DTree::new();
        t.rebuild(
            1,
            [stop(10, 0, true), stop(12, 1, true), stop(18, 1, false), stop(20, 0, false)],
        );
        assert_eq!(t.remove(2, 1), 2);
        assert_eq!(t.stops().iter().map(|s| s.node).collect::<Vec<_>>(), vec![10, 20]);
        assert_eq!(t.remove(3, 7), 0, "unknown request removes nothing");
        assert!(t.is_synced(3, 2));
    }

    #[test]
    fn advance_pops_front_and_keeps_suffix_cache() {
        let mut t = DTree::new();
        t.rebuild(1, [stop(10, 0, true), stop(20, 0, false), stop(30, 1, false)]);
        let p = probe(5, 6, 0, 1e9);
        let _ = t.score(&p, &mut |_| 1e9, &mut |a, b| line(a, b));
        assert_eq!(t.stats.legs_filled, 2);
        t.advance(1);
        assert_eq!(t.len(), 2);
        let filled = t.stats.legs_filled;
        let _ = t.score(&p, &mut |_| 1e9, &mut |a, b| line(a, b));
        assert_eq!(t.stats.legs_filled, filled, "surviving leg stays cached");
        assert!(t.stats.legs_reused >= 1);
    }

    #[test]
    fn unreachable_committed_leg_aborts_like_the_dp() {
        let mut t = DTree::new();
        t.rebuild(1, [stop(10, 0, true), stop(20, 0, false)]);
        let p = probe(12, 18, 0, 1e9);
        // 10 → 20 unreachable: the DP aborts during the arrivals pass.
        let mut cost = |a: u32, b: u32| if (a, b) == (10, 20) { None } else { line(a, b) };
        assert_eq!(t.score(&p, &mut |_| 1e9, &mut cost), None);
        // And the verdict is remembered (no flip after caching).
        assert_eq!(t.score(&p, &mut |_| 1e9, &mut cost), None);
    }

    #[test]
    fn capacity_gate_matches_dp_prefix_rule() {
        let mut t = DTree::new();
        t.rebuild(1, []);
        let mut p = probe(10, 20, 0, 1e9);
        p.initial_load = 4; // full vehicle, empty spine
        assert_eq!(t.score(&p, &mut |_| 1e9, &mut |a, b| line(a, b)), None);
    }

    #[test]
    fn deadline_gate_rejects_late_dropoff() {
        let mut t = DTree::new();
        t.rebuild(1, []);
        // Direct trip costs 20 + pickup leg 10, deadline 5: infeasible.
        let p = probe(10, 30, 0, 5.0);
        assert_eq!(t.score(&p, &mut |_| 1e9, &mut |a, b| line(a, b)), None);
    }

    #[test]
    fn retime_refresh_keeps_spine_and_cache() {
        let mut t = DTree::new();
        t.rebuild(3, [stop(10, 0, true), stop(20, 0, false)]);
        let p = probe(12, 18, 0, 1e9);
        let before = t.score(&p, &mut |_| 1e9, &mut |a, b| line(a, b));
        t.refresh_version(9);
        assert!(t.is_synced(9, 2));
        let filled = t.stats.legs_filled;
        let after = t.score(&p, &mut |_| 1e9, &mut |a, b| line(a, b));
        assert_eq!(before, after);
        assert_eq!(t.stats.legs_filled, filled);
        assert_eq!(t.stats.retimes, 1);
    }

    #[test]
    fn score_is_idempotent_and_bit_stable() {
        let mut t = DTree::new();
        t.rebuild(
            1,
            [stop(10, 0, true), stop(40, 1, true), stop(60, 1, false), stop(80, 0, false)],
        );
        let p = probe(25, 70, 5, 1e9);
        let a = t.score(&p, &mut |_| 1e9, &mut |x, y| line(x, y)).unwrap();
        let b = t.score(&p, &mut |_| 1e9, &mut |x, y| line(x, y)).unwrap();
        assert_eq!(a.delta_s.to_bits(), b.delta_s.to_bits());
        assert_eq!((a.i, a.j), (b.i, b.j));
    }
}
