//! Two-phase segment-level routing: basic (Algorithm 3) and probabilistic
//! (Algorithm 4).
//!
//! A basic leg is the canonical shortest path: from `from`, step to the
//! smallest-id head of a tight arc of `to`'s backward vector on the cache's
//! live graph — the lexicographically smallest node sequence among the
//! shortest paths. Dispatch reads it off the vector the oracle pins for
//! the scheduled stop ([`HotNodeOracle::path`]); anything else walks a
//! backward sweep of its own ([`PathCache::path`]). The paper routes a
//! basic leg inside the partitions Algorithm 2 keeps, as a speed device;
//! every shortest path costs the same, so the filter could only choose
//! among tied paths, and basic legs skip it (DESIGN.md, "Routes come off
//! the same vectors").
//!
//! Probabilistic routing filters the partitions (Algorithm 2, whose
//! counters therefore count Algorithm 4 legs only) and biases the route
//! through those with a high probability of meeting *suitable* offline
//! requests (those travelling in the taxi's direction), trading detour for
//! encounter probability, on the cache's live metric. With no biased route
//! in budget it falls back to the basic leg.

use crate::config::{
    MtShareConfig, PROB_ATTEMPTS, PROB_BIAS_WEIGHT_S, PROB_MAX_HOPS, PROB_MAX_PATHS,
};
use crate::context::MobilityContext;
use crate::filter::filter_partitions_observed;
use mtshare_mobility::{LandmarkGraph, PartitionId};
use mtshare_model::World;
use mtshare_obs::{Obs, Stage};
use mtshare_road::{direction_cosine, NodeId, RoadNetwork};
use mtshare_routing::{HotNodeOracle, MaskedDijkstra, NodeMask, Path, PathCache, PinView};

/// Reusable per-leg router (scratch state sized to the graph).
pub struct SegmentRouter {
    masked: MaskedDijkstra,
    mask: NodeMask,
    obs: Obs,
    /// Alg. 4 memo, dropped when `prob_key` — the bits of `taxi_dir` and `λ`
    /// — changes; nothing else enters what it holds. Vertex weights
    /// `PROB_BIAS_WEIGHT_S / (1 + ψ)`, valid for the vertices of `weighted`: a
    /// search fills them as it first touches them.
    weights: Vec<f32>,
    weighted: NodeMask,
    prob_key: [u64; 3],
    /// κ × κ, row `p`: the partitions in the taxi's direction seen from `p`
    /// (step ①). Valid where `pi_prob[p]`, their summed probability, is set.
    suitable: Vec<bool>,
    pi_prob: Vec<Option<f32>>,
    paths: PartitionPaths,
    /// Scratch: scored insertion slots, reused across `schedule_best`
    /// calls so Algorithm 1 allocates nothing per candidate.
    slots: Vec<crate::scheduling::ScoredSlot>,
}

impl SegmentRouter {
    /// Creates a router for `graph` with telemetry disabled.
    pub fn new(graph: &RoadNetwork) -> Self {
        Self {
            masked: MaskedDijkstra::new(graph),
            mask: NodeMask::new(graph),
            obs: Obs::disabled(),
            weights: vec![0.0; graph.node_count()],
            weighted: NodeMask::new(graph),
            prob_key: [0; 3],
            suitable: Vec::new(),
            pi_prob: Vec::new(),
            paths: PartitionPaths::default(),
            slots: Vec::new(),
        }
    }

    /// Moves the scored-slot scratch buffer out (empty, capacity kept).
    pub(crate) fn take_slots(&mut self) -> Vec<crate::scheduling::ScoredSlot> {
        let mut slots = std::mem::take(&mut self.slots);
        slots.clear();
        slots
    }

    /// Returns the scratch buffer for reuse by the next dispatch.
    pub(crate) fn put_slots(&mut self, slots: Vec<crate::scheduling::ScoredSlot>) {
        self.slots = slots;
    }

    /// [`SegmentRouter::basic_leg`] for dispatch: the leg ends at a
    /// scheduled stop, so it is read off the stop's pinned vector.
    pub(crate) fn dispatch_leg(&self, world: &World<'_>, from: NodeId, to: NodeId) -> Option<Path> {
        let _span = self.obs.stage(Stage::Routing);
        shortest_leg(world.cache, Some(world.oracle), from, to)
    }

    /// Attaches a telemetry bus (stage spans + filter counters).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The telemetry bus in use (disabled handle by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    fn allow_partitions(mask: &mut NodeMask, ctx: &MobilityContext, partitions: &[PartitionId]) {
        mask.clear();
        for &p in partitions {
            for &v in ctx.partitioning.members(p) {
                mask.allow(v);
            }
        }
    }

    /// Basic routing for one leg (Algorithm 3): the canonical shortest path
    /// on the cache's live metric (module docs). Basic legs skip the
    /// partition filter, so `graph`, `ctx` and `cfg` go unread.
    pub fn basic_leg(
        &mut self,
        _graph: &RoadNetwork,
        _ctx: &MobilityContext,
        _cfg: &MtShareConfig,
        cache: &PathCache,
        from: NodeId,
        to: NodeId,
    ) -> Option<Path> {
        let _span = self.obs.stage(Stage::Routing);
        shortest_leg(cache, None, from, to)
    }

    /// Probabilistic routing for one leg (Algorithm 4 body).
    ///
    /// `taxi_dir` is the taxi's mobility-vector direction; `budget_s` caps
    /// the acceptable leg cost (validity proxy for the deadline check the
    /// caller re-runs on the whole schedule). Returns the biased leg, or
    /// the basic leg when no valid biased route exists within
    /// [`PROB_ATTEMPTS`] partition paths.
    #[allow(clippy::too_many_arguments)]
    pub fn probabilistic_leg(
        &mut self,
        graph: &RoadNetwork,
        ctx: &MobilityContext,
        cfg: &MtShareConfig,
        cache: &PathCache,
        from: NodeId,
        to: NodeId,
        taxi_dir: (f64, f64),
        budget_s: f64,
    ) -> Option<Path> {
        self.probabilistic_leg_routed(graph, ctx, cfg, cache, None, from, to, taxi_dir, budget_s)
    }

    /// [`SegmentRouter::probabilistic_leg`] for dispatch: with the oracle,
    /// the search is judged against `to`'s pinned vector and the fallback
    /// is read off it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probabilistic_leg_routed(
        &mut self,
        graph: &RoadNetwork,
        ctx: &MobilityContext,
        cfg: &MtShareConfig,
        cache: &PathCache,
        oracle: Option<&HotNodeOracle>,
        from: NodeId,
        to: NodeId,
        taxi_dir: (f64, f64),
        budget_s: f64,
    ) -> Option<Path> {
        if from == to {
            return Some(Path::trivial(from));
        }
        let _span = self.obs.stage(Stage::Routing);
        let filtered =
            filter_partitions_observed(graph, ctx, from, to, cfg.lambda, cfg.epsilon, &self.obs);

        let kappa = ctx.kappa();
        let key = [taxi_dir.0, taxi_dir.1, cfg.lambda].map(f64::to_bits);
        if self.prob_key != key || self.pi_prob.len() != kappa {
            self.prob_key = key;
            self.suitable.resize(kappa * kappa, false);
            self.pi_prob.clear();
            self.pi_prob.resize(kappa, None);
            self.weighted.clear();
        }

        // ① probability of meeting suitable requests per retained partition.
        for &p in &filtered.partitions {
            let flags = &mut self.suitable[p.index() * kappa..][..kappa];
            self.pi_prob[p.index()].get_or_insert_with(|| {
                flags.fill(false);
                let lp = graph.point(ctx.partitioning.landmark(p));
                for q in ctx.partitioning.partitions().filter(|&q| q != p) {
                    let lq = graph.point(ctx.partitioning.landmark(q));
                    flags[q.index()] =
                        direction_cosine(lp.displacement_m(&lq), taxi_dir) >= cfg.lambda;
                }
                let mut prob = 0.0f32;
                for (q, _) in flags.iter().enumerate().filter(|&(_, &suits)| suits) {
                    prob += ctx.partition_prob(p.index(), q);
                }
                prob
            });
        }

        // ② enumerate landmark paths (partition paths) ranked by
        // accumulated probability.
        self.paths.enumerate(
            &ctx.landmarks,
            &filtered.partitions,
            &self.pi_prob,
            (ctx.partitioning.partition_of(from), ctx.partitioning.partition_of(to)),
            PROB_MAX_HOPS,
            PROB_MAX_PATHS,
        );

        // ③ fine-grained route over each partition path on the live metric
        // until one is within budget — judged inside the search, against
        // the costs to `to` its pinned vector bounds from below.
        let live = cache.graph();
        let Self { masked, mask, weights, weighted, suitable, paths, .. } = self;
        // Vertex weight 1/ψ_c, scaled into edge-cost units so the bias steers
        // without dwarfing travel costs. A masked vertex lies in a retained
        // partition, so step ① left its flags in `suitable`.
        let mut weight = |v: NodeId| {
            if !weighted.contains(v) {
                weighted.allow(v);
                let flags = &suitable[ctx.partitioning.partition_of(v).index() * kappa..][..kappa];
                // ψ_c demand-weighted: expected suitable requests at v.
                let w = ctx.transitions.observed(v) as f32;
                let psi = w * ctx.transitions.prob_to_any(v, flags);
                weights[v.index()] = PROB_BIAS_WEIGHT_S / (1.0 + psi);
            }
            weights[v.index()]
        };
        let (mut unreachable, mut searches) = (0, 0);
        let mut attempts = |pin: Option<PinView<'_>>| {
            let lower = |v| pin.map_or(0.0, |p| p.lower(v));
            paths.ranked.iter().take(PROB_ATTEMPTS).find_map(|&(_, i)| {
                let corridor = &paths.hops[paths.ends[i]..paths.ends[i + 1]];
                // Adjacent partitions need not join up: a corridor whose
                // pieces leave `from` and `to` apart has no route to find.
                if !ctx.landmarks.connects(from, to, corridor) {
                    unreachable += 1;
                    return None;
                }
                searches += 1;
                Self::allow_partitions(mask, ctx, corridor);
                masked.path_within_budget(&live, from, to, mask, &mut weight, lower, budget_s)
            })
        };
        let biased = match oracle {
            Some(o) => o.with_vector(to, attempts),
            None => attempts(None),
        };
        self.obs.add(
            "alg4",
            &[
                ("legs", 1),
                ("corridors", unreachable + searches),
                ("unreachable", unreachable),
                ("searches", searches),
                ("accepted", biased.is_some() as u64),
                ("fallbacks", biased.is_none() as u64),
            ],
        );
        if biased.is_some() {
            return biased;
        }
        // No valid probabilistic route: fall back to the basic leg.
        shortest_leg(cache, oracle, from, to)
    }
}

/// The basic leg `from -> to`: off `to`'s pinned vector with an oracle,
/// else the cache's walk — the same canonical path either way.
fn shortest_leg(
    cache: &PathCache,
    oracle: Option<&HotNodeOracle>,
    from: NodeId,
    to: NodeId,
) -> Option<Path> {
    if from == to {
        return Some(Path::trivial(from));
    }
    oracle.map_or_else(|| cache.path(from, to), |o| o.path(from, to))
}

/// Alg. 4 step ②: the simple partition paths of one leg, flat — path `i`
/// is `hops[ends[i]..ends[i + 1]]` — and the order to try them in.
#[derive(Default)]
struct PartitionPaths {
    hops: Vec<PartitionId>,
    ends: Vec<usize>,
    /// `(accumulated probability, path)`, best first.
    ranked: Vec<(f32, usize)>,
    /// DFS state: the allowed partitions not on the path so far.
    free: Vec<bool>,
}

impl PartitionPaths {
    /// DFS in neighbour order over the simple paths `ends.0 → ends.1`
    /// through `allowed` partitions with at most `max_hops` hops, cut off at
    /// `4 × max_paths` paths; then ranks them by the probabilities `prob` of
    /// their partitions summed in path order, descending, ties in DFS order,
    /// and keeps the best `max_paths`.
    fn enumerate(
        &mut self,
        landmarks: &LandmarkGraph,
        allowed: &[PartitionId],
        prob: &[Option<f32>],
        ends: (PartitionId, PartitionId),
        max_hops: usize,
        max_paths: usize,
    ) {
        self.hops.clear();
        self.ends.clear();
        self.ends.push(0);
        self.free.clear();
        self.free.resize(landmarks.len(), false);
        allowed.iter().for_each(|p| self.free[p.index()] = true);
        if self.free[ends.0.index()] && self.free[ends.1.index()] {
            self.free[ends.0.index()] = false;
            self.hops.push(ends.0);
            self.dfs(landmarks, ends.1, max_hops, 4 * max_paths);
        }
        let Self { hops, ends, ranked, .. } = self;
        let of = |p: &PartitionId| prob[p.index()].expect("step ① priced every retained partition");
        ranked.clear();
        ranked.extend(ends.windows(2).enumerate().map(|(i, w)| {
            let path = &hops[w[0]..w[1]];
            (path[1..].iter().fold(of(&path[0]), |acc, p| acc + of(p)), i)
        }));
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        ranked.truncate(max_paths);
    }

    /// The DFS stack is the unfinished tail of `hops`, past the last end.
    fn dfs(&mut self, landmarks: &LandmarkGraph, dst: PartitionId, max_hops: usize, cap: usize) {
        let (start, len) = (self.ends[self.ends.len() - 1], self.hops.len());
        if self.ends.len() > cap {
            return;
        }
        let cur = self.hops[len - 1];
        if cur == dst {
            self.hops.extend_from_within(start..);
            self.ends.push(len);
            return;
        }
        if len - start > max_hops {
            return;
        }
        for &next in landmarks.neighbors(cur) {
            if std::mem::replace(&mut self.free[next.index()], false) {
                self.hops.push(next);
                self.dfs(landmarks, dst, max_hops, cap);
                self.hops.pop();
                self.free[next.index()] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PartitionStrategy;
    use crate::filter::filter_partitions;
    use mtshare_mobility::Trip;
    use mtshare_road::{grid_city, GridCityConfig};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::sync::Arc;

    fn setup() -> (Arc<RoadNetwork>, Arc<MobilityContext>, PathCache) {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let mut rng = SmallRng::seed_from_u64(4);
        // Bias historical demand toward the NE corner so probabilistic
        // routing has structure to exploit.
        let trips: Vec<_> = (0..1500)
            .map(|_| Trip {
                origin: NodeId(rng.gen_range(0..400)),
                destination: NodeId(300 + rng.gen_range(0u32..100)),
            })
            .collect();
        let ctx = MobilityContext::build(&g, &trips, 16, 4, 7, PartitionStrategy::Bipartite);
        let cache = PathCache::new(g.clone());
        (g, ctx, cache)
    }

    #[test]
    fn basic_leg_is_exactly_shortest() {
        let (g, ctx, cache) = setup();
        let cfg = MtShareConfig::default();
        let mut r = SegmentRouter::new(&g);
        for (s, t) in [(0u32, 399u32), (20, 360), (111, 7), (5, 5)] {
            let leg = r.basic_leg(&g, &ctx, &cfg, &cache, NodeId(s), NodeId(t)).unwrap();
            let want = cache.cost(NodeId(s), NodeId(t)).unwrap();
            assert!((leg.cost_s - want).abs() < 1e-6, "{s}->{t}");
            assert_eq!(leg.start(), NodeId(s));
            assert_eq!(leg.end(), NodeId(t));
        }
    }

    /// Dispatch's entry point against the public one on 500 seeded pairs
    /// with the target pinned, on the cache's live metric: the same path,
    /// node for node and cost bit for bit, Dijkstra's cost, and every
    /// non-trivial leg read off the pinned vector.
    fn dispatch_legs_equal_public_legs(
        g: &Arc<RoadNetwork>,
        ctx: &MobilityContext,
        cache: &PathCache,
    ) {
        let cfg = MtShareConfig::default();
        let oracle = HotNodeOracle::over(cache.clone());
        let requests = mtshare_model::RequestStore::new();
        let world = World { graph: g, cache, oracle: &oracle, taxis: &[], requests: &requests };
        let (dispatch, mut public) = (SegmentRouter::new(g), SegmentRouter::new(g));
        let live = cache.graph();
        let mut dijkstra = mtshare_routing::Dijkstra::new(&live);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut legs = 0;
        for _ in 0..500 {
            let (from, to) = (NodeId(rng.gen_range(0..400)), NodeId(rng.gen_range(0..400)));
            oracle.pin(to);
            let got = dispatch.dispatch_leg(&world, from, to).unwrap();
            let want = public.basic_leg(g, ctx, &cfg, cache, from, to).unwrap();
            assert_eq!(got.nodes, want.nodes, "{from}->{to}");
            assert_eq!(got.cost_s.to_bits(), want.cost_s.to_bits(), "{from}->{to}");
            assert_eq!(Some(got.cost_s), dijkstra.cost(&live, from, to), "{from}->{to}");
            oracle.unpin(to);
            legs += u64::from(from != to);
        }
        let stats = oracle.stats();
        assert_eq!((stats.path_walks, stats.path_searches), (legs, 0));
    }

    #[test]
    fn dispatch_legs_read_off_the_vector_equal_public_legs() {
        let (g, ctx, cache) = setup();
        dispatch_legs_equal_public_legs(&g, &ctx, &cache);
    }

    /// Inside a cch shift window the legs follow the shifted metric, off
    /// the same vectors.
    #[test]
    fn inside_a_shift_window_dispatch_legs_follow_the_live_metric() {
        use mtshare_road::{apply_traffic_shifts, TrafficShiftSpec};
        use mtshare_routing::{CustomizableCh, RouterBackend};
        let (g, ctx, _) = setup();
        let cache = PathCache::with_backend(
            g.clone(),
            RouterBackend::Cch(Arc::new(CustomizableCh::build(&g))),
        );
        let spec = TrafficShiftSpec {
            center: NodeId(210),
            radius_m: 900.0,
            factor: 2.5,
            start_s: 0.0,
            duration_s: 1.0,
        };
        cache.recustomize(Arc::new(apply_traffic_shifts(&g, &[spec]).unwrap()));
        dispatch_legs_equal_public_legs(&g, &ctx, &cache);
    }

    /// The Alg. 4 memo is keyed on the travel direction: a router that has
    /// seen other directions answers like one that has seen none.
    #[test]
    fn probabilistic_legs_do_not_depend_on_router_history() {
        let (g, ctx, cache) = setup();
        let cfg = MtShareConfig::default().with_probabilistic();
        let mut used = SegmentRouter::new(&g);
        let mut rng = SmallRng::seed_from_u64(23);
        let dirs = [(1.0, 1.0), (-1.0, 0.3), (1.0, 1.0), (0.2, -1.0)];
        for i in 0..40 {
            let (from, to) = (NodeId(rng.gen_range(0..400)), NodeId(rng.gen_range(0..400)));
            let budget = cache.cost(from, to).unwrap() * 1.6;
            let dir = dirs[i % dirs.len()];
            let got = used.probabilistic_leg(&g, &ctx, &cfg, &cache, from, to, dir, budget);
            let want = SegmentRouter::new(&g)
                .probabilistic_leg(&g, &ctx, &cfg, &cache, from, to, dir, budget);
            assert_eq!(got, want, "leg {i}: {from}->{to} heading {dir:?}");
        }
    }

    #[test]
    fn probabilistic_leg_respects_budget_and_is_connected() {
        let (g, ctx, cache) = setup();
        let cfg = MtShareConfig::default().with_probabilistic();
        let mut r = SegmentRouter::new(&g);
        let shortest = cache.cost(NodeId(0), NodeId(399)).unwrap();
        let budget = shortest * 2.0;
        let dir = g.point(NodeId(0)).displacement_m(&g.point(NodeId(399)));
        let leg = r
            .probabilistic_leg(&g, &ctx, &cfg, &cache, NodeId(0), NodeId(399), dir, budget)
            .unwrap();
        assert!(leg.cost_s <= budget + 1e-6);
        assert!(leg.cost_s >= shortest - 1e-6);
        // Valid walk.
        for w in leg.nodes.windows(2) {
            assert!(g.direct_edge_cost(w[0], w[1]).is_some());
        }
    }

    #[test]
    fn probabilistic_tight_budget_falls_back_to_shortest() {
        let (g, ctx, cache) = setup();
        let cfg = MtShareConfig::default().with_probabilistic();
        let mut r = SegmentRouter::new(&g);
        let shortest = cache.cost(NodeId(0), NodeId(399)).unwrap();
        let dir = g.point(NodeId(0)).displacement_m(&g.point(NodeId(399)));
        // Budget exactly the shortest cost: only the shortest path fits.
        let leg = r
            .probabilistic_leg(&g, &ctx, &cfg, &cache, NodeId(0), NodeId(399), dir, shortest)
            .unwrap();
        assert!((leg.cost_s - shortest).abs() < 1e-6);
    }

    /// The new step ②, as `probabilistic_leg_priced` runs it: the ranked
    /// paths, best first.
    fn enumerate_partition_paths(
        ctx: &MobilityContext,
        allowed: &[PartitionId],
        probs: &[f32],
        (src, dst): (PartitionId, PartitionId),
        max_hops: usize,
        max_paths: usize,
    ) -> Vec<Vec<PartitionId>> {
        let mut prob = vec![None; ctx.kappa()];
        for (&p, &x) in allowed.iter().zip(probs) {
            prob[p.index()] = Some(x);
        }
        let mut paths = PartitionPaths::default();
        paths.enumerate(&ctx.landmarks, allowed, &prob, (src, dst), max_hops, max_paths);
        paths
            .ranked
            .iter()
            .map(|&(_, i)| paths.hops[paths.ends[i]..paths.ends[i + 1]].to_vec())
            .collect()
    }

    /// Step ② as it stood before the flat buffer: a hash map of the allowed
    /// partitions and a `Vec` clone per path, ranked and truncated here. Oracle
    /// of `flat_enumeration_tries_the_same_paths_in_the_same_order`.
    fn old_enumerate_partition_paths(
        ctx: &MobilityContext,
        allowed: &[PartitionId],
        probs: &[f32],
        src: PartitionId,
        dst: PartitionId,
        max_hops: usize,
        max_paths: usize,
    ) -> Vec<Vec<PartitionId>> {
        use rustc_hash::FxHashMap;
        let index_of: FxHashMap<PartitionId, usize> =
            allowed.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        if !index_of.contains_key(&src) || !index_of.contains_key(&dst) {
            return Vec::new();
        }
        let mut out: Vec<(f32, Vec<PartitionId>)> = Vec::new();
        let mut stack = vec![src];
        let mut on_path = vec![false; allowed.len()];
        on_path[index_of[&src]] = true;

        #[allow(clippy::too_many_arguments)] // recursive helper threading search state
        fn dfs(
            ctx: &MobilityContext,
            index_of: &rustc_hash::FxHashMap<PartitionId, usize>,
            probs: &[f32],
            dst: PartitionId,
            max_hops: usize,
            max_paths: usize,
            stack: &mut Vec<PartitionId>,
            on_path: &mut Vec<bool>,
            acc: f32,
            out: &mut Vec<(f32, Vec<PartitionId>)>,
        ) {
            if out.len() >= max_paths * 4 {
                return; // enumeration cap (we keep the best max_paths below)
            }
            let cur = *stack.last().expect("non-empty");
            if cur == dst {
                out.push((acc, stack.clone()));
                return;
            }
            if stack.len() > max_hops {
                return;
            }
            for &next in ctx.landmarks.neighbors(cur) {
                if let Some(&i) = index_of.get(&next) {
                    if !on_path[i] {
                        on_path[i] = true;
                        stack.push(next);
                        dfs(
                            ctx,
                            index_of,
                            probs,
                            dst,
                            max_hops,
                            max_paths,
                            stack,
                            on_path,
                            acc + probs[i],
                            out,
                        );
                        stack.pop();
                        on_path[i] = false;
                    }
                }
            }
        }

        let acc0 = probs[index_of[&src]];
        dfs(
            ctx,
            &index_of,
            probs,
            dst,
            max_hops,
            max_paths,
            &mut stack,
            &mut on_path,
            acc0,
            &mut out,
        );
        out.sort_by(|a, b| b.0.total_cmp(&a.0));
        out.truncate(max_paths);
        out.into_iter().map(|(_, p)| p).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random retained sets, endpoints, hop and path caps and
        /// probabilities — a third of the cases all equal, so ranking is
        /// pure DFS order, another third drawn from three values, so ties
        /// are common: the flat enumeration ranks the very paths the old
        /// function returned, element for element.
        #[test]
        fn flat_enumeration_tries_the_same_paths_in_the_same_order(seed in 0u64..1_000_000) {
            static CTX: std::sync::OnceLock<Arc<MobilityContext>> = std::sync::OnceLock::new();
            let ctx = CTX.get_or_init(|| setup().1);
            let mut rng = SmallRng::seed_from_u64(seed);
            let all: Vec<_> = ctx.partitioning.partitions().collect();
            let pick = |rng: &mut SmallRng| all[rng.gen_range(0..all.len())];
            let (src, dst) = (pick(&mut rng), pick(&mut rng));
            let keep = rng.gen_range(0.3..1.0);
            let mut allowed: Vec<_> = all.iter().copied().filter(|_| rng.gen_bool(keep)).collect();
            for end in [src, dst] {
                if !allowed.contains(&end) && rng.gen_bool(0.9) {
                    allowed.push(end);
                }
            }
            let style = rng.gen_range(0..3);
            let probs: Vec<f32> = (0..allowed.len())
                .map(|_| match style {
                    0 => 0.25,
                    1 => [0.0f32, 0.125, 0.5][rng.gen_range(0..3usize)],
                    _ => rng.gen_range(0.0f32..1.0),
                })
                .collect();
            let (max_hops, max_paths) = (rng.gen_range(1..=12), rng.gen_range(1..=64));
            let got =
                enumerate_partition_paths(ctx, &allowed, &probs, (src, dst), max_hops, max_paths);
            let want =
                old_enumerate_partition_paths(ctx, &allowed, &probs, src, dst, max_hops, max_paths);
            prop_assert_eq!(got, want, "{}->{} in {:?}, {} hops, {} paths", src, dst, allowed, max_hops, max_paths);
        }
    }

    #[test]
    fn partition_path_enumeration_connects_endpoints() {
        let (g, ctx, _) = setup();
        let filtered = filter_partitions(&g, &ctx, NodeId(0), NodeId(399), -1.0, 5.0);
        let probs = vec![1.0f32; filtered.partitions.len()];
        let ends =
            (ctx.partitioning.partition_of(NodeId(0)), ctx.partitioning.partition_of(NodeId(399)));
        let paths = enumerate_partition_paths(&ctx, &filtered.partitions, &probs, ends, 12, 16);
        assert!(!paths.is_empty());
        for p in &paths {
            assert_eq!(*p.first().unwrap(), ctx.partitioning.partition_of(NodeId(0)));
            assert_eq!(*p.last().unwrap(), ctx.partitioning.partition_of(NodeId(399)));
            // Consecutive partitions adjacent.
            for w in p.windows(2) {
                assert!(ctx.landmarks.neighbors(w[0]).contains(&w[1]));
            }
            // Simple path.
            let set: std::collections::HashSet<_> = p.iter().collect();
            assert_eq!(set.len(), p.len());
        }
    }

    #[test]
    fn enumeration_ranks_by_probability() {
        let (g, ctx, _) = setup();
        let filtered = filter_partitions(&g, &ctx, NodeId(0), NodeId(399), -1.0, 5.0);
        // Give one mid partition huge probability.
        let mut probs = vec![0.01f32; filtered.partitions.len()];
        if probs.len() > 3 {
            probs[2] = 100.0;
        }
        let ends =
            (ctx.partitioning.partition_of(NodeId(0)), ctx.partitioning.partition_of(NodeId(399)));
        let paths = enumerate_partition_paths(&ctx, &filtered.partitions, &probs, ends, 12, 8);
        if paths.len() >= 2 {
            let score = |p: &Vec<PartitionId>| -> f32 {
                p.iter()
                    .map(|q| {
                        let i = filtered.partitions.iter().position(|x| x == q).unwrap();
                        probs[i]
                    })
                    .sum()
            };
            assert!(score(&paths[0]) >= score(&paths[1]));
        }
    }
}
