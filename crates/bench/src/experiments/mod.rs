//! One runner per table and figure of the paper's evaluation (Sec. V).
//!
//! Every experiment returns an [`ExperimentResult`] whose table holds the
//! same rows/series the paper reports; `run_all` regenerates
//! `EXPERIMENTS.md`. Absolute numbers differ from the paper (synthetic
//! city, scaled fleet — see DESIGN.md), the *shapes* are what must hold.

pub mod batch;
pub mod fig05;
pub mod fig16;
pub mod fig21;
pub mod memory;
pub mod nonpeak;
pub mod partition_ablation;
pub mod peak;
pub mod sweeps;
#[cfg(test)]
mod tests;

use crate::runner::Env;
use crate::table::Table;

/// Output of one experiment runner.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `fig6`, `tab3`).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// What the paper reports (the shape to check against).
    pub paper_expectation: String,
    /// The regenerated rows.
    pub table: Table,
    /// Observations about the measured shape.
    pub notes: Vec<String>,
}

impl std::fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        writeln!(f, "paper: {}", self.paper_expectation)?;
        writeln!(f, "{}", self.table.to_text())?;
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        Ok(())
    }
}

/// All experiment ids in paper order.
pub const ALL_IDS: &[&str] = &[
    "fig5", "fig6", "fig7", "tab3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "tab4",
    "fig14a", "fig14b", "tab5", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "batch",
];

/// Runs the experiment(s) behind `id`. Group runners (the peak/non-peak
/// sweeps) return several figures at once; requesting any member id
/// returns the full group.
pub fn run_experiment(env: &Env, id: &str) -> Vec<ExperimentResult> {
    match id {
        "fig5" => vec![fig05::run(env)],
        "fig6" | "fig7" | "tab3" | "fig8" | "fig9" | "peak" => peak::run(env),
        "fig10" | "fig11" | "fig12" | "fig13" | "nonpeak" => nonpeak::run(env),
        "tab4" => vec![memory::run(env)],
        "fig14a" => vec![partition_ablation::run_kappa(env)],
        "fig14b" => vec![sweeps::run_capacity(env)],
        "tab5" => vec![partition_ablation::run_strategies(env)],
        "fig15" => vec![sweeps::run_gamma(env)],
        "fig16" => vec![fig16::run(env)],
        "fig17" | "fig18" | "fig19" | "rho" => sweeps::run_rho(env),
        "fig20" => vec![sweeps::run_lambda(env)],
        "fig21" => vec![fig21::run(env)],
        "batch" => vec![batch::run(env)],
        other => panic!("unknown experiment id: {other} (known: {ALL_IDS:?})"),
    }
}

/// Runs every experiment once (group runners are executed a single time).
pub fn run_all(env: &Env) -> Vec<ExperimentResult> {
    let mut out = Vec::new();
    out.push(fig05::run(env));
    out.extend(peak::run(env));
    out.extend(nonpeak::run(env));
    out.push(memory::run(env));
    out.push(partition_ablation::run_kappa(env));
    out.push(sweeps::run_capacity(env));
    out.push(partition_ablation::run_strategies(env));
    out.push(sweeps::run_gamma(env));
    out.push(fig16::run(env));
    out.extend(sweeps::run_rho(env));
    out.push(sweeps::run_lambda(env));
    out.push(fig21::run(env));
    out.push(batch::run(env));
    out
}

/// Standing assessment of which paper claims reproduce at this scale,
/// written into every EXPERIMENTS.md regeneration.
const REPRODUCTION_STATUS: &str = "\
## Reproduction status (summary)

**Reproduces (shape and rough factor):**

- Table III — candidate-set ordering and magnitudes: No-Sharing < T-Share
  < mT-Share < pGreedyDP, in the paper's numeric range.
- Figs. 6/10 macro shape — ridesharing serves ~1.8-2.1x No-Sharing; served
  counts grow concavely with fleet under fixed demand; mT-Share ties or
  leads the sharing baselines.
- Fig. 14(b) — capacity ⇒ served, monotone (stronger than the paper's +12%).
- Figs. 17/18 — waiting and detour grow with ρ; served saturates.
- Fig. 19 — ridesharing saves rider fares and raises driver income; the
  driver side (~+13%) is near the paper's +7.8%, the rider side overshoots
  (flag-fall tariff amplifies pooled benefit at our shorter trip lengths).
- Fig. 21 — execution time scales linearly in data volume; response time flat.
- Fig. 5 — trip travel-time distribution (p50 ≈ 16 min vs paper's 15).

**Partially reproduces / documented gaps:**

- Figs. 6/10 margins: the paper's mT-Share serves +36-62% over the
  baselines; here it ties or wins by ~1-3%. Our baselines share the same
  exact insertion operator, fresh position indexes, and O(1) cost oracle,
  which closes most of the implementation gap the paper measured. The
  candidate-quality advantages (future-arrival indexing, direction
  filtering) survive in Table III but no longer translate into served-count
  dominance once every scheme matches near the feasibility ceiling.
- Fig. 7 — response ordering: with the shared O(1) oracle, per-request cost
  tracks candidate-set size times insertion cost for every scheme, so
  pGreedyDP is nowhere near the paper's 4-10x slower than mT-Share (the
  fig7 note has the measured ratio; all schemes answer in well under a
  millisecond at this scale).
- Fig. 16 / Fig. 10 (mT-Share_pro): probabilistic routing's offline gain
  is mechanical in the paper's sparse-coverage regime but our ~30x smaller
  map is route-saturated — basic routes already pass the demand corridors,
  so extra encounters are not the binding constraint. The gain appears
  weakly (+5-8%) only at the smallest fleets.
- Fig. 11 — mT-Share_pro responds slower than mT-Share, but by far more
  than the paper's 2.5-4.5x, and pGreedyDP answers faster than it where the
  paper has pGreedyDP slower: at 600 taxis pro/mT-Share read 10.17 and
  13.51 in two regenerations, pGreedyDP/pro 0.14 and 0.12 (6.92 and 0.17
  while basic legs still ran the partition filter, which slowed mT-Share
  alone). Every basic leg is read
  off a pinned vector; an Alg. 4 leg filters partitions and runs up to
  five masked, weighted searches.
- Table V / Fig. 14(a): bipartite-vs-grid and the κ optimum are nearly flat
  here; candidate search via partition-circle intersection over-covers at
  small κ, masking the paper's interior optimum.
- Figs. 8/12 — detour ordering: the paper has T-Share smallest, mT-Share
  a close second and pGreedyDP ≈ 2x T-Share. At 600 taxis the peak order
  is mT-Share 1.72 < pGreedyDP 1.83 < T-Share 2.03 min (T-Share is the
  largest from 300 taxis up); non-peak is T-Share 1.69 ≤ mT-Share 1.72 <
  pGreedyDP 1.79 < mT-Share_pro 1.83 min. Every sharing scheme sits within
  0.4 min of the others, nowhere near the paper's 2x spread.
- Figs. 9/13 — waiting decreases with fleet as in the paper, but the
  mT-Share − pGreedyDP gap has the opposite sign: at 600 taxis -0.52 min
  in peak (3.44 vs 3.96; paper: mT-Share slightly above, gap < 0.5) and
  -0.26 in non-peak (3.54 vs 3.80). mT-Share_pro waits 3.58 min, below
  pGreedyDP instead of ~2 min above it.

";

/// Renders all results into the EXPERIMENTS.md body.
pub fn render_markdown(scale_name: &str, commit: &str, results: &[ExperimentResult]) -> String {
    let mut md = String::new();
    md.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    md.push_str(&format!(
        "Regenerated by `cargo run --release -p mtshare-bench --bin experiments -- all`\n\
         at scale `{scale_name}` from commit `{commit}` (see DESIGN.md for the scaling\n\
         substitutions).\n\n"
    ));
    md.push_str(REPRODUCTION_STATUS);
    for r in results {
        md.push_str(&format!("## {} — {}\n\n", r.id, r.title));
        md.push_str(&format!("**Paper:** {}\n\n", r.paper_expectation));
        md.push_str(&r.table.to_markdown());
        md.push('\n');
        for n in &r.notes {
            md.push_str(&format!("- {n}\n"));
        }
        md.push('\n');
    }
    md
}
