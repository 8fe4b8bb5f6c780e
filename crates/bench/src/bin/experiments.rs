//! CLI: regenerate the paper's tables and figures.
//!
//! Usage:
//!   experiments `<id>`...    run specific experiments (fig6, tab3, ...)
//!   experiments all          run everything and rewrite EXPERIMENTS.md
//!   experiments list         list known ids
//!
//! `MTSHARE_SCALE=small` selects the CI scale.

use mtshare_bench::experiments::{render_markdown, run_all, run_experiment, ALL_IDS};
use mtshare_bench::{Env, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" {
        eprintln!("known experiments: {ALL_IDS:?} (or `all`)");
        if args.is_empty() {
            std::process::exit(2);
        }
        return;
    }
    let scale = Scale::from_env();
    eprintln!(
        "[experiments] scale={} city={}x{} fleets={:?}",
        scale.name, scale.city.rows, scale.city.cols, scale.fleets
    );
    let env = Env::new(scale.clone());

    if args.iter().any(|a| a == "all") {
        let t0 = std::time::Instant::now();
        let results = run_all(&env);
        for r in &results {
            println!("{r}");
        }
        let root =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace");
        // The commit whose code produced the numbers; `unknown` without git.
        let describe = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .current_dir(root)
            .output();
        let commit = match &describe {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout),
            _ => "unknown".into(),
        };
        let md = render_markdown(scale.name, commit.trim(), &results);
        let path = root.join("EXPERIMENTS.md");
        std::fs::write(&path, md).expect("write EXPERIMENTS.md");
        eprintln!(
            "[experiments] wrote {} ({} results) in {:.1}s",
            path.display(),
            results.len(),
            t0.elapsed().as_secs_f64()
        );
        return;
    }

    let mut seen = std::collections::HashSet::new();
    for id in &args {
        for r in run_experiment(&env, id) {
            if seen.insert(r.id) {
                println!("{r}");
            }
        }
    }
}
