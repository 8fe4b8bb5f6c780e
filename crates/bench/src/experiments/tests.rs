//! Smoke tests for the experiment harness at the CI scale.

use super::*;
use crate::runner::Env;
use crate::scale::Scale;

fn tiny_env() -> Env {
    let mut scale = Scale::small();
    // Shrink further: smoke tests only check plumbing, not shapes.
    scale.fleets = vec![8];
    scale.default_fleet = 8;
    scale.peak_requests = 60;
    scale.nonpeak_requests = 40;
    scale.n_historical = 800;
    scale.kappa = 8;
    scale.kappa_sweep = vec![4, 8];
    Env::new(scale)
}

#[test]
fn fig5_produces_24_hour_profile() {
    let env = tiny_env();
    let r = fig05::run(&env);
    assert_eq!(r.id, "fig5");
    assert_eq!(r.table.len(), 24);
    assert!(!r.notes.is_empty());
    // Renders in both formats.
    assert!(r.to_string().contains("fig5"));
    assert!(r.table.to_markdown().contains("| hour |"));
}

#[test]
fn peak_group_emits_all_five_results() {
    let env = tiny_env();
    let results = peak::run(&env);
    let ids: Vec<&str> = results.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec!["fig6", "fig7", "tab3", "fig8", "fig9"]);
    for r in &results {
        assert_eq!(r.table.len(), env.scale.fleets.len(), "{}", r.id);
    }
}

#[test]
fn run_experiment_dispatches_group_members() {
    let env = tiny_env();
    // Any member id returns the whole group.
    let via_member = run_experiment(&env, "tab3");
    assert_eq!(via_member.len(), 5);
}

#[test]
#[should_panic(expected = "unknown experiment id")]
fn unknown_id_panics_with_catalogue() {
    let env = tiny_env();
    let _ = run_experiment(&env, "fig99");
}

#[test]
fn markdown_rendering_includes_status_and_tables() {
    let env = tiny_env();
    let results = vec![fig05::run(&env)];
    let md = render_markdown("small", "abc1234-dirty", &results);
    assert!(md.starts_with("# EXPERIMENTS"));
    assert!(md.contains("from commit `abc1234-dirty`"));
    assert!(md.contains("Reproduction status"));
    assert!(md.contains("## fig5"));
    assert!(md.contains("**Paper:**"));
}

#[test]
fn all_ids_are_covered_by_the_registry() {
    // Every advertised id must dispatch without panicking on lookup
    // (we only execute the cheapest one above; here we just check the
    // match arms exist by probing the catalogue).
    for id in ALL_IDS {
        assert!(
            matches!(
                *id,
                "fig5"
                    | "fig6"
                    | "fig7"
                    | "tab3"
                    | "fig8"
                    | "fig9"
                    | "fig10"
                    | "fig11"
                    | "fig12"
                    | "fig13"
                    | "tab4"
                    | "fig14a"
                    | "fig14b"
                    | "tab5"
                    | "fig15"
                    | "fig16"
                    | "fig17"
                    | "fig18"
                    | "fig19"
                    | "fig20"
                    | "fig21"
                    | "batch"
            ),
            "unknown id in catalogue: {id}"
        );
    }
}
