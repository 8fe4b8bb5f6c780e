//! Contraction-hierarchy equivalence matrix: on every synthetic city
//! shape, CH costs must equal Dijkstra and bidirectional Dijkstra *bit
//! for bit* (dyadic edge quantization makes f32 path sums associative),
//! unpacked CH paths must be valid walks resumming to the exact cost,
//! persisted hierarchies must survive a round trip and never be trusted
//! when stale or corrupt, and — end to end — the simulator's event trace
//! must be byte-identical whichever router produced the costs.

use mt_share::road::{
    grid_city, ring_radial_city, GridCityConfig, NodeId, RingRadialConfig, RoadNetwork,
};
use mt_share::routing::{BidirDijkstra, ChQuery, ContractionHierarchy, Dijkstra, Sweep};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// Every synthetic shape the road crate can generate, small enough for
/// debug-mode preprocessing.
fn shapes() -> Vec<(&'static str, Arc<RoadNetwork>)> {
    vec![
        ("grid_tiny", Arc::new(grid_city(&GridCityConfig::tiny()).unwrap())),
        (
            "grid_30x30",
            Arc::new(
                grid_city(&GridCityConfig { rows: 30, cols: 30, ..Default::default() }).unwrap(),
            ),
        ),
        ("ring_radial", Arc::new(ring_radial_city(&RingRadialConfig::default()).unwrap())),
    ]
}

#[test]
fn ch_costs_equal_both_dijkstras_on_every_shape() {
    for (name, graph) in shapes() {
        let ch = Arc::new(ContractionHierarchy::build(&graph, 2));
        let mut q = ChQuery::new(ch);
        let mut d = Dijkstra::new(&graph);
        let mut bi = BidirDijkstra::new(&graph);
        let mut rng = SmallRng::seed_from_u64(17);
        let n = graph.node_count() as u32;
        for _ in 0..120 {
            let s = NodeId(rng.gen_range(0..n));
            let t = NodeId(rng.gen_range(0..n));
            let want = d.cost(&graph, s, t);
            assert_eq!(bi.cost(&graph, s, t), want, "{name}: bidir vs dijkstra {s}->{t}");
            assert_eq!(q.cost(s, t), want, "{name}: ch vs dijkstra {s}->{t}");
        }
    }
}

/// Regression for the parallel builder's same-round tie: on the default
/// 64×64 seed-7 city two non-adjacent vertices selected in one round each
/// took the other as an equal-cost witness and both omitted the shortcut,
/// over-pricing ~0.1 % of pairs (1788→1226 by 1.1875 s).
#[test]
fn ch_is_exact_on_the_64x64_seed_7_city() {
    let cfg = GridCityConfig { rows: 64, cols: 64, seed: 7, ..GridCityConfig::default() };
    let graph = Arc::new(grid_city(&cfg).unwrap());
    let mut q = ChQuery::new(Arc::new(ContractionHierarchy::build(&graph, 2)));
    let mut d = Dijkstra::new(&graph);
    let (s, t) = (NodeId(1788), NodeId(1226));
    assert_eq!(d.cost(&graph, s, t), Some(1702.90625));
    assert_eq!(q.cost(s, t), Some(1702.90625), "the pair PR 12's bench found");

    // Strided one-to-all sweep: every 97th source against every 13th
    // target, ~13 k pairs spread over the whole city.
    let mut want = Vec::new();
    let mut sweep = Sweep::forward(&graph);
    for s in graph.nodes().step_by(97) {
        sweep.run(s, &mut want);
        for t in graph.nodes().step_by(13) {
            let w = want[t.index()];
            assert_eq!(q.cost(s, t), w.is_finite().then_some(f64::from(w)), "{s}->{t}");
        }
    }
}

#[test]
fn artifact_round_trips_and_stale_or_corrupt_copies_are_rebuilt() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ch-artifacts");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("hierarchy.mtch");

    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let built = ContractionHierarchy::build(&graph, 2);
    built.save(&file).unwrap();

    // Round trip: the loaded hierarchy answers identically.
    let loaded = ContractionHierarchy::load(&file, &graph).unwrap();
    assert_eq!(loaded.shortcut_count(), built.shortcut_count());
    let (mut qa, mut qb) = (ChQuery::new(Arc::new(built)), ChQuery::new(Arc::new(loaded)));
    for (s, t) in [(0u32, 399u32), (37, 201), (399, 0), (5, 5)] {
        assert_eq!(qa.cost(NodeId(s), NodeId(t)), qb.cost(NodeId(s), NodeId(t)));
    }

    // Stale: an artifact built for a *different* graph must be rejected...
    let other =
        Arc::new(grid_city(&GridCityConfig { seed: 991, ..GridCityConfig::tiny() }).unwrap());
    assert_ne!(graph.digest(), other.digest(), "seed must change the digest");
    assert!(ContractionHierarchy::load(&file, &other).is_err());
    // ...and load_or_build falls back to a correct rebuild.
    let (rebuilt, was_rebuilt) = ContractionHierarchy::load_or_build(&file, &other, 2).unwrap();
    assert!(was_rebuilt);
    assert_eq!(rebuilt.graph_digest(), other.digest());

    // Corrupt: truncate the (re-saved) artifact mid-frame.
    let bytes = std::fs::read(&file).unwrap();
    std::fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();
    assert!(ContractionHierarchy::load(&file, &other).is_err());
    let (recovered, was_rebuilt) = ContractionHierarchy::load_or_build(&file, &other, 2).unwrap();
    assert!(was_rebuilt);
    assert_eq!(recovered.graph_digest(), other.digest());
}

/// A healthy artifact from an *incompatible format version* is the one
/// corruption mode that must never trigger the silent rebuild-and-clobber
/// path: the CLI refuses it with a clear message and exit code 2, and the
/// file is left byte-for-byte intact.
#[test]
fn version_mismatched_artifact_exits_2_and_is_left_intact() {
    use mt_share::persist::{write_snapshot, Encoder};
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("artifact-version");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (router, tag) in [("ch", b"MTCH"), ("cch", b"MTCC")] {
        let file = dir.join(format!("{router}.mtsnap"));
        let mut enc = Encoder::new();
        enc.bytes(tag);
        enc.u32(1); // a format version this build does not read
        enc.u64(0);
        write_snapshot(&file, &enc.into_bytes()).unwrap();
        let before = std::fs::read(&file).unwrap();

        let out = Command::new(env!("CARGO_BIN_EXE_mtshare"))
            .args([
                "simulate",
                "--scheme",
                "no-sharing",
                "--rows",
                "8",
                "--cols",
                "8",
                "--taxis",
                "2",
                "--requests",
                "5",
                "--router",
                router,
                "--ch-artifact",
                file.to_str().unwrap(),
            ])
            .output()
            .expect("spawn mtshare");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "router={router}: {err}");
        assert!(err.contains("version 1"), "router={router}: {err}");
        assert_eq!(std::fs::read(&file).unwrap(), before, "router={router}: file clobbered");
    }
}

fn simulate(dir: &Path, router: &str, trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mtshare"))
        .current_dir(dir)
        .args([
            "simulate",
            "--scheme",
            "mt-share",
            "--rows",
            "20",
            "--cols",
            "20",
            "--taxis",
            "15",
            "--requests",
            "150",
            "--nonpeak",
            "--router",
            router,
            "--trace-out",
            trace,
        ])
        .output()
        .expect("spawn mtshare");
    assert!(out.status.success(), "router={router}: {}", String::from_utf8_lossy(&out.stderr));
}

/// A traffic shift is a live metric under every router that can follow
/// it: bidir re-customizes as cch does, so their traces agree byte for
/// byte with shifts in the mix (DESIGN.md, "Fault model & recovery").
#[test]
fn bidir_and_cch_traces_agree_under_traffic_shifts() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("shift-trace-diff");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for seed in ["3", "5", "9"] {
        for router in ["bidir", "cch"] {
            let out = Command::new(env!("CARGO_BIN_EXE_mtshare"))
                .current_dir(&dir)
                .args(["simulate", "--taxis", "80", "--requests", "600", "--router", router])
                .args(["--chaos-seed", seed, "--disruptions", "breakdowns=1,cancels=2,shifts=3"])
                .args(["--trace-out", &format!("{router}.jsonl")])
                .output()
                .expect("spawn mtshare");
            assert!(out.status.success(), "{router}: {}", String::from_utf8_lossy(&out.stderr));
        }
        let bidir = std::fs::read(dir.join("bidir.jsonl")).unwrap();
        assert!(!bidir.is_empty());
        assert!(bidir == std::fs::read(dir.join("cch.jsonl")).unwrap(), "seed {seed}");
    }
}

/// The end-to-end correctness bar: swapping the exact cost engine must
/// not move a single byte of the trace.
#[test]
fn traces_are_byte_identical_across_routers() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ch-trace-diff");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for router in ["bidir", "ch", "cch"] {
        simulate(&dir, router, &format!("{router}.jsonl"));
    }

    let reference = std::fs::read(dir.join("bidir.jsonl")).unwrap();
    assert!(!reference.is_empty(), "baseline trace must not be empty");
    for other in ["ch.jsonl", "cch.jsonl"] {
        let got = std::fs::read(dir.join(other)).unwrap();
        assert!(got == reference, "{other} diverges from the bidir baseline trace");
    }
}
