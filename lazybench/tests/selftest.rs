//! Self-tests of the benchmark's own machinery, at a tiny scale.

use lazybench::{cell_digest, parse_pins, refuse_knobs, replay_core, replay_dram};
use lazydram_common::{DramPreset, Scheme, SimStats};
use lazydram_workloads::{by_name, SimBuilder};

/// A small MVT cell under Dyn-DMS+Dyn-AMS: DMS delays and AMS drops are
/// both active, so both replayers see drops, delays and writes.
fn tiny_cell(preset: DramPreset) -> (SimStats, lazydram_gpu::Trace) {
    let app = by_name("MVT").expect("MVT is a suite app");
    let r = SimBuilder::new(&app)
        .preset(preset)
        .scheme(Scheme::DynCombo)
        .scale(0.25)
        .trace(true)
        .build()
        .run();
    (r.stats, r.trace.expect("capture was requested"))
}

#[test]
fn both_replayers_account_for_every_request() {
    // GDDR5 (Table I) never refreshes; DDR4 does, which exercises the REF
    // path of the DRAM replayer.
    for preset in [DramPreset::Gddr5, DramPreset::Ddr4] {
        let (stats, trace) = tiny_cell(preset);
        assert!(!trace.is_empty());
        assert_eq!(trace.len() as u64, stats.dram.requests_received);
        let cfg = preset.gpu_config();

        let core = replay_core(&trace, &cfg, &Scheme::DynCombo.sched());
        assert_eq!(core.requests, trace.len() as u64);
        assert_eq!(
            core.served + core.dropped,
            core.requests,
            "{preset}: {core:?}"
        );
        assert!(
            core.dropped > 0,
            "{preset}: AMS should drop part of the stream: {core:?}"
        );

        let dram = replay_dram(&trace, &cfg);
        assert_eq!(dram.requests, trace.len() as u64);
        assert_eq!(dram.served, dram.requests, "{preset}: {dram:?}");
        assert!(dram.activations > 0 && dram.commands >= dram.served + dram.activations);
        assert_eq!(
            dram.refreshes > 0,
            preset == DramPreset::Ddr4,
            "{preset}: {dram:?}"
        );
    }
}

#[test]
fn digest_ignores_loop_diagnostics_but_not_modelled_stats() {
    let (stats, _) = tiny_cell(DramPreset::Gddr5);
    let pinned = cell_digest(&stats, 0.01);

    let mut diag = stats.clone();
    diag.cycles_skipped += 17;
    diag.compute_cycles_skipped += 5;
    diag.ticks_executed -= 3;
    diag.ams_accepts += 1;
    diag.ams_declines.push(9);
    diag.prof.secs[0] += 1.5;
    assert_eq!(cell_digest(&diag, 0.01), pinned);

    let mut acts = stats.clone();
    acts.dram.activations += 1;
    assert_ne!(cell_digest(&acts, 0.01), pinned);

    let mut rbl = stats.clone();
    rbl.dram.rbl.record(3);
    assert_ne!(cell_digest(&rbl, 0.01), pinned);

    assert_ne!(cell_digest(&stats, 0.010_000_1), pinned);
}

#[test]
fn a_set_lazydram_variable_is_refused() {
    let env = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    assert!(refuse_knobs(env(&[("PATH", "/bin"), ("HOME", "/h")])).is_ok());
    let err = refuse_knobs(env(&[
        ("PATH", "/bin"),
        ("LAZYDRAM_NO_SKIP", "1"),
        ("LAZYDRAM_JOBS", "2"),
    ]))
    .unwrap_err();
    assert!(err.contains("LAZYDRAM_JOBS, LAZYDRAM_NO_SKIP"), "{err}");

    // The binary refuses before doing any work and prints no result.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lazybench"))
        .args([
            "--workload",
            "mvt_lazy",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(["--work-dir", "unused-work-dir"])
        .env("LAZYDRAM_CORES", "1")
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("LAZYDRAM_CORES"));
}

#[test]
fn pins_cover_every_benchmarked_cell() {
    let pins = parse_pins(include_str!("../pins.txt")).expect("pins.txt parses");
    assert_eq!(pins.len(), 77 + 2);
    for (app, scheme) in [
        ("GEMM", "Dyn-DMS"),
        ("GEMM", "baseline"),
        ("MVT", "Dyn-DMS+Dyn-AMS"),
    ] {
        assert!(
            pins.contains_key(&(app.to_string(), scheme.to_string())),
            "{app}/{scheme}"
        );
    }
    assert!(parse_pins("GEMM\tbaseline\tzz\t1.0\t1.0").is_err());
    assert!(parse_pins("GEMM\tbaseline\t00ff\t1.0").is_err());
}
