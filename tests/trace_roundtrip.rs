//! Trace capture + replay at the application level.

use lazydram::common::{AccessKind, GpuConfig, SchedConfig};
use lazydram::workloads::by_name;
use lazydram::{Scheme, SimBuilder, Trace, TraceSim};

#[test]
fn captured_trace_replays_with_matching_request_counts() {
    let app = by_name("CONS").expect("app");
    let cfg = GpuConfig::default();
    let run = SimBuilder::new(&app)
        .scheme(Scheme::Baseline)
        .scale(0.05)
        .trace(true)
        .build()
        .run();
    let trace = run.trace.expect("capture enabled");
    assert_eq!(
        trace.len() as u64,
        run.stats.dram.requests_received,
        "trace records every controller request"
    );
    // Replay through a fresh scheduler: same requests served.
    let stats = trace.replay(&cfg, &SchedConfig::baseline());
    assert_eq!(stats.dram.requests_received, run.stats.dram.requests_received);
    assert_eq!(
        stats.dram.reads + stats.dram.writes,
        run.stats.dram.reads + run.stats.dram.writes
    );
    // Open-loop replay sees the same address stream: activation counts land
    // in the same ballpark as the closed-loop run.
    let a = stats.dram.activations as f64;
    let b = run.stats.dram.activations as f64;
    assert!(a / b > 0.5 && a / b < 2.0, "replay acts {a} vs run acts {b}");
}

#[test]
fn trace_capture_off_by_default() {
    let app = by_name("CONS").expect("app");
    let run = SimBuilder::new(&app).scheme(Scheme::Baseline).scale(0.05).build().run();
    assert!(run.trace.is_none());
}

/// A baseline capture replays under every fig04 delay with no request left
/// unserved or lost, and delaying does not raise activations beyond noise.
#[test]
fn trace_replay_responds_to_dms() {
    let cfg = GpuConfig::default();
    for app in ["SCP", "SLA"] {
        let trace = capture(app, 0.1);
        let base = TraceSim::new(&cfg, &SchedConfig::baseline()).replay(&trace).expect("replay");
        assert_eq!(base.unserved, 0, "{app}: baseline replay left requests unserved");
        for delay in [64u32, 128, 256, 512, 1024, 2048] {
            let sched = SchedConfig {
                dms: lazydram::common::DmsMode::Static(delay),
                ..SchedConfig::baseline()
            };
            let dms = TraceSim::new(&cfg, &sched).replay(&trace).expect("replay");
            assert_eq!(dms.unserved, 0, "{app}/DMS({delay}): requests left unserved");
            assert_eq!(
                dms.stats.dram.reads + dms.stats.dram.writes,
                base.stats.dram.reads + base.stats.dram.writes,
                "{app}/DMS({delay}): the delayed replay lost requests"
            );
            assert!(
                (dms.stats.dram.activations as f64) < 1.15 * base.stats.dram.activations as f64,
                "{app}/DMS({delay}): replay acts {} vs {}",
                dms.stats.dram.activations,
                base.stats.dram.activations
            );
        }
    }
}

fn capture(app_name: &str, scale: f64) -> Trace {
    let app = by_name(app_name).expect("app");
    SimBuilder::new(&app)
        .scheme(Scheme::Baseline)
        .scale(scale)
        .trace(true)
        .build()
        .run()
        .trace
        .expect("capture enabled")
}

/// The full persistence path: save to an actual file, load it back, and
/// check the replay is byte-identical in its DRAM statistics.
#[test]
fn trace_survives_a_file_round_trip_with_identical_replay_stats() {
    let cfg = GpuConfig::default();
    let trace = capture("SCP", 0.05);
    let path = std::env::temp_dir().join(format!(
        "lazydram-roundtrip-{}-{}.trace",
        std::process::id(),
        trace.len()
    ));
    trace.save_file(&path, &cfg).expect("save");
    let loaded = Trace::load_file(&path, &cfg).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, trace, "file round-trip preserves every entry");
    let sched = SchedConfig {
        dms: lazydram::common::DmsMode::Static(256),
        ..SchedConfig::baseline()
    };
    let a = TraceSim::new(&cfg, &sched).replay(&trace).expect("replay original");
    let b = TraceSim::new(&cfg, &sched).replay(&loaded).expect("replay loaded");
    assert_eq!(a.stats.dram, b.stats.dram, "replayed stats are byte-identical");
    assert_eq!((a.served, a.unserved), (b.served, b.unserved));
    assert_eq!(a.unserved, 0);
}

/// Write requests must survive capture and replay — the original replayer
/// was only ever exercised on read-dominated streams.
#[test]
fn write_requests_replay_fully() {
    let cfg = GpuConfig::default();
    let trace = capture("CONS", 0.05);
    let writes_recorded =
        trace.iter().filter(|e| e.request.kind == AccessKind::Write).count() as u64;
    assert!(writes_recorded > 0, "CONS's trace must contain write requests");
    let report = TraceSim::new(&cfg, &SchedConfig::baseline()).replay(&trace).expect("replay");
    assert_eq!(report.unserved, 0, "no request may be dropped");
    assert_eq!(report.stats.dram.writes, writes_recorded, "every write is served");
    assert_eq!(
        report.stats.dram.reads + report.stats.dram.writes,
        trace.len() as u64
    );
}

/// Approximable lines must keep their annotation through the persistence
/// path so an AMS replay can drop them — and dropped-by-AMS still counts
/// as served, not lost.
#[test]
fn approximable_lines_replay_under_ams() {
    let cfg = GpuConfig::default();
    let trace = capture("SCP", 0.05);
    assert!(
        trace.iter().any(|e| e.request.approximable),
        "SCP's trace must carry approximable lines"
    );
    let sched = SchedConfig {
        ams: lazydram::common::AmsMode::Static(4),
        ams_warmup_requests: 0,
        ..SchedConfig::baseline()
    };
    let report = TraceSim::new(&cfg, &sched).replay(&trace).expect("replay");
    assert!(report.stats.dram.dropped > 0, "AMS must approximate some lines");
    assert_eq!(report.unserved, 0, "AMS drops count as served, not unserved");
    assert_eq!(
        report.served,
        report.stats.dram.reads + report.stats.dram.writes + report.stats.dram.dropped
    );
}
