//! Open-loop trace validation: measure the **error envelope** of replaying
//! an app's baseline request trace (replayed vs execution-driven results)
//! and the replay speedup per app. To capture or replay a trace file, use
//! `lazydram capture` / `lazydram replay`.
//!
//! ```text
//! dbg_trace envelope APP [SCALE]         replayed-vs-executed error per scheme
//! dbg_trace sweep APP [SCALE]            timed fig04 delay sweep: executed vs replayed
//! ```
//!
//! Default `SCALE` is 0.1. `envelope` is the harness behind the documented
//! replay accuracy numbers (EXPERIMENTS.md): open-loop replay loses the
//! closed-loop timing feedback (a delayed scheduler slows the GPU down,
//! which reshapes the arrival stream), so DRAM-side metrics differ from the
//! execution-driven run; this tool quantifies by how much.

use lazydram_bench::{print_table, SimBuilder};
use lazydram_common::{DmsMode, GpuConfig, SchedConfig, Scheme, SimStats};
use lazydram_energy::{EnergyModel, MemoryTech};
use lazydram_gpu::{Trace, TraceSim};
use lazydram_workloads::{by_name, AppSpec};
use std::time::Instant;

fn app_or_exit(name: &str) -> AppSpec {
    by_name(name).unwrap_or_else(|| {
        eprintln!("unknown app {name:?}");
        std::process::exit(2);
    })
}

fn parse_scale(args: &[String], at: usize) -> f64 {
    args.get(at).map_or(0.1, |s| {
        s.parse().unwrap_or_else(|e| {
            eprintln!("bad scale {s:?}: {e}");
            std::process::exit(2);
        })
    })
}

/// Captures the app's baseline request stream, which both subcommands
/// replay under every candidate scheme.
fn capture(app: &AppSpec, scale: f64) -> (Trace, f64) {
    let t0 = Instant::now();
    let r = SimBuilder::new(app).scheme(Scheme::Baseline).scale(scale).trace(true).build().run();
    (r.trace.expect("capture enabled"), t0.elapsed().as_secs_f64())
}

fn rel_err(replayed: f64, executed: f64) -> f64 {
    if executed == 0.0 {
        if replayed == 0.0 { 0.0 } else { f64::INFINITY }
    } else {
        (replayed - executed).abs() / executed
    }
}

fn row_energy(stats: &SimStats) -> f64 {
    EnergyModel::new(MemoryTech::Gddr5).breakdown(&stats.dram).row_energy_pj
}

/// The validation harness: for every paper scheme, compare the
/// execution-driven run against an open-loop replay of the baseline trace.
fn cmd_envelope(app: &AppSpec, scale: f64) {
    let cfg = GpuConfig::default();
    let (trace, _) = capture(app, scale);
    println!(
        "{}: replayed-vs-executed error envelope (scale {scale}, {} recorded requests)",
        app.name,
        trace.len()
    );
    let mut rows = Vec::new();
    let mut worst: f64 = 0.0;
    for scheme in Scheme::PAPER {
        let exec = SimBuilder::new(app).scheme(scheme).scale(scale).build().run().stats;
        let report = TraceSim::new(&cfg, &scheme.sched())
            .replay(&trace)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.unserved, 0, "replay must serve every request");
        let act = rel_err(report.stats.dram.activations as f64, exec.dram.activations as f64);
        let rbl = rel_err(report.stats.dram.avg_rbl(), exec.dram.avg_rbl());
        let nrg = rel_err(row_energy(&report.stats), row_energy(&exec));
        worst = worst.max(act).max(rbl).max(nrg);
        rows.push(vec![
            scheme.label().to_string(),
            exec.dram.activations.to_string(),
            report.stats.dram.activations.to_string(),
            format!("{:.1}%", 100.0 * act),
            format!("{:.1}%", 100.0 * rbl),
            format!("{:.1}%", 100.0 * nrg),
        ]);
    }
    print_table(
        &format!("{} open-loop error envelope", app.name),
        &["scheme", "exec acts", "replay acts", "act err", "rbl err", "energy err"],
        &rows,
    );
    println!("\nworst relative error across schemes/metrics: {:.1}%", 100.0 * worst);
}

/// Timed fig04-style delay sweep, executed vs capture-once-replay-many.
fn cmd_sweep(app: &AppSpec, scale: f64) {
    let cfg = GpuConfig::default();
    let delays = [64u32, 128, 256, 512, 1024, 2048];
    let (trace, capture_s) = capture(app, scale);
    let mut exec_s = 0.0;
    let mut replay_s = 0.0;
    let mut rows = Vec::new();
    for &x in &delays {
        let sched = SchedConfig { dms: DmsMode::Static(x), ..SchedConfig::baseline() };
        let t0 = Instant::now();
        let exec =
            SimBuilder::new(app).sched(sched.clone(), format!("DMS({x})")).scale(scale).build().run().stats;
        let te = t0.elapsed().as_secs_f64();
        exec_s += te;
        let t0 = Instant::now();
        let report = TraceSim::new(&cfg, &sched).replay(&trace).unwrap_or_else(|e| panic!("{e}"));
        let tr = t0.elapsed().as_secs_f64();
        replay_s += tr;
        assert_eq!(report.unserved, 0, "replay must serve every request");
        rows.push(vec![
            format!("DMS({x})"),
            format!("{te:.3}s"),
            format!("{tr:.3}s"),
            format!("{:.1}x", te / tr.max(1e-9)),
            format!(
                "{:.1}%",
                100.0 * rel_err(report.stats.dram.activations as f64, exec.dram.activations as f64)
            ),
        ]);
    }
    print_table(
        &format!("{} delay sweep: executed vs replayed (scale {scale})", app.name),
        &["cell", "exec", "replay", "speedup", "act err"],
        &rows,
    );
    println!(
        "\nsweep totals: executed {exec_s:.3}s, replayed {replay_s:.3}s \
         ({:.1}x; {:.1}x counting the {capture_s:.3}s capture run)",
        exec_s / replay_s.max(1e-9),
        exec_s / (replay_s + capture_s).max(1e-9),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("envelope") if args.len() >= 2 => {
            cmd_envelope(&app_or_exit(&args[1]), parse_scale(&args, 2));
        }
        Some("sweep") if args.len() >= 2 => {
            cmd_sweep(&app_or_exit(&args[1]), parse_scale(&args, 2));
        }
        _ => {
            eprintln!("usage: dbg_trace <envelope APP [SCALE] | sweep APP [SCALE]>");
            std::process::exit(2);
        }
    }
}
