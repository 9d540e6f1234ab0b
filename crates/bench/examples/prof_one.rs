//! Profile one sweep cell: run a single app/scheme/scale combination
//! (min-of-3 wall clock) and print the simulator's per-phase split.
//! The workhorse for localizing hot-path regressions without running the
//! whole perf_smoke suite. Usage:
//!   cargo run --release -p lazydram-bench --features prof --example prof_one -- SLA baseline 0.2
use lazydram_bench::SimBuilder;
use lazydram_common::SchedConfig;
use lazydram_workloads::by_name;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app = args.get(1).map(String::as_str).unwrap_or("SLA");
    let scheme = args.get(2).map(String::as_str).unwrap_or("baseline");
    let scale: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0.2);
    let sched = match scheme {
        "baseline" => SchedConfig::baseline(),
        "Static-DMS" => SchedConfig::static_dms(),
        other => panic!("unknown scheme {other}"),
    };
    let spec = by_name(app).expect("known app");
    let run = SimBuilder::new(&spec)
        .sched(sched, "perf")
        .scale(scale)
        .build();
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = run.run();
        best = best.min(t0.elapsed().as_secs_f64());
        stats = Some(r.stats);
    }
    let stats = stats.unwrap();
    println!("{app}/{scheme} scale={scale}: wall {best:.4}s, cycles {}", stats.core_cycles);
    for p in lazydram_common::prof::Phase::ALL {
        println!("  {:<13} {:>9.4}s", p.name(), stats.prof.get(p));
    }
}
