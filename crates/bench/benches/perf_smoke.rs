//! Timed smoke sweep for the simulator hot paths.
//!
//! Runs a representative slice of the suite under the baseline and
//! Static-DMS schemes, once with cycle skipping enabled and once with the
//! naive loop (`with_cycle_skipping(false)`), and reports per-run wall-clock
//! time, speedup, and the fraction of core cycles skipped. Each timing is
//! the minimum of `LAZYDRAM_BENCH_REPS` runs (default 3). Results are also
//! written as a JSON array to `LAZYDRAM_BENCH_OUT` (default
//! `BENCH_PR4.json` in the current directory) for regression tracking; when
//! the binary was built with `--features prof`, every JSON row carries the
//! profiler's wall-clock phase breakdown (`prof` key).
//!
//! Two comparisons are recorded per (app, scheme):
//!
//! * `noskip_s` vs `skip_s` — the naive loop vs fast-forward *within this
//!   tree*. This isolates the cycle-skipping contribution.
//! * `pre_pr_s` vs `skip_s` — the recorded pre-PR wall clock (from
//!   `baselines/pre_pr9.tsv`, measured at the revision before the analytic
//!   compute-burst fast-forward) vs the current loop. This is the PR's
//!   end-to-end speedup and the number tracked as the repo's perf
//!   trajectory. Override the baseline file with `LAZYDRAM_BASELINE`; when
//!   the file is missing the columns are omitted. **The baseline was
//!   recorded at `LAZYDRAM_SCALE=0.2`** — comparisons at any other scale
//!   are apples-to-oranges.
//!
//! # Regression gate
//!
//! With `LAZYDRAM_MAX_REGRESSION=<ratio>` set (e.g. `2.0`), the benchmark
//! **exits non-zero** if any (app, scheme) runs slower than `ratio` times
//! its recorded pre-PR wall clock. `tier1.sh` sets this so a perf
//! regression fails the suite loudly instead of drifting in silently.
//!
//! # Trace replay smoke (`BENCH_PR6.json`)
//!
//! A second section captures each app's baseline request trace once and
//! replays the fig04 delay sweep through MC + DRAM only, recording the
//! replayed-vs-executed **speedup** and **error envelope** (relative error
//! in activations / Avg-RBL / row energy per delay cell) to
//! `LAZYDRAM_TRACE_BENCH_OUT` (default `BENCH_PR6.json`). With
//! `LAZYDRAM_MIN_TRACE_SPEEDUP=<ratio>` set (tier1.sh uses 5), the
//! benchmark exits non-zero unless at least one app's replay-only sweep
//! speedup clears the ratio (per-app speedups vary with the app's
//! request density — a memory-heavy stream pays for replay roughly what
//! it pays for execution); a replay that leaves any request unserved
//! always fails.
//!
//! # Result-cache smoke (`BENCH_PR8.json`)
//!
//! A third section runs a fig04-style delay sweep against a fresh
//! content-addressed store twice — cold (populating it) and warm (served
//! from it by a fresh runner, so every hit takes the disk path) — asserts
//! the warm measurements equal the cold ones and that the warm run
//! simulated nothing, and writes both wall clocks plus the store counters
//! to `LAZYDRAM_CACHE_BENCH_OUT` (default `BENCH_PR8.json`). With
//! `LAZYDRAM_MIN_CACHE_SPEEDUP=<ratio>` set (tier1.sh uses 10), the
//! benchmark exits non-zero unless the warm sweep beats the cold one by at
//! least the ratio — the PR 8 acceptance floor.
//!
//! # Compute-skip smoke (`BENCH_PR9.json`)
//!
//! A fourth section distils the main sweep into the compute-skip trajectory file
//! (`LAZYDRAM_PR9_BENCH_OUT`, default `BENCH_PR9.json`): per (app, scheme)
//! the wall-clock ratio against `pre_pr9.tsv`, the skip fraction split into
//! idle vs analytic compute skips, and — when built with `--features prof` —
//! the `sm_issue` phase wall clock against the pre-PR column recorded in
//! the baseline file (the phase the analytic fast-forward attacks). The
//! per-app regression gate stays `LAZYDRAM_MAX_REGRESSION` on the main
//! sweep; this section only records.
//!
//! This is a *smoke* benchmark: single-digit runs, no statistics. It is
//! meant to catch order-of-magnitude regressions (e.g. fast-forward silently
//! disengaging, a hash map sneaking back onto the lane path), not
//! single-digit-percent drifts.

use lazydram_bench::{
    scale_from_env, CacheMode, CachePolicy, MeasureSpec, Measurement, SimBuilder, SweepRunner,
    TraceSim,
};
use lazydram_common::json::{array, JsonObject};
use lazydram_common::{DmsMode, GpuConfig, SchedConfig};
use lazydram_energy::{EnergyModel, MemoryTech};
use lazydram_workloads::by_name;
use std::time::Instant;

/// Memory-bound streamers (where DMS stalls dominate and fast-forward should
/// shine) plus cache-friendly compute apps (where it should at least not
/// hurt).
const APPS: &[&str] = &["SLA", "CONS", "ATAX", "MVT", "SCP", "GEMM"];

struct Row {
    app: &'static str,
    scheme: &'static str,
    skip_s: f64,
    noskip_s: f64,
    pre_pr_s: Option<f64>,
    pre_sm_issue_s: Option<f64>,
    skip_pct: f64,
    compute_skip_pct: f64,
    core_cycles: u64,
    cycles_skipped: u64,
    compute_cycles_skipped: u64,
    prof: lazydram_common::ProfReport,
}

fn timed_run(
    app: &str,
    sched: &SchedConfig,
    scale: f64,
    skip: bool,
    reps: usize,
) -> (f64, lazydram_common::SimStats) {
    let mut best = f64::INFINITY;
    let mut stats = None;
    let spec = by_name(app).expect("known app");
    let run = SimBuilder::new(&spec)
        .sched(sched.clone(), "perf")
        .scale(scale)
        .cycle_skipping(skip)
        .build();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = run.run();
        best = best.min(t0.elapsed().as_secs_f64());
        stats = Some(r.stats);
    }
    (best, stats.expect("at least one rep"))
}

/// One `app\tscheme\tsecs[\tsm_issue_secs]` line of the pre-PR baseline.
struct BaselineRow {
    app: String,
    scheme: String,
    secs: f64,
    /// Pre-PR `sm_issue` profiler phase seconds (the optional 4th column).
    sm_issue_s: Option<f64>,
}

/// Loads the pre-PR baseline file; `#` lines are comments. Returns `None`
/// when the file is absent (e.g. a stripped checkout); malformed lines in a
/// *present* file are an error.
fn load_baseline() -> Option<Vec<BaselineRow>> {
    load_baseline_file("LAZYDRAM_BASELINE", "pre_pr9.tsv")
}

/// [`load_baseline`] for an arbitrary `(env override, default file)` pair —
/// each PR's trajectory gate pins its own pre-PR recording.
fn load_baseline_file(env: &str, default_name: &str) -> Option<Vec<BaselineRow>> {
    let path = std::env::var(env)
        .unwrap_or_else(|_| format!("{}/baselines/{default_name}", env!("CARGO_MANIFEST_DIR")));
    let text = std::fs::read_to_string(&path).ok()?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split('\t');
        let (Some(app), Some(scheme), Some(secs)) = (it.next(), it.next(), it.next()) else {
            panic!("malformed baseline line in {path}: {line:?}");
        };
        let secs: f64 = secs
            .parse()
            .unwrap_or_else(|e| panic!("bad seconds in {path}: {line:?} ({e})"));
        let sm_issue_s = it.next().map(|s| {
            s.parse()
                .unwrap_or_else(|e| panic!("bad sm_issue seconds in {path}: {line:?} ({e})"))
        });
        rows.push(BaselineRow { app: app.to_string(), scheme: scheme.to_string(), secs, sm_issue_s });
    }
    Some(rows)
}

/// One delay cell of the trace replay smoke: executed vs replayed.
struct TraceCell {
    delay: u32,
    exec_s: f64,
    replay_s: f64,
    act_err: f64,
    rbl_err: f64,
    energy_err: f64,
}

/// Relative error of `replayed` against the executed reference.
fn rel_err(replayed: f64, executed: f64) -> f64 {
    if executed == 0.0 {
        if replayed == 0.0 { 0.0 } else { f64::INFINITY }
    } else {
        (replayed - executed).abs() / executed
    }
}

/// Captures each app's baseline trace and replays the fig04 delay sweep,
/// writing speedup + error envelope to `LAZYDRAM_TRACE_BENCH_OUT`. Returns
/// `false` when `LAZYDRAM_MIN_TRACE_SPEEDUP` is set and no app's
/// replay-only sweep speedup reaches it.
fn trace_smoke(scale: f64) -> bool {
    const TRACE_APPS: &[&str] = &["SCP", "SLA"];
    let delays = [64u32, 128, 256, 512, 1024, 2048];
    let cfg = GpuConfig::default();
    let energy = EnergyModel::new(MemoryTech::Gddr5);
    let min_speedup = ratio_from_env("LAZYDRAM_MIN_TRACE_SPEEDUP");
    let mut best_speedup = 0.0_f64;
    let mut json_rows = Vec::new();
    eprintln!("\ntrace replay smoke (fig04 delay sweep, capture once, replay each cell):");
    for app in TRACE_APPS {
        let spec = by_name(app).expect("known app");
        let t0 = Instant::now();
        let r = SimBuilder::new(&spec)
            .sched(SchedConfig::baseline(), "baseline")
            .scale(scale)
            .trace(true)
            .build()
            .run();
        let capture_s = t0.elapsed().as_secs_f64();
        let trace = r.trace.expect("capture enabled");
        let mut cells = Vec::new();
        for &x in &delays {
            let sched = SchedConfig { dms: DmsMode::Static(x), ..SchedConfig::baseline() };
            let t0 = Instant::now();
            let exec = SimBuilder::new(&spec)
                .sched(sched.clone(), "DMS")
                .scale(scale)
                .build()
                .run()
                .stats;
            let exec_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let report = TraceSim::new(&cfg, &sched)
                .replay(&trace)
                .unwrap_or_else(|e| panic!("{app} trace replay failed: {e}"));
            let replay_s = t0.elapsed().as_secs_f64();
            assert_eq!(
                report.unserved, 0,
                "{app}/DMS({x}): replay left {} requests unserved",
                report.unserved
            );
            cells.push(TraceCell {
                delay: x,
                exec_s,
                replay_s,
                act_err: rel_err(
                    report.stats.dram.activations as f64,
                    exec.dram.activations as f64,
                ),
                rbl_err: rel_err(report.stats.dram.avg_rbl(), exec.dram.avg_rbl()),
                energy_err: rel_err(
                    energy.breakdown(&report.stats.dram).row_energy_pj,
                    energy.breakdown(&exec.dram).row_energy_pj,
                ),
            });
        }
        let exec_sweep_s: f64 = cells.iter().map(|c| c.exec_s).sum();
        let replay_sweep_s: f64 = cells.iter().map(|c| c.replay_s).sum();
        let speedup = exec_sweep_s / replay_sweep_s.max(1e-9);
        let max_err = cells
            .iter()
            .flat_map(|c| [c.act_err, c.rbl_err, c.energy_err])
            .fold(0.0_f64, f64::max);
        eprintln!(
            "  {app}: {n} requests, executed {exec_sweep_s:.3}s vs replayed {replay_sweep_s:.3}s \
             ({speedup:.1}x; {with_cap:.1}x with the {capture_s:.3}s capture), \
             worst envelope error {err:.1}%",
            n = trace.len(),
            with_cap = exec_sweep_s / (replay_sweep_s + capture_s).max(1e-9),
            err = 100.0 * max_err,
        );
        best_speedup = best_speedup.max(speedup);
        let cell_json: Vec<String> = cells
            .iter()
            .map(|c| {
                let mut o = JsonObject::new();
                o.u64("delay", u64::from(c.delay))
                    .f64("exec_s", c.exec_s)
                    .f64("replay_s", c.replay_s)
                    .f64("act_err", c.act_err)
                    .f64("rbl_err", c.rbl_err)
                    .f64("energy_err", c.energy_err);
                o.finish()
            })
            .collect();
        let mut o = JsonObject::new();
        o.str("app", app)
            .f64("scale", scale)
            .u64("requests", trace.len() as u64)
            .f64("capture_s", capture_s)
            .f64("exec_sweep_s", exec_sweep_s)
            .f64("replay_sweep_s", replay_sweep_s)
            .f64("speedup_replay_only", speedup)
            .f64(
                "speedup_with_capture",
                exec_sweep_s / (replay_sweep_s + capture_s).max(1e-9),
            )
            .f64("max_envelope_err", max_err)
            .raw("cells", &array(&cell_json));
        json_rows.push(o.finish());
    }
    let out = std::env::var("LAZYDRAM_TRACE_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_PR6.json".to_string());
    std::fs::write(&out, array(&json_rows) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");
    match min_speedup {
        Some(cap) if best_speedup < cap => {
            eprintln!(
                "TRACE SPEEDUP REGRESSION: best replay-only sweep speedup {best_speedup:.1}x \
                 misses the {cap}x gate"
            );
            false
        }
        _ => true,
    }
}

/// Runs the same fig04-style delay sweep cold (fresh store) and warm (fresh
/// runner, same store — pure disk-hit path), asserts warm results equal cold
/// ones, and writes wall clocks + store counters to
/// `LAZYDRAM_CACHE_BENCH_OUT`. Returns `false` when
/// `LAZYDRAM_MIN_CACHE_SPEEDUP` is set and the warm sweep misses it.
fn cache_smoke(scale: f64) -> bool {
    let delays = [64u32, 128, 256, 512, 1024, 2048];
    let min_speedup = ratio_from_env("LAZYDRAM_MIN_CACHE_SPEEDUP");
    let dir = std::env::temp_dir().join(format!("lazydram_cache_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = GpuConfig::default();
    let app = by_name("SCP").expect("known app");
    // Fresh runner per pass: the warm run starts with an empty in-memory hot
    // tier, so every hit exercises the decode-and-verify disk path — the one
    // a new process across sweeps would take.
    let sweep = || {
        let runner = SweepRunner::with_workers(1)
            .quiet()
            .with_cache(Some(CachePolicy::new(&dir, CacheMode::Auto)));
        let t0 = Instant::now();
        let bases = runner.baselines(std::slice::from_ref(&app), &cfg, scale);
        let base = bases[0].as_ref().expect("baseline runs").clone();
        let specs: Vec<MeasureSpec> = delays
            .iter()
            .map(|&x| {
                MeasureSpec::new(
                    SimBuilder::new(&app)
                        .gpu(cfg.clone())
                        .sched(
                            SchedConfig { dms: DmsMode::Static(x), ..SchedConfig::baseline() },
                            format!("DMS({x})"),
                        )
                        .scale(scale),
                    base.exact.clone(),
                )
            })
            .collect();
        let cells: Vec<Measurement> = runner
            .measure_all(specs)
            .into_iter()
            .map(|r| r.expect("cell runs"))
            .collect();
        let counters = runner.cache().expect("cache attached").stats();
        (t0.elapsed().as_secs_f64(), cells, counters)
    };
    let (cold_s, cold_cells, cold_stats) = sweep();
    let (warm_s, warm_cells, warm_stats) = sweep();
    let jobs = 1 + delays.len() as u64;
    assert_eq!(cold_stats.published, jobs, "cold sweep publishes every cell");
    assert_eq!(
        (warm_stats.hits(), warm_stats.misses),
        (jobs, 0),
        "warm sweep must be served entirely from the store"
    );
    for (c, w) in cold_cells.iter().zip(&warm_cells) {
        // `cached` is in-process provenance, and SimStats equality already
        // ignores the wall-clock profiler (absent from stored entries).
        let mut w = w.clone();
        w.cached = c.cached;
        assert!(
            w == *c,
            "{}/{}: warm measurement diverges from the cold run",
            c.app,
            c.scheme
        );
    }
    let speedup = cold_s / warm_s.max(1e-9);
    eprintln!("\nresult-cache smoke (fig04-style delay sweep, cold vs warm store):");
    eprintln!(
        "  SCP: cold {cold_s:.3}s vs warm {warm_s:.3}s ({speedup:.1}x; warm served \
         {hits}/{jobs} jobs from disk)",
        hits = warm_stats.hits(),
    );
    let mut o = JsonObject::new();
    o.str("app", "SCP")
        .f64("scale", scale)
        .u64("jobs", jobs)
        .f64("cold_s", cold_s)
        .f64("warm_s", warm_s)
        .f64("speedup", speedup)
        .u64("cold_published", cold_stats.published)
        .u64("warm_disk_hits", warm_stats.disk_hits)
        .u64("warm_misses", warm_stats.misses)
        .u64("bytes_written", cold_stats.bytes_written)
        .u64("bytes_read", warm_stats.bytes_read);
    let out = std::env::var("LAZYDRAM_CACHE_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_PR8.json".to_string());
    std::fs::write(&out, array(&[o.finish()]) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);
    match min_speedup {
        Some(floor) if speedup < floor => {
            eprintln!(
                "CACHE SPEEDUP REGRESSION: warm sweep is only {speedup:.1}x faster than \
                 cold, under the {floor}x floor"
            );
            false
        }
        _ => true,
    }
}

/// Distils the main sweep into the PR 9 trajectory file: per-(app, scheme)
/// wall-clock ratio vs `pre_pr9.tsv`, the idle/compute skip split, and the
/// `sm_issue` phase delta against the pre-PR column when both profiles
/// exist. Records only; the regression gate runs on the main sweep.
fn pr9_smoke(rows: &[Row], scale: f64) {
    use lazydram_common::prof::Phase;
    let mut json_rows = Vec::new();
    eprintln!("\ncompute-skip smoke (analytic compute-burst fast-forward, PR 9 trajectory):");
    for r in rows {
        let sm_issue_s =
            (!r.prof.is_empty()).then(|| r.prof.get(Phase::SmIssue));
        let mut o = JsonObject::new();
        o.str("app", r.app)
            .str("scheme", r.scheme)
            .f64("scale", scale)
            .f64("fast_s", r.skip_s)
            .f64("skip_pct", r.skip_pct)
            .f64("compute_skip_pct", r.compute_skip_pct)
            .f64("idle_skip_pct", r.skip_pct - r.compute_skip_pct)
            .u64("core_cycles", r.core_cycles)
            .u64("cycles_skipped", r.cycles_skipped)
            .u64("compute_cycles_skipped", r.compute_cycles_skipped);
        if let Some(b) = r.pre_pr_s {
            o.f64("pre_pr_s", b).f64("speedup_vs_pre_pr", b / r.skip_s.max(1e-9));
        }
        if let Some(cur) = sm_issue_s {
            o.f64("sm_issue_s", cur);
            if let Some(pre) = r.pre_sm_issue_s {
                o.f64("pre_sm_issue_s", pre).f64("sm_issue_delta_s", pre - cur);
            }
        }
        eprintln!(
            "  {}/{}: {:.1}% skipped ({:.1}% compute bursts){}{}",
            r.app,
            r.scheme,
            r.skip_pct,
            r.compute_skip_pct,
            r.pre_pr_s
                .map_or_else(String::new, |b| format!(", {:.1}x vs pre-PR", b / r.skip_s.max(1e-9))),
            match (sm_issue_s, r.pre_sm_issue_s) {
                (Some(cur), Some(pre)) =>
                    format!(", sm_issue {pre:.3}s -> {cur:.3}s"),
                _ => String::new(),
            },
        );
        json_rows.push(o.finish());
    }
    let out =
        std::env::var("LAZYDRAM_PR9_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR9.json".to_string());
    std::fs::write(&out, array(&json_rows) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");
}

/// Gates the memory-backend refactor (PR 10): the timed fast-forward rows
/// against `pre_pr10.tsv` — recorded at the revision immediately before the
/// [`MemoryBackend`] trait extraction — writing per-row ratios to
/// `LAZYDRAM_PR10_BENCH_OUT` (default `BENCH_PR10.json`). The trait is
/// dispatched through a static enum, so the default GDDR5 hot path is
/// supposed to stay monomorphic and the cap is tight:
/// `LAZYDRAM_MAX_PR10_REGRESSION` (default 1.15x). Returns `false` on a
/// breach; skips silently (returns `true`) when the baseline file is
/// absent.
///
/// [`MemoryBackend`]: lazydram_dram::MemoryBackend
fn pr10_smoke(rows: &[Row], scale: f64) -> bool {
    let Some(baseline) = load_baseline_file("LAZYDRAM_PR10_BASELINE", "pre_pr10.tsv") else {
        eprintln!("backend smoke: no pre_pr10.tsv baseline; skipping the PR 10 gate");
        return true;
    };
    let cap = ratio_from_env("LAZYDRAM_MAX_PR10_REGRESSION").unwrap_or(1.15);
    let mut json_rows = Vec::new();
    let mut regressed = Vec::new();
    eprintln!("
backend smoke (MemoryBackend trait dispatch, PR 10 trajectory):");
    for r in rows {
        let Some(pre) = baseline.iter().find(|b| b.app == r.app && b.scheme == r.scheme) else {
            continue;
        };
        let ratio = r.skip_s / pre.secs.max(1e-9);
        let mut o = JsonObject::new();
        o.str("app", r.app)
            .str("scheme", r.scheme)
            .f64("scale", scale)
            .f64("fast_s", r.skip_s)
            .f64("pre_pr10_s", pre.secs)
            .f64("ratio_vs_pre_pr10", ratio);
        json_rows.push(o.finish());
        eprintln!("  {}/{}: {:.3}s vs pre-PR10 {:.3}s ({ratio:.2}x)", r.app, r.scheme, r.skip_s, pre.secs);
        if ratio > cap {
            regressed.push(format!(
                "{}/{}: {:.3}s vs pre-PR10 {:.3}s ({ratio:.2}x > {cap}x cap)",
                r.app, r.scheme, r.skip_s, pre.secs
            ));
        }
    }
    let out = std::env::var("LAZYDRAM_PR10_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_PR10.json".to_string());
    std::fs::write(&out, array(&json_rows) + "
")
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");
    if regressed.is_empty() {
        eprintln!("backend perf gate passed (no row slower than {cap}x pre-PR10)");
        return true;
    }
    eprintln!("BACKEND PERF REGRESSION (cap {cap}x vs pre_pr10.tsv):");
    for line in &regressed {
        eprintln!("  {line}");
    }
    false
}

/// Parses a positive-ratio environment variable, panicking on malformed
/// values (a silently ignored gate is worse than none).
fn ratio_from_env(name: &str) -> Option<f64> {
    let s = std::env::var(name).ok()?;
    let v: f64 = s
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{name}={s:?} is not a ratio: {e}"));
    assert!(v > 0.0, "{name} must be positive, got {v}");
    Some(v)
}

fn main() {
    let scale = scale_from_env();
    let reps: usize = std::env::var("LAZYDRAM_BENCH_REPS")
        .ok()
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|e| panic!("LAZYDRAM_BENCH_REPS={s:?} is not a count: {e}"))
        })
        .unwrap_or(3);
    let max_regression = ratio_from_env("LAZYDRAM_MAX_REGRESSION");
    let baseline = load_baseline();
    let schemes: [(&str, SchedConfig); 2] = [
        ("baseline", SchedConfig::baseline()),
        ("Static-DMS", SchedConfig::static_dms()),
    ];
    let mut rows = Vec::new();
    for (scheme_label, sched) in &schemes {
        for app in APPS {
            let (noskip_s, _) = timed_run(app, sched, scale, false, reps);
            let (skip_s, stats) = timed_run(app, sched, scale, true, reps);
            let pre = baseline
                .as_ref()
                .and_then(|b| b.iter().find(|r| r.app == *app && r.scheme == *scheme_label));
            let pre_pr_s = pre.map(|r| r.secs);
            eprintln!(
                "{app}/{scheme_label}: naive {noskip_s:.3}s, fast-forward {skip_s:.3}s \
                 ({speedup:.1}x, skipped {pct:.1}% of cycles, {cpct:.1}% as compute bursts{vs})",
                speedup = noskip_s / skip_s.max(1e-9),
                pct = 100.0 * stats.skip_fraction(),
                cpct = 100.0 * stats.compute_skip_fraction(),
                vs = match pre_pr_s {
                    Some(b) => format!(", {:.1}x vs pre-PR", b / skip_s.max(1e-9)),
                    None => String::new(),
                },
            );
            rows.push(Row {
                app,
                scheme: scheme_label,
                skip_s,
                noskip_s,
                pre_pr_s,
                pre_sm_issue_s: pre.and_then(|r| r.sm_issue_s),
                skip_pct: 100.0 * stats.skip_fraction(),
                compute_skip_pct: 100.0 * stats.compute_skip_fraction(),
                core_cycles: stats.core_cycles,
                cycles_skipped: stats.cycles_skipped,
                compute_cycles_skipped: stats.compute_cycles_skipped,
                prof: stats.prof.clone(),
            });
        }
    }

    println!();
    println!(
        "{:<14} {:<11} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "app", "scheme", "pre_pr_s", "naive_s", "fast_s", "speedup", "skip%", "cskip%"
    );
    for r in &rows {
        println!(
            "{:<14} {:<11} {:>9} {:>9.3} {:>9.3} {:>7.1}x {:>7.1}% {:>7.1}%",
            r.app,
            r.scheme,
            r.pre_pr_s.map_or_else(|| "-".into(), |b| format!("{b:.3}")),
            r.noskip_s,
            r.skip_s,
            r.pre_pr_s.unwrap_or(r.noskip_s) / r.skip_s.max(1e-9),
            r.skip_pct,
            r.compute_skip_pct,
        );
    }
    let ratios: Vec<(usize, f64)> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.pre_pr_s.map(|b| (i, b / r.skip_s.max(1e-9))))
        .collect();
    let geomean = if ratios.is_empty() {
        None
    } else {
        let log_sum: f64 = ratios.iter().map(|&(_, s)| s.ln()).sum();
        Some((log_sum / ratios.len() as f64).exp())
    };
    if let Some(g) = geomean {
        let worst = ratios.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
        println!("\ngeomean speedup vs pre-PR: {g:.2}x (worst any-app: {worst:.2}x)");
    }
    if !rows.is_empty() && !rows[0].prof.is_empty() {
        println!("\nphase breakdown (exclusive seconds, summed over apps, fast-forward runs):");
        let mut total = lazydram_common::ProfReport::default();
        for r in &rows {
            total.merge(&r.prof);
        }
        for p in lazydram_common::prof::Phase::ALL {
            println!("  {:<13} {:>8.3}s", p.name(), total.get(p));
        }
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut o = JsonObject::new();
            o.str("app", r.app)
                .str("scheme", r.scheme)
                .f64("scale", scale)
                .f64("noskip_s", r.noskip_s)
                .f64("skip_s", r.skip_s)
                .f64("speedup_vs_naive", r.noskip_s / r.skip_s.max(1e-9))
                .f64("skip_pct", r.skip_pct)
                .f64("compute_skip_pct", r.compute_skip_pct)
                .u64("core_cycles", r.core_cycles)
                .u64("cycles_skipped", r.cycles_skipped)
                .u64("compute_cycles_skipped", r.compute_cycles_skipped);
            if let Some(b) = r.pre_pr_s {
                o.f64("pre_pr_s", b)
                    .f64("speedup_vs_pre_pr", b / r.skip_s.max(1e-9));
            }
            if !r.prof.is_empty() {
                o.raw("prof", &r.prof.to_json());
            }
            o.finish()
        })
        .collect();
    let out = std::env::var("LAZYDRAM_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR4.json".to_string());
    std::fs::write(&out, array(&json_rows) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");

    pr9_smoke(&rows, scale);
    let pr10_ok = pr10_smoke(&rows, scale);

    let trace_ok = trace_smoke(scale);
    let cache_ok = cache_smoke(scale);

    if let Some(cap) = max_regression {
        let regressed: Vec<String> = ratios
            .iter()
            .filter(|&&(_, speedup)| speedup < 1.0 / cap)
            .map(|&(i, speedup)| {
                format!(
                    "{}/{}: {:.3}s vs pre-PR {:.3}s ({:.2}x slower)",
                    rows[i].app,
                    rows[i].scheme,
                    rows[i].skip_s,
                    rows[i].pre_pr_s.expect("ratio implies baseline"),
                    1.0 / speedup,
                )
            })
            .collect();
        if !regressed.is_empty() {
            eprintln!("\nPERF REGRESSION (cap {cap}x vs pre-PR baseline):");
            for line in &regressed {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
        eprintln!("perf gate passed (no app slower than {cap}x pre-PR)");
    }
    if !trace_ok || !cache_ok || !pr10_ok {
        std::process::exit(1);
    }
}
