//! The lazydram benchmark: four fixed workloads over the simulator's public
//! entry points, end-to-end metrics from an untraced build, per-layer spans
//! timed around the calls into each layer from a traced (`prof`) build.
//!
//! ```text
//! lazybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --work-dir <dir> [--rev <id>] [--rustc <version>]
//!           [--untraced-wall-s <s>]
//! lazybench pin --work-dir <dir>     # prints a fresh pins.txt
//! ```
//!
//! `run.py` builds both variants and is the command to use. The last line
//! of standard output is the result object; everything else goes to
//! standard error, except a `manifest` line printed just before it.

use lazybench::{cell_digest, parse_pins, pin_line, replay_core, replay_dram, Pin, Pins};
use lazydram_bench::store::Fidelity;
use lazydram_bench::{
    try_measure, try_measure_traced, CacheMode, CachePolicy, Job, MeasureSpec, Measurement, Scheme,
    SimBuilder, Store, SweepRunner,
};
use lazydram_common::prof::Phase;
use lazydram_common::{DramPreset, GpuConfig, ProfReport, SimStats};
use lazydram_gpu::Trace;
use lazydram_workloads::{all_apps, by_name, exact_output, AppSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Paper-sized inputs.
const SCALE: f64 = 1.0;
/// Sweep workers, fixed in code (never from `LAZYDRAM_JOBS`); the single
/// cells run this many clients. Loading both CPUs of the 2-CPU reference
/// host halves the run-to-run spread of a single-threaded cell.
const WORKERS: usize = 2;
/// Set-up repeats until it has run at least this many times and this many
/// seconds (at most `SETUP_MAX_REPS` times); `setup_s` is the median pass.
/// The fig12 set-up pass is well under a millisecond, so it needs many
/// repetitions for a steady median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 1000;
const PINS: &str = include_str!("../pins.txt");

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    /// `fig12_main`'s 77 cells into a fresh, empty result store.
    Fig12Sweep,
    /// One GEMM cell under Dyn-DMS: SM- and functional-memory-bound.
    GemmDms,
    /// One MVT cell under Dyn-DMS+Dyn-AMS: controller-bound.
    MvtLazy,
    /// The same 77 cells against a store filled during set-up.
    Fig12Warm,
}

impl Workload {
    const NAMES: [(&'static str, Workload); 4] = [
        ("fig12_sweep", Self::Fig12Sweep),
        ("gemm_dms", Self::GemmDms),
        ("mvt_lazy", Self::MvtLazy),
        ("fig12_warm", Self::Fig12Warm),
    ];

    fn parse(s: &str) -> Result<Self, String> {
        Self::NAMES.iter().find(|(n, _)| *n == s).map(|&(_, w)| w).ok_or_else(|| {
            format!("unknown workload {s:?}; expected fig12_sweep, gemm_dms, mvt_lazy or fig12_warm")
        })
    }

    fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(_, w)| *w == self)
            .expect("every workload is named")
            .0
    }

    fn single_cell(self) -> Option<(&'static str, Scheme)> {
        match self {
            Self::GemmDms => Some(("GEMM", Scheme::DynDms)),
            Self::MvtLazy => Some(("MVT", Scheme::DynCombo)),
            Self::Fig12Sweep | Self::Fig12Warm => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    rev: String,
    rustc: String,
    untraced_wall_s: Option<f64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if kv.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |k: &str| kv.remove(k);
    let need = |v: Option<String>, k: &str| v.ok_or_else(|| format!("--{k} is required"));
    let num = |v: String, k: &str| -> Result<f64, String> {
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("--{k} {v:?} is not a positive number"))
    };
    let args = Args {
        workload: Workload::parse(&need(take("workload"), "workload")?)?,
        seed: need(take("seed"), "seed")?
            .parse()
            .map_err(|_| "--seed is not a non-negative integer".to_string())?,
        seconds: num(need(take("seconds"), "seconds")?, "seconds")?,
        trace: match need(take("trace"), "trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other:?}: expected 0 or 1")),
        },
        work_dir: PathBuf::from(need(take("work-dir"), "work-dir")?),
        rev: take("rev").unwrap_or_else(|| "unknown".into()),
        rustc: take("rustc").unwrap_or_else(|| "unknown".into()),
        untraced_wall_s: take("untraced-wall-s")
            .map(|v| num(v, "untraced-wall-s"))
            .transpose()?,
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = lazybench::refuse_knobs(std::env::vars()).and_then(|()| match &argv[..] {
        [mode, flag, dir] if mode == "pin" && flag == "--work-dir" => pin(Path::new(dir)),
        [mode, ..] if mode == "pin" => Err("usage: lazybench pin --work-dir <dir>".into()),
        _ => parse_args(&argv).and_then(|a| run(&a)),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lazybench: {e}");
            ExitCode::from(2)
        }
    }
}

fn gpu_config() -> GpuConfig {
    DramPreset::Gddr5.gpu_config()
}

fn fig12_apps() -> Vec<AppSpec> {
    all_apps()
        .into_iter()
        .filter(AppSpec::error_tolerant)
        .collect()
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Correctness bookkeeping over every cell a run produced.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
}

impl Check {
    /// A cell passes when it ran to completion, executed (not replayed),
    /// and its digest matches the pin.
    fn cell(&mut self, pins: &Pins, label: &str, m: Result<&Measurement, &str>) {
        self.attempted += 1;
        let why = match m {
            Err(e) => Some(format!("job failed: {e}")),
            Ok(m) if m.truncated => Some("hit the cycle limit".into()),
            Ok(m) if m.replayed => Some("served by trace replay".into()),
            Ok(m) => match pins.get(&(m.app.clone(), m.scheme.clone())) {
                None => Some("no pinned digest".into()),
                Some(p) if p.digest != cell_digest(&m.stats, m.app_error) => Some(format!(
                    "digest {:016x} differs from the pinned {:016x}",
                    cell_digest(&m.stats, m.app_error),
                    p.digest
                )),
                Some(_) => None,
            },
        };
        if let Some(why) = why {
            self.failed += 1;
            eprintln!("FAILED cell {label}: {why}");
        }
    }

    fn fail(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED {what}");
    }
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// The modelled metrics of one set of cells: mean Dyn-DMS+Dyn-AMS (or the
/// single cell's scheme) over its app's baseline, as Fig. 12 reports them.
#[derive(Default)]
struct Modelled {
    energy: Vec<f64>,
    ipc: Vec<f64>,
    error: Vec<f64>,
}

impl Modelled {
    fn add(&mut self, cell: &Measurement, base_energy_pj: f64, base_ipc: f64) {
        self.energy.push(cell.row_energy_pj / base_energy_pj);
        self.ipc.push(cell.ipc / base_ipc);
        self.error.push(cell.app_error);
    }

    fn put(&self, m: &mut Metrics) {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        m.put("row_energy_ratio", mean(&self.energy), "ratio");
        m.put("ipc_ratio", mean(&self.ipc), "ratio");
        m.put("app_accuracy_pct", 100.0 * (1.0 - mean(&self.error)), "%");
    }
}

/// Runs `f` until `seconds` of it have been timed (at least once) and
/// returns each pass's wall time and result.
fn timed_loop<T>(seconds: f64, mut f: impl FnMut() -> (f64, T)) -> Vec<(f64, T)> {
    let mut passes = Vec::new();
    let mut total = 0.0;
    while passes.is_empty() || total < seconds {
        let (wall, out) = f();
        total += wall;
        passes.push((wall, out));
    }
    passes
}

/// [`timed_loop`] on [`WORKERS`] client threads at once (a closed loop with
/// that many clients); returns every client's passes.
fn clients_loop<T: Send>(seconds: f64, pass: impl Fn() -> (f64, T) + Sync) -> Vec<(f64, T)> {
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..WORKERS)
            .map(|_| s.spawn(|| timed_loop(seconds, &pass)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("a client thread panicked"))
            .collect()
    })
}

fn run(a: &Args) -> Result<(), String> {
    let pins = parse_pins(PINS)?;
    std::fs::create_dir_all(&a.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", a.work_dir.display()))?;
    let prof_build = cfg!(feature = "prof");
    if a.trace != prof_build {
        return Err(format!(
            "--trace {} needs the {} build (run.py picks it)",
            u8::from(a.trace),
            if a.trace { "`prof`" } else { "plain" }
        ));
    }
    let mut check = Check::default();
    let mut m = Metrics::default();
    match (a.workload.single_cell(), a.trace) {
        (Some(cell), false) => single_untraced(a, cell, &pins, &mut check, &mut m)?,
        (Some(cell), true) => single_traced(a, cell, &pins, &mut check, &mut m)?,
        (None, false) => fig12_untraced(a, &pins, &mut check, &mut m)?,
        (None, true) => fig12_traced(a, &pins, &mut check, &mut m)?,
    }
    let metrics = m.json()?;
    for (name, value, unit) in &m.0 {
        eprintln!("  {name:<24} {value:>16.6} {unit}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"manifest\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"rev\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \"backend\": \"{:?}\", \
         \"scale\": {SCALE}, \"workers\": {WORKERS}, \"semantics_version\": {}}}}}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace,
        a.rev.replace('"', "'"),
        a.rustc.replace('"', "'"),
        gpu_config().backend,
        lazydram_common::SEMANTICS_VERSION,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        check.failed == 0,
        check.attempted,
        check.failed
    );
    Ok(())
}

// ---------------------------------------------------------------- set-up

/// One set-up pass of a single cell: the configured run, its app's inputs
/// (`AppSpec::launches`) and the exact reference output.
struct CellSetup {
    run: lazydram_bench::SimRun,
    exact: Vec<f32>,
    launch_s: f64,
    exact_s: f64,
}

fn cell_setup(name: &str, scheme: Scheme, trace: bool) -> CellSetup {
    let spec = by_name(name).expect("the benchmark names only suite apps");
    let run = SimBuilder::new(&spec)
        .gpu(gpu_config())
        .scheme(scheme)
        .scale(SCALE)
        .trace(trace)
        .build();
    let t = Instant::now();
    std::hint::black_box(spec.launches(SCALE));
    let launch_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let exact = exact_output(&spec, SCALE);
    CellSetup {
        run,
        exact,
        launch_s,
        exact_s: t.elapsed().as_secs_f64(),
    }
}

/// Repeats `setup` (see [`SETUP_MIN_REPS`]); returns the last product and
/// the median wall time. Earlier products are dropped as soon as the next
/// pass ends, so repetition does not raise the peak RSS.
fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while walls.len() < SETUP_MAX_REPS
        && (walls.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        let t = Instant::now();
        let out = setup();
        walls.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (last.expect("set-up ran at least once"), median(&walls))
}

/// The fig12 set-up pass: configs and the 77 builders, plus every app's
/// inputs. Returns the launch time.
fn fig12_setup(apps: &[AppSpec], cfg: &GpuConfig) -> f64 {
    let mut launch_s = 0.0;
    for app in apps {
        for scheme in Scheme::ALL {
            std::hint::black_box(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .scheme(scheme)
                    .scale(SCALE)
                    .build(),
            );
        }
        let t = Instant::now();
        std::hint::black_box(app.launches(SCALE));
        launch_s += t.elapsed().as_secs_f64();
    }
    launch_s
}

// ----------------------------------------------------------- single cell

fn single_untraced(
    a: &Args,
    (name, scheme): (&str, Scheme),
    pins: &Pins,
    check: &mut Check,
    m: &mut Metrics,
) -> Result<(), String> {
    let (setup, setup_s) = repeated_setup(|| cell_setup(name, scheme, false));
    let passes = clients_loop(a.seconds, || {
        let t = Instant::now();
        let cell = try_measure(&setup.run, &setup.exact);
        (t.elapsed().as_secs_f64(), cell)
    });
    let base = base_pin(pins, name)?;
    let mut modelled = Modelled::default();
    let mut cps = Vec::new();
    for (wall, cell) in &passes {
        check.cell(
            pins,
            &format!("{name}/{}", scheme.label()),
            cell.as_ref().map_err(String::as_str),
        );
        if let Ok(cell) = cell {
            cps.push(cell.stats.core_cycles as f64 / wall);
            modelled.add(cell, base.row_energy_pj, base.ipc);
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
    eprintln!("{name}/{}: pass walls {walls:.4?}", scheme.label());
    end_to_end(
        m,
        median(&walls),
        if cps.is_empty() { 0.0 } else { median(&cps) },
        setup_s,
    )?;
    modelled.put(m);
    Ok(())
}

fn base_pin(pins: &Pins, name: &str) -> Result<Pin, String> {
    pins.get(&(name.to_string(), Scheme::Baseline.label().to_string()))
        .copied()
        .ok_or_else(|| format!("pins.txt has no {name}/baseline row"))
}

fn end_to_end(m: &mut Metrics, wall_s: f64, cycles_per_s: f64, setup_s: f64) -> Result<(), String> {
    m.put("wall_s", wall_s, "s");
    m.put("sim_cycles_per_s", cycles_per_s, "cycles/s");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(())
}

/// Per-layer accumulators of a traced run (sums over passes and cells).
#[derive(Default)]
struct Layers {
    passes: u64,
    walls: Vec<f64>,
    launch_s: f64,
    exact_s: f64,
    run_s: f64,
    stats: SimStats,
    prof: ProfReport,
    job_s: f64,
    jobs: u64,
    jobs_failed: u64,
    get_s: f64,
    put_s: f64,
    hits: u64,
    misses: u64,
    bytes: u64,
    workers: usize,
}

impl Layers {
    fn add_run(&mut self, s: &SimStats) {
        let t = &mut self.stats;
        t.core_cycles += s.core_cycles;
        t.ticks_executed += s.ticks_executed;
        t.cycles_skipped += s.cycles_skipped;
        t.compute_cycles_skipped += s.compute_cycles_skipped;
        t.instructions += s.instructions;
        t.l1_hits += s.l1_hits;
        t.l1_misses += s.l1_misses;
        t.l2_hits += s.l2_hits;
        t.l2_misses += s.l2_misses;
        t.approximated_loads += s.approximated_loads;
        self.prof.merge(&s.prof);
    }
}

/// Replays captured streams through the controller and DRAM replayers and
/// reports the `core.*` / `dram.*` metrics. `gpu_run_s` is the per-pass
/// simulation time the streams came from.
fn replay_layers(streams: &[(Trace, Scheme)], gpu_run_s: f64, check: &mut Check, m: &mut Metrics) {
    let cfg = gpu_config();
    let (mut core_s, mut dram_s) = (0.0, 0.0);
    let mut core = lazybench::CoreReplay::default();
    let mut dram = lazybench::DramReplay::default();
    for (trace, scheme) in streams {
        let t = Instant::now();
        let c = replay_core(trace, &cfg, &scheme.sched());
        core_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let d = replay_dram(trace, &cfg);
        dram_s += t.elapsed().as_secs_f64();
        if c.served + c.dropped != c.requests {
            check.fail(&format!(
                "controller replay under {}: {} served + {} dropped of {} requests",
                scheme.label(),
                c.served,
                c.dropped,
                c.requests
            ));
        }
        if d.served != d.requests {
            check.fail(&format!(
                "DRAM replay: {} served of {} requests",
                d.served, d.requests
            ));
        }
        core.requests += c.requests;
        core.served += c.served;
        core.dropped += c.dropped;
        core.row_hits += c.row_hits;
        core.row_misses += c.row_misses;
        core.backlog_cycles += c.backlog_cycles;
        core.mem_cycles += c.mem_cycles;
        dram.requests += d.requests;
        dram.served += d.served;
        dram.commands += d.commands;
        dram.activations += d.activations;
        dram.refreshes += d.refreshes;
        dram.bus_busy_cycles += d.bus_busy_cycles;
        dram.mem_cycles += d.mem_cycles;
    }
    let per = |s: f64, n: u64| if n == 0 { 0.0 } else { 1e9 * s / n as f64 };
    m.put("core.tick_s", core_s, "s");
    m.put(
        "core.ns_per_request",
        per(core_s, core.requests),
        "ns/request",
    );
    m.put(
        "core.ns_per_mem_cycle",
        per(core_s, core.mem_cycles),
        "ns/cycle",
    );
    m.put(
        "core.replay_frac",
        if gpu_run_s > 0.0 {
            core_s / gpu_run_s
        } else {
            0.0
        },
        "ratio",
    );
    m.put("core.requests", core.requests as f64, "count");
    m.put("core.dropped", core.dropped as f64, "count");
    let rows = core.row_hits + core.row_misses;
    m.put(
        "core.row_hit_rate",
        core.row_hits as f64 / rows.max(1) as f64,
        "ratio",
    );
    m.put("core.backlog_cycles", core.backlog_cycles as f64, "count");
    m.put("dram.cmd_s", dram_s, "s");
    m.put("dram.ns_per_cmd", per(dram_s, dram.commands), "ns/cmd");
    m.put("dram.commands", dram.commands as f64, "count");
    m.put("dram.activations", dram.activations as f64, "count");
    m.put("dram.refreshes", dram.refreshes as f64, "count");
    m.put("dram.avg_rbl", dram.avg_rbl(), "ratio");
    m.put("dram.bus_util", dram.bus_util(), "ratio");
}

/// Reports every per-layer metric from the accumulators (per pass).
fn put_layers(a: &Args, l: &Layers, m: &mut Metrics) -> Result<(), String> {
    let n = l.passes.max(1) as f64;
    let s = &l.stats;
    let wall = l.walls.iter().sum::<f64>() / n;
    let run_s = l.run_s / n;
    let cycles = s.core_cycles as f64 / n;
    let ratio = |x: u64, y: u64| if y == 0 { 0.0 } else { x as f64 / y as f64 };
    m.put("workloads.launch_s", l.launch_s, "s");
    m.put("workloads.exact_s", l.exact_s / n, "s");
    m.put("gpu.run_s", run_s, "s");
    m.put(
        "gpu.ns_per_cycle",
        if cycles > 0.0 {
            1e9 * run_s / cycles
        } else {
            0.0
        },
        "ns/cycle",
    );
    m.put("gpu.core_cycles", cycles, "count");
    m.put("gpu.ticks_executed", s.ticks_executed as f64 / n, "count");
    m.put(
        "gpu.skip_frac",
        ratio(s.cycles_skipped, s.core_cycles),
        "ratio",
    );
    m.put(
        "gpu.compute_skip_frac",
        ratio(s.compute_cycles_skipped, s.core_cycles),
        "ratio",
    );
    m.put("gpu.instructions", s.instructions as f64 / n, "count");
    m.put(
        "gpu.l1_hit_rate",
        ratio(s.l1_hits, s.l1_hits + s.l1_misses),
        "ratio",
    );
    m.put(
        "gpu.l2_hit_rate",
        ratio(s.l2_hits, s.l2_hits + s.l2_misses),
        "ratio",
    );
    m.put(
        "gpu.approximated_loads",
        s.approximated_loads as f64 / n,
        "count",
    );
    m.put("runner.job_s", l.job_s / n, "s");
    m.put(
        "runner.tail_s",
        if l.jobs == 0 {
            0.0
        } else {
            wall - l.job_s / n / l.workers as f64
        },
        "s",
    );
    m.put("runner.jobs", l.jobs as f64 / n, "count");
    m.put("runner.failed", l.jobs_failed as f64 / n, "count");
    m.put("store.get_s", l.get_s / n, "s");
    m.put("store.put_s", l.put_s / n, "s");
    m.put("store.hits", l.hits as f64 / n, "count");
    m.put("store.misses", l.misses as f64 / n, "count");
    m.put("store.bytes", l.bytes as f64 / n, "bytes");
    let mut attributed = 0.0;
    for (phase, name) in [
        (Phase::SmIssue, "prof.sm_issue_s"),
        (Phase::Slice, "prof.slice_s"),
        (Phase::Controller, "prof.controller_s"),
        (Phase::Dram, "prof.dram_s"),
        (Phase::FuncMem, "prof.func_mem_s"),
        (Phase::FastForward, "prof.fast_forward_s"),
    ] {
        m.put(name, l.prof.get(phase) / n, "s");
    }
    for p in Phase::ALL {
        attributed += l.prof.get(p) / n;
    }
    m.put("prof.unattributed_s", run_s - attributed, "s");
    // Single cells compute the exact output during set-up, outside the wall.
    let exact_in_wall = if l.jobs > 0 { l.exact_s } else { 0.0 };
    let spans = (exact_in_wall + l.run_s + l.get_s + l.put_s) / n;
    // The median pass, the same estimator as the untraced `wall_s`.
    let median_wall = if l.walls.is_empty() {
        0.0
    } else {
        median(&l.walls)
    };
    m.put("trace.wall_s", median_wall, "s");
    m.put(
        "trace.span_cover",
        spans / (l.workers as f64 * wall),
        "ratio",
    );
    let untraced = a
        .untraced_wall_s
        .ok_or("--trace 1 needs --untraced-wall-s (the plain build's wall_s; run.py passes it)")?;
    m.put("trace.untraced_wall_s", untraced, "s");
    m.put("trace.overhead_s", median_wall - untraced, "s");
    Ok(())
}

fn single_traced(
    a: &Args,
    (name, scheme): (&str, Scheme),
    pins: &Pins,
    check: &mut Check,
    m: &mut Metrics,
) -> Result<(), String> {
    let (mut launch, mut exact) = (Vec::new(), Vec::new());
    let (setup, _) = repeated_setup(|| {
        let s = cell_setup(name, scheme, true);
        launch.push(s.launch_s);
        exact.push(s.exact_s);
        s
    });
    let mut l = Layers {
        workers: 1,
        launch_s: median(&launch),
        ..Layers::default()
    };
    let exact_s = median(&exact);
    let mut stream = None;
    let label = format!("{name}/{}", scheme.label());
    // Keep one captured stream for the replays; drop the others at once.
    let kept = AtomicBool::new(false);
    let passes = clients_loop(a.seconds, || {
        let t = Instant::now();
        let cell = try_measure_traced(&setup.run, &setup.exact);
        let wall = t.elapsed().as_secs_f64();
        let cell =
            cell.map(|(m, trace)| (m, trace.filter(|_| !kept.swap(true, Ordering::Relaxed))));
        (wall, cell)
    });
    for (wall, cell) in passes {
        l.passes += 1;
        l.walls.push(wall);
        l.run_s += wall;
        check.cell(
            pins,
            &label,
            cell.as_ref().map(|c| &c.0).map_err(String::as_str),
        );
        if let Ok((cell, trace)) = cell {
            l.add_run(&cell.stats);
            stream = stream.or(trace);
        }
    }
    l.exact_s = exact_s * l.passes as f64;
    let run_s = l.run_s / l.passes as f64;
    put_layers(a, &l, m)?;
    let streams: Vec<(Trace, Scheme)> = stream.into_iter().map(|t| (t, scheme)).collect();
    if streams.is_empty() {
        check.fail(&format!("{label}: no request stream captured"));
    }
    replay_layers(&streams, run_s, check, m);
    Ok(())
}

// ----------------------------------------------------------------- fig12

/// `(app, baseline, scheme cells)` per fig12 app.
type Fig12Cells = Vec<(
    String,
    Result<Measurement, String>,
    Vec<Result<Measurement, String>>,
)>;

/// One untraced fig12 pass through the sweep runner, as `fig12_main` runs
/// it: baselines (exact output, then store lookup or simulation), then the
/// 66 scheme cells.
fn fig12_pass(apps: &[AppSpec], cfg: &GpuConfig, store_dir: &Path) -> Fig12Cells {
    let runner = SweepRunner::with_workers(WORKERS)
        .quiet()
        .with_cache(Some(CachePolicy::new(store_dir, CacheMode::Auto)));
    let bases = runner.baselines(apps, cfg, SCALE);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else { continue };
        for scheme in Scheme::PAPER {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .scheme(scheme)
                    .scale(SCALE),
                base.exact.clone(),
            ));
        }
    }
    let mut cells = runner.measure_all(specs).into_iter();
    apps.iter()
        .zip(bases)
        .map(|(app, base)| match base {
            Ok(b) => (
                app.name.to_string(),
                Ok(b.measurement.clone()),
                cells
                    .by_ref()
                    .take(Scheme::PAPER.len())
                    .map(|c| c.map_err(|f| f.to_string()))
                    .collect(),
            ),
            Err(f) => (app.name.to_string(), Err(f.to_string()), Vec::new()),
        })
        .collect()
}

/// Checks every cell of a pass and folds its modelled metrics; returns the
/// simulated core cycles the pass delivered.
fn fig12_check(cells: &Fig12Cells, pins: &Pins, check: &mut Check, modelled: &mut Modelled) -> u64 {
    let mut cycles = 0;
    for (app, base, schemes) in cells {
        check.cell(
            pins,
            &format!("{app}/baseline"),
            base.as_ref().map_err(String::as_str),
        );
        for (i, c) in schemes.iter().enumerate() {
            check.cell(
                pins,
                &format!("{app}/{}", Scheme::PAPER[i].label()),
                c.as_ref().map_err(String::as_str),
            );
        }
        for _ in schemes.len()..Scheme::PAPER.len() {
            check.fail(&format!(
                "{app}: scheme cells missing after a failed baseline"
            ));
        }
        let Ok(base) = base else { continue };
        cycles += base.stats.core_cycles;
        for c in schemes.iter().flatten() {
            cycles += c.stats.core_cycles;
            if c.scheme == Scheme::DynCombo.label() {
                modelled.add(c, base.row_energy_pj, base.ipc);
            }
        }
    }
    cycles
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", dir.display())),
    }
}

/// Set-up shared by both fig12 workloads: the median set-up pass, plus on
/// `fig12_warm` one full sweep that fills the store (counted in set-up).
fn fig12_prepare(
    a: &Args,
    apps: &[AppSpec],
    cfg: &GpuConfig,
    pins: &Pins,
    check: &mut Check,
) -> Result<(PathBuf, f64, f64), String> {
    let mut launches = Vec::new();
    let (_, setup_s) = repeated_setup(|| launches.push(fig12_setup(apps, cfg)));
    let store = a.work_dir.join("store");
    fresh_dir(&store)?;
    let mut fill_s = 0.0;
    if a.workload == Workload::Fig12Warm {
        let t = Instant::now();
        let cells = fig12_pass(apps, cfg, &store);
        fill_s = t.elapsed().as_secs_f64();
        fig12_check(&cells, pins, check, &mut Modelled::default());
    }
    Ok((store, setup_s + fill_s, median(&launches)))
}

fn fig12_untraced(a: &Args, pins: &Pins, check: &mut Check, m: &mut Metrics) -> Result<(), String> {
    let apps = fig12_apps();
    let cfg = gpu_config();
    let (store, setup_s, _) = fig12_prepare(a, &apps, &cfg, pins, check)?;
    let warm = a.workload == Workload::Fig12Warm;
    let mut passes = Vec::new();
    let mut total = 0.0;
    let mut modelled = Modelled::default();
    while passes.is_empty() || total < a.seconds {
        if !warm {
            fresh_dir(&store)?;
        }
        let t = Instant::now();
        let cells = fig12_pass(&apps, &cfg, &store);
        let wall = t.elapsed().as_secs_f64();
        total += wall;
        let mut pass_model = Modelled::default();
        let cycles = fig12_check(&cells, pins, check, &mut pass_model);
        if passes.is_empty() {
            modelled = pass_model;
        }
        passes.push((wall, cycles as f64 / wall));
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
    let cps: Vec<f64> = passes.iter().map(|p| p.1).collect();
    eprintln!("{}: pass walls {walls:.4?}", a.workload.name());
    end_to_end(m, median(&walls), median(&cps), setup_s)?;
    modelled.put(m);
    Ok(())
}

/// What one traced fig12 job returns: its spans and its cell.
struct JobOut {
    job_s: f64,
    exact_s: f64,
    get_s: f64,
    put_s: f64,
    run_s: f64,
    exact: Option<Arc<Vec<f32>>>,
    cell: Result<Measurement, String>,
    trace: Option<Trace>,
}

/// One fig12 cell as a traced job: exact output (baselines only), store
/// lookup, simulation with stream capture on a miss, publish.
fn traced_job(
    app: &AppSpec,
    cfg: &GpuConfig,
    scheme: Scheme,
    exact: Option<Arc<Vec<f32>>>,
    store: &Store,
) -> JobOut {
    let start = Instant::now();
    let mut out = JobOut {
        job_s: 0.0,
        exact_s: 0.0,
        get_s: 0.0,
        put_s: 0.0,
        run_s: 0.0,
        exact: None,
        cell: Err("not run".into()),
        trace: None,
    };
    let exact = exact.unwrap_or_else(|| {
        let t = Instant::now();
        let e = Arc::new(exact_output(app, SCALE));
        out.exact_s = t.elapsed().as_secs_f64();
        e
    });
    let builder = SimBuilder::new(app)
        .gpu(cfg.clone())
        .scheme(scheme)
        .scale(SCALE)
        .trace(true);
    let key = Store::cell_key(builder.cell_digest(), Fidelity::Execute);
    let t = Instant::now();
    let hit = store.lookup(key, app.name, builder.scheme_label());
    out.get_s = t.elapsed().as_secs_f64();
    out.cell = match hit {
        Some(cell) => Ok(cell),
        None => {
            let run = builder.build();
            let t = Instant::now();
            let measured = try_measure_traced(&run, &exact);
            out.run_s = t.elapsed().as_secs_f64();
            measured.and_then(|(cell, trace)| {
                out.trace = trace;
                let t = Instant::now();
                let published = store.publish(key, &cell);
                out.put_s = t.elapsed().as_secs_f64();
                published.map(|()| cell)
            })
        }
    };
    out.exact = Some(exact);
    out.job_s = start.elapsed().as_secs_f64();
    out
}

fn fig12_traced(a: &Args, pins: &Pins, check: &mut Check, m: &mut Metrics) -> Result<(), String> {
    let apps = fig12_apps();
    let cfg = gpu_config();
    let (store_dir, _, launch_s) = fig12_prepare(a, &apps, &cfg, pins, check)?;
    let warm = a.workload == Workload::Fig12Warm;
    let mut l = Layers {
        workers: WORKERS,
        launch_s,
        ..Layers::default()
    };
    let mut streams: Vec<(Trace, Scheme)> = Vec::new();
    let mut total = 0.0;
    while l.passes == 0 || total < a.seconds {
        if !warm {
            fresh_dir(&store_dir)?;
        }
        streams.clear();
        let t = Instant::now();
        let store = Store::open(&store_dir, CacheMode::Auto)?;
        let runner = SweepRunner::with_workers(WORKERS).quiet();
        let bases = runner.run(
            apps.iter()
                .map(|app| {
                    let (cfg, store) = (&cfg, &store);
                    Job::new(format!("{}/baseline", app.name), move || {
                        traced_job(app, cfg, Scheme::Baseline, None, store)
                    })
                })
                .collect(),
        );
        let mut jobs = Vec::new();
        for (app, base) in apps.iter().zip(&bases) {
            let Ok(JobOut {
                exact: Some(exact),
                cell: Ok(_),
                ..
            }) = base
            else {
                continue;
            };
            for scheme in Scheme::PAPER {
                let (cfg, store, exact) = (&cfg, &store, exact.clone());
                jobs.push(Job::new(
                    format!("{}/{}", app.name, scheme.label()),
                    move || traced_job(app, cfg, scheme, Some(exact), store),
                ));
            }
        }
        let cells = runner.run(jobs);
        let wall = t.elapsed().as_secs_f64();
        total += wall;
        l.passes += 1;
        l.walls.push(wall);
        let s = store.stats();
        l.hits += s.hits();
        l.misses += s.misses;
        l.bytes += s.bytes_read + s.bytes_written;

        // Regroup into the untraced pass's shape for the shared check.
        let mut outs = bases
            .into_iter()
            .chain(cells)
            .map(|r| r.map_err(|f| f.to_string()));
        let mut grouped: Fig12Cells = Vec::new();
        let mut all = Vec::new();
        for app in &apps {
            let base = outs.next().expect("one baseline job per app");
            let ok = matches!(&base, Ok(JobOut { cell: Ok(_), .. }));
            let schemes: Vec<Result<JobOut, String>> = if ok {
                outs.by_ref().take(Scheme::PAPER.len()).collect()
            } else {
                Vec::new()
            };
            let cell_of = |o: &Result<JobOut, String>| match o {
                Ok(o) => o.cell.clone(),
                Err(e) => Err(e.clone()),
            };
            grouped.push((
                app.name.to_string(),
                cell_of(&base),
                schemes.iter().map(cell_of).collect(),
            ));
            all.push((Scheme::Baseline, base));
            all.extend(Scheme::PAPER.into_iter().zip(schemes));
        }
        fig12_check(&grouped, pins, check, &mut Modelled::default());
        for (scheme, out) in all {
            l.jobs += 1;
            let Ok(out) = out else {
                l.jobs_failed += 1;
                continue;
            };
            l.job_s += out.job_s;
            l.exact_s += out.exact_s;
            l.get_s += out.get_s;
            l.put_s += out.put_s;
            l.run_s += out.run_s;
            if let Ok(cell) = &out.cell {
                if !cell.cached {
                    l.add_run(&cell.stats);
                }
            }
            if let Some(trace) = out.trace {
                streams.push((trace, scheme));
            }
        }
    }
    let run_s = l.run_s / l.passes as f64;
    put_layers(a, &l, m)?;
    replay_layers(&streams, run_s, check, m);
    Ok(())
}

// ------------------------------------------------------------------ pins

/// Simulates every pinned cell and prints `pins.txt`.
fn pin(work_dir: &Path) -> Result<(), String> {
    let apps = fig12_apps();
    let cfg = gpu_config();
    let store = work_dir.join("pin-store");
    fresh_dir(&store)?;
    let cells = fig12_pass(&apps, &cfg, &store);
    fresh_dir(&store)?;
    println!("# Pinned modelled results at scale 1.0, GDDR5: fig12_main's 77 cells plus GEMM");
    println!("# baseline and Dyn-DMS. Regenerate with: lazybench pin --work-dir <dir>");
    println!("# app\tscheme\tdigest\trow_energy_pj\tipc");
    let line = |c: &Measurement| {
        let pin = Pin {
            digest: cell_digest(&c.stats, c.app_error),
            row_energy_pj: c.row_energy_pj,
            ipc: c.ipc,
        };
        pin_line(&c.app, &c.scheme, &pin)
    };
    for (app, base, schemes) in &cells {
        let base = base
            .as_ref()
            .map_err(|e| format!("{app}/baseline failed: {e}"))?;
        println!("{}", line(base));
        for c in schemes {
            println!(
                "{}",
                line(c.as_ref().map_err(|e| format!("{app} cell failed: {e}"))?)
            );
        }
    }
    for scheme in [Scheme::Baseline, Scheme::DynDms] {
        let s = cell_setup("GEMM", scheme, false);
        println!("{}", line(&try_measure(&s.run, &s.exact)?));
    }
    Ok(())
}
