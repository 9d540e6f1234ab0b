//! Building blocks of the lazydram benchmark (`src/main.rs`): the knob
//! guard, the correctness digest, the pinned reference table, and the two
//! replayers that time the memory controller and the DRAM model from
//! outside the simulator.

use lazydram_common::{GpuConfig, SchedConfig, SimStats};
use lazydram_core::{MemoryController, Response};
use lazydram_dram::{DramBackend, MemoryBackend};
use lazydram_gpu::Trace;
use std::collections::{HashMap, VecDeque};

/// Refuses to run when any `LAZYDRAM_*` variable is set: the simulator and
/// the sweep runner read several of them (loop mode, thread count, cache,
/// trace and checkpoint directories), and any of them would change what
/// the benchmark measures.
///
/// # Errors
///
/// Names every offending variable.
pub fn refuse_knobs<I: IntoIterator<Item = (String, String)>>(vars: I) -> Result<(), String> {
    let mut set: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("LAZYDRAM_"))
        .collect();
    if set.is_empty() {
        return Ok(());
    }
    set.sort();
    Err(format!(
        "refusing to run with {} set: the benchmark pins every simulator knob itself; \
         unset it and run again",
        set.join(", ")
    ))
}

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Digest of one cell's modelled results: every simulated statistic plus
/// the output-derived application error.
///
/// Left out are the loop-mode diagnostics that a faster or simpler loop may
/// legitimately change (`cycles_skipped`, `compute_cycles_skipped`,
/// `ticks_executed`, the AMS decline/accept tallies) and the wall-clock
/// `prof` split.
pub fn cell_digest(stats: &SimStats, app_error: f64) -> u64 {
    let SimStats {
        core_cycles,
        instructions,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        approximated_loads,
        dram,
        ..
    } = stats;
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for x in [
        *core_cycles,
        *instructions,
        *l1_hits,
        *l1_misses,
        *l2_hits,
        *l2_misses,
        *approximated_loads,
        dram.mem_cycles,
        dram.activations,
        dram.precharges,
        dram.reads,
        dram.writes,
        dram.row_hits,
        dram.row_misses,
        dram.bus_busy_cycles,
        dram.requests_received,
        dram.global_reads_received,
        dram.dropped,
    ] {
        h.word(x);
    }
    for hist in [&dram.rbl, &dram.rbl_read_only] {
        h.word(u64::MAX);
        for (rbl, n) in hist.iter() {
            h.word(u64::from(rbl));
            h.word(n);
        }
    }
    h.word(app_error.to_bits());
    h.0
}

/// One pinned cell of `pins.txt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    /// [`cell_digest`] of the cell's results.
    pub digest: u64,
    /// Modelled row energy, pJ (reference for the single-cell ratios).
    pub row_energy_pj: f64,
    /// Modelled instructions per core cycle.
    pub ipc: f64,
}

/// The pinned reference table, keyed by `(app, scheme label)`.
pub type Pins = HashMap<(String, String), Pin>;

/// Formats one `pins.txt` row.
pub fn pin_line(app: &str, scheme: &str, pin: &Pin) -> String {
    format!(
        "{app}\t{scheme}\t{:016x}\t{:?}\t{:?}",
        pin.digest, pin.row_energy_pj, pin.ipc
    )
}

/// Parses `pins.txt`: one tab-separated `app scheme digest row_energy_pj
/// ipc` row per cell; `#` starts a comment line.
///
/// # Errors
///
/// Names the first malformed line.
pub fn parse_pins(text: &str) -> Result<Pins, String> {
    let mut pins = Pins::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("pins.txt line {}: malformed row {line:?}", n + 1);
        let f: Vec<&str> = line.split('\t').collect();
        let [app, scheme, digest, energy, ipc] = f[..] else {
            return Err(bad());
        };
        let pin = Pin {
            digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
            row_energy_pj: energy.parse().map_err(|_| bad())?,
            ipc: ipc.parse().map_err(|_| bad())?,
        };
        if pins
            .insert((app.to_string(), scheme.to_string()), pin)
            .is_some()
        {
            return Err(format!(
                "pins.txt line {}: duplicate cell {app}/{scheme}",
                n + 1
            ));
        }
    }
    Ok(pins)
}

/// Memory cycles without a completion after which a replay gives up and
/// reports the rest of the stream as unserved (far beyond any DMS delay).
const DRAIN_GRACE: u64 = 10_000_000;

/// What the controller replay did with one captured stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreReplay {
    /// Requests in the stream.
    pub requests: u64,
    /// Requests served by DRAM (reads + writes).
    pub served: u64,
    /// Requests dropped by AMS.
    pub dropped: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that opened a row.
    pub row_misses: u64,
    /// Request-cycles spent waiting because `can_accept` refused them.
    pub backlog_cycles: u64,
    /// Memory cycles ticked, summed over controllers.
    pub mem_cycles: u64,
}

/// Replays a captured request stream through fresh [`MemoryController`]s,
/// one per channel, under `sched`: each request is offered at its recorded
/// memory cycle (later when the pending queue is full) and every
/// controller is ticked once per cycle until all are idle.
pub fn replay_core(trace: &Trace, cfg: &GpuConfig, sched: &SchedConfig) -> CoreReplay {
    let channels = cfg.num_channels;
    let mut mcs: Vec<MemoryController> = (0..channels)
        .map(|_| MemoryController::new(cfg, sched))
        .collect();
    let mut backlog = vec![VecDeque::new(); channels];
    let mut entries = trace.iter().peekable();
    let mut out: Vec<Response> = Vec::new();
    let mut replay = CoreReplay {
        requests: trace.len() as u64,
        ..CoreReplay::default()
    };
    let (mut now, mut completed, mut last_progress) = (0u64, 0u64, 0u64);
    loop {
        now += 1;
        while let Some(e) = entries.next_if(|e| e.cycle <= now) {
            backlog[usize::from(e.channel)].push_back(e.request);
        }
        for (mc, queue) in mcs.iter_mut().zip(&mut backlog) {
            while mc.can_accept() {
                let Some(req) = queue.pop_front() else { break };
                mc.enqueue(req).expect("can_accept was checked");
            }
            replay.backlog_cycles += queue.len() as u64;
            mc.tick(&mut out);
        }
        out.clear();
        if entries.peek().is_some() {
            continue;
        }
        if backlog.iter().all(VecDeque::is_empty) && mcs.iter().all(MemoryController::is_idle) {
            break;
        }
        // Past the last arrival: give up only when nothing completes for
        // DRAIN_GRACE cycles; the leftovers then show as unserved.
        let now_completed: u64 = mcs
            .iter()
            .map(|m| m.stats().reads + m.stats().writes + m.stats().dropped)
            .sum();
        if now_completed > completed {
            (completed, last_progress) = (now_completed, now);
        } else if now - last_progress > DRAIN_GRACE {
            break;
        }
    }
    for mc in &mut mcs {
        let _ = mc.drain();
        let s = mc.stats();
        replay.served += s.reads + s.writes;
        replay.dropped += s.dropped;
        replay.row_hits += s.row_hits;
        replay.row_misses += s.row_misses;
        replay.mem_cycles += mc.now();
    }
    replay
}

/// What the in-order DRAM command replay did with one captured stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramReplay {
    /// Requests in the stream.
    pub requests: u64,
    /// Requests served by a CAS.
    pub served: u64,
    /// Commands issued: ACT + PRE + CAS + REF.
    pub commands: u64,
    /// Row activations.
    pub activations: u64,
    /// All-bank refreshes.
    pub refreshes: u64,
    /// Data-bus busy cycles, summed over channels.
    pub bus_busy_cycles: u64,
    /// Memory cycles elapsed, summed over channels.
    pub mem_cycles: u64,
}

impl DramReplay {
    /// Served requests per activation.
    pub fn avg_rbl(&self) -> f64 {
        self.served as f64 / self.activations.max(1) as f64
    }

    /// Data-bus busy share of the elapsed memory cycles.
    pub fn bus_util(&self) -> f64 {
        self.bus_busy_cycles as f64 / self.mem_cycles.max(1) as f64
    }
}

/// Issues a captured stream straight to one [`DramBackend`] per channel, in
/// arrival order and without scheduling: each request gets the
/// PRE/ACT it needs and then its CAS, one command per memory cycle, with an
/// all-bank REF (after closing open rows) whenever one falls due.
pub fn replay_dram(trace: &Trace, cfg: &GpuConfig) -> DramReplay {
    let banks_per_group = cfg.banks_per_channel / cfg.bank_groups;
    let mut backends: Vec<DramBackend> = (0..cfg.num_channels)
        .map(|_| DramBackend::new(cfg))
        .collect();
    let mut clocks = vec![0u64; cfg.num_channels];
    let mut replay = DramReplay {
        requests: trace.len() as u64,
        ..DramReplay::default()
    };
    for e in trace.iter() {
        let ch = usize::from(e.channel);
        let (dram, now) = (&mut backends[ch], &mut clocks[ch]);
        let req = &e.request;
        let bank = req.loc.flat_bank(banks_per_group);
        *now = (*now).max(e.cycle);
        loop {
            dram.advance_to(*now);
            let t = *now;
            *now += 1;
            if dram.refresh_due(t) {
                if dram.can_refresh(t) {
                    dram.refresh(t);
                    replay.commands += 1;
                } else if let Some(b) = (0..cfg.banks_per_channel)
                    .find(|&b| dram.open_banks() >> b & 1 == 1 && dram.can_precharge(b, t))
                {
                    dram.precharge(b, t);
                    replay.commands += 1;
                }
                continue;
            }
            match dram.open_row(bank) {
                Some(row) if row == req.loc.row => {
                    if dram.can_cas(bank, req.kind, t) {
                        dram.cas(bank, req.kind, req.is_global_read(), t);
                        replay.commands += 1;
                        replay.served += 1;
                        break;
                    }
                }
                Some(_) => {
                    if dram.can_precharge(bank, t) {
                        dram.precharge(bank, t);
                        replay.commands += 1;
                    }
                }
                None => {
                    if dram.can_activate(bank, t) {
                        dram.activate(bank, req.loc.row, t);
                        replay.commands += 1;
                    }
                }
            }
        }
    }
    for (dram, now) in backends.iter_mut().zip(&clocks) {
        dram.advance_to(*now);
        dram.drain();
        let s = dram.stats();
        replay.activations += s.activations;
        replay.bus_busy_cycles += s.bus_busy_cycles;
        replay.mem_cycles += s.mem_cycles;
        replay.refreshes += dram.refreshes();
    }
    replay
}
