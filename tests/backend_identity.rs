//! The default (GDDR5) backend must be **byte-identical** to the pre-trait
//! hard-wired channel model.
//!
//! `crates/bench/captures/pre_pr10/` holds `LAZYDRAM_RESULTS` JSONL from
//! the fig04/fig12 harnesses captured at the commit *before* the
//! [`MemoryBackend`] extraction (`LAZYDRAM_SCALE=0.05`). This test re-runs
//! a cross-section of those cells through today's trait-dispatched
//! [`Gddr5Backend`] and compares [`Measurement::to_json`] byte-for-byte
//! against the captured lines — any drift in timing, statistics, energy or
//! float formatting fails here before it reaches the tier-1 figure diff
//! (which compares the *full* 140/77-record files).
//!
//! Both sides drop the three loop counters (`cycles_skipped`,
//! `compute_cycles_skipped`, `ticks_executed`) before comparing: the
//! captures were taken under an event-driven loop that skipped cycles, and
//! the counters describe how the loop ran, not what it computed.

use lazydram::bench::{measure, Measurement};
use lazydram::common::{DmsMode, SchedConfig};
use lazydram::workloads::by_name;
use lazydram::{Scheme, SimBuilder};

const SCALE: f64 = 0.05;

fn captured(file: &str, app: &str, scheme: &str) -> String {
    let path = format!("crates/bench/captures/pre_pr10/{file}");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing pre-PR capture {path}: {e}"));
    text.lines()
        .find(|l| l.contains(&format!("\"app\":\"{app}\"")) && l.contains(&format!("\"scheme\":\"{scheme}\"")))
        .unwrap_or_else(|| panic!("no {app}/{scheme} record in {path}"))
        .to_string()
}

/// Removes each `"<counter>":<digits>,` loop-counter field from a JSONL
/// record, like tier1.sh's `strip_loop_counters`.
fn strip_loop_counters(line: &str) -> String {
    let mut s = line.to_string();
    for key in ["cycles_skipped", "compute_cycles_skipped", "ticks_executed"] {
        let pat = format!("\"{key}\":");
        if let Some(start) = s.find(&pat) {
            let digits = s[start + pat.len()..]
                .bytes()
                .take_while(u8::is_ascii_digit)
                .count();
            let end = start + pat.len() + digits;
            if digits > 0 && s[end..].starts_with(',') {
                s.replace_range(start..=end, "");
            }
        }
    }
    s
}

fn assert_cell_matches(file: &str, m: &Measurement) {
    let want = captured(file, &m.app, &m.scheme);
    assert_eq!(
        strip_loop_counters(&m.to_json()),
        strip_loop_counters(&want),
        "{}/{}: GDDR5 backend drifted from the pre-trait capture",
        m.app,
        m.scheme
    );
}

#[test]
fn gddr5_matches_pre_trait_fig12_cells() {
    let app = by_name("SCP").expect("app");
    let exact = lazydram::workloads::exact_output(&app, SCALE);
    for scheme in [Scheme::Baseline, Scheme::DynDms, Scheme::DynCombo] {
        let run = SimBuilder::new(&app).scheme(scheme).scale(SCALE).build();
        let m = measure(&run, &exact);
        assert_cell_matches("fig12.jsonl", &m);
    }
}

#[test]
fn gddr5_matches_pre_trait_fig04_cells() {
    let app = by_name("SCP").expect("app");
    let exact = lazydram::workloads::exact_output(&app, SCALE);
    for delay in [64u32, 512] {
        let run = SimBuilder::new(&app)
            .sched(
                SchedConfig { dms: DmsMode::Static(delay), ..SchedConfig::baseline() },
                format!("DMS({delay})"),
            )
            .scale(SCALE)
            .build();
        let m = measure(&run, &exact);
        assert_cell_matches("fig04.jsonl", &m);
    }
}
