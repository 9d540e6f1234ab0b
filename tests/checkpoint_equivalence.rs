//! Checkpoint/resume must be invisible in results: interrupting any
//! application at an arbitrary cycle and resuming from the serialized
//! checkpoint must produce a **byte-identical** [`RunResult`] — output,
//! statistics (including the executed-cycle accounting), limit flag, and
//! DRAM trace — to the uninterrupted run.
//!
//! The `(app × scheme)` cross at tiny scale runs with a rotating pause
//! fraction, plus a second per-app rotation over other fractions; the
//! exhaustive `(app × scheme × pause fraction)` cross is available behind
//! `--ignored` for acceptance runs.

use lazydram::common::SchedConfig;
use lazydram::gpu::{Checkpoint, RunOutcome, RunResult, SimLimits};
use lazydram::workloads::{all_apps, by_name, AppSpec};
use lazydram::{SimBuilder, SimRun};

const SCALE: f64 = 0.02;

fn sim(app: &AppSpec, sched: &SchedConfig) -> SimRun {
    SimBuilder::new(app)
        .sched(sched.clone(), "ckpt")
        .scale(SCALE)
        .limits(SimLimits::default())
        .trace(true)
        .build()
}

fn schemes() -> Vec<(&'static str, SchedConfig)> {
    vec![
        ("baseline", SchedConfig::baseline()),
        ("Static-DMS", SchedConfig::static_dms()),
        ("Dyn-DMS", SchedConfig::dyn_dms()),
        ("Static-AMS", SchedConfig::static_ams()),
        ("Dyn-AMS", SchedConfig::dyn_ams()),
        ("Dyn-DMS+Dyn-AMS", SchedConfig::dyn_combo()),
    ]
}

fn assert_identical(name: &str, scheme: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.hit_cycle_limit, b.hit_cycle_limit, "{name}/{scheme}: limit flag");
    assert_eq!(a.output, b.output, "{name}/{scheme}: outputs differ");
    assert!(a.trace == b.trace, "{name}/{scheme}: DRAM traces differ");
    assert_eq!(a.stats, b.stats, "{name}/{scheme}: statistics differ");
}

/// Runs `app` uninterrupted, then interrupted at `frac` of its total cycles
/// with the checkpoint round-tripped through bytes, and asserts the two
/// results are byte-identical. Returns the pause cycle actually used.
fn assert_resume_identical(app: &AppSpec, scheme: &str, sched: &SchedConfig, frac: u64) -> u64 {
    let name = app.name;
    let run = sim(app, sched);
    let reference = run.run();
    let pause_at = reference.stats.core_cycles * frac / 100;
    let ck = match run.run_until(pause_at) {
        RunOutcome::Paused(ck) => ck,
        RunOutcome::Done(r) => {
            // Rounding can land the pause on the final cycle; the completed
            // run must still match the reference.
            assert_identical(name, scheme, &reference, &r);
            return pause_at;
        }
    };
    // Round-trip through bytes — the on-disk crash-recovery path.
    let ck = Checkpoint::from_bytes(ck.into_bytes())
        .unwrap_or_else(|e| panic!("{name}/{scheme}: checkpoint reload failed: {e:?}"));
    let resumed = run
        .resume(&ck)
        .unwrap_or_else(|e| panic!("{name}/{scheme}: resume failed: {e:?}"));
    assert_identical(name, scheme, &reference, &resumed);
    pause_at
}

#[test]
fn whole_suite_all_schemes_resume_identically() {
    // Full app × scheme cross, with the pause fraction rotating so early,
    // middle and late interrupts all occur.
    let schemes = schemes();
    for (i, app) in all_apps().into_iter().enumerate() {
        for (j, (label, sched)) in schemes.iter().enumerate() {
            let frac = [13, 37, 50, 73, 91][(i + j) % 5];
            assert_resume_identical(&app, label, sched, frac);
        }
    }
}

#[test]
fn naive_loop_resume_rotation_is_identical() {
    // A second rotation over pause fractions the cross above never uses
    // (20–76 %): every app resumes once and every scheme is exercised
    // several times.
    let schemes = schemes();
    for (i, app) in all_apps().into_iter().enumerate() {
        let (label, sched) = &schemes[i % schemes.len()];
        assert_resume_identical(&app, label, sched, 20 + 7 * (i as u64 % 9));
    }
}

#[test]
fn multi_launch_sequence_resumes_inside_later_launch() {
    // 3MM runs three dependent launches; pausing at 80% of the total lands
    // inside a later launch, exercising launch-index bookkeeping and the
    // scratch-image kernel rebuild on resume.
    let app = by_name("3MM").expect("app");
    let run = sim(&app, &SchedConfig::dyn_combo());
    let reference = run.run();
    let pause_at = reference.stats.core_cycles * 4 / 5;
    let ck = run.run_until(pause_at).expect_paused("3MM at 80% must still be running");
    assert!(ck.launch_idx() > 0, "pause should land past the first launch");
    let resumed = run.resume(&ck).expect("resume failed");
    assert_identical("3MM", "Dyn-DMS+Dyn-AMS", &reference, &resumed);
}

#[test]
fn chained_checkpoints_reach_the_same_result() {
    // Pause, resume-until a later pause, resume again: crash recovery may
    // restart a job several times, and every hop must stay on the exact
    // trajectory.
    let app = by_name("SCP").expect("app");
    let run = sim(&app, &SchedConfig::static_dms());
    let reference = run.run();
    let total = reference.stats.core_cycles;
    let ck1 = run.run_until(total / 4).expect_paused("SCP at 25%");
    let ck2 = run
        .resume_until(&ck1, total / 2)
        .expect("resume_until failed")
        .expect_paused("SCP at 50%");
    assert!(ck2.cycle() > ck1.cycle());
    // The second checkpoint must equal a direct pause at the same cycle.
    let direct = run.run_until(total / 2).expect_paused("SCP at 50% direct");
    assert_eq!(ck2.digest(), direct.digest(), "checkpoint trajectory diverged");
    let resumed = run.resume(&ck2).expect("final resume failed");
    assert_identical("SCP", "Static-DMS", &reference, &resumed);
}

#[test]
#[ignore = "exhaustive acceptance cross (slow): run with --ignored"]
fn exhaustive_cross_every_pause_fraction() {
    let schemes = schemes();
    for app in all_apps() {
        for (label, sched) in &schemes {
            for frac in [13, 37, 50, 73, 91] {
                assert_resume_identical(&app, label, sched, frac);
            }
        }
    }
}
