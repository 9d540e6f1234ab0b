//! Pins the simulation semantics behind the result cache.
//!
//! The content-addressed store (`lazydram::bench::store`) folds
//! [`lazydram::common::SEMANTICS_VERSION`] into every cache key, trusting
//! that two builds with the same version compute identical measurements.
//! This test makes that contract enforceable: it runs a small fixed set of
//! cells and digests their exact stored bytes.
//!
//! * **If this test fails and you changed simulator behavior on purpose**
//!   (timing, scheduling, energy, workload inputs, statistics): bump
//!   `SEMANTICS_VERSION` in `crates/common/src/lib.rs` — invalidating every
//!   existing cache entry — and re-pin `PINNED` below with the printed
//!   values.
//! * **If you did not mean to change behavior**: this is a regression; the
//!   digest caught results drifting. Fix the code, not the pin.
//! * Speed-only changes (loop structure, allocation) must NOT trip this
//!   test — if one does, it changed results, not just speed.
//! * **Wire-format changes** (a new serialized statistics field, a `snap`
//!   frame version bump) change the stored *bytes* without changing the
//!   measured results. Those re-pin the digest here and bump
//!   `STORE_VERSION` in `crates/bench/src/store.rs`, but leave
//!   `SEMANTICS_VERSION` alone — prove results are untouched via the
//!   bit-identity checks (tier1's fig04/fig12 captures and
//!   `tests/backend_identity.rs`) before re-pinning.
//! * **Loop-counter changes** (`cycles_skipped`, `compute_cycles_skipped`,
//!   `ticks_executed`) are stored bytes too. The pins below were re-taken
//!   when the event-driven fast-forward was deleted: they are the digests
//!   the previous revision printed with fast-forward switched off, which
//!   the plain loop now reproduces exactly.
//!   Neither version constant moved, since no measured result changed.

use lazydram::bench::store::encode_entry;
use lazydram::bench::{measure, Measurement};
use lazydram::common::snap::{digest, fold};
use lazydram::common::{DramPreset, SEMANTICS_VERSION};
use lazydram::workloads::by_name;
use lazydram::{Scheme, SimBuilder};

/// `(SEMANTICS_VERSION, golden digest)` — see the module docs for the
/// re-pin protocol. (The digest covers stored bytes, so `STORE_VERSION`
/// bumps re-pin it too; the v3 and v4 re-pins carried no behavior change —
/// with `STORE_VERSION` set back, every cell reproduced its previous pin.)
const PINNED: (u64, u64) = (1, 0x6573bba70465ac03);

/// One golden cell per non-default memory backend: SCP under the headline
/// scheme on each new backend model. A drifting digest here with a clean
/// [`PINNED`] means only the new backends changed behavior — same re-pin
/// protocol, scoped to the named backend.
const PINNED_BACKENDS: [(DramPreset, u64); 4] = [
    (DramPreset::Naive, 0x1eff93452dd0b3d6),
    (DramPreset::Ddr4, 0x3c5a82727655eedf),
    (DramPreset::Lpddr4, 0x1d0b7b81c2f22e20),
    (DramPreset::Flex, 0x376e3378a10e6168),
];

fn cell(app: &str, scheme: Scheme) -> Measurement {
    preset_cell(app, scheme, DramPreset::Gddr5)
}

fn preset_cell(app: &str, scheme: Scheme, preset: DramPreset) -> Measurement {
    let app = by_name(app).expect("known app");
    let run = SimBuilder::new(&app).preset(preset).scheme(scheme).scale(0.05).build();
    let exact = run.exact_output();
    measure(&run, &exact)
}

#[test]
fn semantics_version_pins_golden_outputs() {
    // A small cross-section: the baseline path, the full combined scheme
    // (DMS delay + AMS approximation + value prediction), and a pure-DMS
    // cell on a second app. Digested over the exact bytes the store would
    // serve, so anything the cache can possibly return is covered.
    let mut h = 0u64;
    for m in [
        cell("SCP", Scheme::Baseline),
        cell("SCP", Scheme::DynCombo),
        cell("GEMM", Scheme::DynDms),
    ] {
        h = fold(h, digest(&encode_entry(0, &m)));
    }
    assert_eq!(
        (SEMANTICS_VERSION, h),
        PINNED,
        "simulation semantics drifted from the pinned golden outputs \
         (got version {SEMANTICS_VERSION}, digest {h:#018x}). If the behavior change is \
         intentional, bump SEMANTICS_VERSION in crates/common/src/lib.rs (this \
         invalidates all cached results) and re-pin PINNED in this test; \
         otherwise find and fix the regression."
    );
}

#[test]
fn backend_semantics_pin_golden_outputs() {
    for (preset, pinned) in PINNED_BACKENDS {
        let m = preset_cell("SCP", Scheme::DynCombo, preset);
        let h = digest(&encode_entry(0, &m));
        assert_eq!(
            h, pinned,
            "backend {preset} drifted from its pinned golden cell              (got digest {h:#018x}); follow the re-pin protocol in the              module docs"
        );
    }
}
