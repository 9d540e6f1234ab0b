//! Property test: the paged-arena memory image is observationally identical
//! to a plain sparse per-line map.
//!
//! The arena is a pure performance structure — every read and write must
//! behave exactly as if each touched line lived behind its own map entry
//! (the pre-rework representation). This test drives a [`MemoryImage`] and a
//! reference model through the same random operation sequence — allocations,
//! scalar and batch reads/writes (batch reads also through an
//! [`OverlayView`]), line and slice reads, including
//! out-of-arena stray addresses and allocations that grow the arena over
//! previously spilled lines — and demands identical observations throughout,
//! plus identical "lines ever written" accounting (`resident_lines`).

use lazydram_common::{FastMap, SplitMix64};
use lazydram_gpu::{MemoryImage, OverlayView, LINE_BYTES, WORDS_PER_LINE};
use proptest::prelude::*;

/// The reference: one map entry per line ever written, zeros elsewhere.
/// Exactly the pre-rework `MemoryImage` representation, minus the allocator
/// (which only hands out addresses and never affects stored values).
#[derive(Default)]
struct ModelImage {
    lines: FastMap<u64, [f32; WORDS_PER_LINE]>,
}

impl ModelImage {
    fn read(&self, addr: u64) -> f32 {
        let line = addr & !(LINE_BYTES - 1);
        let word = ((addr % LINE_BYTES) / 4) as usize;
        self.lines.get(&line).map_or(0.0, |w| w[word])
    }

    fn write(&mut self, addr: u64, value: f32) {
        let line = addr & !(LINE_BYTES - 1);
        let word = ((addr % LINE_BYTES) / 4) as usize;
        self.lines.entry(line).or_insert([0.0; WORDS_PER_LINE])[word] = value;
    }

    fn read_line(&self, addr: u64) -> [f32; WORDS_PER_LINE] {
        let line = addr & !(LINE_BYTES - 1);
        self.lines.get(&line).copied().unwrap_or([0.0; WORDS_PER_LINE])
    }
}

/// Draws a 4-aligned address: usually inside an allocated region, sometimes
/// a stray — below the arena base, far above anything allocated, or just
/// past the bump cursor (spills that a later `alloc` may grow over).
fn draw_addr(rng: &mut SplitMix64, regions: &[(u64, u64)]) -> u64 {
    let kind = rng.next_u64() % 10;
    let addr = if kind < 7 && !regions.is_empty() {
        let (base, words) = regions[(rng.next_u64() % regions.len() as u64) as usize];
        // Mostly in range, occasionally a little past the end of the region.
        base + (rng.next_u64() % (words + 64)) * 4
    } else if kind == 7 {
        // Below the arena base (the fixed 0x10_0000 alloc start).
        rng.next_u64() % 0x10_0000
    } else if kind == 8 {
        // Far beyond anything alloc will ever cover in this test.
        (1 << 40) + rng.next_u64() % (1 << 20)
    } else {
        // Just above the arena start: spills early, may be grown over later.
        0x10_0000 + rng.next_u64() % (1 << 22)
    };
    addr & !3
}

/// Arena page size (mirrors the image's private constant): runs that cross
/// it must still copy correctly.
const PAGE_BYTES: u64 = 64 * 1024;

/// Draws one warp load's lane addresses in one of the shapes the lane
/// reader has to get right: warp-typical same-line runs broken by jumps; a
/// GEMM-shaped batch (8 consecutive broadcast lanes, then 8 rows of 32
/// consecutive words, 264 lanes); mostly falling walks with repeated
/// addresses and short rising steps; and a rising run that starts mid-line
/// just before a line or a page boundary and crosses it.
fn draw_lanes(rng: &mut SplitMix64, regions: &[(u64, u64)]) -> Vec<u64> {
    let mut addrs = Vec::new();
    match rng.next_u64() % 4 {
        0 => {
            let n = 1 + (rng.next_u64() % 32) as usize;
            let mut a = draw_addr(rng, regions);
            for _ in 0..n {
                if rng.next_u64().is_multiple_of(4) {
                    a = draw_addr(rng, regions);
                } else {
                    a = (a + 4) & !3;
                }
                addrs.push(a);
            }
        }
        1 => {
            let a = draw_addr(rng, regions);
            let b = draw_addr(rng, regions);
            let row = 4 * (32 + rng.next_u64() % 512);
            addrs.extend((0..8).map(|k| a + 4 * k));
            addrs.extend((0..8).flat_map(|r| (0..32).map(move |l| b + r * row + 4 * l)));
        }
        2 => {
            let n = 1 + (rng.next_u64() % 64) as usize;
            let mut a = draw_addr(rng, regions).max(4 * 64);
            for _ in 0..n {
                match rng.next_u64() % 8 {
                    0 => a = draw_addr(rng, regions).max(4 * 64),
                    1 | 2 => {}
                    3 => a += 4,
                    _ => a -= 4,
                }
                addrs.push(a);
            }
        }
        _ => {
            let a = draw_addr(rng, regions);
            let boundary = if rng.next_u64().is_multiple_of(2) { LINE_BYTES } else { PAGE_BYTES };
            let start = (a | (boundary - 1)) + 1 - 4 * (1 + rng.next_u64() % 31);
            let n = 2 + rng.next_u64() % 63;
            addrs.extend((0..n).map(|k| start + 4 * k));
        }
    }
    addrs
}

/// Draws a non-empty overlay of staged writes, ordered oldest to newest:
/// mostly onto the lanes' own addresses (some written twice), a few
/// elsewhere.
fn draw_overlay(rng: &mut SplitMix64, regions: &[(u64, u64)], addrs: &[u64]) -> Vec<(u64, f32)> {
    let n = 1 + (rng.next_u64() % 8) as usize;
    (0..n)
        .map(|i| {
            let a = if rng.next_u64().is_multiple_of(4) {
                draw_addr(rng, regions)
            } else {
                addrs[(rng.next_u64() % addrs.len() as u64) as usize]
            };
            (a, 1000.0 + i as f32)
        })
        .collect()
}

fn check_equivalence(seed: u64, ops: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut img = MemoryImage::new();
    let mut model = ModelImage::default();
    let mut regions: Vec<(u64, u64)> = Vec::new();
    let mut scratch = Vec::new();

    for step in 0..ops {
        match rng.next_u64() % 16 {
            // Grow the arena. Values must be unaffected even when the new
            // range swallows previously spilled lines (migration).
            0 | 1 => {
                let words = 1 + (rng.next_u64() % 20_000) as usize;
                let base = img.alloc(words);
                regions.push((base, words as u64));
            }
            2..=4 => {
                let addr = draw_addr(&mut rng, &regions);
                let val = (rng.next_u64() % 1000) as f32 - 500.0;
                img.write_f32(addr, val);
                model.write(addr, val);
            }
            5..=7 => {
                let addr = draw_addr(&mut rng, &regions);
                assert_eq!(img.read_f32(addr), model.read(addr), "read_f32 at {addr:#x}");
            }
            8 => {
                let addr = draw_addr(&mut rng, &regions);
                assert_eq!(img.read_line(addr), model.read_line(addr), "read_line at {addr:#x}");
            }
            9 | 10 => {
                // Batch lane read, plain and through a non-empty overlay.
                let addrs = draw_lanes(&mut rng, &regions);
                if rng.next_u64().is_multiple_of(2) {
                    // Distinct words in every line the lanes touch, so a lane
                    // served the wrong word reads a wrong value.
                    for &a in &addrs {
                        let line = a & !(LINE_BYTES - 1);
                        let data: Vec<f32> = (0..WORDS_PER_LINE as u64)
                            .map(|k| ((line / 4 + k) % 1_000_000) as f32)
                            .collect();
                        img.write_slice(line, &data);
                        for (k, &v) in data.iter().enumerate() {
                            model.write(line + 4 * k as u64, v);
                        }
                    }
                }
                img.read_lanes_into(&addrs, &mut scratch);
                let expect: Vec<f32> = addrs.iter().map(|&a| model.read(a)).collect();
                assert_eq!(scratch, expect, "read_lanes_into {addrs:?}");
                let overlay = draw_overlay(&mut rng, &regions, &addrs);
                OverlayView::new(&img, &overlay).read_lanes_into(&addrs, &mut scratch);
                let expect: Vec<f32> = addrs
                    .iter()
                    .map(|&a| {
                        overlay.iter().rev().find(|&&(o, _)| o == a).map_or(model.read(a), |o| o.1)
                    })
                    .collect();
                assert_eq!(scratch, expect, "overlay read_lanes_into {addrs:?} over {overlay:?}");
            }
            11 | 12 => {
                let n = 1 + (rng.next_u64() % 32) as usize;
                let mut writes = Vec::with_capacity(n);
                let mut a = draw_addr(&mut rng, &regions);
                for _ in 0..n {
                    if rng.next_u64().is_multiple_of(4) {
                        a = draw_addr(&mut rng, &regions);
                    } else {
                        a += 4;
                    }
                    writes.push((a, step as f32 + (rng.next_u64() % 100) as f32));
                }
                img.write_lanes(&writes);
                for &(a, v) in &writes {
                    model.write(a, v);
                }
            }
            13 => {
                let base = draw_addr(&mut rng, &regions);
                let n = (rng.next_u64() % 200) as usize;
                img.read_slice_into(base, n, &mut scratch);
                let expect: Vec<f32> =
                    (0..n as u64).map(|i| model.read(base + i * 4)).collect();
                assert_eq!(scratch, expect, "read_slice_into at {base:#x} x{n}");
            }
            14 => {
                let base = draw_addr(&mut rng, &regions);
                let n = (rng.next_u64() % 100) as usize;
                let data: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 7.0).collect();
                img.write_slice(base, &data);
                for (i, &v) in data.iter().enumerate() {
                    model.write(base + i as u64 * 4, v);
                }
            }
            _ => {
                // The arena must keep the sparse map's accounting: a line is
                // resident iff it was ever written (reads never materialize).
                assert_eq!(
                    img.resident_lines(),
                    model.lines.len(),
                    "resident_lines diverged at step {step}"
                );
            }
        }
    }
    assert_eq!(img.resident_lines(), model.lines.len(), "final resident_lines");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn paged_arena_matches_sparse_map(seed in 0u64..u64::MAX, ops in 50usize..400) {
        check_equivalence(seed, ops);
    }
}

/// One long deterministic run so the migration path (spill → alloc growth)
/// is exercised even if the random cases draw unlucky.
#[test]
fn long_run_with_forced_migration() {
    let mut img = MemoryImage::new();
    let mut model = ModelImage::default();
    // Write strays just above the arena start before any allocation...
    for i in 0..200u64 {
        let addr = 0x10_0000 + i * 260; // straddles many distinct lines
        img.write_f32(addr & !3, i as f32);
        model.write(addr & !3, i as f32);
    }
    assert_eq!(img.resident_lines(), model.lines.len());
    // ...then allocate over them, forcing spill → arena migration.
    let base = img.alloc(64 * 1024);
    assert_eq!(base, 0x10_0000);
    assert_eq!(img.resident_lines(), model.lines.len(), "migration must not change accounting");
    for i in 0..200u64 {
        let addr = (0x10_0000 + i * 260) & !3;
        assert_eq!(img.read_f32(addr), model.read(addr), "post-migration value at {addr:#x}");
    }
    check_equivalence(0xD5_2019, 600);
}
