//! Superinstruction fusion and loop-granular stream fusion must be
//! invisible everywhere except wall time: every figure byte, operation
//! count, program output (checksums), memory highwater and per-site
//! profile is identical across all four `InterpOpts` combinations.
//! (Collection storage is not a toggle: it follows from each
//! collection's static type, and the collection-level twin tests in
//! `ade-interp` compare every unboxed and columnar backend with its
//! boxed fallback op by op.) These tests are the optimizations' safety
//! net — never weaken them to make a change pass.

use ade_bench::figures::{cells_for_target, Session};
use ade_bench::runner::{try_run_benchmark_cell, InterpOpts};
use ade_workloads::bench::benchmark_by_abbrev;

const SCALE: u32 = 5;

/// All four fuse × loop_fuse combinations, the all-off baseline first.
fn combos() -> impl Iterator<Item = InterpOpts> {
    (0u8..4).map(|b| InterpOpts {
        fuse: b & 1 != 0,
        loop_fuse: b & 2 != 0,
    })
}

const ALL_OFF: InterpOpts = InterpOpts {
    fuse: false,
    loop_fuse: false,
};

fn combo_name(o: InterpOpts) -> String {
    format!("fuse={} loop_fuse={}", o.fuse, o.loop_fuse)
}

/// Fig. 5 text (wall ratios suppressed) is byte-identical under every
/// combination of the two interpreter optimizations.
#[test]
fn fig5_text_is_byte_identical_across_interp_opts() {
    let mut reference: Option<String> = None;
    for opts in combos() {
        let mut session = Session::new(SCALE).include_wall(false).interp_opts(opts);
        session.prewarm(&["fig5"]);
        let text = session.fig5_or_6(false);
        match &reference {
            None => reference = Some(text),
            Some(expected) => assert_eq!(
                &text,
                expected,
                "fig5 text diverged under {}",
                combo_name(opts)
            ),
        }
    }
}

/// Every fig5 cell carries identical per-phase operation counts,
/// program output (order-insensitive checksums) and memory highwater
/// for every combination of the two optimizations.
#[test]
fn cell_stats_match_exactly_across_interp_opts() {
    let cells = cells_for_target("fig5");
    assert!(!cells.is_empty(), "fig5 must plan a non-empty matrix");

    let mut baseline = Session::new(SCALE).interp_opts(ALL_OFF);
    baseline.prewarm(&["fig5"]);

    for opts in combos().skip(1) {
        let mut optimized = Session::new(SCALE).jobs(2).interp_opts(opts);
        optimized.prewarm(&["fig5"]);
        for &(abbrev, kind) in &cells {
            let b = baseline.cell(abbrev, kind);
            let o = optimized.cell(abbrev, kind);
            let tag = format!("[{abbrev} {} under {}]", kind.name(), combo_name(opts));
            assert_eq!(
                b.stats.per_phase, o.stats.per_phase,
                "{tag} op counts diverged"
            );
            assert_eq!(b.output, o.output, "{tag} program output diverged");
            assert_eq!(
                b.stats.peak_bytes, o.stats.peak_bytes,
                "{tag} peak memory diverged"
            );
        }
    }
}

/// Optimized execution attributes work to the same instruction sites as
/// unoptimized execution: the per-site profiles are byte-identical, and
/// the optimized profile still sums exactly to the aggregate statistics.
#[test]
fn site_profiles_are_identical_fused_vs_unfused() {
    let cells = cells_for_target("fig5");

    let mut unfused = Session::new(SCALE).profile(true).interp_opts(ALL_OFF);
    unfused.prewarm(&["fig5"]);
    let mut fused = Session::new(SCALE)
        .profile(true)
        .interp_opts(InterpOpts::default());
    fused.prewarm(&["fig5"]);

    for (abbrev, kind) in cells {
        let u = unfused.cell(abbrev, kind);
        let f = fused.cell(abbrev, kind);
        let up = u.profile.as_ref().expect("unfused profile collected");
        let fp = f.profile.as_ref().expect("fused profile collected");
        assert_eq!(
            up.to_json(),
            fp.to_json(),
            "[{abbrev} {}] per-site profile diverged under fusion",
            kind.name()
        );
        assert_eq!(
            fp.totals(),
            f.stats.totals(),
            "[{abbrev} {}] fused profile no longer sums to the aggregate stats",
            kind.name()
        );
    }
}

/// A fuel budget that trips mid-loop must trip at the identical point
/// whether loop fusion or superinstruction fusion is on: neither ever
/// change where a limit (or any trap) lands. Sweeps budgets from
/// "trips immediately" through "completes" and requires bit-identical
/// outcomes — same error text on the trapping side, same output/stats
/// on the completing side.
#[test]
fn fuel_trap_point_is_identical_with_and_without_loop_fusion() {
    let cells = cells_for_target("fig5");
    let &(abbrev, kind) = cells.first().expect("fig5 plans at least one cell");
    let bench = benchmark_by_abbrev(abbrev).expect("known benchmark");

    for fuel in [1u64, 37, 1_000, 25_000, u64::MAX] {
        let run = |opts: InterpOpts| {
            try_run_benchmark_cell(&bench, kind, SCALE, 1, false, Some(fuel), opts)
        };
        let reference = run(ALL_OFF);
        for opts in [
            InterpOpts {
                loop_fuse: true,
                ..ALL_OFF
            },
            InterpOpts {
                fuse: true,
                ..ALL_OFF
            },
            InterpOpts::default(),
        ] {
            let tag = format!("[{abbrev} fuel={fuel} under {}]", combo_name(opts));
            match (&reference, run(opts)) {
                (Ok(off), Ok(on)) => {
                    assert_eq!(off.output, on.output, "{tag} output diverged");
                    assert_eq!(
                        off.stats.per_phase, on.stats.per_phase,
                        "{tag} op counts diverged"
                    );
                }
                (Err(off), Err(on)) => assert_eq!(
                    off.to_string(),
                    on.to_string(),
                    "{tag} trap point diverged"
                ),
                (off, on) => panic!(
                    "{tag} one side trapped, the other did not: off={off:?} on={on:?}"
                ),
            }
        }
    }
}
