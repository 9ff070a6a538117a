//! Columnar (structure-of-arrays) tuple storage and the projection-
//! streaming loop kernels must be invisible everywhere except wall
//! time: program output, per-phase operation counts, memory highwater,
//! per-site profiles and trap text are identical across every
//! fuse × loop_fuse combination, and every program's output matches a
//! hand-computed constant, an oracle independent of the storage layout
//! (which follows from the static type alone). The collection-level
//! twin tests in `heap.rs` compare each columnar backend with its boxed
//! fallback op by op. Never weaken these differential checks to make a
//! change pass.

use ade_interp::{ExecConfig, ExecError, Interpreter, Outcome};
use ade_ir::parse::parse_module;
use ade_obs::{MetricValue, MetricsRegistry};

/// All four interpreter-optimization combinations as
/// `(fuse, loop_fuse)`, the all-off reference first.
fn grid() -> impl Iterator<Item = (bool, bool)> {
    (0u8..4).map(|b| (b & 1 != 0, b & 2 != 0))
}

fn config(combo: (bool, bool), profile: bool) -> ExecConfig {
    ExecConfig {
        fuse: combo.0,
        loop_fuse: combo.1,
        profile,
        ..ExecConfig::default()
    }
}

fn run_with(text: &str, combo: (bool, bool), profile: bool) -> Outcome {
    let m = parse_module(text).expect("parses");
    ade_ir::verify::verify_module(&m).expect("verifies");
    Interpreter::new(&m, config(combo, profile))
        .run("main")
        .expect("runs")
}

/// Runs `text` under every grid combination and requires the all-off
/// baseline to print `expected` (computed by hand from the program),
/// every other combination to match its output, per-phase op counts
/// and peak bytes, and per-site profiles to be byte-identical between
/// all-off and all-on.
fn assert_grid_identical(name: &str, text: &str, expected: &str) {
    let baseline = run_with(text, (false, false), false);
    assert_eq!(baseline.output, expected, "[{name}] wrong output");
    for combo in grid().skip(1) {
        let out = run_with(text, combo, false);
        let tag = format!("[{name} fuse={} loop_fuse={}]", combo.0, combo.1);
        assert_eq!(baseline.output, out.output, "{tag} output diverged");
        assert_eq!(
            baseline.stats.per_phase, out.stats.per_phase,
            "{tag} op counts diverged"
        );
        assert_eq!(
            baseline.stats.peak_bytes, out.stats.peak_bytes,
            "{tag} peak memory diverged"
        );
    }
    let off = run_with(text, (false, false), true);
    let on = run_with(text, (true, true), true);
    assert_eq!(
        off.profile.as_ref().expect("profile collected").to_json(),
        on.profile.as_ref().expect("profile collected").to_json(),
        "[{name}] per-site profile diverged under the optimizations"
    );
}

/// Builds a 64-row `Seq<(u64, u64)>` with keys `3i` and values
/// `(3i) % 7`, bound to `%full`, leaving `%zero`/`%one`/`%n` in scope.
const BUILD_SEQ: &str = r#"
  %s = new Seq<(u64, u64)>
  %zero = const 0u64
  %one = const 1u64
  %n = const 64u64
  %full = forrange %zero, %n carry(%s) as (%i: u64, %q: Seq<(u64, u64)>) {
    %three = const 3u64
    %k = mul %i, %three
    %seven = const 7u64
    %v = rem %k, %seven
    %t = tuple %k, %v
    %len = size %q
    %q1 = insert %q, %len, %t
    yield %q1
  }
"#;

#[test]
fn projected_reduce_is_grid_identical() {
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %sum = foreach %full carry(%zero) as (%i: u64, %t: (u64, u64), %acc: u64) {{
    %a = add %acc, %t.1
    yield %a
  }}
  print %sum
  ret
}}
"#
    );
    // Row i is (3i, 3i mod 7); 3 is invertible mod 7, so every 7 rows
    // sum 0+1+..+6 = 21 in field 1: 9 full cycles plus row 63 (189 mod 7
    // = 0) give 189.
    assert_grid_identical("proj_reduce", &text, "189\n");
}

#[test]
fn filter_on_one_field_folding_another_is_grid_identical() {
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %cut = const 90u64
  %sum = foreach %full carry(%zero) as (%i: u64, %t: (u64, u64), %acc: u64) {{
    %c = lt %t.0, %cut
    %out = if %c then {{
      %a = add %acc, %t.1
      yield %a
    }} else {{
      yield %acc
    }}
    yield %out
  }}
  print %sum
  ret
}}
"#
    );
    // Rows with 3i < 90 are i < 30: four cycles (84) plus rows 28 and 29
    // (84 mod 7 = 0, 87 mod 7 = 3) give 87.
    assert_grid_identical("proj_filter_reduce", &text, "87\n");
}

#[test]
fn probe_count_on_a_field_is_grid_identical() {
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %probe = new Set<u64>
  %m = const 24u64
  %filled = forrange %zero, %m carry(%probe) as (%i: u64, %p: Set<u64>) {{
    %five = const 5u64
    %k = mul %i, %five
    %p1 = insert %p, %k
    yield %p1
  }}
  %hits = foreach %full carry(%zero) as (%i: u64, %t: (u64, u64), %acc: u64) {{
    %h = has %filled, %t.0
    %hi = cast %h to u64
    %a = add %acc, %hi
    yield %a
  }}
  print %hits
  ret
}}
"#
    );
    // The set holds 5j for j < 24 (up to 115); 3i is a member when 5 | i
    // and 3i <= 115: i = 0, 5, ..., 35, eight rows.
    assert_grid_identical("proj_probe_count", &text, "8\n");
}

#[test]
fn copying_a_field_into_a_set_is_grid_identical() {
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %sink = new Set<u64>
  %vals = foreach %full carry(%sink) as (%i: u64, %t: (u64, u64), %dst: Set<u64>) {{
    %d1 = insert %dst, %t.1
    yield %d1
  }}
  %count = size %vals
  print %count
  ret
}}
"#
    );
    // 3i mod 7 over 64 consecutive i takes all seven residues.
    assert_grid_identical("proj_copy_into", &text, "7\n");
}

#[test]
fn filtering_one_field_into_a_set_by_another_is_grid_identical() {
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %cut = const 120u64
  %sink = new Set<u64>
  %kept = foreach %full carry(%sink) as (%i: u64, %t: (u64, u64), %dst: Set<u64>) {{
    %c = lt %t.0, %cut
    %out = if %c then {{
      %d1 = insert %dst, %t.1
      yield %d1
    }} else {{
      yield %dst
    }}
    yield %out
  }}
  %count = size %kept
  print %count
  ret
}}
"#
    );
    // 3i < 120 keeps i < 40, still every residue mod 7.
    assert_grid_identical("proj_filter_into", &text, "7\n");
}

#[test]
fn forrange_indexed_tuple_reads_are_grid_identical() {
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %len = size %full
  %sum = forrange %zero, %len carry(%zero) as (%i: u64, %acc: u64) {{
    %t = read %full, %i
    %a = add %acc, %t.0
    %b = add %a, %t.1
    yield %b
  }}
  print %sum
  ret
}}
"#
    );
    // Field 0 sums to 3 * (0+..+63) = 6048, field 1 to 189.
    assert_grid_identical("forrange_spec", &text, "6237\n");
}

#[test]
fn escaping_reads_writes_and_removal_are_grid_identical() {
    // Whole-tuple escapes (print of a read row), in-place row
    // overwrites and mid-sequence removal all rematerialize/move the
    // columns exactly like the boxed representation.
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %five = const 5u64
  %row = read %full, %five
  print %row.0, %row.1
  %nine = const 9u64
  %swap = tuple %row.1, %row.0
  %w = write %full, %nine, %swap
  %back = read %w, %nine
  print %back.0, %back.1
  %r = remove %w, %five
  %len = size %r
  %moved = read %r, %five
  print %len, %moved.0
  ret
}}
"#
    );
    // Row 5 is (15, 1); row 9 becomes the swapped (1, 15); removing row 5
    // leaves 63 rows with the old row 6, (18, 4), at index 5.
    assert_grid_identical("escape_write_remove", &text, "15 1\n1 15\n63 18\n");
}

#[test]
fn tuple_sets_maps_and_bitmaps_are_grid_identical() {
    // Tuple payloads behind the other SoA backends: a Set<(u64, u64)>
    // (membership + iteration order), a Map<u64, (u64, u64)> and an
    // enumerated Map{Bit} with tuple values.
    let text = r#"
fn @main() -> void {
  %zero = const 0u64
  %n = const 48u64
  %set = new Set<(u64, bool)>
  %map = new Map<u64, (u64, u64)>
  %bm = new Map{Bit}<idx, (u64, u64)>
  %s1, %m1, %b1 = forrange %zero, %n carry(%set, %map, %bm) as (%i: u64, %s: Set<(u64, bool)>, %m: Map<u64, (u64, u64)>, %b: Map{Bit}<idx, (u64, u64)>) {
    %two = const 2u64
    %r = rem %i, %two
    %odd = eq %r, %zero
    %t = tuple %i, %odd
    %s2 = insert %s, %t
    %sq = mul %i, %i
    %tv = tuple %sq, %r
    %m2 = write %m, %i, %tv
    %ix = cast %i to idx
    %b2 = write %b, %ix, %tv
    yield %s2, %m2, %b2
  }
  %false = const false
  %probe = tuple %zero, %false
  %hit = has %s1, %probe
  %seven = const 7u64
  %mv = read %m1, %seven
  %si = cast %seven to idx
  %bv = read %b1, %si
  %sum = foreach %s1 carry(%zero) as (%t: (u64, bool), %acc: u64) {
    %a = add %acc, %t.0
    yield %a
  }
  print %hit, %mv.0, %mv.1, %bv.0, %bv.1, %sum
  ret
}
"#;
    // Row 0 of the set is (0, true), so (0, false) is absent; key 7 maps
    // to (49, 1) in both maps; the set's field 0 sums 0+..+47 = 1128.
    assert_grid_identical("soa_set_map_bitmap", text, "false 49 1 49 1 1128\n");
}

#[test]
fn out_of_bounds_tuple_read_traps_identically_across_the_grid() {
    // The specialized columnar read must trap at the same site with
    // the same text as the generic interpreter.
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %len = size %full
  %past = add %len, %one
  %sum = forrange %zero, %past carry(%zero) as (%i: u64, %acc: u64) {{
    %t = read %full, %i
    %a = add %acc, %t.0
    yield %a
  }}
  print %sum
  ret
}}
"#
    );
    let m = parse_module(&text).expect("parses");
    ade_ir::verify::verify_module(&m).expect("verifies");
    let trap_text = |combo| match Interpreter::new(&m, config(combo, false)).run("main") {
        Err(e @ ExecError::GuestTrap { .. }) => e.to_string(),
        other => panic!("expected an out-of-bounds trap, got {other:?}"),
    };
    let baseline = trap_text((false, false));
    assert!(
        baseline.contains("out of bounds"),
        "unexpected trap text: {baseline}"
    );
    for combo in grid().skip(1) {
        assert_eq!(
            baseline,
            trap_text(combo),
            "trap text diverged under fuse={} loop_fuse={}",
            combo.0,
            combo.1
        );
    }
}

#[test]
fn projected_fold_trap_site_is_identical_across_the_grid() {
    // A div-by-zero inside a projected fold: the streaming kernel's
    // fallback must surface the identical trap (text + site) as the
    // generic loop.
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %seed = const 5040u64
  %q = foreach %full carry(%seed) as (%i: u64, %t: (u64, u64), %acc: u64) {{
    %a = div %acc, %t.1
    yield %a
  }}
  print %q
  ret
}}
"#
    );
    let m = parse_module(&text).expect("parses");
    ade_ir::verify::verify_module(&m).expect("verifies");
    let trap_text = |combo| match Interpreter::new(&m, config(combo, false)).run("main") {
        Err(e @ ExecError::GuestTrap { .. }) => e.to_string(),
        other => panic!("expected a division trap, got {other:?}"),
    };
    let baseline = trap_text((false, false));
    for combo in grid().skip(1) {
        assert_eq!(
            baseline,
            trap_text(combo),
            "trap text diverged under fuse={} loop_fuse={}",
            combo.0,
            combo.1
        );
    }
}

#[test]
fn fuel_trips_at_the_same_tick_across_the_grid() {
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %sum = foreach %full carry(%zero) as (%i: u64, %t: (u64, u64), %acc: u64) {{
    %a = add %acc, %t.1
    yield %a
  }}
  print %sum
  ret
}}
"#
    );
    let m = parse_module(&text).expect("parses");
    ade_ir::verify::verify_module(&m).expect("verifies");
    for fuel in [1u64, 97, 750, u64::MAX] {
        let run = |combo| {
            Interpreter::new(
                &m,
                ExecConfig {
                    fuel: Some(fuel),
                    ..config(combo, false)
                },
            )
            .run("main")
        };
        for combo in grid().skip(1) {
            match (run((false, false)), run(combo)) {
                (Ok(off), Ok(on)) => {
                    assert_eq!(off.output, on.output, "[fuel={fuel}] output diverged");
                    assert_eq!(
                        off.stats.per_phase, on.stats.per_phase,
                        "[fuel={fuel}] op counts diverged"
                    );
                    assert_eq!(
                        off.fuel_ticks, on.fuel_ticks,
                        "[fuel={fuel}] tick counts diverged"
                    );
                }
                (Err(off), Err(on)) => assert_eq!(
                    off.to_string(),
                    on.to_string(),
                    "[fuel={fuel}] trap point diverged"
                ),
                (off, on) => {
                    panic!(
                        "[fuel={fuel}] one side trapped, the other did not: off={off:?} on={on:?}"
                    )
                }
            }
        }
    }
}

#[test]
fn backend_selection_metric_records_soa_backends() {
    let text = format!(
        r#"
fn @main() -> void {{
{BUILD_SEQ}
  %len = size %full
  print %len
  ret
}}
"#
    );
    let m = parse_module(&text).expect("parses");
    let metrics = MetricsRegistry::enabled();
    let cfg = ExecConfig {
        metrics: metrics.clone(),
        ..ExecConfig::default()
    };
    Interpreter::new(&m, cfg).run("main").expect("runs");
    let selected = metrics
        .snapshot()
        .rows
        .into_iter()
        .filter(|r| r.name == "exec_backend_selected_total")
        .map(|r| (r.id, r.value))
        .collect::<Vec<_>>();
    // The program allocates exactly one collection, a `Seq<(u64, u64)>`:
    // its static type alone selects the columnar backend.
    assert_eq!(
        selected,
        vec![(
            "exec_backend_selected_total{kind=\"soa_seq\"}".to_string(),
            MetricValue::Counter(1)
        )],
        "a scalar-tuple sequence must select the columnar backend"
    );
}
