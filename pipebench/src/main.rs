//! `pipebench`: the repository's outside-in benchmark.
//!
//! One process, one measuring thread. It drives the 16 `ade-workloads`
//! suite programs through each layer's public entry points and times
//! them from outside:
//!
//! ```text
//! pipebench --workload compile_large|exec_warm|exec_profiled
//!           --seed N --seconds S --trace 0|1
//! pipebench --record-expected     # regenerate expected.tsv (MEMOIR runs)
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md for the
//! metrics, the workloads and the layer map.

mod expect;
mod pipeline;
mod spans;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ade_ir::print::print_module;
use ade_workloads::{all_benchmarks, Benchmark, Config, ConfigKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use expect::{roi_modeled_ns, Expected};
use pipeline::{compile, compile_staged, execute, profile_round_trip, Compiled};
use spans::{timed, Recorder, HARNESS};
use util::{fnv64, geomean, median, peak_rss_mb};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// Scales 7 and 5, ADE config, compiled every round and executed
    /// once after each compile: compile time dominates.
    CompileLarge,
    /// Scale 7 under MEMOIR and ADE, compiled in set-up, executed
    /// repeatedly: execution and the collection backends dominate.
    ExecWarm,
    /// Scale 7 under ADE with the per-site profiler on, each run
    /// followed by the profile round trip through the `obs` layer.
    ExecProfiled,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::CompileLarge,
        Workload::ExecWarm,
        Workload::ExecProfiled,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::CompileLarge => "compile_large",
            Workload::ExecWarm => "exec_warm",
            Workload::ExecProfiled => "exec_profiled",
        }
    }

    fn scales(self) -> &'static [u32] {
        match self {
            Workload::CompileLarge => &[7, 5],
            Workload::ExecWarm | Workload::ExecProfiled => &[7],
        }
    }

    fn configs(self) -> &'static [ConfigKind] {
        match self {
            Workload::ExecWarm => &[ConfigKind::Memoir, ConfigKind::Ade],
            Workload::CompileLarge | Workload::ExecProfiled => &[ConfigKind::Ade],
        }
    }

    /// How a run is laid out: `(slices, set-ups per slice)`. A run
    /// alternates set-ups with equal slices of the timed phase, so each
    /// metric samples the whole run rather than one stretch of it: on a
    /// shared host, speed drifts over tens of seconds. `setup_s` is the
    /// median set-up, and on the workloads that compile in set-up,
    /// `compile_s` takes each pair's fastest compile over the set-ups.
    /// `compile_large`'s set-up only builds inputs and takes a fraction
    /// of a second, so it repeats more often. A traced run compiles
    /// everything twice (the untraced reference and the staged
    /// pipeline, in alternating order), so it sets up only twice.
    fn schedule(self, traced: bool) -> (usize, usize) {
        match (self, traced) {
            (_, true) => (2, 1),
            (Workload::CompileLarge, false) => (4, 8),
            (Workload::ExecWarm | Workload::ExecProfiled, false) => (10, 1),
        }
    }

    /// Whether programs are recompiled every round (otherwise they are
    /// compiled once per set-up and only executed in the rounds).
    fn compiles_in_rounds(self) -> bool {
        self == Workload::CompileLarge
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    RecordExpected,
}

const USAGE: &str = "usage: pipebench --workload compile_large|exec_warm|exec_profiled \
                     --seed N --seconds S --trace 0|1\n       pipebench --record-expected";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--record-expected" {
            return Ok(Mode::RecordExpected);
        }
        let value = args.next().ok_or(format!("missing value for {flag}"))?;
        let bad = || format!("invalid value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

/// One suite program at one scale, as textual IR.
struct Input {
    bench: Benchmark,
    scale: u32,
    text: Rc<str>,
}

/// One (program, scale, configuration) the workload compiles and runs.
struct Pair {
    input: usize,
    kind: ConfigKind,
    config: Rc<Config>,
    label: String,
}

/// Timing samples (seconds) and exact counts for one input or pair.
/// A count must read the same on every repetition.
#[derive(Default)]
struct Log {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
}

impl Log {
    fn sample(&mut self, key: &'static str, seconds: f64) {
        self.samples.entry(key).or_default().push(seconds);
    }

    fn median(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |v| median(v))
    }

    fn min(&self, key: &str) -> f64 {
        self.samples
            .get(key)
            .map_or(0.0, |v| v.iter().copied().fold(f64::INFINITY, f64::min))
    }

    fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Records an exact count; returns a complaint if it differs from
    /// the value an earlier repetition recorded.
    fn note(&mut self, key: &'static str, value: u64) -> Option<String> {
        match self.counts.insert(key, value) {
            Some(old) if old != value => Some(format!("{key} changed from {old} to {value}")),
            _ => None,
        }
    }
}

struct Run {
    workload: Workload,
    seconds: f64,
    rng: SmallRng,
    expected: Expected,
    rec: Option<Recorder>,
    inputs: Vec<Input>,
    input_logs: Vec<Log>,
    pairs: Vec<Pair>,
    logs: Vec<Log>,
    compiled: Vec<Option<Compiled>>,
    setups: Vec<f64>,
    rounds: Vec<f64>,
    /// Wall time of the whole timed phase, all slices.
    timed_s: f64,
    attempted: u64,
    failed: u64,
    /// Failed checks other than program runs: determinism, staged-pass
    /// equivalence, compile errors. Any one makes the run incorrect.
    problems: Vec<String>,
}

impl Run {
    fn new(args: &Args, expected: Expected, benches: &[Benchmark]) -> Run {
        let mut inputs = Vec::new();
        for &scale in args.workload.scales() {
            for &bench in benches {
                inputs.push(Input {
                    bench,
                    scale,
                    text: Rc::from(""),
                });
            }
        }
        let mut pairs = Vec::new();
        for &kind in args.workload.configs() {
            let config = Rc::new(Config::new(kind));
            for (input, i) in inputs.iter().enumerate() {
                pairs.push(Pair {
                    input,
                    kind,
                    config: Rc::clone(&config),
                    label: format!("{}@s{}/{}", i.bench.abbrev, i.scale, kind.name()),
                });
            }
        }
        Run {
            workload: args.workload,
            seconds: args.seconds,
            rng: SmallRng::seed_from_u64(args.seed),
            expected,
            rec: args.trace.then(Recorder::new),
            input_logs: inputs.iter().map(|_| Log::default()).collect(),
            logs: pairs.iter().map(|_| Log::default()).collect(),
            compiled: pairs.iter().map(|_| None).collect(),
            inputs,
            pairs,
            setups: Vec::new(),
            rounds: Vec::new(),
            timed_s: 0.0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn problem(&mut self, what: String) {
        eprintln!("pipebench: {what}");
        self.problems.push(what);
    }

    fn open(&mut self, name: String) -> usize {
        self.rec.as_mut().map_or(0, |r| r.open(HARNESS, name, None))
    }

    fn close(&mut self, span: usize) {
        if let Some(r) = self.rec.as_mut() {
            r.close(span);
        }
    }

    /// Set-ups alternating with slices of the timed phase.
    fn run_schedule(&mut self) {
        let (slices, setups) = self.workload.schedule(self.rec.is_some());
        for _ in 0..slices {
            self.setup(setups);
            self.measure(self.seconds / slices as f64);
        }
    }

    /// Builds the workload's inputs `reps` times; workloads that
    /// execute precompiled programs also compile them in each set-up.
    fn setup(&mut self, reps: usize) {
        for _ in 0..reps {
            // Each set-up compiles with the same live heap: the inputs,
            // not the previous set-up's programs as well.
            self.compiled.iter_mut().for_each(|c| *c = None);
            let start = Instant::now();
            for i in 0..self.inputs.len() {
                self.build_input(i);
            }
            if !self.workload.compiles_in_rounds() {
                for p in 0..self.pairs.len() {
                    let compiled = self.compile_pair(p);
                    self.compiled[p] = compiled;
                }
            }
            self.setups.push(start.elapsed().as_secs_f64());
        }
    }

    fn build_input(&mut self, i: usize) {
        let (bench, scale) = (self.inputs[i].bench, self.inputs[i].scale);
        let span = self.open(format!("{}@s{scale} setup", bench.abbrev));
        let (module, build) = timed(
            self.rec.as_mut(),
            "workloads",
            "Benchmark::build",
            span,
            || (bench.build)(scale),
        );
        let (text, print) = timed(self.rec.as_mut(), "ir", "print_module", span, || {
            print_module(&module)
        });
        self.close(span);
        let log = &mut self.input_logs[i];
        log.sample("build", build);
        log.sample("print", print);
        let complaints = [
            log.note("text_fnv", fnv64(text.as_bytes())),
            log.note("lines_in", text.lines().count() as u64),
        ];
        for c in complaints.into_iter().flatten() {
            self.problem(format!("{}@s{scale} input: {c}", bench.abbrev));
        }
        self.inputs[i].text = Rc::from(text);
    }

    /// Compiles one pair: untraced through `Config::compile`, or, when
    /// tracing, also pass by pass under spans, failing unless both give
    /// byte-identical IR.
    fn compile_pair(&mut self, p: usize) -> Option<Compiled> {
        let text = Rc::clone(&self.inputs[self.pairs[p].input].text);
        let config = Rc::clone(&self.pairs[p].config);
        let label = self.pairs[p].label.clone();
        let plain = || {
            let start = Instant::now();
            let compiled = compile(&text, &config);
            (compiled, start.elapsed().as_secs_f64())
        };
        let mut complaints = Vec::new();
        let result = match self.rec.as_mut() {
            None => {
                let (compiled, seconds) = plain();
                compiled.map(|c| {
                    self.logs[p].sample("compile", seconds);
                    let out = print_module(&c.module);
                    (c, out)
                })
            }
            Some(rec) => {
                // Alternate which compile goes first, across pairs and
                // repetitions, so that neither always finds the caches
                // and heap the other one warmed.
                let done = self.logs[p].samples.get("compile").map_or(0, Vec::len);
                let plain_first = (p + done).is_multiple_of(2);
                let first = plain_first.then(plain);
                let span = rec.open(HARNESS, format!("{label} compile"), None);
                let start = Instant::now();
                let staged = compile_staged(&text, &config, rec, span);
                let staged_s = start.elapsed().as_secs_f64();
                rec.close(span);
                let (reference, plain_s) = first.unwrap_or_else(plain);
                match (reference, staged) {
                    (Ok(reference), Ok(staged)) => {
                        let out = print_module(&staged.compiled.module);
                        if print_module(&reference.module) != out {
                            complaints.push(
                                "staged passes printed different IR than Config::compile".into(),
                            );
                        }
                        let log = &mut self.logs[p];
                        log.sample("compile", staged_s);
                        log.sample("compile_untraced", plain_s);
                        for &(stage, s) in &staged.stages {
                            log.sample(stage, s);
                        }
                        complaints.extend(log.note("peephole_removed", staged.peephole_removed));
                        complaints.extend(log.note("cleanup_removed", staged.cleanup_removed));
                        Ok((staged.compiled, out))
                    }
                    (Err(e), _) | (_, Err(e)) => Err(e),
                }
            }
        };
        let (compiled, out) = match result {
            Ok(r) => r,
            Err(e) => {
                self.problem(format!("{label}: {e}"));
                return None;
            }
        };
        let log = &mut self.logs[p];
        complaints.extend(log.note("ir_fnv", fnv64(out.as_bytes())));
        complaints.extend(log.note("lines_out", out.lines().count() as u64));
        complaints.extend(log.note("enums_created", compiled.enums_created));
        for c in complaints {
            self.problem(format!("{label}: {c}"));
        }
        Some(compiled)
    }

    /// Executes one compiled pair and checks its output; profiled
    /// workloads also run the profile round trip.
    fn execute_pair(&mut self, p: usize, compiled: &Compiled) {
        let profiled = self.workload == Workload::ExecProfiled;
        let mut exec = self.pairs[p].config.exec.clone();
        exec.profile = profiled;
        self.attempted += 1;
        let span = self.open(format!("{} run", self.pairs[p].label));
        let start = Instant::now();
        let (outcome, run_s) = timed(self.rec.as_mut(), "interp", "run_decoded", span, || {
            execute(compiled, &exec)
        });
        let round_trip = match (&outcome, profiled) {
            (Ok(o), true) => Some(profile_round_trip(o, self.rec.as_mut(), span)),
            _ => None,
        };
        let total_s = start.elapsed().as_secs_f64();
        self.close(span);

        let label = self.pairs[p].label.clone();
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                self.failed += 1;
                eprintln!("pipebench: {label}: {e}");
                return;
            }
        };
        let input = &self.inputs[self.pairs[p].input];
        let roi_ns = roi_modeled_ns(&outcome.stats);
        let checked = self.expected.check(
            input.bench.abbrev,
            input.scale,
            self.pairs[p].kind,
            &outcome.output,
            roi_ns,
        );
        let profile_bytes = match round_trip {
            Some(Ok((bytes, stages))) => {
                for (stage, s) in stages {
                    self.logs[p].sample(stage, s);
                }
                Some(bytes)
            }
            Some(Err(e)) => {
                self.failed += 1;
                eprintln!("pipebench: {label}: {e}");
                return;
            }
            None => None,
        };
        if let Err(e) = checked {
            self.failed += 1;
            eprintln!("pipebench: {e}");
            return;
        }
        let log = &mut self.logs[p];
        log.sample("exec", total_s);
        log.sample("run_decoded", run_s);
        log.sample("roi", outcome.stats.wall_ns[1] as f64 * 1e-9);
        let totals = outcome.stats.totals();
        let mut complaints = vec![
            log.note("coll_ops", totals.total()),
            log.note("dense_accesses", totals.dense_accesses()),
            log.note("sparse_accesses", totals.sparse_accesses()),
            log.note("peak_bytes", outcome.stats.peak_bytes as u64),
            log.note("roi_modeled_ns_bits", roi_ns.to_bits()),
        ];
        if let Some(bytes) = profile_bytes {
            complaints.push(log.note("profiled_fuel_ticks", outcome.fuel_ticks));
            complaints.push(log.note("profile_bytes", bytes));
        }
        for c in complaints.into_iter().flatten() {
            self.problem(format!("{label}: {c}"));
        }
    }

    /// One slice of the timed phase: rounds over every pair until
    /// `seconds` have passed (at least one). The run's first round
    /// runs in the suite's order, so the heap a run grows to does not
    /// depend on the seed; later rounds run in a seed-shuffled order.
    fn measure(&mut self, seconds: f64) {
        let start = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        let mut order: Vec<usize> = (0..self.pairs.len()).collect();
        let mut first = true;
        while first || start.elapsed() < budget {
            first = false;
            if !self.rounds.is_empty() {
                shuffle(&mut self.rng, &mut order);
            }
            let round = Instant::now();
            for &p in &order {
                let step = Instant::now();
                let compiled = if self.workload.compiles_in_rounds() {
                    self.compile_pair(p)
                } else {
                    self.compiled[p].take()
                };
                if let Some(c) = compiled {
                    self.execute_pair(p, &c);
                    if !self.workload.compiles_in_rounds() {
                        self.compiled[p] = Some(c);
                    }
                } else {
                    self.attempted += 1;
                    self.failed += 1;
                }
                self.logs[p].sample("step", step.elapsed().as_secs_f64());
            }
            self.rounds.push(round.elapsed().as_secs_f64());
        }
        self.timed_s += start.elapsed().as_secs_f64();
    }

    fn sum_median(&self, key: &str, keep: impl Fn(&Pair, &Input) -> bool) -> f64 {
        self.pairs
            .iter()
            .zip(&self.logs)
            .filter(|(p, _)| keep(p, &self.inputs[p.input]))
            .map(|(_, l)| l.median(key))
            .fold(0.0, |a, b| a + b)
    }

    /// Sum over every pair of its fastest sample of `key`.
    fn sum_min(&self, key: &str) -> f64 {
        self.logs.iter().map(|l| l.min(key)).fold(0.0, |a, b| a + b)
    }

    fn sum_count(&self, key: &str, keep: impl Fn(&Pair, &Input) -> bool) -> u64 {
        self.pairs
            .iter()
            .zip(&self.logs)
            .filter(|(p, _)| keep(p, &self.inputs[p.input]))
            .map(|(_, l)| l.count(key))
            .sum()
    }

    fn is_ade(p: &Pair, _: &Input) -> bool {
        p.kind == ConfigKind::Ade
    }

    /// The largest scale the workload runs, where per-program rows are
    /// taken.
    fn top_scale(&self) -> u32 {
        self.workload
            .scales()
            .iter()
            .copied()
            .max()
            .expect("scales")
    }

    /// Geomean over ADE pairs of committed MEMOIR ROI modeled ns over
    /// ADE ROI modeled ns.
    fn modeled_speedup(&self) -> f64 {
        let mut ratios = Vec::new();
        for (p, log) in self.pairs.iter().zip(&self.logs) {
            let input = &self.inputs[p.input];
            let Some(&bits) = log.counts.get("roi_modeled_ns_bits") else {
                continue;
            };
            if p.kind != ConfigKind::Ade {
                continue;
            }
            if let Ok(e) = self.expected.get(input.bench.abbrev, input.scale) {
                ratios.push(e.memoir_roi_ns / f64::from_bits(bits).max(1.0));
            }
        }
        geomean(&ratios)
    }

    /// The timings sum each pair's fastest sample: the host's other
    /// tenants only ever add time to a sample, and the fastest of many
    /// is the figure that follows the program. `setup_s` is the median
    /// set-up.
    fn end_to_end(&self) -> Result<Vec<(String, &'static str, f64)>, String> {
        Ok(vec![
            ("setup_s".into(), "s", median(&self.setups)),
            ("compile_s".into(), "s", self.sum_min("compile")),
            ("run_s".into(), "s", self.sum_min("exec")),
            ("wall_s".into(), "s", self.sum_min("step")),
            ("peak_rss_mb".into(), "MB", peak_rss_mb()?),
            ("modeled_speedup".into(), "x", self.modeled_speedup()),
            (
                "ok_frac".into(),
                "frac",
                (self.attempted - self.failed) as f64 / self.attempted as f64,
            ),
        ])
    }

    fn per_layer(&self) -> Vec<(String, &'static str, f64)> {
        type Keep<'a> = &'a dyn Fn(&Pair, &Input) -> bool;
        let all: Keep = &|_, _| true;
        let ade: Keep = &Run::is_ade;
        let memoir: Keep = &|p, _| p.kind == ConfigKind::Memoir;
        let ms = |key: &str, keep: Keep| self.sum_median(key, keep) * 1e3;
        let count = |key: &str, keep: Keep| self.sum_count(key, keep) as f64;
        let input_ms = |key| -> f64 {
            self.input_logs
                .iter()
                .map(|l| l.median(key))
                .fold(0.0, |a, b| a + b)
                * 1e3
        };
        let lines_in = |keep: Keep| -> f64 {
            self.pairs
                .iter()
                .filter(|p| keep(p, &self.inputs[p.input]))
                .map(|p| self.input_logs[p.input].count("lines_in"))
                .sum::<u64>() as f64
        };
        let top = self.top_scale();
        let row = |abbrev: &str, key: &str| -> f64 {
            self.pairs
                .iter()
                .zip(&self.logs)
                .find(|(p, _)| {
                    let i = &self.inputs[p.input];
                    p.kind == ConfigKind::Ade && i.scale == top && i.bench.abbrev == abbrev
                })
                .map_or(0.0, |(_, l)| l.median(key) * 1e3)
        };

        let mut m = Vec::new();
        let mut put = |name: &str, unit: &'static str, value: f64| {
            m.push((name.to_string(), unit, value));
        };
        put("workloads.build_ms", "ms", input_ms("build"));
        put("ir.print_ms", "ms", input_ms("print"));
        put("ir.parse_ms", "ms", ms("ir.parse", all));
        put("ir.verify_in_ms", "ms", ms("ir.verify_in", all));
        put("ir.verify_out_ms", "ms", ms("ir.verify_out", all));
        for &scale in Workload::CompileLarge.scales() {
            let at: Keep = &|p, i| p.kind == ConfigKind::Ade && i.scale == scale;
            let lines = lines_in(at);
            let per_line = |key| {
                if lines > 0.0 {
                    ms(key, at) * 1e3 / lines
                } else {
                    0.0
                }
            };
            put(
                &format!("ir.verify_us_per_line.s{scale}"),
                "us",
                per_line("ir.verify_in"),
            );
            put(
                &format!("core.plan_us_per_line.s{scale}"),
                "us",
                per_line("core.plan"),
            );
        }
        put("ir.lines_in", "count", lines_in(all));
        put("ir.lines_out", "count", count("lines_out", all));
        for pass in ["plan", "transform", "select", "peephole", "cleanup"] {
            put(
                &format!("core.{pass}_ms"),
                "ms",
                ms(&format!("core.{pass}"), all),
            );
        }
        for key in ["enums_created", "peephole_removed", "cleanup_removed"] {
            put(&format!("core.{key}"), "count", count(key, all));
        }
        put("interp.decode_ms", "ms", ms("interp.decode", all));
        for b in all_benchmarks() {
            put(
                &format!("compile_ms.{}", b.abbrev),
                "ms",
                row(b.abbrev, "compile"),
            );
        }

        put("interp.exec_ms.memoir", "ms", ms("run_decoded", memoir));
        put("interp.exec_ms.ade", "ms", ms("run_decoded", ade));
        put("interp.roi_ms.ade", "ms", ms("roi", ade));
        for b in all_benchmarks() {
            let name = format!("interp.exec_ms.ade.{}", b.abbrev);
            put(&name, "ms", row(b.abbrev, "run_decoded"));
        }
        put("interp.coll_ops.memoir", "count", count("coll_ops", memoir));
        put("interp.coll_ops.ade", "count", count("coll_ops", ade));
        let dense = count("dense_accesses", ade);
        let accesses = dense + count("sparse_accesses", ade);
        let dense_frac = if accesses > 0.0 {
            dense / accesses
        } else {
            0.0
        };
        put("interp.dense_frac.ade", "frac", dense_frac);
        put(
            "interp.peak_kb.ade",
            "KiB",
            count("peak_bytes", ade) / 1024.0,
        );
        put("interp.wall_speedup", "x", self.wall_speedup());
        put("interp.exec_ms", "ms", ms("run_decoded", all));
        put("interp.insts", "count", count("profiled_fuel_ticks", all));

        put("obs.profile_write_ms", "ms", ms("obs.profile_write", all));
        put("obs.profile_read_ms", "ms", ms("obs.profile_read", all));
        put(
            "obs.profile_kb",
            "KiB",
            count("profile_bytes", all) / 1024.0,
        );
        put(
            "workloads.feedback_mix_ms",
            "ms",
            ms("workloads.feedback_mix", all),
        );

        let selfs = self
            .rec
            .as_ref()
            .map(Recorder::self_times)
            .unwrap_or_default();
        for layer in [HARNESS, "workloads", "ir", "core", "interp", "obs"] {
            let s = selfs.get(layer).copied().unwrap_or(0.0);
            put(&format!("self_ms.{layer}"), "ms", s * 1e3);
        }
        let overhead = self.sum_min("compile") - self.sum_min("compile_untraced");
        put("trace.overhead_s", "s", overhead);
        m
    }

    /// Geomean over programs run under both configurations of MEMOIR
    /// over ADE median execution time; `0` when the workload runs one
    /// configuration.
    fn wall_speedup(&self) -> f64 {
        let mut ratios = Vec::new();
        for (p, log) in self.pairs.iter().zip(&self.logs) {
            if p.kind != ConfigKind::Memoir {
                continue;
            }
            let ade = self
                .pairs
                .iter()
                .position(|q| q.kind == ConfigKind::Ade && q.input == p.input);
            if let Some(a) = ade {
                ratios.push(log.median("run_decoded") / self.logs[a].median("run_decoded"));
            }
        }
        geomean(&ratios)
    }

    /// Every exact count this run produced, keyed by pair or input.
    fn fingerprint(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (i, log) in self.inputs.iter().zip(&self.input_logs) {
            for (k, v) in &log.counts {
                out.insert(format!("{}@s{}/{k}", i.bench.abbrev, i.scale), *v);
            }
        }
        for (p, log) in self.pairs.iter().zip(&self.logs) {
            for (k, v) in &log.counts {
                out.insert(format!("{}/{k}", p.label), *v);
            }
        }
        out.insert(
            format!("{}/modeled_speedup_bits", self.workload.name()),
            self.modeled_speedup().to_bits(),
        );
        out
    }
}

/// Fisher–Yates shuffle of the repetition order.
fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Where traced runs leave their Chrome trace and every run its counts:
/// beside the benchmark's executable, inside the build directory.
fn artifact_dir() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf())
}

/// Cross-process determinism: compares this run's exact counts with
/// those earlier runs of the same executable recorded (any seed, any
/// workload, traced or not), then records the union. Returns the
/// mismatches.
fn check_counts_across_runs(counts: &BTreeMap<String, u64>) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("cannot stat executable: {e}"))?;
    let modified = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let stamp = format!("executable {} {modified}", meta.len());
    let path = artifact_dir()?.join("pipebench-counts.txt");
    let mut known = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        let mut lines = text.lines();
        if lines.next() == Some(stamp.as_str()) {
            for line in lines {
                if let Some((k, v)) = line.split_once(' ') {
                    if let Ok(v) = v.parse::<u64>() {
                        known.insert(k.to_string(), v);
                    }
                }
            }
        }
    }
    let mut mismatches = Vec::new();
    for (k, v) in counts {
        match known.insert(k.clone(), *v) {
            Some(old) if old != *v => {
                mismatches.push(format!("count {k} is {v}, an earlier run read {old}"));
            }
            _ => {}
        }
    }
    let mut text = stamp + "\n";
    for (k, v) in &known {
        let _ = writeln!(text, "{k} {v}");
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(mismatches)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn run(args: &Args) -> Result<(), String> {
    let expected = Expected::committed()?;
    println!(
        "pipebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut run = Run::new(args, expected, &all_benchmarks());
    run.run_schedule();

    let metrics = if args.trace {
        let rec = run.rec.as_ref().expect("tracing");
        let path = artifact_dir()?.join(format!("pipebench-trace-{}.json", args.workload.name()));
        std::fs::write(&path, rec.chrome_trace())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("chrome trace: {} ({} spans)", path.display(), rec.len());
        run.per_layer()
    } else {
        run.end_to_end()?
    };
    for mismatch in check_counts_across_runs(&run.fingerprint())? {
        run.problem(mismatch);
    }

    println!("set-up seconds: {:?}", run.setups);
    println!(
        "rounds: {} in {:.3} s (min {:.3} s, median {:.3} s, max {:.3} s)",
        run.rounds.len(),
        run.timed_s,
        run.rounds.iter().copied().fold(f64::INFINITY, f64::min),
        median(&run.rounds),
        run.rounds.iter().copied().fold(0.0, f64::max),
    );
    let samples = run
        .logs
        .iter()
        .map(|l| l.samples.get("exec").map_or(0, Vec::len));
    println!(
        "executions per pair: {}..{}  attempted: {}  failed: {}  fail_frac: {}",
        samples.clone().min().unwrap_or(0),
        samples.max().unwrap_or(0),
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64
    );
    let mut json = String::new();
    for (name, unit, value) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    let correct = run.failed == 0 && run.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        run.attempted, run.failed
    );
    Ok(())
}

fn main() {
    let code = match parse_args(std::env::args().skip(1)) {
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            2
        }
        Ok(Mode::RecordExpected) => match expect::record() {
            Ok(table) => {
                print!("{table}");
                0
            }
            Err(e) => {
                eprintln!("pipebench: {e}");
                1
            }
        },
        Ok(Mode::Run(args)) => match run(&args) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("pipebench: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One program (BFS at scale 7, MEMOIR and ADE) through the
    /// `exec_warm` machinery, one round per slice.
    fn bfs_run(expected: Expected, trace: bool) -> Run {
        let args = Args {
            workload: Workload::ExecWarm,
            seed: 1,
            seconds: 1e-3,
            trace,
        };
        let bfs = ade_workloads::bench::benchmark_by_abbrev("BFS").expect("BFS exists");
        let mut run = Run::new(&args, expected, &[bfs]);
        run.run_schedule();
        run
    }

    fn committed() -> Expected {
        Expected::committed().expect("expected.tsv parses")
    }

    #[test]
    fn corrupted_expectation_counts_as_failure() {
        // One round per slice, two pairs per round.
        let runs = 2 * Workload::ExecWarm.schedule(false).0 as u64;
        let intact = bfs_run(committed(), false);
        assert_eq!((intact.attempted, intact.failed), (runs, 0));
        assert!(intact.problems.is_empty(), "{:?}", intact.problems);

        let mut wrong_output = committed();
        wrong_output.get_mut("BFS", 7).expect("entry").checksum ^= 1;
        let run = bfs_run(wrong_output, false);
        assert_eq!((run.attempted, run.failed), (runs, runs));

        let mut wrong_model = committed();
        wrong_model.get_mut("BFS", 7).expect("entry").memoir_roi_ns += 1.0;
        let run = bfs_run(wrong_model, false);
        assert_eq!(
            (run.attempted, run.failed),
            (runs, runs / 2),
            "only the MEMOIR runs are priced"
        );
    }

    #[test]
    fn shuffle_depends_only_on_the_seed() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..32).collect();
            shuffle(&mut SmallRng::seed_from_u64(seed), &mut v);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
    }

    #[test]
    fn traced_and_untraced_runs_agree_on_every_count() {
        let plain = bfs_run(committed(), false);
        let traced = bfs_run(committed(), true);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        let traced_counts = traced.fingerprint();
        for (key, value) in plain.fingerprint() {
            assert_eq!(traced_counts.get(&key), Some(&value), "{key}");
        }
        assert!(traced_counts.contains_key("BFS@s7/ade/peephole_removed"));
        let names: Vec<String> = traced.per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(names.len(), 73);
    }
}
