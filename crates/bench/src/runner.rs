//! Executes one (benchmark, configuration) pair and collects every
//! measurement the figures need.

use std::fmt;

use ade_interp::cost::CostModel;
use ade_interp::{ExecError, Interpreter, Phase, SiteProfile, Stats};
use ade_workloads::{Benchmark, Config, ConfigKind};

use crate::pool::CancelToken;

/// The measurements from one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Benchmark abbreviation.
    pub abbrev: &'static str,
    /// Configuration that produced this run.
    pub config: ConfigKind,
    /// Program output (used to cross-check configurations agree).
    pub output: String,
    /// Full interpreter statistics.
    pub stats: Stats,
    /// Per-site profile (only when profiling was requested; never feeds
    /// figures — op counts and stats are identical either way).
    pub profile: Option<SiteProfile>,
}

impl RunResult {
    /// Modeled whole-program time under a cost model, in nanoseconds.
    pub fn modeled_total_ns(&self, model: &CostModel) -> f64 {
        model.time_ns(&self.stats.totals())
    }

    /// Modeled region-of-interest time, in nanoseconds.
    pub fn modeled_roi_ns(&self, model: &CostModel) -> f64 {
        model.time_ns(self.stats.phase(Phase::Roi))
    }

    /// Peak tracked memory in bytes.
    pub fn peak_bytes(&self) -> usize {
        self.stats.peak_bytes
    }
}

/// Why one `(benchmark, configuration)` cell could not produce a
/// result.
#[derive(Clone, Debug)]
pub enum CellError {
    /// The compiled module failed IR verification.
    Verify(String),
    /// The interpreter returned a typed execution error (guest trap,
    /// limit, missing entry, host failure).
    Exec(ExecError),
}

impl CellError {
    /// Short deterministic reason code, the figure placeholder text
    /// (`✗(code)`). `"verify"`, `"limit"`, `"trap"`, `"exec"`, or a
    /// preemption reason (`"deadline"` / `"cancelled"` / `"shed"`);
    /// panicking and timed-out cells are reported as `"panic"` /
    /// `"timeout"` by the pool layer.
    pub fn code(&self) -> &'static str {
        match self {
            CellError::Verify(_) => "verify",
            CellError::Exec(e) if e.is_limit() => "limit",
            CellError::Exec(ExecError::GuestTrap { .. }) => "trap",
            CellError::Exec(ExecError::Preempted { reason }) => reason.code(),
            CellError::Exec(_) => "exec",
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Verify(e) => write!(f, "verify: {e}"),
            CellError::Exec(e) => write!(f, "{e}"),
        }
    }
}

/// Runs `bench` at `scale` under `kind`.
///
/// # Panics
///
/// Panics if the program fails to verify or execute — benchmark modules
/// are trusted inputs here.
pub fn run_benchmark(bench: &Benchmark, kind: ConfigKind, scale: u32) -> RunResult {
    run_benchmark_trials(bench, kind, scale, 1)
}

/// Runs `bench` `trials` times (the artifact's `TRIALS` knob), keeping
/// the fastest wall-clock observation. Operation counts and memory are
/// deterministic across trials, so only the wall times vary.
///
/// # Panics
///
/// Panics if the program fails to verify or execute, or `trials == 0`.
pub fn run_benchmark_trials(
    bench: &Benchmark,
    kind: ConfigKind,
    scale: u32,
    trials: u32,
) -> RunResult {
    run_benchmark_trials_profiled(bench, kind, scale, trials, false)
}

/// [`run_benchmark_trials`] with optional per-site profiling. Profiling
/// never changes op counts or figures — it only records where the counts
/// came from — so the returned stats are identical either way; the
/// best-wall trial's profile is the one kept.
///
/// # Panics
///
/// Panics if the program fails to verify or execute, or `trials == 0`.
pub fn run_benchmark_trials_profiled(
    bench: &Benchmark,
    kind: ConfigKind,
    scale: u32,
    trials: u32,
    profile: bool,
) -> RunResult {
    try_run_benchmark_trials_profiled(bench, kind, scale, trials, profile, None)
        .unwrap_or_else(|e| panic!("[{} {}] {e}", bench.abbrev, kind.name()))
}

/// Interpreter-optimization toggles the harness threads through to
/// [`ade_interp::ExecConfig`]. Production runs keep both on (the
/// default); the differential tests sweep every combination to pin
/// down that figures and statistics are independent of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterpOpts {
    /// Superinstruction fusion ([`ade_interp::ExecConfig::fuse`]).
    pub fuse: bool,
    /// Loop-granular stream fusion
    /// ([`ade_interp::ExecConfig::loop_fuse`]).
    pub loop_fuse: bool,
}

impl Default for InterpOpts {
    fn default() -> InterpOpts {
        InterpOpts {
            fuse: true,
            loop_fuse: true,
        }
    }
}

/// [`run_benchmark_trials_profiled`] returning a typed [`CellError`]
/// instead of panicking, so the evaluation matrix can degrade one cell
/// without losing the rest. `fuel_override`, when set, caps the
/// interpreter's instruction budget for this run (the deterministic
/// `--inject-fault kind=fuel` hook); `None` leaves the configuration's
/// limits (off by default) untouched.
///
/// # Errors
///
/// [`CellError::Verify`] if the compiled module fails verification,
/// [`CellError::Exec`] if any trial's interpretation fails.
///
/// # Panics
///
/// Panics if `trials == 0` (a harness bug, not a cell fault).
pub fn try_run_benchmark_trials_profiled(
    bench: &Benchmark,
    kind: ConfigKind,
    scale: u32,
    trials: u32,
    profile: bool,
    fuel_override: Option<u64>,
) -> Result<RunResult, CellError> {
    try_run_benchmark_cell(
        bench,
        kind,
        scale,
        trials,
        profile,
        fuel_override,
        InterpOpts::default(),
    )
}

/// [`try_run_benchmark_trials_profiled`] with explicit [`InterpOpts`].
///
/// # Errors
///
/// As [`try_run_benchmark_trials_profiled`].
///
/// # Panics
///
/// Panics if `trials == 0` (a harness bug, not a cell fault).
#[allow(clippy::too_many_arguments)]
pub fn try_run_benchmark_cell(
    bench: &Benchmark,
    kind: ConfigKind,
    scale: u32,
    trials: u32,
    profile: bool,
    fuel_override: Option<u64>,
    opts: InterpOpts,
) -> Result<RunResult, CellError> {
    try_run_benchmark_cell_cancellable(bench, kind, scale, trials, profile, fuel_override, opts, None)
}

/// Fuel quantum for cancellable cell runs: large enough that the
/// park/grant handshake is noise next to real work, small enough that
/// a hung guest loop reaches a boundary (and sees a fired token)
/// promptly.
const CELL_QUANTUM: u64 = 1 << 16;

/// [`try_run_benchmark_cell`], optionally preemptible. With `cancel`
/// set the trials run through [`ade_interp::ExecSession`], stepping
/// [`CELL_QUANTUM`] instructions at a time and polling the token at
/// every boundary — the `--cell-timeout` machinery. Quantum slicing is
/// observationally inert, so an uncancelled run returns exactly the
/// batch path's stats and output (the robustness suite pins the figure
/// text). With `cancel == None` the batch path runs unchanged.
///
/// # Errors
///
/// As [`try_run_benchmark_cell`]; a fired token additionally surfaces
/// as `CellError::Exec(ExecError::Preempted { .. })`.
///
/// # Panics
///
/// Panics if `trials == 0` (a harness bug, not a cell fault).
#[allow(clippy::too_many_arguments)]
pub fn try_run_benchmark_cell_cancellable(
    bench: &Benchmark,
    kind: ConfigKind,
    scale: u32,
    trials: u32,
    profile: bool,
    fuel_override: Option<u64>,
    opts: InterpOpts,
    cancel: Option<&CancelToken>,
) -> Result<RunResult, CellError> {
    assert!(trials > 0, "at least one trial");
    let config = Config::new(kind);
    let mut module = (bench.build)(scale);
    config.compile(&mut module);
    ade_ir::verify::verify_module(&module).map_err(|e| CellError::Verify(e.to_string()))?;
    let mut exec = config.exec.clone();
    exec.profile = profile;
    exec.fuse = opts.fuse;
    exec.loop_fuse = opts.loop_fuse;
    if let Some(fuel) = fuel_override {
        exec.fuel = Some(fuel);
    }
    // Decode (and run the fusion tiers) once; every trial executes
    // the same pre-decoded stream, so repeated trials measure the
    // interpreter, not flattening overhead.
    let decoded = ade_interp::DecodedModule::decode_with(
        &module,
        &ade_interp::DecodeOptions {
            fuse: exec.fuse,
            loop_fuse: exec.loop_fuse,
        },
    );
    let decoded = std::sync::Arc::new(decoded);
    let mut best: Option<ade_interp::Outcome> = None;
    for _ in 0..trials {
        let outcome = match cancel {
            Some(token) => run_preemptible(&decoded, exec.clone(), token),
            None => Interpreter::new(&module, exec.clone()).run_decoded(&decoded, "main"),
        }
        .map_err(CellError::Exec)?;
        let better = best
            .as_ref()
            .is_none_or(|b| outcome.stats.wall_total_ns() < b.stats.wall_total_ns());
        if better {
            best = Some(outcome);
        }
    }
    let outcome = best.expect("ran at least once");
    Ok(RunResult {
        abbrev: bench.abbrev,
        config: kind,
        output: outcome.output,
        stats: outcome.stats,
        profile: outcome.profile,
    })
}

/// One preemptible trial: an [`ade_interp::ExecSession`] stepped one
/// [`CELL_QUANTUM`] at a time, cancelling at the first boundary after
/// the token fires.
fn run_preemptible(
    decoded: &std::sync::Arc<ade_interp::DecodedModule>,
    exec: ade_interp::ExecConfig,
    token: &CancelToken,
) -> Result<ade_interp::Outcome, ExecError> {
    let mut session =
        ade_interp::ExecSession::spawn(std::sync::Arc::clone(decoded), "main", exec)?;
    loop {
        if token.is_cancelled() {
            session.cancel(ade_interp::StopReason::Cancelled);
        }
        match session.step(Some(CELL_QUANTUM))? {
            ade_interp::Step::Running => {}
            ade_interp::Step::Done(outcome) => return Ok(*outcome),
        }
    }
}

/// Runs the profile → compile loop for one benchmark: profile the
/// static `ade` configuration, feed the measured op mixes back into
/// selection, and run the feedback-directed result. Returns the
/// feedback run plus the selection ledger its compile produced (for the
/// figure's "picked" column and the explain report).
///
/// # Errors
///
/// [`CellError`] from either the profiling run or the feedback-directed
/// run.
///
/// # Panics
///
/// Panics if `trials == 0`, or if the interpreter emits a profile the
/// strict reader rejects (a contract violation between the two, not a
/// cell fault).
pub fn try_run_feedback_cell(
    bench: &Benchmark,
    scale: u32,
    trials: u32,
    opts: InterpOpts,
) -> Result<(RunResult, ade_obs::SelectionLedger), CellError> {
    let profiled = try_run_benchmark_cell(bench, ConfigKind::Ade, scale, 1, true, None, opts)?;
    let json = profiled.profile.as_ref().expect("profiled run").to_json();
    let data = ade_obs::read_profile(&json)
        .unwrap_or_else(|e| panic!("[{}] interpreter wrote an invalid profile: {e}", bench.abbrev));
    let fb = ade_workloads::feedback::feedback_from_profile("in-run profile", &data);

    let mut config = Config::new(ConfigKind::Ade);
    config.ade.as_mut().expect("ade configuration has a pass").feedback = Some(fb);
    let mut module = (bench.build)(scale);
    let report = config.compile(&mut module).expect("ade pass ran");
    ade_ir::verify::verify_module(&module).map_err(|e| CellError::Verify(e.to_string()))?;
    let mut exec = config.exec.clone();
    exec.fuse = opts.fuse;
    exec.loop_fuse = opts.loop_fuse;
    let decoded = ade_interp::DecodedModule::decode_with(
        &module,
        &ade_interp::DecodeOptions {
            fuse: exec.fuse,
            loop_fuse: exec.loop_fuse,
        },
    );
    assert!(trials > 0, "at least one trial");
    let mut best: Option<ade_interp::Outcome> = None;
    for _ in 0..trials {
        let outcome = Interpreter::new(&module, exec.clone())
            .run_decoded(&decoded, "main")
            .map_err(CellError::Exec)?;
        let better = best
            .as_ref()
            .is_none_or(|b| outcome.stats.wall_total_ns() < b.stats.wall_total_ns());
        if better {
            best = Some(outcome);
        }
    }
    let outcome = best.expect("ran at least once");
    Ok((
        RunResult {
            abbrev: bench.abbrev,
            config: ConfigKind::Ade,
            output: outcome.output,
            stats: outcome.stats,
            profile: None,
        },
        report.ledger,
    ))
}

/// Geometric mean of a sequence of ratios.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_workloads::bench::benchmark_by_abbrev;

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn memoir_and_ade_agree_and_ade_is_modeled_faster_on_bfs() {
        let bench = benchmark_by_abbrev("BFS").expect("bfs");
        let memoir = run_benchmark(&bench, ConfigKind::Memoir, 6);
        let ade = run_benchmark(&bench, ConfigKind::Ade, 6);
        assert_eq!(memoir.output, ade.output);
        let model = CostModel::intel_x64();
        assert!(
            ade.modeled_roi_ns(&model) < memoir.modeled_roi_ns(&model),
            "ADE must win the BFS ROI: {} vs {}",
            ade.modeled_roi_ns(&model),
            memoir.modeled_roi_ns(&model)
        );
    }
}
