//! Calls into the program's layers through their public entry points:
//! the compile pipeline `adec --config <name>` runs, the same pipeline
//! with ADE staged pass by pass under spans, and execution with the
//! optional profile round trip.

use std::hint::black_box;

use ade_interp::{DecodeOptions, DecodedModule, ExecConfig, Interpreter, Outcome};
use ade_ir::parse::parse_module;
use ade_ir::verify::verify_module;
use ade_ir::Module;
use ade_workloads::feedback::feedback_from_profile;
use ade_workloads::Config;

use crate::spans::{timed, Recorder};

/// A compiled, verified and decoded program.
pub struct Compiled {
    pub module: Module,
    pub decoded: DecodedModule,
    pub enums_created: u64,
}

fn decode(module: &Module, config: &Config) -> DecodedModule {
    DecodedModule::decode_with(
        module,
        &DecodeOptions {
            fuse: config.exec.fuse,
            loop_fuse: config.exec.loop_fuse,
        },
    )
}

/// `parse_module → verify_module → Config::compile → verify_module →
/// DecodedModule::decode_with`: exactly what `adec --config <name>`
/// does before it runs a program.
pub fn compile(text: &str, config: &Config) -> Result<Compiled, String> {
    let mut module = parse_module(text).map_err(|e| format!("parse: {e}"))?;
    verify_module(&module).map_err(|e| format!("verify: {e}"))?;
    let report = config.compile(&mut module);
    verify_module(&module).map_err(|e| format!("verify after ADE: {e}"))?;
    let decoded = decode(&module, config);
    Ok(Compiled {
        module,
        decoded,
        enums_created: report.map_or(0, |r| r.enums_created as u64),
    })
}

/// `(stage, seconds)` per timed public call; the stage names the
/// per-layer metric it feeds.
pub type Stages = Vec<(&'static str, f64)>;

/// What the staged pipeline measured, plus the pass counts only the
/// staged calls return.
pub struct Staged {
    pub compiled: Compiled,
    pub stages: Stages,
    pub peephole_removed: u64,
    pub cleanup_removed: u64,
}

/// [`compile`] with the ADE passes called one by one
/// (`plan → transform → select → peephole → cleanup`, as
/// `ade_core::run_ade` sequences them), each public call inside a span
/// under `parent`. Stage keys name the per-layer metric they feed.
pub fn compile_staged(
    text: &str,
    config: &Config,
    rec: &mut Recorder,
    parent: usize,
) -> Result<Staged, String> {
    use ade_core::{interproc, opt, peephole, select, transform};

    let mut stages = Vec::new();
    let (parsed, t) = rec.time("ir", "parse_module", parent, || parse_module(text));
    stages.push(("ir.parse", t));
    let mut module = parsed.map_err(|e| format!("parse: {e}"))?;
    let (verdict, t) = rec.time("ir", "verify_module", parent, || verify_module(&module));
    stages.push(("ir.verify_in", t));
    verdict.map_err(|e| format!("verify: {e}"))?;

    let (mut enums_created, mut peephole_removed, mut cleanup_removed) = (0, 0, 0);
    if let Some(options) = &config.ade {
        let (plan, t) = rec.time("core", "interproc::plan_module", parent, || {
            interproc::plan_module(&module, options)
        });
        stages.push(("core.plan", t));
        let (report, t) = rec.time("core", "transform::apply", parent, || {
            transform::apply(&mut module, &plan, options)
        });
        stages.push(("core.transform", t));
        enums_created = report.enums_created as u64;
        let ((), t) = rec.time("core", "select::apply_selection", parent, || {
            select::apply_selection(&mut module, &plan, options)
        });
        stages.push(("core.select", t));
        if options.rte {
            let (n, t) = rec.time("core", "peephole::run", parent, || {
                peephole::run(&mut module)
            });
            stages.push(("core.peephole", t));
            peephole_removed = n as u64;
            let (n, t) = rec.time("core", "opt::cleanup", parent, || opt::cleanup(&mut module));
            stages.push(("core.cleanup", t));
            cleanup_removed = n as u64;
        }
    }

    let (verdict, t) = rec.time("ir", "verify_module", parent, || verify_module(&module));
    stages.push(("ir.verify_out", t));
    verdict.map_err(|e| format!("verify after ADE: {e}"))?;
    let (decoded, t) = rec.time("interp", "decode_with", parent, || decode(&module, config));
    stages.push(("interp.decode", t));
    Ok(Staged {
        compiled: Compiled {
            module,
            decoded,
            enums_created,
        },
        stages,
        peephole_removed,
        cleanup_removed,
    })
}

/// Runs `main` on the pre-decoded program.
pub fn execute(c: &Compiled, exec: &ExecConfig) -> Result<Outcome, String> {
    Interpreter::new(&c.module, exec.clone())
        .run_decoded(&c.decoded, "main")
        .map_err(|e| format!("exec: {e}"))
}

/// The profile round trip of a profiled run: `SiteProfile::to_json`,
/// `ade_obs::read_profile`, then `feedback_from_profile`, each inside a
/// span under `parent` when recording. Returns the profile's size in
/// bytes and the time of each call.
pub fn profile_round_trip(
    outcome: &Outcome,
    mut rec: Option<&mut Recorder>,
    parent: usize,
) -> Result<(u64, Stages), String> {
    let profile = outcome
        .profile
        .as_ref()
        .ok_or("profiled run returned no profile")?;
    let (json, write) = timed(rec.as_deref_mut(), "obs", "to_json", parent, || {
        profile.to_json()
    });
    let (data, read) = timed(rec.as_deref_mut(), "obs", "read_profile", parent, || {
        ade_obs::read_profile(&json)
    });
    let data = data.map_err(|e| format!("read_profile: {e}"))?;
    let ((), mix) = timed(rec, "workloads", "feedback_from_profile", parent, || {
        black_box(feedback_from_profile("pipebench", &data));
    });
    let stages = vec![
        ("obs.profile_write", write),
        ("obs.profile_read", read),
        ("workloads.feedback_mix", mix),
    ];
    Ok((json.len() as u64, stages))
}
