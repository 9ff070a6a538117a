//! Committed expected outputs (`expected.tsv`): per program and scale,
//! the FNV-1a checksum of what the program prints and its MEMOIR
//! region-of-interest modeled time under `CostModel::intel_x64`. They
//! are recorded once from MEMOIR-config runs with no ADE pass
//! (`pipebench --record-expected`), so the compiler under test never
//! supplies its own reference.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ade_interp::cost::CostModel;
use ade_interp::{Interpreter, Phase};
use ade_workloads::{all_benchmarks, Config, ConfigKind};

use crate::util::fnv64;

/// The committed table, compiled into the binary.
pub const COMMITTED: &str = include_str!("../expected.tsv");

/// Scales the table covers (every workload's inputs).
pub const SCALES: [u32; 2] = [5, 7];

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expect {
    pub checksum: u64,
    pub memoir_roi_ns: f64,
}

#[derive(Clone, Debug)]
pub struct Expected(BTreeMap<(String, u32), Expect>);

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = |what: &str| format!("expected.tsv line {}: {what}", n + 1);
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 4 {
                return Err(bad("want 4 tab-separated fields"));
            }
            let scale = f[1].parse().map_err(|_| bad("bad scale"))?;
            let checksum = u64::from_str_radix(f[2], 16).map_err(|_| bad("bad checksum"))?;
            let memoir_roi_ns = f[3].parse().map_err(|_| bad("bad modeled ns"))?;
            map.insert(
                (f[0].to_string(), scale),
                Expect {
                    checksum,
                    memoir_roi_ns,
                },
            );
        }
        Ok(Expected(map))
    }

    pub fn committed() -> Result<Expected, String> {
        Expected::parse(COMMITTED)
    }

    pub fn get(&self, abbrev: &str, scale: u32) -> Result<Expect, String> {
        self.0
            .get(&(abbrev.to_string(), scale))
            .copied()
            .ok_or_else(|| format!("no expected output for {abbrev} at scale {scale}"))
    }

    #[cfg(test)]
    pub fn get_mut(&mut self, abbrev: &str, scale: u32) -> Option<&mut Expect> {
        self.0.get_mut(&(abbrev.to_string(), scale))
    }

    /// Checks one execution: its output must hash to the committed
    /// checksum, and a MEMOIR run must also reproduce the committed
    /// ROI modeled time exactly.
    pub fn check(
        &self,
        abbrev: &str,
        scale: u32,
        kind: ConfigKind,
        output: &str,
        roi_ns: f64,
    ) -> Result<(), String> {
        let want = self.get(abbrev, scale)?;
        let got = fnv64(output.as_bytes());
        if got != want.checksum {
            return Err(format!(
                "{abbrev}@s{scale}/{}: output checksum {got:016x}, expected {:016x}",
                kind.name(),
                want.checksum
            ));
        }
        if kind == ConfigKind::Memoir && roi_ns != want.memoir_roi_ns {
            return Err(format!(
                "{abbrev}@s{scale}/memoir: ROI modeled {roi_ns:?} ns, expected {:?} ns",
                want.memoir_roi_ns
            ));
        }
        Ok(())
    }
}

/// ROI modeled nanoseconds of a run under the Intel preset.
pub fn roi_modeled_ns(stats: &ade_interp::Stats) -> f64 {
    CostModel::intel_x64().time_ns(stats.phase(Phase::Roi))
}

/// Regenerates the table from MEMOIR runs (no ADE pass).
pub fn record() -> Result<String, String> {
    let memoir = Config::new(ConfigKind::Memoir);
    let mut out = String::from("# program\tscale\toutput_fnv64\tmemoir_roi_modeled_ns_intel_x64\n");
    for scale in SCALES {
        for bench in all_benchmarks() {
            let mut module = (bench.build)(scale);
            memoir.compile(&mut module);
            ade_ir::verify::verify_module(&module).map_err(|e| e.to_string())?;
            let outcome = Interpreter::new(&module, memoir.exec.clone())
                .run("main")
                .map_err(|e| format!("{}@s{scale}: {e}", bench.abbrev))?;
            let _ = writeln!(
                out,
                "{}\t{scale}\t{:016x}\t{:?}",
                bench.abbrev,
                fnv64(outcome.output.as_bytes()),
                roi_modeled_ns(&outcome.stats)
            );
        }
    }
    Ok(out)
}
