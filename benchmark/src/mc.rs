//! `mc_yield` and `mc_checkpointed`: the Monte Carlo yield job on the p018
//! 8-driver LC scenario, in memory and through the checkpoint journal.

use crate::measure::Tally;
use crate::{Ctx, PassOut, Workload};
use ssn_core::durable::{DurableOptions, RunBudget};
use ssn_core::montecarlo::{
    run_monte_carlo_durable, run_monte_carlo_with, McResult, VariationSpec,
};
use ssn_core::parallel::ExecPolicy;
use ssn_core::scenario::SsnScenario;
use ssn_devices::process::Process;
use ssn_units::{Seconds, Volts};
use std::path::{Path, PathBuf};

/// Samples per `mc_yield` pass.
const YIELD_SAMPLES: usize = 1_000_000;
/// Samples per `mc_checkpointed` pass (782 chunks of 256).
const CKPT_SAMPLES: usize = 200_000;
/// Engine chunk size: one journal record per chunk.
const CHUNK: usize = 256;
/// The yield budget the report statistics are read at.
const BUDGET_V: f64 = 0.75;

/// Report statistics of one Monte Carlo result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McStats {
    mean: f64,
    sd: f64,
    q50: f64,
    q90: f64,
    q95: f64,
    q99: f64,
    yield_within: f64,
}

impl McStats {
    fn of(r: &McResult) -> Self {
        let _span = ssn_telemetry::span("bench.stats");
        Self {
            mean: r.mean().value(),
            sd: r.std_dev().value(),
            q50: r.quantile(0.50).value(),
            q90: r.quantile(0.90).value(),
            q95: r.quantile(0.95).value(),
            q99: r.quantile(0.99).value(),
            yield_within: r.yield_within(Volts::new(BUDGET_V)),
        }
    }

    /// Within tolerance of the reference values recorded from a 1M-sample
    /// run at seed 1. The sampling error of these statistics at 200k
    /// samples is below 0.05%, so any correct normal stream passes, while
    /// a wrong kernel, clamp or variation spec moves them by more.
    fn matches_reference(&self) -> bool {
        let rel = |x: f64, r: f64, tol: f64| ((x - r) / r).abs() <= tol;
        let r = REFERENCE;
        rel(self.mean, r.mean, 0.005)
            && rel(self.sd, r.sd, 0.03)
            && rel(self.q50, r.q50, 0.005)
            && rel(self.q90, r.q90, 0.005)
            && rel(self.q95, r.q95, 0.005)
            && rel(self.q99, r.q99, 0.01)
            && (self.yield_within - r.yield_within).abs() <= 0.005
    }
}

/// Recorded with `--record-reference` (seed 1, 1M samples).
const REFERENCE: McStats = McStats {
    mean: 0.668_770_468_265_048_9,
    sd: 0.038_092_404_236_405_83,
    q50: 0.670_225_775_358_617_8,
    q90: 0.716_340_367_113_247,
    q95: 0.728_756_876_970_524_8,
    q99: 0.751_624_005_003_816_9,
    yield_within: 0.988_655,
};

fn nominal() -> Result<SsnScenario, String> {
    SsnScenario::builder(&Process::p018())
        .drivers(8)
        .rise_time(Seconds::from_nanos(0.5))
        .build()
        .map_err(|e| e.to_string())
}

/// The golden-device MNA maximum of the nominal scenario.
pub fn nominal_mna(tally: &mut Tally) -> f64 {
    let s = match nominal() {
        Ok(s) => s,
        Err(e) => {
            return tally
                .result::<f64, _>("nominal scenario", Err(e))
                .unwrap_or(f64::NAN)
        }
    };
    let cfg = ssn_core::bridge::DriverBankConfig::from_scenario(
        &s,
        std::sync::Arc::new(Process::p018().output_driver()),
    );
    tally
        .result("MNA reference", ssn_core::bridge::measure(&cfg))
        .map_or(f64::NAN, |m| m.vn_max.value())
}

/// `|LC - MNA| / MNA` on the nominal scenario the jobs sample around.
fn nominal_lc_error(s: &SsnScenario, tally: &mut Tally) -> f64 {
    let mna = nominal_mna(tally);
    (ssn_core::lcmodel::vn_max(s).0.value() - mna).abs() / mna
}

struct McYield {
    seed: u64,
    scenario: SsnScenario,
    spec: VariationSpec,
}

pub fn setup_yield(ctx: &Ctx, _dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(McYield {
        seed: ctx.seed,
        scenario: nominal()?,
        spec: VariationSpec::typical(),
    }))
}

impl Workload for McYield {
    fn items(&self) -> &'static str {
        "samples"
    }

    fn pass(&mut self, threads: usize, tally: &mut Tally) -> PassOut {
        let run = {
            let _span = ssn_telemetry::span("bench.mc");
            run_monte_carlo_with(
                &self.scenario,
                &self.spec,
                YIELD_SAMPLES,
                self.seed,
                &ExecPolicy::with_threads(threads),
            )
        };
        let Some((result, stats)) = tally.result("monte carlo run", run) else {
            return PassOut::default();
        };
        tally.check("every chunk survived", stats.failed_chunks == 0);
        tally.check(
            "yield statistics match the reference",
            McStats::of(&result).matches_reference(),
        );
        PassOut {
            items: result.len() as u64,
            latencies_ms: Vec::new(),
        }
    }

    fn lc_max_rel_err(&mut self, tally: &mut Tally) -> f64 {
        nominal_lc_error(&self.scenario, tally)
    }
}

pub struct McCheckpointed {
    samples: usize,
    seed: u64,
    scenario: SsnScenario,
    spec: VariationSpec,
    journal: PathBuf,
    /// The last checkpointed run's samples, for the final in-memory check.
    last: Option<McResult>,
    journal_bytes: u64,
}

pub fn setup_checkpointed(ctx: &Ctx, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(McCheckpointed::new(ctx, dir, CKPT_SAMPLES)?))
}

impl McCheckpointed {
    /// A `samples`-sample checkpointed job journaling into `dir`.
    pub fn new(ctx: &Ctx, dir: &Path, samples: usize) -> Result<Self, String> {
        Ok(Self {
            samples,
            seed: ctx.seed,
            scenario: nominal()?,
            spec: VariationSpec::typical(),
            journal: dir.join("mc.ckpt"),
            last: None,
            journal_bytes: 0,
        })
    }

    fn durable(&self, threads: usize, resume: bool) -> Result<McResult, String> {
        let opts = DurableOptions {
            checkpoint: Some(self.journal.clone()),
            resume,
            budget: RunBudget::unlimited(),
        };
        let (result, _stats, durability) = run_monte_carlo_durable(
            &self.scenario,
            &self.spec,
            self.samples,
            self.seed,
            &ExecPolicy::with_threads(threads),
            &opts,
        )
        .map_err(|e| e.to_string())?;
        if durability.is_degraded() {
            return Err("the run lost its checkpoint journal".into());
        }
        Ok(result)
    }

    /// Bytes the last run wrote to its journal, computed from the final
    /// journal size: every commit rewrites the header plus every record so
    /// far. Records are summed in chunk order; commit order differs only in
    /// where the one short last chunk lands.
    pub fn bytes_written(&self) -> u64 {
        // chunk id + length + checksum around a (count + samples) payload.
        let record = |len: usize| (8 + 8 + 8 + 8 + 8 * len) as u64;
        let records: Vec<u64> = (0..self.samples.div_ceil(CHUNK))
            .map(|c| record(CHUNK.min(self.samples - c * CHUNK)))
            .collect();
        let header = self.journal_bytes.saturating_sub(records.iter().sum());
        let mut so_far = 0u64;
        let mut total = 0u64;
        for r in records {
            so_far += r;
            total += header + so_far;
        }
        total
    }
}

impl Workload for McCheckpointed {
    fn items(&self) -> &'static str {
        "samples"
    }

    fn pass(&mut self, threads: usize, tally: &mut Tally) -> PassOut {
        let _ = std::fs::remove_file(&self.journal);
        let run = {
            let _span = ssn_telemetry::span("bench.ckpt.run");
            self.durable(threads, false)
        };
        let resumed = {
            let _span = ssn_telemetry::span("bench.ckpt.resume");
            self.durable(threads, true)
        };
        let (Some(run), Some(resumed)) = (
            tally.result("checkpointed run", run),
            tally.result("resume", resumed),
        ) else {
            return PassOut::default();
        };
        self.journal_bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        tally.check(
            "resume is bit-identical to the checkpointed run",
            run.samples().len() == self.samples
                && run
                    .samples()
                    .iter()
                    .zip(resumed.samples())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                && resumed.samples().len() == self.samples,
        );
        tally.check(
            "checkpointed statistics match the reference",
            McStats::of(&run).matches_reference(),
        );
        self.last = Some(run);
        PassOut {
            items: self.samples as u64,
            latencies_ms: Vec::new(),
        }
    }

    fn final_checks(&mut self, tally: &mut Tally) {
        let memory = run_monte_carlo_with(
            &self.scenario,
            &self.spec,
            self.samples,
            self.seed,
            &ExecPolicy::auto(),
        );
        let same = match (&self.last, memory) {
            (Some(durable), Ok((mem, _))) => durable.samples() == mem.samples(),
            _ => false,
        };
        tally.check("checkpointed run equals the in-memory run", same);
    }

    fn lc_max_rel_err(&mut self, tally: &mut Tally) -> f64 {
        nominal_lc_error(&self.scenario, tally)
    }
}

/// Prints the reference statistics the checks compare against.
pub fn record_reference() {
    let s = nominal().expect("nominal scenario");
    let (r, _) = run_monte_carlo_with(
        &s,
        &VariationSpec::typical(),
        YIELD_SAMPLES,
        1,
        &ExecPolicy::auto(),
    )
    .expect("reference run");
    println!(
        "mc reference (seed 1, {YIELD_SAMPLES} samples): {:?}",
        McStats::of(&r)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_written_sums_every_rewrite() {
        let ctx = Ctx {
            seed: 1,
            threads: 1,
            scratch: PathBuf::new(),
        };
        let mut w = McCheckpointed::new(&ctx, Path::new(""), CKPT_SAMPLES).unwrap();
        // 782 records of 2080 B (the last of 544 B) behind a 100 B header.
        let records = 781 * 2080 + 544;
        w.journal_bytes = 100 + records;
        let expect: u64 = (1..=781u64).map(|k| 100 + k * 2080).sum::<u64>() + 100 + records;
        assert_eq!(w.bytes_written(), expect);
    }
}
