//! `design_explore`: the paper's design flow on p018 — the Fig. 3 sweep
//! against golden-device MNA, then the unconstrained and the capped Pareto
//! searches over the 64 x 32 x 8 x 8 design space.

use crate::measure::Tally;
use crate::{Ctx, PassOut, Workload};
use ssn_core::baselines::{senthinathan_prince, song, vemuru, BaselineInputs};
use ssn_core::bridge::{measure, DriverBankConfig};
use ssn_core::durable::fnv1a64;
use ssn_core::optimize::{
    enumerate, search, DesignSpace, ObjectiveSet, OptimizeOptions, ParetoFront,
};
use ssn_core::parallel::{par_map, ExecPolicy};
use ssn_core::scenario::SsnScenario;
use ssn_core::{lcmodel, lmodel};
use ssn_devices::process::Process;
use ssn_devices::MosModel;
use ssn_units::Seconds;
use std::path::Path;
use std::sync::Arc;

/// Sweep rows: N = 1..=64 drivers.
const SWEEP_MAX: usize = 64;
/// Grid axes: drivers x L x C x tr.
const GRID: (usize, usize, usize, usize) = (64, 32, 8, 8);
/// Geometric span of the parasitic and rise-time axes.
const SPAN: f64 = 4.0;
/// Noise cap of the second search, as a fraction of Vdd.
const CAP: f64 = 0.12;

/// Front digests and sizes recorded once from `optimize::enumerate`
/// (`--record-reference`): the exhaustive front the search must equal.
const UNCONSTRAINED_FRONT: (u64, usize) = (0x9ff8_5f30_6b29_0501, 4914);
const CAPPED_FRONT: (u64, usize) = (0xb663_cdcf_bf46_ecac, 234);

/// FNV-1a over every member's grid indices and objective bits; the
/// refinement level is provenance, not part of the point.
pub fn front_digest(front: &ParetoFront) -> u64 {
    let mut bytes = Vec::with_capacity(front.len() * 64);
    for p in front.members() {
        for v in [p.n_idx, p.l_idx, p.c_idx, p.tr_idx, p.n_drivers] {
            bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
        for v in [
            p.inductance.value(),
            p.capacitance.value(),
            p.rise_time.value(),
            p.vn_l_only.value(),
            p.vn_lc.value(),
            p.cost,
            p.speed,
        ] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(format!("{:?}", p.case).as_bytes());
    }
    fnv1a64(&bytes)
}

fn options(cap: Option<f64>) -> OptimizeOptions {
    OptimizeOptions {
        objectives: ObjectiveSet::NoiseCostSpeed,
        max_noise_frac: cap,
    }
}

struct Explore {
    process: Process,
    driver: Arc<dyn MosModel>,
    template: SsnScenario,
    space: DesignSpace,
    /// `lc_max_rel_err` of the first pass; every later pass must repeat it.
    lc_err: Option<f64>,
}

/// The p018 template and the design space around it.
fn inputs() -> Result<(Process, SsnScenario, DesignSpace), String> {
    let process = Process::p018();
    let template = SsnScenario::builder(&process)
        .rise_time(Seconds::from_nanos(0.5))
        .build()
        .map_err(|e| e.to_string())?;
    let space = DesignSpace::around(&template, GRID.0, GRID.1, GRID.2, GRID.3, SPAN)
        .map_err(|e| e.to_string())?;
    Ok((process, template, space))
}

pub fn setup(_ctx: &Ctx, _dir: &Path) -> Result<Box<dyn Workload>, String> {
    let (process, template, space) = inputs()?;
    Ok(Box::new(Explore {
        driver: Arc::new(process.output_driver()),
        process,
        template,
        space,
        lc_err: None,
    }))
}

impl Explore {
    /// One Fig. 3 row: MNA beside the closed forms and the baselines.
    /// Returns `(mna, lc)` after checking every column is a finite voltage.
    fn row(&self, n: usize) -> Result<(f64, f64), String> {
        let s = self.template.with_drivers(n).map_err(|e| e.to_string())?;
        let mna = {
            let _span = ssn_telemetry::span("bench.measure");
            measure(&DriverBankConfig::from_scenario(
                &s,
                Arc::clone(&self.driver),
            ))
            .map_err(|e| e.to_string())?
            .vn_max
            .value()
        };
        let inputs = BaselineInputs::from_process(&self.process, n, s.inductance(), s.rise_time());
        let lc = lcmodel::vn_max(&s).0.value();
        let others = [
            lmodel::vn_max(&s).value(),
            vemuru(&inputs).value(),
            song(&inputs).value(),
            senthinathan_prince(&inputs).value(),
        ];
        if [mna, lc]
            .iter()
            .chain(&others)
            .all(|v| v.is_finite() && *v > 0.0)
        {
            Ok((mna, lc))
        } else {
            Err(format!("row N={n}: non-finite or non-positive noise"))
        }
    }
}

impl Workload for Explore {
    fn items(&self) -> &'static str {
        "design points"
    }

    fn pass(&mut self, threads: usize, tally: &mut Tally) -> PassOut {
        let policy = ExecPolicy::with_threads(threads);
        let ns: Vec<usize> = (1..=SWEEP_MAX).collect();
        let (rows, _) = {
            let _span = ssn_telemetry::span("bench.sweep");
            par_map(&ns, &policy, |&n| self.row(n))
        };
        let mut err = 0.0f64;
        for row in rows {
            if let Some((mna, lc)) = tally.result("sweep row", row) {
                err = err.max((lc - mna).abs() / mna);
            }
        }
        let first = *self.lc_err.get_or_insert(err);
        tally.check(
            "sweep accuracy repeats exactly",
            first.to_bits() == err.to_bits(),
        );

        let mut items = SWEEP_MAX as u64;
        for (cap, reference) in [(None, UNCONSTRAINED_FRONT), (Some(CAP), CAPPED_FRONT)] {
            let found = {
                let _span = ssn_telemetry::span("bench.search");
                search(&self.template, &self.space, &options(cap), &policy)
            };
            if let Some((outcome, _)) = tally.result("search", found) {
                tally.check(
                    "search front equals the recorded exhaustive front",
                    (front_digest(&outcome.front), outcome.front.len()) == reference,
                );
                items += outcome.total_points as u64;
            }
        }
        PassOut {
            items,
            latencies_ms: Vec::new(),
        }
    }

    fn lc_max_rel_err(&mut self, _tally: &mut Tally) -> f64 {
        self.lc_err.unwrap_or(f64::NAN)
    }
}

/// Prints the exhaustive fronts' digests the search checks compare to.
pub fn record_reference() {
    let (_, template, space) = inputs().expect("design inputs");
    for cap in [None, Some(CAP)] {
        let (outcome, _) =
            enumerate(&template, &space, &options(cap), &ExecPolicy::auto()).expect("enumerate");
        println!(
            "front (cap {cap:?}): digest 0x{:016x}, {} members",
            front_digest(&outcome.front),
            outcome.front.len()
        );
    }
}
