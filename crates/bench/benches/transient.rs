//! Micro-benchmarks for the transient simulator: the reference cost the
//! closed-form models are amortizing away.

use ssn_bench::timing::BenchSet;
use ssn_core::bridge::DriverBankConfig;
use ssn_core::scenario::SsnScenario;
use ssn_devices::process::Process;
use ssn_spice::{transient, Circuit, SourceWave, TranOptions};
use ssn_units::Seconds;
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    let mut set = BenchSet::new();
    let process = Process::p018();
    let base = SsnScenario::builder(&process)
        .rise_time(Seconds::from_nanos(0.5))
        .build()
        .expect("valid scenario");
    // The bridge folds the bank into one `M = N` instance, so the per-call
    // cost stays flat in N.
    for n in [1usize, 4, 8, 64] {
        let s = base.with_drivers(n).expect("valid");
        let cfg = DriverBankConfig::from_scenario(&s, Arc::new(process.output_driver()));
        let circuit = cfg.build_circuit().expect("valid circuit");
        let t_stop = 50e-12 + 0.5e-9 * 2.5;
        set.bench(&format!("transient/driver_bank/{n}"), || {
            let opts = TranOptions::to(t_stop).with_ic().with_dt_max(0.5e-9 / 50.0);
            transient(black_box(&circuit), opts).expect("converges")
        });
    }

    let mut circuit = Circuit::new();
    circuit
        .vsource("v1", "in", "0", SourceWave::Dc(1.0))
        .expect("valid");
    circuit.resistor("r1", "in", "n1", 10.0).expect("valid");
    circuit.inductor("l1", "n1", "n2", 1e-6).expect("valid");
    circuit
        .capacitor_with_ic("c1", "n2", "0", 1e-9, 0.0)
        .expect("valid");
    set.bench("transient/rlc_ringdown", || {
        transient(black_box(&circuit), TranOptions::to(8e-6).with_ic()).expect("converges")
    });

    let path = set.write_csv("bench_transient").expect("csv written");
    println!("csv written to {}", path.display());
}
