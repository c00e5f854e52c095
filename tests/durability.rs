//! Durability matrix: crash-safe checkpoint/resume, deadline budgets, and
//! the degradation ladder, across all three durable workloads (Monte
//! Carlo, design-grid sweep, differential oracle) at 1/2/4/8 threads.
//!
//! The headline invariant under test: a run killed at any chunk boundary
//! and resumed is **bit-identical** to an uninterrupted run, at any thread
//! count. Crashes are injected through `ssn_core::faults`
//! (`crash_after_commits`, torn final writes) so every kill happens at a
//! deterministic commit count; journal damage is injected byte-exactly
//! with `corrupt_checkpoint`. A checkpoint that fails any structural check
//! must come back as a typed [`SsnError::Checkpoint`] offering a fresh
//! start — never a wrong-but-plausible result.

use ssn_lab::core::design::{sweep_design_grid, sweep_design_grid_durable};
use ssn_lab::core::durable::{
    ByteWriter, CheckpointStore, DegradeStep, DurableOptions, RunBudget, RunSpec,
};
use ssn_lab::core::error::CheckpointErrorKind;
use ssn_lab::core::faults::{corrupt_checkpoint, FaultPlan, Faults, JournalCorruption};
use ssn_lab::core::montecarlo::{
    mc_run_spec, run_monte_carlo_durable, run_monte_carlo_durable_with_path, run_monte_carlo_with,
    McPath, VariationSpec, MC_CHUNK,
};
use ssn_lab::core::oracle::{run_differential, run_differential_durable, OracleOptions};
use ssn_lab::core::parallel::ExecPolicy;
use ssn_lab::core::scenario::SsnScenario;
use ssn_lab::core::storage::RealIo;
use ssn_lab::core::SsnError;
use ssn_lab::devices::Asdm;
use ssn_lab::units::{Farads, Henrys, Seconds, Siemens, Volts};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

fn scenario(n: usize) -> SsnScenario {
    let asdm = Asdm::new(Siemens::from_millis(7.5), 1.25, Volts::new(0.6));
    SsnScenario::from_asdm(asdm, Volts::new(1.8))
        .drivers(n)
        .inductance(Henrys::from_nanos(5.0))
        .capacitance(Farads::from_picos(1.0))
        .rise_time(Seconds::from_nanos(0.5))
        .build()
        .expect("valid scenario")
}

/// A unique journal path per call, removed on drop (kill-tests leave the
/// file behind deliberately mid-test, so cleanup must be end-of-scope).
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!(
            "ssn-durability-{}-{tag}-{n}.ckpt",
            std::process::id()
        )))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("ckpt-tmp"));
    }
}

fn policy(threads: usize) -> ExecPolicy {
    ExecPolicy::with_threads(threads)
}

/// `policy(threads)` running under `plan`, with fresh fault state.
fn armed(threads: usize, plan: FaultPlan) -> ExecPolicy {
    policy(threads).with_faults(Faults::arm(plan))
}

fn checkpoint_at(path: &Path, resume: bool) -> DurableOptions {
    DurableOptions {
        checkpoint: Some(path.to_path_buf()),
        resume,
        budget: RunBudget::unlimited(),
    }
}

fn crash_after(commits: usize) -> FaultPlan {
    FaultPlan {
        crash_after_commits: Some(commits),
        ..FaultPlan::default()
    }
}

fn assert_bit_identical(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "sample counts differ");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "sample {i} differs: {g:?} vs {w:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Kill → resume → bit-identical, across workloads and thread counts
// ---------------------------------------------------------------------------

#[test]
fn montecarlo_kill_resume_is_bit_identical_at_every_thread_count() {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let samples = 6 * MC_CHUNK;
    let (golden, _) =
        run_monte_carlo_with(&s, &spec, samples, 42, &ExecPolicy::serial()).expect("golden");

    for threads in THREAD_MATRIX {
        let journal = TempJournal::new("mc-kill");
        let err = run_monte_carlo_durable(
            &s,
            &spec,
            samples,
            42,
            &armed(threads, crash_after(2)),
            &checkpoint_at(journal.path(), false),
        )
        .expect_err("injected crash must interrupt the run");
        match err {
            SsnError::Interrupted {
                committed_chunks,
                total_chunks,
            } => {
                assert_eq!(committed_chunks, 2, "threads={threads}");
                assert_eq!(total_chunks, 6, "threads={threads}");
            }
            other => panic!("want Interrupted, got {other}"),
        }
        assert!(journal.path().exists(), "the journal must survive the kill");

        let (mc, stats, durability) = run_monte_carlo_durable(
            &s,
            &spec,
            samples,
            42,
            &policy(threads),
            &checkpoint_at(journal.path(), true),
        )
        .expect("resume");
        assert_eq!(durability.resumed_chunks, 2, "threads={threads}");
        assert_eq!(stats.checkpointed_chunks, 2, "threads={threads}");
        assert!(!durability.is_degraded(), "resume is full fidelity");
        assert_bit_identical(mc.samples(), golden.samples());
    }
}

/// Cross-path resume: a checkpoint journal written mid-run by one Monte
/// Carlo evaluation path resumes on the *other* path bit-identically to an
/// uninterrupted run. The run spec deliberately does not digest the path —
/// both produce identical chunk payloads — so journals written before the
/// batched path existed (i.e. by the scalar implementation) must resume on
/// the batched default unchanged, and vice versa.
#[test]
fn montecarlo_checkpoint_resumes_across_evaluation_paths() {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let samples = 6 * MC_CHUNK;
    let (golden, _) =
        run_monte_carlo_with(&s, &spec, samples, 42, &ExecPolicy::serial()).expect("golden");

    for (write_path, resume_path) in [
        (McPath::Scalar, McPath::Batched),
        (McPath::Batched, McPath::Scalar),
    ] {
        for threads in THREAD_MATRIX {
            let journal = TempJournal::new("mc-xpath");
            let err = run_monte_carlo_durable_with_path(
                &s,
                &spec,
                samples,
                42,
                &armed(threads, crash_after(2)),
                &checkpoint_at(journal.path(), false),
                write_path,
            )
            .expect_err("injected crash must interrupt the run");
            assert!(
                matches!(err, SsnError::Interrupted { .. }),
                "{write_path}->{resume_path} threads={threads}: want Interrupted, got {err}"
            );
            assert!(journal.path().exists(), "journal must survive the kill");

            let (mc, stats, durability) = run_monte_carlo_durable_with_path(
                &s,
                &spec,
                samples,
                42,
                &policy(threads),
                &checkpoint_at(journal.path(), true),
                resume_path,
            )
            .expect("cross-path resume");
            let tag = format!("{write_path}->{resume_path} threads={threads}");
            assert_eq!(durability.resumed_chunks, 2, "{tag}");
            assert_eq!(stats.checkpointed_chunks, 2, "{tag}");
            assert!(!durability.is_degraded(), "{tag}: resume is full fidelity");
            assert_bit_identical(mc.samples(), golden.samples());
        }
    }
}

#[test]
fn sweep_kill_resume_is_bit_identical_at_every_thread_count() {
    let template = scenario(8);
    let drivers: Vec<usize> = (1..=16).collect();
    let inductances: Vec<Henrys> = (1..=16)
        .map(|i| Henrys::from_nanos(0.5 * i as f64))
        .collect();
    let (golden, _) = sweep_design_grid(&template, &drivers, &inductances, &ExecPolicy::serial())
        .expect("golden");

    for threads in THREAD_MATRIX {
        let journal = TempJournal::new("grid-kill");
        let err = sweep_design_grid_durable(
            &template,
            &drivers,
            &inductances,
            &armed(threads, crash_after(2)),
            &checkpoint_at(journal.path(), false),
        )
        .expect_err("injected crash must interrupt the run");
        assert!(matches!(err, SsnError::Interrupted { .. }), "{err}");

        let (points, _, durability) = sweep_design_grid_durable(
            &template,
            &drivers,
            &inductances,
            &policy(threads),
            &checkpoint_at(journal.path(), true),
        )
        .expect("resume");
        assert_eq!(durability.resumed_chunks, 2, "threads={threads}");
        assert_eq!(points.len(), golden.len());
        for (g, w) in points.iter().zip(&golden) {
            assert_eq!(g.n_drivers, w.n_drivers);
            assert_eq!(
                g.inductance.value().to_bits(),
                w.inductance.value().to_bits()
            );
            assert_eq!(g.vn_l_only.value().to_bits(), w.vn_l_only.value().to_bits());
            assert_eq!(g.vn_lc.value().to_bits(), w.vn_lc.value().to_bits());
            assert_eq!(g.case, w.case);
        }
    }
}

#[test]
fn validate_kill_resume_reproduces_the_summary_at_every_thread_count() {
    let opts = |threads: usize| OracleOptions {
        corpus: 96,
        seed: 1,
        exec: policy(threads),
        ..OracleOptions::default()
    };
    let golden = run_differential(&opts(1)).expect("golden").summary_csv();

    for threads in THREAD_MATRIX {
        let journal = TempJournal::new("validate-kill");
        let err = run_differential_durable(
            &OracleOptions {
                exec: armed(threads, crash_after(1)),
                ..opts(threads)
            },
            &checkpoint_at(journal.path(), false),
        )
        .expect_err("injected crash must interrupt the run");
        assert!(matches!(err, SsnError::Interrupted { .. }), "{err}");

        let (report, durability) =
            run_differential_durable(&opts(threads), &checkpoint_at(journal.path(), true))
                .expect("resume");
        assert_eq!(durability.resumed_chunks, 1, "threads={threads}");
        assert_eq!(report.scenarios, 96);
        assert!(report.fallbacks.is_empty());
        assert_eq!(report.summary_csv(), golden, "threads={threads}");
    }
}

// ---------------------------------------------------------------------------
// Journal damage: typed rejection, never wrong-but-plausible
// ---------------------------------------------------------------------------

/// Runs a crashed MC run into `journal`, leaving 2 committed chunks.
fn seed_journal(journal: &TempJournal) {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let err = run_monte_carlo_durable(
        &s,
        &spec,
        4 * MC_CHUNK,
        42,
        &armed(1, crash_after(2)),
        &checkpoint_at(journal.path(), false),
    )
    .expect_err("crash");
    assert!(matches!(err, SsnError::Interrupted { .. }));
}

fn resume_seeded(journal: &TempJournal, seed: u64) -> Result<(), SsnError> {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    run_monte_carlo_durable(
        &s,
        &spec,
        4 * MC_CHUNK,
        seed,
        &ExecPolicy::serial(),
        &checkpoint_at(journal.path(), true),
    )
    .map(|_| ())
}

#[test]
fn corrupted_journals_are_rejected_with_typed_errors() {
    let cases: [(JournalCorruption, CheckpointErrorKind); 3] = [
        // Chop bytes off the tail: record bounds / checksum must fail.
        (
            JournalCorruption::Truncate { keep: 40 },
            CheckpointErrorKind::Corrupt,
        ),
        // Flip one payload bit: the record checksum must catch it.
        (
            JournalCorruption::BitFlip {
                offset: 200,
                mask: 0x10,
            },
            CheckpointErrorKind::Corrupt,
        ),
        // A journal from a future format version is refused outright.
        (
            JournalCorruption::StaleVersion,
            CheckpointErrorKind::VersionMismatch,
        ),
    ];
    for (how, want_kind) in cases {
        let journal = TempJournal::new("corrupt");
        seed_journal(&journal);
        corrupt_checkpoint(journal.path(), how).expect("inject damage");
        let err = resume_seeded(&journal, 42).expect_err("damaged journal must be rejected");
        match &err {
            SsnError::Checkpoint { kind, .. } => {
                assert_eq!(*kind, want_kind, "{how:?}: {err}");
            }
            other => panic!("{how:?}: want Checkpoint error, got {other}"),
        }
        // The message tells the operator how to recover.
        assert!(err.to_string().contains("start fresh"), "{err}");
    }
}

#[test]
fn spec_mismatch_refuses_to_resume_under_different_parameters() {
    let journal = TempJournal::new("spec");
    seed_journal(&journal);
    // Same journal, different RNG seed: the header must refuse.
    let err = resume_seeded(&journal, 43).expect_err("seed mismatch");
    match &err {
        SsnError::Checkpoint { kind, detail, .. } => {
            assert_eq!(*kind, CheckpointErrorKind::SpecMismatch, "{err}");
            assert!(detail.contains("seed"), "names the field: {detail}");
        }
        other => panic!("want Checkpoint spec mismatch, got {other}"),
    }
    // The unmodified journal still resumes fine under the right spec.
    resume_seeded(&journal, 42).expect("original spec resumes");
}

/// A journal of the v1 sample stream (Box–Muller draws, kind
/// `"montecarlo"`) under otherwise identical parameters must be refused by
/// its kind: its chunks hold other samples than the v2 stream draws, so
/// restoring them would splice two streams into one result.
#[test]
fn a_v1_stream_journal_is_refused_by_kind_and_never_restored() {
    let journal = TempJournal::new("v1-stream");
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let n = 4 * MC_CHUNK;
    let v2 = mc_run_spec(&s, &spec, n, 42);
    assert_eq!(v2.kind, "montecarlo.v2");
    let v1 = RunSpec {
        kind: "montecarlo",
        ..v2
    };
    let mut store = CheckpointStore::create(journal.path().to_path_buf(), &v1);
    for c in 0..2 {
        let mut w = ByteWriter::new();
        w.put_usize(MC_CHUNK);
        for _ in 0..MC_CHUNK {
            w.put_f64(0.5);
        }
        store.record(c, w.into_vec());
    }
    store
        .commit(Duration::ZERO, &RealIo)
        .expect("commit the v1 journal");

    let err = run_monte_carlo_durable(
        &s,
        &spec,
        n,
        42,
        &policy(2),
        &checkpoint_at(journal.path(), true),
    )
    .expect_err("a v1 journal must not resume into a v2 run");
    match &err {
        SsnError::Checkpoint { kind, detail, .. } => {
            assert_eq!(*kind, CheckpointErrorKind::SpecMismatch, "{err}");
            assert!(
                detail.contains("kind") && detail.contains("montecarlo.v2"),
                "names the kind: {detail}"
            );
        }
        other => panic!("want Checkpoint spec mismatch, got {other}"),
    }
    // The refused journal is left exactly as committed.
    let kept = CheckpointStore::load(journal.path(), &RealIo).expect("journal still loads");
    kept.verify_spec(&v1).expect("still the v1 journal");
    assert_eq!(kept.records().len(), 2);
}

#[test]
fn torn_final_write_is_detected_and_a_fresh_start_recovers() {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let samples = 4 * MC_CHUNK;
    let journal = TempJournal::new("torn");
    let plan = FaultPlan {
        crash_after_commits: Some(2),
        ..FaultPlan::default()
    };
    let err = run_monte_carlo_durable(
        &s,
        &spec,
        samples,
        42,
        &armed(1, plan),
        &checkpoint_at(journal.path(), false),
    )
    .expect_err("crash");
    assert!(matches!(err, SsnError::Interrupted { .. }), "{err}");
    // Tear the final commit: the image a kill inside a non-atomic write of
    // the journal would leave.
    let len = std::fs::metadata(journal.path()).expect("journal").len() as usize;
    corrupt_checkpoint(
        journal.path(),
        JournalCorruption::Truncate { keep: len / 2 },
    )
    .expect("tear the journal");

    // The torn half-write must be detected, not half-trusted.
    let err = resume_seeded(&journal, 42).expect_err("torn journal rejected");
    assert!(
        matches!(
            &err,
            SsnError::Checkpoint {
                kind: CheckpointErrorKind::Corrupt,
                ..
            }
        ),
        "{err}"
    );

    // Starting fresh (no --resume) overwrites the damage and completes.
    let (mc, _, durability) = run_monte_carlo_durable(
        &s,
        &spec,
        samples,
        42,
        &ExecPolicy::serial(),
        &checkpoint_at(journal.path(), false),
    )
    .expect("fresh start");
    assert_eq!(durability.resumed_chunks, 0);
    let (golden, _) =
        run_monte_carlo_with(&s, &spec, samples, 42, &ExecPolicy::serial()).expect("golden");
    assert_bit_identical(mc.samples(), golden.samples());
}

// ---------------------------------------------------------------------------
// Deadlines and the degradation ladder
// ---------------------------------------------------------------------------

#[test]
fn montecarlo_deadline_shrinks_samples_and_records_it() {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let samples = 6 * MC_CHUNK;
    let durable = DurableOptions {
        checkpoint: None,
        resume: false,
        budget: RunBudget::expire_after_checks(2),
    };
    let (mc, _, durability) =
        run_monte_carlo_durable(&s, &spec, samples, 42, &ExecPolicy::serial(), &durable)
            .expect("partial result");
    assert!(durability.deadline_hit);
    assert_eq!(mc.len(), 2 * MC_CHUNK, "exactly two chunks completed");
    let [event] = durability.degradation.as_slice() else {
        panic!("want one degrade event, got {:?}", durability.degradation);
    };
    assert_eq!(event.step, DegradeStep::ShrinkSamples);
    assert_eq!(event.planned, samples);
    assert_eq!(event.delivered, 2 * MC_CHUNK);
    assert!(event.to_string().contains("shrink-samples"));
}

#[test]
fn sweep_deadline_coarsens_the_grid() {
    let template = scenario(8);
    let drivers: Vec<usize> = (1..=16).collect();
    let inductances: Vec<Henrys> = (1..=16)
        .map(|i| Henrys::from_nanos(0.5 * i as f64))
        .collect();
    let durable = DurableOptions {
        checkpoint: None,
        resume: false,
        budget: RunBudget::expire_after_checks(1),
    };
    let (points, _, durability) = sweep_design_grid_durable(
        &template,
        &drivers,
        &inductances,
        &ExecPolicy::serial(),
        &durable,
    )
    .expect("partial grid");
    assert!(durability.deadline_hit);
    assert_eq!(points.len(), 64, "one 64-point chunk survived");
    assert_eq!(durability.degradation.len(), 1);
    assert_eq!(durability.degradation[0].step, DegradeStep::CoarsenGrid);
}

#[test]
fn validate_deadline_degrades_to_closed_form_fallbacks() {
    let opts = OracleOptions {
        corpus: 96,
        seed: 1,
        exec: ExecPolicy::serial(),
        ..OracleOptions::default()
    };
    let durable = DurableOptions {
        checkpoint: None,
        resume: false,
        budget: RunBudget::expire_after_checks(1),
    };
    let (report, durability) = run_differential_durable(&opts, &durable).expect("partial");
    assert!(durability.deadline_hit);
    assert_eq!(report.scenarios, 32, "one oracle chunk survived");
    assert_eq!(report.fallbacks.len(), 64, "the skipped scenarios degrade");
    assert!(report
        .fallbacks
        .iter()
        .all(|f| f.vn_max.is_finite() && f.l_only_vn_max.is_finite()));
    assert_eq!(durability.degradation.len(), 1);
    assert_eq!(durability.degradation[0].step, DegradeStep::ClosedFormOnly);
    // The per-case summary still covers exactly the evaluated scenarios.
    let counted: usize = report.cases.iter().map(|c| c.count).sum();
    assert_eq!(counted, 32);
}

#[test]
fn exhausted_budget_is_a_typed_error_not_a_hang() {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    // Deterministic zero budget...
    let durable = DurableOptions {
        checkpoint: None,
        resume: false,
        budget: RunBudget::expire_after_checks(0),
    };
    let err = run_monte_carlo_durable(&s, &spec, 2 * MC_CHUNK, 42, &ExecPolicy::serial(), &durable)
        .expect_err("no work completed");
    assert!(matches!(err, SsnError::DeadlineExhausted { .. }), "{err}");
    // ...and a real wall-clock deadline that has already passed.
    let durable = DurableOptions {
        checkpoint: None,
        resume: false,
        budget: RunBudget::with_deadline(std::time::Duration::ZERO),
    };
    let err = run_monte_carlo_durable(&s, &spec, 2 * MC_CHUNK, 42, &ExecPolicy::serial(), &durable)
        .expect_err("no work completed");
    assert!(matches!(err, SsnError::DeadlineExhausted { .. }), "{err}");
}

#[test]
fn deadline_partial_checkpoint_then_resume_completes_bit_identically() {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let samples = 6 * MC_CHUNK;
    let journal = TempJournal::new("deadline-resume");
    // Session 1: budget dies after two chunks, both land in the journal.
    let durable = DurableOptions {
        checkpoint: Some(journal.path().to_path_buf()),
        resume: false,
        budget: RunBudget::expire_after_checks(2),
    };
    let (partial, stats, durability) =
        run_monte_carlo_durable(&s, &spec, samples, 42, &ExecPolicy::serial(), &durable)
            .expect("partial");
    assert!(durability.deadline_hit);
    assert_eq!(partial.len(), 2 * MC_CHUNK);
    assert_eq!(stats.checkpointed_chunks, 0, "no chunks were *restored*");

    // Session 2: resume with an unlimited budget and finish the job.
    let (full, stats, durability) = run_monte_carlo_durable(
        &s,
        &spec,
        samples,
        42,
        &ExecPolicy::with_threads(4),
        &checkpoint_at(journal.path(), true),
    )
    .expect("resume to completion");
    assert_eq!(durability.resumed_chunks, 2);
    assert!(!durability.deadline_hit);
    assert!(
        stats.elapsed_wall >= stats.wall,
        "prior session time counts"
    );
    let (golden, _) =
        run_monte_carlo_with(&s, &spec, samples, 42, &ExecPolicy::serial()).expect("golden");
    assert_bit_identical(full.samples(), golden.samples());
}

#[test]
fn resume_of_a_complete_journal_restores_everything() {
    let s = scenario(8);
    let spec = VariationSpec::typical();
    let samples = 4 * MC_CHUNK;
    let journal = TempJournal::new("noop-resume");
    let (first, _, _) = run_monte_carlo_durable(
        &s,
        &spec,
        samples,
        42,
        &ExecPolicy::serial(),
        &checkpoint_at(journal.path(), false),
    )
    .expect("initial run");

    // Inject an immediate crash: if resume evaluated *any* chunk it would
    // commit and die; restoring all four chunks never reaches the hook.
    let (second, stats, durability) = run_monte_carlo_durable(
        &s,
        &spec,
        samples,
        42,
        &armed(1, crash_after(1)),
        &checkpoint_at(journal.path(), true),
    )
    .expect("pure restore");
    assert_eq!(durability.resumed_chunks, 4);
    assert_eq!(stats.checkpointed_chunks, 4);
    assert_bit_identical(second.samples(), first.samples());
}
