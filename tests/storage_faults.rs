//! Storage fault injection: the durable paths survive ENOSPC, EIO, failed
//! fsync, torn writes, and power cuts at every I/O operation index.
//!
//! The headline invariant (the crash-consistency sweep): for **every**
//! operation index k of a checkpointed run, a hard fault at k followed by
//! restart yields either a bit-identical resume or a typed clean-slate
//! rerun — never a panic, never silently-corrupt accepted output. On top
//! of it: persistent faults (ENOSPC) ride the degradation ladder — the
//! run finishes un-checkpointed with a declared [`DegradeStep::
//! Uncheckpointed`] event — while transient faults (flaky EIO) are
//! absorbed by the retry policy; and with faults disarmed every durable
//! path is byte-identical to a faultless build.
//!
//! Everything runs under `ExecPolicy::serial()` so the storage operation
//! order (and therefore each seeded fault schedule) is deterministic. Each
//! run arms its own fault plane, so the tests run in parallel untouched by
//! each other's faults.

use ssn_lab::core::durable::{DegradeStep, DurableOptions, JournalLock, RunBudget};
use ssn_lab::core::error::CheckpointErrorKind;
use ssn_lab::core::faults::{FaultPlan, Faults};
use ssn_lab::core::montecarlo::{
    run_monte_carlo_durable, run_monte_carlo_with, VariationSpec, MC_CHUNK,
};
use ssn_lab::core::parallel::ExecPolicy;
use ssn_lab::core::scenario::SsnScenario;
use ssn_lab::core::storage::RealIo;
use ssn_lab::core::SsnError;
use ssn_lab::devices::Asdm;
use ssn_lab::units::{Farads, Henrys, Seconds, Siemens, Volts};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// A unique journal path per call; drop sweeps the whole on-disk family
/// (journal, temp, lock) because fault tests deliberately strand them.
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!(
            "ssn-storage-faults-{}-{tag}-{n}.ckpt",
            std::process::id()
        )))
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn lock_path(&self) -> PathBuf {
        let mut os = self.0.as_os_str().to_os_string();
        os.push(".lock");
        PathBuf::from(os)
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("ckpt-tmp"));
        let _ = std::fs::remove_file(self.lock_path());
    }
}

fn checkpoint_at(path: &Path, resume: bool) -> DurableOptions {
    DurableOptions {
        checkpoint: Some(path.to_path_buf()),
        resume,
        budget: RunBudget::unlimited(),
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

const SAMPLES: usize = 4 * MC_CHUNK;
const SEED: u64 = 42;

fn golden() -> Vec<f64> {
    let s = scenario(8);
    let (mc, _) = run_monte_carlo_with(
        &s,
        &VariationSpec::typical(),
        SAMPLES,
        SEED,
        &ExecPolicy::serial(),
    )
    .expect("golden");
    mc.samples().to_vec()
}

/// A serial checkpointed run under `faults` (disarmed: a healthy disk).
fn run_checkpointed(
    journal: &Path,
    resume: bool,
    faults: &Faults,
) -> Result<(Vec<f64>, ssn_lab::core::durable::Durability), SsnError> {
    let s = scenario(8);
    run_monte_carlo_durable(
        &s,
        &VariationSpec::typical(),
        SAMPLES,
        SEED,
        &ExecPolicy::serial().with_faults(faults.clone()),
        &checkpoint_at(journal, resume),
    )
    .map(|(mc, _, durability)| (mc.samples().to_vec(), durability))
}

// ---------------------------------------------------------------------------
// The crash-consistency sweep
// ---------------------------------------------------------------------------

/// A hard power cut at every storage operation index k, then restart:
/// each session-1 outcome must be typed (never a panic), and session 2 —
/// resuming when a journal survived, starting clean otherwise — must be
/// bit-identical to the golden run. Also pins that with the injector
/// armed but inert (all probabilities zero) the run is byte-identical to
/// the disarmed one: the fault layer itself changes nothing.
#[test]
fn power_cut_at_every_operation_index_resumes_or_reruns_bit_identically() {
    let golden = golden();

    // Count the run's storage operations with an inert armed plan, and
    // prove the inert layer is invisible in the result.
    let counting = TempJournal::new("count");
    let inert = Faults::arm(FaultPlan::default());
    let (samples, durability) =
        run_checkpointed(counting.path(), false, &inert).expect("inert plan must not fail");
    assert!(!durability.is_degraded());
    assert_bit_identical(&samples, &golden);
    let total_ops = inert.disk_ops();
    // Lock create + per-commit (temp write + rename + dir fsync).
    assert!(total_ops >= 4, "suspiciously few storage ops: {total_ops}");

    for k in 0..total_ops {
        let journal = TempJournal::new("sweep");
        let session1 = run_checkpointed(
            journal.path(),
            false,
            &Faults::arm(FaultPlan {
                kill_at: Some(k),
                ..FaultPlan::default()
            }),
        );
        // The kill always lands (k < total_ops), so session 1 must fail —
        // with a *typed* error. Reaching this line at all proves no panic
        // escaped.
        let err = session1.expect_err("kill fired mid-run");
        assert!(
            matches!(
                err,
                SsnError::Interrupted { .. }
                    | SsnError::Checkpoint {
                        kind: CheckpointErrorKind::Io,
                        ..
                    }
            ),
            "kill at op {k}: want Interrupted or Checkpoint/Io, got {err}"
        );

        // Restart with faults off: resume whatever journal survived, or
        // start clean when the cut landed before the first commit.
        let resume = journal.path().exists();
        let (samples, durability) = run_checkpointed(journal.path(), resume, &Faults::none())
            .unwrap_or_else(|e| panic!("kill at op {k}: restart (resume={resume}) failed: {e}"));
        assert!(
            !durability.is_degraded(),
            "kill at op {k}: restart on a healthy disk is full fidelity"
        );
        assert_bit_identical(&samples, &golden);
    }
}

// ---------------------------------------------------------------------------
// The degradation ladder: persistent faults never cost the run its result
// ---------------------------------------------------------------------------

#[test]
fn full_disk_degrades_to_uncheckpointed_and_still_delivers_the_result() {
    let golden = golden();
    let journal = TempJournal::new("enospc");
    let (samples, durability) = run_checkpointed(
        journal.path(),
        false,
        &Faults::arm(FaultPlan {
            enospc: 1.0,
            ..FaultPlan::default()
        }),
    )
    .expect("a full disk must degrade, not fail the run");

    assert_bit_identical(&samples, &golden);
    assert!(durability.is_degraded());
    assert!(
        !durability.is_fidelity_degraded(),
        "losing the journal does not degrade result fidelity"
    );
    let [event] = durability.degradation.as_slice() else {
        panic!(
            "want exactly one degrade event, got {:?}",
            durability.degradation
        );
    };
    assert_eq!(event.step, DegradeStep::Uncheckpointed);
    assert!(
        event.to_string().contains("checkpoint-disabled"),
        "report line names the step: {event}"
    );
    assert!(
        !journal.path().exists(),
        "no journal can exist on a disk that rejected every write"
    );
}

#[test]
fn disk_filling_up_mid_run_degrades_after_the_last_good_commit() {
    let golden = golden();
    let journal = TempJournal::new("enospc-mid");
    // Let the lock and the first commit (ops 0..=3) through, then the
    // disk is full for everything after. An inert prefix is impossible to
    // express with a flat probability, so the healthy first session runs
    // under an inert plan and the resume under the full-disk one.
    let s = scenario(8);
    let first = run_monte_carlo_durable(
        &s,
        &VariationSpec::typical(),
        SAMPLES,
        SEED,
        &ExecPolicy::serial().with_faults(Faults::arm(FaultPlan::default())),
        &DurableOptions {
            checkpoint: Some(journal.path().to_path_buf()),
            resume: false,
            budget: RunBudget::expire_after_checks(1),
        },
    );
    let (partial, _, d) = first.expect("healthy first session");
    assert!(d.deadline_hit);
    assert_eq!(partial.len(), MC_CHUNK);
    // Session 2 resumes onto a disk that has just filled up.
    let (samples, durability) = run_checkpointed(
        journal.path(),
        true,
        &Faults::arm(FaultPlan {
            enospc: 1.0,
            ..FaultPlan::default()
        }),
    )
    .expect("resume onto a full disk must degrade, not fail");

    assert_bit_identical(&samples, &golden);
    let [event] = durability.degradation.as_slice() else {
        panic!("want one degrade event, got {:?}", durability.degradation);
    };
    assert_eq!(event.step, DegradeStep::Uncheckpointed);
    assert!(
        journal.path().exists(),
        "the last good journal stays on disk untouched"
    );
}

// ---------------------------------------------------------------------------
// Transient faults: absorbed by the retry policy, invisible in the result
// ---------------------------------------------------------------------------

#[test]
fn flaky_eio_is_retried_and_the_run_stays_fully_checkpointed() {
    let golden = golden();
    // Deterministic schedule: seed 3 at p=0.15 never produces three
    // consecutive failures on any operation, so every retry round clears.
    let journal = TempJournal::new("eio");
    let (samples, durability) = run_checkpointed(
        journal.path(),
        false,
        &Faults::arm(FaultPlan {
            seed: 3,
            eio: 0.15,
            fsync: 0.1,
            ..FaultPlan::default()
        }),
    )
    .expect("transient faults must be absorbed");
    assert_bit_identical(&samples, &golden);
    assert!(
        !durability.is_degraded(),
        "retried faults are not a degradation"
    );
    assert!(
        journal.path().exists(),
        "the journal landed despite the flaky disk"
    );
    // The survived journal is structurally perfect: a pure restore run
    // (healthy disk) resumes all chunks bit-identically.
    let (restored, durability) =
        run_checkpointed(journal.path(), true, &Faults::none()).expect("pure restore");
    assert_eq!(durability.resumed_chunks, SAMPLES / MC_CHUNK);
    assert_bit_identical(&restored, &golden);
}

// ---------------------------------------------------------------------------
// JournalLock under storage faults
// ---------------------------------------------------------------------------

#[test]
fn enospc_during_lock_write_leaves_no_partial_lock_file() {
    let journal = TempJournal::new("lock-enospc");
    let full = Faults::arm(FaultPlan {
        enospc: 1.0,
        ..FaultPlan::default()
    });
    let err = JournalLock::acquire(journal.path(), &full).expect_err("no space for a lock");
    assert!(
        matches!(
            err,
            SsnError::Checkpoint {
                kind: CheckpointErrorKind::Io,
                ..
            }
        ),
        "{err}"
    );
    assert!(
        !journal.lock_path().exists(),
        "a failed acquisition must not strand a partial lock file"
    );
    // The path is immediately lockable on a healthy disk.
    let lock = JournalLock::acquire(journal.path(), &RealIo).expect("healthy acquire");
    drop(lock);
}

/// A stale lock (dead-PID husk) contended by two live threads: exactly
/// zero or one holder at any instant, every loser gets the typed
/// `Locked` refusal, and nobody panics. Repeated to give the race a
/// chance to interleave differently.
#[test]
fn stale_lock_takeover_race_never_yields_two_live_holders() {
    for round in 0..25 {
        let journal = TempJournal::new("lock-race");
        // A PID that cannot be alive: PID 0 is the kernel's, never a
        // userspace holder, and `/proc/0` does not exist.
        std::fs::write(journal.lock_path(), b"0\n").expect("plant stale lock");

        let holders = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(2);
        let outcomes = std::thread::scope(|scope| {
            let contend = || {
                barrier.wait();
                match JournalLock::acquire(journal.path(), &RealIo) {
                    Ok(lock) => {
                        let now = holders.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(now, 0, "round {round}: two simultaneous lock holders");
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        holders.fetch_sub(1, Ordering::SeqCst);
                        drop(lock);
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            };
            let a = scope.spawn(contend);
            let b = scope.spawn(contend);
            [a.join().expect("no panic"), b.join().expect("no panic")]
        });

        let wins = outcomes.iter().filter(|o| o.is_ok()).count();
        assert!(wins >= 1, "round {round}: someone must take the stale lock");
        for outcome in &outcomes {
            if let Err(e) = outcome {
                assert!(
                    matches!(
                        e,
                        SsnError::Checkpoint {
                            kind: CheckpointErrorKind::Locked,
                            ..
                        }
                    ),
                    "round {round}: loser must get the typed refusal, got {e}"
                );
            }
        }
        assert!(
            !journal.lock_path().exists(),
            "round {round}: all holders released"
        );
    }
}

// ---------------------------------------------------------------------------
// Server result cache under storage faults (integration-level)
// ---------------------------------------------------------------------------

#[test]
fn cache_serves_from_memory_when_the_spool_disk_is_full() {
    use ssn_lab::server::cache::ResultCache;
    let dir = std::env::temp_dir().join(format!("ssn-sf-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let cache = ResultCache::new(Some(dir.clone()))
        .expect("cache")
        .with_faults(Faults::arm(FaultPlan {
            enospc: 1.0,
            ..FaultPlan::default()
        }));
    cache.put(0xab, b"full-fidelity-result".to_vec());
    assert!(cache.disk_degraded(), "spool failure is declared");
    assert_eq!(
        cache.get(0xab).expect("memory tier").as_slice(),
        b"full-fidelity-result",
        "the computed result is still served, uncached on disk"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
