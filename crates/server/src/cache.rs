//! Content-addressed result cache.
//!
//! Keys are [`crate::api::ApiRequest::digest`] values — a canonical FNV-1a
//! digest over the *resolved* request parameters — so two requests that
//! mean the same computation share one entry no matter how they were
//! spelled. Values are the exact response-body bytes; the robustness
//! contract ("a cache hit returns byte-identical data to the miss that
//! filled it") is pinned by the server test suite.
//!
//! Entries live in memory and, when a spool directory is configured, as
//! `res-<digest>.res` files written atomically (temp + fsync + rename +
//! parent-directory fsync, the same discipline as the checkpoint
//! journal). The disk tier is what lets a restarted server serve a
//! completed job's result after `kill -9`.
//!
//! Every disk entry is framed with a magic and an FNV-1a checksum of its
//! payload. An entry that fails to read, frame, or verify is a *miss*:
//! the bad file is deleted and the result recomputed — a flipped bit on
//! the spool disk must never be served as a valid response. Disk I/O goes
//! through the server's fault plane ([`ResultCache::with_faults`]); a
//! persistent write failure flips the cache into declared degraded mode
//! (served from memory only, `disk_degraded` gauge raised) until a write
//! succeeds again.

use ssn_core::durable::fnv1a64;
use ssn_core::faults::Faults;
use ssn_core::storage::{self, CkptIo, RealIo};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Frames every on-disk entry; a file without it is not a cache entry.
const ENTRY_MAGIC: &[u8; 8] = b"SSNRES1\0";

/// `magic + checksum(payload) + payload`.
fn encode_entry(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENTRY_MAGIC.len() + 8 + payload.len());
    out.extend_from_slice(ENTRY_MAGIC);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The verified payload, or `None` for any framing or checksum defect.
fn decode_entry(bytes: &[u8]) -> Option<Vec<u8>> {
    let rest = bytes.strip_prefix(ENTRY_MAGIC.as_slice())?;
    let (sum, payload) = rest.split_first_chunk::<8>()?;
    (u64::from_le_bytes(*sum) == fnv1a64(payload)).then(|| payload.to_vec())
}

/// Shared result cache (memory + optional disk spool).
#[derive(Debug)]
pub struct ResultCache {
    mem: Mutex<HashMap<u64, Arc<Vec<u8>>>>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Raised when a spool write persistently fails (memory-only service),
    /// lowered when a later write lands — the `/metrics` `disk_degraded`
    /// gauge reads this.
    disk_degraded: AtomicBool,
    /// The storage sites of the owning server's fault plane.
    faults: Faults,
}

impl ResultCache {
    /// A cache spooling to `dir` (`None` = memory only). The directory is
    /// created if missing, and temp files orphaned by a crash mid-write
    /// are swept out.
    ///
    /// # Errors
    ///
    /// I/O errors creating the spool directory.
    pub fn new(dir: Option<PathBuf>) -> std::io::Result<Self> {
        if let Some(d) = &dir {
            RealIo.create_dir_all(d)?;
            sweep_orphan_tmps(d);
        }
        Ok(Self {
            mem: Mutex::new(HashMap::new()),
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_degraded: AtomicBool::new(false),
            faults: Faults::none(),
        })
    }

    /// Routes every later spool read and write through `faults`.
    pub fn with_faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }

    fn path_for(dir: &Path, digest: u64) -> PathBuf {
        dir.join(format!("res-{digest:016x}.res"))
    }

    /// Looks up `digest`, falling back to the disk spool (and promoting
    /// the bytes to memory on a disk hit). An unreadable, unframed, or
    /// checksum-failing disk entry is deleted and counted as a miss — the
    /// caller recomputes. Counts a hit or miss.
    pub fn get(&self, digest: u64) -> Option<Arc<Vec<u8>>> {
        let mut mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(bytes) = mem.get(&digest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(bytes));
        }
        if let Some(dir) = &self.dir {
            let path = Self::path_for(dir, digest);
            if path.exists() {
                match self
                    .faults
                    .read(&path)
                    .ok()
                    .as_deref()
                    .and_then(decode_entry)
                {
                    Some(payload) => {
                        let bytes = Arc::new(payload);
                        mem.insert(digest, Arc::clone(&bytes));
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Some(bytes);
                    }
                    None => {
                        // Corrupt or unreadable: purge it so the recompute
                        // can overwrite, and fall through to a miss.
                        let _ = self.faults.remove_file(&path);
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// `true` when `digest` is present (no hit/miss accounting).
    pub fn contains(&self, digest: u64) -> bool {
        let mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
        if mem.contains_key(&digest) {
            return true;
        }
        drop(mem);
        self.dir
            .as_deref()
            .is_some_and(|d| Self::path_for(d, digest).exists())
    }

    /// Stores `bytes` under `digest` in memory and (when spooling) on
    /// disk. The disk write is atomic: a crash can lose the entry but
    /// never expose a torn one. A persistent disk failure degrades to
    /// memory-only service (flag raised, telemetry counted) — it never
    /// fails the request that computed the bytes.
    pub fn put(&self, digest: u64, bytes: Vec<u8>) {
        let bytes = Arc::new(bytes);
        if let Some(dir) = &self.dir {
            match Self::write_atomic(&self.faults, dir, digest, &bytes) {
                Ok(()) => self.disk_degraded.store(false, Ordering::Relaxed),
                Err(_) => {
                    if !self.disk_degraded.swap(true, Ordering::Relaxed) && ssn_telemetry::enabled()
                    {
                        ssn_telemetry::add(ssn_telemetry::names::STORAGE_DEGRADED, 1);
                    }
                }
            }
        }
        self.mem
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(digest, bytes);
    }

    fn write_atomic(io: &dyn CkptIo, dir: &Path, digest: u64, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = dir.join(format!("res-{digest:016x}.tmp"));
        let finalp = Self::path_for(dir, digest);
        let entry = encode_entry(bytes);
        storage::RetryPolicy::default().run(|| {
            io.write_file(&tmp, &entry)?;
            io.rename(&tmp, &finalp)?;
            io.fsync_dir(dir)
        })
    }

    /// Whether the spool is in declared degraded (memory-only) mode.
    pub fn disk_degraded(&self) -> bool {
        self.disk_degraded.load(Ordering::Relaxed)
    }

    /// `(hits, misses)` counters since start.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Removes `*.tmp` files a crashed writer left behind. Best effort: the
/// spool must still open on a read-only or flaky disk.
fn sweep_orphan_tmps(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            let _ = RealIo.remove_file(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ssn-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn memory_round_trip_and_stats() {
        let c = ResultCache::new(None).unwrap();
        assert!(c.get(1).is_none());
        c.put(1, b"abc".to_vec());
        assert_eq!(c.get(1).unwrap().as_slice(), b"abc");
        assert_eq!(c.stats(), (1, 1));
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(!c.disk_degraded());
    }

    #[test]
    fn disk_spool_survives_a_new_cache_instance() {
        let dir = tmpdir("spool");
        let digest = 0xfeed_f00d_u64;
        {
            let c = ResultCache::new(Some(dir.clone())).unwrap();
            c.put(digest, b"durable-bytes".to_vec());
        }
        // A fresh instance (fresh process, after kill -9) finds the entry.
        let c = ResultCache::new(Some(dir.clone())).unwrap();
        assert!(c.contains(digest));
        assert_eq!(c.get(digest).unwrap().as_slice(), b"durable-bytes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_framing_round_trips_and_rejects_damage() {
        let entry = encode_entry(b"payload");
        assert_eq!(decode_entry(&entry).unwrap(), b"payload");
        assert!(decode_entry(b"short").is_none());
        assert!(decode_entry(&entry[1..]).is_none(), "bad magic");
        let mut flipped = entry.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        assert!(decode_entry(&flipped).is_none(), "payload bit-flip");
        let mut truncated = entry.clone();
        truncated.pop();
        assert!(decode_entry(&truncated).is_none(), "truncation");
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss_and_is_deleted() {
        let dir = tmpdir("bitflip");
        let digest = 0xdead_beef_u64;
        {
            let c = ResultCache::new(Some(dir.clone())).unwrap();
            c.put(digest, b"trusted-result".to_vec());
        }
        // Flip one payload bit on disk behind the cache's back.
        let path = ResultCache::path_for(&dir, digest);
        let mut on_disk = fs::read(&path).unwrap();
        *on_disk.last_mut().unwrap() ^= 0x40;
        fs::write(&path, &on_disk).unwrap();

        let c = ResultCache::new(Some(dir.clone())).unwrap();
        assert!(
            c.get(digest).is_none(),
            "a damaged entry must miss, never serve corrupt bytes"
        );
        assert!(!path.exists(), "the damaged file is purged");
        assert_eq!(c.stats(), (0, 1));
        // The recompute path can now refill and serve normally.
        c.put(digest, b"trusted-result".to_vec());
        assert_eq!(c.get(digest).unwrap().as_slice(), b"trusted-result");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_files_are_swept_on_open() {
        let dir = tmpdir("orphans");
        fs::write(dir.join("res-0000000000000001.tmp"), b"half a write").unwrap();
        let c = ResultCache::new(Some(dir.clone())).unwrap();
        assert!(!dir.join("res-0000000000000001.tmp").exists());
        drop(c);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_write_failure_degrades_to_memory_only_and_recovers() {
        let dir = tmpdir("degrade");
        let c = ResultCache::new(Some(dir.clone()))
            .unwrap()
            .with_faults(Faults::arm(ssn_core::faults::FaultPlan {
                enospc: 1.0,
                ..Default::default()
            }));
        c.put(7, b"computed-anyway".to_vec());
        assert!(c.disk_degraded(), "full disk raises the degraded flag");
        assert_eq!(
            c.get(7).unwrap().as_slice(),
            b"computed-anyway",
            "memory tier still serves the result"
        );
        // Disk recovers: the next write lands and lowers the flag.
        let c = c.with_faults(Faults::none());
        c.put(8, b"later".to_vec());
        assert!(!c.disk_degraded());
        assert!(ResultCache::path_for(&dir, 8).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
