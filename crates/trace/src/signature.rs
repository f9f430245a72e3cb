//! Trace signatures: the few-KB summary the ECM model reads instead of
//! the trace arena. No product path computes them any more; the
//! benchmark's `analytic.*` layer metrics still do.
//!
//! A [`TraceSignature`] condenses one (benchmark, scale) trace into
//! exactly what the ECM time predictor
//! ([`membw_analytic::ecm::predict_time`]) reads — uop and store
//! counts, branch direction flips, the register-dependency critical
//! path, and one log₂-bucketed reuse-distance histogram per block
//! granularity in [`SIGNATURE_BLOCK_SIZES`]. Computing it costs one
//! replay of the recorded trace plus one Mattson stack pass per block
//! size; after that, predictions for any machine spec with those block
//! sizes are pure histogram arithmetic and never touch the arena again.
//!
//! Signatures persist through the PR 4 integrity layer: sealed with an
//! FNV-1a 64 header, written tmp→fsync→rename, keyed by
//! `sig-v2|name|variant`, and verified on load (seal, version, and a
//! name/variant echo against hash collisions). A corrupt file is
//! quarantined to a `.corrupt` generation and recomputed — a damaged
//! signature can cost a recompute, never a wrong prediction.

use crate::record::MemRef;
use crate::reuse::ReuseProfile;
use crate::uop::{OpClass, Uop, NUM_REGS};
use crate::{TraceSink, VecWorkload, Workload};
use membw_analytic::ecm::{BlockReuse, KernelSignature};
use membw_runner::persist;
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Signature format version; part of the persistence key, so a format
/// change simply recomputes rather than misreading old files.
pub const SIGNATURE_VERSION: u32 = 2;

/// Block granularities every signature records, ascending: the L1 and
/// L2 block sizes of the SPEC92 and SPEC95 machine specs (32 B L1
/// through the 128 B experiment-B L2 block).
pub const SIGNATURE_BLOCK_SIZES: [u64; 3] = [32, 64, 128];

/// Environment variable overriding the on-disk signature store
/// directory (default `results/.signatures`).
pub const SIG_DIR_ENV: &str = "MEMBW_SIG_DIR";

/// A persisted kernel signature with its identity echo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSignature {
    /// Format version ([`SIGNATURE_VERSION`]).
    pub version: u32,
    /// Benchmark name (echoed to defeat key-hash collisions).
    pub name: String,
    /// Scale variant (`"Test"`, `"Small"`, `"Full"`).
    pub variant: String,
    /// The model inputs.
    pub kernel: KernelSignature,
}

/// Streaming statistics collected in one pass over the uop trace.
struct MixSink {
    uops: u64,
    stores: u64,
    /// Branches whose outcome differs from the same PC's previous
    /// outcome (the predictor-difficulty proxy the time model charges
    /// a mispredict penalty for).
    dir_flips: u64,
    /// Last observed direction per branch PC.
    last_dir: HashMap<u64, bool>,
    /// Ready cycle of each logical register's latest value.
    reg_depth: [u64; NUM_REGS],
    crit_path: u64,
    refs: Vec<MemRef>,
}

impl MixSink {
    fn new() -> Self {
        MixSink {
            uops: 0,
            stores: 0,
            dir_flips: 0,
            last_dir: HashMap::new(),
            reg_depth: [0; NUM_REGS],
            crit_path: 0,
            refs: Vec::new(),
        }
    }
}

impl TraceSink for MixSink {
    fn uop(&mut self, uop: Uop) {
        self.uops += 1;
        let lat = u64::from(uop.class.latency());
        if uop.class == OpClass::Store {
            self.stores += 1;
        }
        if let Some(b) = uop.branch {
            if let Some(prev) = self.last_dir.insert(b.pc, b.taken) {
                if prev != b.taken {
                    self.dir_flips += 1;
                }
            }
        }
        if let Some(r) = uop.mem {
            self.refs.push(r);
        }
        // Register-dependency critical path with unit memory: a uop is
        // ready when its sources are, and completes `latency` later.
        let ready = uop
            .srcs
            .iter()
            .flatten()
            .map(|&r| self.reg_depth[usize::from(r)])
            .max()
            .unwrap_or(0);
        let done = ready + lat;
        if let Some(d) = uop.dest {
            self.reg_depth[usize::from(d)] = done;
        }
        self.crit_path = self.crit_path.max(done);
    }
}

/// Bucket a [`ReuseProfile`] into the log₂ histogram the predictor
/// consumes: bucket 0 holds distance 0, bucket `k ≥ 1` holds
/// `[2^(k−1), 2^k)`.
fn bucketize(profile: &ReuseProfile) -> Vec<u64> {
    let mut buckets: Vec<u64> = Vec::new();
    for (d, count) in profile.distances() {
        let idx = if d == 0 { 0 } else { d.ilog2() as usize + 1 };
        if buckets.len() <= idx {
            buckets.resize(idx + 1, 0);
        }
        buckets[idx] += count;
    }
    buckets
}

/// Compute the signature of `workload` from scratch (one uop replay +
/// one stack pass per block granularity).
pub fn compute_signature(name: &str, variant: &str, workload: &dyn Workload) -> TraceSignature {
    let mut mix = MixSink::new();
    workload.generate(&mut mix);

    let replay = VecWorkload::new(name, std::mem::take(&mut mix.refs));

    let mut reuse = Vec::with_capacity(SIGNATURE_BLOCK_SIZES.len());
    for &block in &SIGNATURE_BLOCK_SIZES {
        let profile = ReuseProfile::measure(&replay, block);
        let mut dirty = std::collections::HashSet::new();
        for r in replay.refs() {
            if r.kind.is_write() {
                dirty.insert(r.block(block));
            }
        }
        reuse.push(BlockReuse {
            block_size: block,
            accesses: profile.total(),
            cold: profile.cold_misses(),
            dirty_blocks: dirty.len() as u64,
            buckets: bucketize(&profile),
        });
    }

    TraceSignature {
        version: SIGNATURE_VERSION,
        name: name.to_string(),
        variant: variant.to_string(),
        kernel: KernelSignature {
            uops: mix.uops,
            stores: mix.stores,
            crit_path: mix.crit_path,
            dir_flips: mix.dir_flips,
            reuse,
        },
    }
}

fn store_key(name: &str, variant: &str) -> String {
    format!("sig-v{SIGNATURE_VERSION}|{name}|{variant}")
}

/// Sealed on-disk store for computed signatures, one file per
/// (name, variant), durable through the [`membw_runner::persist`]
/// tmp→fsync→rename + FNV-seal path.
pub struct SignatureStore {
    dir: PathBuf,
}

impl SignatureStore {
    /// Open (creating if needed) the store at `dir`, sweeping orphaned
    /// `*.tmp` files and bounding the `*.corrupt` quarantine backlog.
    ///
    /// # Errors
    ///
    /// Fails only if the directory cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        membw_runner::faultio::create_dir_all(dir)?;
        persist::sweep_orphaned_tmp(dir);
        persist::sweep_corrupt_retention(dir, persist::CORRUPT_KEEP_DEFAULT);
        Ok(SignatureStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The file backing `(name, variant)`.
    pub fn path_for(&self, name: &str, variant: &str) -> PathBuf {
        let key = store_key(name, variant);
        self.dir
            .join(format!("{:016x}.sig.json", persist::fnv64(&key)))
    }

    /// The verified signature for `(name, variant)`, if a sealed entry
    /// exists. A file that fails the seal check, does not parse, or
    /// echoes a different identity (version, name, variant) is
    /// quarantined and reported as a miss — the caller recomputes.
    pub fn load(&self, name: &str, variant: &str) -> Option<TraceSignature> {
        let path = self.path_for(name, variant);
        let bytes = std::fs::read(&path).ok()?;
        // Bytes that aren't even UTF-8 are corruption like any other:
        // quarantine them rather than leaving a permanently dead entry.
        let decoded = String::from_utf8(bytes)
            .ok()
            .and_then(|text| Self::decode(&text, name, variant));
        match decoded {
            Some(sig) => Some(sig),
            None => {
                let quarantine = persist::quarantine_path(&path);
                eprintln!(
                    "signature: store entry {} failed verification; quarantined to {}",
                    path.display(),
                    quarantine.display()
                );
                let _ = membw_runner::faultio::rename(&path, &quarantine);
                None
            }
        }
    }

    fn decode(text: &str, name: &str, variant: &str) -> Option<TraceSignature> {
        let body = persist::unseal(text)?;
        let v: Value = serde_json::from_str(body).ok()?;
        let sig = TraceSignature::from_value(&v).ok()?;
        if sig.version != SIGNATURE_VERSION || sig.name != name || sig.variant != variant {
            return None;
        }
        Some(sig)
    }

    /// Durably persist `sig` (tmp→fsync→rename, FNV-sealed),
    /// overwriting any previous entry.
    ///
    /// # Errors
    ///
    /// The failed filesystem step, its path, and the OS error.
    pub fn save(&self, sig: &TraceSignature) -> Result<(), persist::PersistError> {
        let json = serde_json::to_string(&sig.to_value()).expect("value tree serializes");
        let sealed = persist::seal(&json);
        persist::write_atomic(&self.path_for(&sig.name, &sig.variant), sealed.as_bytes())
    }
}

/// Process-wide signature cache: memory → sealed store → compute, with
/// each signature computed at most once per process.
pub struct SignatureCache {
    entries: Mutex<HashMap<(String, String), Arc<TraceSignature>>>,
    store: Option<SignatureStore>,
}

impl SignatureCache {
    /// A cache backed by `store` (`None` = memory only; used by tests
    /// and as the fallback when the store directory cannot be created).
    pub fn with_store(store: Option<SignatureStore>) -> Self {
        SignatureCache {
            entries: Mutex::new(HashMap::new()),
            store,
        }
    }

    /// The shared process-wide cache, backed by `$MEMBW_SIG_DIR`
    /// (default `results/.signatures`).
    pub fn global() -> &'static SignatureCache {
        static GLOBAL: OnceLock<SignatureCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let dir = std::env::var(SIG_DIR_ENV)
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from("results/.signatures"));
            let store = match SignatureStore::open(&dir) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!(
                        "signature: cannot open store at {} ({e}); caching in memory only",
                        dir.display()
                    );
                    None
                }
            };
            SignatureCache::with_store(store)
        })
    }

    /// The signature for `(name, variant)`: from memory, else the
    /// sealed store, else computed from `workload` (and persisted).
    ///
    /// The cache lock is held across a compute so concurrent callers
    /// of the same key never duplicate the stack passes; computes are
    /// bounded (one per (benchmark, scale) per process lifetime).
    pub fn get_or_compute(
        &self,
        name: &str,
        variant: &str,
        workload: &dyn Workload,
    ) -> Arc<TraceSignature> {
        let key = (name.to_string(), variant.to_string());
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(sig) = entries.get(&key) {
            return Arc::clone(sig);
        }
        if let Some(store) = &self.store {
            if let Some(sig) = store.load(name, variant) {
                let sig = Arc::new(sig);
                entries.insert(key, Arc::clone(&sig));
                return sig;
            }
        }
        let sig = Arc::new(compute_signature(name, variant, workload));
        if let Some(store) = &self.store {
            if let Err(e) = store.save(&sig) {
                eprintln!("signature: persisting {name}/{variant} failed: {e:?}");
            }
        }
        entries.insert(key, Arc::clone(&sig));
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Strided;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("membw_sig_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn toy_workload() -> VecWorkload {
        VecWorkload::new(
            "toy",
            vec![
                MemRef::read(0, 4),
                MemRef::write(32, 4),
                MemRef::read(0, 4),
                MemRef::read(64, 4),
                MemRef::write(32, 4),
            ],
        )
    }

    #[test]
    fn signature_counts_mix_and_refs() {
        let sig = compute_signature("toy", "Test", &toy_workload());
        assert_eq!(sig.kernel.uops, 5);
        assert_eq!(sig.kernel.stores, 2);
        let br = sig.kernel.reuse_at(32).unwrap();
        assert_eq!(br.accesses, 5);
        assert_eq!(br.cold, 3);
        assert_eq!(br.dirty_blocks, 1);
        assert_eq!(sig.kernel.reuse.len(), SIGNATURE_BLOCK_SIZES.len());
    }

    #[test]
    fn bucketed_misses_agree_with_exact_profile_at_powers_of_two() {
        let w = Strided::reads(0, 4, 4096).repeat(3);
        let sig = compute_signature("strided", "Test", &w);
        for &block in &SIGNATURE_BLOCK_SIZES {
            let profile = ReuseProfile::measure(&w, block);
            let br = sig.kernel.reuse_at(block).unwrap();
            for m in 0..=20u32 {
                let cap = 1u64 << m;
                assert_eq!(
                    br.lru_misses(cap),
                    profile.lru_misses(cap),
                    "block {block} capacity {cap}"
                );
            }
        }
    }

    #[test]
    fn signature_is_deterministic() {
        let w = toy_workload();
        assert_eq!(
            compute_signature("toy", "Test", &w),
            compute_signature("toy", "Test", &w)
        );
    }

    #[test]
    fn store_round_trips_and_rejects_identity_mismatch() {
        let dir = tmpdir("rt");
        let store = SignatureStore::open(&dir).unwrap();
        let sig = compute_signature("toy", "Test", &toy_workload());
        assert!(store.load("toy", "Test").is_none());
        store.save(&sig).unwrap();
        assert_eq!(store.load("toy", "Test").as_ref(), Some(&sig));
        // A sealed entry for a different key must never be served.
        std::fs::rename(
            store.path_for("toy", "Test"),
            store.path_for("other", "Test"),
        )
        .unwrap();
        assert!(store.load("other", "Test").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_entries_are_quarantined_and_recomputed() {
        let dir = tmpdir("corrupt");
        let store = SignatureStore::open(&dir).unwrap();
        let sig = compute_signature("toy", "Test", &toy_workload());
        store.save(&sig).unwrap();
        let path = store.path_for("toy", "Test");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load("toy", "Test").is_none(), "corrupt entry misses");
        assert!(!path.exists(), "entry was quarantined away");
        // The cache recomputes an identical signature and re-persists.
        let cache = SignatureCache::with_store(Some(SignatureStore::open(&dir).unwrap()));
        let recomputed = cache.get_or_compute("toy", "Test", &toy_workload());
        assert_eq!(*recomputed, sig);
        assert_eq!(store.load("toy", "Test").as_ref(), Some(&sig));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_computes_once_and_reloads_across_instances() {
        let dir = tmpdir("cache");
        let cache = SignatureCache::with_store(Some(SignatureStore::open(&dir).unwrap()));
        let a = cache.get_or_compute("toy", "Test", &toy_workload());
        let b = cache.get_or_compute("toy", "Test", &toy_workload());
        assert!(Arc::ptr_eq(&a, &b), "second hit comes from memory");
        // A fresh cache (process restart) loads from the sealed store.
        let fresh = SignatureCache::with_store(Some(SignatureStore::open(&dir).unwrap()));
        let c = fresh.get_or_compute("toy", "Test", &toy_workload());
        assert_eq!(*c, *a);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
