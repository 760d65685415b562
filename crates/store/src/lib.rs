//! The benchmark's BENCH artifact round trip: a content-addressed
//! store and the two digests that address it.
//!
//! perfbench's `ledger` workload files each fresh artifact with
//! [`Store::put`], finds it again under its configuration's
//! [`manifest_key`] with [`Store::history`], and reads the bytes back
//! with [`Store::read`]. The `fua` binary keeps no store: its one
//! regression gate is `fua report --baseline`. Two hashes address an
//! artifact:
//!
//! - the **manifest key** ([`manifest_key`]): a 128-bit FNV-1a/SplitMix
//!   digest of everything in the [`RunManifest`] that determines the
//!   numbers (machine config, workloads, seeds, scale, instruction
//!   limit — everything except the tag) plus the artifact schema
//!   version. Two runs of the same configuration collide to one key on
//!   purpose; that key's entries, in insertion order, are the
//!   configuration's history.
//! - the **content key** ([`content_key`]): the same digest over the
//!   artifact's raw bytes. Objects are stored once per distinct content
//!   and verified against this hash on every read. The golden tests and
//!   perfbench's model digest hash with it too.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/
//!   index.json            append-only ledger: seq -> (key, content, tag)
//!   objects/<content>.json  one file per distinct artifact content
//!   tmp/                  staging area for atomic writes
//! ```
//!
//! **Atomicity.** Every file lands via write-to-`tmp/` + `rename` onto
//! its final path — atomic on POSIX filesystems — and objects are
//! written *before* the index entry that references them. A crash at
//! any point therefore leaves either the old index or the new one, and
//! whichever survives only ever references objects that are fully on
//! disk; the worst case is an orphaned object or staging file. The
//! store has a single writer: concurrent writers could lose an index
//! append to the rewrite-and-rename race.
//!
//! Dependency-free on purpose: hashing is in-tree FNV-1a with a
//! SplitMix64 finalisher (the same mixer `fua-workloads` seeds data
//! with), JSON comes from [`fua_trace::Json`], and the filesystem is
//! `std::fs`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fua_report::{BenchReport, ReportError, RunManifest, BENCH_SCHEMA};
use fua_trace::{Json, ToJson};

/// The index file's schema identifier; bump on any breaking change.
const STORE_SCHEMA: &str = "fua-store/1";

// --------------------------------------------------------------------
// Hashing: FNV-1a accumulation, SplitMix64 finalisation.
// --------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The golden-ratio constant SplitMix64 advances by; reused here to
/// decorrelate the second hash lane from the first.
const LANE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output mixer: a bijective avalanche over one word.
fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two independent FNV-1a lanes over the same byte stream.
struct Hasher {
    lanes: [u64; 2],
}

impl Hasher {
    fn new() -> Self {
        Hasher {
            lanes: [FNV_OFFSET, FNV_OFFSET ^ LANE_SALT],
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            for lane in &mut self.lanes {
                *lane = (*lane ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
    }

    /// A length-prefixed string: unambiguous against field concatenation.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> StoreKey {
        StoreKey([splitmix_mix(self.lanes[0]), splitmix_mix(self.lanes[1])])
    }
}

/// A 128-bit store address, rendered as 32 lowercase hex characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StoreKey(pub [u64; 2]);

impl StoreKey {
    /// The 32-character hex spelling (the on-disk form).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// The manifest key of one run configuration under one artifact schema:
/// everything in the manifest that determines the numbers — scale,
/// instruction limit, the full machine config, and every workload with
/// its seed — plus the schema version. The tag is deliberately
/// excluded, so re-tagged runs of the same configuration share a key
/// and form one history.
pub fn manifest_key(manifest: &RunManifest, schema: &str) -> StoreKey {
    let mut h = Hasher::new();
    h.str(schema);
    h.u64(u64::from(manifest.scale));
    h.u64(manifest.inst_limit);
    let m = &manifest.machine;
    h.u64(m.fetch_width as u64);
    h.u64(m.commit_width as u64);
    h.u64(m.rob_size as u64);
    h.u64(m.rs_entries as u64);
    for &c in &m.fu_counts {
        h.u64(c as u64);
    }
    h.u64(m.mem_ports as u64);
    h.u64(u64::from(m.cache.size_bytes));
    h.u64(u64::from(m.cache.line_bytes));
    h.u64(m.cache.hit_latency);
    h.u64(m.cache.miss_latency);
    h.u64(m.mispredict_penalty);
    h.u64(manifest.workloads.len() as u64);
    for w in &manifest.workloads {
        h.str(&w.name);
        h.str(&w.category);
        h.u64(w.seed);
    }
    h.finish()
}

/// The content key of an artifact: the digest of its raw bytes.
pub fn content_key(bytes: &[u8]) -> StoreKey {
    let mut h = Hasher::new();
    h.u64(bytes.len() as u64);
    h.bytes(bytes);
    h.finish()
}

// --------------------------------------------------------------------
// Errors.
// --------------------------------------------------------------------

/// An error talking to the store.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed; the path is named.
    Io {
        /// The file or directory the operation targeted.
        path: PathBuf,
        /// The underlying error, rendered.
        message: String,
    },
    /// An artifact failed to parse as a BENCH report.
    Artifact {
        /// Where the bytes came from (a put source or a stored object).
        path: PathBuf,
        /// The decode error.
        error: ReportError,
    },
    /// The index file is malformed.
    Index {
        /// The index path.
        path: PathBuf,
        /// What was wrong.
        message: String,
    },
    /// A stored object's bytes no longer match its content hash.
    Corrupt {
        /// The object path.
        path: PathBuf,
        /// The hash the index expects.
        expected: String,
        /// The hash the bytes produce.
        found: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            StoreError::Artifact { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            StoreError::Index { path, message } => {
                write!(f, "{}: malformed store index: {message}", path.display())
            }
            StoreError::Corrupt {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: stored artifact is corrupt (content hash {found}, index expects {expected})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

// --------------------------------------------------------------------
// Index.
// --------------------------------------------------------------------

/// One row of the append-only index: a single stored run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Monotonically increasing insertion number (1-based): the order
    /// of a configuration's history.
    pub seq: u64,
    /// Manifest key (hex) — the configuration this run measured.
    pub key: String,
    /// Content key (hex) — which object file holds the bytes.
    pub content: String,
    /// The artifact's tag, for humans.
    pub tag: String,
    /// The artifact's BENCH schema version.
    pub bench_schema: String,
    /// Size of the stored artifact, in bytes.
    pub bytes: u64,
}

impl ToJson for IndexEntry {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::UInt(self.seq)),
            ("key", Json::Str(self.key.clone())),
            ("content", Json::Str(self.content.clone())),
            ("tag", Json::Str(self.tag.clone())),
            ("bench_schema", Json::Str(self.bench_schema.clone())),
            ("bytes", Json::UInt(self.bytes)),
        ])
    }
}

fn entry_from_json(e: &Json, path: &Path) -> Result<IndexEntry, StoreError> {
    let field = |name: &str| -> Result<&Json, StoreError> {
        e.get(name).ok_or_else(|| StoreError::Index {
            path: path.to_path_buf(),
            message: format!("entry is missing `{name}`"),
        })
    };
    let str_field = |name: &str| -> Result<String, StoreError> {
        field(name)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| StoreError::Index {
                path: path.to_path_buf(),
                message: format!("entry field `{name}` is not a string"),
            })
    };
    let u64_field = |name: &str| -> Result<u64, StoreError> {
        field(name)?.as_u64().ok_or_else(|| StoreError::Index {
            path: path.to_path_buf(),
            message: format!("entry field `{name}` is not an unsigned integer"),
        })
    };
    // Keys name object files and are sliced for display, so only the
    // exact shape `StoreKey::hex` writes is accepted.
    let key_field = |name: &str| -> Result<String, StoreError> {
        let value = str_field(name)?;
        if value.len() == 32
            && value
                .bytes()
                .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        {
            Ok(value)
        } else {
            Err(StoreError::Index {
                path: path.to_path_buf(),
                message: format!("entry field `{name}` is not 32 lowercase hex digits: `{value}`"),
            })
        }
    };
    Ok(IndexEntry {
        seq: u64_field("seq")?,
        key: key_field("key")?,
        content: key_field("content")?,
        tag: str_field("tag")?,
        bench_schema: str_field("bench_schema")?,
        bytes: u64_field("bytes")?,
    })
}

/// The receipt [`Store::put`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutReceipt {
    /// The index row the artifact was filed under.
    pub entry: IndexEntry,
}

// --------------------------------------------------------------------
// The store proper.
// --------------------------------------------------------------------

/// Unique-enough staging-file counter; combined with the process id so
/// two processes staging concurrently cannot collide.
static STAGING: AtomicU64 = AtomicU64::new(0);

/// A handle on one on-disk store.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory tree cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        for dir in [root.clone(), root.join("objects"), root.join("tmp")] {
            fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        Ok(Store { root })
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index.json")
    }

    fn object_path(&self, content: &str) -> PathBuf {
        self.root.join("objects").join(format!("{content}.json"))
    }

    /// Writes `bytes` to `target` atomically: stage in `tmp/`, then
    /// rename onto the final path.
    fn write_atomic(&self, target: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let stage = self.root.join("tmp").join(format!(
            "stage-{}-{}",
            std::process::id(),
            STAGING.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&stage, bytes).map_err(|e| io_err(&stage, e))?;
        fs::rename(&stage, target).map_err(|e| io_err(target, e))
    }

    /// Every index entry, in insertion (seq) order. An absent index
    /// file is an empty store, not an error.
    fn entries(&self) -> Result<Vec<IndexEntry>, StoreError> {
        let path = self.index_path();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&path, e)),
        };
        let json = Json::parse(&text).map_err(|e| StoreError::Index {
            path: path.clone(),
            message: e.to_string(),
        })?;
        let schema = json.get("schema").and_then(Json::as_str);
        if schema != Some(STORE_SCHEMA) {
            return Err(StoreError::Index {
                path,
                message: format!(
                    "schema `{}` (this build reads `{STORE_SCHEMA}`)",
                    schema.unwrap_or("<missing>")
                ),
            });
        }
        json.get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| StoreError::Index {
                path: path.clone(),
                message: "missing `entries` array".to_string(),
            })?
            .iter()
            .map(|e| entry_from_json(e, &path))
            .collect()
    }

    fn write_index(&self, entries: &[IndexEntry]) -> Result<(), StoreError> {
        let json = Json::obj([
            ("schema", Json::Str(STORE_SCHEMA.to_string())),
            (
                "entries",
                Json::Arr(entries.iter().map(ToJson::to_json).collect()),
            ),
        ]);
        let mut text = json.pretty();
        text.push('\n');
        self.write_atomic(&self.index_path(), text.as_bytes())
    }

    /// Files one artifact: validates it as a BENCH report, stores its
    /// bytes content-addressed (once per distinct content), and appends
    /// an index entry under its manifest key. `source` names where the
    /// bytes came from, for error messages.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Artifact`] if the text is not a readable
    /// BENCH artifact, or [`StoreError::Io`]/[`StoreError::Index`] on
    /// filesystem trouble.
    pub fn put(&self, text: &str, source: &Path) -> Result<PutReceipt, StoreError> {
        let report: BenchReport = text.parse().map_err(|error| StoreError::Artifact {
            path: source.to_path_buf(),
            error,
        })?;
        // Parsing accepts only BENCH_SCHEMA; it still goes into the key
        // so a future schema starts a history of its own.
        let key = manifest_key(&report.manifest, BENCH_SCHEMA);
        let content = content_key(text.as_bytes());

        // Object before index: the index must never reference bytes
        // that are not fully on disk.
        let object = self.object_path(&content.hex());
        if !object.exists() {
            self.write_atomic(&object, text.as_bytes())?;
        }

        let mut entries = self.entries()?;
        let seq = entries.last().map_or(1, |e| e.seq + 1);
        let entry = IndexEntry {
            seq,
            key: key.hex(),
            content: content.hex(),
            tag: report.manifest.tag.clone(),
            bench_schema: BENCH_SCHEMA.to_string(),
            bytes: text.len() as u64,
        };
        entries.push(entry.clone());
        self.write_index(&entries)?;
        Ok(PutReceipt { entry })
    }

    /// Every entry under one manifest key, oldest first — the
    /// configuration's longitudinal history.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Index`] on a malformed index file, or
    /// [`StoreError::Io`] if it cannot be read.
    pub fn history(&self, key: &StoreKey) -> Result<Vec<IndexEntry>, StoreError> {
        let hex = key.hex();
        Ok(self
            .entries()?
            .into_iter()
            .filter(|e| e.key == hex)
            .collect())
    }

    /// Reads one stored artifact back, verifying its content hash.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] if the bytes no longer match the
    /// index's content hash, or [`StoreError::Io`] if the object is
    /// missing or unreadable.
    pub fn read(&self, entry: &IndexEntry) -> Result<String, StoreError> {
        let path = self.object_path(&entry.content);
        let text = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        let found = content_key(text.as_bytes()).hex();
        if found != entry.content {
            return Err(StoreError::Corrupt {
                path,
                expected: entry.content.clone(),
                found,
            });
        }
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_report::WorkloadEntry;

    fn test_manifest() -> RunManifest {
        // Hand-built rather than simulated: key derivation must not
        // depend on running anything.
        RunManifest {
            tag: "t".into(),
            scale: 1,
            inst_limit: 25_000,
            machine: fua_report_test_machine(),
            workloads: vec![
                WorkloadEntry {
                    name: "compress".into(),
                    category: "integer".into(),
                    seed: 11,
                },
                WorkloadEntry {
                    name: "swim".into(),
                    category: "floating-point".into(),
                    seed: 22,
                },
            ],
        }
    }

    fn fua_report_test_machine() -> fua_sim::MachineConfig {
        fua_sim::MachineConfig::paper_default()
    }

    #[test]
    fn identical_manifests_collide_and_tags_do_not_split_keys() {
        let a = test_manifest();
        let mut b = a.clone();
        b.tag = "completely-different".into();
        assert_eq!(manifest_key(&a, "s"), manifest_key(&b, "s"));
    }

    #[test]
    fn every_manifest_field_feeds_the_key() {
        let base = test_manifest();
        let k0 = manifest_key(&base, "fua-bench/1.5");
        let mut variants: Vec<RunManifest> = Vec::new();
        {
            let mut m = base.clone();
            m.scale = 2;
            variants.push(m);
        }
        {
            let mut m = base.clone();
            m.inst_limit += 1;
            variants.push(m);
        }
        {
            let mut m = base.clone();
            m.machine.fetch_width += 1;
            variants.push(m);
        }
        {
            let mut m = base.clone();
            m.machine.fu_counts[2] += 1;
            variants.push(m);
        }
        {
            let mut m = base.clone();
            m.machine.cache.miss_latency += 1;
            variants.push(m);
        }
        {
            let mut m = base.clone();
            m.workloads[0].seed ^= 1;
            variants.push(m);
        }
        {
            let mut m = base.clone();
            m.workloads[1].name.push('x');
            variants.push(m);
        }
        {
            let mut m = base.clone();
            m.workloads.pop();
            variants.push(m);
        }
        let mut keys = vec![k0];
        for v in &variants {
            keys.push(manifest_key(v, "fua-bench/1.5"));
        }
        // The schema feeds the key too.
        keys.push(manifest_key(&base, "fua-bench/1.4"));
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            keys.len(),
            "single-field changes must split keys"
        );
    }

    #[test]
    fn string_fields_hash_unambiguously() {
        // "ab" + "c" vs "a" + "bc": length prefixes keep them apart.
        let mut a = test_manifest();
        a.workloads[0].name = "ab".into();
        a.workloads[0].category = "c".into();
        let mut b = test_manifest();
        b.workloads[0].name = "a".into();
        b.workloads[0].category = "bc".into();
        assert_ne!(manifest_key(&a, "s"), manifest_key(&b, "s"));
    }

    #[test]
    fn content_key_is_stable_and_length_sensitive() {
        assert_eq!(content_key(b"abc"), content_key(b"abc"));
        assert_ne!(content_key(b"abc"), content_key(b"abd"));
        assert_ne!(content_key(b""), content_key(b"\0"));
        assert_eq!(content_key(b"x").hex().len(), 32);
    }

    #[test]
    fn key_renders_as_32_hex_chars() {
        let k = manifest_key(&test_manifest(), "s");
        let hex = k.hex();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }

    /// A fresh store under the system temp dir, removed on drop.
    struct TempStore {
        dir: PathBuf,
        store: Store,
    }

    impl TempStore {
        fn new(label: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "fua-store-{label}-{}-{}",
                std::process::id(),
                STAGING.fetch_add(1, Ordering::Relaxed)
            ));
            let store = Store::open(&dir).unwrap();
            TempStore { dir, store }
        }

        fn objects(&self) -> usize {
            fs::read_dir(self.dir.join("objects")).unwrap().count()
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }

    /// The committed seed artifact: a real BENCH file, no simulation.
    fn seed_artifact() -> String {
        fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_seed.json"
        ))
        .expect("committed seed artifact")
    }

    fn key_of(text: &str) -> StoreKey {
        let report: BenchReport = text.parse().unwrap();
        manifest_key(&report.manifest, BENCH_SCHEMA)
    }

    #[test]
    fn an_absent_index_is_an_empty_store() {
        let tmp = TempStore::new("empty");
        assert!(!tmp.dir.join("index.json").exists());
        assert!(tmp.store.entries().unwrap().is_empty());
        let key = key_of(&seed_artifact());
        assert!(tmp.store.history(&key).unwrap().is_empty());
    }

    #[test]
    fn put_then_history_then_read_returns_the_bytes_unchanged() {
        let tmp = TempStore::new("roundtrip");
        let text = seed_artifact();
        let receipt = tmp.store.put(&text, Path::new("seed")).unwrap();
        assert_eq!(receipt.entry.seq, 1);
        assert_eq!(receipt.entry.tag, "seed");
        assert_eq!(receipt.entry.bench_schema, BENCH_SCHEMA);
        assert_eq!(receipt.entry.bytes, text.len() as u64);

        let history = tmp.store.history(&key_of(&text)).unwrap();
        assert_eq!(history, vec![receipt.entry.clone()]);
        assert_eq!(tmp.store.read(&history[0]).unwrap(), text);
    }

    #[test]
    fn identical_bytes_are_stored_once() {
        let tmp = TempStore::new("dedup");
        let text = seed_artifact();
        let first = tmp.store.put(&text, Path::new("a")).unwrap().entry;
        let second = tmp.store.put(&text, Path::new("b")).unwrap().entry;
        // Two history entries, one object file.
        assert_eq!((first.seq, second.seq), (1, 2));
        assert_eq!(first.content, second.content);
        assert_eq!(tmp.objects(), 1);
        let history = tmp.store.history(&key_of(&text)).unwrap();
        assert_eq!(history, vec![first, second.clone()]);
        assert_eq!(tmp.store.read(&second).unwrap(), text);
    }

    #[test]
    fn a_limit_change_starts_a_new_history() {
        let tmp = TempStore::new("keysplit");
        let text = seed_artifact();
        let changed = text.replacen("\"inst_limit\": 25000,", "\"inst_limit\": 25001,", 1);
        assert_ne!(changed, text, "the seed records its limit");
        tmp.store.put(&text, Path::new("a")).unwrap();
        tmp.store.put(&changed, Path::new("b")).unwrap();

        let (old, new) = (key_of(&text), key_of(&changed));
        assert_ne!(old, new);
        let old_history = tmp.store.history(&old).unwrap();
        let new_history = tmp.store.history(&new).unwrap();
        assert_eq!(old_history.len(), 1);
        assert_eq!(new_history.len(), 1);
        assert_eq!(tmp.store.read(&old_history[0]).unwrap(), text);
        assert_eq!(tmp.store.read(&new_history[0]).unwrap(), changed);
        assert_eq!(tmp.objects(), 2);
    }

    #[test]
    fn a_malformed_index_is_reported_with_its_path() {
        let tmp = TempStore::new("badindex");
        let (dir, store) = (&tmp.dir, &tmp.store);
        fs::write(dir.join("index.json"), "{\"schema\": \"nope\"}").unwrap();
        let err = store.entries().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("index.json"), "{msg}");
        assert!(msg.contains(STORE_SCHEMA), "{msg}");

        // Keys that are not the 32-hex-digit form the store writes.
        let hex = "0123456789abcdef0123456789abcdef";
        for (key, content, field) in [("abc", hex, "key"), (hex, &"g".repeat(32)[..], "content")] {
            let index = format!(
                "{{\"schema\": \"{STORE_SCHEMA}\", \"entries\": [{{\"seq\": 1, \
                 \"key\": \"{key}\", \"content\": \"{content}\", \"tag\": \"t\", \
                 \"bench_schema\": \"fua-bench/1.8\", \"bytes\": 1}}]}}"
            );
            fs::write(dir.join("index.json"), index).unwrap();
            let msg = store.entries().unwrap_err().to_string();
            assert!(msg.contains("index.json"), "{msg}");
            assert!(msg.contains(&format!("`{field}`")), "{msg}");
        }
    }
}
