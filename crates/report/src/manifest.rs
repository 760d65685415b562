//! Run manifests: the exact configuration a BENCH artifact was measured
//! under.
//!
//! A number without its configuration is unusable for comparison — a
//! 17% reduction at scale 1 / 25 k instructions is a different
//! measurement from one at scale 4 / 150 k. The manifest pins everything
//! that determines the numbers: experiment knobs, the full machine
//! configuration, and the deterministic data seed of every workload.
//! Baseline comparison refuses to diff artifacts whose manifests
//! disagree (other than the tag).

use fua_sim::{CacheConfig, MachineConfig};
use fua_trace::{Json, ToJson};
use fua_workloads::{all, seed_of};

use fua_core::ExperimentConfig;

use crate::{array, expect_str, expect_u32, expect_u64, fixed, section, ReportError};

/// One workload row of the manifest: name, suite half, and the exact
/// data-generation seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadEntry {
    /// Benchmark name (the SPEC95 program it stands in for).
    pub name: String,
    /// "integer" or "floating-point".
    pub category: String,
    /// The SplitMix64 seed its data was generated from.
    pub seed: u64,
}

/// The full provenance of one `BENCH_<tag>.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The artifact tag (`fua bench-suite --tag T`).
    pub tag: String,
    /// Workload scale factor.
    pub scale: u32,
    /// Per-run retired-instruction cap.
    pub inst_limit: u64,
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Every workload in the suite, with its seed.
    pub workloads: Vec<WorkloadEntry>,
}

impl RunManifest {
    /// Captures the manifest of `config` under `tag`.
    pub fn capture(tag: &str, config: &ExperimentConfig) -> Self {
        RunManifest {
            tag: tag.to_string(),
            scale: config.scale,
            inst_limit: config.inst_limit,
            machine: config.machine.clone(),
            workloads: all(config.scale)
                .iter()
                .map(|w| WorkloadEntry {
                    name: w.name.to_string(),
                    category: w.category.to_string(),
                    seed: seed_of(w.name, 0),
                })
                .collect(),
        }
    }

    /// Whether two manifests describe the same measurement (everything
    /// but the tag must match for a baseline diff to be meaningful).
    pub fn comparable_with(&self, other: &RunManifest) -> bool {
        self.scale == other.scale
            && self.inst_limit == other.inst_limit
            && self.machine == other.machine
            && self.workloads == other.workloads
    }

    /// Reconstructs a manifest from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a [`ReportError`] naming the path, from the manifest's
    /// root, of the first missing or mistyped field. A value too large
    /// for its field (`scale`, the cache geometry) is mistyped, never
    /// truncated.
    pub fn from_json(json: &Json) -> Result<Self, ReportError> {
        Ok(RunManifest {
            tag: expect_str(json, "tag")?.to_string(),
            scale: expect_u32(json, "scale")?,
            inst_limit: expect_u64(json, "inst_limit")?,
            machine: section(json, "machine", |m| {
                Ok(MachineConfig {
                    fetch_width: expect_u64(m, "fetch_width")? as usize,
                    commit_width: expect_u64(m, "commit_width")? as usize,
                    rob_size: expect_u64(m, "rob_size")? as usize,
                    rs_entries: expect_u64(m, "rs_entries")? as usize,
                    fu_counts: fixed(m, "fu_counts", |v| v.as_u64().map(|u| u as usize))?,
                    mem_ports: expect_u64(m, "mem_ports")? as usize,
                    cache: section(m, "cache", |c| {
                        Ok(CacheConfig {
                            size_bytes: expect_u32(c, "size_bytes")?,
                            line_bytes: expect_u32(c, "line_bytes")?,
                            hit_latency: expect_u64(c, "hit_latency")?,
                            miss_latency: expect_u64(c, "miss_latency")?,
                        })
                    })?,
                    mispredict_penalty: expect_u64(m, "mispredict_penalty")?,
                })
            })?,
            workloads: array(json, "workloads", |w| {
                Ok(WorkloadEntry {
                    name: expect_str(w, "name")?.to_string(),
                    category: expect_str(w, "category")?.to_string(),
                    seed: expect_u64(w, "seed")?,
                })
            })?,
        })
    }
}

impl ToJson for RunManifest {
    fn to_json(&self) -> Json {
        let m = &self.machine;
        Json::obj([
            ("tag", Json::Str(self.tag.clone())),
            ("scale", Json::UInt(self.scale.into())),
            ("inst_limit", Json::UInt(self.inst_limit)),
            (
                "machine",
                Json::obj([
                    ("fetch_width", Json::UInt(m.fetch_width as u64)),
                    ("commit_width", Json::UInt(m.commit_width as u64)),
                    ("rob_size", Json::UInt(m.rob_size as u64)),
                    ("rs_entries", Json::UInt(m.rs_entries as u64)),
                    (
                        "fu_counts",
                        Json::Arr(m.fu_counts.iter().map(|&c| Json::UInt(c as u64)).collect()),
                    ),
                    ("mem_ports", Json::UInt(m.mem_ports as u64)),
                    (
                        "cache",
                        Json::obj([
                            ("size_bytes", Json::UInt(m.cache.size_bytes.into())),
                            ("line_bytes", Json::UInt(m.cache.line_bytes.into())),
                            ("hit_latency", Json::UInt(m.cache.hit_latency)),
                            ("miss_latency", Json::UInt(m.cache.miss_latency)),
                        ]),
                    ),
                    ("mispredict_penalty", Json::UInt(m.mispredict_penalty)),
                ]),
            ),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("name", Json::Str(w.name.clone())),
                                ("category", Json::Str(w.category.clone())),
                                ("seed", Json::UInt(w.seed)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_lists_all_fifteen_workloads_with_seeds() {
        let m = RunManifest::capture("t", &ExperimentConfig::quick());
        assert_eq!(m.workloads.len(), 15);
        assert!(m.workloads.iter().any(|w| w.name == "compress"));
        // Seeds are name-derived, deterministic and distinct.
        let mut seeds: Vec<u64> = m.workloads.iter().map(|w| w.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 15, "per-workload seeds must be distinct");
        assert_eq!(m.workloads[0].seed, seed_of(&m.workloads[0].name, 0));
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = RunManifest::capture("roundtrip", &ExperimentConfig::quick());
        let rendered = m.to_json().pretty();
        let parsed = RunManifest::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, m);
        assert!(parsed.comparable_with(&m));
    }

    #[test]
    fn different_configs_are_not_comparable() {
        let quick = RunManifest::capture("a", &ExperimentConfig::quick());
        let full = RunManifest::capture("b", &ExperimentConfig::full());
        assert!(!quick.comparable_with(&full));
        // The tag alone does not break comparability.
        let retag = RunManifest {
            tag: "c".into(),
            ..quick.clone()
        };
        assert!(quick.comparable_with(&retag));
    }

    #[test]
    fn malformed_manifest_errors_name_the_field() {
        let m = RunManifest::capture("x", &ExperimentConfig::quick());
        let mut json = m.to_json();
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "inst_limit");
        }
        let err = RunManifest::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("inst_limit"), "{err}");

        // Values past u32 are rejected, not wrapped onto a valid
        // configuration (2^32 + 1 would otherwise read as scale 1).
        for (path, value) in [
            ("scale", (1u64 << 32) + 1),
            ("machine.cache.size_bytes", (1u64 << 32) + 16384),
        ] {
            let mut json = m.to_json();
            let leaf = path.split('.').fold(&mut json, |j, key| match j {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                _ => unreachable!(),
            });
            *leaf = Json::UInt(value);
            assert_eq!(
                RunManifest::from_json(&json),
                Err(ReportError::MistypedField(path.to_string()))
            );
        }
    }
}
