//! Experiment ledger: run manifests, BENCH artifacts, and
//! regression-gated baseline comparison.
//!
//! The model crates compute numbers; this crate makes them *durable and
//! comparable*. Three layers:
//!
//! 1. [`RunManifest`] — the exact configuration a measurement was taken
//!    under: experiment knobs, the full machine description, and each
//!    workload's deterministic data seed. Two artifacts are only diffed
//!    when their manifests agree (tag aside).
//! 2. [`BenchReport`] / [`bench_suite_jobs`] — one suite run captured as a
//!    schema-stable JSON artifact (`BENCH_<tag>.json`): the Figure-4
//!    scheme sweeps, headline reductions, Table-1/2 aggregates,
//!    per-phase wall-clock of the simulator hot loop, and a windowed
//!    telemetry summary whose exactness against the energy ledger is
//!    verified at capture time.
//! 3. [`compare`] / [`Comparison`] — a tolerance-banded diff of two
//!    artifacts that flags metric drift, scheme-ordering inversions,
//!    and phase-timer slowdowns. `fua report --baseline` turns the
//!    verdict into an exit code for CI gating. [`trends`] bands the
//!    same metrics over a stored history; both gates read one metric
//!    catalogue and one band rule ([`BandKind`]).
//!
//! Everything is dependency-free: JSON parsing and emission come from
//! the in-tree [`fua_trace`] value type.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bench;
mod compare;
mod gate;
mod manifest;
mod trends;

pub use bench::{
    bench_suite_jobs, AttributionSummary, BenchReport, EstimatorEntry, EstimatorSummary,
    HarnessSummary, HotspotEntry, OperandAggregates, ParallelSummary, PhaseNanos, StallSummary,
    TelemetrySummary, ThroughputSummary, UnitFigure, WorkerNanos, ATTRIBUTION_HOTSPOTS,
    BENCH_SCHEMA, DEFAULT_WINDOW_CYCLES,
};
pub use compare::{compare, Comparison, Finding, Severity, Tolerance};
pub use gate::BandKind;
pub use manifest::{RunManifest, WorkloadEntry};
pub use trends::{
    sparkline, trends, TrendError, TrendReport, TrendSeries, TRENDS_SCHEMA, TREND_WINDOW,
};

use fua_trace::{Json, JsonParseError};
use std::fmt;

/// An error loading or decoding a BENCH artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The raw text was not valid JSON.
    Parse(JsonParseError),
    /// A required field was absent; names its path from the root.
    MissingField(String),
    /// A field was present with the wrong type or shape; names its path
    /// from the root.
    MistypedField(String),
    /// The artifact declared a schema other than [`BENCH_SCHEMA`].
    Schema {
        /// What the artifact declared.
        found: String,
        /// The one schema this build reads.
        expected: &'static str,
    },
}

impl ReportError {
    pub(crate) fn missing(field: &str) -> Self {
        ReportError::MissingField(field.to_string())
    }

    pub(crate) fn mistyped(field: &str) -> Self {
        ReportError::MistypedField(field.to_string())
    }

    /// Prefixes a field error's path with the object it was read from.
    pub(crate) fn within(self, parent: &str) -> Self {
        match self {
            ReportError::MissingField(f) => ReportError::MissingField(format!("{parent}.{f}")),
            ReportError::MistypedField(f) => ReportError::MistypedField(format!("{parent}.{f}")),
            other => other,
        }
    }
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Parse(e) => write!(f, "malformed JSON: {e}"),
            ReportError::MissingField(field) => write!(f, "missing field `{field}`"),
            ReportError::MistypedField(field) => {
                write!(f, "field `{field}` has the wrong type or shape")
            }
            ReportError::Schema { found, expected } => {
                write!(f, "unknown schema: {found}\naccepted schema: {expected}")
            }
        }
    }
}

impl std::error::Error for ReportError {}

/// Parses the required object `field` of `json` with `parse`, naming
/// any field error inside it by its path through `field`.
pub(crate) fn section<T>(
    json: &Json,
    field: &str,
    parse: impl FnOnce(&Json) -> Result<T, ReportError>,
) -> Result<T, ReportError> {
    parse(json.get(field).ok_or_else(|| ReportError::missing(field))?).map_err(|e| e.within(field))
}

/// Parses every element of the required array `field` of `json` with
/// `parse`, naming any field error by its path through `field[i]`.
pub(crate) fn array<T>(
    json: &Json,
    field: &str,
    mut parse: impl FnMut(&Json) -> Result<T, ReportError>,
) -> Result<Vec<T>, ReportError> {
    json.get(field)
        .ok_or_else(|| ReportError::missing(field))?
        .as_arr()
        .ok_or_else(|| ReportError::mistyped(field))?
        .iter()
        .enumerate()
        .map(|(i, v)| parse(v).map_err(|e| e.within(&format!("{field}[{i}]"))))
        .collect()
}

/// Fetches the required array of numbers `field`, each read by `get`.
pub(crate) fn numbers<T>(
    json: &Json,
    field: &str,
    get: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, ReportError> {
    json.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| ReportError::missing(field))?
        .iter()
        .map(|v| get(v).ok_or_else(|| ReportError::mistyped(field)))
        .collect()
}

/// As [`numbers`], for an array of exactly `N` entries.
pub(crate) fn fixed<T, const N: usize>(
    json: &Json,
    field: &str,
    get: impl Fn(&Json) -> Option<T>,
) -> Result<[T; N], ReportError> {
    numbers(json, field, get)?
        .try_into()
        .map_err(|_| ReportError::mistyped(field))
}

/// Fetches a required string field.
pub(crate) fn expect_str<'a>(json: &'a Json, field: &str) -> Result<&'a str, ReportError> {
    json.get(field)
        .ok_or_else(|| ReportError::missing(field))?
        .as_str()
        .ok_or_else(|| ReportError::mistyped(field))
}

/// Fetches a required unsigned-integer field.
pub(crate) fn expect_u64(json: &Json, field: &str) -> Result<u64, ReportError> {
    json.get(field)
        .ok_or_else(|| ReportError::missing(field))?
        .as_u64()
        .ok_or_else(|| ReportError::mistyped(field))
}

/// Fetches a required unsigned-integer field that must fit in 32 bits.
pub(crate) fn expect_u32(json: &Json, field: &str) -> Result<u32, ReportError> {
    u32::try_from(expect_u64(json, field)?).map_err(|_| ReportError::mistyped(field))
}

/// Fetches a required boolean field.
pub(crate) fn expect_bool(json: &Json, field: &str) -> Result<bool, ReportError> {
    json.get(field)
        .ok_or_else(|| ReportError::missing(field))?
        .as_bool()
        .ok_or_else(|| ReportError::mistyped(field))
}

/// Fetches a required numeric field as a float.
pub(crate) fn expect_f64(json: &Json, field: &str) -> Result<f64, ReportError> {
    json.get(field)
        .ok_or_else(|| ReportError::missing(field))?
        .as_f64()
        .ok_or_else(|| ReportError::mistyped(field))
}
