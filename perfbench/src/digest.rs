//! The model digest: a 128-bit `fua_store::content_key` over every
//! simulated statistic a workload produced. A change that only makes the
//! simulator faster must leave it unchanged.

use fua_core::Figure4Row;
use fua_power::EnergyLedger;
use fua_store::content_key;

/// Accumulates model statistics as bytes for hashing.
#[derive(Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    pub fn ledger(&mut self, ledger: &EnergyLedger) -> &mut Self {
        for v in ledger
            .switched_array()
            .into_iter()
            .chain(ledger.ops_array())
        {
            self.u64(v);
        }
        self
    }

    pub fn figure(&mut self, baseline_bits: u64, rows: &[Figure4Row]) -> &mut Self {
        self.u64(baseline_bits);
        for r in rows {
            self.str(&r.scheme)
                .f64(r.base_pct)
                .f64(r.hardware_pct)
                .f64(r.hardware_compiler_pct)
                .f64(r.compiler_only_pct);
        }
        self
    }

    /// The 32-hex-digit digest.
    pub fn hex(&self) -> String {
        content_key(&self.0).hex()
    }
}
