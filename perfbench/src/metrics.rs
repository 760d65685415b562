//! Metric catalogue, the per-crate layer table, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics every untraced run reports, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("sim_mhz", "MHz"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("paper_gap_pts", "points"),
];

/// The per-layer metrics every traced run reports, as `(name, unit)`.
/// A metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("traced_wall_s", "s"),
    ("residual_s", "s"),
    ("trace_overhead_s", "s"),
    ("layer.vm_s", "s"),
    ("layer.sim_s", "s"),
    ("layer.steer_s", "s"),
    ("layer.swap_s", "s"),
    ("layer.core_s", "s"),
    ("layer.exec_s", "s"),
    ("layer.trace_s", "s"),
    ("layer.attr_s", "s"),
    ("layer.analysis_s", "s"),
    ("layer.report_s", "s"),
    ("layer.store_s", "s"),
    ("layer.workloads_s", "s"),
    ("workloads.build_s", "s"),
    ("vm.run_s", "s"),
    ("vm.ns_per_op", "ns"),
    ("vm.ops", "count"),
    ("sim.pipeline_s", "s"),
    ("sim.pipeline_ns_per_op", "ns"),
    ("steer.fullham_ns_per_op", "ns"),
    ("steer.1bitham_ns_per_op", "ns"),
    ("steer.lut2_ns_per_op", "ns"),
    ("steer.lut4_ns_per_op", "ns"),
    ("steer.lut8_ns_per_op", "ns"),
    ("steer.s", "s"),
    ("swap.compiler_pass_s", "s"),
    ("core.profile_suite_s", "s"),
    ("core.figure4_ialu_s", "s"),
    ("core.figure4_fpau_s", "s"),
    ("exec.busy_fraction", "ratio"),
    ("exec.imbalance", "ratio"),
    ("exec.idle_s", "s"),
    ("sim.arena_fresh_ratio", "ratio"),
    ("trace.windowed_ns_per_op", "ns"),
    ("trace.stall_ns_per_op", "ns"),
    ("attr.sink_ns_per_op", "ns"),
    ("sim.phase_timers_ns_per_op", "ns"),
    ("attr.check_suite_s", "s"),
    ("analysis.estimate_s", "s"),
    ("report.bench_suite_s", "s"),
    ("report.render_s", "s"),
    ("report.parse_s", "s"),
    ("report.compare_s", "s"),
    ("report.trends_s", "s"),
    ("report.artifact_bytes", "bytes"),
    ("store.put_s", "s"),
    ("store.read_s", "s"),
    ("sim.cycles", "cycles"),
    ("sim.ipc", "ratio"),
    ("sim.scheme_mismatches", "count"),
];

/// Whether `name` is a legal metric name: a letter or digit, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metric values collected during a run. Recording a name outside
/// the catalogue is a bug in the benchmark and panics.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<&'static str, f64>,
}

impl Sheet {
    /// Records `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The catalogue entries of `list` with their values (0 when the
    /// workload did not record one), in catalogue order.
    pub fn select(
        &self,
        list: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        list.iter()
            .map(|&(name, unit)| (name, unit, self.get(name).unwrap_or(0.0)))
            .collect()
    }
}

/// Renders the one-line JSON result the benchmark ends its output with.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // `{:?}` prints the shortest string that reads back to the
            // same f64, so every measured digit survives.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The layers of the per-crate table, one per workspace crate the
/// benchmark calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Vm,
    Sim,
    Steer,
    Swap,
    Core,
    Exec,
    Trace,
    Attr,
    Analysis,
    Report,
    Store,
    Workloads,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 12] = [
        Layer::Vm,
        Layer::Sim,
        Layer::Steer,
        Layer::Swap,
        Layer::Core,
        Layer::Exec,
        Layer::Trace,
        Layer::Attr,
        Layer::Analysis,
        Layer::Report,
        Layer::Store,
        Layer::Workloads,
    ];

    /// The crate name the row is labelled with.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Vm => "vm",
            Layer::Sim => "sim",
            Layer::Steer => "steer",
            Layer::Swap => "swap",
            Layer::Core => "core",
            Layer::Exec => "exec",
            Layer::Trace => "trace",
            Layer::Attr => "attr",
            Layer::Analysis => "analysis",
            Layer::Report => "report",
            Layer::Store => "store",
            Layer::Workloads => "workloads",
        }
    }

    /// The per-layer metric holding the row's seconds.
    fn metric(self) -> &'static str {
        match self {
            Layer::Vm => "layer.vm_s",
            Layer::Sim => "layer.sim_s",
            Layer::Steer => "layer.steer_s",
            Layer::Swap => "layer.swap_s",
            Layer::Core => "layer.core_s",
            Layer::Exec => "layer.exec_s",
            Layer::Trace => "layer.trace_s",
            Layer::Attr => "layer.attr_s",
            Layer::Analysis => "layer.analysis_s",
            Layer::Report => "layer.report_s",
            Layer::Store => "layer.store_s",
            Layer::Workloads => "layer.workloads_s",
        }
    }
}

/// Seconds charged to each layer during a traced run, against the run's
/// own wall clock. Whatever no timed call covers is the residual.
#[derive(Debug)]
pub struct LayerTable {
    started: Instant,
    secs: [f64; 12],
}

impl LayerTable {
    /// Starts the traced wall clock.
    pub fn start() -> Self {
        LayerTable {
            started: Instant::now(),
            secs: [0.0; 12],
        }
    }

    /// Runs `f`, charging its wall clock to `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let (value, secs) = timed(f);
        self.add(layer, secs);
        value
    }

    /// Charges `secs` to `layer` (may be negative when a difference of
    /// two measurements is split across rows).
    pub fn add(&mut self, layer: Layer, secs: f64) {
        self.secs[layer as usize] += secs;
    }

    /// Seconds charged to `layer` so far.
    pub fn get(&self, layer: Layer) -> f64 {
        self.secs[layer as usize]
    }

    /// Stops the wall clock.
    pub fn finish(self) -> LayerReport {
        LayerReport {
            wall: self.started.elapsed().as_secs_f64(),
            secs: self.secs,
        }
    }
}

/// A finished layer table.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Wall clock of the traced run.
    pub wall: f64,
    secs: [f64; 12],
}

impl LayerReport {
    /// Seconds charged to `layer`.
    pub fn row(&self, layer: Layer) -> f64 {
        self.secs[layer as usize]
    }

    /// Traced wall minus the sum of the rows.
    pub fn residual(&self) -> f64 {
        self.wall - self.secs.iter().sum::<f64>()
    }

    /// Records every row, the residual and the traced wall.
    pub fn record(&self, sheet: &mut Sheet) {
        for layer in Layer::ALL {
            sheet.set(layer.metric(), self.row(layer));
        }
        sheet.set("residual_s", self.residual());
        sheet.set("traced_wall_s", self.wall);
    }

    /// Renders the table: one row per crate, the residual, the total.
    pub fn render(&self) -> String {
        let mut out = String::from("layer        seconds    share\n");
        let share = |s: f64| 100.0 * s / self.wall;
        for layer in Layer::ALL {
            let s = self.row(layer);
            out += &format!("{:<10} {:>9.4} {:>7.1}%\n", layer.name(), s, share(s));
        }
        let r = self.residual();
        out += &format!("{:<10} {:>9.4} {:>7.1}%\n", "residual", r, share(r));
        out += &format!("{:<10} {:>9.4} {:>7.1}%", "total", self.wall, 100.0);
        out
    }
}

/// Runs `f` and returns its value with its wall clock in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`), or
/// `None` where the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_used_once() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "illegal metric name `{name}`");
            assert_eq!(
                all.iter().filter(|n| *n == name).count(),
                1,
                "`{name}` repeats"
            );
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
    }

    #[test]
    fn rows_and_residual_sum_to_the_traced_wall() {
        let mut table = LayerTable::start();
        table.time(Layer::Vm, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        table.add(Layer::Sim, 0.002);
        table.add(Layer::Steer, -0.0005);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let report = table.finish();
        let rows: f64 = Layer::ALL.iter().map(|&l| report.row(l)).sum();
        assert!((rows + report.residual() - report.wall).abs() < 1e-12);
        assert!(report.row(Layer::Vm) >= 0.003);
        let mut sheet = Sheet::default();
        report.record(&mut sheet);
        let listed: f64 = Layer::ALL
            .iter()
            .map(|&l| sheet.get(l.metric()).unwrap())
            .sum();
        assert!(
            (listed + sheet.get("residual_s").unwrap() - sheet.get("traced_wall_s").unwrap()).abs()
                < 1e-12
        );
    }

    #[test]
    fn the_result_line_keeps_every_digit() {
        let line = result_line(true, 3, 0, &[("wall_s", "s", 1.234_567_890_123)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let json = fua_trace::Json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(fua_trace::Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(fua_trace::Json::as_str)
                            .unwrap()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
