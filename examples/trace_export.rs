//! Observability walkthrough: run one workload with every sink attached
//! — Chrome/Perfetto exporter, bounded ring buffer, metrics recorder —
//! then write the Perfetto JSON and print the tail and the snapshot.
//!
//! Run with: `cargo run --release --example trace_export`
//! Then load `target/trace_compress.json` at <https://ui.perfetto.dev>.

use fua::core::observed_scheme;
use fua::isa::FuClass;
use fua::sim::{MachineConfig, Simulator};
use fua::trace::{ChromeTraceSink, MetricsRecorder, RingBufferSink};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = fua::workloads::by_name("compress", 1).expect("bundled");

    // Sinks fan out as nested pairs; each receives every event in order.
    let mut sim = Simulator::with_sink(
        MachineConfig::paper_default(),
        observed_scheme(), // the paper's 4-bit LUT + hardware swapping
        (
            ChromeTraceSink::new(),
            (RingBufferSink::new(1024), MetricsRecorder::new()),
        ),
    );
    let result = sim.run_program(&workload.program, 20_000)?;
    let (chrome, (ring, recorder)) = sim.into_sink();

    println!(
        "{}: retired {} in {} cycles (IPC {:.2}); {} events recorded",
        workload.name,
        result.retired,
        result.cycles,
        result.ipc(),
        ring.recorded()
    );

    let path = "target/trace_compress.json";
    std::fs::write(path, chrome.into_json().compact())?;
    println!("wrote {path} — load it at https://ui.perfetto.dev\n");

    println!("last 5 events in the ring:");
    for event in ring.tail(5) {
        println!("  {event:?}");
    }

    println!("\nmetrics snapshot:\n{recorder}");

    // The metrics partition the energy ledger exactly.
    let recorded: u64 = recorder.totals().module_bits[FuClass::IntAlu.index()]
        .iter()
        .sum();
    assert_eq!(recorded, result.ledger.switched_bits(FuClass::IntAlu));
    println!("per-module counters sum to the IALU ledger total: {recorded} switched bits");
    Ok(())
}
