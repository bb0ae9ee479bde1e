//! Observable invariance of the parallel harness: a perf snapshot collected
//! on one worker and one collected on four workers must be byte-identical
//! once the volatile wall-clock fields are stripped — same rows, same
//! order, same metric values, same JSON text — and the serial one must be
//! the committed quick baseline, byte for byte.

use commopt_bench::perf::{to_json, Mode, Snapshot};

#[test]
fn parallel_snapshot_is_byte_identical_to_serial_and_to_the_baseline() {
    let mut serial = Snapshot::collect(Mode::Quick, "baseline", 1);
    let mut parallel = Snapshot::collect(Mode::Quick, "baseline", 4);
    serial.strip_volatile();
    parallel.strip_volatile();
    let serial = to_json(&serial);
    assert_eq!(
        serial,
        to_json(&parallel),
        "stripped quick snapshots must not depend on the worker count"
    );
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_baseline.json");
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        serial == committed,
        "the stripped quick snapshot differs from {}; compare them with perfdiff",
        path.display()
    );
}
