//! End-to-end validation of the trace exporter: record a benchmark run,
//! export Chrome `trace_event` JSON, parse it back with the in-crate JSON
//! parser, and check the events against the `SimResult` the same run
//! produced.

use commopt_bench::json::{parse, Json};
use commopt_bench::report::profile_report;
use commopt_bench::{library_tag, machine_for, parse_exp};
use commopt_benchmarks::{suite, swm, Experiment};
use commopt_core::optimize;
use commopt_ironman::Library;
use commopt_machine::MachineSpec;
use commopt_sim::{
    chrome_trace, Recorder, SimConfig, SimResult, Simulator, SpanKind, Trace, TraceEvent, TraceSink,
};
use std::cell::RefCell;
use std::rc::Rc;

const PROCS: usize = 4;

fn traced_run(exp: Experiment) -> (commopt_ir::Program, SimResult, Trace) {
    let b = swm();
    let opt = optimize(&b.program_with(16, 2), &exp.config());
    let rec = Recorder::new();
    let r = Simulator::new(
        &opt.program,
        SimConfig::timing(MachineSpec::t3d(), exp.library(), PROCS).with_trace(rec.clone()),
    )
    .run();
    (opt.program, r, rec.take())
}

#[test]
fn exported_json_is_valid_chrome_trace() {
    let (program, result, trace) = traced_run(Experiment::Pl);
    let json = chrome_trace(&trace, &program);
    let doc = parse(&json).expect("exporter emits valid JSON");
    let arr = doc.as_arr().expect("top level is an event array");
    assert_eq!(arr.len(), trace.len());
    for e in arr {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        let pid = e.get("pid").and_then(Json::as_f64).unwrap();
        assert!(pid >= 0.0 && (pid as usize) < PROCS);
    }
    // Every DN slice is named after its transfer and appears once per
    // processor per execution: per-pid DN count == dynamic_comm.
    for pid in 0..PROCS {
        let dn = arr
            .iter()
            .filter(|e| {
                e.get("pid").and_then(Json::as_f64) == Some(pid as f64)
                    && e.get("args")
                        .and_then(|a| a.get("call"))
                        .and_then(Json::as_str)
                        == Some("DN")
            })
            .count() as u64;
        assert_eq!(dn, result.dynamic_comm, "pid {pid}");
    }
    // Transfer slices are named ("DN t3 [U@east+...]") and carry ids that
    // exist in the program.
    for e in arr {
        if let Some(t) = e.get("args").and_then(|a| a.get("transfer")) {
            let id = t.as_f64().unwrap() as usize;
            assert!(id < program.transfers.len());
            let name = e.get("name").and_then(Json::as_str).unwrap();
            assert!(name.contains(&format!("t{id}")), "{name}");
        }
    }
}

/// Forwards every sweep to a [`Recorder`] and also keeps it span by span,
/// one [`TraceEvent`] each: the per-event stream the sweep storage must
/// reproduce.
struct Tee {
    recorder: Recorder,
    spans: Rc<RefCell<Vec<TraceEvent>>>,
}

impl TraceSink for Tee {
    fn record_sweep(&mut self, kind: SpanKind, start_us: &[f64], dur_us: &[f64], bytes: &[u64]) {
        self.recorder.record_sweep(kind, start_us, dur_us, bytes);
        let mut spans = self.spans.borrow_mut();
        for (proc, ((&start_us, &dur_us), &bytes)) in
            start_us.iter().zip(dur_us).zip(bytes).enumerate()
        {
            spans.push(TraceEvent {
                proc,
                start_us,
                dur_us,
                kind,
                bytes,
            });
        }
    }
}

#[test]
fn sweep_storage_replays_the_per_span_stream() {
    const PROCS: usize = 64;
    for b in suite() {
        let program = b.program_with(32, 2);
        for exp in [Experiment::Baseline, Experiment::Pl] {
            let opt = optimize(&program, &exp.config());
            for lib in [Library::Pvm, Library::NxSync] {
                let recorder = Recorder::new();
                let spans = Rc::new(RefCell::new(Vec::new()));
                let tee = Tee {
                    recorder: recorder.clone(),
                    spans: spans.clone(),
                };
                let cell = format!("{}/{}/{}", b.name, exp.name(), library_tag(lib));
                let cfg = SimConfig::timing(machine_for(lib), lib, PROCS).with_trace(tee);
                Simulator::new(&opt.program, cfg).run();
                let trace = recorder.take();
                let spans = spans.take();
                assert_eq!(trace.len(), spans.len(), "{cell}");
                assert!(spans.iter().any(|e| e.bytes > 0), "{cell}: no bytes moved");
                assert!(trace.iter().eq(spans), "{cell}: the streams differ");
            }
        }
    }
}

#[test]
fn export_is_deterministic_across_runs() {
    let (p1, _, e1) = traced_run(Experiment::Pl);
    let (p2, _, e2) = traced_run(Experiment::Pl);
    assert_eq!(chrome_trace(&e1, &p1), chrome_trace(&e2, &p2));
}

#[test]
fn tracing_leaves_the_result_unchanged() {
    let b = swm();
    let opt = optimize(&b.program_with(16, 2), &Experiment::Pl.config());
    let cfg = SimConfig::timing(MachineSpec::t3d(), Experiment::Pl.library(), PROCS);
    let plain = Simulator::new(&opt.program, cfg.clone()).run();
    let (_, traced, _) = traced_run(Experiment::Pl);
    assert_eq!(plain, traced);
}

#[test]
fn report_covers_all_transfers_for_every_experiment() {
    for exp in Experiment::ALL {
        let (program, result, _) = traced_run(exp);
        let report = profile_report(&program, &result, None);
        for id in 0..program.transfers.len() {
            assert!(
                report.contains(&format!("t{id}")),
                "{}: missing t{id}",
                exp.name()
            );
        }
    }
}

#[test]
fn experiment_names_parse() {
    assert_eq!(parse_exp("baseline").unwrap(), Experiment::Baseline);
    assert_eq!(parse_exp("rr").unwrap(), Experiment::Rr);
    assert_eq!(parse_exp("rr+cc").unwrap(), Experiment::Cc);
    assert_eq!(parse_exp("rr+cc+pl").unwrap(), Experiment::Pl);
    assert_eq!(parse_exp("SHMEM").unwrap(), Experiment::PlShmem);
    assert_eq!(parse_exp("maxlat").unwrap(), Experiment::PlMaxLatency);
    assert!(parse_exp("bogus").is_err());
}

#[test]
fn passlog_names_a_removal_wherever_rr_reduces_the_static_count() {
    for b in suite() {
        let p = b.program_with(16, 2);
        let base = optimize(&p, &Experiment::Baseline.config());
        let rr = optimize(&p, &Experiment::Rr.config());
        if rr.static_count() < base.static_count() {
            assert!(
                rr.log.removals().count() > 0,
                "{}: rr reduced the count but logged no removal",
                b.name
            );
            let rendered = rr.log.render(&rr.program);
            assert!(rendered.contains("rr: removed"), "{}: {rendered}", b.name);
        }
    }
}

#[test]
fn trace_cli_rejects_non_positive_sizes_with_usage() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("rejected.trace.json");
    for (flag, value) in [
        ("--procs", "0"),
        ("--procs", "-2"),
        ("--iters", "0"),
        ("--iters", "-3"),
        ("--size", "0"),
        ("--size", "-4"),
    ] {
        let _ = std::fs::remove_file(&out);
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(["swm", flag, value, "--out"])
            .arg(&out)
            .output()
            .expect("run the trace binary");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        assert!(stderr.contains("usage: trace"), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(!out.exists(), "{flag} {value}: wrote a trace anyway");
    }
}
