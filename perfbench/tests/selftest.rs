//! Smoke-size self-test of the benchmark: for every workload the socket
//! responses equal a batch-mode `ServeEngine` fed the same lines and the
//! traced replay, and tampered results are rejected.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use perfbench::check::{check_response, check_run, Record};
use perfbench::server::build_sap;
use perfbench::socket::{run_socket, SocketConfig, SocketRun};
use perfbench::trace::{replay, LayerTimes};
use perfbench::workload::{warm_slot, warmup_slots, Lines, Workload, CLIENTS};
use storage_alloc::serve::{ServeEngine, ServeOptions};

const PREFIX: usize = 3;

fn sap() -> &'static Path {
    static SAP: OnceLock<PathBuf> = OnceLock::new();
    SAP.get_or_init(|| {
        // The benchmark binary sits in <target>/<profile>/.
        let target = Path::new(env!("CARGO_BIN_EXE_perfbench"))
            .parent()
            .and_then(Path::parent)
            .expect("target directory");
        build_sap(target).expect("sap builds")
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("perfbench-selftest")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// A smoke-size socket run. `test` names the calling test, whose
/// scratch directory holds the server's port file.
fn smoke(workload: Workload, test: &str) -> (Lines, SocketRun) {
    let lines = Lines::new(workload, 42);
    let cfg = SocketConfig {
        seconds: 0.0,
        prefix: PREFIX,
        setup_trials: 2,
    };
    let run = run_socket(sap(), &scratch(test), &lines, &cfg).expect("socket run");
    (lines, run)
}

/// Every line a connection sent, in order: its warm-up lines, then its
/// timed lines.
fn sent(lines: &Lines, conn: usize, timed: usize) -> Vec<String> {
    let mut out = Vec::new();
    if !lines.workload().is_cold() {
        out.extend(warmup_slots(conn).map(|slot| lines.pool_lines()[slot].clone()));
    }
    out.extend((0..timed).map(|k| lines.line(conn, k)));
    out
}

/// Every response a connection read, in order. A timed `warm-repeat`
/// response is not kept: the run compared it with the warm-up response
/// of its instance on arrival, so it stands for that response here once
/// no comparison failed.
fn received(lines: &Lines, run: &SocketRun, conn: usize) -> Vec<String> {
    let mut out = Vec::new();
    if lines.workload().is_cold() {
        out.extend(run.conns[conn].responses.iter().cloned());
    } else {
        assert!(run.conns[conn].responses.is_empty());
        assert!(
            run.conns[conn].mismatched.is_empty(),
            "connection {conn}: timed responses differ from their warm-up bytes"
        );
        out.extend(warmup_slots(conn).map(|slot| run.warmup[slot].clone()));
        out.extend(
            (0..run.conns[conn].samples.len()).map(|k| run.warmup[warm_slot(conn, k)].clone()),
        );
    }
    out
}

fn socket_matches_batch_mode(workload: Workload) {
    let (lines, run) = smoke(workload, workload.name());
    for conn in 0..CLIENTS {
        assert!(run.conns[conn].samples.len() >= PREFIX);
        // A blank line follows every request, so batch mode sees one
        // batch per line.
        let mut engine = ServeEngine::new(ServeOptions::default());
        let reference: Vec<String> = sent(&lines, conn, run.conns[conn].samples.len())
            .iter()
            .flat_map(|line| engine.process_batch(&[line.as_str()]))
            .collect();
        assert_eq!(
            received(&lines, &run, conn),
            reference,
            "{} connection {conn}",
            workload.name()
        );
    }
    let checked = check_run(&lines, &run, PREFIX);
    assert_eq!(checked.failed, 0, "{:?}", checked.problems);
    assert!(checked.problems.is_empty(), "{:?}", checked.problems);
    assert!(checked.weight_total > 0);

    // The traced replay reproduces the socket bytes, and on
    // `warm-repeat` its timed phase runs no solver.
    let expected = |c: usize, k: usize| {
        if lines.workload().is_cold() {
            run.conns[c].responses[k].clone()
        } else {
            run.warmup[warm_slot(c, k)].clone()
        }
    };
    let tracer = replay(&lines, PREFIX, expected, &run.warmup).expect("replay");
    let times = LayerTimes::of(&tracer);
    assert_eq!(times.timed_lines, PREFIX * CLIENTS);
    assert!(times.dur.contains_key("serve.hit"));
    let solver = [
        "serve.miss",
        "driver.solve",
        "small",
        "medium",
        "large",
        "greedy",
    ];
    for span in solver {
        assert_eq!(
            times.dur.contains_key(span),
            lines.workload().is_cold(),
            "{span} on {}",
            workload.name()
        );
    }
}

#[test]
fn cold_mixed_matches_batch_mode() {
    socket_matches_batch_mode(Workload::ColdMixed);
}

#[test]
fn cold_wide_matches_batch_mode() {
    socket_matches_batch_mode(Workload::ColdWide);
}

#[test]
fn warm_repeat_matches_batch_mode() {
    socket_matches_batch_mode(Workload::WarmRepeat);
}

#[test]
fn tampered_results_are_rejected() {
    let (lines, mut run) = smoke(Workload::ColdWide, "tampered");
    let checked = check_run(&lines, &run, PREFIX);
    assert_eq!(checked.failed, 0, "{:?}", checked.problems);

    // The determinism record: stored once by a clean run, then matched,
    // then a tampered or garbled copy is refused.
    let path = scratch("record").join("cold-wide-seed42.json");
    let record = Record::of(&lines, PREFIX, &checked);
    assert_eq!(
        record.check_or_store(&path, true),
        Ok(false),
        "first run stores the record"
    );
    assert_eq!(
        record.check_or_store(&path, true),
        Ok(true),
        "second run matches it"
    );
    let text = std::fs::read_to_string(&path).expect("record");
    let total = format!("\"weight_total\":{}", record.weight_total);
    assert!(text.contains(&total));
    std::fs::write(
        &path,
        text.replace(
            &total,
            &format!("\"weight_total\":{}", record.weight_total + 1),
        ),
    )
    .expect("tamper");
    let err = record
        .check_or_store(&path, true)
        .expect_err("tampered record");
    assert!(err.contains("weight_total"), "{err}");
    std::fs::write(&path, "{\"workload\":").expect("garble");
    let err = record
        .check_or_store(&path, true)
        .expect_err("garbled record");
    assert!(err.contains("unreadable"), "{err}");

    // A response whose weight or placements were altered fails its line.
    let instance = lines.instance(0, 0);
    let good = run.conns[0].responses[0].clone();
    assert!(check_response(&good, &instance).is_ok());
    let weight = check_response(&good, &instance)
        .expect("valid")
        .get("weight")
        .and_then(|w| w.as_u64());
    let weight = weight.expect("weight");
    let heavier = good.replacen(
        &format!("\"weight\":{weight}"),
        &format!("\"weight\":{}", weight + 1),
        1,
    );
    assert!(check_response(&heavier, &instance).is_err());
    let raised = good.replacen("\"height\":", "\"height\":9999999", 1);
    assert!(check_response(&raised, &instance).is_err());
    run.conns[0].responses[0] = raised;
    let checked = check_run(&lines, &run, PREFIX);
    assert_eq!(checked.failed, 1);
    let bad = Record::of(&lines, PREFIX, &checked);
    assert_ne!(bad, record);

    // A run with a failed check never stores a record for later runs.
    let fresh = scratch("record").join("cold-wide-seed42-failed.json");
    assert_eq!(bad.check_or_store(&fresh, false), Ok(false));
    assert!(!fresh.exists(), "a failed run stored its record");
}
