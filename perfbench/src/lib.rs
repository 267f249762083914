//! `perfbench` — the repository's socket-level benchmark.
//!
//! One run builds the real `sap` binary from the checkout, starts
//! `sap serve --listen 127.0.0.1:0 --max-conns 1` with default serve
//! options, and drives it over loopback TCP with a closed loop of
//! [`workload::CLIENTS`] connection with one request outstanding. It measures one named workload for a fixed time, checks
//! every response, and prints one JSON result line last:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-wide --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `--trace 0` prints the end-to-end metrics ([`report::end_to_end`]);
//! * `--trace 1` runs the same socket phase, then replays the check
//!   prefix through each layer's public functions with in-memory spans
//!   ([`trace`]) and prints the per-layer metrics
//!   ([`report::per_layer`]); the spans are written to
//!   `.perfbench/trace-<workload>-seed<seed>.json`;
//! * `--workload all` runs every workload and prints one row each.
//!
//! **Timing.** The machine the benchmark runs on is shared: in a
//! second in which other guests take a quarter of its CPUs a line's
//! wall time can double, its two CPUs can differ in speed by a third,
//! and how fast each runs drifts over minutes. So after building `sap`
//! the benchmark binds itself, and with it the server and every thread
//! it starts, to one CPU ([`server::pin_to_one_cpu`]), and the bounded
//! end-to-end metrics ([`report::end_to_end`]) are the server's CPU
//! time, read from its process CPU clock, which the hypervisor's steal
//! does not enter. The timed phase is cut into one-second windows; the
//! metrics are taken over the calmer half of them ([`report::calm`]),
//! and each window's CPU times are scaled to a reference speed by the
//! time a fixed piece of the benchmark's own work took on that CPU in it
//! ([`server::calibrate`]). Set-up time is the median over 31 server
//! starts, each scaled the same way by a calibration taken just before
//! it. Throughput and wall latency ([`report::wall`]) and the machine's
//! state ([`report::host`]) are printed on every run and listed per
//! layer, unbounded.
//!
//! **Checks.** Every response is validated against its line's
//! instance, and the server's shutdown totals must match what the
//! clients sent and read. The **check prefix** is the first lines each
//! connection sends; a run always sends it, however long that takes.
//! Its returned weights (`weight_total`), its exact per-layer counts and
//! a digest of its responses must repeat exactly for the same seed and
//! the same code: each run compares them with the record an earlier run
//! of that workload and seed left in `.perfbench/results/` for the same
//! server and benchmark binaries, and stores one if there is none and
//! every check passed ([`check::Record`]). Any failed check makes the
//! command exit 1.

pub mod check;
pub mod report;
pub mod server;
pub mod socket;
pub mod trace;
pub mod workload;
