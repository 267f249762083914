//! Metric names, units and the printed result.
//!
//! The names here are the ones `BENCHMARK.json` lists; later changes
//! cite them by name and workload.

use std::collections::BTreeMap;

use storage_alloc::json::Json;

use crate::check::Checked;
use crate::socket::{Probe, Sample, SocketRun};
use crate::trace::LayerTimes;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Linear-interpolation quantile of an ascending sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// The median of a sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency percentiles need at least this many samples beyond them.
const TAIL_SAMPLES: usize = 10;

/// Length of the timed-phase windows the end-to-end metrics are taken
/// over.
const WINDOW_S: f64 = 1.0;

/// The share of the windows, the calmest, that the end-to-end time
/// metrics are taken over.
const CALM_SHARE: f64 = 0.5;

/// The time [`crate::server::calibrate`] takes on a calm CPU of the
/// machine the bounds in `BENCHMARK.json` were set on (a virtual CPU of
/// a Xeon Sapphire Rapids host, shared with the server): server CPU
/// times and set-up times are scaled to this speed.
pub const REFERENCE_CALIB_NS: f64 = 1_150_000.0;

/// One window of the timed phase.
#[derive(Debug)]
pub struct Window {
    /// Window length in seconds.
    pub secs: f64,
    /// Latencies of the lines answered in the window, ascending.
    pub latencies_ns: Vec<u64>,
    /// Server CPU nanoseconds of each line answered in the window,
    /// ascending.
    pub line_cpu_ns: Vec<u64>,
    /// Median [`crate::server::calibrate`] time in the window, in
    /// nanoseconds.
    pub calib_ns: f64,
    /// The share of the machine's CPU time the hypervisor gave to other
    /// guests in the window (`steal` in `/proc/stat`).
    pub steal: f64,
}

/// Splits the timed phase into whole [`WINDOW_S`] windows within the
/// configured `seconds`, or one window spanning the whole phase when it
/// is shorter than that.
pub fn windows(run: &SocketRun, seconds: f64) -> Vec<Window> {
    let whole = (seconds / WINDOW_S).floor() as u64;
    let bounds: Vec<(u64, u64)> = if whole == 0 {
        vec![(0, (run.elapsed_s * 1e9) as u64)]
    } else {
        let w = (WINDOW_S * 1e9) as u64;
        (0..whole).map(|i| (i * w, (i + 1) * w)).collect()
    };
    // The last reading at or before `t`; the first one is at 0.
    let at = |t: u64| -> &Probe {
        let n = run.probes.partition_point(|p| p.at_ns <= t);
        &run.probes[n.max(1) - 1]
    };
    bounds
        .into_iter()
        .map(|(lo, hi)| {
            let answered: Vec<_> = run
                .conns
                .iter()
                .flat_map(|c| c.samples.iter())
                .filter(|s| (lo..hi).contains(&s.done_ns))
                .collect();
            let sorted = |f: fn(&Sample) -> u64| {
                let mut v: Vec<u64> = answered.iter().map(|&s| f(s)).collect();
                v.sort_unstable();
                v
            };
            let (start, end) = (at(lo), at(hi));
            let calib: Vec<f64> = run
                .probes
                .iter()
                .filter(|p| (lo..hi).contains(&p.at_ns))
                .filter_map(|p| p.calib_ns)
                .map(|n| n as f64)
                .collect();
            let ticks = end.host.total.saturating_sub(start.host.total);
            Window {
                secs: (hi - lo) as f64 / 1e9,
                latencies_ns: sorted(|s| s.latency_ns),
                line_cpu_ns: sorted(|s| s.cpu_ns),
                calib_ns: median(&calib),
                steal: if ticks == 0 {
                    0.0
                } else {
                    end.host.steal.saturating_sub(start.host.steal) as f64 / ticks as f64
                },
            }
        })
        .collect()
}

impl Window {
    /// The factor that scales a CPU time measured in this window to the
    /// machine's reference speed: [`REFERENCE_CALIB_NS`] over the
    /// window's calibration time, or 1 when the window has none.
    pub fn scale(&self) -> f64 {
        if self.calib_ns > 0.0 {
            REFERENCE_CALIB_NS / self.calib_ns
        } else {
            1.0
        }
    }
}

/// The calmest [`CALM_SHARE`] of the windows: those in which the
/// hypervisor took the least of the machine's CPU time, earlier windows
/// first among equals. On a shared machine other guests take a varying
/// share of the CPUs, a few hundredths in a calm second and a quarter or
/// more in a busy one, and a window's throughput falls by up to twice
/// that share; the calmest windows are the ones that describe the
/// program.
pub fn calm(wins: &[Window]) -> Vec<&Window> {
    let mut order: Vec<&Window> = wins.iter().collect();
    order.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let keep = ((wins.len() as f64 * CALM_SHARE).ceil() as usize).max(1);
    order.truncate(keep);
    order
}

/// The median, the 90th and, where ten of all the windows' values lie
/// beyond it, the 99th percentile of the values `of` each window, in
/// nanoseconds, each taken as the median over the windows of that
/// window's percentile, as metrics in milliseconds. A few seconds in
/// which the machine stalled the program move a pooled tail percentile
/// by a tenth; they cannot move this median.
fn percentiles(
    wins: &[&Window],
    of: impl Fn(&Window) -> Vec<f64>,
    names: [&'static str; 3],
) -> Vec<Metric> {
    let sorted: Vec<Vec<f64>> = wins
        .iter()
        .map(|w| {
            let mut v = of(w);
            v.sort_by(f64::total_cmp);
            v
        })
        .filter(|v| !v.is_empty())
        .collect();
    let ms = |q: f64| median(&sorted.iter().map(|v| quantile(v, q)).collect::<Vec<_>>()) / 1e6;
    let mut out = vec![
        metric(names[0], "ms", ms(0.5)),
        metric(names[1], "ms", ms(0.9)),
    ];
    let total: usize = sorted.iter().map(Vec::len).sum();
    if total as f64 * 0.01 >= TAIL_SAMPLES as f64 {
        out.push(metric(names[2], "ms", ms(0.99)));
    }
    out
}

fn median_over(wins: &[&Window], f: impl Fn(&Window) -> f64) -> f64 {
    median(&wins.iter().map(|w| f(w)).collect::<Vec<_>>())
}

/// The end-to-end metrics of a checked socket run: what a line costs
/// the server, over the [`calm`] half of its [`windows`], and set-up,
/// memory and quality.
///
/// Server CPU time is what the program's code costs; the time the
/// hypervisor gives to other guests does not count in it, so it repeats
/// on a shared machine where wall times ([`wall`]) move by half. It
/// still moves, by up to half over minutes, with how fast the CPU runs
/// while other guests share its core, caches and memory, so each
/// window's CPU times are scaled to the reference speed by its
/// [`Window::scale`], and so is each set-up time by the calibration
/// taken before it.
/// `cpu_ms_per_line` is the median over the calm windows that answered
/// a line of the server's CPU time per answered line, which a few slow
/// lines cannot move; the `line_cpu` percentiles are those of the
/// server CPU time of each line, also as medians over those windows.
pub fn end_to_end(run: &SocketRun, wins: &[Window], checked: &Checked) -> Vec<Metric> {
    let calm: Vec<&Window> = calm(wins)
        .into_iter()
        .filter(|w| !w.line_cpu_ns.is_empty())
        .collect();
    let mut out = vec![metric(
        "cpu_ms_per_line",
        "ms",
        median_over(&calm, |w| {
            w.line_cpu_ns.iter().sum::<u64>() as f64 * w.scale() / 1e6 / w.line_cpu_ns.len() as f64
        }),
    )];
    out.extend(percentiles(
        &calm,
        |w| {
            w.line_cpu_ns
                .iter()
                .map(|&ns| ns as f64 * w.scale())
                .collect()
        },
        ["line_cpu_p50_ms", "line_cpu_p90_ms", "line_cpu_p99_ms"],
    ));
    out.extend([
        metric("weight_total", "weight", checked.weight_total as f64),
        metric(
            "setup_s",
            "s",
            median(
                &run.setup_s
                    .iter()
                    .zip(&run.setup_calib_ns)
                    .map(|(&s, &c)| s * REFERENCE_CALIB_NS / c as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        metric(
            "rss_setup_mb",
            "MB",
            median(
                &run.setup_rss_kib
                    .iter()
                    .map(|&k| k as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
        ),
    ]);
    out
}

/// What a client waited, over the [`calm`] half of the [`windows`]:
/// throughput (the median over those windows of lines answered per
/// second) and write-to-response latency percentiles (medians over
/// those windows, too). These are the
/// figures a user sees, but on a shared machine they move with the share
/// of its CPUs other guests take, by up to half between runs of the same
/// code, so they are listed per layer and never bounded.
pub fn wall(wins: &[Window]) -> Vec<Metric> {
    let calm = calm(wins);
    let mut out = vec![metric(
        "throughput_lps",
        "1/s",
        median_over(&calm, |w| w.latencies_ns.len() as f64 / w.secs),
    )];
    out.extend(percentiles(
        &calm,
        |w| w.latencies_ns.iter().map(|&ns| ns as f64).collect(),
        ["latency_p50_ms", "latency_p90_ms", "latency_p99_ms"],
    ));
    out
}

/// What the machine did while a run measured: the hypervisor's share of
/// its CPU time over all windows and over the [`calm`] ones, and the
/// median time of [`crate::server::calibrate`], which moves with the
/// speed a CPU gives when it runs. Time figures of runs whose calm
/// steal shares or calibration times differ by more than a few
/// hundredths are not comparable.
pub fn host(wins: &[Window]) -> Vec<Metric> {
    let mean_steal = |ws: &[&Window]| ws.iter().map(|w| w.steal).sum::<f64>() / ws.len() as f64;
    let all: Vec<&Window> = wins.iter().collect();
    vec![
        metric("host.steal", "ratio", mean_steal(&all)),
        metric("host.calm_steal", "ratio", mean_steal(&calm(wins))),
        metric(
            "host.calib_us",
            "us",
            median(&wins.iter().map(|w| w.calib_ns).collect::<Vec<_>>()) / 1e3,
        ),
    ]
}

/// Exact counts reported per layer, with their units, in
/// `BENCHMARK.json` order.
const COUNTS: [(&str, &str); 20] = [
    ("net.bytes_out", "B"),
    ("winner.small", "count"),
    ("winner.medium", "count"),
    ("winner.large", "count"),
    ("winner.greedy", "count"),
    ("lemma13.fallbacks", "count"),
    ("small.work.lp_pivot", "count"),
    ("small.strata", "count"),
    ("lp.etas", "count"),
    ("lp.refactors", "count"),
    ("lp.pricing.scanned", "count"),
    ("medium.work.dp_row", "count"),
    ("medium.classes", "count"),
    ("medium.classes.exact", "count"),
    ("large.work.pack_sweep", "count"),
    ("mwis.allocs", "count"),
    ("small.weight", "weight"),
    ("medium.weight", "weight"),
    ("large.weight", "weight"),
    ("greedy.weight", "weight"),
];

/// Which time of a span a per-layer metric reports.
#[derive(Clone, Copy)]
enum Of {
    /// The span's duration.
    Dur,
    /// The span's duration minus its children's.
    SelfTime,
}

/// Per-layer wall times from the traced replay: the median-per-line
/// metric and its unit, the total-over-the-prefix metric (in ms), and
/// the span and time they report.
#[rustfmt::skip]
const TIMES: [(&str, &str, Option<&str>, &str, Of); 14] = [
    ("net.frame_us", "us", Some("net.frame.total_ms"), "net.frame", Of::Dur),
    ("io.parse_us", "us", Some("io.parse.total_ms"), "io.parse", Of::Dur),
    ("io.decode_us", "us", Some("io.decode.total_ms"), "io.decode", Of::Dur),
    ("io.encode_us", "us", Some("io.encode.total_ms"), "serve.miss", Of::SelfTime),
    ("serve.hit_us", "us", Some("serve.hit.total_ms"), "serve.hit", Of::Dur),
    ("serve.hit.self_us", "us", None, "serve.hit", Of::SelfTime),
    ("serve.miss_ms", "ms", Some("serve.miss.total_ms"), "serve.miss", Of::Dur),
    ("driver.classify_us", "us", Some("driver.classify.total_ms"), "driver.classify", Of::Dur),
    ("driver.solve_ms", "ms", Some("driver.solve.total_ms"), "driver.solve", Of::Dur),
    ("driver.self_ms", "ms", None, "driver.solve", Of::SelfTime),
    ("small.ms", "ms", Some("small.total_ms"), "small", Of::Dur),
    ("medium.ms", "ms", Some("medium.total_ms"), "medium", Of::Dur),
    ("large.ms", "ms", Some("large.total_ms"), "large", Of::Dur),
    ("greedy.ms", "ms", Some("greedy.total_ms"), "greedy", Of::Dur),
];

fn ns_in(unit: &str) -> f64 {
    if unit == "us" {
        1e3
    } else {
        1e6
    }
}

/// The per-layer metrics: exact counts over the check set, and wall
/// times from the traced replay of the same lines. A span the replay's
/// timed phase never entered reports 0.
pub fn per_layer(
    checked: &Checked,
    times: &LayerTimes,
    cpu_ms_per_line: f64,
    rss_peak_mb: f64,
) -> Vec<Metric> {
    let count = |name: &str| checked.counts.get(name).copied().unwrap_or(0);
    let mut out: Vec<Metric> = COUNTS
        .iter()
        .map(|&(name, unit)| metric(name, unit, count(name) as f64))
        .collect();
    let classes = count("medium.classes");
    out.push(metric(
        "medium.exact_ratio",
        "ratio",
        if classes == 0 {
            0.0
        } else {
            count("medium.classes.exact") as f64 / classes as f64
        },
    ));
    for (name, unit, total, span, of) in TIMES {
        let stat = match of {
            Of::Dur => times.dur.get(span),
            Of::SelfTime => times.self_time.get(span),
        }
        .copied()
        .unwrap_or_default();
        out.push(metric(name, unit, stat.median_ns / ns_in(unit)));
        if let Some(total) = total {
            out.push(metric(total, "ms", stat.total_ns / 1e6));
        }
    }
    out.push(metric("rss_peak_mb", "MB", rss_peak_mb));
    let path_ms = times.path_ns_per_line / 1e6;
    out.push(metric("trace.path_ms_per_line", "ms", path_ms));
    out.push(metric(
        "trace.cpu_share",
        "ratio",
        path_ms / cpu_ms_per_line,
    ));
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, Metric)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(key, m)| {
            let value = if m.value.is_finite() {
                Json::Float(m.value)
            } else {
                Json::Null
            };
            (
                key.clone(),
                Json::Object(vec![
                    ("value".into(), value),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(attempted as u64)),
        ("failed".into(), Json::UInt(failed as u64)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .to_string_compact()
}

/// A one-row table of metrics for a workload: `| workload | name=value unit | … |`.
pub fn row(workload: &str, metrics: &[Metric], extra: &BTreeMap<&str, String>) -> String {
    let mut cells = vec![workload.to_string()];
    cells.extend(
        metrics
            .iter()
            .map(|m| format!("{}={} {}", m.name, fmt_value(m.value), m.unit)),
    );
    cells.extend(extra.iter().map(|(k, v)| format!("{k}={v}")));
    format!("| {} |", cells.join(" | "))
}

/// A value with its digits when fractional, without when whole.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[1.0, 3.0], 0.5), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let m = vec![("latency_ms".to_string(), metric("latency_ms", "ms", 1.25))];
        assert_eq!(
            result_json(true, 10, 0, &m),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }
}
