//! The traced run: replays a workload's check-prefix lines one at a
//! time through each layer's public functions, recording a span around
//! every call.
//!
//! Spans are kept in memory and written out when the run ends. A span
//! marked `path` is a step the server itself takes for the line: framing,
//! then the engine's miss path (`serve.miss`: parse, decode, solve and
//! encode) or its hit path (`serve.hit`). The sum of path spans per line
//! is what the trace accounts for of the server's CPU per line. The
//! other spans break a path span down by calling its parts again, one at
//! a time: parse, decode and the solve under `serve.miss`, the solver
//! arms under `driver.solve`, parse and decode under `serve.hit`. Their
//! `parent` names the span they break down, and a parent's self time is
//! its duration minus its children's durations. The engine keeps its
//! response encoder to itself, so the encode cost is the self time of
//! `serve.miss`, which also holds the engine's fingerprinting and cache
//! bookkeeping.
//!
//! The whole replay runs on one thread: the engine is built with batch
//! and solve width 1, which changes no response byte.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use storage_alloc::io::{InstanceDto, JsonDto};
use storage_alloc::json::{self, Json};
use storage_alloc::net::{Framed, LineFramer, DEFAULT_MAX_LINE_BYTES};
use storage_alloc::sap_algs::baselines::greedy_sap_best;
use storage_alloc::sap_algs::{
    try_solve_large, try_solve_medium_with_stats, try_solve_practical, try_solve_small, SapParams,
};
use storage_alloc::sap_core::{classify_by_size, Budget, Instance, Recorder};
use storage_alloc::serve::{ServeEngine, ServeOptions};

use crate::workload::{warm_slot, Lines, CLIENTS};

/// Cold lines that are sent through the [`ServeEngine`] a second time,
/// as a cache hit, so `serve.hit_us` is measured on every workload.
const HIT_PROBE: usize = 8;

/// Longest a replay may take before the run fails.
const MAX_REPLAY: Duration = Duration::from_secs(100);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, in nanoseconds from the start of the replay.
    pub start_ns: u64,
    /// End, in nanoseconds from the start of the replay.
    pub end_ns: u64,
    /// Index of the span this one breaks down or belongs to.
    pub parent: Option<usize>,
    /// Replayed line the span belongs to.
    pub line: usize,
    /// `warmup` or `timed`.
    pub phase: &'static str,
    /// Whether the server takes this step for the line.
    pub path: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Lines replayed so far.
    lines: usize,
    /// Spans in start order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            lines: 0,
            spans: Vec::new(),
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Where a new span goes: its line, phase and parent.
#[derive(Clone, Copy)]
struct At {
    line: usize,
    phase: &'static str,
    parent: Option<usize>,
}

impl At {
    fn under(self, parent: usize) -> At {
        At {
            parent: Some(parent),
            ..self
        }
    }
}

impl Tracer {
    fn open(&mut self, name: &'static str, at: At, path: bool) -> usize {
        let start_ns = nanos(self.origin.elapsed());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: at.parent,
            line: at.line,
            phase: at.phase,
            path,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = nanos(self.origin.elapsed());
    }

    /// Replays the next line inside a `line` span: `f` gets the place
    /// for the line's spans.
    fn line(
        &mut self,
        phase: &'static str,
        f: impl FnOnce(&mut Tracer, At) -> Result<(), String>,
    ) -> Result<(), String> {
        let at = At {
            line: self.lines,
            phase,
            parent: None,
        };
        self.lines += 1;
        let root = self.open("line", at, false);
        let done = f(self, at.under(root));
        self.close(root);
        done
    }

    /// Runs `f` inside a span; returns its result and the span's index.
    fn time<R>(
        &mut self,
        name: &'static str,
        at: At,
        path: bool,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.open(name, at, path);
        let r = black_box(f());
        self.close(id);
        (r, id)
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Object(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::UInt(s.start_ns)),
                    ("end_ns".into(), Json::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("line".into(), Json::UInt(s.line as u64)),
                    ("phase".into(), Json::Str(s.phase.into())),
                    ("path".into(), Json::Bool(s.path)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::UInt(seed)),
            ("spans".into(), Json::Array(spans)),
        ])
    }
}

fn frame(tr: &mut Tracer, at: At, line: &str) -> Result<(), String> {
    let bytes = format!("{line}\n\n");
    let mut framer = LineFramer::new(DEFAULT_MAX_LINE_BYTES);
    let (items, _) = tr.time("net.frame", at, true, || framer.push(bytes.as_bytes()));
    match &items[..] {
        [Framed::Line(l), Framed::Line(blank)] if l == line && blank.is_empty() => Ok(()),
        _ => Err("the framer split a request line unexpectedly".to_string()),
    }
}

fn decode(value: &Json) -> Result<Instance, String> {
    InstanceDto::from_json(value)?
        .to_instance()
        .map_err(|e| e.to_string())
}

fn same(what: &str, got: &str, expected: &str) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("replayed {what} differs from the socket response"))
    }
}

/// Replays a line the server has to solve: framing and the engine's
/// miss path, whose response must be byte-identical to the one the
/// socket returned, then the parts of that path one at a time.
fn replay_solve(
    tr: &mut Tracer,
    at: At,
    engine: &mut ServeEngine,
    line: &str,
    expected: &str,
) -> Result<(), String> {
    frame(tr, at, line)?;
    let (out, miss) = tr.time("serve.miss", at, true, || engine.process_batch(&[line]));
    same(
        "engine response",
        out.first().map_or("", String::as_str),
        expected,
    )?;

    let parts = at.under(miss);
    let (value, _) = tr.time("io.parse", parts, false, || json::parse(line));
    let value = value.map_err(|e| e.to_string())?;
    let (instance, _) = tr.time("io.decode", parts, false, || decode(&value));
    let instance = instance?;
    let ids = instance.all_ids();
    let params = SapParams {
        workers: 1,
        ..Default::default()
    };
    let (solved, solve) = tr.time("driver.solve", parts, false, || {
        let budget = Budget::unlimited().with_telemetry(Recorder::new().handle());
        try_solve_practical(&instance, &ids, &params, &budget)
    });
    solved.map_err(|e| e.to_string())?;

    let arms = parts.under(solve);
    let arm_budget = || Budget::unlimited().with_telemetry(Recorder::new().handle());
    let (classes, _) = tr.time("driver.classify", arms, false, || {
        classify_by_size(&instance, params.delta_small, params.delta_large)
    });
    let (small, _) = tr.time("small", arms, false, || {
        try_solve_small(
            &instance,
            &classes.small,
            params.small_algo,
            params.lp_options(),
            params.workers,
            &arm_budget(),
        )
    });
    let (medium, _) = tr.time("medium", arms, false, || {
        try_solve_medium_with_stats(
            &instance,
            &classes.medium,
            params.medium,
            params.workers,
            &arm_budget(),
        )
    });
    let (large, _) = tr.time("large", arms, false, || {
        try_solve_large(&instance, &classes.large, &arm_budget())
    });
    tr.time("greedy", arms, false, || greedy_sap_best(&instance, &ids));
    small.map_err(|e| e.to_string())?;
    medium.map_err(|e| e.to_string())?;
    large.map_err(|e| e.to_string())?;
    Ok(())
}

/// Replays a line the server answers from its cache: framing and the
/// engine's hit path, then parse and decode again as the hit's parts.
/// `path` says whether the server takes this step for the line.
fn replay_hit(
    tr: &mut Tracer,
    at: At,
    engine: &mut ServeEngine,
    line: &str,
    expected: &str,
    path: bool,
) -> Result<(), String> {
    if path {
        frame(tr, at, line)?;
    }
    let (out, hit) = tr.time("serve.hit", at, path, || engine.process_batch(&[line]));
    same(
        "cache hit",
        out.first().map_or("", String::as_str),
        expected,
    )?;
    let parts = at.under(hit);
    let (value, _) = tr.time("io.parse", parts, false, || json::parse(line));
    let value = value.map_err(|e| e.to_string())?;
    tr.time("io.decode", parts, false, || decode(&value))
        .0
        .map(drop)
}

/// Replays the `prefix` lines of every connection, in the order they
/// were first sent, after the `warm-repeat` warm-up pass.
/// `expected(conn, index)` gives the response the socket returned for a
/// timed line and `warmup[slot]` the warm-up responses; every replayed
/// response must match them byte for byte.
pub fn replay(
    lines: &Lines,
    prefix: usize,
    expected: impl Fn(usize, usize) -> String,
    warmup: &[String],
) -> Result<Tracer, String> {
    let mut tr = Tracer::default();
    let mut engine = ServeEngine::new(ServeOptions {
        workers: 1,
        solve_workers: 1,
        ..Default::default()
    });
    let deadline = Instant::now() + MAX_REPLAY;
    let cold = lines.workload().is_cold();
    if !cold {
        for (slot, (line, expected)) in lines.pool_lines().iter().zip(warmup).enumerate() {
            tr.line("warmup", |tr, at| {
                replay_solve(tr, at, &mut engine, line, expected)
            })
            .map_err(|e| format!("replay of warm-up slot {slot}: {e}"))?;
        }
    }
    for k in 0..prefix {
        for c in 0..CLIENTS {
            if Instant::now() >= deadline {
                return Err(format!("the replay took longer than {MAX_REPLAY:?}"));
            }
            let expected = expected(c, k);
            tr.line("timed", |tr, at| {
                if cold {
                    let line = lines.line(c, k);
                    replay_solve(tr, at, &mut engine, &line, &expected)?;
                    if at.line < HIT_PROBE {
                        replay_hit(tr, at, &mut engine, &line, &expected, false)?;
                    }
                    Ok(())
                } else {
                    let line = &lines.pool_lines()[warm_slot(c, k)];
                    replay_hit(tr, at, &mut engine, line, &expected, true)
                }
            })
            .map_err(|e| format!("replay of connection {c} line {k}: {e}"))?;
        }
    }
    Ok(tr)
}

/// Median and total of one kind of span time, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stat {
    /// Median per span.
    pub median_ns: f64,
    /// Sum over all spans.
    pub total_ns: f64,
}

impl Stat {
    fn of(mut v: Vec<f64>) -> Stat {
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median_ns = match n {
            0 => 0.0,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        Stat {
            median_ns,
            total_ns: v.iter().sum(),
        }
    }
}

/// Per-layer wall times of a replay's timed phase. The `warm-repeat`
/// warm-up pass belongs to set-up and is left out.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Duration per span name.
    pub dur: BTreeMap<&'static str, Stat>,
    /// Self time (duration minus children) per span name that has
    /// children.
    pub self_time: BTreeMap<&'static str, Stat>,
    /// Timed-phase lines replayed.
    pub timed_lines: usize,
    /// Mean per timed line of the summed path spans, in nanoseconds.
    pub path_ns_per_line: f64,
}

impl LayerTimes {
    /// Summarises a replay's spans.
    pub fn of(tr: &Tracer) -> LayerTimes {
        let timed = |s: &Span| s.phase == "timed";
        let mut durs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut child_ns = vec![0u64; tr.spans.len()];
        let mut has_children = vec![false; tr.spans.len()];
        for s in tr.spans.iter().filter(|s| timed(s)) {
            durs.entry(s.name).or_default().push(s.dur_ns() as f64);
            if let Some(p) = s.parent {
                if tr.spans[p].name != "line" {
                    child_ns[p] += s.dur_ns();
                    has_children[p] = true;
                }
            }
        }
        let mut selfs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in tr.spans.iter().enumerate() {
            if has_children[i] {
                selfs
                    .entry(s.name)
                    .or_default()
                    .push(s.dur_ns() as f64 - child_ns[i] as f64);
            }
        }
        let timed_lines = durs.get("line").map_or(0, Vec::len);
        let path_ns: u64 = tr
            .spans
            .iter()
            .filter(|s| timed(s) && s.path)
            .map(Span::dur_ns)
            .sum();
        LayerTimes {
            dur: durs.into_iter().map(|(k, v)| (k, Stat::of(v))).collect(),
            self_time: selfs.into_iter().map(|(k, v)| (k, Stat::of(v))).collect(),
            timed_lines,
            path_ns_per_line: if timed_lines == 0 {
                0.0
            } else {
                path_ns as f64 / timed_lines as f64
            },
        }
    }
}
