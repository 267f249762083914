//! The closed-loop socket phase: set-up trials, the warm-up pass and
//! the timed phase, all against a real `sap serve --listen` process.
//!
//! Each of the [`CLIENTS`] connections has one request outstanding. A
//! request is one line followed by a blank line, so the server's batch
//! pump flushes it as a batch of its own; a line's latency runs from
//! writing it to reading its response line.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::server::{calibrate, HostTicks, Server, Summary};
use crate::workload::{warm_slot, warmup_slots, Lines, CLIENTS};

/// How long the timed phase may run past its length while connections
/// still owe their check prefix, before the run is declared failed.
const MAX_OVERRUN: Duration = Duration::from_secs(60);

/// How long a client waits for one response.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One socket-phase configuration.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Timed-phase length; connections stop starting new lines after it
    /// once they have sent their prefix.
    pub seconds: f64,
    /// Lines every connection sends before it may stop: the check
    /// prefix, whose results must repeat exactly between runs.
    pub prefix: usize,
    /// Server spawns whose set-up time is measured; the last one also
    /// serves the timed phase.
    pub setup_trials: usize,
}

/// How often the machine is sampled during the timed phase.
const PROBE_EVERY: Duration = Duration::from_millis(10);

/// Every how many samples the CPU's speed is measured as well.
const CALIBRATE_EVERY: usize = 5;

/// One answered timed line.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the response arrived, in nanoseconds from the start of the
    /// timed phase.
    pub done_ns: u64,
    /// Write-to-response latency in nanoseconds.
    pub latency_ns: u64,
    /// CPU nanoseconds the server used from just before the line was
    /// written until just before the next one was (or the timed phase
    /// ended). With one connection this is all the server's work for the
    /// line, what it did after answering included, whatever else ran on
    /// the machine.
    pub cpu_ns: u64,
}

/// One reading of the machine, and of the CPU's speed, during the
/// timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Nanoseconds from the start of the timed phase.
    pub at_ns: u64,
    /// Thread CPU nanoseconds of one [`calibrate`] taken with this
    /// reading, on every [`CALIBRATE_EVERY`]th one.
    pub calib_ns: Option<u64>,
    /// The machine's CPU time so far, from `/proc/stat`.
    pub host: HostTicks,
}

/// What one connection saw in the timed phase.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Answered lines, in send order.
    pub samples: Vec<Sample>,
    /// Response lines in send order (cold workloads only; a
    /// `warm-repeat` response is compared with its warm-up bytes on
    /// arrival and dropped).
    pub responses: Vec<String>,
    /// `warm-repeat` lines whose response differed from the warm-up
    /// response of the same instance.
    pub mismatched: Vec<usize>,
}

/// Everything the socket phase measured and received.
#[derive(Debug)]
pub struct SocketRun {
    /// Set-up time of each trial, in seconds.
    pub setup_s: Vec<f64>,
    /// Time of a [`calibrate`] taken just before each trial, in
    /// nanoseconds.
    pub setup_calib_ns: Vec<u64>,
    /// Server peak resident set (`VmHWM`) at the end of each trial's
    /// set-up, in KiB.
    pub setup_rss_kib: Vec<u64>,
    /// `warm-repeat` warm-up responses, by pool slot (empty when cold).
    pub warmup: Vec<String>,
    /// Timed-phase results per connection.
    pub conns: Vec<ConnRun>,
    /// Timed-phase wall time, to the last response.
    pub elapsed_s: f64,
    /// Machine readings every few milliseconds over the timed phase, the
    /// first at its start and the last after its final response.
    pub probes: Vec<Probe>,
    /// Server peak resident set (`VmHWM`) after the timed phase, in KiB.
    pub peak_rss_kib: u64,
    /// Bytes the clients wrote, over the whole life of the final server.
    pub client_bytes_out: u64,
    /// Bytes the clients read, over the whole life of the final server.
    pub client_bytes_in: u64,
    /// The final server's shutdown summary.
    pub summary: Summary,
}

impl SocketRun {
    /// Timed lines answered, over all connections.
    pub fn timed_lines(&self) -> usize {
        self.conns.iter().map(|c| c.samples.len()).sum()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    wrote: u64,
    read: u64,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            wrote: 0,
            read: 0,
            buf: Vec::new(),
        })
    }

    /// Sends `line` as a batch of its own; returns when it was written.
    fn send(&mut self, line: &str) -> Result<Instant, String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.extend_from_slice(b"\n\n");
        let sent = Instant::now();
        self.writer
            .write_all(&self.buf)
            .map_err(|e| format!("write: {e}"))?;
        self.wrote += self.buf.len() as u64;
        Ok(sent)
    }

    /// Reads the response to the line written at `sent` into `response`
    /// (newline stripped) and returns the line's latency.
    fn receive(&mut self, sent: Instant, response: &mut String) -> Result<Duration, String> {
        response.clear();
        let n = self
            .reader
            .read_line(response)
            .map_err(|e| format!("read: {e}"))?;
        let latency = sent.elapsed();
        if response.pop() != Some('\n') {
            return Err("connection closed before a full response line".to_string());
        }
        self.read += n as u64;
        Ok(latency)
    }

    /// [`Conn::send`] then [`Conn::receive`].
    fn request(&mut self, line: &str, response: &mut String) -> Result<Duration, String> {
        let sent = self.send(line)?;
        self.receive(sent, response)
    }

    /// Half-closes the connection and checks the server sends nothing
    /// more. Returns the bytes written and read.
    fn close(mut self) -> Result<(u64, u64), String> {
        self.writer
            .shutdown(Shutdown::Write)
            .map_err(|e| format!("half-close: {e}"))?;
        let mut rest = Vec::new();
        self.reader
            .read_to_end(&mut rest)
            .map_err(|e| format!("drain: {e}"))?;
        if !rest.is_empty() {
            return Err(format!(
                "{} unexpected bytes after the last response",
                rest.len()
            ));
        }
        Ok((self.wrote, self.read))
    }
}

/// Runs `f` once per connection state on its own thread and collects
/// the results in connection order.
fn per_conn<S: Send, T: Send>(
    states: &mut [S],
    f: impl Fn(usize, &mut S) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, state)| s.spawn(move || f(i, state)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

/// Solves every pool instance once, half the pool per connection.
/// Returns the responses by pool slot.
fn warm_up(conns: &mut [Conn], lines: &Lines) -> Result<Vec<String>, String> {
    let parts = per_conn(conns, |i, conn| {
        let mut out = Vec::new();
        for slot in warmup_slots(i) {
            let mut response = String::new();
            conn.request(&lines.pool_lines()[slot], &mut response)?;
            out.push(response);
        }
        Ok(out)
    })?;
    Ok(parts.into_iter().flatten().collect())
}

fn close_all(conns: Vec<Conn>) -> Result<(u64, u64), String> {
    let mut totals = (0, 0);
    for conn in conns {
        let (wrote, read) = conn.close()?;
        totals.0 += wrote;
        totals.1 += read;
    }
    Ok(totals)
}

/// One server spawn up to the end of set-up: both connections open and,
/// for `warm-repeat`, the warm-up pass done.
struct SetUp {
    server: Server,
    conns: Vec<Conn>,
    warmup: Vec<String>,
    secs: f64,
    rss_kib: u64,
}

fn set_up(sap: &Path, dir: &Path, lines: &Lines) -> Result<SetUp, String> {
    let (server, spawned) = Server::spawn(sap, dir, CLIENTS)?;
    let mut conns = (0..CLIENTS)
        .map(|_| Conn::open(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let warmup = if lines.workload().is_cold() {
        Vec::new()
    } else {
        warm_up(&mut conns, lines)?
    };
    let secs = spawned.elapsed().as_secs_f64();
    let rss_kib = server.peak_rss_kib()?;
    Ok(SetUp {
        server,
        conns,
        warmup,
        secs,
        rss_kib,
    })
}

/// Runs the set-up trials and the timed phase. `dir` holds the server's
/// port file and log.
pub fn run_socket(
    sap: &Path,
    dir: &Path,
    lines: &Lines,
    cfg: &SocketConfig,
) -> Result<SocketRun, String> {
    let cold = lines.workload().is_cold();
    let mut setup_s = Vec::new();
    let mut setup_calib_ns = Vec::new();
    let mut setup_rss_kib = Vec::new();
    let mut previous_warmup: Option<Vec<String>> = None;
    // Every trial but the last shuts its server down again; the last
    // one's server stays up for the timed phase.
    let last = loop {
        setup_calib_ns.push(calibrate()?);
        let s = set_up(sap, dir, lines)?;
        setup_s.push(s.secs);
        setup_rss_kib.push(s.rss_kib);
        if previous_warmup.as_ref().is_some_and(|p| *p != s.warmup) {
            return Err("warm-up responses differ between server processes".to_string());
        }
        if setup_s.len() >= cfg.setup_trials {
            break s;
        }
        close_all(s.conns)?;
        s.server.finish(Duration::from_secs(30))?;
        previous_warmup = Some(s.warmup);
    };
    let SetUp {
        server,
        mut conns,
        warmup,
        ..
    } = last;

    let clock = server.cpu_clock()?;
    let host0 = HostTicks::read()?;
    let start = Instant::now();
    let probe = |calibrated: bool| -> Result<Probe, String> {
        Ok(Probe {
            at_ns: nanos(start.elapsed()),
            calib_ns: if calibrated { Some(calibrate()?) } else { None },
            host: HostTicks::read()?,
        })
    };
    let mut probes = vec![Probe {
        at_ns: 0,
        calib_ns: None,
        host: host0,
    }];
    let deadline = start + Duration::from_secs_f64(cfg.seconds.max(0.0));
    let hard_stop = deadline + MAX_OVERRUN;
    let timed = |c: usize, conn: &mut Conn| -> Result<ConnRun, String> {
        let mut run = ConnRun::default();
        let mut response = String::new();
        // The server's CPU time when the previous line was written.
        let mut sent_cpu = 0;
        let mut line = if cold {
            lines.line(c, 0)
        } else {
            String::new()
        };
        for k in 0.. {
            let now = Instant::now();
            if k >= cfg.prefix && now >= deadline {
                break;
            }
            if now >= hard_stop {
                return Err(format!(
                    "connection {c} sent only {k} of its {} prefix lines",
                    cfg.prefix
                ));
            }
            let cpu = clock.read()?;
            if let Some(last) = run.samples.last_mut() {
                last.cpu_ns = cpu.saturating_sub(sent_cpu);
            }
            sent_cpu = cpu;
            let latency = if cold {
                let sent = conn.send(&line)?;
                // Make the next line while the server works on this one.
                line = lines.line(c, k + 1);
                conn.receive(sent, &mut response)?
            } else {
                let slot = warm_slot(c, k);
                let latency = conn.request(&lines.pool_lines()[slot], &mut response)?;
                if response != warmup[slot] {
                    run.mismatched.push(k);
                }
                latency
            };
            run.samples.push(Sample {
                done_ns: nanos(start.elapsed()),
                latency_ns: nanos(latency),
                cpu_ns: 0,
            });
            if cold {
                run.responses.push(std::mem::take(&mut response));
            }
        }
        let cpu = clock.read()?;
        if let Some(last) = run.samples.last_mut() {
            last.cpu_ns = cpu.saturating_sub(sent_cpu);
        }
        Ok(run)
    };
    // The clients run on their own threads while this one samples the
    // machine.
    let runs = std::thread::scope(|s| -> Result<Vec<ConnRun>, String> {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let timed = &timed;
                s.spawn(move || timed(c, conn))
            })
            .collect();
        let mut sampled = Ok(());
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(PROBE_EVERY);
            if sampled.is_ok() {
                sampled = probe(probes.len() % CALIBRATE_EVERY == 0).map(|p| probes.push(p));
            }
        }
        let runs = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, _>>()?;
        sampled?;
        Ok(runs)
    })?;
    probes.push(probe(false)?);
    let peak_rss_kib = server.peak_rss_kib()?;
    let elapsed_s = runs
        .iter()
        .filter_map(|r| r.samples.last())
        .map(|s| s.done_ns)
        .max()
        .unwrap_or(0) as f64
        / 1e9;
    let (client_bytes_out, client_bytes_in) = close_all(conns)?;
    let summary = server.finish(Duration::from_secs(30))?;
    Ok(SocketRun {
        setup_s,
        setup_calib_ns,
        setup_rss_kib,
        warmup,
        conns: runs,
        elapsed_s,
        probes,
        peak_rss_kib,
        client_bytes_out,
        client_bytes_in,
        summary,
    })
}
