//! Building and supervising the real `sap serve --listen` process.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The repository checkout this benchmark belongs to: the parent of
/// this package's directory.
pub fn repo_root() -> PathBuf {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    package.parent().unwrap_or(package).to_path_buf()
}

/// Builds the `sap` binary from the checkout in release mode into
/// `target_dir` and returns its path. Cargo's own output goes to this
/// process's standard error.
pub fn build_sap(target_dir: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let manifest = repo_root().join("Cargo.toml");
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "sap",
            "--manifest-path",
        ])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sap failed ({status})"));
    }
    let sap = target_dir.join("release").join("sap");
    if !sap.is_file() {
        return Err(format!("{} is missing after the build", sap.display()));
    }
    Ok(sap)
}

/// The totals `sap serve --listen` prints on standard error at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Connections served.
    pub conns: u64,
    /// Request lines framed.
    pub lines: u64,
    /// Response lines written.
    pub responses: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `error` responses.
    pub errors: u64,
    /// `shed` responses.
    pub shed: u64,
    /// Oversized lines.
    pub oversized: u64,
    /// Shared-cache hits.
    pub hits: u64,
    /// Shared-cache misses (solves).
    pub misses: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Fingerprint conflicts.
    pub fp_conflicts: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
}

impl Summary {
    /// Parses the `net: …` shutdown line: its thirteen integers, in the
    /// order the server prints them.
    pub fn parse(line: &str) -> Option<Summary> {
        let rest = line.strip_prefix("net: ")?;
        let nums: Vec<u64> = rest
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        let [conns, lines, responses, ok, errors, shed, oversized, hits, misses, evictions, fp_conflicts, bytes_in, bytes_out] =
            nums[..]
        else {
            return None;
        };
        Some(Summary {
            conns,
            lines,
            responses,
            ok,
            errors,
            shed,
            oversized,
            hits,
            misses,
            evictions,
            fp_conflicts,
            bytes_in,
            bytes_out,
        })
    }
}

/// The machine's CPU time from `/proc/stat`, in clock ticks summed over
/// all CPUs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostTicks {
    /// Ticks of every kind: user, nice, system, idle, iowait, irq,
    /// softirq and steal.
    pub total: u64,
    /// Ticks the hypervisor ran something else while a virtual CPU of
    /// this machine wanted to run.
    pub steal: u64,
}

impl HostTicks {
    /// Reads the aggregate `cpu` line of `/proc/stat`.
    pub fn read() -> Result<HostTicks, String> {
        let text = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        let ticks: Vec<u64> = text
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        if ticks.len() < 8 {
            return Err("/proc/stat: no aggregate cpu line".to_string());
        }
        Ok(HostTicks {
            total: ticks[..8].iter().sum(),
            steal: ticks[7],
        })
    }
}

/// Rounds of the fixed work [`calibrate`] times.
const CALIBRATION_ROUNDS: usize = 8;

/// Keys sorted and counted in one [`calibrate`] round.
const CALIBRATION_KEYS: usize = 2048;

/// Bytes passed through a local socket in one [`calibrate`] round.
const CALIBRATION_BYTES: usize = 4096;

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> std::os::raw::c_int;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> std::os::raw::c_int;
}

/// Words of a `cpu_set_t`: 1024 CPUs.
const CPU_SET_WORDS: usize = 16;

/// Binds the calling thread, and every thread and process it starts
/// from now on, to the highest-numbered CPU it may run on, and returns
/// that CPU's number.
///
/// Left to the scheduler, the server's threads, the three arm threads
/// each solve starts and the client migrate between CPUs, and a line
/// then costs the server up to twice the CPU time it costs when they
/// share one CPU's caches. Which of the two a run gets depends on the
/// scheduler's placement, and it changes over minutes, so every timed
/// process runs on one CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// Linux's clock id for the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

/// The CPU-time clock of one process, all its threads included: time a
/// CPU spent running them, without the time the hypervisor gave the CPU
/// to other guests.
#[derive(Debug, Clone, Copy)]
pub struct CpuClock(std::os::raw::c_int);

impl CpuClock {
    /// Linux's clock id `MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`.
    fn of(pid: u32) -> CpuClock {
        CpuClock(((!pid) << 3) as std::os::raw::c_int | 2)
    }

    /// CPU nanoseconds the process has used so far.
    pub fn read(self) -> Result<u64, String> {
        clock_ns(self.0)
    }
}

fn clock_ns(clock: std::os::raw::c_int) -> Result<u64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!("clock_gettime({clock}) failed"));
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// How fast this machine runs a fixed piece of work right now: the
/// calling thread's CPU time, in nanoseconds, for
/// [`CALIBRATION_ROUNDS`] rounds of work shaped like the server's for
/// one line: allocate, sort and count [`CALIBRATION_KEYS`]
/// pseudo-random keys (branchy integer work on the heap), start and
/// join a thread, and pass [`CALIBRATION_BYTES`] through a local socket
/// and back. Time the thread spent waiting for a CPU does not count, so
/// the figure moves with the speed a CPU gives when it runs (other
/// guests sharing its core, caches and memory), user and kernel code
/// alike, not with how busy the benchmark keeps it. The work is the
/// benchmark's own and no change to the program can make it faster.
pub fn calibrate() -> Result<u64, String> {
    use std::io::{Read, Write};
    let (mut a, mut b) =
        std::os::unix::net::UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
    let out = [7u8; CALIBRATION_BYTES];
    let mut back = [0u8; CALIBRATION_BYTES];
    let start = clock_ns(CLOCK_THREAD_CPUTIME_ID)?;
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    let mut acc = 0u64;
    for _ in 0..CALIBRATION_ROUNDS {
        let mut keys: Vec<u64> = (0..CALIBRATION_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1000
            })
            .collect();
        keys.sort_unstable();
        let mut counts = std::collections::BTreeMap::new();
        for &k in keys.iter().step_by(4) {
            *counts.entry(k).or_insert(0u64) += 1;
        }
        acc = acc.wrapping_add(counts.len() as u64 + keys[CALIBRATION_KEYS / 2]);
        std::thread::spawn(|| ())
            .join()
            .map_err(|_| "calibration thread panicked")?;
        a.write_all(&out).map_err(|e| format!("socket pair: {e}"))?;
        b.read_exact(&mut back)
            .map_err(|e| format!("socket pair: {e}"))?;
        acc = acc.wrapping_add(u64::from(back[0]));
    }
    std::hint::black_box(acc);
    Ok(clock_ns(CLOCK_THREAD_CPUTIME_ID)?.saturating_sub(start))
}

/// A running `sap serve --listen 127.0.0.1:0 --max-conns N` process.
/// Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    addr: SocketAddr,
    log: PathBuf,
}

impl Server {
    /// Spawns the server with default serve options, waits until it has
    /// published its port, and returns it together with the spawn
    /// instant. Scratch files go to `dir`.
    pub fn spawn(sap: &Path, dir: &Path, conns: usize) -> Result<(Server, Instant), String> {
        let port_file = dir.join("port");
        let log = dir.join("server.log");
        let _ = fs::remove_file(&port_file);
        let stderr = fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let spawned = Instant::now();
        let child = Command::new(sap)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--max-conns",
                &conns.to_string(),
            ])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sap.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: ([127, 0, 0, 1], 0).into(),
            log,
        };
        let deadline = spawned + Duration::from_secs(30);
        loop {
            if let Ok(text) = fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse() {
                    server.addr = addr;
                    return Ok((server, spawned));
                }
            }
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!(
                    "server exited before listening ({status}): {}",
                    server.log_text()
                ));
            }
            if Instant::now() >= deadline {
                return Err("server never published its port".to_string());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn pid(&self) -> Result<u32, String> {
        self.child
            .as_ref()
            .map(Child::id)
            .ok_or_else(|| "server already reaped".to_string())
    }

    /// The server process's CPU-time clock.
    pub fn cpu_clock(&self) -> Result<CpuClock, String> {
        Ok(CpuClock::of(self.pid()?))
    }

    /// The server's peak resident set so far (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid()?);
        let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    fn log_text(&self) -> String {
        fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// Waits for the server to exit on its own (after its last
    /// connection closed) and returns its shutdown summary.
    pub fn finish(mut self, timeout: Duration) -> Result<Summary, String> {
        let mut child = self.child.take().ok_or("server already reaped")?;
        let deadline = Instant::now() + timeout;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after its connections closed".to_string());
                }
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        };
        let log = self.log_text();
        if !status.success() {
            return Err(format!("server exited with {status}: {log}"));
        }
        log.lines()
            .find_map(Summary::parse)
            .ok_or_else(|| format!("no shutdown summary in the server log: {log}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shutdown_line() {
        let line = "net: 2 conns, 10 lines in / 10 responses out (9 ok, 1 err, 0 shed, 0 oversized); \
                    cache 3 hits / 7 misses / 0 evictions / 0 fp-conflicts; 1234 bytes in / 5678 bytes out";
        let s = Summary::parse(line).expect("parses");
        assert_eq!((s.conns, s.lines, s.ok, s.errors), (2, 10, 9, 1));
        assert_eq!(
            (s.hits, s.misses, s.bytes_in, s.bytes_out),
            (3, 7, 1234, 5678)
        );
        assert_eq!(Summary::parse("serve: listening on 127.0.0.1:1"), None);
        assert_eq!(Summary::parse("net: 2 conns"), None);
    }
}
