//! The three workloads and the request lines they send.
//!
//! Every line is a function of `(workload, seed, connection, index)`
//! only, so a run can be replayed and re-checked line by line without
//! keeping the lines it sent.

use storage_alloc::sap_core::Instance;
use storage_alloc::sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};

/// Closed-loop client connections, each with one request outstanding.
/// One: every solve already fans out over three threads, and the timed
/// processes share one CPU, so a second connection would measure the
/// scheduler.
pub const CLIENTS: usize = 1;

/// Distinct instances replayed by `warm-repeat`.
pub const WARM_POOL: usize = 32;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique Mixed-regime instances in the `--suite net` shape, sized
    /// down to 16 tasks so a run holds thousands of lines. The medium
    /// arm's Elevator exact search dominates solve time.
    ColdMixed,
    /// Unique instances alternating between the δ-small regime
    /// (200 tasks: LP rounding plus greedy), two lines in three, and the
    /// ½-large regime (80 tasks: rectangle MWIS). No task is medium.
    ColdWide,
    /// A pool of [`WARM_POOL`] `cold-wide` instances, solved once while
    /// setting up and then replayed, so every timed line is a cache hit.
    WarmRepeat,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ColdMixed,
        Workload::ColdWide,
        Workload::WarmRepeat,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMixed => "cold-mixed",
            Workload::ColdWide => "cold-wide",
            Workload::WarmRepeat => "warm-repeat",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when every timed line is a distinct instance (a cache miss).
    pub fn is_cold(self) -> bool {
        self != Workload::WarmRepeat
    }

    fn tag(self) -> u64 {
        match self {
            Workload::ColdMixed => 1,
            Workload::ColdWide => 2,
            Workload::WarmRepeat => 3,
        }
    }
}

/// splitmix64 finaliser: spreads `(seed, workload, conn, index)` into
/// unrelated generator seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn instance_seed(workload: Workload, seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(seed ^ workload.tag().rotate_left(56)) ^ stream) ^ index)
}

/// The `--suite net` network shape: 12 edges, random-walk capacities
/// in 32..=512, spans of at most 4 edges, weights up to 40.
fn net_shape(num_tasks: usize, regime: DemandRegime) -> GenConfig {
    GenConfig {
        num_edges: 12,
        num_tasks,
        profile: CapacityProfile::RandomWalk { lo: 32, hi: 512 },
        regime,
        max_span: 4,
        max_weight: 40,
    }
}

/// Every how many `cold-wide`-family lines one is ½-large; the others
/// are δ-small. Not every second: the two kinds cost the server
/// different times, and with as many of each the median line would
/// fall in the gap between them and flip from one side to the other
/// between runs.
const LARGE_EVERY: u64 = 3;

/// One `cold-wide`-family instance: δ-small (δ = 1/16), or ½-large at
/// every [`LARGE_EVERY`]th index.
fn wide_instance(gen_seed: u64, index: u64) -> Instance {
    if index % LARGE_EVERY != LARGE_EVERY - 1 {
        generate(
            &net_shape(200, DemandRegime::Small { delta_inv: 16 }),
            gen_seed,
        )
    } else {
        generate(&net_shape(80, DemandRegime::Large { k: 2 }), gen_seed)
    }
}

/// The `warm-repeat` pool for `seed`.
pub fn warm_pool(seed: u64) -> Vec<Instance> {
    (0..WARM_POOL as u64)
        .map(|i| wide_instance(instance_seed(Workload::WarmRepeat, seed, u64::MAX, i), i))
        .collect()
}

/// Which pool entry connection `conn` sends as its `index`-th timed
/// line: round-robin, offset by half the pool per connection.
pub fn warm_slot(conn: usize, index: usize) -> usize {
    (index + conn * (WARM_POOL / CLIENTS)) % WARM_POOL
}

/// Which pool entries connection `conn` solves during the warm-up pass.
pub fn warmup_slots(conn: usize) -> std::ops::Range<usize> {
    let per = WARM_POOL / CLIENTS;
    conn * per..(conn + 1) * per
}

/// The instance of cold line `index` on connection `conn`.
///
/// # Panics
///
/// Panics for `warm-repeat`, whose lines come from [`warm_pool`].
pub fn cold_instance(workload: Workload, seed: u64, conn: usize, index: usize) -> Instance {
    let gen_seed = instance_seed(workload, seed, conn as u64, index as u64);
    match workload {
        Workload::ColdMixed => generate(&net_shape(16, DemandRegime::Mixed), gen_seed),
        Workload::ColdWide => wide_instance(gen_seed, index as u64),
        Workload::WarmRepeat => panic!("warm-repeat lines come from warm_pool"),
    }
}

/// The request line for an instance: the bare compact instance document
/// [`storage_alloc::io::InstanceDto`] writes, formatted directly. Going through the JSON
/// tree costs ten times as much, and the clients make their next line
/// while the server works on the current one, on the same cores.
pub fn line_of(instance: &Instance) -> String {
    fn push_u64(s: &mut String, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        s.extend(digits[i..].iter().map(|&d| char::from(d)));
    }
    let mut s = String::with_capacity(64 + 48 * instance.num_tasks());
    s.push_str("{\"capacities\":[");
    for (k, &c) in instance.network().capacities().iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        push_u64(&mut s, c);
    }
    s.push_str("],\"tasks\":[");
    for (k, t) in instance.tasks().iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str("{\"lo\":");
        push_u64(&mut s, t.span.lo as u64);
        s.push_str(",\"hi\":");
        push_u64(&mut s, t.span.hi as u64);
        s.push_str(",\"demand\":");
        push_u64(&mut s, t.demand);
        s.push_str(",\"weight\":");
        push_u64(&mut s, t.weight);
        s.push('}');
    }
    s.push_str("]}");
    s
}

/// Deterministic source of every line a run sends and checks.
pub struct Lines {
    workload: Workload,
    seed: u64,
    pool: Vec<Instance>,
    pool_lines: Vec<String>,
}

impl Lines {
    /// The line source of one workload and seed.
    pub fn new(workload: Workload, seed: u64) -> Lines {
        let pool = if workload.is_cold() {
            Vec::new()
        } else {
            warm_pool(seed)
        };
        let pool_lines = pool.iter().map(line_of).collect();
        Lines {
            workload,
            seed,
            pool,
            pool_lines,
        }
    }

    /// The workload these lines belong to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The seed these lines were made from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `warm-repeat` pool instances (empty for cold workloads).
    pub fn pool(&self) -> &[Instance] {
        &self.pool
    }

    /// The `warm-repeat` pool lines (empty for cold workloads).
    pub fn pool_lines(&self) -> &[String] {
        &self.pool_lines
    }

    /// The instance of timed line `index` on connection `conn`.
    pub fn instance(&self, conn: usize, index: usize) -> Instance {
        if self.workload.is_cold() {
            cold_instance(self.workload, self.seed, conn, index)
        } else {
            self.pool[warm_slot(conn, index)].clone()
        }
    }

    /// Timed line `index` on connection `conn`.
    pub fn line(&self, conn: usize, index: usize) -> String {
        if self.workload.is_cold() {
            line_of(&cold_instance(self.workload, self.seed, conn, index))
        } else {
            self.pool_lines[warm_slot(conn, index)].clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_alloc::sap_algs::SapParams;
    use storage_alloc::sap_core::classify_by_size;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }

    #[test]
    fn lines_are_deterministic_and_distinct() {
        let a = Lines::new(Workload::ColdMixed, 7);
        let b = Lines::new(Workload::ColdMixed, 7);
        assert_eq!(a.line(1, 3), b.line(1, 3));
        assert_ne!(a.line(0, 3), a.line(1, 3));
        assert_ne!(a.line(0, 3), a.line(0, 4));
        assert_ne!(a.line(0, 3), Lines::new(Workload::ColdMixed, 8).line(0, 3));
    }

    #[test]
    fn lines_are_the_interchange_format() {
        use storage_alloc::io::{InstanceDto, JsonDto};
        for (w, index) in [
            (Workload::ColdMixed, 0),
            (Workload::ColdWide, 0),
            (Workload::ColdWide, 1),
        ] {
            let inst = cold_instance(w, 3, 1, index);
            assert_eq!(
                line_of(&inst),
                InstanceDto::from_instance(&inst).to_json_string()
            );
        }
    }

    #[test]
    fn cold_wide_has_no_medium_tasks() {
        let p = SapParams::default();
        for index in 0..6 {
            let inst = cold_instance(Workload::ColdWide, 1, 0, index);
            let c = classify_by_size(&inst, p.delta_small, p.delta_large);
            assert!(c.medium.is_empty(), "line {index}");
            if index % 3 != 2 {
                assert_eq!(c.small.len(), 200);
            } else {
                assert_eq!(c.large.len(), 80);
            }
        }
    }

    #[test]
    fn warm_slots_cover_the_pool() {
        let mut seen = [0; WARM_POOL];
        for conn in 0..CLIENTS {
            for slot in warmup_slots(conn) {
                seen[slot] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
        for conn in 0..CLIENTS {
            assert_eq!(warm_slot(conn, 0), conn * (WARM_POOL / CLIENTS));
        }
        assert_eq!(warm_slot(0, WARM_POOL), 0);
    }
}
