//! Measurement core of the opd benchmark.
//!
//! One invocation runs one workload (`paper`, `grid` or `soak`) for a
//! fixed measuring time and prints one JSON object of raw samples,
//! digests and (with `--trace 1`) per-layer values. `run.py` next to
//! this package builds it, checks the digests against the pinned
//! references, reduces the samples and prints the benchmark result.
//!
//! Usage: `perfbench --workload <paper|grid|soak> --seconds <s>
//! --trace <0|1> --size <full|tiny> --tmp <dir> [--seed <n>]
//! [--cross-check]`

mod grid;
mod out;
mod paper;
mod soak;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use out::Obj;

/// Worker threads every workload runs with (the reference box has 2
/// cores).
pub const THREADS: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub tmp: PathBuf,
    pub cross_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        tiny: false,
        tmp: PathBuf::from(".bench_tmp"),
        cross_check: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--cross-check" {
            args.cross_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--size" => args.tiny = value == "tiny",
            "--tmp" => args.tmp = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut obj = Obj::default();
    obj.str("workload", &args.workload);
    obj.str("size", if args.tiny { "tiny" } else { "full" });
    obj.int("threads", THREADS as u64);
    obj.int(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    let result = match args.workload.as_str() {
        "paper" => paper::run(&args, &mut obj),
        "grid" => grid::run(&args, &mut obj),
        "soak" => soak::run(&args, &mut obj),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    obj.num("peak_rss_mb", peak_rss_mb());
    println!("{}", obj.finish());
    ExitCode::SUCCESS
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` once and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

/// Calls `round` until `seconds` have passed (at least once), stopping
/// at the round boundary nearest the deadline or at the first error,
/// and returns how many rounds ran.
pub fn for_seconds(
    seconds: f64,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let started = Instant::now();
    let mut n = 0;
    loop {
        round()?;
        n += 1;
        let elapsed = secs(started);
        if elapsed + elapsed / n as f64 / 2.0 >= seconds {
            return Ok(n);
        }
    }
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Reads one `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// The measured rounds of one run: each round sets the workload up and
/// runs one sample of it.
#[derive(Default)]
pub struct Samples {
    setup: Vec<f64>,
    wall: Vec<f64>,
    work: Vec<f64>,
    fail: Vec<f64>,
    digest: Vec<String>,
}

impl Samples {
    /// Records one round: its set-up and sample seconds, the work the
    /// sample did, the share of that work that failed, and the sample's
    /// output digest.
    pub fn push(&mut self, setup: f64, wall: f64, work: f64, fail: f64, digest: String) {
        self.setup.push(setup);
        self.wall.push(wall);
        self.work.push(work);
        self.fail.push(fail);
        self.digest.push(digest);
    }

    /// The first measured sample's output digest.
    pub fn first_digest(&self) -> &str {
        &self.digest[0]
    }

    pub fn write(self, obj: &mut Obj) {
        obj.nums("setup_s", &self.setup);
        obj.nums("wall_s", &self.wall);
        obj.nums("work", &self.work);
        obj.nums("fail_frac", &self.fail);
        obj.strs("digest", &self.digest);
    }
}

/// User plus system CPU time of this process (all threads, exited ones
/// included), in seconds, from `/proc/self/stat` at 100 ticks a second.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// 64-bit FNV-1a, the digest every output check uses.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Per-layer values collected over the rounds of a traced run; each is
/// reported as its median over rounds.
#[derive(Default)]
pub struct Layers(std::collections::BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn finish(self) -> Obj {
        let mut obj = Obj::default();
        for (name, values) in self.0 {
            obj.num(name, median(&values));
        }
        obj
    }
}

/// Run-level output checks (fidelity of traced re-enactments,
/// cross-checks); a check that fails in any round fails the run.
#[derive(Default)]
pub struct Checks(std::collections::BTreeMap<&'static str, bool>);

impl Checks {
    pub fn record(&mut self, name: &'static str, ok: bool) {
        *self.0.entry(name).or_insert(true) &= ok;
    }

    pub fn finish(self) -> Obj {
        let mut obj = Obj::default();
        for (name, ok) in self.0 {
            obj.bool(name, ok);
        }
        obj
    }
}
