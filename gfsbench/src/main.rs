//! gfsbench — the end-to-end benchmark of the globalfs simulation.
//!
//! ```text
//! gfsbench --workload <meta_sharded|meta_untar|data_grid> --seed <n>
//!          --seconds <s> --trace <0|1>
//! gfsbench --self-test
//! ```
//!
//! Each round builds a fresh world (set-up), runs the closed-loop workload
//! to quiescence (the measured phase), and then gates on liveness and
//! integrity. A run plays one round in each of the workload's seeded
//! sub-worlds and pools their model metrics, then repeats sub-world 0
//! until `--seconds` of host time have passed; a repeat must reproduce the
//! sub-world bit for bit. Host times are rescaled to a reference machine
//! speed by a calibration kernel run around every round (see
//! `bench::calibrate`); host throughput takes each segment of the measured
//! phase at its median over the repeats (see `host_rate`), and set-up time
//! is the median of the warm set-ups. With `--trace 1` a further traced
//! round of sub-world 0 reports the per-layer breakdown. The last line of
//! standard output is one JSON object.

#![allow(clippy::too_many_arguments)] // op chains carry (sim, world, session, ids...) like the program's own paths

mod bench;
mod data;
mod hist;
mod layers;
mod meta;
mod selftest;

use bench::{peak_rss_mib, Class, Corrupt, RoundOut};
use std::process::ExitCode;
use std::time::Instant;

/// Warm set-ups every run times at least (set-up-only rounds fill in).
const MIN_SETUPS: usize = 21;
/// Timed rounds of sub-world 0 every run plays at least.
const MIN_REPEATS: usize = 3;
/// Upper bound on rounds per run, whatever `--seconds` says.
const MAX_ROUNDS: usize = 50;

/// The workloads, in report order.
pub const WORKLOADS: [&str; 3] = ["meta_sharded", "meta_untar", "data_grid"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?.clone(),
            "--seed" => {
                a.seed = val()?
                    .parse()
                    .map_err(|_| "--seed takes an integer".to_string())?
            }
            "--seconds" => {
                a.seconds = val()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// One round of `workload` (the small shapes serve the self-test).
pub fn round(workload: &str, seed: u64, small: bool, trace: bool, corrupt: Corrupt) -> RoundOut {
    run_round(workload, seed, small, trace, corrupt, false)
}

fn run_round(
    workload: &str,
    seed: u64,
    small: bool,
    trace: bool,
    corrupt: Corrupt,
    setup_only: bool,
) -> RoundOut {
    match workload {
        "meta_sharded" => {
            let shape = if small {
                meta::MetaShape::small_sharded()
            } else {
                meta::MetaShape::sharded()
            };
            meta::run(seed, shape, trace, corrupt, setup_only)
        }
        "meta_untar" => {
            let shape = if small {
                meta::MetaShape::small_untar()
            } else {
                meta::MetaShape::untar()
            };
            meta::run(seed, shape, trace, corrupt, setup_only)
        }
        "data_grid" => {
            let shape = if small {
                data::GridShape::small()
            } else {
                data::GridShape::full()
            };
            data::run(seed, shape, trace, corrupt, setup_only)
        }
        other => unreachable!("unchecked workload {other}"),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Segments each round's measured phase is cut into for `host_rate`.
const SEGMENTS: usize = 64;

/// Host seconds of each of a round's `SEGMENTS` equal runs of events.
fn segment_s(r: &RoundOut) -> Vec<f64> {
    let m = &r.rec.marks;
    let at = |j: usize| {
        let x = j * m.len() / SEGMENTS;
        if x == 0 {
            0
        } else {
            m[x - 1]
        }
    };
    (0..SEGMENTS)
        .map(|j| at(j + 1).saturating_sub(at(j)) as f64 / 1e9)
        .collect()
}

/// Completed ops of sub-world 0 per reference second of its measured
/// phase. Every repeat of the sub-world runs the same events, so each
/// segment is taken at its median over the repeats, after rescaling by
/// the round's `speed`: the calibration removes the slow spells other
/// tenants of a shared machine cause, which last longer than a round, and
/// the median removes the bursts and heap layouts that slow single
/// segments of single rounds.
fn host_rate(rounds: &[Timed]) -> f64 {
    let reps: Vec<Vec<f64>> = rounds
        .iter()
        .filter(|t| t.world == 0)
        .map(|t| segment_s(&t.out).iter().map(|s| s * t.speed).collect())
        .collect();
    let secs: f64 = (0..SEGMENTS)
        .map(|seg| median(reps.iter().map(|r| r[seg]).collect()))
        .sum();
    rounds[0].out.rec.completed as f64 / secs.max(1e-12)
}

/// A round with the sub-world it played and its calibration.
struct Timed {
    world: usize,
    out: RoundOut,
    /// `CAL_REF_S` over the calibration kernel's time around the round, to
    /// the power `CAL_EXP`: multiplies the round's host times into
    /// reference seconds.
    speed: f64,
}

/// Runs rounds between calibrations: each round's speed comes from the
/// kernel timed just before and just after it.
struct Calibrated {
    last: f64,
}

impl Calibrated {
    fn new() -> Self {
        Calibrated {
            last: bench::calibrate(),
        }
    }

    fn run(&mut self, play: impl FnOnce() -> RoundOut) -> (RoundOut, f64) {
        let out = play();
        let next = bench::calibrate();
        let speed = (bench::CAL_REF_S / ((self.last + next) / 2.0)).powf(bench::CAL_EXP);
        self.last = next;
        (out, speed)
    }
}

/// The model-side quantities a round must reproduce exactly at one seed.
pub fn model_key(r: &RoundOut) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.fingerprint,
        r.span_ns,
        r.rec.completed,
        r.rec.read_bytes,
        r.rec.write_bytes,
        r.rec.lat[0].quantile(0.99).to_bits(),
        r.rec.lat[1].quantile(0.5).to_bits(),
    )
}

const GIB: f64 = (1u64 << 30) as f64;

/// Independent worlds (sub-seeds of the run's seed) a run pools its model
/// metrics over: enough that a run measures several thousand ops per
/// latency class and each p99 spreads under a tenth from seed to seed.
fn subworlds(workload: &str) -> usize {
    match workload {
        "meta_sharded" => 5,
        "meta_untar" => 6,
        _ => 12,
    }
}

/// Seed of sub-world `i` of a run at `seed`.
fn subseed(seed: u64, i: usize) -> u64 {
    bench::mix(seed, i as u64 + 1)
}

/// Model results pooled over a run's sub-worlds.
struct Pooled {
    attempted: u64,
    completed: u64,
    failed: u64,
    fingerprint: u64,
    lat: [hist::LogHist; 2],
    lat_all: [hist::LogHist; 2],
    /// Steady-state ops, read bytes and write bytes per modeled second.
    rates: (f64, f64, f64),
}

impl Pooled {
    fn of(rounds: &[&RoundOut]) -> Pooled {
        let mut p = Pooled {
            attempted: 0,
            completed: 0,
            failed: 0,
            fingerprint: 0,
            lat: Default::default(),
            lat_all: Default::default(),
            rates: (0.0, 0.0, 0.0),
        };
        let (mut ops, mut rb, mut wb, mut secs) = (0.0, 0.0, 0.0, 0.0);
        for r in rounds {
            p.attempted += r.rec.attempted;
            p.completed += r.rec.completed;
            p.failed += r.rec.failed;
            p.fingerprint = bench::mix(p.fingerprint, r.fingerprint);
            for c in 0..2 {
                p.lat[c].merge(&r.rec.lat[c]);
                p.lat_all[c].merge(&r.rec.lat_all[c]);
            }
            let w = r.rec.steady_window();
            ops += w.0;
            rb += w.1;
            wb += w.2;
            secs += w.3;
        }
        let secs = secs.max(1e-12);
        p.rates = (ops / secs, rb / secs, wb / secs);
        p
    }
}

/// End-to-end metrics of a run: (name, value, unit, label).
fn end_to_end(
    p: &Pooled,
    rounds: &[Timed],
    setups: &[f64],
    rss: f64,
) -> Vec<(&'static str, f64, &'static str, &'static str)> {
    let rd = &p.lat[Class::Rd as usize];
    let wr = &p.lat[Class::Wr as usize];
    vec![
        ("setup_s", median(setups.to_vec()), "s", "host"),
        ("host_ops_per_s", host_rate(rounds), "1/s", "host"),
        ("host_peak_rss_mib", rss, "MiB", "host"),
        ("model_ops_per_s", p.rates.0, "1/s", "model"),
        ("model_lat_p50_us.rd", rd.quantile(0.5) / 1e3, "us", "model"),
        (
            "model_lat_p99_us.rd",
            rd.quantile(0.99) / 1e3,
            "us",
            "model",
        ),
        ("model_lat_p50_us.wr", wr.quantile(0.5) / 1e3, "us", "model"),
        (
            "model_lat_p99_us.wr",
            wr.quantile(0.99) / 1e3,
            "us",
            "model",
        ),
        ("model_read_gib_per_s", p.rates.1 / GIB, "GiB/s", "model"),
        ("model_write_gib_per_s", p.rates.2 / GIB, "GiB/s", "model"),
    ]
}

fn json_metrics(ms: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:e}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn fail_gate(r: &RoundOut, what: &str) -> ExitCode {
    eprintln!("{what}: liveness/integrity gate failed, no numbers reported:");
    for g in r.gate.iter().take(20) {
        eprintln!("  {g}");
    }
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--self-test") {
        return if selftest::run_all(&mut std::io::stdout()) {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gfsbench: {e}");
            eprintln!(
                "usage: gfsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            eprintln!("       gfsbench --self-test");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let k = subworlds(&args.workload);
    // One round per sub-world, then repeats of sub-world 0 (each checked
    // against its first round) until `--seconds` have passed.
    let mut cal = Calibrated::new();
    let mut rounds: Vec<Timed> = Vec::new();
    while rounds.len() < k + MIN_REPEATS - 1
        || (start.elapsed().as_secs_f64() < args.seconds && rounds.len() < MAX_ROUNDS)
    {
        let i = if rounds.len() < k { rounds.len() } else { 0 };
        let (r, speed) = cal.run(|| {
            round(
                &args.workload,
                subseed(args.seed, i),
                false,
                false,
                Corrupt::None,
            )
        });
        if !r.gate.is_empty() {
            return fail_gate(&r, &args.workload);
        }
        // Determinism witness: a repeat must reproduce the sub-world's
        // first round in every model quantity and the result fingerprint.
        if rounds.len() >= k && model_key(&r) != model_key(&rounds[i].out) {
            eprintln!(
                "{}: sub-world {i} diverged from its first round at the same seed",
                args.workload
            );
            return ExitCode::from(1);
        }
        rounds.push(Timed {
            world: i,
            out: r,
            speed,
        });
    }
    // The first round of each sub-world also warms the heap, so set-up
    // time is taken from the repeats on.
    let mut setups: Vec<f64> = rounds
        .iter()
        .skip(k)
        .map(|t| t.out.setup_s * t.speed)
        .collect();
    while setups.len() < MIN_SETUPS {
        let (r, speed) = cal.run(|| {
            run_round(
                &args.workload,
                subseed(args.seed, 0),
                false,
                false,
                Corrupt::None,
                true,
            )
        });
        setups.push(r.setup_s * speed);
    }
    let rss = peak_rss_mib();
    let firsts: Vec<&RoundOut> = rounds.iter().take(k).map(|t| &t.out).collect();
    let pooled = Pooled::of(&firsts);
    println!("{} (x{k} sub-worlds)", firsts[0].shape);
    println!(
        "seed {} | {} rounds | {} ops attempted, {} completed, {} failed | latency samples (steady window / all): rd {} / {}, wr {} / {} | fingerprint {:#018x}",
        args.seed,
        rounds.len(),
        pooled.attempted,
        pooled.completed,
        pooled.failed,
        pooled.lat[0].count(),
        pooled.lat_all[0].count(),
        pooled.lat[1].count(),
        pooled.lat_all[1].count(),
        pooled.fingerprint
    );
    for (c, name) in ["rd", "wr"].iter().enumerate() {
        let h = &pooled.lat_all[c];
        println!(
            "  all {name} ops: p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us [model]",
            h.quantile(0.5) / 1e3,
            h.quantile(0.99) / 1e3,
            h.quantile(0.999) / 1e3
        );
    }
    let per_round: Vec<String> = rounds
        .iter()
        .map(|t| {
            format!(
                "{}:{:.0}/{:.2}",
                t.world,
                t.out.rec.completed as f64 / t.out.measured_s,
                t.speed
            )
        })
        .collect();
    println!(
        "  host ops/s per round, unscaled (sub-world:rate/speed): {}",
        per_round.join(" ")
    );
    for r in &firsts {
        for s in &r.rec.samples {
            println!("  failure: {s}");
        }
    }
    let failed_ratio = pooled.failed as f64 / pooled.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>14.6} {:<8} [check]",
        "failed_op_ratio", failed_ratio, "ratio"
    );
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let traced = round(
            &args.workload,
            subseed(args.seed, 0),
            false,
            true,
            Corrupt::None,
        );
        if !traced.gate.is_empty() {
            return fail_gate(&traced, &args.workload);
        }
        if model_key(&traced) != model_key(firsts[0]) {
            eprintln!("{}: tracing changed the model results", args.workload);
            return ExitCode::from(1);
        }
        let mut layers = traced.layers;
        let untraced = median(
            rounds
                .iter()
                .filter(|t| t.world == 0)
                .map(|t| t.out.measured_s)
                .collect(),
        );
        layers.insert(
            "trace.overhead_ratio".into(),
            (traced.measured_s / untraced, "ratio"),
        );
        layers::complete(&mut layers);
        let mut out = Vec::new();
        for (name, unit) in layers::ALL {
            let (v, _) = layers[*name];
            println!("  {name:<36} {v:>16.6} {unit:<6} [traced]");
            out.push((name.to_string(), v, *unit));
        }
        out
    } else {
        end_to_end(&pooled, &rounds, &setups, rss)
            .into_iter()
            .map(|(n, v, u, label)| {
                println!("  {n:<28} {v:>14.6} {u:<8} [{label}]");
                (n.to_string(), v, u)
            })
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        pooled.failed == 0,
        pooled.attempted,
        pooled.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
