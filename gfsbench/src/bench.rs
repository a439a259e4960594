//! Shared run machinery: per-op recording, the traced-run span stack,
//! layer samples and the replay logs the per-layer breakdown reads.
//!
//! Every number carries one of two labels. **Model** figures come from
//! simulated time and are bit-identical for a given seed. **Host** figures
//! come from the wall clock of the machine running the benchmark. The two
//! are never mixed in one metric.

use crate::hist::LogHist;
use globalfs::gfs::cache::PageKey;
use globalfs::gfs::{ByteRange, ClientId, FsError, InodeId, TokenMode};
use globalfs::simcore::{Sim, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Latency class of a benchmark op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// stat, readdir, read.
    Rd = 0,
    /// mkdir, create, small-write, rename, unlink, write.
    Wr = 1,
}

/// A deliberate defect the self-test plants to prove a check can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corrupt {
    /// Honest run.
    None,
    /// Flip the expected outcome of one oracle-checked op.
    Oracle,
    /// Flip one expected read byte.
    Bytes,
    /// Drop one op's completion so its session chain never drains.
    Stall,
    /// Corrupt one block pointer before the integrity gate runs fsck.
    Fsck,
    /// Count one stale replica read before the invariant sweep.
    Invariant,
}

/// FxHash-style order-sensitive mixer for result fingerprints.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Stable code per error variant.
pub fn err_code(e: &FsError) -> u64 {
    match e {
        FsError::NotFound(_) => 1,
        FsError::AlreadyExists(_) => 2,
        FsError::NotADirectory(_) => 3,
        FsError::IsADirectory(_) => 4,
        FsError::NotEmpty(_) => 5,
        FsError::NoSpace => 6,
        FsError::BadHandle => 7,
        FsError::ReadOnly => 8,
        FsError::NotMounted(_) => 9,
        FsError::AuthFailed(_) => 10,
        FsError::InvalidArgument(_) => 11,
        FsError::Timeout => 12,
        FsError::ServerDown => 13,
        FsError::Degraded(_) => 14,
    }
}

/// An error that means the system gave up on the op.
pub fn gave_up(e: &FsError) -> bool {
    matches!(
        e,
        FsError::Timeout | FsError::ServerDown | FsError::Degraded(_)
    )
}

/// Small deterministic generator (splitmix64) for workload inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a label.
    pub fn new(seed: u64, label: u64) -> Self {
        Rng(mix(seed ^ 0x9e37_79b9_7f4a_7c15, label))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Per-round op accounting (model side plus failure counting).
#[derive(Default)]
pub struct Recorder {
    /// Steady-state latency per class, model nanoseconds: ops whose
    /// completion falls between the 10th and 90th percentile of the
    /// round's known op count (see `window`).
    pub lat: [LogHist; 2],
    /// Latency per class over every op, ramp-up and drain included.
    pub lat_all: [LogHist; 2],
    /// Completion-index range `[lo, hi)` of the steady-state window.
    pub window: (u64, u64),
    /// Ops issued.
    pub attempted: u64,
    /// Ops whose completion callback ran.
    pub completed: u64,
    /// Completed ops that failed a check or gave up.
    pub failed: u64,
    /// Failures that were Timeout / ServerDown / Degraded.
    pub gave_up: u64,
    /// Order-sensitive fingerprint over every op result.
    pub fingerprint: u64,
    /// First few failures, for the log.
    pub samples: Vec<String>,
    /// Bytes returned by reads.
    pub read_bytes: u64,
    /// Bytes accepted by writes.
    pub write_bytes: u64,
    /// Completion time of the last op.
    pub last_done: SimTime,
    /// Per completion, in order: (time ns, read bytes, write bytes so far).
    pub log: Vec<(u64, u64, u64)>,
    /// Host nanoseconds into the measured phase, byte checks excluded,
    /// after every `MARK_EVERY` events of an untraced round.
    pub marks: Vec<u64>,
}

impl Recorder {
    /// One op completed: latency, fingerprint, verdict.
    pub fn done(
        &mut self,
        class: Class,
        code: u64,
        t0: SimTime,
        now: SimTime,
        verdict: Result<(), String>,
    ) {
        let lat = now.as_nanos() - t0.as_nanos();
        if (self.window.0..self.window.1).contains(&self.completed) {
            self.lat[class as usize].record(lat);
        }
        self.lat_all[class as usize].record(lat);
        self.done_untimed(code, now, verdict);
    }

    /// One op completed that has no latency class (data_grid's opens and
    /// closes).
    pub fn done_untimed(&mut self, code: u64, now: SimTime, verdict: Result<(), String>) {
        self.completed += 1;
        self.last_done = self.last_done.max(now);
        self.log
            .push((now.as_nanos(), self.read_bytes, self.write_bytes));
        self.fingerprint = mix(self.fingerprint, code);
        if let Err(why) = verdict {
            self.fail(why);
        }
    }

    /// The steady-state window over the middle 80% of completions (from
    /// the 10th to the 90th percentile completion, by count): ops, read
    /// bytes, write bytes and modeled seconds. Ramp-up and the drain tail
    /// are left out.
    pub fn steady_window(&self) -> (f64, f64, f64, f64) {
        let n = self.log.len();
        if n < 10 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let (a, b) = (self.log[n / 10], self.log[n * 9 / 10]);
        let ops = (n * 9 / 10 - n / 10) as f64;
        (
            ops,
            (b.1 - a.1) as f64,
            (b.2 - a.2) as f64,
            (b.0 - a.0) as f64 / 1e9,
        )
    }

    /// Count a failure found outside an op's own callback.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.samples.len() < 8 {
            self.samples.push(why);
        }
    }

    /// Classify an error outcome against the outcomes the op may race to.
    pub fn check_err(&mut self, e: &FsError, allowed: &[u64], what: &str) -> Result<(), String> {
        if gave_up(e) {
            self.gave_up += 1;
            return Err(format!("{what}: gave up with {e:?}"));
        }
        if allowed.contains(&err_code(e)) {
            Ok(())
        } else {
            Err(format!("{what}: unexpected {e:?}"))
        }
    }
}

/// Host-time span kinds of the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// Inside `Sim::step`.
    Step = 0,
    /// Inside a benchmark completion callback.
    Callback = 1,
    /// Inside a `Session` call.
    Submit = 2,
    /// Inside the benchmark's own output checks.
    Verify = 3,
}

/// A namespace op in completion order, for the `FsCore` apply replay.
#[derive(Clone, Debug)]
pub enum NsOp {
    Stat(String),
    Readdir(String),
    Mkdir(String),
    Create(String),
    Unlink(String),
    Rename(String, String),
}

/// One logged token call: an acquire of `(range, mode)`, or (`None`) the
/// release of everything the client holds on the inode at close.
pub type TokenOp = (InodeId, ClientId, Option<(ByteRange, TokenMode)>);

/// Traced-run state: self-time per span kind plus layer samples and the
/// logs the replays consume.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<(Span, Instant, u64)>,
    /// Self nanoseconds per span kind.
    pub self_ns: [u64; 4],
    /// Spans closed per kind.
    pub spans: [u64; 4],
    /// Largest event-queue length seen.
    pub pending_max: usize,
    /// Owning manager shard's `busy_until - now` at submit, ns.
    pub mgr_backlog: LogHist,
    /// Latency minus RTT, shard backlog and per-op service, ns.
    pub unexplained: LogHist,
    /// Largest NSD `busy_until - now` over the farm at submit, ns.
    pub nsd_backlog: LogHist,
    /// Active flows, sampled every event.
    pub flows: LogHist,
    /// WAN throughput at data-op completions, Mb/s.
    pub wan_mbps: LogHist,
    /// Largest WAL length over every shard.
    pub wal_len_max: usize,
    /// Namespace ops in completion order.
    pub ns_log: Vec<NsOp>,
    /// Resolved paths with their mount context, in submission order.
    pub paths: Vec<(u32, String)>,
    /// Page-pool accesses `(ctx, key)` in call order.
    pub blocks: Vec<(u32, PageKey)>,
    /// Token traffic: `Some(range, mode)` acquires, `None` a close release.
    pub tokens: Vec<TokenOp>,
    /// Round-trip cache for the unexplained-latency split.
    pub rtt_ns: BTreeMap<(u32, u32), u64>,
}

/// Everything a round's callbacks share.
pub struct Bench {
    /// Op accounting.
    pub rec: RefCell<Recorder>,
    /// Present in traced rounds only.
    pub tr: Option<RefCell<Tracer>>,
    /// Self-test defect, if any.
    pub corrupt: Corrupt,
    /// Host nanoseconds spent comparing read bytes (excluded from the
    /// measured window).
    pub verify_ns: Cell<u64>,
}

/// Closes a span on drop.
pub struct SpanGuard(Rc<Bench>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(tr) = &self.0.tr {
            let mut t = tr.borrow_mut();
            let (kind, start, child) = t.stack.pop().expect("span stack underflow");
            let total = start.elapsed().as_nanos() as u64;
            t.self_ns[kind as usize] += total.saturating_sub(child);
            t.spans[kind as usize] += 1;
            if let Some(parent) = t.stack.last_mut() {
                parent.2 += total;
            }
        }
    }
}

impl Bench {
    /// Fresh shared state.
    pub fn new(trace: bool, corrupt: Corrupt) -> Rc<Bench> {
        Rc::new(Bench {
            rec: RefCell::new(Recorder::default()),
            tr: trace.then(|| RefCell::new(Tracer::default())),
            corrupt,
            verify_ns: Cell::new(0),
        })
    }

    /// Is this a traced round?
    pub fn tracing(&self) -> bool {
        self.tr.is_some()
    }

    /// Open a span (traced rounds only); it closes when the guard drops.
    pub fn span(self: &Rc<Self>, kind: Span) -> Option<SpanGuard> {
        let tr = self.tr.as_ref()?;
        tr.borrow_mut().stack.push((kind, Instant::now(), 0));
        Some(SpanGuard(self.clone()))
    }

    /// Run a traced closure over the tracer, if tracing.
    pub fn with_tr(&self, f: impl FnOnce(&mut Tracer)) {
        if let Some(tr) = &self.tr {
            f(&mut tr.borrow_mut());
        }
    }

    /// Set the steady-state window from the round's total op count.
    pub fn expect_ops(&self, total: u64) {
        self.rec.borrow_mut().window = (total / 10, total * 9 / 10);
    }

    /// Charge the byte check that started at `t` to the verify time.
    pub fn add_verify(&self, t: Instant) {
        self.verify_ns
            .set(self.verify_ns.get() + t.elapsed().as_nanos() as u64);
    }

    /// Record that an op was issued.
    pub fn issue(&self) {
        self.rec.borrow_mut().attempted += 1;
    }
}

/// Events between two host-time marks of an untraced round.
pub const MARK_EVERY: usize = 16;

/// Drive the simulation to quiescence. Untraced rounds mark the host time
/// every `MARK_EVERY` events (see `Recorder::marks`). Traced rounds step
/// one event at a time so each step is a span and the queue length can be
/// sampled; `sample` runs between steps of a traced round.
pub fn drive<W>(
    b: &Rc<Bench>,
    sim: &mut Sim<W>,
    w: &mut W,
    mut sample: impl FnMut(&Sim<W>, &W, &mut Tracer),
) {
    if !b.tracing() {
        let (t0, v0) = (Instant::now(), b.verify_ns.get());
        let mut marks = Vec::new();
        let mut more = true;
        while more {
            for _ in 0..MARK_EVERY {
                more = sim.step(w);
                if !more {
                    break;
                }
            }
            let host = t0.elapsed().as_nanos() as u64;
            marks.push(host.saturating_sub(b.verify_ns.get() - v0));
        }
        b.rec.borrow_mut().marks = marks;
        return;
    }
    loop {
        let more = {
            let _g = b.span(Span::Step);
            sim.step(w)
        };
        if !more {
            break;
        }
        let mut t = b.tr.as_ref().expect("traced").borrow_mut();
        t.pending_max = t.pending_max.max(sim.pending());
        sample(sim, w, &mut t);
    }
}

/// This process's (user, kernel) CPU time so far, in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(s) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = s.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    match f.as_slice() {
        [u, k] => (*u, *k),
        _ => (0, 0),
    }
}

/// Kernel share of the CPU time between two `cpu_ticks` readings.
pub fn kernel_frac(a: (u64, u64), b: (u64, u64)) -> f64 {
    let (u, k) = (b.0.saturating_sub(a.0), b.1.saturating_sub(a.1));
    if u + k == 0 {
        0.0
    } else {
        k as f64 / (u + k) as f64
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds `calibrate` takes on one uncontended core of the reference
/// machine, a 2-vCPU x86-64 Xeon (Sapphire Rapids) KVM guest.
pub const CAL_REF_S: f64 = 0.048;

/// How much more the simulation slows than `calibrate` when other tenants
/// contend for the machine: across runs on the reference machine, a
/// round's host time grew as the kernel's time to the power 1.5 on every
/// workload. Host times multiplied by `(CAL_REF_S / calibrate())^CAL_EXP`
/// are reference seconds.
pub const CAL_EXP: f64 = 1.5;

/// Host seconds of a fixed kernel that shares no code with the program:
/// 200,000 insert/remove pairs on a fresh `BTreeMap` of up to 64 Ki keys.
/// Like the simulation it chases pointers through a working set of a few
/// MiB, so it slows in the spells when other tenants of a shared machine
/// contend for the last-level cache and memory. It allocates only small
/// nodes: freeing a large block would raise glibc's dynamic mmap threshold
/// and change how the program's own 1 MiB buffers are allocated.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut m = BTreeMap::new();
    let mut r = Rng::new(0xca1, 0);
    for i in 0..200_000u64 {
        let x = r.next();
        m.insert(x % 65_536, i);
        m.remove(&((x >> 20) % 65_536));
    }
    std::hint::black_box(m.len());
    t.elapsed().as_secs_f64()
}

/// A workload round's outcome.
pub struct RoundOut {
    /// Host seconds spent building the world and generating inputs.
    pub setup_s: f64,
    /// Host wall seconds of the measured phase (the closed-loop run),
    /// byte checks excluded.
    pub measured_s: f64,
    /// Model nanoseconds from the first issue to the last completion.
    pub span_ns: u64,
    /// Op accounting.
    pub rec: Recorder,
    /// Liveness and integrity violations (the round fails if non-empty).
    pub gate: Vec<String>,
    /// Determinism witness: result fingerprint folded with model state.
    pub fingerprint: u64,
    /// Per-layer metrics of a traced round: name → (value, unit).
    pub layers: BTreeMap<String, (f64, &'static str)>,
    /// Human-readable shape line (sizes and counts).
    pub shape: String,
}

impl RoundOut {
    /// A round stopped after set-up (extra set-up samples for the median).
    pub fn setup_only(setup_s: f64) -> RoundOut {
        RoundOut {
            setup_s,
            measured_s: 0.0,
            span_ns: 0,
            rec: Recorder::default(),
            gate: Vec::new(),
            fingerprint: 0,
            layers: BTreeMap::new(),
            shape: String::new(),
        }
    }
}
