//! # gridftp — the wholesale data-movement baseline
//!
//! The paper's motivating comparison (§1): the original Grid paradigm
//! moved entire datasets to the compute site with GridFTP before a job ran
//! and moved outputs back afterwards. The Global File System replaces that
//! with direct WAN file access. Reproducing the comparison requires the
//! baseline, so this crate implements a GridFTP-style transfer engine over
//! the same flow-level network:
//!
//! * **Parallel streams** (`-p N`): one control-channel round-trip plus
//!   authentication delay, then `N` concurrent TCP flows splitting the
//!   file, each window-capped.
//! * **Striped transfers**: multiple (source, destination) server pairs
//!   moving shares concurrently — the mode the TeraGrid used between
//!   striped storage servers.
//! * **File sets**: per-file control setup costs, which is what makes
//!   many-small-file datasets so much worse than their byte count
//!   suggests.

#![allow(clippy::type_complexity)] // Sim callback signatures are inherent to the event-driven style
use simcore::{Join, Sim, SimDuration};
use simnet::{FlowSpec, NetWorld, Network, NodeId};

/// One GridFTP transfer request.
#[derive(Clone, Debug)]
pub struct TransferSpec {
    /// Sending node (or the default pair when `stripes` is empty).
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload bytes.
    pub bytes: u64,
    /// Parallel TCP streams per (src,dst) pair (`globus-url-copy -p`).
    pub parallel_streams: u32,
    /// Per-stream TCP window (bytes); `None` for unlimited.
    pub tcp_window: Option<u64>,
    /// Striped server pairs; empty means just `(src, dst)`.
    pub stripes: Vec<(NodeId, NodeId)>,
    /// Accounting tag.
    pub tag: u32,
    /// Control-channel setup cost beyond the network round-trip (GSI
    /// authentication, session negotiation).
    pub setup_overhead: SimDuration,
}

impl TransferSpec {
    /// A single-pair transfer with sensible 2005 defaults: 4 parallel
    /// streams, 1 MB windows, ~100 ms of GSI/control setup.
    pub fn new(src: NodeId, dst: NodeId, bytes: u64) -> Self {
        TransferSpec {
            src,
            dst,
            bytes,
            parallel_streams: 4,
            tcp_window: Some(1024 * 1024),
            stripes: Vec::new(),
            tag: 0,
            setup_overhead: SimDuration::from_millis(100),
        }
    }

    /// Set stream count.
    pub fn with_streams(mut self, n: u32) -> Self {
        assert!(n > 0);
        self.parallel_streams = n;
        self
    }

    /// Set per-stream window.
    pub fn with_window(mut self, w: u64) -> Self {
        self.tcp_window = Some(w);
        self
    }

    /// Set striped server pairs.
    pub fn with_stripes(mut self, stripes: Vec<(NodeId, NodeId)>) -> Self {
        self.stripes = stripes;
        self
    }

    /// Set the accounting tag.
    pub fn with_tag(mut self, tag: u32) -> Self {
        self.tag = tag;
        self
    }

    fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        if self.stripes.is_empty() {
            vec![(self.src, self.dst)]
        } else {
            self.stripes.clone()
        }
    }
}

/// Run one transfer; `on_done` fires when the last byte lands.
pub fn transfer<W: NetWorld>(
    sim: &mut Sim<W>,
    w: &mut W,
    spec: TransferSpec,
    on_done: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
) {
    assert!(spec.bytes > 0, "transfer needs bytes");
    let pairs = spec.pairs();
    let total_streams = pairs.len() as u64 * u64::from(spec.parallel_streams);
    let per_stream = spec.bytes / total_streams;
    let rem = spec.bytes % total_streams;

    // Control channel: one round-trip to the (first) source plus setup.
    let ctl_src = spec.src;
    let ctl_dst = spec.dst;
    let setup = spec.setup_overhead;
    Network::send_msg(sim, w, ctl_dst, ctl_src, 512, move |sim, w| {
        Network::send_msg(sim, w, ctl_src, ctl_dst, 512, move |sim, _w| {
            sim.after(setup, move |sim, w| {
                let join = Join::<W>::new(total_streams as usize, move |sim, w, _| on_done(sim, w));
                let mut idx = 0u64;
                for (s, d) in pairs {
                    for _ in 0..spec.parallel_streams {
                        let share = per_stream + u64::from(idx < rem);
                        idx += 1;
                        if share == 0 {
                            join.arrive(sim, w, Ok(()));
                            continue;
                        }
                        let join = join.clone();
                        let fspec = FlowSpec {
                            src: s,
                            dst: d,
                            bytes: share,
                            window: spec.tcp_window,
                            tag: spec.tag,
                        };
                        Network::start_flow(sim, w, fspec, move |sim, w| {
                            join.arrive(sim, w, Ok(()))
                        });
                    }
                }
            });
        });
    });
}

/// Transfer a dataset of many files sequentially (each pays control
/// setup); `on_done` fires after the last file.
pub fn transfer_fileset<W: NetWorld>(
    sim: &mut Sim<W>,
    w: &mut W,
    template: TransferSpec,
    mut file_sizes: Vec<u64>,
    on_done: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
) {
    file_sizes.reverse(); // pop from the back = original order
    next_file(sim, w, template, file_sizes, Box::new(on_done));
}

fn next_file<W: NetWorld>(
    sim: &mut Sim<W>,
    w: &mut W,
    template: TransferSpec,
    mut remaining: Vec<u64>,
    on_done: Box<dyn FnOnce(&mut Sim<W>, &mut W)>,
) {
    let Some(size) = remaining.pop() else {
        on_done(sim, w);
        return;
    };
    let mut spec = template.clone();
    spec.bytes = size.max(1);
    let template2 = template.clone();
    transfer(sim, w, spec, move |sim, w| {
        next_file(sim, w, template2, remaining, on_done);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Bandwidth, SimTime, MBYTE};
    use simnet::TopologyBuilder;

    struct World {
        net: Network<World>,
        done_at: Vec<SimTime>,
    }
    impl NetWorld for World {
        fn net(&mut self) -> &mut Network<World> {
            &mut self.net
        }
    }

    /// src --1Gb/s, 30ms-- dst (a TeraGrid-ish WAN path)
    fn world() -> (Sim<World>, World, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let s = b.node("src");
        let d = b.node("dst");
        b.duplex_link(s, d, Bandwidth::gbit(1.0), SimDuration::from_millis(30), "wan");
        (
            Sim::new(),
            World {
                net: Network::new(b.build(), 1),
                done_at: Vec::new(),
            },
            s,
            d,
        )
    }

    #[test]
    fn single_stream_window_limited() {
        let (mut sim, mut w, s, d) = world();
        // 1 MB window / 60 ms RTT ≈ 16.6 MB/s, far below the 125 MB/s link.
        let spec = TransferSpec::new(s, d, 100 * MBYTE).with_streams(1);
        transfer(&mut sim, &mut w, spec, |sim, w: &mut World| {
            w.done_at.push(sim.now())
        });
        sim.run(&mut w);
        let t = w.done_at[0].as_secs_f64();
        assert!(
            (5.5..7.0).contains(&t),
            "1-stream 100MB over 60ms RTT took {t}s (expect ~6.2)"
        );
    }

    #[test]
    fn parallel_streams_multiply_throughput() {
        let (mut sim, mut w, s, d) = world();
        // 8 × 1 MB windows ≈ 133 MB/s requested ⇒ link-limited at 125.
        let spec = TransferSpec::new(s, d, 125 * MBYTE).with_streams(8);
        transfer(&mut sim, &mut w, spec, |sim, w: &mut World| {
            w.done_at.push(sim.now())
        });
        sim.run(&mut w);
        let t = w.done_at[0].as_secs_f64();
        assert!(
            (1.0..1.5).contains(&t),
            "8-stream transfer took {t}s (expect ~1.2)"
        );
    }

    #[test]
    fn striping_uses_multiple_pairs() {
        let mut b = TopologyBuilder::new();
        let s1 = b.node("s1");
        let s2 = b.node("s2");
        let d1 = b.node("d1");
        let d2 = b.node("d2");
        b.duplex_link(s1, d1, Bandwidth::gbit(1.0), SimDuration::from_millis(10), "p1");
        b.duplex_link(s2, d2, Bandwidth::gbit(1.0), SimDuration::from_millis(10), "p2");
        let mut w = World {
            net: Network::new(b.build(), 1),
            done_at: Vec::new(),
        };
        let mut sim = Sim::new();
        let spec = TransferSpec::new(s1, d1, 250 * MBYTE)
            .with_streams(4)
            .with_window(8 * MBYTE)
            .with_stripes(vec![(s1, d1), (s2, d2)]);
        transfer(&mut sim, &mut w, spec, |sim, w: &mut World| {
            w.done_at.push(sim.now())
        });
        sim.run(&mut w);
        let t = w.done_at[0].as_secs_f64();
        // 250 MB over two 125 MB/s paths ≈ 1 s + setup.
        assert!((1.0..1.35).contains(&t), "striped transfer took {t}s");
    }

    #[test]
    fn fileset_pays_per_file_setup() {
        let (mut sim, mut w, s, d) = world();
        // 100 files × 1 MB with ~160 ms setup+RTT each ⇒ dominated by
        // control costs, not the 0.8 s of data.
        let template = TransferSpec::new(s, d, 1)
            .with_streams(4)
            .with_window(8 * MBYTE);
        let files = vec![MBYTE; 100];
        transfer_fileset(&mut sim, &mut w, template, files, |sim, w: &mut World| {
            w.done_at.push(sim.now())
        });
        sim.run(&mut w);
        let t = w.done_at[0].as_secs_f64();
        assert!(
            t > 16.0,
            "100-file set took {t}s — should be setup-dominated (>16s)"
        );
    }

    #[test]
    fn whole_dataset_vs_partial_access_motivation() {
        // The paper's §1 argument in numbers: moving all of an NVO-like
        // dataset versus touching 1% of it in place. Scaled to 5 GB to
        // keep the test fast; the ratio carries.
        let (mut sim, mut w, s, d) = world();
        let total = 5_000 * MBYTE;
        let spec = TransferSpec::new(s, d, total)
            .with_streams(8)
            .with_window(8 * MBYTE);
        transfer(&mut sim, &mut w, spec, |sim, w: &mut World| {
            w.done_at.push(sim.now())
        });
        sim.run(&mut w);
        let stage_all = w.done_at[0].as_secs_f64();

        let start = sim.now();
        let spec = TransferSpec::new(s, d, total / 100)
            .with_streams(8)
            .with_window(8 * MBYTE);
        transfer(&mut sim, &mut w, spec, |sim, w: &mut World| {
            w.done_at.push(sim.now())
        });
        sim.run(&mut w);
        let partial = w.done_at[1].since(start).as_secs_f64();
        assert!(
            stage_all > 20.0 * partial,
            "staging ({stage_all}s) should dwarf partial access ({partial}s)"
        );
    }

    #[test]
    fn zero_length_fileset_completes() {
        let (mut sim, mut w, s, d) = world();
        let template = TransferSpec::new(s, d, 1);
        transfer_fileset(&mut sim, &mut w, template, vec![], |sim, w: &mut World| {
            w.done_at.push(sim.now())
        });
        sim.run(&mut w);
        assert_eq!(w.done_at.len(), 1);
    }

    #[test]
    #[should_panic(expected = "transfer needs bytes")]
    fn zero_byte_transfer_rejected() {
        let (mut sim, mut w, s, d) = world();
        transfer(
            &mut sim,
            &mut w,
            TransferSpec::new(s, d, 0),
            |_s, _w: &mut World| {},
        );
    }
}
