//! Max-min fair bandwidth allocation with per-flow rate caps
//! (water-filling / progressive-filling algorithm).
//!
//! This is the analytical heart of every throughput number in the paper:
//! long-lived bulk TCP flows sharing wide-area links converge to
//! approximately max-min fair rates, and a flow whose TCP window is smaller
//! than the bandwidth-delay product is additionally capped at
//! `window / RTT`. The solver raises all flow rates uniformly; the first
//! constraint to bind is either a link saturating (freezing all flows
//! crossing it) or a flow hitting its individual cap (freezing that flow).
//!
//! ## Incremental solving
//!
//! [`Solver`] is the reusable engine: it keeps every scratch buffer between
//! calls (no allocation on the hot path once warmed up) and fills each
//! **connected component** of the flow set — flows joined transitively by
//! shared links — with its own fill level. The caller finds the components
//! and hands them over grouped ([`Solver::solve_grouped`]); the network
//! layer's `recompute_dirty` does so for its dirty components only, which
//! leans on two properties:
//!
//! 1. Components are arithmetically independent: a component's rates are a
//!    pure function of its own flows (in order) and its own links. Re-solving
//!    one component in isolation is therefore **bit-for-bit identical** to
//!    solving the whole system and reading off that component's rates. The
//!    same holds for several components filled as one group.
//! 2. Constraint freezing uses exact comparisons against the per-round
//!    level (no epsilon tolerances), and a cap-frozen flow's rate is its cap
//!    *exactly* — which lets callers prove small mutations (an uncapped-link
//!    add, an unsaturated-path remove) leave every other rate untouched.
//!
//! ## Link-indexed filling
//!
//! A solve first indexes every (link, flow) crossing by link. A fill round
//! then scans only its group's live links — unsaturated and still crossed
//! by an unfrozen flow — for the binding level, takes binding caps from a
//! cap-sorted list, and freezes the flows of each saturating link once,
//! through the index. A solve costs O(crossings + rounds × links) rather
//! than O(rounds × crossings).

/// One flow in the solver input: its path is `path_buf[start..start + len]`
/// in the caller-held path buffer. Callers on the hot path keep both
/// buffers alive across solves.
#[derive(Clone, Copy, Debug)]
pub struct FlatFlow {
    /// Offset of the first link index in the shared path buffer.
    pub start: u32,
    /// Number of links in the path.
    pub len: u32,
    /// Individual rate cap in bytes/sec (`f64::INFINITY` when unlimited);
    /// typically `window / RTT`.
    pub cap: f64,
}

/// Per-link solver scratch: one record per link id, so a fill round reads
/// one cache line per link.
#[derive(Clone, Copy, Default)]
struct LinkState {
    /// Crossings by still-unfrozen flows; a path that repeats the link
    /// counts twice.
    active: u32,
    /// The flows crossing the link are `crossings[first..end]`.
    first: u32,
    end: u32,
    /// Sum of the rates of frozen crossings.
    frozen_sum: f64,
    seen: bool,
    saturated: bool,
}

/// Reusable max-min solver: scratch buffers persist across calls so the
/// steady-state solve performs no heap allocation.
#[derive(Default)]
pub struct Solver {
    // Per-link scratch, sized to the largest link id seen (+1). Reset lazily
    // through `touched_links` so solve cost scales with the flows' footprint,
    // not the topology size.
    links: Vec<LinkState>,
    touched_links: Vec<u32>,
    /// Per group, the end of its run of links in `touched_links`.
    group_link_ends: Vec<u32>,
    /// Link-major index of every (link, flow) crossing.
    crossings: Vec<u32>,
    // Per-flow scratch.
    frozen: Vec<bool>,
    // Per-round scratch.
    live: Vec<u32>,
    cap_order: Vec<u32>,
    saturating: Vec<u32>,
    cap_frozen: Vec<u32>,
    level_frozen: Vec<u32>,
}

impl Solver {
    /// Fresh solver with empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Links marked saturated (they froze at least one flow) by the last
    /// solve, for link ids < the scratch size. Valid until the next call.
    pub fn link_saturated(&self, link: u32) -> bool {
        self.links.get(link as usize).is_some_and(|s| s.saturated)
    }

    /// Links registered (crossed by some flow) in the last solve. Paired
    /// with [`Solver::link_saturated`] this lets incremental callers merge
    /// fresh saturation flags into their own persistent per-link state.
    pub fn touched_links(&self) -> &[u32] {
        &self.touched_links
    }

    /// Size the per-link scratch and clear what the previous call touched.
    fn reset_links(&mut self, nl: usize) {
        if self.links.len() < nl {
            self.links.resize(nl, LinkState::default());
        }
        for &l in &self.touched_links {
            self.links[l as usize] = LinkState::default();
        }
        self.touched_links.clear();
    }

    /// Compute max-min fair rates for `meta`'s flows over `link_capacity`,
    /// writing one rate per flow into `out` (cleared first). The flows come
    /// grouped by connected component: group `g` ends at `group_ends[g]`,
    /// no two groups share a link (several components may share a group),
    /// and every flow's path is non-empty. Each group is filled on its own.
    /// All scratch is reused; after warmup the call allocates nothing.
    pub fn solve_grouped(
        &mut self,
        link_capacity: &[f64],
        path_buf: &[u32],
        meta: &[FlatFlow],
        group_ends: &[u32],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(meta.len(), 0.0);
        self.reset_links(link_capacity.len());
        debug_assert_eq!(group_ends.last().map_or(0, |&e| e as usize), meta.len());
        let path = |i: u32| {
            let f = &meta[i as usize];
            &path_buf[f.start as usize..][..f.len as usize]
        };
        if self.frozen.len() < meta.len() {
            self.frozen.resize(meta.len(), false);
        }

        // Register each group's links as one run of `touched_links` and
        // count crossings.
        self.group_link_ends.clear();
        let mut begin = 0;
        for (g, &end) in group_ends.iter().enumerate() {
            for i in begin..end {
                debug_assert!(!path(i).is_empty(), "grouped flows need a path");
                for &l in path(i) {
                    let s = &mut self.links[l as usize];
                    if !s.seen {
                        s.seen = true;
                        // Which group registered the link, until the
                        // crossing index below reuses the field.
                        s.first = g as u32;
                        self.touched_links.push(l);
                    }
                    debug_assert_eq!(s.first, g as u32, "groups share link {l}");
                    s.active += 1;
                }
            }
            self.group_link_ends.push(self.touched_links.len() as u32);
            begin = end;
        }

        // Link `l`'s crossings become `crossings[first..end]`, in flow
        // order (a repeated link lists its flow once per crossing).
        let mut next = 0;
        for &l in &self.touched_links {
            let s = &mut self.links[l as usize];
            s.first = next;
            s.end = next;
            next += s.active;
        }
        self.crossings.clear();
        self.crossings.resize(next as usize, 0);
        for i in 0..meta.len() as u32 {
            for &l in path(i) {
                let s = &mut self.links[l as usize];
                self.crossings[s.end as usize] = i;
                s.end += 1;
            }
        }

        let (mut begin, mut link_begin) = (0, 0);
        for (g, &end) in group_ends.iter().enumerate() {
            let link_end = self.group_link_ends[g] as usize;
            self.live.clear();
            self.live
                .extend_from_slice(&self.touched_links[link_begin..link_end]);
            self.fill(link_capacity, path_buf, meta, begin..end, out);
            begin = end;
            link_begin = link_end;
        }
    }

    /// Progressive-fill one group, whose links are in `self.live`. Each
    /// round scans only the group's live links (unsaturated, still crossed
    /// by an unfrozen flow) for the binding level, then freezes the flows
    /// of each saturating link once, through the crossing index.
    ///
    /// The rates are bit-identical to the flow-scanning fill (kept as
    /// `reference::ReferenceSolver` for the tests): the levels are the same
    /// minima, and each link's frozen sum sees the same additions in the
    /// same order — first the round's cap-frozen flows in flow order, then
    /// one `+= level` per level-frozen crossing.
    fn fill(
        &mut self,
        link_capacity: &[f64],
        path_buf: &[u32],
        meta: &[FlatFlow],
        members: std::ops::Range<u32>,
        out: &mut [f64],
    ) {
        let path = |i: u32| {
            let f = &meta[i as usize];
            &path_buf[f.start as usize..][..f.len as usize]
        };
        let Solver {
            links,
            crossings,
            frozen,
            live,
            cap_order,
            saturating,
            cap_frozen,
            level_frozen,
            ..
        } = self;
        for i in members.clone() {
            frozen[i as usize] = false;
        }
        let mut unfrozen = members.len();
        // Flows whose own cap can bind, cheapest first; the stable sort
        // keeps flow order among equal caps. Uncapped flows never bind.
        cap_order.clear();
        cap_order.extend(
            members
                .clone()
                .filter(|&i| meta[i as usize].cap < f64::INFINITY),
        );
        cap_order.sort_by(|&a, &b| meta[a as usize].cap.total_cmp(&meta[b as usize].cap));
        // Every unfrozen capped flow sits in `cap_order[next_cap..]`.
        let mut next_cap = 0;

        while unfrozen > 0 {
            // The next binding level is the smallest constraint candidate:
            // links offer (capacity - frozen share) / active crossings,
            // flows offer their own cap. Exact comparisons throughout.
            while next_cap < cap_order.len() && frozen[cap_order[next_cap] as usize] {
                next_cap += 1;
            }
            let mut best = cap_order
                .get(next_cap)
                .map_or(f64::INFINITY, |&i| meta[i as usize].cap);
            let mut kept = 0;
            for k in 0..live.len() {
                let l = live[k];
                let s = &links[l as usize];
                if s.saturated || s.active == 0 {
                    continue;
                }
                live[kept] = l;
                kept += 1;
                let cand = (link_capacity[l as usize] - s.frozen_sum) / s.active as f64;
                if cand < best {
                    best = cand;
                }
            }
            live.truncate(kept);
            if !best.is_finite() {
                // No finite constraint: the rest are unconstrained.
                for i in members.clone() {
                    if !frozen[i as usize] {
                        out[i as usize] = f64::INFINITY;
                        frozen[i as usize] = true;
                    }
                }
                break;
            }
            let best = best.max(0.0);

            // The links that saturate at this level, judged on the state
            // before this round's freezes. The test repeats the candidate
            // expression verbatim so it agrees with `best` bit for bit (a
            // rearranged comparison could disagree after rounding and stall
            // the round).
            saturating.clear();
            saturating.extend(live.iter().copied().filter(|&l| {
                let s = &links[l as usize];
                (link_capacity[l as usize] - s.frozen_sum) / s.active as f64 <= best
            }));

            // Freeze, in deterministic order: first every flow whose own
            // cap binds at this level (rate = cap, exactly), then every
            // flow crossing a link that saturates at this level (rate =
            // level). The argmin constraint always freezes at least one
            // flow, so each round makes progress.
            cap_frozen.clear();
            for &i in &cap_order[next_cap..] {
                if meta[i as usize].cap > best {
                    break;
                }
                if !frozen[i as usize] {
                    cap_frozen.push(i);
                }
            }
            cap_frozen.sort_unstable();
            for &i in cap_frozen.iter() {
                frozen[i as usize] = true;
                out[i as usize] = meta[i as usize].cap;
            }
            level_frozen.clear();
            for &l in saturating.iter() {
                let s = &mut links[l as usize];
                s.saturated = true;
                for &i in &crossings[s.first as usize..s.end as usize] {
                    if !frozen[i as usize] {
                        frozen[i as usize] = true;
                        out[i as usize] = best;
                        level_frozen.push(i);
                    }
                }
            }
            debug_assert!(
                !cap_frozen.is_empty() || !level_frozen.is_empty(),
                "water-fill round stalled"
            );
            for &i in cap_frozen.iter() {
                let rate = out[i as usize];
                for &l in path(i) {
                    let s = &mut links[l as usize];
                    s.active -= 1;
                    s.frozen_sum += rate;
                }
            }
            for &i in level_frozen.iter() {
                for &l in path(i) {
                    let s = &mut links[l as usize];
                    s.active -= 1;
                    s.frozen_sum += best;
                }
            }
            unfrozen -= cap_frozen.len() + level_frozen.len();
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::ReferenceSolver;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * b.abs().max(1.0)
    }

    /// Pack `(path, cap)` flows into the solver's flat input.
    fn pack(flows: &[(&[u32], f64)]) -> (Vec<u32>, Vec<FlatFlow>) {
        let mut paths = Vec::new();
        let meta = flows
            .iter()
            .map(|&(p, cap)| {
                let start = paths.len() as u32;
                paths.extend_from_slice(p);
                FlatFlow { start, len: p.len() as u32, cap }
            })
            .collect();
        (paths, meta)
    }

    /// Solve flows with non-empty paths the way the network does: grouped
    /// by component ([`components`]) through `solve_grouped`. The rates
    /// come back in flow order.
    fn solve_with(solver: &mut Solver, caps: &[f64], paths: &[u32], meta: &[FlatFlow]) -> Vec<f64> {
        let (members, ends) = components(caps.len(), paths, meta);
        let packed: Vec<FlatFlow> = members.iter().map(|&i| meta[i as usize]).collect();
        let mut grouped = Vec::new();
        solver.solve_grouped(caps, paths, &packed, &ends, &mut grouped);
        let mut out = vec![f64::NAN; meta.len()];
        for (&i, &r) in members.iter().zip(&grouped) {
            out[i as usize] = r;
        }
        out
    }

    fn solve(caps: &[f64], flows: &[(&[u32], f64)]) -> Vec<f64> {
        let (paths, meta) = pack(flows);
        solve_with(&mut Solver::new(), caps, &paths, &meta)
    }

    const OPEN: f64 = f64::INFINITY;

    fn flow(path: &[u32], cap: f64) -> (&[u32], f64) {
        (path, cap)
    }

    #[test]
    fn single_flow_takes_link() {
        let rates = solve(&[100.0], &[flow(&[0], OPEN)]);
        assert!(close(rates[0], 100.0));
    }

    #[test]
    fn equal_split_on_shared_link() {
        for r in solve(&[90.0], &[flow(&[0], OPEN); 3]) {
            assert!(close(r, 30.0));
        }
    }

    #[test]
    fn window_cap_binds_before_link() {
        // One capped flow and one open flow share a 100-unit link: the
        // capped flow gets its cap, the open flow gets the rest.
        let rates = solve(&[100.0], &[flow(&[0], 10.0), flow(&[0], OPEN)]);
        assert!(close(rates[0], 10.0));
        assert!(close(rates[1], 90.0));
    }

    #[test]
    fn classic_max_min_three_flows_two_links() {
        // Link0 cap 10 shared by f0 and f2; link1 cap 100 shared by f1, f2.
        // f0 = f2 = 5 (bottleneck link0), f1 = 95.
        let flows = [flow(&[0], OPEN), flow(&[1], OPEN), flow(&[0, 1], OPEN)];
        let rates = solve(&[10.0, 100.0], &flows);
        assert!(close(rates[0], 5.0));
        assert!(close(rates[1], 95.0));
        assert!(close(rates[2], 5.0));
    }

    #[test]
    fn no_flows() {
        let mut out = vec![1.0];
        Solver::new().solve_grouped(&[10.0], &[], &[], &[], &mut out);
        assert!(out.is_empty());
    }

    /// Every other flow capped at 15, on four links of mixed capacity.
    fn mixed(paths: &[Vec<u32>]) -> Vec<(&[u32], f64)> {
        let cap = |i: usize| if i.is_multiple_of(2) { 15.0 } else { OPEN };
        paths.iter().enumerate().map(|(i, p)| (&p[..], cap(i))).collect()
    }

    #[test]
    fn conservation_and_capacity_respected() {
        // Randomized-ish topology checked for feasibility invariants.
        let caps = [50.0, 80.0, 20.0, 100.0];
        let paths: Vec<Vec<u32>> = vec![
            vec![0, 1],
            vec![1, 2],
            vec![0, 2, 3],
            vec![3],
            vec![0],
            vec![2],
        ];
        let flows = mixed(&paths);
        let rates = solve(&caps, &flows);
        // No link over capacity.
        for (l, &c) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|((p, _), _)| p.contains(&(l as u32)))
                .map(|(_, r)| r)
                .sum();
            assert!(used <= c + 1e-6, "link {l} over capacity: {used} > {c}");
        }
        // No flow over its cap, and every flow got something positive.
        for ((_, cap), r) in flows.iter().zip(&rates) {
            assert!(*r <= cap + 1e-6);
            assert!(*r > 0.0);
        }
    }

    #[test]
    fn bottleneck_flow_does_not_starve_parallel_flows() {
        // The paper's SC'04 setup: three parallel 10 Gb/s links. Flows pinned
        // to distinct links must each saturate their own link.
        let rates = solve(&[10.0; 3], &[flow(&[0], OPEN), flow(&[1], OPEN), flow(&[2], OPEN)]);
        let agg: f64 = rates.iter().sum();
        assert!(close(agg, 30.0));
    }

    #[test]
    fn cap_frozen_rate_is_exact() {
        // The network layer's fast paths rely on cap-frozen flows getting
        // their cap bit-for-bit, not cap ± epsilon.
        let cap = 123.456_789_012_345;
        let rates = solve(&[1_000.0], &[flow(&[0], cap), flow(&[0], OPEN)]);
        assert_eq!(rates[0], cap);
        assert!(close(rates[1], 1_000.0 - cap));
    }

    #[test]
    fn down_link_zeroes_crossing_flows_only() {
        // A zero-capacity (down) link stalls its flows at exactly 0 without
        // affecting a disjoint component.
        let rates = solve(&[0.0, 50.0], &[flow(&[0], OPEN), flow(&[1], OPEN)]);
        assert_eq!(rates[0], 0.0);
        assert!(close(rates[1], 50.0));
    }

    #[test]
    fn components_solve_independently() {
        // Two disjoint components in one call must match two separate calls
        // bit-for-bit: the incremental network layer depends on this.
        let caps = [10.0, 100.0, 7.0, 33.0];
        let a: [&[u32]; 3] = [&[0], &[0, 1], &[1]];
        let b: [&[u32]; 2] = [&[2, 3], &[3]];
        fn first_capped<'a>(paths: &[&'a [u32]]) -> Vec<(&'a [u32], f64)> {
            let cap = |i: usize| if i == 0 { 4.25 } else { OPEN };
            paths.iter().enumerate().map(|(i, &p)| (p, cap(i))).collect()
        }
        let joint: Vec<_> = first_capped(&a).into_iter().chain(first_capped(&b)).collect();
        let joint = solve(&caps, &joint);
        assert_eq!(&joint[..3], &solve(&caps, &first_capped(&a))[..]);
        assert_eq!(&joint[3..], &solve(&caps, &first_capped(&b))[..]);
    }

    #[test]
    fn solver_reuse_matches_fresh() {
        // A warmed-up solver (dirty scratch from an unrelated solve) must
        // produce identical bits to a fresh one.
        let caps = [50.0, 80.0, 20.0, 100.0];
        let paths: Vec<Vec<u32>> =
            vec![vec![0, 1], vec![1, 2], vec![0, 2, 3], vec![3], vec![0]];
        let (paths, meta) = pack(&mixed(&paths));
        let fresh = solve_with(&mut Solver::new(), &caps, &paths, &meta);
        let mut solver = Solver::new();
        // Pollute scratch with a different problem first.
        solve_with(&mut solver, &[5.0; 4], &paths, &meta[..2]);
        assert_eq!(fresh, solve_with(&mut solver, &caps, &paths, &meta));
    }

    /// One random solver instance, drawn to hit the fill's edge cases:
    /// several components, caps tied to link levels, uncapped flows,
    /// negative caps, down (zero-capacity) links, links repeated within a
    /// path, empty paths.
    fn random_instance(r: &mut StdRng) -> (Vec<f64>, Vec<u32>, Vec<FlatFlow>) {
        let nl = r.gen_range(1usize..=12);
        // Small integral capacities make levels such as 30/4 recur exactly.
        let caps: Vec<f64> = (0..nl)
            .map(|_| match r.gen_range(0u32..=9) {
                0 => 0.0,
                1..=6 => f64::from(r.gen_range(1u32..=6) * 10),
                _ => r.gen_range(1.0f64..=100.0),
            })
            .collect();
        // Split the links into up to three disjoint pools; most paths stay
        // inside one pool, so one instance holds several components.
        let pools = r.gen_range(1usize..=3).min(nl);
        let pool_of = |l: usize| l * pools / nl;
        let nf = r.gen_range(0usize..=30);
        let mut paths = Vec::new();
        let mut meta = Vec::new();
        for _ in 0..nf {
            let pool = r.gen_range(0usize..=pools - 1);
            let in_pool: Vec<u32> = (0..nl)
                .filter(|&l| pool_of(l) == pool || r.gen::<f64>() < 0.05)
                .map(|l| l as u32)
                .collect();
            let hops = if r.gen::<f64>() < 0.05 {
                0
            } else {
                r.gen_range(1usize..=4)
            };
            let start = paths.len() as u32;
            for _ in 0..hops {
                paths.push(in_pool[r.gen_range(0usize..=in_pool.len() - 1)]);
            }
            if hops > 0 && r.gen::<f64>() < 0.15 {
                // Cross one link twice.
                let again = paths[r.gen_range(start as usize..=paths.len() - 1)];
                paths.push(again);
            }
            let len = paths.len() as u32 - start;
            let cap = match r.gen_range(0u32..=19) {
                0..=7 => f64::INFINITY,
                // A level some link can reach exactly: capacity / k.
                8..=13 => caps[r.gen_range(0usize..=nl - 1)] / f64::from(r.gen_range(1u32..=4)),
                14..=15 => f64::from(r.gen_range(1u32..=6) * 5),
                16..=18 => r.gen_range(0.5f64..=80.0),
                // Negative caps clamp the round's level to zero; they are the
                // only caps that freeze at distinct values in one round, so
                // they pin the flow order of the frozen-sum additions.
                _ => -r.gen_range(0.5f64..=80.0),
            };
            meta.push(FlatFlow { start, len, cap });
        }
        (caps, paths, meta)
    }

    /// Components of `meta`'s flows with a non-empty path, as the network
    /// layer would hand them to [`Solver::solve_grouped`]: flow indices
    /// grouped by component, flow order within each, plus group ends.
    fn components(nl: usize, paths: &[u32], meta: &[FlatFlow]) -> (Vec<u32>, Vec<u32>) {
        let mut parent: Vec<usize> = (0..nl).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                x = p[x];
            }
            x
        }
        let path = |f: &FlatFlow| &paths[f.start as usize..][..f.len as usize];
        for f in meta {
            for w in path(f).windows(2) {
                let a = find(&mut parent, w[0] as usize);
                let b = find(&mut parent, w[1] as usize);
                parent[a.max(b)] = a.min(b);
            }
        }
        let mut members: Vec<(usize, u32)> = meta
            .iter()
            .enumerate()
            .filter_map(|(i, f)| Some((find(&mut parent, *path(f).first()? as usize), i as u32)))
            .collect();
        members.sort_by_key(|&(root, _)| root);
        let mut ends = Vec::new();
        for k in 1..members.len() {
            if members[k].0 != members[k - 1].0 {
                ends.push(k as u32);
            }
        }
        if !members.is_empty() {
            ends.push(members.len() as u32);
        }
        (members.into_iter().map(|(_, i)| i).collect(), ends)
    }

    fn assert_same_bits(case: u32, what: &str, want: &[f64], got: &[f64]) {
        assert_eq!(want.len(), got.len(), "case {case} {what}: rate count");
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "case {case} {what}: flow {i} got {g}, reference {w}"
            );
        }
    }

    #[test]
    fn link_indexed_fill_matches_reference_bitwise() {
        let mut r = StdRng::seed_from_u64(0x11_f111);
        let mut reference = ReferenceSolver::default();
        let mut warm = Solver::new();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for case in 0..6_000u32 {
            let (caps, paths, meta) = random_instance(&mut r);
            reference.solve_flat(&caps, &paths, &meta, &mut want);
            // The network's entry point: components found by the caller,
            // flows with an empty path left out (the network settles them
            // at their cap without a solve).
            let (members, ends) = components(caps.len(), &paths, &meta);
            let packed: Vec<FlatFlow> = members.iter().map(|&i| meta[i as usize]).collect();
            let expect: Vec<f64> = members.iter().map(|&i| want[i as usize]).collect();
            warm.solve_grouped(&caps, &paths, &packed, &ends, &mut got);
            assert_same_bits(case, "warm solve_grouped", &expect, &got);
            if meta.is_empty() {
                // The reference keeps its last instance's scratch.
                continue;
            }
            let mut touched = warm.touched_links().to_vec();
            let mut ref_touched = reference.touched_links().to_vec();
            touched.sort_unstable();
            ref_touched.sort_unstable();
            assert_eq!(touched, ref_touched, "case {case}: touched links");
            for &l in &touched {
                assert_eq!(
                    warm.link_saturated(l),
                    reference.link_saturated(l),
                    "case {case}: saturation of link {l}"
                );
            }
            Solver::new().solve_grouped(&caps, &paths, &packed, &ends, &mut got);
            assert_same_bits(case, "cold solve_grouped", &expect, &got);
            // Every component filled as one group: the same bits.
            let one = [packed.len() as u32];
            let one = if packed.is_empty() { &one[..0] } else { &one[..] };
            warm.solve_grouped(&caps, &paths, &packed, one, &mut got);
            assert_same_bits(case, "one-group solve_grouped", &expect, &got);
        }
    }
}
