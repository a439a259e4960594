//! The progressive fill as it stood before the link-indexed rewrite, kept
//! verbatim as a test oracle: every round scans every unfrozen flow's path.
//! `super::tests` solves random instances with both solvers and demands
//! identical bits for every rate.

use super::FlatFlow;

/// The pre-rewrite solver: union-find components, then a progressive fill
/// that rescans every unfrozen flow's path each round.
#[derive(Default)]
pub struct ReferenceSolver {
    // Per-link scratch, sized to the largest link id seen (+1). Reset lazily
    // through `touched_links` so solve cost scales with the flows' footprint,
    // not the topology size.
    uf_parent: Vec<u32>,
    active: Vec<u32>,
    frozen_sum: Vec<f64>,
    saturated: Vec<bool>,
    link_seen: Vec<bool>,
    touched_links: Vec<u32>,
    // Per-flow scratch.
    frozen: Vec<bool>,
    comp: Vec<u32>,
    order: Vec<u32>,
    round_frozen: Vec<u32>,
}

impl ReferenceSolver {
    /// Links marked saturated (they froze at least one flow) by the last
    /// solve, for link ids < the scratch size.
    pub fn link_saturated(&self, link: u32) -> bool {
        self.saturated.get(link as usize).copied().unwrap_or(false)
    }

    fn ensure_links(&mut self, nl: usize) {
        if self.uf_parent.len() < nl {
            self.uf_parent.resize(nl, 0);
            self.active.resize(nl, 0);
            self.frozen_sum.resize(nl, 0.0);
            self.saturated.resize(nl, false);
            self.link_seen.resize(nl, false);
        }
    }

    fn uf_find(&mut self, mut l: u32) -> u32 {
        while self.uf_parent[l as usize] != l {
            let p = self.uf_parent[l as usize];
            self.uf_parent[l as usize] = self.uf_parent[p as usize];
            l = self.uf_parent[l as usize];
        }
        l
    }

    /// Max-min rates for the flat flows: flow `i`'s path is
    /// `path_buf[meta[i].start..][..meta[i].len]`.
    pub fn solve_flat(
        &mut self,
        link_capacity: &[f64],
        path_buf: &[u32],
        meta: &[FlatFlow],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let nf = meta.len();
        if nf == 0 {
            return;
        }
        self.ensure_links(link_capacity.len());
        out.resize(nf, 0.0);

        // Reset per-link scratch from the previous call.
        for &l in &self.touched_links {
            self.active[l as usize] = 0;
            self.frozen_sum[l as usize] = 0.0;
            self.saturated[l as usize] = false;
            self.link_seen[l as usize] = false;
        }
        self.touched_links.clear();

        let path = |f: &FlatFlow| &path_buf[f.start as usize..(f.start + f.len) as usize];

        // Pass 1: register links, seed union-find, count active flows.
        for f in meta {
            for &l in path(f) {
                let li = l as usize;
                if !self.link_seen[li] {
                    self.link_seen[li] = true;
                    self.uf_parent[li] = l;
                    self.touched_links.push(l);
                }
                self.active[li] += 1;
            }
        }
        // Pass 2: union every flow's links into one component.
        for f in meta {
            if let Some((&first, rest)) = path(f).split_first() {
                let mut root = self.uf_find(first);
                for &l in rest {
                    let r = self.uf_find(l);
                    if r != root {
                        // Deterministic union: smaller root wins.
                        let (lo, hi) = if r < root { (r, root) } else { (root, r) };
                        self.uf_parent[hi as usize] = lo;
                        root = lo;
                    }
                }
            }
        }

        // Pass 3: assign flows to components; empty-path flows solve
        // trivially to their cap.
        self.comp.clear();
        self.comp.resize(nf, u32::MAX);
        for (i, f) in meta.iter().enumerate() {
            match path(f).first() {
                Some(&l) => self.comp[i] = self.uf_find(l),
                None => out[i] = if f.cap.is_finite() { f.cap } else { f64::INFINITY },
            }
        }

        // Group flow indices by component root, preserving relative order
        // within each component (stable sort by root).
        let comp = &self.comp;
        self.order.clear();
        self.order
            .extend((0..nf as u32).filter(|&i| comp[i as usize] != u32::MAX));
        self.order.sort_by_key(|&i| comp[i as usize]);

        // Pass 4: water-fill each component independently.
        let mut start = 0;
        while start < self.order.len() {
            let root = self.comp[self.order[start] as usize];
            let mut end = start + 1;
            while end < self.order.len() && self.comp[self.order[end] as usize] == root {
                end += 1;
            }
            self.fill_component(link_capacity, path_buf, meta, start..end, out);
            start = end;
        }
    }

    /// Progressive-fill one component: `range` indexes into `self.order`.
    fn fill_component(
        &mut self,
        link_capacity: &[f64],
        path_buf: &[u32],
        meta: &[FlatFlow],
        range: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        let path = |f: &FlatFlow| &path_buf[f.start as usize..(f.start + f.len) as usize];
        self.frozen.resize(meta.len().max(self.frozen.len()), false);
        for &i in &self.order[range.clone()] {
            self.frozen[i as usize] = false;
        }
        let mut unfrozen = range.len();

        while unfrozen > 0 {
            // The next binding level is the smallest constraint candidate:
            // links offer (capacity - frozen share) / active flows, flows
            // offer their own cap. Exact comparisons throughout.
            let mut best = f64::INFINITY;
            for &i in &self.order[range.clone()] {
                let fi = i as usize;
                if self.frozen[fi] {
                    continue;
                }
                if meta[fi].cap < best {
                    best = meta[fi].cap;
                }
                for &l in path(&meta[fi]) {
                    let li = l as usize;
                    if !self.saturated[li] && self.active[li] > 0 {
                        let cand = (link_capacity[li] - self.frozen_sum[li])
                            / self.active[li] as f64;
                        if cand < best {
                            best = cand;
                        }
                    }
                }
            }
            if !best.is_finite() {
                // No finite constraint: the rest are unconstrained.
                for &i in &self.order[range.clone()] {
                    if !self.frozen[i as usize] {
                        out[i as usize] = f64::INFINITY;
                        self.frozen[i as usize] = true;
                    }
                }
                break;
            }
            let best = best.max(0.0);

            // Freeze, in deterministic flow order: first every flow whose own
            // cap binds at this level (rate = cap, exactly), then every flow
            // crossing a link that saturates at this level (rate = level).
            // The argmin constraint always freezes at least one flow, so each
            // round makes progress.
            self.round_frozen.clear();
            for &i in &self.order[range.clone()] {
                let fi = i as usize;
                if !self.frozen[fi] && meta[fi].cap <= best {
                    out[fi] = meta[fi].cap;
                    self.round_frozen.push(i);
                }
            }
            for &i in &self.order[range.clone()] {
                let fi = i as usize;
                if self.frozen[fi] || meta[fi].cap <= best {
                    continue;
                }
                // The saturation test repeats the candidate expression
                // verbatim so it agrees with `best` bit-for-bit (a rearranged
                // comparison could disagree after rounding and stall the
                // round).
                let on_saturating = path(&meta[fi]).iter().any(|&l| {
                    let li = l as usize;
                    !self.saturated[li]
                        && self.active[li] > 0
                        && (link_capacity[li] - self.frozen_sum[li]) / self.active[li] as f64
                            <= best
                });
                if on_saturating {
                    out[fi] = best;
                    self.round_frozen.push(i);
                }
            }
            // Mark saturating links before applying the freezes (the test
            // above uses pre-freeze active counts). Only this component's
            // links are eligible — walking the component's flow paths keeps
            // the marking from leaking into other components.
            for &i in &self.order[range.clone()] {
                for &l in path(&meta[i as usize]) {
                    let li = l as usize;
                    if !self.saturated[li]
                        && self.active[li] > 0
                        && (link_capacity[li] - self.frozen_sum[li]) / self.active[li] as f64
                            <= best
                    {
                        self.saturated[li] = true;
                    }
                }
            }
            debug_assert!(!self.round_frozen.is_empty(), "water-fill round stalled");
            for k in 0..self.round_frozen.len() {
                let i = self.round_frozen[k];
                let fi = i as usize;
                self.frozen[fi] = true;
                unfrozen -= 1;
                for &l in path(&meta[fi]) {
                    let li = l as usize;
                    self.active[li] -= 1;
                    self.frozen_sum[li] += out[fi];
                }
            }
        }
    }

    /// Links registered (crossed by some flow) in the last solve.
    pub fn touched_links(&self) -> &[u32] {
        &self.touched_links
    }
}
