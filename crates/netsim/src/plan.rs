//! Compiled measurement plans: resolve the window-invariant part of a
//! measurement once, query the time-varying part with table reads.
//!
//! Every campaign samples the same realized paths at many times. The scalar
//! walk in [`reference`](crate::reference) redoes the invariant work on
//! every sample: per-link `topo.link` →
//! `atlas.city` → region lookups, plus a lock acquisition and a hash per
//! congestion key. [`PathPlanBatch::compile`] does that work once per
//! route and lays every queueing term out as flat lanes in the walk's
//! order, and a [`DiurnalTable`] holds the diurnal factor of every sample
//! time in every region. [`PathPlanBatch::det_rtt_ms`] is then a
//! branch-free fold that is **bit-identical** to the walk (same f64
//! summation order; `tests/proptest_stats_netsim.rs` checks the
//! equivalence over random worlds).

use crate::congestion::{diurnal_factor, CongestionKey, CongestionModel};
use crate::path::RealizedPath;
use crate::rtt::path_base_rtt_ms;
use crate::time::SimTime;
use bb_geo::Region;
use bb_topology::{InterconnectId, Topology};

/// Precomputed diurnal factors for a set of sample times × every region.
/// Every UTC offset a congestion term is phased to is its city's
/// `region.utc_offset_hours()`, so a row of [`Region::ALL`]'s eight factors
/// covers every term: a 10-day full-scale spray evaluates ~6M utilization
/// terms but only ~240 windows × 8 regions distinct `(time, offset)`
/// pairs, and this table computes each sine once. Values are produced by
/// the exact [`diurnal_factor`] expression the scalar walk uses, so reads
/// are bit-identical to inline evaluation.
pub struct DiurnalTable {
    values: Vec<f64>,
}

impl DiurnalTable {
    /// Build the `times × Region::ALL` table.
    pub fn build(times: &[SimTime]) -> Self {
        let values = times
            .iter()
            .flat_map(|&t| {
                Region::ALL
                    .iter()
                    .map(move |r| diurnal_factor(t.local_hour(r.utc_offset_hours())))
            })
            .collect();
        DiurnalTable { values }
    }

    /// Diurnal factors of every region, in [`Region::ALL`] order, at
    /// `times[time_idx]`.
    #[inline]
    pub fn row(&self, time_idx: usize) -> &[f64] {
        let n = Region::ALL.len();
        &self.values[time_idx * n..(time_idx + 1) * n]
    }
}

/// Compiled route plans in structure-of-arrays layout: every term's
/// `(base, amp, region, event range)` in flat parallel arrays, so a
/// sample-time evaluation is a linear pass over contiguous f64 lanes with
/// no `Arc` pointer chases and (with a [`DiurnalTable`]) no trigonometry.
///
/// [`det_rtt_ms`](Self::det_rtt_ms) is **bit-identical** to the scalar
/// walk in [`reference`](crate::reference) on each route's path: same term
/// order, same `base + amp·D (+ severity)` / `min` / `clamp` sequence, same
/// f64 summation order.
pub struct PathPlanBatch {
    /// Per route: congestion-free floor.
    base_rtt: Vec<f64>,
    /// Per route: `term_start[r]..term_end[r]` indexes the RTT term arrays.
    /// An explicit end, because a route's optional probe term sits between
    /// its last RTT term and the next route's first (probes never
    /// contribute to the RTT fold).
    term_start: Vec<u32>,
    term_end: Vec<u32>,
    term_base: Vec<f64>,
    term_amp: Vec<f64>,
    /// Per term: the region whose local time phases it, as an index into
    /// [`Region::ALL`] (= a [`DiurnalTable`] row).
    term_region: Vec<u8>,
    /// Per term: `term_ev_start[i]..term_ev_start[i+1]` indexes the event
    /// arrays (start-sorted, non-overlapping, as in
    /// [`KeyProcess`](crate::KeyProcess)).
    term_ev_start: Vec<u32>,
    ev_start_min: Vec<f64>,
    ev_end_min: Vec<f64>,
    ev_severity: Vec<f64>,
    /// Per route: optional utilization-probe term (index into the term
    /// arrays), appended after the route's RTT terms.
    probe_term: Vec<Option<u32>>,
    queue_d0_ms: f64,
    max_util: f64,
}

/// One route to compile: its realized path, the client's last-mile key, and
/// the egress link whose utilization to probe.
pub type RouteSpec<'p> = (
    &'p RealizedPath,
    Option<CongestionKey>,
    Option<InterconnectId>,
);

impl PathPlanBatch {
    /// Compile `routes`.
    ///
    /// Term order replicates the reference walk exactly: each interconnect
    /// in its own city's region, then the destination metro, then the last
    /// mile, the last two both in the final city's region. A probed link's
    /// term (in its city's region) follows the route's RTT terms.
    pub fn compile<'p>(
        topo: &Topology,
        model: &CongestionModel,
        routes: impl IntoIterator<Item = RouteSpec<'p>>,
    ) -> Self {
        // Exact capacities: batches live as long as their campaign, and
        // growth by doubling would leave freed chunks behind in the heap.
        let routes: Vec<RouteSpec> = routes.into_iter().collect();
        let n_terms: usize = routes
            .iter()
            .map(|(path, lm, probe)| {
                path.links.len() + 1 + lm.is_some() as usize + probe.is_some() as usize
            })
            .sum();
        let mut batch = PathPlanBatch {
            base_rtt: Vec::with_capacity(routes.len()),
            term_start: Vec::with_capacity(routes.len()),
            term_end: Vec::with_capacity(routes.len()),
            term_base: Vec::with_capacity(n_terms),
            term_amp: Vec::with_capacity(n_terms),
            term_region: Vec::with_capacity(n_terms),
            term_ev_start: Vec::with_capacity(n_terms + 1),
            ev_start_min: Vec::new(),
            ev_end_min: Vec::new(),
            ev_severity: Vec::new(),
            probe_term: Vec::with_capacity(routes.len()),
            queue_d0_ms: model.config().queue_d0_ms,
            max_util: model.config().max_util,
        };
        batch.term_ev_start.push(0);
        let push = |batch: &mut Self, key, city| {
            batch.push_term(model, key, topo.atlas.city(city).region);
        };
        for (path, lastmile, probe) in routes {
            batch.base_rtt.push(path_base_rtt_ms(topo, path));
            batch.term_start.push(batch.term_base.len() as u32);
            for &l in &path.links {
                push(&mut batch, CongestionKey::Link(l), topo.link(l).city);
            }
            let final_city = path.final_city();
            push(&mut batch, CongestionKey::Metro(final_city), final_city);
            if let Some(lm) = lastmile {
                push(&mut batch, lm, final_city);
            }
            batch.term_end.push(batch.term_base.len() as u32);
            let probe_term = probe.map(|l| {
                let idx = batch.term_base.len() as u32;
                push(&mut batch, CongestionKey::Link(l), topo.link(l).city);
                idx
            });
            batch.probe_term.push(probe_term);
        }
        batch
    }

    fn push_term(&mut self, model: &CongestionModel, key: CongestionKey, region: Region) {
        let process = model.process(key);
        self.term_base.push(process.base());
        self.term_amp.push(process.amp());
        self.term_region.push(region as u8);
        for e in process.events() {
            self.ev_start_min.push(e.start_min);
            self.ev_end_min.push(e.end_min);
            self.ev_severity.push(e.severity);
        }
        self.term_ev_start.push(self.ev_start_min.len() as u32);
    }

    /// Number of routes in the batch.
    pub fn routes(&self) -> usize {
        self.base_rtt.len()
    }

    /// Severity of the event active on `term` at minute `m`, if any — the
    /// same partition-point lookup as [`KeyProcess::active_severity`].
    #[inline]
    fn active_severity(&self, term: usize, m: f64) -> Option<f64> {
        let (s, e) = (
            self.term_ev_start[term] as usize,
            self.term_ev_start[term + 1] as usize,
        );
        let i = self.ev_start_min[s..e].partition_point(|&start| start <= m);
        let idx = s + i.checked_sub(1)?;
        (m < self.ev_end_min[idx]).then_some(self.ev_severity[idx])
    }

    /// Utilization of one term: `(base + amp·D + severity).min(max_util)`,
    /// in exactly [`KeyProcess::utilization`]'s operation order.
    #[inline]
    fn term_util(&self, term: usize, m: f64, diurnal: f64) -> f64 {
        let mut util = self.term_base[term] + self.term_amp[term] * diurnal;
        if let Some(sev) = self.active_severity(term, m) {
            util += sev;
        }
        util.min(self.max_util)
    }

    /// Deterministic RTT of `route` at `t`, reading diurnal factors from a
    /// [`DiurnalTable`] row for this `t`.
    #[inline]
    pub fn det_rtt_ms(&self, route: usize, t: SimTime, diurnal_row: &[f64]) -> f64 {
        let m = t.minutes();
        let mut rtt = self.base_rtt[route];
        for term in self.term_start[route] as usize..self.term_end[route] as usize {
            let d = diurnal_row[self.term_region[term] as usize];
            let rho = self.term_util(term, m, d).clamp(0.0, self.max_util);
            rtt += self.queue_d0_ms * rho * rho / (1.0 - rho);
        }
        rtt
    }

    /// Utilization of `route`'s probed link at `t` (diurnal factors from
    /// the table row). Bit-identical to
    /// [`CongestionModel::utilization`]. Panics if the route was compiled
    /// without a probe.
    #[inline]
    pub fn probe_util(&self, route: usize, t: SimTime, diurnal_row: &[f64]) -> f64 {
        let term = self.probe_term[route].expect("route compiled without a probe") as usize;
        let d = diurnal_row[self.term_region[term] as usize];
        self.term_util(term, t.minutes(), d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionConfig;
    use crate::path::{realize_path, RealizeSpec};
    use crate::reference::path_rtt_ms;
    use bb_bgp::{compute_routes, Announcement};
    use bb_topology::{generate, AsClass, TopologyConfig};

    fn world() -> (Topology, RealizedPath) {
        let topo = generate(&TopologyConfig::small(23));
        let eye = topo.ases_of_class(AsClass::Eyeball).next().unwrap();
        let origin = eye.id;
        let dst_city = eye.footprint[0];
        let table = compute_routes(&topo, &Announcement::full(&topo, origin));
        let src = topo
            .ases()
            .iter()
            .find(|a| a.id != origin && table.as_path(a.id).is_some_and(|p| p.len() >= 3))
            .expect("some multi-hop source");
        let path = table.as_path(src.id).unwrap();
        let spec = RealizeSpec {
            as_path: &path,
            src_city: src.footprint[0],
            dst_city: Some(dst_city),
            first_link: None,
            final_entry_links: None,
        };
        let p = realize_path(&topo, &spec);
        (topo, p)
    }

    #[test]
    fn region_index_is_the_position_in_all() {
        for (i, &r) in Region::ALL.iter().enumerate() {
            assert_eq!(r as usize, i, "{r:?}");
        }
    }

    #[test]
    fn batch_matches_walk_and_model_bitwise() {
        let (topo, p) = world();
        let model = CongestionModel::new(5, CongestionConfig::default());
        let l = p.links[0];
        let lastmile = Some(CongestionKey::LastMile(77));
        let batch =
            PathPlanBatch::compile(&topo, &model, [(&p, None, None), (&p, lastmile, Some(l))]);
        assert_eq!(batch.routes(), 2);

        let offset = topo.atlas.city(topo.link(l).city).region.utc_offset_hours();
        let times: Vec<SimTime> = (0..200)
            .map(|i| SimTime::from_minutes(i as f64 * 71.3))
            .collect();
        let table = DiurnalTable::build(&times);
        for (wi, &t) in times.iter().enumerate() {
            let row = table.row(wi);
            let walk = |lm| path_rtt_ms(&topo, &model, &p, lm, t).to_bits();
            assert_eq!(
                batch.det_rtt_ms(0, t, row).to_bits(),
                walk(None),
                "A wi={wi}"
            );
            assert_eq!(
                batch.det_rtt_ms(1, t, row).to_bits(),
                walk(lastmile),
                "B wi={wi}"
            );
            assert_eq!(
                batch.probe_util(1, t, row).to_bits(),
                model
                    .utilization(CongestionKey::Link(l), offset, t)
                    .to_bits(),
                "C wi={wi}"
            );
        }
    }
}
