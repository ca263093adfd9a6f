//! Compiled measurement plans: resolve the window-invariant part of a
//! measurement once, query the time-varying part with table reads.
//!
//! Every study samples the same realized paths across hundreds of time
//! windows. The naive walk ([`path_rtt_ms`](crate::path_rtt_ms)) redoes the
//! invariant work on every sample: per-link `topo.link` → `atlas.city` →
//! `region.utc_offset_hours()` lookups, plus a lock acquisition and a hash
//! per congestion key. [`CongestionPlan`] resolves each
//! [`CongestionKey`](crate::CongestionKey) once into a shared
//! [`KeyProcess`] handle, and [`PathPlan`] compiles a whole
//! [`RealizedPath`] into its base RTT plus a flat `(process, utc offset)`
//! term list in the exact order of the naive walk — so
//! [`PathPlan::rtt_ms`] is a branch-free fold that is **bit-identical** to
//! `path_rtt_ms` (same f64 summation order; `tests/proptest_stats_netsim.rs`
//! checks the equivalence over random worlds).

use crate::congestion::{diurnal_factor, CongestionKey, CongestionModel, KeyProcess};
use crate::path::RealizedPath;
use crate::rtt::path_base_rtt_ms;
use crate::time::SimTime;
use bb_topology::Topology;
use std::collections::HashMap;
use std::sync::Arc;

/// Key resolver over one [`CongestionModel`]: each lookup is the model's
/// one-time lock-and-hash; everything handed out queries lock-free.
pub struct CongestionPlan<'a> {
    model: &'a CongestionModel,
    queue_d0_ms: f64,
    max_util: f64,
}

impl<'a> CongestionPlan<'a> {
    pub fn new(model: &'a CongestionModel) -> Self {
        let cfg = model.config();
        Self {
            model,
            queue_d0_ms: cfg.queue_d0_ms,
            max_util: cfg.max_util,
        }
    }

    /// Shared handle to `key`'s process.
    pub fn handle(&self, key: CongestionKey) -> Arc<KeyProcess> {
        self.model.process(key)
    }

    /// A standalone utilization probe for `key` observed from a fixed
    /// local-time offset (e.g. spray's per-route egress-link utilization).
    pub fn probe(&self, key: CongestionKey, utc_offset_hours: f64) -> UtilProbe {
        UtilProbe {
            process: self.handle(key),
            utc_offset_hours,
            max_util: self.max_util,
        }
    }

    /// Compile `path` (+ optional last-mile key) into a [`PathPlan`].
    ///
    /// Term order replicates `path_rtt_ms` exactly: each interconnect at its
    /// own city's offset, then the destination metro, then the last mile —
    /// the last two both at the final city's offset.
    pub fn compile_path(
        &self,
        topo: &Topology,
        path: &RealizedPath,
        lastmile: Option<CongestionKey>,
    ) -> PathPlan {
        let mut terms = Vec::with_capacity(path.links.len() + 2);
        for &l in &path.links {
            let city = topo.link(l).city;
            let offset = topo.atlas.city(city).region.utc_offset_hours();
            terms.push((self.handle(CongestionKey::Link(l)), offset));
        }
        let final_city = path.final_city();
        let offset = topo.atlas.city(final_city).region.utc_offset_hours();
        terms.push((self.handle(CongestionKey::Metro(final_city)), offset));
        if let Some(lm) = lastmile {
            terms.push((self.handle(lm), offset));
        }
        PathPlan {
            base_rtt_ms: path_base_rtt_ms(topo, path),
            terms,
            queue_d0_ms: self.queue_d0_ms,
            max_util: self.max_util,
        }
    }
}

/// A resolved `(key, local-time offset)` pair for repeated utilization
/// queries.
pub struct UtilProbe {
    process: Arc<KeyProcess>,
    utc_offset_hours: f64,
    max_util: f64,
}

impl UtilProbe {
    /// Same value as `CongestionModel::utilization` for the probed key.
    #[inline]
    pub fn utilization(&self, t: SimTime) -> f64 {
        self.process.utilization(self.utc_offset_hours, t, self.max_util)
    }
}

/// One realized path, compiled: the congestion-free floor plus every
/// queueing term as a resolved process handle.
pub struct PathPlan {
    base_rtt_ms: f64,
    /// `(process, utc offset)` in walk order: links, metro, last mile.
    terms: Vec<(Arc<KeyProcess>, f64)>,
    queue_d0_ms: f64,
    max_util: f64,
}

impl PathPlan {
    /// Deterministic RTT at `t`; bit-identical to
    /// [`path_rtt_ms`](crate::path_rtt_ms) over the same path and keys.
    #[inline]
    pub fn rtt_ms(&self, t: SimTime) -> f64 {
        let mut rtt = self.base_rtt_ms;
        for (process, offset) in &self.terms {
            let rho = process
                .utilization(*offset, t, self.max_util)
                .clamp(0.0, self.max_util);
            rtt += self.queue_d0_ms * rho * rho / (1.0 - rho);
        }
        rtt
    }

    /// The congestion-free floor (`path_base_rtt_ms`).
    pub fn base_rtt_ms(&self) -> f64 {
        self.base_rtt_ms
    }

    /// Number of queueing terms (links + metro + optional last mile).
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }
}

/// Interned UTC offsets: every distinct offset a batch's terms reference,
/// deduplicated by bit pattern so a [`DiurnalTable`] row can be indexed by a
/// small integer instead of recomputing `sin` per term.
#[derive(Default)]
pub struct OffsetTable {
    offsets: Vec<f64>,
    index: HashMap<u64, u32>,
}

impl OffsetTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of `offset`, interning it on first sight.
    pub fn intern(&mut self, offset: f64) -> u32 {
        let bits = offset.to_bits();
        if let Some(&i) = self.index.get(&bits) {
            return i;
        }
        let i = self.offsets.len() as u32;
        self.offsets.push(offset);
        self.index.insert(bits, i);
        i
    }

    /// The interned offsets, in interning order.
    pub fn offsets(&self) -> &[f64] {
        &self.offsets
    }

    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

/// Precomputed diurnal factors for a set of sample times × interned UTC
/// offsets. A 10-day full-scale spray evaluates ~6M utilization terms but
/// only ~240 windows × ~25 offsets distinct `(time, offset)` pairs; this
/// table computes each sine once. Values are produced by the exact
/// [`diurnal_factor`] expression the scalar walk uses, so reads are
/// bit-identical to inline evaluation.
pub struct DiurnalTable {
    n_offsets: usize,
    values: Vec<f64>,
}

impl DiurnalTable {
    /// Build the `times × offsets` table.
    pub fn build(times: &[SimTime], offsets: &OffsetTable) -> Self {
        let n_offsets = offsets.len();
        let mut values = Vec::with_capacity(times.len() * n_offsets);
        for &t in times {
            for &off in offsets.offsets() {
                values.push(diurnal_factor(t.local_hour(off)));
            }
        }
        DiurnalTable { n_offsets, values }
    }

    /// Diurnal factors of every interned offset at `times[time_idx]`.
    #[inline]
    pub fn row(&self, time_idx: usize) -> &[f64] {
        &self.values[time_idx * self.n_offsets..(time_idx + 1) * self.n_offsets]
    }
}

/// A batch of compiled route plans in structure-of-arrays layout: every
/// term's `(base, amp, offset index, event range)` in flat parallel arrays,
/// so a window evaluation is a linear pass over contiguous f64 lanes with
/// no `Arc` pointer chases and (with a [`DiurnalTable`]) no trigonometry.
///
/// [`det_rtt_ms`](Self::det_rtt_ms) is **bit-identical** to
/// [`PathPlan::rtt_ms`] on the plan each route was built from: same term
/// order, same `base + amp·D (+ severity)` / `min` / `clamp` sequence, same
/// f64 summation order (`tests/proptest_stats_netsim.rs` checks the
/// equivalence over random worlds).
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
    /// Per term: index into the [`OffsetTable`] rows.
    term_offset_idx: Vec<u32>,
    /// Per term: the raw UTC offset (for the table-free `det_rtt_ms_at`).
    term_offset_hours: Vec<f64>,
    /// Per term: `term_ev_start[i]..term_ev_start[i+1]` indexes the event
    /// arrays (start-sorted, non-overlapping, as in [`KeyProcess`]).
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

impl PathPlanBatch {
    /// Compile a batch from `(plan, optional egress-utilization probe)`
    /// pairs, interning every term's UTC offset into `offsets`.
    pub fn from_route_plans(
        routes: &[(&PathPlan, Option<&UtilProbe>)],
        offsets: &mut OffsetTable,
    ) -> Self {
        let n_terms: usize = routes.iter().map(|(p, _)| p.terms.len()).sum();
        let mut batch = PathPlanBatch {
            base_rtt: Vec::with_capacity(routes.len()),
            term_start: Vec::with_capacity(routes.len()),
            term_end: Vec::with_capacity(routes.len()),
            term_base: Vec::with_capacity(n_terms),
            term_amp: Vec::with_capacity(n_terms),
            term_offset_idx: Vec::with_capacity(n_terms),
            term_offset_hours: Vec::with_capacity(n_terms),
            term_ev_start: vec![0],
            ev_start_min: Vec::new(),
            ev_end_min: Vec::new(),
            ev_severity: Vec::new(),
            probe_term: Vec::with_capacity(routes.len()),
            queue_d0_ms: routes.first().map_or(1.0, |(p, _)| p.queue_d0_ms),
            max_util: routes.first().map_or(1.0, |(p, _)| p.max_util),
        };
        for (plan, probe) in routes {
            debug_assert_eq!(plan.queue_d0_ms.to_bits(), batch.queue_d0_ms.to_bits());
            debug_assert_eq!(plan.max_util.to_bits(), batch.max_util.to_bits());
            batch.term_start.push(batch.term_base.len() as u32);
            batch.base_rtt.push(plan.base_rtt_ms);
            for (process, offset) in &plan.terms {
                batch.push_term(process, *offset, offsets);
            }
            batch.term_end.push(batch.term_base.len() as u32);
            let probe_entry = probe.map(|pr| {
                let idx = batch.term_base.len() as u32;
                batch.push_term(&pr.process, pr.utc_offset_hours, offsets);
                idx
            });
            batch.probe_term.push(probe_entry);
        }
        batch
    }

    fn push_term(&mut self, process: &KeyProcess, offset: f64, offsets: &mut OffsetTable) {
        self.term_base.push(process.base());
        self.term_amp.push(process.amp());
        self.term_offset_idx.push(offsets.intern(offset));
        self.term_offset_hours.push(offset);
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
    /// [`DiurnalTable`] row for this `t`. Bit-identical to
    /// [`PathPlan::rtt_ms`].
    #[inline]
    pub fn det_rtt_ms(&self, route: usize, t: SimTime, diurnal_row: &[f64]) -> f64 {
        let m = t.minutes();
        let mut rtt = self.base_rtt[route];
        for term in self.term_start[route] as usize..self.term_end[route] as usize {
            let d = diurnal_row[self.term_offset_idx[term] as usize];
            let rho = self.term_util(term, m, d).clamp(0.0, self.max_util);
            rtt += self.queue_d0_ms * rho * rho / (1.0 - rho);
        }
        rtt
    }

    /// Deterministic RTT of `route` at an arbitrary `t`, without a
    /// [`DiurnalTable`]: the table-free reference for oracles. Computes
    /// each term's diurnal factor inline; still bit-identical to
    /// [`PathPlan::rtt_ms`].
    pub fn det_rtt_ms_at(&self, route: usize, t: SimTime) -> f64 {
        let m = t.minutes();
        let mut rtt = self.base_rtt[route];
        for term in self.term_start[route] as usize..self.term_end[route] as usize {
            let d = diurnal_factor(t.local_hour(self.term_offset_hours[term]));
            let rho = self.term_util(term, m, d).clamp(0.0, self.max_util);
            rtt += self.queue_d0_ms * rho * rho / (1.0 - rho);
        }
        rtt
    }

    /// Utilization of `route`'s probe term at `t` (diurnal factors from the
    /// table row). Bit-identical to [`UtilProbe::utilization`]. Panics if
    /// the route was compiled without a probe.
    #[inline]
    pub fn probe_util(&self, route: usize, t: SimTime, diurnal_row: &[f64]) -> f64 {
        let term = self.probe_term[route].expect("route compiled without a probe") as usize;
        let d = diurnal_row[self.term_offset_idx[term] as usize];
        self.term_util(term, t.minutes(), d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionConfig;
    use crate::path::{realize_path, RealizeSpec};
    use crate::rtt::path_rtt_ms;
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
    fn plan_rtt_matches_walk_bitwise() {
        let (topo, p) = world();
        let model = CongestionModel::new(5, CongestionConfig::default());
        let plan = CongestionPlan::new(&model);
        for lastmile in [None, Some(CongestionKey::LastMile(77))] {
            let pp = plan.compile_path(&topo, &p, lastmile);
            for i in 0..200 {
                let t = SimTime::from_minutes(i as f64 * 71.3);
                assert_eq!(
                    pp.rtt_ms(t),
                    path_rtt_ms(&topo, &model, &p, lastmile, t),
                    "t={t:?} lastmile={lastmile:?}"
                );
            }
        }
    }

    #[test]
    fn probe_matches_model_utilization() {
        let (topo, p) = world();
        let model = CongestionModel::new(5, CongestionConfig::default());
        let plan = CongestionPlan::new(&model);
        let l = p.links[0];
        let offset = topo.atlas.city(topo.link(l).city).region.utc_offset_hours();
        let probe = plan.probe(CongestionKey::Link(l), offset);
        for i in 0..100 {
            let t = SimTime::from_minutes(i as f64 * 53.0);
            assert_eq!(
                probe.utilization(t),
                model.utilization(CongestionKey::Link(l), offset, t)
            );
        }
    }

    #[test]
    fn batch_det_rtt_matches_plan_bitwise() {
        let (topo, p) = world();
        let model = CongestionModel::new(5, CongestionConfig::default());
        let plan = CongestionPlan::new(&model);
        let pp_none = plan.compile_path(&topo, &p, None);
        let pp_lm = plan.compile_path(&topo, &p, Some(CongestionKey::LastMile(77)));
        let l = p.links[0];
        let off = topo.atlas.city(topo.link(l).city).region.utc_offset_hours();
        let probe = plan.probe(CongestionKey::Link(l), off);

        let mut offsets = OffsetTable::new();
        let routes: Vec<(&PathPlan, Option<&UtilProbe>)> =
            vec![(&pp_none, None), (&pp_lm, Some(&probe))];
        let batch = PathPlanBatch::from_route_plans(&routes, &mut offsets);
        assert_eq!(batch.routes(), 2);

        let times: Vec<SimTime> = (0..200).map(|i| SimTime::from_minutes(i as f64 * 71.3)).collect();
        let table = DiurnalTable::build(&times, &offsets);
        for (wi, &t) in times.iter().enumerate() {
            let row = table.row(wi);
            assert_eq!(batch.det_rtt_ms(0, t, row).to_bits(), pp_none.rtt_ms(t).to_bits(), "A wi={wi}");
            assert_eq!(batch.det_rtt_ms(1, t, row).to_bits(), pp_lm.rtt_ms(t).to_bits(), "B wi={wi}");
            assert_eq!(batch.det_rtt_ms_at(0, t).to_bits(), pp_none.rtt_ms(t).to_bits(), "C wi={wi}");
            assert_eq!(batch.det_rtt_ms_at(1, t).to_bits(), pp_lm.rtt_ms(t).to_bits(), "D wi={wi}");
            assert_eq!(
                batch.probe_util(1, t, row).to_bits(),
                probe.utilization(t).to_bits(),
                "E wi={wi}"
            );
        }
    }

    #[test]
    fn plan_has_expected_term_count() {
        let (topo, p) = world();
        let model = CongestionModel::new(5, CongestionConfig::default());
        let plan = CongestionPlan::new(&model);
        let without = plan.compile_path(&topo, &p, None);
        let with = plan.compile_path(&topo, &p, Some(CongestionKey::LastMile(1)));
        assert_eq!(without.term_count(), p.links.len() + 1);
        assert_eq!(with.term_count(), p.links.len() + 2);
        assert!(with.base_rtt_ms() > 0.0);
    }
}
