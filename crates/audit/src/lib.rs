//! # bb-audit — runtime invariant checker and metamorphic-relation harness
//!
//! The studies promise a lot implicitly: realized paths respect Gao-Rexford
//! policy, no measured RTT beats the speed of light, CDFs are distribution
//! functions, figure weights conserve the workload's traffic, coverage
//! accounting adds up, churn intervals are well-formed, and the whole
//! pipeline is independent of the worker count. None of that is written
//! down as a check the `repro` binary can run against a *full-scale* build
//! — unit tests only ever see `Scale::Test` worlds. `repro audit` closes
//! that gap: it sweeps the three built scenarios and their study outputs
//! through a catalog of named invariant rules, then re-runs cheap
//! `Scale::Test` slices through four metamorphic relations (faults-off
//! equivalence, jobs independence, ablation directionality, shard
//! independence).
//!
//! Every rule is individually reportable; a violation names the rule, the
//! offending item, and exits the `repro audit` run with code 1 (the
//! runtime-failure code — the world failed its own contract).
//!
//! ## Self-test hook
//!
//! `BB_INJECT=violate:<rule>` injects a deliberately-corrupt item into that
//! rule's input stream (the rule logic itself is untouched), proving the
//! rule actually fires. The CI audit job loops over every rule name and
//! asserts a non-zero exit — the same pattern as `BB_INJECT=poison:<exp>`.

use bb_core::study_anycast::AnycastStudy;
use bb_core::study_egress::EgressStudy;
use bb_core::study_tiers::TiersStudy;
use bb_core::{Scale, Scenario, ScenarioConfig};
use bb_measure::SprayConfig;
use bb_netsim::{FaultConfig, FaultLevel, FaultPlane, Outage, MAX_BASE_RTT_MS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every rule the audit runs, in report order. `BB_INJECT=violate:RULE` accepts
/// exactly these names.
pub const RULE_NAMES: &[&str] = &[
    "paths.valley_free",
    "paths.planet_valley_free",
    "rtt.lightspeed",
    "rtt.censoring",
    "cdf.monotone",
    "weights.conserved",
    "coverage.accounting",
    "churn.intervals",
    "sketch.quantile_error",
    "meta.faults_off",
    "meta.jobs_independent",
    "meta.ablation_direction",
    "meta.shard_independent",
    "meta.orchestrated_identity",
];

/// Audit configuration.
pub struct AuditOptions {
    pub seed: u64,
    pub scale: Scale,
    /// Human label for the fault level the audited run was built with
    /// (report header only).
    pub faults: &'static str,
    /// Rule whose input stream gets a deliberately-corrupt item
    /// (self-test; from `BB_INJECT=violate:<rule>`).
    pub violate: Option<String>,
}

/// Outcome of one rule.
pub struct RuleReport {
    pub name: &'static str,
    /// Items the rule examined.
    pub checked: u64,
    /// Items that violated the invariant.
    pub violations: u64,
    /// First few violation descriptions (bounded; deterministic order).
    pub details: Vec<String>,
}

impl RuleReport {
    pub fn passed(&self) -> bool {
        self.violations == 0
    }
}

/// Outcome of the full audit.
pub struct AuditReport {
    pub seed: u64,
    pub scale: Scale,
    pub faults: String,
    pub rules: Vec<RuleReport>,
}

impl AuditReport {
    pub fn passed(&self) -> bool {
        self.rules.iter().all(RuleReport::passed)
    }

    /// Render the per-rule table. Deterministic: byte-identical for every
    /// `--jobs` value (nothing here reads clocks or thread state).
    pub fn render(&self) -> String {
        let mut out = format!(
            "=== AUDIT (seed {}, scale {}, faults {}) ===\n",
            self.seed,
            self.scale.as_str(),
            self.faults
        );
        let mut checks = 0u64;
        for r in &self.rules {
            checks += r.checked;
            if r.passed() {
                writeln!(out, "  {:<24} ok    {:>8} checked", r.name, r.checked).unwrap();
            } else {
                writeln!(
                    out,
                    "  {:<24} FAIL  {:>8} of {} violated",
                    r.name, r.violations, r.checked
                )
                .unwrap();
                for d in &r.details {
                    writeln!(out, "      {d}").unwrap();
                }
            }
        }
        let failed = self.rules.iter().filter(|r| !r.passed()).count();
        if failed == 0 {
            writeln!(
                out,
                "=== AUDIT PASSED: {}/{} rules, {checks} checks ===",
                self.rules.len(),
                self.rules.len()
            )
            .unwrap();
        } else {
            writeln!(
                out,
                "=== AUDIT FAILED: {failed}/{} rules violated ===",
                self.rules.len()
            )
            .unwrap();
        }
        out
    }
}

/// Accumulates one rule's checks; keeps the first few violation details.
struct Rule {
    report: RuleReport,
}

impl Rule {
    const MAX_DETAILS: usize = 4;

    fn new(name: &'static str) -> Self {
        Self {
            report: RuleReport {
                name,
                checked: 0,
                violations: 0,
                details: Vec::new(),
            },
        }
    }

    fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.report.checked += 1;
        if !ok {
            self.report.violations += 1;
            if self.report.details.len() < Self::MAX_DETAILS {
                self.report.details.push(detail());
            }
        }
    }

    fn finish(self) -> RuleReport {
        self.report
    }
}

/// Run the full audit over the three built scenarios and their studies.
///
/// The invariant rules examine the *actual* campaign outputs the figures
/// were computed from; the `meta.*` metamorphic relations build their own
/// `Scale::Test` slices so they stay cheap at any audited scale.
pub fn run_audit(
    facebook: &Scenario,
    egress: &EgressStudy,
    microsoft: &Scenario,
    anycast: &AnycastStudy,
    google: &Scenario,
    tiers: &TiersStudy,
    opts: &AuditOptions,
) -> AuditReport {
    let poison = |rule: &str| opts.violate.as_deref() == Some(rule);
    let rules = vec![
        valley_free_rule(facebook, egress, poison("paths.valley_free")),
        planet_valley_free_rule(opts.seed, opts.scale, poison("paths.planet_valley_free")),
        lightspeed_rule(
            facebook,
            egress,
            microsoft,
            anycast,
            google,
            tiers,
            poison("rtt.lightspeed"),
        ),
        censoring_rule(facebook, egress, poison("rtt.censoring")),
        cdf_monotone_rule(egress, anycast, poison("cdf.monotone")),
        weights_rule(egress, anycast, tiers, poison("weights.conserved")),
        coverage_rule(
            facebook,
            egress,
            microsoft,
            anycast,
            google,
            tiers,
            poison("coverage.accounting"),
        ),
        churn_rule(facebook, egress, opts.seed, poison("churn.intervals")),
        sketch_error_rule(egress, poison("sketch.quantile_error")),
        faults_off_relation(opts.seed, poison("meta.faults_off")),
        jobs_relation(opts.seed, poison("meta.jobs_independent")),
        ablation_relation(opts.seed, poison("meta.ablation_direction")),
        shard_relation(opts.seed, poison("meta.shard_independent")),
        orchestrated_identity_relation(opts.seed, poison("meta.orchestrated_identity")),
    ];
    AuditReport {
        seed: opts.seed,
        scale: opts.scale,
        faults: opts.faults.to_string(),
        rules,
    }
}

/// The tiny spray slice the metamorphic relations run (matches the study
/// unit tests' Test-scale configuration).
fn mr_spray_cfg() -> SprayConfig {
    SprayConfig {
        days: 1.0,
        window_stride: 8,
        sessions_per_window: 5,
        ..Default::default()
    }
}

// --- Invariant rules over the audited scenarios/studies. ---

/// `paths.valley_free`: every realized egress route's AS path must be
/// policy-consistent — each hop a real business edge, and the relationship
/// sequence valley-free (`up* peer? down*`).
fn valley_free_rule(scenario: &Scenario, egress: &EgressStudy, poison: bool) -> RuleReport {
    let mut rule = Rule::new("paths.valley_free");
    for t in &egress.dataset.targets {
        for (ri, r) in t.routes.iter().enumerate() {
            let ok = bb_bgp::propagation::valley_free(&scenario.topo, &r.path.as_path);
            rule.check(ok, || {
                format!(
                    "pop {} prefix {} route {ri}: AS path {:?} not valley-free",
                    t.pop.0, t.prefix.0, r.path.as_path
                )
            });
        }
    }
    if poison {
        // A self-loop is never a business edge: policy-inconsistent by
        // construction, exercising the missing-relationship branch.
        let a = egress.dataset.targets[0].client_as;
        let bad = [a, a];
        rule.check(
            bb_bgp::propagation::valley_free(&scenario.topo, &bad),
            || format!("injected self-loop path {bad:?} accepted"),
        );
    }
    rule.finish()
}

/// `paths.planet_valley_free`: the planet-tier propagation pipeline — the
/// interned-path arena plus the frontier worklist — must still produce
/// valley-free paths on a planet-*shaped* world (dense transit layer, many
/// eyeballs per country). The world is sized to the audited scale so the
/// rule stays cheap in unit tests and CI yet sweeps a true ≥50k-AS build
/// under `--scale planet`; full announcements from a deterministic origin
/// sample are checked end to end.
fn planet_valley_free_rule(seed: u64, scale: Scale, poison: bool) -> RuleReport {
    let mut rule = Rule::new("paths.planet_valley_free");
    let mut tcfg = ScenarioConfig::topology_for(Scale::Planet, seed ^ 0x_97a3);
    match scale {
        // Mini-planet: the Planet preset's shape at a few hundred ASes.
        Scale::Test => {
            tcfg.atlas.city_density = 0.5;
            tcfg.transits_per_region = 4;
            tcfg.eyeball_users_per_as_m = 8.0;
            tcfg.max_eyeballs_per_country = 12;
        }
        // Mid-size: a few thousand ASes, still seconds to propagate.
        Scale::Full | Scale::Large => {
            tcfg.atlas.city_density = 1.0;
            tcfg.transits_per_region = 8;
            tcfg.eyeball_users_per_as_m = 1.6;
            tcfg.max_eyeballs_per_country = 60;
        }
        Scale::Planet => {}
    }
    let topo = bb_topology::generate(&tcfg);
    let eyeballs: Vec<bb_topology::AsId> = topo
        .ases_of_class(bb_topology::AsClass::Eyeball)
        .map(|a| a.id)
        .collect();
    let n = eyeballs.len();
    let origins = [eyeballs[0], eyeballs[n / 3], eyeballs[2 * n / 3], eyeballs[n - 1]];
    // Bound the per-origin path checks so the planet sweep stays linear in
    // the AS count, not quadratic.
    let stride = (topo.as_count() / 4096).max(1);
    for origin in origins {
        let ann = bb_bgp::Announcement::full(&topo, origin);
        let table = bb_bgp::compute_routes(&topo, &ann);
        rule.check(table.reachable_count() == topo.as_count(), || {
            format!(
                "origin {origin}: only {} of {} ASes routed",
                table.reachable_count(),
                topo.as_count()
            )
        });
        for node in topo.ases().iter().step_by(stride) {
            match table.as_path(node.id) {
                Some(path) => rule.check(
                    bb_bgp::propagation::valley_free(&topo, &path),
                    || format!("origin {origin}: path {path:?} to {} has a valley", node.id),
                ),
                None => rule.check(false, || {
                    format!("origin {origin}: {} unreachable or via-cycle", node.id)
                }),
            }
        }
    }
    if poison {
        // A fabricated down-then-up walk over real business edges.
        let o = eyeballs[0];
        let prov = topo.providers_of(o)[0];
        let bad = [prov, o, prov];
        rule.check(
            bb_bgp::propagation::valley_free(&topo, &bad),
            || format!("injected valley path {bad:?} accepted"),
        );
    }
    rule.finish()
}

/// `rtt.lightspeed`: no finite measured RTT may beat the great-circle
/// speed-of-light round trip between its endpoints (path distance is at
/// least the great-circle distance by the triangle inequality; jitter,
/// congestion, and processing terms are non-negative).
fn lightspeed_rule(
    facebook: &Scenario,
    egress: &EgressStudy,
    microsoft: &Scenario,
    anycast: &AnycastStudy,
    google: &Scenario,
    tiers: &TiersStudy,
    poison: bool,
) -> RuleReport {
    let mut rule = Rule::new("rtt.lightspeed");
    let gc_bound = |topo: &bb_topology::Topology, a: bb_geo::CityId, b: bb_geo::CityId| {
        bb_geo::min_rtt_ms(
            topo.atlas
                .city(a)
                .location
                .distance_km(&topo.atlas.city(b).location),
        )
    };

    // Spray rows: per-route window medians against the PoP→client bound.
    let mut route_ends: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();
    for t in &egress.dataset.targets {
        route_ends.insert(
            (t.pop.0, t.prefix.0),
            t.routes
                .iter()
                .map(|r| gc_bound(&facebook.topo, t.pop, r.path.final_city()))
                .collect(),
        );
    }
    for row in &egress.dataset.rows {
        let bounds = &route_ends[&(row.pop.0, row.prefix.0)];
        for (ri, &m) in row.route_median_ms.iter().enumerate() {
            if !m.is_finite() {
                continue; // degraded windows are coverage.accounting's job
            }
            rule.check(m + 1e-6 >= bounds[ri], || {
                format!(
                    "spray pop {} prefix {} route {ri}: median {m:.3}ms < light bound {:.3}ms",
                    row.pop.0, row.prefix.0, bounds[ri]
                )
            });
        }
    }

    // Beacon measurements: anycast and every unicast RTT against the
    // client→front-end bounds.
    for m in &anycast.measurements {
        let client = microsoft.workload.prefix(m.prefix).city;
        if m.anycast_rtt_ms.is_finite() {
            let b = gc_bound(&microsoft.topo, client, m.anycast_front_end);
            rule.check(m.anycast_rtt_ms + 1e-6 >= b, || {
                format!(
                    "beacon prefix {}: anycast {:.3}ms < light bound {b:.3}ms",
                    m.prefix.0, m.anycast_rtt_ms
                )
            });
        }
        for &(site, r) in &m.unicast_rtt_ms {
            if r.is_finite() {
                let b = gc_bound(&microsoft.topo, client, site);
                rule.check(r + 1e-6 >= b, || {
                    format!(
                        "beacon prefix {} site {}: unicast {r:.3}ms < light bound {b:.3}ms",
                        m.prefix.0, site.0
                    )
                });
            }
        }
    }

    // Tier probes: VP→datacenter bound.
    for p in &tiers.probes {
        if !p.rtt_ms.is_finite() {
            continue;
        }
        let vp = &tiers.vantage_points[p.vp_index];
        let b = gc_bound(&google.topo, vp.city, tiers.datacenter);
        rule.check(p.rtt_ms + 1e-6 >= b, || {
            format!(
                "tier probe vp {}: rtt {:.3}ms < light bound {b:.3}ms",
                p.vp_index, p.rtt_ms
            )
        });
    }

    if poison {
        // A 10,000 km path answering in half a millisecond.
        let b = bb_geo::min_rtt_ms(10_000.0);
        rule.check(0.5 + 1e-6 >= b, || {
            format!("injected sub-lightspeed sample: 0.500ms < light bound {b:.3}ms")
        });
    }
    rule.finish()
}

/// `rtt.censoring`: measurement timeouts must sit above the worst
/// *uncongested* path RTT, so they censor congestion spikes, never
/// geography (a 300 ms heavy timeout silently ate legitimate ~250–350 ms
/// intercontinental paths until this was derived from the bound). Also
/// validates `MAX_BASE_RTT_MS` against the realized paths of this build.
fn censoring_rule(facebook: &Scenario, egress: &EgressStudy, poison: bool) -> RuleReport {
    let mut rule = Rule::new("rtt.censoring");
    let mut presets = vec![
        ("light preset", FaultConfig::light().timeout_ms),
        ("heavy preset", FaultConfig::heavy().timeout_ms),
    ];
    if let Some(fp) = facebook.fault_plane() {
        presets.push(("active plane", fp.config().timeout_ms));
    }
    if poison {
        presets.push(("injected config", 100.0));
    }
    for (label, timeout_ms) in presets {
        rule.check(timeout_ms > MAX_BASE_RTT_MS, || {
            format!(
                "{label}: timeout {timeout_ms}ms censors legitimate base RTTs \
                 (worst uncongested path {MAX_BASE_RTT_MS}ms)"
            )
        });
    }
    // The constant itself must dominate every realized base path RTT.
    let mut worst = 0.0_f64;
    for t in &egress.dataset.targets {
        for r in &t.routes {
            worst = worst.max(bb_netsim::path_base_rtt_ms(&facebook.topo, &r.path));
        }
    }
    rule.check(worst <= MAX_BASE_RTT_MS, || {
        format!("realized base RTT {worst:.1}ms exceeds MAX_BASE_RTT_MS {MAX_BASE_RTT_MS}ms")
    });
    rule.finish()
}

/// `cdf.monotone`: every figure CDF/CCDF is a distribution function —
/// strictly increasing values, non-decreasing fractions in [0, 1], last
/// fraction exactly 1 (so `fraction_gt ≥ 0` and `fraction_leq ≤ 1` hold
/// at every query point).
fn cdf_monotone_rule(egress: &EgressStudy, anycast: &AnycastStudy, poison: bool) -> RuleReport {
    let mut rule = Rule::new("cdf.monotone");
    let mut curves: Vec<(&str, Vec<(f64, f64)>)> = vec![
        ("fig1.diff", egress.fig1.diff.points().collect()),
        ("fig1.ci_lower", egress.fig1.ci_lower.points().collect()),
        ("fig1.ci_upper", egress.fig1.ci_upper.points().collect()),
        ("fig3.world", anycast.fig3.world.cdf().points().collect()),
        (
            "fig4.median",
            anycast.fig4.median_improvement.points().collect(),
        ),
        ("fig4.p75", anycast.fig4.p75_improvement.points().collect()),
    ];
    if let Some(c) = &egress.fig2.peer_vs_transit {
        curves.push(("fig2.peer_vs_transit", c.points().collect()));
    }
    if let Some(c) = &egress.fig2.private_vs_public {
        curves.push(("fig2.private_vs_public", c.points().collect()));
    }
    if let Some(c) = &anycast.fig3.europe {
        curves.push(("fig3.europe", c.cdf().points().collect()));
    }
    if let Some(c) = &anycast.fig3.united_states {
        curves.push(("fig3.united_states", c.cdf().points().collect()));
    }
    if poison {
        curves.push((
            "injected curve",
            vec![(0.0, 0.6), (1.0, 0.5), (2.0, 1.0)],
        ));
    }
    for (label, pts) in curves {
        let mut bad: Option<String> = None;
        let mut prev_v = f64::NEG_INFINITY;
        let mut prev_f = 0.0_f64;
        for (i, &(v, f)) in pts.iter().enumerate() {
            if !(0.0..=1.0).contains(&f) {
                bad = Some(format!("fraction {f} outside [0,1] at index {i}"));
                break;
            }
            if v <= prev_v || f < prev_f {
                bad = Some(format!(
                    "not monotone at index {i}: ({prev_v}, {prev_f}) -> ({v}, {f})"
                ));
                break;
            }
            (prev_v, prev_f) = (v, f);
        }
        if bad.is_none() && (prev_f - 1.0).abs() > 1e-12 {
            bad = Some(format!("last fraction {prev_f} != 1"));
        }
        rule.check(bad.is_none(), || format!("{label}: {}", bad.unwrap()));
    }
    rule.finish()
}

/// `weights.conserved`: figure-weighted traffic totals equal the workload
/// totals they were drawn from — no group silently dropped or counted
/// twice.
fn weights_rule(
    egress: &EgressStudy,
    anycast: &AnycastStudy,
    tiers: &TiersStudy,
    poison: bool,
) -> RuleReport {
    let mut rule = Rule::new("weights.conserved");
    let kept = |row: &bb_measure::WindowRow| {
        row.route_median_ms.len() >= 2
            && row.route_median_ms[0].is_finite()
            && bb_stats::min_finite(row.route_median_ms[1..].iter().copied()).is_finite()
    };

    // Spray: row-major volume total vs group-major (the accumulation order
    // the figures use). Any discrepancy means a group was lost on the way
    // into Fig 1's weighting.
    let row_major: f64 = egress.dataset.rows.iter().filter(|r| kept(r)).map(|r| r.volume).sum();
    let mut groups: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for row in egress.dataset.rows.iter().filter(|r| kept(r)) {
        *groups.entry((row.pop.0, row.prefix.0)).or_insert(0.0) += row.volume;
    }
    let mut group_major: f64 = groups.values().sum();
    if poison {
        group_major += 1.0; // a phantom group's worth of volume
    }
    rule.check(
        (row_major - group_major).abs() <= 1e-9 * row_major.max(1.0),
        || format!("spray volume: rows total {row_major} != groups total {group_major}"),
    );

    // Beacons: each measured prefix reports once per round with a constant
    // weight, so the campaign total is rounds × Σ per-prefix weight.
    let mut round_times: Vec<u64> = anycast
        .measurements
        .iter()
        .map(|m| m.time.minutes().to_bits())
        .collect();
    round_times.sort_unstable();
    round_times.dedup();
    let rounds = round_times.len() as f64;
    let mut per_prefix: BTreeMap<u32, (usize, f64)> = BTreeMap::new();
    for m in &anycast.measurements {
        let e = per_prefix.entry(m.prefix.0).or_insert((0, m.weight));
        e.0 += 1;
        rule.check(m.weight == e.1, || {
            format!("beacon prefix {}: weight drifted within the campaign", m.prefix.0)
        });
    }
    for (&prefix, &(count, _)) in &per_prefix {
        rule.check(count as f64 == rounds, || {
            format!("beacon prefix {prefix}: {count} measurements for {rounds} rounds")
        });
    }
    let total: f64 = anycast.measurements.iter().map(|m| m.weight).sum();
    let expect: f64 = rounds * per_prefix.values().map(|&(_, w)| w).sum::<f64>();
    rule.check((total - expect).abs() <= 1e-6 * expect.max(1.0), || {
        format!("beacon weight total {total} != rounds × prefix weights {expect}")
    });

    // Tiers: Fig 5's per-country VP counts partition the qualifying set.
    let row_vps: usize = tiers.fig5.rows.iter().map(|r| r.vantage_points).sum();
    rule.check(row_vps == tiers.fig5.qualifying_vps, || {
        format!(
            "fig5 rows count {row_vps} VPs but {} qualified",
            tiers.fig5.qualifying_vps
        )
    });
    rule.finish()
}

/// `coverage.accounting`: kept + dropped = attempted for every study, the
/// published coverage matches a recount, and fault-free runs keep
/// everything (NaN medians may only appear in degraded windows, which only
/// a fault plane produces).
fn coverage_rule(
    facebook: &Scenario,
    egress: &EgressStudy,
    microsoft: &Scenario,
    anycast: &AnycastStudy,
    google: &Scenario,
    tiers: &TiersStudy,
    poison: bool,
) -> RuleReport {
    let mut rule = Rule::new("coverage.accounting");

    // Egress: recount the windows analyze() saw.
    let mut total = 0u64;
    let mut kept = 0u64;
    for row in &egress.dataset.rows {
        if row.route_median_ms.len() < 2 {
            continue;
        }
        total += 1;
        let preferred = row.route_median_ms[0];
        let best_alt = bb_stats::min_finite(row.route_median_ms[1..].iter().copied());
        if preferred.is_finite() && best_alt.is_finite() {
            kept += 1;
        }
    }
    if poison {
        total += 1; // a window the recount "attempted" but nobody published
    }
    let cov = &egress.fig1.coverage;
    rule.check(cov.kept == kept && cov.total == total, || {
        format!(
            "egress coverage {}/{} but recount {kept}/{total}",
            cov.kept, cov.total
        )
    });
    rule.check(cov.kept <= cov.total, || {
        format!("egress coverage kept {} > total {}", cov.kept, cov.total)
    });
    if facebook.fault_plane().is_none() {
        let nan_rows = egress
            .dataset
            .rows
            .iter()
            .filter(|r| r.route_median_ms.iter().any(|m| m.is_nan()))
            .count();
        rule.check(nan_rows == 0, || {
            format!("fault-free spray produced {nan_rows} rows with NaN medians")
        });
    }

    // Anycast: complete vs attempted.
    let complete = anycast.measurements.iter().filter(|m| m.is_complete()).count() as u64;
    let attempted = anycast.measurements.len() as u64;
    let cov = &anycast.fig3.coverage;
    rule.check(cov.kept == complete && cov.total == attempted, || {
        format!(
            "anycast coverage {}/{} but recount {complete}/{attempted}",
            cov.kept, cov.total
        )
    });
    if microsoft.fault_plane().is_none() {
        rule.check(complete == attempted, || {
            format!("fault-free beacons left {} incomplete", attempted - complete)
        });
    }

    // Tiers: finite-RTT rounds vs probes fired.
    let fin = tiers.probes.iter().filter(|p| p.rtt_ms.is_finite()).count() as u64;
    let shot = tiers.probes.len() as u64;
    let cov = &tiers.fig5.coverage;
    rule.check(cov.kept == fin && cov.total == shot, || {
        format!("tiers coverage {}/{} but recount {fin}/{shot}", cov.kept, cov.total)
    });
    if google.fault_plane().is_none() {
        rule.check(fin == shot, || {
            format!("fault-free probes lost {} rounds", shot - fin)
        });
    }
    rule.finish()
}

/// `churn.intervals`: every route's withdrawal intervals are start-sorted,
/// disjoint, at least a minute long, and begin inside the horizon. Checked
/// against the run's own plane when faults are on, else against a
/// light-preset plane over the same route keys (the rule stays meaningful
/// in fault-free audits).
fn churn_rule(facebook: &Scenario, egress: &EgressStudy, seed: u64, poison: bool) -> RuleReport {
    let mut rule = Rule::new("churn.intervals");
    let fallback;
    let plane = match facebook.fault_plane() {
        Some(p) => p,
        None => {
            fallback = FaultPlane::new(seed ^ 0x_0bad, FaultConfig::light());
            &fallback
        }
    };
    let horizon = plane.config().horizon_min;
    let check_intervals = |rule: &mut Rule, label: &str, events: &[Outage]| {
        let mut bad: Option<String> = None;
        for w in events.windows(2) {
            if w[0].end_min > w[1].start_min {
                bad = Some(format!(
                    "overlap: [{:.1}, {:.1}] then [{:.1}, {:.1}]",
                    w[0].start_min, w[0].end_min, w[1].start_min, w[1].end_min
                ));
                break;
            }
        }
        for e in events {
            if bad.is_some() {
                break;
            }
            if e.end_min - e.start_min < 1.0 {
                bad = Some(format!("interval [{:.3}, {:.3}] under a minute", e.start_min, e.end_min));
            } else if e.start_min >= horizon {
                bad = Some(format!("interval starts at {:.1} past horizon {horizon:.1}", e.start_min));
            }
        }
        rule.check(bad.is_none(), || format!("{label}: {}", bad.unwrap()));
    };
    // The exact keys the spray campaign consumes, bounded for audit cost.
    let mut audited = 0usize;
    'targets: for t in &egress.dataset.targets {
        for ri in 0..t.routes.len() {
            let key = FaultPlane::stream_key(&[t.pop.0 as u64, t.prefix.0 as u64, ri as u64]);
            let events = plane.churn_events(key);
            check_intervals(&mut rule, &format!("route key {key:#x}"), &events);
            audited += 1;
            if audited >= 256 {
                break 'targets;
            }
        }
    }
    if poison {
        let bad = [
            Outage { start_min: 0.0, end_min: 10.0 },
            Outage { start_min: 5.0, end_min: 15.0 },
        ];
        check_intervals(&mut rule, "injected interval list", &bad);
    }
    rule.finish()
}

/// `sketch.quantile_error`: the streaming sketch's declared relative-error
/// guarantee, checked against *this build's* actual campaign data. The
/// rule streams the egress study's per-window preferred − best-alternate
/// diffs (the exact value stream `repro serve --epsilon` aggregates) into
/// a [`bb_stats::QuantileSketch`] in dataset order, and at every epoch
/// boundary compares sketch quantiles at q ∈ {0.25, 0.5, 0.75, 0.9}
/// against the true retained-sample quantiles (`weighted_quantile`'s
/// convention, which the sketch's contract names): a serve figure is only
/// trustworthy if `|est − truth| ≤ ε·|truth| + 1e-9` holds at every
/// boundary, not just at the end.
fn sketch_error_rule(egress: &EgressStudy, poison: bool) -> RuleReport {
    let mut rule = Rule::new("sketch.quantile_error");
    const EPS: f64 = 0.02;
    /// Kept values per simulated snapshot epoch.
    const EPOCH: usize = 512;
    let mut sk = bb_stats::QuantileSketch::new(EPS);
    let mut retained: Vec<(f64, f64)> = Vec::new();
    let check_boundary = |rule: &mut Rule,
                          sk: &bb_stats::QuantileSketch,
                          retained: &[(f64, f64)],
                          label: &str| {
        for q in [0.25, 0.5, 0.75, 0.9] {
            let truth = bb_stats::weighted_quantile(retained, q)
                .expect("boundary checks only run with retained data");
            let est = sk.quantile(q).expect("sketch saw the same stream");
            rule.check(
                (est - truth).abs() <= sk.eps() * truth.abs() + 1e-9,
                || {
                    format!(
                        "{label} q={q}: sketch {est:.6} vs truth {truth:.6} \
                         exceeds eps {} bound",
                        sk.eps()
                    )
                },
            );
        }
    };
    for row in &egress.dataset.rows {
        if row.route_median_ms.len() < 2 {
            continue;
        }
        let preferred = row.route_median_ms[0];
        let best_alt = bb_stats::min_finite(row.route_median_ms[1..].iter().copied());
        if !preferred.is_finite() || !best_alt.is_finite() {
            continue;
        }
        let diff = preferred - best_alt;
        sk.add(diff, 1.0);
        retained.push((diff, 1.0));
        if retained.len() % EPOCH == 0 {
            check_boundary(
                &mut rule,
                &sk,
                &retained,
                &format!("epoch boundary at {} values", retained.len()),
            );
        }
    }
    if poison {
        // A corrupt item in the sketch's input stream only: a heavy outlier
        // the retained truth never saw, dragging the upper quantiles far
        // past the ε bound.
        sk.add(1e6, retained.len() as f64 + 1.0);
    }
    if retained.is_empty() {
        // Nothing survived (conceivable under extreme fault storms): the
        // sketch must agree it saw nothing.
        rule.check(sk.count() == 0, || {
            format!("no windows retained but sketch folded {} values", sk.count())
        });
    } else {
        check_boundary(
            &mut rule,
            &sk,
            &retained,
            &format!("final boundary at {} values", retained.len()),
        );
    }
    rule.finish()
}

// --- Metamorphic relations on Scale::Test slices. ---

/// `meta.faults_off`: `--faults off` must be *the same program* as a build
/// without the fault plane — `FaultLevel::Off` maps to no config, and a
/// world built through that mapping sprays byte-identically to one that
/// never mentioned faults.
fn faults_off_relation(seed: u64, poison: bool) -> RuleReport {
    let mut rule = Rule::new("meta.faults_off");
    rule.check(FaultLevel::Off.config().is_none(), || {
        "FaultLevel::Off maps to a live FaultConfig".to_string()
    });
    let cfg_plain = ScenarioConfig::facebook(seed, Scale::Test);
    let mut cfg_off = ScenarioConfig::facebook(seed, Scale::Test);
    cfg_off.faults = FaultLevel::Off.config();
    let rows = |cfg: ScenarioConfig| {
        let s = Scenario::build(cfg);
        let ds = bb_measure::spray(
            &s.topo,
            &s.provider,
            &s.workload,
            &s.congestion,
            s.fault_plane(),
            &mr_spray_cfg(),
        );
        format!("{:?}", ds.rows)
    };
    let plain = rows(cfg_plain);
    let mut off = rows(cfg_off);
    if poison {
        off.push('x'); // pretend the off-path diverged by one byte
    }
    rule.check(plain == off, || {
        "spray rows differ between no-fault-plane and --faults off builds".to_string()
    });
    rule.finish()
}

/// `meta.jobs_independent`: audited aggregates must not depend on the
/// worker count — the same Test slice sprayed at jobs=1 and jobs=2 is
/// byte-identical.
fn jobs_relation(seed: u64, poison: bool) -> RuleReport {
    let mut rule = Rule::new("meta.jobs_independent");
    let s = Scenario::build(ScenarioConfig::facebook(seed ^ 0x_106c, Scale::Test));
    let saved = bb_exec::jobs();
    let rows = |jobs: usize| {
        bb_exec::set_jobs(jobs);
        let ds = bb_measure::spray(
            &s.topo,
            &s.provider,
            &s.workload,
            &s.congestion,
            None,
            &mr_spray_cfg(),
        );
        format!("{:?}", ds.rows)
    };
    let one = rows(1);
    let mut two = rows(2);
    bb_exec::set_jobs(saved);
    if poison {
        two.push('x');
    }
    rule.check(one == two, || {
        "spray rows differ between --jobs 1 and --jobs 2".to_string()
    });
    rule.finish()
}

/// `meta.ablation_direction`: decorrelating congestion (the early
/// literature's independent-paths world, §3.1.1 / X-ABLATE) must not
/// *decrease* window-level exploitability — with shared destination-side
/// congestion removed, a performance-aware controller finds at least as
/// many improvable windows.
fn ablation_relation(seed: u64, poison: bool) -> RuleReport {
    let mut rule = Rule::new("meta.ablation_direction");
    let improvable = |independent: bool| {
        let mut cfg = ScenarioConfig::facebook(seed, Scale::Test);
        if independent {
            // The xablate "independent" arm.
            cfg.congestion = bb_netsim::CongestionConfig::independent();
        }
        let scenario = Scenario::build(cfg);
        bb_core::study_egress::run(&scenario, &mr_spray_cfg())
            .map(|study| study.episodes.frac_windows_improvable)
    };
    match (improvable(false), improvable(true)) {
        (Ok(correlated), Ok(independent)) => {
            let (correlated, independent) = if poison {
                (independent, correlated) // swap the comparison's sides
            } else {
                (correlated, independent)
            };
            rule.check(independent + 1e-12 >= correlated, || {
                format!(
                    "decorrelated congestion lowered windows-improvable: \
                     {independent:.4} < {correlated:.4}"
                )
            });
        }
        _ => rule.check(false, || "ablation slice failed to run".to_string()),
    }
    rule.finish()
}

/// `meta.shard_independent`: a campaign split across shard checkpoints and
/// stitched back through `merge_shards` must reproduce the unsharded
/// checkpoint byte-for-byte — the sharding plane may move work between
/// processes, never change bytes. The relation builds three units from a
/// real Test-scale spray, shards them with a deliberate overlap (so the
/// duplicate-agreement check is exercised, not just coverage), reads each
/// shard back from the records it wrote, merges, and compares encodings.
fn shard_relation(seed: u64, poison: bool) -> RuleReport {
    use bb_core::checkpoint::{merge_shards, CampaignKey, Checkpoint, UnitResult};
    let mut rule = Rule::new("meta.shard_independent");
    let s = Scenario::build(ScenarioConfig::facebook(seed ^ 0x_5a4d, Scale::Test));
    let ds = bb_measure::spray(
        &s.topo,
        &s.provider,
        &s.workload,
        &s.congestion,
        None,
        &mr_spray_cfg(),
    );
    let n = ds.rows.len();
    rule.check(n >= 3, || format!("spray slice too small to shard: {n} rows"));
    let unit = |lo: usize, hi: usize| UnitResult {
        stdout: format!("{:?}\n", &ds.rows[lo.min(n)..hi.min(n)]),
        files: vec![(format!("slice_{lo}.csv"), format!("{lo}..{hi}").into_bytes())],
    };
    let key = CampaignKey::new(seed, "test", "off", "u0,u1,u2", true);
    let mut full = Checkpoint::new(key.clone());
    full.record("u0", unit(0, n / 3));
    full.record("u1", unit(n / 3, 2 * n / 3));
    full.record("u2", unit(2 * n / 3, n));

    // Shard A appended u0 then u1; shard B u2 then u1 — `u1` appears in
    // both shards, so the merge must verify the copies agree byte-for-byte.
    // The poison corrupts exactly this duplicated copy.
    let mut dup = full.units["u1"].clone();
    if poison {
        dup.stdout.push('x');
    }
    let a = [
        Checkpoint::header(&key),
        full.units["u0"].encode("u0"),
        full.units["u1"].encode("u1"),
    ];
    let b = [Checkpoint::header(&key), full.units["u2"].encode("u2"), dup.encode("u1")];
    let shards = [a.concat(), b.concat()].map(|bytes| Checkpoint::decode(&bytes));
    let merged = match shards {
        [Ok((a, _)), Ok((b, _))] => merge_shards(&[a, b]),
        [Err(e), _] | [_, Err(e)] => Err(e),
    };
    match merged {
        Ok(merged) => rule.check(merged.encode() == full.encode(), || {
            "merged shard checkpoint differs from the unsharded checkpoint".to_string()
        }),
        Err(e) => rule.check(false, || format!("shard merge rejected: {e}")),
    }
    rule.finish()
}

/// `meta.orchestrated_identity`: the orchestrator's whole recovery ladder —
/// a shard checkpoint torn mid-append, its torn tail dropped, the dropped
/// unit recomputed and re-appended, shards merged — must reproduce the
/// unsharded checkpoint byte-for-byte. Crash recovery may re-do work,
/// never change bytes. Emulated in-process on a Test-scale spray with the
/// exact primitives the binary uses: the tear is the chaos injector's
/// (16 bytes off the tail), the recovery is `Checkpoint::decode`'s
/// torn-tail rule, and the poison corrupts the *re-appended* unit — a
/// recovery that recomputed different bytes.
fn orchestrated_identity_relation(seed: u64, poison: bool) -> RuleReport {
    use bb_core::checkpoint::{merge_shards, CampaignKey, Checkpoint, UnitResult};
    let mut rule = Rule::new("meta.orchestrated_identity");
    let s = Scenario::build(ScenarioConfig::facebook(seed ^ 0x_06c4, Scale::Test));
    let ds = bb_measure::spray(
        &s.topo,
        &s.provider,
        &s.workload,
        &s.congestion,
        None,
        &mr_spray_cfg(),
    );
    let n = ds.rows.len();
    rule.check(n >= 3, || format!("spray slice too small to shard: {n} rows"));
    let unit = |lo: usize, hi: usize| UnitResult {
        stdout: format!("{:?}\n", &ds.rows[lo.min(n)..hi.min(n)]),
        files: vec![(format!("slice_{lo}.csv"), format!("{lo}..{hi}").into_bytes())],
    };
    let key = CampaignKey::new(seed, "test", "off", "u0,u1,u2", true);
    // The unsharded reference checkpoint.
    let mut full = Checkpoint::new(key.clone());
    full.record("u0", unit(0, n / 3));
    full.record("u1", unit(n / 3, 2 * n / 3));
    full.record("u2", unit(2 * n / 3, n));

    // Shard A appended u0 and u1, then its checkpoint was torn 16 bytes
    // short (the chaos injector's exact damage): u1's last record is cut.
    let a = [
        Checkpoint::header(&key),
        full.units["u0"].encode("u0"),
        full.units["u1"].encode("u1"),
    ]
    .concat();
    let torn = &a[..a.len() - 16];
    let (recovered, intact) = match Checkpoint::decode(torn) {
        Ok(x) => x,
        Err(e) => {
            rule.check(false, || format!("recovery rejected the torn checkpoint: {e}"));
            return rule.finish();
        }
    };
    rule.check(intact < torn.len(), || {
        "a 16-byte tear decoded clean — recovery saw no torn tail".to_string()
    });
    rule.check(
        recovered.units.len() == 1 && recovered.units.contains_key("u0"),
        || format!("recovery kept {:?}, expected exactly [u0]", recovered.units.keys()),
    );
    // The restarted worker truncates the torn tail, recomputes the dropped
    // unit and appends it again.
    let mut redone = full.units["u1"].clone();
    if poison {
        redone.stdout.push('x'); // recovery that recomputed different bytes
    }
    let resumed = [&torn[..intact], &redone.encode("u1")].concat();
    // Shard B was healthy all along.
    let b = [Checkpoint::header(&key), full.units["u2"].encode("u2")].concat();

    let merged = match (Checkpoint::decode(&resumed), Checkpoint::decode(&b)) {
        (Ok((a, _)), Ok((b, _))) => merge_shards(&[a, b]),
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    match merged {
        Ok(merged) => rule.check(merged.encode() == full.encode(), || {
            "recovered-and-merged checkpoint differs from the unsharded checkpoint".to_string()
        }),
        Err(e) => rule.check(false, || format!("recovered merge rejected: {e}")),
    }
    rule.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_are_unique_and_complete() {
        let mut names = RULE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULE_NAMES.len());
        assert_eq!(RULE_NAMES.len(), 14);
    }

    #[test]
    fn rule_accumulator_bounds_details() {
        let mut r = Rule::new("paths.valley_free");
        for i in 0..10 {
            r.check(false, || format!("violation {i}"));
        }
        let report = r.finish();
        assert_eq!(report.checked, 10);
        assert_eq!(report.violations, 10);
        assert_eq!(report.details.len(), Rule::MAX_DETAILS);
        assert!(!report.passed());
    }

    #[test]
    fn report_renders_pass_and_fail() {
        let mut ok = Rule::new("cdf.monotone");
        ok.check(true, || unreachable!());
        let mut bad = Rule::new("rtt.lightspeed");
        bad.check(false, || "injected".to_string());
        let report = AuditReport {
            seed: 1,
            scale: Scale::Test,
            faults: "off".to_string(),
            rules: vec![ok.finish(), bad.finish()],
        };
        assert!(!report.passed());
        let txt = report.render();
        assert!(txt.contains("cdf.monotone"));
        assert!(txt.contains("FAIL"));
        assert!(txt.contains("injected"));
        assert!(txt.contains("AUDIT FAILED: 1/2"));
    }

    #[test]
    fn metamorphic_relations_hold_on_test_slice() {
        assert!(faults_off_relation(11, false).passed());
        assert!(jobs_relation(11, false).passed());
        assert!(shard_relation(11, false).passed());
        assert!(orchestrated_identity_relation(11, false).passed());
    }

    #[test]
    fn metamorphic_poison_fires() {
        assert!(!faults_off_relation(11, true).passed());
        assert!(!jobs_relation(11, true).passed());
        assert!(!shard_relation(11, true).passed());
        assert!(!orchestrated_identity_relation(11, true).passed());
    }

    #[test]
    fn full_audit_passes_and_each_poison_fires_its_rule() {
        // One Test-scale build of all three studies, audited clean and then
        // once per poisoned rule — the poisoned rule (and only it) flips.
        let fb = Scenario::build(ScenarioConfig::facebook(7, Scale::Test));
        let egress = bb_core::study_egress::run(&fb, &mr_spray_cfg()).unwrap();
        let ms = Scenario::build(ScenarioConfig::microsoft(7, Scale::Test));
        let anycast = bb_core::study_anycast::run(
            &ms,
            &bb_measure::BeaconConfig {
                rounds: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let gg = Scenario::build(ScenarioConfig::google(7, Scale::Test));
        let tiers = bb_core::study_tiers::run(
            &gg,
            &bb_measure::ProbeConfig {
                rounds: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let opts = |violate: Option<String>| AuditOptions {
            seed: 7,
            scale: Scale::Test,
            faults: "off",
            violate,
        };
        let clean = run_audit(&fb, &egress, &ms, &anycast, &gg, &tiers, &opts(None));
        assert!(clean.passed(), "clean audit failed:\n{}", clean.render());
        assert_eq!(clean.rules.len(), RULE_NAMES.len());
        for (r, &name) in clean.rules.iter().zip(RULE_NAMES) {
            assert_eq!(r.name, name);
            assert!(r.checked > 0, "{name} checked nothing");
        }

        // Poison each invariant rule directly against the shared studies
        // (the metamorphic rules re-run whole Test slices, so their poison
        // path is covered by `metamorphic_poison_fires` above; the binary-
        // level BB_INJECT=violate loop in CI covers all fourteen end to end).
        let poisoned = [
            valley_free_rule(&fb, &egress, true),
            planet_valley_free_rule(7, Scale::Test, true),
            lightspeed_rule(&fb, &egress, &ms, &anycast, &gg, &tiers, true),
            censoring_rule(&fb, &egress, true),
            cdf_monotone_rule(&egress, &anycast, true),
            weights_rule(&egress, &anycast, &tiers, true),
            coverage_rule(&fb, &egress, &ms, &anycast, &gg, &tiers, true),
            churn_rule(&fb, &egress, 7, true),
        ];
        for r in poisoned {
            assert!(!r.passed(), "poisoned rule {} did not fire", r.name);
            assert_eq!(r.violations, 1, "{} fired {} times", r.name, r.violations);
        }
        // The sketch poison corrupts one stream item but every quantile it
        // drags past the bound counts, so it can fire more than once.
        let r = sketch_error_rule(&egress, true);
        assert!(!r.passed(), "poisoned sketch.quantile_error did not fire");
    }
}
