//! In-process replays of the workloads, with a span around every call
//! into a layer.
//!
//! Each replay calls the public entry points `repro` calls, in `repro`'s
//! order and with the arguments it passes, and assembles the stdout
//! `repro` would print, so the trace can be checked byte for byte against
//! the real binary. The program itself is not instrumented: spans sit
//! around the calls, so a layer's time spent inside another layer's entry
//! point (routes computed inside `study_anycast::run`, say) counts for the
//! caller. Every egress campaign is split into its layers: routes →
//! compile → sample → analyze.

use crate::spans::{self, span};
use crate::workloads::{self, spray_cfg, Workload};
use beating_bgp::bgp::{valley_free, Announcement};
use beating_bgp::cdn::{build_provider, EgressController};
use beating_bgp::core::checkpoint::Heartbeat;
use beating_bgp::core::ext::{
    availability, ecs, fabric, grooming, hybrid, peering_reduction, single_network, site_count,
    split_tcp,
};
use beating_bgp::core::serve::{ServeMode, ServeState};
use beating_bgp::core::snapshot::{ServeKey, Snapshot, SNAPSHOT_NAME};
use beating_bgp::core::{calibration, study_anycast, study_egress, study_tiers};
use beating_bgp::core::{BbError, BbResult, Scale, Scenario, ScenarioConfig};
use beating_bgp::measure::{
    BeaconConfig, ProbeConfig, SprayConfig, SprayDataset, SprayEngine, WindowRow,
};
use beating_bgp::netsim::{CongestionModel, FaultLevel, FaultPlane, Window};
use beating_bgp::topology::{AsClass, AsId, Topology};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// Counts taken where the spray kernel returns.
#[derive(Debug, Default, Clone, Copy)]
pub struct SampleTally {
    pub calls: u64,
    pub samples: u64,
    pub sessions_kept: u64,
    pub sessions_total: u64,
    pub medians_finite: u64,
    pub medians_total: u64,
}

/// What a replay produced besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub stdout: String,
    pub tally: SampleTally,
    /// Last snapshot file written (serve only).
    pub snapshot_bytes: u64,
    /// Peak `ServeState::resident_bytes` (serve only).
    pub sketch_resident_bytes: u64,
}

/// Run `w` at `seed` in this process; `serve_dir` is the serve directory.
pub fn run(w: Workload, seed: u64, serve_dir: &Path) -> BbResult<Replay> {
    beating_bgp::exec::set_jobs(w.jobs());
    let tally = Mutex::new(SampleTally::default());
    let mut replay = Replay::default();
    replay.stdout = match w {
        Workload::Campaign | Workload::CampaignFaultedJ2 => {
            Campaign::new(seed, w.faults(), &tally).stdout()?
        }
        Workload::PropagatePlanet => propagate(seed, &tally)?,
        Workload::ServeSketch => serve(seed, serve_dir, &tally, &mut replay)?,
    };
    replay.tally = *tally.lock().expect("tally poisoned by a panic");
    Ok(replay)
}

/// `Scenario::try_build` for a generated world, assembled from its parts
/// so that each layer gets a span.
fn build_scenario(config: ScenarioConfig) -> Scenario {
    assert!(config.snapshot.is_none(), "benchmark worlds are generated");
    span("core.scenario", || {
        let mut topo = span("topology.generate", || {
            beating_bgp::topology::generate(&config.topology)
        });
        if config.exit_fidelity_factor < 1.0 {
            let ids: Vec<_> = topo
                .ases()
                .iter()
                .map(|a| (a.id, a.exit_fidelity))
                .collect();
            for (id, f) in ids {
                topo.set_exit_fidelity(id, f * config.exit_fidelity_factor);
            }
        }
        let provider = span("cdn.build_provider", || {
            build_provider(&mut topo, &config.provider)
        });
        let workload = span("workload.generate", || {
            beating_bgp::workload::generate_workload(&topo, &config.workload)
        });
        let congestion = CongestionModel::new(config.seed ^ 0x_c01d, config.congestion.clone());
        let faults = config
            .faults
            .as_ref()
            .map(|f| FaultPlane::new(config.seed ^ 0x_0bad, f.clone()));
        Scenario {
            config,
            topo,
            provider,
            workload,
            congestion,
            faults,
        }
    })
}

/// Full-table routes of every client AS, computed into the process-wide
/// cache as `SprayEngine::new` would compute them, so that compiling the
/// engine afterwards times only target selection and plan compilation.
fn warm_routes(topo: &Topology, workload: &beating_bgp::workload::Workload) {
    let mut seen = std::collections::HashSet::new();
    let asns: Vec<AsId> = workload
        .prefixes
        .iter()
        .map(|p| p.asn)
        .filter(|a| seen.insert(*a))
        .collect();
    span("bgp.routes", || {
        beating_bgp::exec::par_map(&asns, |_, &asn| {
            beating_bgp::exec::cached_routes(topo, &Announcement::full(topo, asn));
        })
    });
}

fn compile(
    scenario: &Scenario,
    workload: &beating_bgp::workload::Workload,
    cfg: &SprayConfig,
) -> SprayEngine {
    warm_routes(&scenario.topo, workload);
    span("measure.compile", || {
        SprayEngine::new(
            &scenario.topo,
            &scenario.provider,
            workload,
            &scenario.congestion,
            cfg,
        )
    })
}

fn sample(
    engine: &SprayEngine,
    windows: &[Window],
    faults: Option<&FaultPlane>,
    cfg: &SprayConfig,
    tally: &Mutex<SampleTally>,
) -> Vec<Vec<WindowRow>> {
    let rows = span("measure.sample", || engine.sample_windows(windows, faults));
    let mut t = tally.lock().expect("tally poisoned by a panic");
    t.calls += 1;
    t.samples += workloads::samples_per_call(engine.targets(), windows.len(), cfg);
    for row in rows.iter().flatten() {
        t.sessions_total += (row.route_samples.len() * cfg.sessions_per_window) as u64;
        t.sessions_kept += row.route_samples.iter().map(|&n| u64::from(n)).sum::<u64>();
        t.medians_total += row.route_median_ms.len() as u64;
        t.medians_finite += row.route_median_ms.iter().filter(|m| m.is_finite()).count() as u64;
    }
    rows
}

/// `spray()`, split at its layer boundaries.
fn spray(
    scenario: &Scenario,
    workload: &beating_bgp::workload::Workload,
    cfg: &SprayConfig,
    tally: &Mutex<SampleTally>,
) -> SprayDataset {
    let engine = compile(scenario, workload, cfg);
    let rows = sample(
        &engine,
        &engine.batch_windows(),
        scenario.fault_plane(),
        cfg,
        tally,
    );
    SprayDataset {
        targets: engine.into_targets(),
        rows: rows.into_iter().flatten().collect(),
    }
}

/// `study_egress::run` on a full-scale world, split at its layer
/// boundaries.
fn egress_study(
    scenario: &Scenario,
    tally: &Mutex<SampleTally>,
) -> BbResult<study_egress::EgressStudy> {
    let cfg = SprayConfig {
        targets_memo: Some(scenario.config.world_key()),
        ..spray_cfg(Scale::Full)
    };
    let dataset = spray(scenario, &scenario.workload, &cfg, tally);
    span("core.egress_analyze", || {
        study_egress::analyze(scenario, &cfg, dataset)
    })
}

/// Experiments of `repro all`, in output order, with their span names.
const EXPERIMENTS: [(&str, &str); 18] = [
    ("calib", "core.calib"),
    ("fig1", "core.fig1"),
    ("fig2", "core.fig2"),
    ("s311", "core.s311"),
    ("fig3", "core.fig3"),
    ("fig4", "core.fig4"),
    ("fig5", "core.fig5"),
    ("goodput", "core.goodput"),
    ("xonenet", "core.xonenet"),
    ("xpeer", "core.xpeer"),
    ("xgroom", "core.xgroom"),
    ("xsites", "core.xsites"),
    ("xecs", "core.xecs"),
    ("xavail", "core.xavail"),
    ("xhybrid", "core.xhybrid"),
    ("xfabric", "core.xfabric"),
    ("xablate", "core.xablate"),
    ("xsplit", "core.xsplit"),
];

/// Span names of the experiments `layers` reports one by one; the rest
/// are summed into `core.other_experiments_s`.
pub const NAMED_EXPERIMENTS: [&str; 4] =
    ["core.xablate", "core.xpeer", "core.xavail", "core.xgroom"];

pub fn is_experiment(span_name: &str) -> bool {
    EXPERIMENTS.iter().any(|&(_, s)| s == span_name)
}

/// `repro all`: shared worlds and studies built once on first use, the
/// experiments claimed in order by `--jobs` workers.
struct Campaign<'a> {
    seed: u64,
    faults: FaultLevel,
    tally: &'a Mutex<SampleTally>,
    facebook: OnceLock<Scenario>,
    microsoft: OnceLock<Scenario>,
    google: OnceLock<Scenario>,
    egress: OnceLock<BbResult<study_egress::EgressStudy>>,
    anycast: OnceLock<BbResult<study_anycast::AnycastStudy>>,
    tiers: OnceLock<BbResult<study_tiers::TiersStudy>>,
}

impl<'a> Campaign<'a> {
    fn new(seed: u64, faults: FaultLevel, tally: &'a Mutex<SampleTally>) -> Self {
        Campaign {
            seed,
            faults,
            tally,
            facebook: OnceLock::new(),
            microsoft: OnceLock::new(),
            google: OnceLock::new(),
            egress: OnceLock::new(),
            anycast: OnceLock::new(),
            tiers: OnceLock::new(),
        }
    }

    fn with_faults(&self, mut cfg: ScenarioConfig) -> ScenarioConfig {
        cfg.faults = self.faults.config();
        cfg
    }

    fn facebook(&self) -> &Scenario {
        self.facebook.get_or_init(|| {
            build_scenario(self.with_faults(ScenarioConfig::facebook(self.seed, Scale::Full)))
        })
    }

    fn microsoft(&self) -> &Scenario {
        self.microsoft.get_or_init(|| {
            build_scenario(self.with_faults(ScenarioConfig::microsoft(self.seed, Scale::Full)))
        })
    }

    fn google(&self) -> &Scenario {
        self.google.get_or_init(|| {
            build_scenario(self.with_faults(ScenarioConfig::google(self.seed, Scale::Full)))
        })
    }

    fn egress(&self) -> BbResult<&study_egress::EgressStudy> {
        self.egress
            .get_or_init(|| egress_study(self.facebook(), self.tally))
            .as_ref()
            .map_err(Clone::clone)
    }

    fn anycast(&self) -> BbResult<&study_anycast::AnycastStudy> {
        self.anycast
            .get_or_init(|| {
                let scenario = self.microsoft();
                span("core.anycast_study", || {
                    study_anycast::run(scenario, &BeaconConfig::default())
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn tiers(&self) -> BbResult<&study_tiers::TiersStudy> {
        self.tiers
            .get_or_init(|| {
                let scenario = self.google();
                span("core.tiers_study", || {
                    study_tiers::run(scenario, &ProbeConfig::default())
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn stdout(&self) -> BbResult<String> {
        let root = spans::current();
        let chunks = beating_bgp::exec::par_map(&EXPERIMENTS, |_, &(name, span_name)| {
            spans::with_parent(root, || span(span_name, || self.experiment(name)))
        });
        chunks.into_iter().collect()
    }

    /// One experiment's stdout chunk, formatted as `repro` formats it.
    fn experiment(&self, name: &str) -> BbResult<String> {
        let mut out = String::new();
        let rows = |out: &mut String, title: &str, rows: Vec<String>| {
            out.push_str(title);
            for r in rows {
                writeln!(out, "{r}").expect("writing to a String cannot fail");
            }
            out.push('\n');
        };
        match name {
            "calib" => writeln!(out, "{}", calibration::run(self.facebook()).render()),
            "fig1" => writeln!(out, "{}", self.egress()?.fig1.render()),
            "fig2" => writeln!(out, "{}", self.egress()?.fig2.render()),
            "s311" => {
                let study = self.egress()?;
                write!(
                    out,
                    "{}\nS3.1 bandwidth: alternate improves goodput >=10% for {:.1}% of traffic \
                     (paper: \"qualitatively similar results for bandwidth\")\n\n",
                    study.episodes.render(),
                    study.bandwidth_improvable * 100.0
                )
            }
            "fig3" => writeln!(out, "{}", self.anycast()?.fig3.render()),
            "fig4" => writeln!(out, "{}", self.anycast()?.fig4.render()),
            "fig5" => writeln!(out, "{}", self.tiers()?.fig5.render()),
            "goodput" => write!(
                out,
                "S4 goodput: weighted median 10MB transfer-time difference \
                 (standard - premium): {:+.2} s\n\n",
                self.tiers()?.goodput_diff_s
            ),
            "xonenet" => {
                let r = single_network::run(self.google(), None);
                rows(
                    &mut out,
                    "X-ONENET (§3.3.2): latency inflation vs single-network share\n",
                    r.iter().map(|b| b.render_row()).collect(),
                );
                Ok(())
            }
            "xpeer" => {
                let base = self.with_faults(ScenarioConfig::facebook(self.seed, Scale::Full));
                let r = peering_reduction::run(&base, &[0.05, 0.12, 0.3, 0.6, 1.1]);
                rows(
                    &mut out,
                    "X-PEER (§3.1.3): reduced peering footprint sweep\n",
                    r.iter().map(|s| s.render_row()).collect(),
                );
                Ok(())
            }
            "xgroom" => {
                let scenario = self.microsoft();
                let mut r: Vec<String> = grooming::run(scenario, self.seed ^ 0x_9700, 12)
                    .iter()
                    .map(|s| s.render_row())
                    .collect();
                r.push(format!(
                    "  fully-groomed baseline: {}",
                    grooming::groomed_baseline(scenario).render_row()
                ));
                rows(
                    &mut out,
                    "X-GROOM (§3.2.2): grooming an ungroomed anycast prefix\n",
                    r,
                );
                Ok(())
            }
            "xsites" => {
                let r = site_count::run(self.microsoft(), &[1, 2, 4, 8, 16, 32, 64]);
                rows(
                    &mut out,
                    "X-SITES (§3.2.2): anycast latency vs number of sites\n",
                    r.iter().map(|p| p.render_row()).collect(),
                );
                Ok(())
            }
            "xecs" => {
                let r = ecs::run(
                    self.microsoft(),
                    &BeaconConfig::default(),
                    &[0.0, 0.25, 0.5, 1.0],
                )?;
                rows(
                    &mut out,
                    "X-ECS (§3.2.1): Fig 4 vs ISP EDNS-Client-Subnet adoption\n",
                    r.iter().map(|p| p.render_row()).collect(),
                );
                Ok(())
            }
            "xavail" => {
                let r = availability::run(
                    self.microsoft(),
                    self.seed ^ 0x_a1a,
                    &availability::RecoveryConfig::default(),
                );
                writeln!(out, "{}", r.render())
            }
            "xhybrid" => {
                let r = hybrid::run(self.microsoft(), &BeaconConfig::default(), 10.0);
                rows(
                    &mut out,
                    "X-HYBRID (§4): anycast vs DNS vs hybrid vs oracle\n",
                    r.iter().map(|s| s.render_row()).collect(),
                );
                Ok(())
            }
            "xfabric" => {
                let r = fabric::evaluate(&self.egress()?.dataset, &EgressController::default());
                writeln!(out, "{}", r.render())
            }
            "xablate" => {
                self.xablate(&mut out)?;
                Ok(())
            }
            "xsplit" => {
                out.push_str("X-SPLIT (§4): split-TCP backend comparison\n");
                for bytes in [30e3, 300e3, 3e6] {
                    writeln!(
                        out,
                        "{}",
                        split_tcp::run(self.google(), bytes, None).render()
                    )
                    .expect("writing to a String cannot fail");
                }
                Ok(())
            }
            other => unreachable!("unknown experiment {other}"),
        }
        .expect("writing to a String cannot fail");
        Ok(out)
    }

    fn xablate(&self, out: &mut String) -> BbResult<()> {
        out.push_str("X-ABLATE: modeling-mechanism ablations (quality deltas)\n");
        out.push_str("  [correlated congestion]\n");
        for (label, metro, lastmile, link) in [
            ("correlated (default)", 0.10, 0.35, 0.25),
            ("independent", 0.0, 0.0, 2.0),
        ] {
            let mut cfg = self.with_faults(ScenarioConfig::facebook(self.seed, Scale::Full));
            cfg.congestion.metro_events_per_day = metro;
            cfg.congestion.lastmile_events_per_day = lastmile;
            cfg.congestion.link_events_per_day = link;
            if label == "independent" {
                cfg.congestion.event_duration_mean_min = 90.0;
                cfg.congestion.event_severity = (0.35, 0.7);
            }
            let scenario = build_scenario(cfg);
            let study = egress_study(&scenario, self.tally)?;
            writeln!(
                out,
                "    {label:<22} median-improvable>=5ms {:.1}%  windows-improvable {:.1}%  degrade-together {:.0}%",
                study.fig1.frac_improvable_5ms * 100.0,
                study.episodes.frac_windows_improvable * 100.0,
                study.episodes.degrade_together * 100.0
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("  [exit fidelity]\n");
        for (label, factor) in [("sloppy (default)", 0.72_f64), ("perfect geo", 1.0)] {
            let mut cfg = self.with_faults(ScenarioConfig::microsoft(self.seed, Scale::Full));
            cfg.exit_fidelity_factor = factor;
            let scenario = build_scenario(cfg);
            let study = study_anycast::run(
                &scenario,
                &BeaconConfig {
                    rounds: 4,
                    ..Default::default()
                },
            )?;
            writeln!(
                out,
                "    {label:<22} anycast within 10ms {:.1}%  tail>=100ms {:.1}%",
                study.fig3.frac_within_10ms * 100.0,
                study.fig3.frac_gt_100ms * 100.0
            )
            .expect("writing to a String cannot fail");
        }
        out.push('\n');
        Ok(())
    }
}

/// `repro propagate --scale planet --origins K`.
fn propagate(seed: u64, tally: &Mutex<SampleTally>) -> BbResult<String> {
    let scale = Scale::Planet;
    let scenario = build_scenario(ScenarioConfig::facebook(seed, scale));
    let topo = &scenario.topo;
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!("=== PROPAGATE (scale planet, seed {seed}) ==="));
    line(format!(
        "world: {} ases, {} links, fingerprint {:016x}",
        topo.as_count(),
        topo.link_count(),
        topo.fingerprint()
    ));
    let eyeballs: Vec<AsId> = topo.ases_of_class(AsClass::Eyeball).map(|n| n.id).collect();
    if eyeballs.is_empty() {
        return Err(BbError::usage(
            "world has no eyeball ases to originate from",
        ));
    }
    let k = workloads::PROPAGATE_ORIGINS.min(eyeballs.len());
    let picks: Vec<AsId> = (0..k).map(|i| eyeballs[i * eyeballs.len() / k]).collect();
    line(format!("origins: {k} of {} eyeball ases", eyeballs.len()));

    let stride = (topo.as_count() / 4096).max(1);
    let root = spans::current();
    let reports = beating_bgp::exec::par_map(&picks, |_, &asn| {
        spans::with_parent(root, || {
            let table = span("bgp.routes", || {
                beating_bgp::exec::cached_routes(topo, &Announcement::full(topo, asn))
            });
            let (sampled, violations) = span("bgp.valley_check", || {
                let (mut sampled, mut violations) = (0usize, 0usize);
                for node in topo.ases().iter().step_by(stride) {
                    match table.as_path(node.id) {
                        Some(path) => {
                            sampled += 1;
                            if !valley_free(topo, &path) {
                                violations += 1;
                            }
                        }
                        None => violations += 1,
                    }
                }
                (sampled, violations)
            });
            (
                table.reachable_count(),
                table.interned_path_bytes(),
                table.naive_path_bytes(),
                table.entry_pool_bytes(),
                sampled,
                violations,
            )
        })
    });
    let (mut interned, mut naive, mut pool) = (0usize, 0usize, 0usize);
    let (mut sampled, mut violations, mut unreachable) = (0usize, 0usize, 0usize);
    for (&asn, &(reach, i_bytes, n_bytes, p_bytes, smp, bad)) in picks.iter().zip(&reports) {
        line(format!(
            "origin {}: reachable {reach}/{}, interned {i_bytes} B, naive {n_bytes} B",
            topo.asys(asn).name,
            topo.as_count()
        ));
        interned += i_bytes;
        naive += n_bytes;
        pool += p_bytes;
        sampled += smp;
        violations += bad;
        unreachable += topo.as_count() - reach;
    }
    line(format!(
        "rib totals: {k} tables, interned {interned} B, naive {naive} B ({:.1}% of naive), \
         entry pool {pool} B",
        100.0 * interned as f64 / naive as f64
    ));
    line(format!(
        "valley-free: {sampled} sampled paths, {violations} violations, {unreachable} unreachable"
    ));

    let workload = workloads::propagate_slice(&scenario.workload);
    let dataset = spray(&scenario, &workload, &spray_cfg(scale), tally);
    let route_samples: u64 = dataset
        .rows
        .iter()
        .map(|r| r.route_samples.iter().map(|&s| u64::from(s)).sum::<u64>())
        .sum();
    line(format!(
        "spray slice: {} prefixes -> {} targets, {} window rows, {route_samples} route samples",
        workload.prefixes.len(),
        dataset.targets.len(),
        dataset.rows.len()
    ));
    let failed = violations > 0 || unreachable > 0;
    line(format!(
        "=== PROPAGATE {} ===",
        if failed { "FAILED" } else { "OK" }
    ));
    Ok(out)
}

/// `repro serve --epsilon ε --epoch K --windows N` into a fresh directory.
fn serve(
    seed: u64,
    dir: &Path,
    tally: &Mutex<SampleTally>,
    replay: &mut Replay,
) -> BbResult<String> {
    let scale = Scale::Full;
    let scenario = build_scenario(ScenarioConfig::facebook(seed, scale));
    let cfg = SprayConfig {
        targets_memo: Some(scenario.config.world_key()),
        ..spray_cfg(scale)
    };
    let engine = compile(&scenario, &scenario.workload, &cfg);
    let route_counts: Vec<usize> = engine.targets().iter().map(|t| t.routes.len()).collect();
    let mode = ServeMode::from_eps(workloads::SERVE_EPSILON);
    let key = ServeKey::new(
        seed,
        "full",
        "off",
        workloads::SERVE_EPSILON,
        workloads::SERVE_EPOCH,
        false,
    );
    let mut state = ServeState::new(mode, &route_counts);
    let mut epochs = 0u64;
    let mut peak_resident = state.resident_bytes();
    while state.windows_done() < workloads::SERVE_WINDOWS {
        span("core.serve_epoch", || -> BbResult<()> {
            let lo = state.windows_done();
            let hi = (lo + workloads::SERVE_EPOCH).min(workloads::SERVE_WINDOWS);
            let chunk: Vec<Window> = (lo..hi).map(|i| engine.window_at(i)).collect();
            let per_target = sample(&engine, &chunk, None, &cfg, tally);
            span("core.serve_ingest", || state.ingest(per_target, hi - lo));
            peak_resident = peak_resident.max(state.resident_bytes());
            epochs += 1;
            let snap = Snapshot {
                key: key.clone(),
                windows_done: state.windows_done(),
                epochs,
                coarsenings: 0,
                state: span("core.state_encode", || state.encode()),
            };
            span("core.snapshot_save", || snap.save(dir))?;
            span("core.heartbeat_save", || {
                Heartbeat::now(state.windows_done(), epochs).save(dir)
            })
        })?;
    }
    replay.snapshot_bytes = std::fs::metadata(dir.join(SNAPSHOT_NAME))
        .map_err(|e| BbError::io(format!("stat {}", dir.display()), e))?
        .len();
    replay.sketch_resident_bytes = peak_resident;
    let fig = span("core.sketch_fig1", || state.sketch_fig1(engine.targets()))?;
    let mut s = fig.render();
    if let Some(note) = state.sketch_disclosure() {
        s.push_str(&note);
    }
    s.push('\n');
    Ok(s)
}
