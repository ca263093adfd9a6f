//! The four benchmark workloads: the `repro` command each one times, how
//! its output is checked, and the in-process set-up it pays before the
//! first sample or propagation.

use beating_bgp::core::{BbResult, Scale, Scenario, ScenarioConfig};
use beating_bgp::measure::{SprayConfig, SprayEngine, SprayTarget};
use beating_bgp::netsim::FaultLevel;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro all` at full scale, one worker: the paper's figures.
    Campaign,
    /// The same campaign through the fault branch at two workers.
    CampaignFaultedJ2,
    /// Route propagation on the ~53k-AS planet world; a tiny spray slice.
    PropagatePlanet,
    /// The streaming daemon: many small sample calls plus a fsynced
    /// snapshot per epoch.
    ServeSketch,
}

pub const ALL: [Workload; 4] = [
    Workload::Campaign,
    Workload::CampaignFaultedJ2,
    Workload::PropagatePlanet,
    Workload::ServeSketch,
];

/// The seed whose stdout digests are pinned below.
pub const PINNED_SEED: u64 = 42;

/// `repro serve` flags of `serve_sketch`.
pub const SERVE_WINDOWS: u64 = 1000;
pub const SERVE_EPOCH: u64 = 8;
pub const SERVE_EPSILON: f64 = 0.01;

/// `repro propagate` flags of `propagate_planet`; the slice is repro's
/// default `--prefixes`.
pub const PROPAGATE_ORIGINS: usize = 32;
pub const PROPAGATE_PREFIXES: usize = 64;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::CampaignFaultedJ2 => "campaign_faulted_j2",
            Workload::PropagatePlanet => "propagate_planet",
            Workload::ServeSketch => "serve_sketch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::PropagatePlanet => Scale::Planet,
            _ => Scale::Full,
        }
    }

    pub fn jobs(self) -> usize {
        match self {
            Workload::CampaignFaultedJ2 => 2,
            _ => 1,
        }
    }

    pub fn faults(self) -> FaultLevel {
        match self {
            Workload::CampaignFaultedJ2 => FaultLevel::Heavy,
            _ => FaultLevel::Off,
        }
    }

    /// `repro` arguments; `dir` is the fresh serve directory of this
    /// invocation (a reused one would resume and do almost no work).
    pub fn repro_args(self, seed: u64, dir: &Path) -> Vec<String> {
        let (command, scale) = match self {
            Workload::Campaign | Workload::CampaignFaultedJ2 => ("all", "full"),
            Workload::PropagatePlanet => ("propagate", "planet"),
            Workload::ServeSketch => ("serve", "full"),
        };
        let mut args = vec![
            command.to_string(),
            "--scale".to_string(),
            scale.to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--jobs".to_string(),
            self.jobs().to_string(),
        ];
        let mut flag = |name: &str, value: String| args.extend([name.to_string(), value]);
        match self {
            Workload::Campaign => {}
            Workload::CampaignFaultedJ2 => flag("--faults", self.faults().as_str().to_string()),
            Workload::PropagatePlanet => flag("--origins", PROPAGATE_ORIGINS.to_string()),
            Workload::ServeSketch => {
                flag("--windows", SERVE_WINDOWS.to_string());
                flag("--epoch", SERVE_EPOCH.to_string());
                flag("--epsilon", SERVE_EPSILON.to_string());
                flag("--dir", dir.display().to_string());
            }
        }
        args
    }

    /// `md5sum` of `repro`'s stdout at [`PINNED_SEED`]. The faulted digest
    /// equals that workload's `--jobs 1` output: worker count never
    /// changes output bytes.
    pub fn pinned_md5(self) -> &'static str {
        match self {
            Workload::Campaign => "679584b4becadd596d1ce073d04d91f3",
            Workload::CampaignFaultedJ2 => "6721dfc7af958967c3d80312521e81d1",
            Workload::PropagatePlanet => "493add304b797e14c6d847c711d628b1",
            Workload::ServeSketch => "f384d087758ce1a6c7e85bbb3d006b61",
        }
    }

    /// A line every correct run of the workload prints.
    pub fn marker(self) -> &'static str {
        match self {
            Workload::Campaign | Workload::CampaignFaultedJ2 => "improvable by >=5ms:",
            Workload::PropagatePlanet => "=== PROPAGATE OK ===",
            Workload::ServeSketch => "[sketch mode: quantiles within eps=",
        }
    }

    /// The world the workload builds first.
    pub fn primary_config(self, seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::facebook(seed, self.scale());
        cfg.faults = self.faults().config();
        cfg
    }
}

/// The spray configuration `repro` passes at each scale.
pub fn spray_cfg(scale: Scale) -> SprayConfig {
    match scale {
        Scale::Test => SprayConfig {
            days: 1.0,
            window_stride: 8,
            ..Default::default()
        },
        Scale::Full => SprayConfig::default(),
        Scale::Large => SprayConfig {
            window_stride: 8,
            ..Default::default()
        },
        Scale::Planet => SprayConfig {
            days: 1.0,
            window_stride: 16,
            sessions_per_window: 5,
            ..Default::default()
        },
    }
}

/// RTT samples one `sample_windows` call draws: every route of every
/// target, in every window, `sessions × samples-per-session` times.
pub fn samples_per_call(targets: &[SprayTarget], windows: usize, cfg: &SprayConfig) -> u64 {
    let routes: usize = targets.iter().map(|t| t.routes.len()).sum();
    (routes * windows * cfg.sessions_per_window * cfg.rtt_samples_per_session) as u64
}

/// Set-up as `repro` pays it, in process, with a cold route cache: build
/// the primary world and, for the sampling workloads, compile its spray
/// engine. Returns the elapsed time, the world and the engine (if any).
pub fn setup(w: Workload, seed: u64) -> BbResult<(Duration, Scenario, Option<SprayEngine>)> {
    beating_bgp::exec::set_jobs(w.jobs());
    beating_bgp::exec::clear_route_cache();
    let t0 = Instant::now();
    let scenario = Scenario::try_build(w.primary_config(seed))?;
    let engine = (w != Workload::PropagatePlanet).then(|| {
        SprayEngine::new(
            &scenario.topo,
            &scenario.provider,
            &scenario.workload,
            &scenario.congestion,
            &spray_cfg(w.scale()),
        )
    });
    let elapsed = t0.elapsed();
    beating_bgp::exec::clear_route_cache();
    Ok((elapsed, scenario, engine))
}

/// RTT samples one `repro` invocation of `w` draws, from the set-up's
/// world and engine: the fig1 campaign plus the two xablate congestion
/// arms (same targets, since congestion never shapes them); 1000 serve
/// windows; propagate's spray slice over its first prefixes.
pub fn samples_per_invocation(
    w: Workload,
    scenario: &Scenario,
    engine: Option<&SprayEngine>,
) -> u64 {
    let cfg = spray_cfg(w.scale());
    match (w, engine) {
        (Workload::Campaign | Workload::CampaignFaultedJ2, Some(e)) => {
            3 * samples_per_call(e.targets(), e.batch_windows().len(), &cfg)
        }
        (Workload::ServeSketch, Some(e)) => {
            samples_per_call(e.targets(), SERVE_WINDOWS as usize, &cfg)
        }
        _ => {
            let workload = propagate_slice(&scenario.workload);
            let e = SprayEngine::new(
                &scenario.topo,
                &scenario.provider,
                &workload,
                &scenario.congestion,
                &cfg,
            );
            beating_bgp::exec::clear_route_cache();
            samples_per_call(e.targets(), e.batch_windows().len(), &cfg)
        }
    }
}

/// The first [`PROPAGATE_PREFIXES`] client prefixes, as `repro propagate`
/// truncates them (ids stay dense positions in the list).
pub fn propagate_slice(
    workload: &beating_bgp::workload::Workload,
) -> beating_bgp::workload::Workload {
    let mut w = workload.clone();
    let p = PROPAGATE_PREFIXES.min(w.prefixes.len());
    w.prefixes.truncate(p);
    w.prefix_ldns.truncate(p);
    w
}
