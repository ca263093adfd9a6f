//! Scenario assembly: one struct holding everything a study needs.

use crate::error::{BbError, BbResult};
use crate::framed;
use bb_cdn::{build_provider, Provider, ProviderConfig};
use bb_netsim::{CongestionConfig, CongestionModel, FaultConfig, FaultPlane};
use bb_topology::{generate, SnapshotConfig, Topology, TopologyConfig};
use bb_workload::{generate_workload, Workload, WorkloadConfig};

/// How big a world to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small topology for tests and quick runs (~100 ASes).
    Test,
    /// Full default topology (~400 ASes, every country populated).
    Full,
    /// Denser world (~900 ASes, ~2× cities, finer eyeball granularity) for
    /// users who want statistics closer to provider scale. Experiments run
    /// in tens of seconds instead of seconds.
    Large,
    /// Internet-sized world (≥50k ASes). Route propagation at this scale
    /// rides the interned-path arena and the frontier worklist; it is meant
    /// for `repro propagate` and targeted studies, not the full figure
    /// pipeline.
    Planet,
}

impl Scale {
    pub fn as_str(&self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Full => "full",
            Scale::Large => "large",
            Scale::Planet => "planet",
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "test" => Ok(Scale::Test),
            "full" => Ok(Scale::Full),
            "large" => Ok(Scale::Large),
            "planet" => Ok(Scale::Planet),
            other => Err(format!("unknown scale {other:?}; use test|full|large|planet")),
        }
    }
}

/// Everything needed to build a [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub seed: u64,
    pub topology: TopologyConfig,
    pub provider: ProviderConfig,
    pub workload: WorkloadConfig,
    pub congestion: CongestionConfig,
    /// Multiplier on every (non-content) AS's exit fidelity. 1.0 keeps the
    /// topology defaults; <1.0 models an era/market where interior exit
    /// selection tracked geography even less (used by the Microsoft-2015
    /// scenario, whose measured anycast catchments were notoriously loose).
    pub exit_fidelity_factor: f64,
    /// Measurement fault plane (`--faults light|heavy`). `None` runs the
    /// fault-free pipelines, byte-identical to the pre-fault baseline.
    pub faults: Option<FaultConfig>,
    /// Path to a CAIDA-style AS-relationship snapshot. When set, the
    /// topology is ingested from the snapshot (via the same construction
    /// path) instead of generated; `topology.seed` and `topology.atlas`
    /// still drive the synthetic geography.
    pub snapshot: Option<String>,
}

impl ScenarioConfig {
    /// The topology preset behind each `--scale` tier.
    pub fn topology_for(scale: Scale, seed: u64) -> TopologyConfig {
        match scale {
            Scale::Test => TopologyConfig::small(seed),
            Scale::Full => TopologyConfig {
                seed,
                ..Default::default()
            },
            Scale::Large => TopologyConfig {
                seed,
                atlas: bb_geo::atlas::AtlasConfig {
                    seed: seed ^ 0x_1a1a,
                    city_density: 1.4,
                },
                n_tier1: 14,
                transits_per_region: 7,
                global_transits: 10,
                eyeball_users_per_as_m: 12.0,
                max_eyeballs_per_country: 20,
                ..Default::default()
            },
            // ~4.3B modeled users / 0.075M per AS, capped per country:
            // ≥50k eyeballs plus a dense transit layer.
            Scale::Planet => TopologyConfig {
                seed,
                atlas: bb_geo::atlas::AtlasConfig {
                    seed: seed ^ 0x_91a7,
                    city_density: 2.0,
                },
                n_tier1: 16,
                transits_per_region: 24,
                global_transits: 12,
                eyeball_users_per_as_m: 0.075,
                max_eyeballs_per_country: 20_000,
                ..Default::default()
            },
        }
    }

    /// The §2.3.1 world: Facebook-like provider, wide PNI deployment.
    pub fn facebook(seed: u64, scale: Scale) -> Self {
        Self {
            seed,
            topology: Self::topology_for(scale, seed ^ 0x_0f0f),
            provider: ProviderConfig::facebook_like(seed ^ 0x_1111),
            workload: WorkloadConfig {
                seed: seed ^ 0x_2222,
                ..Default::default()
            },
            congestion: CongestionConfig::default(),
            exit_fidelity_factor: 1.0,
            faults: None,
            snapshot: None,
        }
    }

    /// Fingerprint of every input that shapes the *world* — topology,
    /// provider, workload, the exit-fidelity knob, and the snapshot path —
    /// but not the congestion or fault planes, which never influence
    /// target/route computation. Keys the process-wide spray-target memo
    /// ([`bb_measure::SprayConfig::targets_memo`]): two configs with equal
    /// keys build identical topologies, providers, and workloads, so their
    /// spray targets are interchangeable.
    ///
    /// Every field is folded explicitly (floats via their IEEE-754 bits)
    /// rather than through `Debug` formatting: `{:?}` renderings are not a
    /// stable serialization — they change with field order, float
    /// formatting, and derive output across compiler versions, and two
    /// different values can print identically.
    pub fn world_key(&self) -> u64 {
        let (t, p, w) = (&self.topology, &self.provider, &self.workload);
        let words = |ws: &[u64]| -> Vec<u8> { ws.iter().flat_map(|x| x.to_le_bytes()).collect() };
        let head = words(&[
            self.seed,
            // TopologyConfig.
            t.seed,
            t.atlas.seed,
            t.atlas.city_density.to_bits(),
            t.n_tier1 as u64,
            t.transits_per_region as u64,
            t.global_transits as u64,
            t.eyeball_users_per_as_m.to_bits(),
            t.max_eyeballs_per_country as u64,
            t.tier1_exit as u64,
            // ProviderConfig, up to its name.
            p.seed,
        ]);
        let tail = words(&[
            p.pop_country_min_users_m.to_bits(),
            p.max_pops as u64,
            p.pni_min_share.to_bits(),
            p.public_peer_min_share.to_bits(),
            p.transit_tier1s as u64,
            p.pni_capacity_factor.to_bits(),
            p.remote_peering_prob.to_bits(),
            // WorkloadConfig.
            w.seed,
            w.activity_sigma.to_bits(),
            w.public_resolver_fraction.to_bits(),
            w.isp_ecs_fraction.to_bits(),
            w.access_mbps.0.to_bits(),
            w.access_mbps.1.to_bits(),
            self.exit_fidelity_factor.to_bits(),
            // Snapshot tag: 0 = generated, 1 = the path that follows.
            self.snapshot.is_some() as u64,
        ]);
        let snapshot = self.snapshot.as_deref().unwrap_or("");
        framed::fnv1a(&[&head, p.name.as_bytes(), &tail, snapshot.as_bytes()])
    }

    /// The §2.3.2 world: Microsoft-like anycast CDN.
    pub fn microsoft(seed: u64, scale: Scale) -> Self {
        Self {
            provider: ProviderConfig::microsoft_like(seed ^ 0x_1111),
            exit_fidelity_factor: 0.72,
            ..Self::facebook(seed, scale)
        }
    }

    /// The §2.3.3 world: Google-like cloud with a very wide edge.
    pub fn google(seed: u64, scale: Scale) -> Self {
        Self {
            provider: ProviderConfig::google_like(seed ^ 0x_1111),
            ..Self::facebook(seed, scale)
        }
    }
}

/// A built world: topology with provider attached, workload, congestion.
pub struct Scenario {
    pub config: ScenarioConfig,
    pub topo: Topology,
    pub provider: Provider,
    pub workload: Workload,
    pub congestion: CongestionModel,
    /// Built from `config.faults`; `None` means fault-free pipelines.
    pub faults: Option<FaultPlane>,
}

impl Scenario {
    /// Build the world from a config, panicking on bad inputs. Prefer
    /// [`Scenario::try_build`] where an unreadable snapshot should surface
    /// as a usage error instead of a crash.
    pub fn build(config: ScenarioConfig) -> Scenario {
        Self::try_build(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the world from a config. Snapshot ingestion failures (missing
    /// file, malformed lines, unanchorable hierarchy) come back as
    /// [`BbError::Usage`].
    pub fn try_build(config: ScenarioConfig) -> BbResult<Scenario> {
        let mut topo = match &config.snapshot {
            Some(path) => {
                let snap_cfg = SnapshotConfig {
                    seed: config.topology.seed,
                    atlas: config.topology.atlas.clone(),
                    max_ases: None,
                };
                bb_topology::load_snapshot_file(std::path::Path::new(path), &snap_cfg)
                    .map_err(|e| BbError::usage(format!("snapshot {path}: {e}")))?
            }
            None => generate(&config.topology),
        };
        if config.exit_fidelity_factor < 1.0 {
            let ids: Vec<_> = topo.ases().iter().map(|a| (a.id, a.exit_fidelity)).collect();
            for (id, f) in ids {
                topo.set_exit_fidelity(id, f * config.exit_fidelity_factor);
            }
        }
        let provider = build_provider(&mut topo, &config.provider);
        let workload = generate_workload(&topo, &config.workload);
        let congestion = CongestionModel::new(config.seed ^ 0x_c01d, config.congestion.clone());
        let faults = config
            .faults
            .as_ref()
            .map(|f| FaultPlane::new(config.seed ^ 0x_0bad, f.clone()));
        Ok(Scenario {
            config,
            topo,
            provider,
            workload,
            congestion,
            faults,
        })
    }

    /// The fault plane to hand to the measurement pipelines.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.faults.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_label_roundtrips() {
        for s in [Scale::Test, Scale::Full, Scale::Large, Scale::Planet] {
            assert_eq!(s.as_str().parse::<Scale>(), Ok(s));
        }
        let err = "huge".parse::<Scale>().unwrap_err();
        assert!(err.contains("unknown scale \"huge\""), "{err}");
        assert!("".parse::<Scale>().is_err());
    }

    #[test]
    fn test_scale_builds_quickly_and_validates() {
        let s = Scenario::build(ScenarioConfig::facebook(1, Scale::Test));
        bb_topology::validate::validate(&s.topo).unwrap();
        assert!(!s.workload.prefixes.is_empty());
        assert!(!s.provider.pops.is_empty());
    }

    #[test]
    fn presets_differ_in_provider_breadth() {
        let g = Scenario::build(ScenarioConfig::google(1, Scale::Test));
        let m = Scenario::build(ScenarioConfig::microsoft(1, Scale::Test));
        assert!(g.provider.pops.len() > m.provider.pops.len());
    }

    #[test]
    fn deterministic_build() {
        let a = Scenario::build(ScenarioConfig::facebook(5, Scale::Test));
        let b = Scenario::build(ScenarioConfig::facebook(5, Scale::Test));
        assert_eq!(a.topo.as_count(), b.topo.as_count());
        assert_eq!(a.workload.prefixes.len(), b.workload.prefixes.len());
        assert_eq!(a.provider.pops, b.provider.pops);
    }

    #[test]
    fn world_key_stable_and_distinct_across_presets() {
        // Stability: equal configs hash equally, rebuilt from scratch.
        assert_eq!(
            ScenarioConfig::facebook(7, Scale::Test).world_key(),
            ScenarioConfig::facebook(7, Scale::Test).world_key()
        );
        // Pinned: a refactor of the fold must not move the key.
        assert_eq!(ScenarioConfig::facebook(7, Scale::Test).world_key(), 0x3500_6123_a5ef_2c7d);
        // Inequality across all three provider presets and across the
        // other world-shaping inputs.
        let fb = ScenarioConfig::facebook(7, Scale::Test).world_key();
        let ms = ScenarioConfig::microsoft(7, Scale::Test).world_key();
        let gg = ScenarioConfig::google(7, Scale::Test).world_key();
        assert_ne!(fb, ms);
        assert_ne!(fb, gg);
        assert_ne!(ms, gg);
        assert_ne!(fb, ScenarioConfig::facebook(8, Scale::Test).world_key());
        assert_ne!(fb, ScenarioConfig::facebook(7, Scale::Full).world_key());
        let mut snap = ScenarioConfig::facebook(7, Scale::Test);
        snap.snapshot = Some("as-rel.txt".into());
        assert_ne!(fb, snap.world_key());
    }

    #[test]
    fn world_key_sees_float_bit_changes() {
        // The old Debug-string fingerprint collapsed values whose `{:?}`
        // renderings coincide; the explicit folding must see any bit-level
        // field change.
        let base = ScenarioConfig::facebook(7, Scale::Test);
        let mut tweaked = base.clone();
        tweaked.exit_fidelity_factor = f64::from_bits(base.exit_fidelity_factor.to_bits() + 1);
        assert_ne!(base.world_key(), tweaked.world_key());
    }

    #[test]
    fn congestion_and_faults_do_not_shape_world_key() {
        let base = ScenarioConfig::facebook(7, Scale::Test);
        let mut faulted = base.clone();
        faulted.faults = Some(bb_netsim::FaultConfig::light());
        assert_eq!(base.world_key(), faulted.world_key());
    }

    #[test]
    fn planet_topology_config_is_internet_sized() {
        let t = ScenarioConfig::topology_for(Scale::Planet, 1);
        // ≥50k eyeballs before capping: world users / users-per-AS.
        assert!(t.eyeball_users_per_as_m <= 0.1);
        assert!(t.max_eyeballs_per_country >= 10_000);
        assert!(t.n_tier1 >= 14);
    }

    #[test]
    fn snapshot_build_routes_like_generated_worlds() {
        let dir = std::env::temp_dir().join("bb-core-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("as-rel.txt");
        std::fs::write(&path, "1|2|-1\n1|3|-1\n2|3|0\n2|4|-1\n3|5|-1\n4|5|0\n").unwrap();
        let mut cfg = ScenarioConfig::facebook(3, Scale::Test);
        cfg.snapshot = Some(path.to_string_lossy().into_owned());
        let s = Scenario::try_build(cfg).unwrap();
        assert_eq!(s.topo.as_count(), 5 + 1, "5 snapshot ASes + provider");
        bb_topology::validate::validate(&s.topo).unwrap();
        assert!(!s.workload.prefixes.is_empty());
    }

    #[test]
    fn missing_snapshot_is_a_usage_error() {
        let mut cfg = ScenarioConfig::facebook(3, Scale::Test);
        cfg.snapshot = Some("/nonexistent/as-rel.txt".into());
        let err = Scenario::try_build(cfg).err().expect("must fail");
        match err {
            BbError::Usage { message } => {
                assert!(message.contains("/nonexistent/as-rel.txt"), "{message}")
            }
            other => panic!("expected usage error, got {other}"),
        }
    }
}
