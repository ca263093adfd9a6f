//! `repro` — regenerate every figure and statistic of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [FLAGS]    EXPERIMENT: all (default), audit, or one of
//!                               the `EXPERIMENTS` table below
//! repro propagate | merge SHARD_DIR... | orchestrate N | serve --dir DIR [FLAGS]
//!
//! FLAG                        EXP  propagate  merge  orchestrate  serve
//! --scale SCALE                x       x                 x          x
//! --seed N                     x       x                 x          x
//! --jobs N                     x       x                 x          x
//! --faults LEVEL               x                         x          x
//! --csv DIR                    x       x        x        x          x
//! --snapshot PATH              x       x
//! --timing                     x       x                            x
//! --timing-json PATH           x       x                 x          x
//! --keep-going, --shard I/N    x
//! --checkpoint/--resume DIR    x
//! --origins K, --prefixes K            x
//! --report                                      x
//! --dir DIR                                              x          x
//! --chaos LEVEL                                          x
//! --hang-timeout SECS                                    x
//! --windows N, --epoch K                                            x
//! --epsilon E, --mem-limit BYTES                                    x
//! --epoch-deadline SECS                                             x
//! --help, -h                   x       x        x        x          x
//!
//! SCALE: test|full|large, or planet under `propagate` only; LEVEL: off|light|heavy
//! ```
//!
//! Every other flag, a flag missing its value, and a value out of range
//! (`--hang-timeout` and `--epoch-deadline` take finite seconds > 0) is a
//! usage error: exit 2 with a one-line diagnostic. `propagate`,
//! `merge`, `orchestrate` and `serve` are documented on their `run_*`
//! functions below.
//!
//! `--snapshot PATH` (main campaign and `propagate`) replaces the
//! generated topology with one built from a CAIDA-style AS-relationship
//! snapshot (`<a>|<b>|-1` provider→customer, `<a>|<b>|0` peer links);
//! provider, workload, and congestion layers are grown on top of it
//! exactly as for a generated world. An unreadable or malformed snapshot
//! is a usage error (exit 2).
//!
//! Exit codes: 0 = every selected experiment succeeded; 1 = a runtime
//! failure (an experiment errored or panicked — with `--keep-going` the
//! survivors still print — an `audit` rule violated, or an orchestrated
//! shard exhausted its restarts); 2 = usage error (bad flag value, unknown
//! experiment, conflicting flags, stale checkpoint); 130 = interrupted
//! (SIGINT/SIGTERM drain — resumable when `--checkpoint` was set; an
//! orchestrated run kills its children and is resumable the same way).
//!
//! `repro audit` builds the same shared worlds and studies as the figures
//! and sweeps them through `bb-audit`'s invariant rules (valley-free
//! paths, speed-of-light RTT bounds, timeout censoring, CDF monotonicity,
//! weight conservation, coverage accounting, churn-interval shape,
//! sketch quantile-error bounds at epoch boundaries) plus
//! four metamorphic relations on `Scale::Test` slices (faults-off
//! equivalence, jobs independence, ablation directionality, shard
//! independence).
//!
//! `BB_INJECT=kind[:arg],…` sets deliberate faults that prove each
//! recovery path (`bb_core::inject` lists the kinds). `main` parses it
//! once, before dispatch; a malformed value, or a kind the chosen
//! subcommand cannot honour, is a usage error (exit 2).
//!
//! Experiments run concurrently on up to `--jobs` workers, but stdout is
//! assembled in a fixed order from per-experiment buffers, and every
//! random draw is keyed on `(seed, item)` rather than thread schedule —
//! so output is byte-identical for every `--jobs` value, including 1.
//! Worlds and studies shared by several experiments (the Facebook spray
//! campaign feeds fig1/fig2/s311/xfabric; the Microsoft world feeds
//! fig3/fig4 and five extensions) are built once and memoized.
//!
//! Experiments run *supervised* (`bb_exec::supervisor`): a panicked or
//! failed experiment is retried up to twice with deterministic seed-keyed
//! backoff under a campaign-wide retry budget. With `--checkpoint DIR`,
//! every completed experiment is appended to a versioned `checkpoint.bbck`
//! journal (a synced append behind an atomically written header), and
//! `--resume DIR` replays completed units byte-identically instead of
//! recomputing them. SIGINT and SIGTERM trigger a graceful drain:
//! in-flight experiments finish and are appended, and the run exits 130
//! with an
//! `=== INTERRUPTED (resumable) ===` block on stderr.
//!
//! `--shard I/N` splits the selected campaign across processes: shard I
//! runs the contiguous slice `[I·n/N, (I+1)·n/N)` of the experiment list,
//! prints nothing on stdout, and writes its units into the standard
//! checkpoint (`--checkpoint` is therefore required). Every shard
//! of one campaign carries an *identical* campaign key naming the full
//! experiment list, so `repro merge DIR...` can verify the shards belong
//! together, that they cover every experiment, and that duplicated units
//! agree byte-for-byte — then it reassembles stdout (and `--csv` exports)
//! byte-identical to the unsharded run. Any mismatch is a usage error
//! (exit 2), never a silent partial merge.

use beating_bgp::bench::{obj, ratio, Json, PerfReport, Registry};
use beating_bgp::cdn::EgressController;
use beating_bgp::core::ext::{
    availability, ecs, fabric, grooming, hybrid, peering_reduction, single_network, site_count,
    split_tcp,
};
use beating_bgp::core::checkpoint::{CampaignKey, Checkpoint, Heartbeat, UnitResult};
use beating_bgp::core::export::AppendFile;
use beating_bgp::core::export::{
    fig1_csv_bytes, fig2_csv_bytes, fig3_csv_bytes, fig4_csv_bytes, fig5_csv_bytes,
    write_atomic_bytes,
};
use beating_bgp::core::{calibration, study_anycast, study_egress, study_tiers};
use beating_bgp::core::inject::{Injection, Kind};
use beating_bgp::core::{BbResult, Scale, Scenario, ScenarioConfig};
use beating_bgp::exec::supervisor;
use beating_bgp::exec::timing;
use beating_bgp::netsim::{CongestionConfig, FaultLevel};
use beating_bgp::measure::{BeaconConfig, ProbeConfig, SprayConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Slice `index` of `count` of a campaign's experiment list: the bounds
/// are `[I·n/N, (I+1)·n/N)`, so the N slices tile the list exactly.
/// `--shard I/N` runs it, and `repro orchestrate` plans its chaos on it.
fn shard_slice<T>(items: &[T], index: usize, count: usize) -> &[T] {
    &items[index * items.len() / count..(index + 1) * items.len() / count]
}

/// Every option `repro` parses into one place. [`Cli::shared`] fills the
/// flags several subcommands share (see the table in the header); each
/// subcommand names the subset it accepts when it builds its [`Cli`]. The
/// fields from `experiment` on belong to the main campaign alone.
struct Opts {
    scale: Scale,
    seed: u64,
    /// Worker count for parallel sections; 0 = available cores.
    jobs: usize,
    /// Fault-injection level for the measurement pipelines.
    faults: FaultLevel,
    csv_dir: Option<PathBuf>,
    /// Build every world from this CAIDA-style AS-relationship snapshot
    /// instead of the generated topology.
    snapshot: Option<String>,
    timing: bool,
    /// Write a structured perf report (phases, counters, cache stats) here.
    timing_json: Option<PathBuf>,
    experiment: String,
    /// Keep running surviving experiments when one fails or panics.
    keep_going: bool,
    /// Append every completed experiment to a checkpoint here.
    checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint in this directory (implies
    /// checkpointing back to the same directory).
    resume: Option<PathBuf>,
    /// `(index, count)` from `--shard I/N`: run only slice I of the
    /// selected experiments, suppress stdout, checkpoint the units.
    shard: Option<(usize, usize)>,
}

/// One subcommand's argument walker. The subcommand loops over
/// `cli.args`, matches its own flags, and hands everything else to
/// [`Cli::shared`]; every bad value is a one-line usage error (exit 2).
struct Cli {
    /// Diagnostic prefix: `repro`, `repro serve`, ...
    cmd: &'static str,
    args: std::vec::IntoIter<String>,
    /// The shared flags this subcommand accepts, space-separated.
    accepts: &'static str,
    opts: Opts,
}

impl Cli {
    /// Walk `argv` after its first `skip` entries (the binary name, plus
    /// the subcommand name for subcommands).
    fn new(cmd: &'static str, skip: usize, accepts: &'static str) -> Cli {
        Cli {
            cmd,
            args: std::env::args().skip(skip).collect::<Vec<_>>().into_iter(),
            accepts,
            opts: Opts {
                scale: Scale::Full,
                seed: 42,
                jobs: 0,
                faults: FaultLevel::Off,
                csv_dir: None,
                snapshot: None,
                timing: false,
                timing_json: None,
                experiment: "all".to_string(),
                keep_going: false,
                checkpoint: None,
                resume: None,
                shard: None,
            },
        }
    }

    /// Exit 2 with `"{cmd}: {msg}"`.
    fn usage(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("{}: {msg}", self.cmd);
        std::process::exit(2)
    }

    /// Exit 2 on `--scale planet`, before any world is built. A planet
    /// campaign's memory grows without bound (it is OOM-killed past 16 GB),
    /// so only `repro propagate`, which runs no campaign, accepts it.
    fn refuse_planet_campaign(&self) {
        if self.opts.scale == Scale::Planet {
            self.usage(
                "--scale planet runs only under `repro propagate` until campaigns run in \
                 bounded memory",
            );
        }
    }

    /// The value after `flag`, parsed as `T` and accepted by `check`. A
    /// missing, unparsable or rejected value exits 2 with
    /// `"{cmd}: {flag} needs {what}"`.
    fn value<T: FromStr>(&mut self, flag: &str, what: &str, check: impl Fn(&T) -> bool) -> T {
        match self.args.next().map(|raw| raw.parse::<T>()) {
            Some(Ok(v)) if check(&v) => v,
            _ => self.usage(format_args!("{flag} needs {what}")),
        }
    }

    /// The value after an enumerated flag (`--scale`, `--faults`,
    /// `--chaos`). A missing or unknown value exits 2 with the type's own
    /// message, which names the choices.
    fn choice<T: FromStr<Err = String>>(&mut self, flag: &str) -> T {
        let raw = self.args.next().unwrap_or_default();
        raw.parse()
            .unwrap_or_else(|e| self.usage(format_args!("{flag}: {e}")))
    }

    /// Parse `flag` into [`Opts`] if it is a shared flag this subcommand
    /// accepts; `false` leaves it to the subcommand.
    fn shared(&mut self, flag: &str) -> bool {
        if !self.accepts.split(' ').any(|f| f == flag) {
            return false;
        }
        match flag {
            "--scale" => self.opts.scale = self.choice(flag),
            "--seed" => self.opts.seed = self.value(flag, "a number", any),
            "--jobs" => self.opts.jobs = self.value(flag, "a number", any),
            "--faults" => self.opts.faults = self.choice(flag),
            "--csv" => {
                let dir: PathBuf = self.value(flag, "a directory", any);
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    self.usage(format_args!("--csv: cannot create {}: {e}", dir.display()));
                }
                self.opts.csv_dir = Some(dir);
            }
            "--snapshot" => self.opts.snapshot = Some(self.value(flag, "a file path", any)),
            "--timing" => self.opts.timing = true,
            "--timing-json" => self.opts.timing_json = Some(self.value(flag, "a file path", any)),
            _ => return false,
        }
        true
    }
}

/// Accept any value that parses.
fn any<T>(_: &T) -> bool {
    true
}

/// Duration flags: `Duration::from_secs_f64` panics on negative, infinite
/// and NaN seconds, so only finite positive values get through.
fn positive_secs(s: &f64) -> bool {
    s.is_finite() && *s > 0.0
}

/// Print a subcommand's usage text on stdout and exit 0.
fn help(text: &str) -> ! {
    println!("{text}");
    std::process::exit(0)
}

/// Set by the SIGINT/SIGTERM handlers; the supervisor's cancel hook reads
/// it before claiming each experiment, turning a kill into a graceful
/// drain: in-flight experiments finish, nothing new starts.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_drain() {
    extern "C" fn on_signal(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    // `signal(2)` via the libc std already links — no new dependency. The
    // handler only stores to an AtomicBool (async-signal-safe).
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_drain() {}

fn parse_args() -> Opts {
    let shared = "--scale --seed --jobs --faults --csv --snapshot --timing --timing-json";
    let mut cli = Cli::new("repro", 1, shared);
    while let Some(arg) = cli.args.next() {
        match arg.as_str() {
            "--keep-going" => cli.opts.keep_going = true,
            "--checkpoint" => {
                cli.opts.checkpoint = Some(cli.value("--checkpoint", "a directory", any));
            }
            "--resume" => cli.opts.resume = Some(cli.value("--resume", "a directory", any)),
            "--shard" => {
                let spec: String = cli.value("--shard", "I/N (e.g. 0/3)", any);
                let parts = spec.split_once('/').map(|(a, b)| (a.parse(), b.parse()));
                cli.opts.shard = match parts {
                    Some((Ok(idx), Ok(n))) if n >= 1 && idx < n => Some((idx, n)),
                    _ => cli.usage(format_args!(
                        "--shard: bad spec {spec:?}; need I/N with 0 <= I < N"
                    )),
                };
            }
            "--help" | "-h" => {
                println!(
                    "repro [EXPERIMENT] [--scale test|full|large] [--seed N] [--jobs N] \
                     [--timing] [--timing-json PATH] [--csv DIR] \
                     [--faults off|light|heavy] [--keep-going] [--snapshot PATH] \
                     [--checkpoint DIR] [--resume DIR] [--shard I/N]\n\
                     repro merge SHARD_DIR...  stitch shard checkpoints into the campaign stdout\n\
                     repro orchestrate N       run N self-healing shard processes, then merge\n\
                     repro propagate           planet-tier route propagation smoke\n\
                     repro serve --dir DIR     streaming daemon with resumable snapshots\n\
                     (`repro SUBCOMMAND --help` lists each subcommand's flags)\n\
                     experiments: all {names} audit\n\
                     audit      sweep the built worlds and studies through bb-audit's\n\
                     {0:11}invariant rules + metamorphic relations (exit 1 on violation)\n\
                     --jobs N   worker threads (default: available cores); output is\n\
                     {0:11}byte-identical for every N\n\
                     --timing   per-experiment wall-clock, sample counters, and cache\n\
                     {0:11}stats on stderr\n\
                     --timing-json PATH  write the structured perf report (phases,\n\
                     {0:11}samples/sec, plan compile vs query time, cache rates) as JSON\n\
                     --faults L  inject measurement faults (probe loss, timeouts, BGP\n\
                     {0:11}route churn) at level L; off (default) is byte-identical\n\
                     {0:11}to a build without the fault plane\n\
                     --keep-going  on experiment failure or panic, print a diagnostic\n\
                     {0:11}and continue; survivors print normally, exit code 1\n\
                     --snapshot PATH  build the worlds from a CAIDA-style AS-relationship\n\
                     {0:11}snapshot (a|b|-1 provider-customer, a|b|0 peer) instead of\n\
                     {0:11}the generated topology; bad snapshots are usage errors\n\
                     --checkpoint DIR  append each completed experiment to a resumable\n\
                     {0:11}checkpoint in DIR; SIGINT/SIGTERM drain gracefully\n\
                     --resume DIR  replay completed experiments from DIR's checkpoint\n\
                     {0:11}(stale checkpoints are rejected, exit 2), continue the rest\n\
                     --shard I/N  run slice I of the selected experiments into the\n\
                     {0:11}checkpoint (no stdout); `repro merge` stitches the shards\n\
                     {0:11}byte-identically to the unsharded run\n\
                     BB_INJECT=kind[:arg],...  deliberate faults (poison stall unit-limit\n\
                     {0:11}crash enospc violate); a bad value is a usage error\n\
                     exit codes: 0 ok, 1 runtime failure, 2 usage error, \
                     130 interrupted (resumable)",
                    "",
                    names = experiment_names().join(" ")
                );
                std::process::exit(0);
            }
            flag if cli.shared(flag) => {}
            flag if flag.starts_with("--") => cli.usage(format_args!("unknown flag {flag}")),
            e => cli.opts.experiment = e.to_string(),
        }
    }
    let o = &cli.opts;
    // Flag-combination conflicts are usage errors (exit 2), never silent
    // precedence: `--resume DIR` already implies checkpointing back into
    // DIR, so a *different* `--checkpoint` directory contradicts it.
    if let (Some(c), Some(r)) = (&o.checkpoint, &o.resume) {
        if c != r {
            cli.usage(format_args!(
                "--checkpoint {} conflicts with --resume {}; --resume already checkpoints back into the same directory",
                c.display(),
                r.display()
            ));
        }
    }
    if o.experiment == "audit" && (o.checkpoint.is_some() || o.resume.is_some()) {
        cli.usage("audit runs standalone and does not support --checkpoint/--resume");
    }
    if o.shard.is_some() && o.checkpoint.is_none() && o.resume.is_none() {
        cli.usage(
            "--shard requires --checkpoint DIR: a shard's only output is its \
             checkpoint (stitch the shards with `repro merge`)",
        );
    }
    cli.refuse_planet_campaign();
    cli.opts
}

/// Build a scenario, mapping usage-class failures (an unreadable or
/// malformed `--snapshot` file) to exit 2 per the CLI contract and any
/// other build failure to exit 1.
fn build_world_or_exit(cfg: ScenarioConfig) -> Scenario {
    match Scenario::try_build(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            let code = match e {
                beating_bgp::core::BbError::Usage { .. } => 2,
                _ => 1,
            };
            std::process::exit(code);
        }
    }
}

/// How every subcommand ends: `--timing` prints the timing table and then
/// `text`; `--timing-json` writes the perf report, derived from the
/// process-wide registries plus the caller's own `sections`. Exits 1 if
/// the report cannot be written.
fn finish(
    opts: &Opts,
    experiment: &str,
    jobs: usize,
    t0: std::time::Instant,
    text: &str,
    sections: Vec<(&'static str, Json)>,
) {
    if opts.timing {
        eprint!("{}{text}", timing::report());
    }
    let Some(path) = &opts.timing_json else {
        return;
    };
    let report = PerfReport {
        experiment: experiment.to_string(),
        scale: opts.scale.as_str().to_string(),
        seed: opts.seed,
        jobs,
        wall_s: t0.elapsed().as_secs_f64(),
        peak_rss_mb: beating_bgp::bench::peak_rss_mb(),
        sections,
    };
    let registry = Registry {
        phases: timing::snapshot(),
        counters: timing::counters(),
        route_cache: beating_bgp::exec::cache_stats(),
        panics_isolated: beating_bgp::exec::panics_isolated(),
        congestion_races_closed: beating_bgp::netsim::materialize_races_closed(),
    };
    if let Err(e) = std::fs::write(path, report.finalize(&registry).to_json()) {
        eprintln!("--timing-json: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Write captured `(file name, bytes)` exports into the `--csv` directory.
fn write_unit_files(dir: &Path, files: &[(String, Vec<u8>)]) -> BbResult<()> {
    files
        .iter()
        .try_for_each(|(fname, bytes)| write_atomic_bytes(&dir.join(fname), bytes))
}

/// Write one export into the `--csv` directory; exit 1 if it cannot land.
fn export_or_exit(who: &str, dir: &Path, fname: &str, bytes: &[u8]) {
    if let Err(e) = write_atomic_bytes(&dir.join(fname), bytes) {
        eprintln!("{who}: CSV export failed: {e}");
        std::process::exit(1);
    }
}

/// Print the `=== INTERRUPTED ===` block on stderr, one indented line per
/// entry of `lines`, and exit 130. `resumable` runs left their progress on
/// disk, and the header says so.
fn interrupted_exit(resumable: bool, lines: &[String]) -> ! {
    eprintln!(
        "=== INTERRUPTED{} ===",
        if resumable { " (resumable)" } else { "" }
    );
    for line in lines {
        eprintln!("  {line}");
    }
    eprintln!("=== END INTERRUPTED ===");
    std::process::exit(130)
}

fn spray_cfg(scale: Scale) -> SprayConfig {
    match scale {
        Scale::Test => SprayConfig {
            days: 1.0,
            window_stride: 8,
            ..Default::default()
        },
        Scale::Full => SprayConfig::default(),
        // Keep the Large run's row count comparable by sampling windows
        // more sparsely over the same ten days.
        Scale::Large => SprayConfig {
            window_stride: 8,
            ..Default::default()
        },
        // The planet world is ~10x Large in ASes; spray a single day with
        // a coarse stride so the campaign stays CI-sized while every
        // window still exercises the full interned-RIB path.
        Scale::Planet => SprayConfig {
            days: 1.0,
            window_stride: 16,
            sessions_per_window: 5,
            ..Default::default()
        },
    }
}

/// `repro merge SHARD_DIR... [--csv DIR] [--report]`: stitch shard
/// checkpoints into the campaign's stdout, byte-identical to the unsharded
/// run. Every validation failure — unreadable checkpoint, mismatched
/// campaign keys, coverage gaps, conflicting duplicate units, schema
/// drift — is a usage error (exit 2); a partial merge is never printed.
/// With `--report`, a per-shard diagnosis (salvaged/unreadable checkpoints,
/// key mismatches, which experiments are missing) is printed to stderr
/// before any exit-2, instead of only the first error encountered.
fn run_merge() -> ! {
    let mut cli = Cli::new("repro merge", 2, "--csv");
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut report = false;
    while let Some(arg) = cli.args.next() {
        match arg.as_str() {
            "--report" => report = true,
            "--help" | "-h" => help(
                "repro merge SHARD_DIR... [--csv DIR] [--report]\n\
                 stitch shard checkpoints (written by `repro --shard I/N --checkpoint`)\n\
                 into the campaign's stdout, byte-identical to the unsharded run;\n\
                 --csv re-emits the CSV exports captured in the shard checkpoints\n\
                 --report prints a per-shard diagnosis (salvaged/corrupt checkpoints,\n\
                 missing experiments, key mismatches) before any failure exit\n\
                 exit codes: 0 ok, 2 shards invalid/incomplete/mismatched",
            ),
            flag if cli.shared(flag) => {}
            flag if flag.starts_with("--") => cli.usage(format_args!("unknown flag {flag}")),
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    if dirs.is_empty() {
        cli.usage("no shard directories given");
    }
    let shards = load_shards("repro merge", &dirs, report);
    finish_merge("repro merge", &dirs, shards, cli.opts.csv_dir.as_deref())
}

/// Load every shard checkpoint. An unreadable one exits 2, and so does a
/// torn one unless `report` keeps its whole units — when the other shards
/// overlap the dropped unit, the merge still completes. With `report`, a
/// per-shard diagnosis goes to stderr first (load status, units present,
/// key mismatches, campaign-level coverage gaps).
fn load_shards(who: &str, dirs: &[PathBuf], report: bool) -> Vec<Checkpoint> {
    let loads: Vec<_> = dirs.iter().map(|d| Checkpoint::load(d)).collect();
    if report {
        merge_report(dirs, &loads);
    }
    let load = |(d, load): (&PathBuf, BbResult<(Checkpoint, u64)>)| {
        let e = match load {
            Ok((ck, torn)) if torn == 0 || report => return ck,
            Ok((_, torn)) => format!(
                "torn tail of {torn} bytes after the last whole unit (rerun the shard \
                 with --resume to repair it, or merge with --report to use the rest)"
            ),
            Err(e) => e.to_string(),
        };
        eprintln!("{who}: {}: {e}", d.display());
        std::process::exit(2);
    };
    dirs.iter().zip(loads).map(load).collect()
}

/// `repro merge --report`'s per-shard diagnosis of `loads`, on stderr.
fn merge_report(dirs: &[PathBuf], loads: &[BbResult<(Checkpoint, u64)>]) {
    eprintln!("[repro] merge report ({} shard dir(s)):", dirs.len());
    for (d, load) in dirs.iter().zip(loads) {
        match load {
            Ok((ck, 0)) => {
                let names: Vec<&str> = ck.units.keys().map(String::as_str).collect();
                eprintln!(
                    "  {}: ok — {} unit(s): {}",
                    d.display(),
                    ck.units.len(),
                    if names.is_empty() { "(none)".to_string() } else { names.join(",") }
                );
            }
            Ok((ck, torn)) => {
                eprintln!(
                    "  {}: SALVAGED — dropped a {torn}-byte torn tail; {} unit(s) usable",
                    d.display(),
                    ck.units.len()
                );
            }
            Err(e) => eprintln!("  {}: UNREADABLE — {e}", d.display()),
        }
    }
    // Campaign-level view against the first readable key: which
    // experiments no shard provides, and which shards disagree on the key.
    if let Some((first, _)) = loads.iter().flatten().next() {
        for (d, load) in dirs.iter().zip(loads) {
            if let Ok((ck, _)) = load {
                if let Err(e) = ck.validate(&first.key) {
                    eprintln!("  {}: key mismatch — {e}", d.display());
                }
            }
        }
        let missing = first
            .key
            .missing(|e| loads.iter().flatten().any(|(ck, _)| ck.units.contains_key(e)));
        if missing.is_empty() {
            eprintln!("  campaign: all {} experiments covered", first.key.names().count());
        } else {
            eprintln!("  campaign: missing {}", missing.join(","));
        }
    }
}

/// Validate and merge loaded shard checkpoints, emit the campaign stdout
/// (and captured CSVs), and exit. Shared by `repro merge` and the
/// auto-merge at the end of `repro orchestrate`. Merge failures exit 2.
fn finish_merge(
    who: &str,
    dirs: &[std::path::PathBuf],
    shards: Vec<Checkpoint>,
    csv_dir: Option<&std::path::Path>,
) -> ! {
    // `merge_shards` checks the shards against each other and against this
    // build's code schema, and that they cover every experiment.
    let merged = beating_bgp::core::checkpoint::merge_shards(&shards).unwrap_or_else(|e| {
        eprintln!("{who}: {e}");
        std::process::exit(2);
    });
    // Coverage is guaranteed by merge_shards, so assembling in the key's
    // experiment order reproduces the unsharded stdout exactly.
    let mut stdout = String::new();
    for name in merged.key.names() {
        let unit = merged
            .units
            .get(name)
            .expect("merge_shards verified coverage of every experiment");
        stdout.push_str(&unit.stdout);
        if let Some(dir) = &csv_dir {
            for (fname, bytes) in &unit.files {
                export_or_exit(who, dir, fname, bytes);
            }
        }
    }
    eprintln!(
        "[repro] merged {} shard checkpoint(s): {} experiments, seed {}, scale {}, faults {}",
        dirs.len(),
        merged.units.len(),
        merged.key.seed,
        merged.key.scale,
        merged.key.faults
    );
    print!("{stdout}");
    std::process::exit(0);
}

/// `repro orchestrate N`: the self-healing way to run a sharded campaign.
///
/// Spawns one `repro all --shard I/N --checkpoint` child per shard and
/// watches each child's `heartbeat.bbhb`. A failure is a crash (nonzero
/// exit), a hang (heartbeat content stale past `--hang-timeout`), or a
/// fatal usage error (exit 2, never retried). Crashed and hung children
/// restart with bounded, seed-keyed backoff from their own checkpoints
/// (dropping torn tails first), then the shards auto-merge — stdout is
/// byte-identical to the unsharded run. `--chaos light|heavy` switches on a
/// deterministic fault plan, keyed entirely on the seed:
///
/// * **light** — one derived shard crashes (exit 101) partway through its
///   slice on its first launch.
/// * **heavy** — one derived shard stalls (10-minute sleep → stale
///   heartbeat → killed), every other shard crashes partway through, and
///   the first crashed shard's checkpoint is torn by 16 bytes before its
///   restart, forcing the salvage path.
///
/// Faults are injected only into each shard's *first* launch, as the
/// registry's own `crash`/`stall` values in the child's `BB_INJECT`, and a
/// crash can only fire after a finalized unit was flushed — so every chaos
/// plan terminates, and recovery always has progress to resume from.
fn run_orchestrate() -> ! {
    use beating_bgp::core::checkpoint::{HEARTBEAT_NAME, MANIFEST_NAME};
    use beating_bgp::exec::derive_seed;
    use beating_bgp::exec::orchestrator::{orchestrate, OrchestratorPolicy, ShardSpec};
    use std::process::{Command, Stdio};

    let shared = "--scale --seed --jobs --faults --csv --timing-json";
    let mut cli = Cli::new("repro orchestrate", 2, shared);
    let mut n: Option<usize> = None;
    let mut base: Option<PathBuf> = None;
    let mut chaos = FaultLevel::Off;
    let mut hang_timeout = 30.0f64;
    while let Some(arg) = cli.args.next() {
        match arg.as_str() {
            "--dir" => base = Some(cli.value("--dir", "a directory", any)),
            "--chaos" => chaos = cli.choice("--chaos"),
            "--hang-timeout" => {
                hang_timeout = cli.value("--hang-timeout", "finite seconds > 0", positive_secs);
            }
            "--help" | "-h" => help(
                "repro orchestrate N [--dir DIR] [--scale test|full|large] [--seed N]\n\
                 \u{20}                   [--jobs N] [--faults off|light|heavy] [--csv DIR]\n\
                 \u{20}                   [--chaos off|light|heavy] [--hang-timeout SECS]\n\
                 \u{20}                   [--timing-json PATH]\n\
                 spawn N shard processes (repro all --shard I/N), monitor heartbeats,\n\
                 restart crashed/hung shards from their checkpoints (torn tails\n\
                 are salvaged), then merge — stdout is byte-identical to `repro all`.\n\
                 --dir DIR    shard checkpoints live here (default: a seed/scale-keyed\n\
                 \u{20}            temp directory; reruns resume from it)\n\
                 --chaos L    deterministic fault plan: light = one shard crashes;\n\
                 \u{20}            heavy = one stalls, the rest crash, one checkpoint torn\n\
                 exit codes: 0 ok, 1 shard failed permanently (partial checkpoints\n\
                 kept), 2 usage error, 130 interrupted (children killed, resumable)",
            ),
            flag if cli.shared(flag) => {}
            flag if flag.starts_with("--") => cli.usage(format_args!("unknown flag {flag}")),
            count => {
                n = Some(
                    count
                        .parse()
                        .unwrap_or_else(|_| cli.usage(format_args!("bad shard count {count:?}"))),
                );
            }
        }
    }
    let n = n.unwrap_or_else(|| cli.usage("shard count required (e.g. `repro orchestrate 3`)"));
    cli.refuse_planet_campaign();
    if n == 0 || n > EXPERIMENTS.len() {
        cli.usage(format_args!(
            "shard count must be 1..={} (one experiment per shard at most)",
            EXPERIMENTS.len()
        ));
    }
    let opts = cli.opts;
    let Opts {
        scale,
        seed,
        jobs,
        faults,
        ref csv_dir,
        ..
    } = opts;
    beating_bgp::exec::set_jobs(jobs);
    let base = base.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("bb_orchestrate_{seed}_{}", scale.as_str()))
    });

    // --- Chaos plan: which shard gets which first-launch fault. ---
    // Victims and crash points are derived from the campaign seed alone, so
    // one seed replays one fault schedule. Shard slices are cut from
    // the experiment table, as `--shard` cuts them.
    let slice = |i: usize| shard_slice(&EXPERIMENTS, i, n);
    // Crash after 1..=slice_len finalized units: always after *some*
    // progress was flushed (so recovery resumes, never thrashes), possibly
    // after all of it (restart finds the shard complete — also legal).
    let crash = |i: usize| Injection {
        crash: Some(1 + derive_seed(seed, 0xC4A6 ^ i as u64) % slice(i).len().max(1) as u64),
        ..Injection::default()
    };
    let plan: Vec<Injection> = match chaos {
        FaultLevel::Off => vec![Injection::default(); n],
        FaultLevel::Light => {
            let victim = (derive_seed(seed, 0xC4A5) % n as u64) as usize;
            (0..n)
                .map(|i| if i == victim { crash(i) } else { Injection::default() })
                .collect()
        }
        FaultLevel::Heavy => {
            let stalled = (derive_seed(seed, 0x57A11) % n as u64) as usize;
            // The stalled shard sleeps far longer than any sane hang
            // timeout right before its slice's last experiment: the
            // watcher must kill it, nothing else will.
            let stall = |i: usize| {
                let last = slice(i).last().map_or("calib", |&(name, _)| name);
                Injection {
                    stall: Some((last.to_string(), 600.0)),
                    ..Injection::default()
                }
            };
            (0..n).map(|i| if i == stalled { stall(i) } else { crash(i) }).collect()
        }
    };
    // Heavy chaos also tears the first crashing shard's checkpoint before its
    // restart, forcing the salvage path end to end.
    let tear_victim: Option<usize> = match chaos {
        FaultLevel::Heavy => plan.iter().position(|f| f.crash.is_some()),
        _ => None,
    };

    let shard_dir = |i: usize| base.join(format!("shard{i}"));
    let specs: Vec<ShardSpec> = (0..n)
        .map(|i| ShardSpec {
            label: format!("shard {i}/{n}"),
            heartbeat: shard_dir(i).join(HEARTBEAT_NAME),
        })
        .collect();
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("repro orchestrate: cannot resolve own binary: {e}");
        std::process::exit(1);
    });

    eprintln!(
        "[repro] orchestrate: {n} shard(s), scale {}, seed {seed}, faults {}, chaos {}, dir {}",
        scale.as_str(),
        faults.as_str(),
        chaos.as_str(),
        base.display()
    );

    // Each shard's watcher thread calls `spawn`, so its tallies are atomic.
    let salvages = AtomicU64::new(0);
    let torn = AtomicBool::new(false);
    let spawn = |i: usize, attempt: u32| -> std::io::Result<std::process::Child> {
        let dir = shard_dir(i);
        std::fs::create_dir_all(&dir)?;
        let manifest = dir.join(MANIFEST_NAME);
        if attempt > 0 {
            if tear_victim == Some(i) && !torn.swap(true, Ordering::Relaxed) {
                // Chaos tear: chop 16 bytes off the checkpoint, exactly the
                // damage an interrupted append leaves. The child's --resume
                // must drop the torn unit and recompute it.
                if let Ok(bytes) = std::fs::read(&manifest) {
                    if bytes.len() > 16 {
                        let _ = std::fs::write(&manifest, &bytes[..bytes.len() - 16]);
                        eprintln!(
                            "[repro] chaos: tore 16 bytes off {} before restart",
                            manifest.display()
                        );
                    }
                }
            }
            // Count salvage events for the orchestration report: the child
            // truncates the torn tail on resume, so peek before it launches.
            if let Ok((_, torn @ 1..)) = Checkpoint::load(&dir) {
                salvages.fetch_add(1, Ordering::Relaxed);
                eprintln!("[repro] shard {i}/{n}: checkpoint torn, will salvage ({torn} bytes)");
            }
        }
        let mut cmd = Command::new(&exe);
        cmd.arg("all")
            .arg("--scale")
            .arg(scale.as_str())
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--faults")
            .arg(faults.as_str())
            .arg("--shard")
            .arg(format!("{i}/{n}"));
        // Resume whenever a checkpoint exists (even a torn one — the child
        // salvages it); otherwise start a fresh checkpoint.
        if manifest.exists() {
            cmd.arg("--resume").arg(&dir);
        } else {
            cmd.arg("--checkpoint").arg(&dir);
        }
        if jobs != 0 {
            cmd.arg("--jobs").arg(jobs.to_string());
        }
        // Shards must capture CSV exports in their checkpoints (the campaign
        // key records whether CSV was on) so the merge can re-emit them.
        if csv_dir.is_some() {
            let shard_csv = dir.join("csv");
            std::fs::create_dir_all(&shard_csv)?;
            cmd.arg("--csv").arg(&shard_csv);
        }
        // Never let the orchestrator's own `BB_INJECT` leak into children;
        // chaos faults apply to each shard's first launch only.
        cmd.env_remove("BB_INJECT");
        if attempt == 0 && plan[i] != Injection::default() {
            cmd.env("BB_INJECT", plan[i].to_string());
        }
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("stderr.log"))?;
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(log);
        cmd.spawn()
    };

    let policy = OrchestratorPolicy {
        retry: supervisor::RetryPolicy {
            max_retries: 3,
            retry_budget: (2 * n as u32).max(4),
            backoff_base: std::time::Duration::from_millis(25),
            jitter_seed: seed,
        },
        hang_timeout: std::time::Duration::from_secs_f64(hang_timeout),
        poll_interval: std::time::Duration::from_millis(25),
    };
    install_signal_drain();
    let t0 = std::time::Instant::now();
    let report = orchestrate(
        &specs,
        &policy,
        &|| INTERRUPTED.load(Ordering::Relaxed),
        &spawn,
    );
    let salvages = salvages.into_inner();

    // The structured report is written even for failed or interrupted
    // campaigns — partial results are exactly when the restart/salvage
    // tallies matter most. The work ran in the children, so the registries
    // are empty and `jobs` is the worker count each child resolved.
    let per_shard = report.shards.iter().map(|s| {
        obj! {
            "label": s.label.as_str(),
            "attempts": u64::from(s.attempts),
            "wall_s": s.elapsed_s,
            "outcome": s.outcome.label(),
        }
    });
    let orchestration = obj! {
        "shards": report.shards.len(),
        "attempts": report.attempts,
        "restarts": report.restarts,
        "crashes_detected": report.crashes_detected,
        "hangs_detected": report.hangs_detected,
        "salvages": salvages,
        "budget_exhausted": report.budget_exhausted,
        "per_shard": Json::List(per_shard.collect()),
    };
    let sections = vec![("orchestration", orchestration)];
    finish(&opts, "orchestrate", beating_bgp::exec::jobs(), t0, "", sections);
    eprintln!(
        "[repro] orchestrate: {} launch(es), {} restart(s), {} crash(es), {} hang(s), \
         {} salvage(s){}",
        report.attempts,
        report.restarts,
        report.crashes_detected,
        report.hangs_detected,
        salvages,
        if report.budget_exhausted { " — restart budget exhausted" } else { "" }
    );

    if report.cancelled {
        interrupted_exit(
            true,
            &[format!(
                "children killed; shard checkpoints kept in {} — rerun the same \
                 command to resume",
                base.display()
            )],
        );
    }
    if !report.all_completed() {
        for s in &report.shards {
            if s.outcome != beating_bgp::exec::orchestrator::ShardOutcome::Completed {
                eprintln!(
                    "  {}: {} after {} launch(es){} — log: {}",
                    s.label,
                    s.outcome.label(),
                    s.attempts,
                    s.error.as_deref().map(|e| format!(" ({e})")).unwrap_or_default(),
                    shard_dir(s.index).join("stderr.log").display()
                );
            }
        }
        eprintln!(
            "repro orchestrate: {}/{} shard(s) did not complete; finished shards' \
             checkpoints are kept in {} — rerun the same command to resume",
            report.shards.len() - report.count("completed"),
            report.shards.len(),
            base.display()
        );
        std::process::exit(1);
    }

    // Every shard completed: strict-load the checkpoints (salvage was a
    // restart-time concern; a completed shard's checkpoint must be whole)
    // and emit the campaign output.
    let dirs: Vec<PathBuf> = (0..n).map(shard_dir).collect();
    let shards = load_shards("repro orchestrate", &dirs, false);
    finish_merge("repro orchestrate", &dirs, shards, csv_dir.as_deref())
}

/// `repro serve`: the streaming (daemon) shape of the §3.1 spray campaign.
///
/// Advances measurement windows on the simulated clock in epochs of
/// `--epoch K` windows. Every epoch is flushed durably: the first as a
/// `bbsn/v2` snapshot of the whole state (atomic temp-file + fsync +
/// rename + dir-fsync), the rest as one fsynced `bbjn/v2` journal record
/// of the epoch's rows, compacted into a new snapshot once the journal
/// outgrows the last one. A SIGKILL at any instant costs at most one epoch
/// of deterministically-resampled work: restarting with the same `--dir`
/// loads the snapshot, replays the journal, and the eventual output is
/// byte-identical to an uninterrupted run at the same (seed, scale,
/// window count) — for every `--jobs` value.
///
/// `--epsilon 0` (default) retains every window row and hands the final
/// dataset to the *batch* analyzer, so the figure (and `--csv` export) is
/// byte-identical to `repro fig1` over the same windows. `--epsilon ε > 0`
/// folds rows into bounded-memory mergeable quantile sketches; with
/// `--mem-limit BYTES` the governor coarsens the sketches (halving
/// memory, doubling ε) instead of letting resident state grow — decisions
/// land only at epoch boundaries, which the snapshot key pins, so
/// degraded-mode output is as deterministic and resumable as everything
/// else. The key is (seed, scale, faults, ε, epoch size, CSV, memory limit,
/// code schema); a mismatched snapshot or journal is rejected (exit 2),
/// never silently reused. The
/// per-epoch watchdog (`--epoch-deadline`) only counts overruns: wall-clock
/// never shapes output bytes. `BB_INJECT=crash:N` exits 101 right after
/// this process flushed its N-th epoch, to drill the restart path.
fn run_serve() -> ! {
    use beating_bgp::core::serve::{EpochStore, Flush, Governor, ServeMode, ServeState};
    use beating_bgp::core::snapshot::ServeKey;
    use beating_bgp::measure::SprayEngine;

    let shared = "--scale --seed --jobs --faults --csv --timing --timing-json";
    let mut cli = Cli::new("repro serve", 2, shared);
    let mut dir: Option<PathBuf> = None;
    let mut windows: Option<u64> = None;
    let mut epoch = 32u64;
    let mut epsilon = 0.0f64;
    let mut mem_limit: Option<u64> = None;
    let mut epoch_deadline = 60.0f64;
    while let Some(arg) = cli.args.next() {
        match arg.as_str() {
            "--dir" => dir = Some(cli.value("--dir", "a directory", any)),
            "--windows" => windows = Some(cli.value("--windows", "a number", any)),
            "--epoch" => epoch = cli.value("--epoch", "a window count >= 1", |&k: &u64| k >= 1),
            "--epsilon" => {
                epsilon = cli.value("--epsilon", "a value in [0, 1)", |e: &f64| (0.0..1.0).contains(e));
            }
            "--mem-limit" => {
                mem_limit = Some(cli.value("--mem-limit", "a byte count > 0", |&b: &u64| b > 0));
            }
            "--epoch-deadline" => {
                epoch_deadline = cli.value("--epoch-deadline", "finite seconds > 0", positive_secs);
            }
            "--help" | "-h" => help(
                "repro serve --dir DIR [--windows N] [--epoch K] [--epsilon E] [--mem-limit BYTES]\n\
                 \u{20}           [--epoch-deadline SECS] [--scale test|full|large] [--seed N]\n\
                 \u{20}           [--jobs N] [--faults off|light|heavy] [--csv DIR]\n\
                 \u{20}           [--timing] [--timing-json PATH]\n\
                 stream the spray campaign in epochs of K windows (default 32), flushing\n\
                 every epoch to DIR (a snapshot, then journal records); rerunning with the\n\
                 same DIR resumes byte-identically. N defaults to the batch campaign's\n\
                 window count.\n\
                 --epsilon E        E > 0 keeps bounded-memory sketches instead of rows\n\
                 --mem-limit BYTES  coarsen the sketches rather than grow past BYTES\n\
                 --epoch-deadline   count epochs slower than SECS (default 60; advisory)\n\
                 exit codes: 0 ok, 1 runtime failure, 2 usage error or stale or damaged state,\n\
                 130 interrupted (resumable)",
            ),
            flag if cli.shared(flag) => {}
            other => cli.usage(format_args!("unknown flag {other:?}")),
        }
    }
    let dir = dir.unwrap_or_else(|| {
        cli.usage(
            "--dir DIR is required: the serve directory holds the snapshot and journal the \
             daemon resumes from",
        )
    });
    if mem_limit.is_some() && epsilon == 0.0 {
        cli.usage(
            "--mem-limit needs --epsilon E > 0: exact mode retains every row by \
             contract and the governor refuses to discard data",
        );
    }
    cli.refuse_planet_campaign();
    let opts = cli.opts;
    let Opts {
        scale,
        seed,
        jobs,
        faults,
        ref csv_dir,
        ..
    } = opts;

    beating_bgp::exec::set_jobs(jobs);
    install_signal_drain();
    let t0 = std::time::Instant::now();

    // Same world and spray compilation as the batch fig1 path: serve's
    // window universe is the batch universe (window_at(i) strides exactly
    // like batch_windows), which is what makes exact mode byte-identical
    // to `repro fig1` over the same window count.
    let mut cfg = ScenarioConfig::facebook(seed, scale);
    cfg.faults = faults.config();
    eprintln!("[repro] building Facebook-like world…");
    let scenario = timing::time("world:facebook", || Scenario::build(cfg));
    let spray_config = SprayConfig {
        targets_memo: Some(scenario.config.world_key()),
        ..spray_cfg(scale)
    };
    let engine = timing::time("serve:compile", || {
        SprayEngine::new(
            &scenario.topo,
            &scenario.provider,
            &scenario.workload,
            &scenario.congestion,
            &spray_config,
        )
    });
    let batch_horizon = engine.batch_windows().len() as u64;
    let total_windows = windows.unwrap_or(batch_horizon);
    let route_counts: Vec<usize> = engine.targets().iter().map(|t| t.routes.len()).collect();
    let mode = ServeMode::from_eps(epsilon);
    let mut key = ServeKey::new(
        seed,
        scale.as_str(),
        faults.as_str(),
        epsilon,
        epoch,
        csv_dir.is_some(),
    );
    key.mem_limit = mem_limit.unwrap_or(0);

    // Fresh start or resume: no snapshot is a fresh start, and a snapshot
    // or journal that cannot be trusted is a hard reject (exit 2).
    let resume = ServeState::resume(&dir, &key, &route_counts).unwrap_or_else(|e| {
        eprintln!("repro serve: {}: {e}", dir.display());
        std::process::exit(2);
    });
    let (mut state, mut store, mut epochs_flushed, mut coarsenings, resumed) = match resume {
        Some(r) => {
            eprintln!(
                "[repro] serve: resuming at window {}/{total_windows} (epoch {}, {} governor \
                 coarsenings so far) from the snapshot and {} journal record(s) in {}",
                r.state.windows_done(),
                r.epochs,
                r.coarsenings,
                r.replayed,
                dir.display()
            );
            if r.torn_bytes > 0 {
                eprintln!(
                    "[repro] serve: truncated a torn journal tail ({} bytes)",
                    r.torn_bytes
                );
            }
            (r.state, r.store, r.epochs, r.coarsenings, true)
        }
        None => {
            let store = EpochStore::new(&dir, &key);
            (ServeState::new(mode, &route_counts), store, 0u64, 0u64, false)
        }
    };

    let governor = mem_limit.map(Governor::new);
    let watchdog = beating_bgp::exec::watchdog::Watchdog::new(
        "serve:epoch",
        std::time::Duration::from_secs_f64(epoch_deadline),
    );
    let inject = beating_bgp::core::inject::current();
    let mut flushed_here = 0u64;
    let mut compactions = 0u64;
    let mut deadline_misses = 0u64;
    let mut peak_resident = state.resident_bytes();

    while state.windows_done() < total_windows && !INTERRUPTED.load(Ordering::Relaxed) {
        let started = std::time::Instant::now();
        let lo = state.windows_done();
        let hi = (lo + epoch).min(total_windows);
        let chunk: Vec<beating_bgp::netsim::Window> =
            (lo..hi).map(|i| engine.window_at(i)).collect();
        let per_target = timing::time("serve:sample", || {
            engine.sample_windows(&chunk, scenario.fault_plane())
        });
        // `serve:flush` spans all per-epoch persistence: staging the
        // record here and committing it below.
        let flush_started = std::time::Instant::now();
        store.stage(&state, &per_target, hi - lo);
        let staging = flush_started.elapsed();
        timing::time("serve:ingest", || state.ingest(per_target, hi - lo));
        let mut rounds = 0;
        if let Some(gov) = &governor {
            rounds = gov.enforce(&mut state);
            if rounds > 0 {
                coarsenings += rounds;
                eprintln!(
                    "[repro] serve: governor coarsened sketches {rounds} round(s) at \
                     window {} (resident {} bytes, limit {} bytes, eps now {})",
                    state.windows_done(),
                    state.resident_bytes(),
                    gov.limit_bytes,
                    state.current_eps()
                );
            }
        }
        peak_resident = peak_resident.max(state.resident_bytes());
        epochs_flushed += 1;
        let commit_started = std::time::Instant::now();
        let flushed = store.commit(&state, epochs_flushed, coarsenings, rounds);
        timing::record("serve:flush", staging + commit_started.elapsed());
        match flushed {
            // Snapshot and journal writers fail closed (exit 1, named path):
            // the epochs flushed before are still whole on disk, so a rerun
            // resumes from them and loses at most this epoch.
            Err((what, e)) => {
                eprintln!("repro serve: {what} failed: {e}");
                eprintln!(
                    "repro serve: every epoch flushed before it in {} is intact; rerun \
                     the same command to resume after freeing space",
                    dir.display()
                );
                std::process::exit(1)
            }
            Ok(Flush::Journal { bytes }) => {
                timing::add_count("serve:journal_bytes", bytes as usize);
            }
            Ok(Flush::Compaction) => {
                compactions += 1;
                timing::add_count("serve:compactions", 1);
            }
            Ok(Flush::Snapshot) => {}
        }
        // Live sketch-mode figure export at every epoch boundary: the
        // whole point of the sketch is that a current figure is always
        // cheap. (Exact mode defers to the batch analyzer at the end —
        // recomputing bootstrap CIs per epoch would swamp sampling.)
        if let (Some(csv), ServeMode::Sketch { .. }) = (&csv_dir, mode) {
            if let Ok(fig) = state.sketch_fig1(engine.targets()) {
                export_or_exit("repro serve", csv, "fig1.csv", &fig1_csv_bytes(&fig));
            }
        }
        if watchdog.observe(started) {
            deadline_misses += 1;
        }
        flushed_here += 1;
        if inject.crash.is_some_and(|n| flushed_here >= n) {
            eprintln!(
                "[repro] serve: BB_INJECT crash after epoch {epochs_flushed} \
                 (epoch flushed; rerun the same command to resume)"
            );
            std::process::exit(101);
        }
    }

    if state.windows_done() < total_windows {
        // Signal drain: the last completed epoch is on disk; mid-epoch
        // windows are resampled deterministically on resume.
        interrupted_exit(
            true,
            &[
                format!(
                    "{}/{} windows ingested; every epoch flushed to the snapshot and \
                     journal (snapshot.bbsn, journal.bbjn) in {}",
                    state.windows_done(),
                    total_windows,
                    dir.display()
                ),
                "rerun the same command to resume".to_string(),
            ],
        );
    }

    // Campaign horizon reached: emit the figure.
    let mode_label = match mode {
        ServeMode::Exact => "exact",
        ServeMode::Sketch { .. } => "sketch",
    };
    let eps_in_force = state.current_eps();
    let resident_bytes = state.resident_bytes();
    let windows_done = state.windows_done();
    let figure = || match mode {
        ServeMode::Exact => {
            let rows = state.into_rows()?;
            let dataset = beating_bgp::measure::SprayDataset {
                targets: engine.into_targets(),
                rows,
            };
            let study = timing::time("egress:analyze", || {
                study_egress::analyze(&scenario, &spray_config, dataset)
            })?;
            let render = format!("{}\n", study.fig1.render());
            Ok((study.fig1, render))
        }
        ServeMode::Sketch { .. } => {
            let fig = state.sketch_fig1(engine.targets())?;
            let mut s = fig.render();
            if let Some(note) = state.sketch_disclosure() {
                s.push_str(&note);
            }
            s.push('\n');
            Ok((fig, s))
        }
    };
    let (fig, render) = figure().unwrap_or_else(|e: beating_bgp::core::BbError| {
        eprintln!("repro serve: {e}");
        std::process::exit(1);
    });
    if let Some(csv) = &csv_dir {
        export_or_exit("repro serve", csv, "fig1.csv", &fig1_csv_bytes(&fig));
    }
    print!("{render}");

    let text = format!(
        "serve: {windows_done} windows in {epochs_flushed} epochs, {coarsenings} \
         coarsening(s), {compactions} compaction(s), resident {resident_bytes} bytes \
         (peak {peak_resident})\n"
    );
    let serve = obj! {
        "mode": mode_label,
        "epsilon": epsilon,
        "epsilon_in_force": eps_in_force,
        "windows_done": windows_done,
        "epochs_flushed": epochs_flushed,
        "resident_bytes": resident_bytes,
        "peak_resident_bytes": peak_resident,
        "governor_coarsenings": coarsenings,
        "deadline_misses": deadline_misses,
        "resumed": resumed,
    };
    finish(&opts, "serve", beating_bgp::exec::jobs(), t0, &text, vec![("serve", serve)]);
    std::process::exit(0);
}

/// `repro propagate`: the planet-tier propagation smoke. Builds the
/// selected world (generated preset or `--snapshot` AS-relationship file),
/// fully propagates routes from `--origins K` eyeball ASes sharded across
/// `--jobs` workers, samples every table for valley-freeness, reports the
/// interned-path RIB memory against the naive per-AS `Vec<AsId>` encoding,
/// and runs a bounded spray slice over the first `--prefixes K` client
/// prefixes. Output is assembled in origin order from per-worker results,
/// so stdout and `--csv` exports are byte-identical for every `--jobs`
/// value. Exit 0 = propagation complete and valley-free, 1 = a sampled
/// path violated valley-freeness or an AS was unreachable, 2 = usage.
fn run_propagate() -> ! {
    use beating_bgp::bgp::{valley_free, Announcement};
    use beating_bgp::topology::{AsClass, AsId};

    let shared = "--scale --seed --jobs --csv --snapshot --timing --timing-json";
    let mut cli = Cli::new("repro propagate", 2, shared);
    let mut origins = 16usize;
    let mut prefixes = 64usize;
    while let Some(arg) = cli.args.next() {
        match arg.as_str() {
            "--origins" => origins = cli.value("--origins", "a count >= 1", |&n: &usize| n >= 1),
            "--prefixes" => prefixes = cli.value("--prefixes", "a count >= 1", |&n: &usize| n >= 1),
            "--help" | "-h" => help(
                "repro propagate [--scale test|full|large|planet] [--seed N] [--jobs N]\n\
                 \u{20}               [--snapshot PATH] [--origins K] [--prefixes K]\n\
                 \u{20}               [--csv DIR] [--timing] [--timing-json PATH]\n\
                 propagate full routing tables from K eyeball origins, sharded\n\
                 across --jobs workers; check sampled paths for valley-freeness;\n\
                 report interned vs naive RIB bytes; spray the first K prefixes\n\
                 exit codes: 0 ok, 1 propagation invariant violated, 2 usage error",
            ),
            flag if cli.shared(flag) => {}
            flag => cli.usage(format_args!("unknown argument {flag:?}")),
        }
    }
    let opts = cli.opts;
    let Opts {
        scale,
        seed,
        jobs,
        ref csv_dir,
        ..
    } = opts;

    beating_bgp::exec::set_jobs(jobs);
    let t0 = std::time::Instant::now();
    let mut cfg = ScenarioConfig::facebook(seed, scale);
    cfg.snapshot = opts.snapshot.clone();
    eprintln!("[repro] building propagation world…");
    let scenario = timing::time("world:propagate", || build_world_or_exit(cfg));
    let topo = &scenario.topo;

    println!("=== PROPAGATE (scale {}, seed {seed}) ===", scale.as_str());
    println!(
        "world: {} ases, {} links, fingerprint {:016x}",
        topo.as_count(),
        topo.link_count(),
        topo.fingerprint()
    );

    // Deterministic origin choice: eyeballs in id order, spread evenly.
    let eyeballs: Vec<AsId> = topo.ases_of_class(AsClass::Eyeball).map(|n| n.id).collect();
    if eyeballs.is_empty() {
        eprintln!("repro propagate: world has no eyeball ases to originate from");
        std::process::exit(1);
    }
    let k = origins.min(eyeballs.len());
    let picks: Vec<AsId> = (0..k).map(|i| eyeballs[i * eyeballs.len() / k]).collect();
    println!("origins: {k} of {} eyeball ases", eyeballs.len());

    // One full propagation per origin, sharded across the worker pool.
    // `par_map` keys nothing on thread schedule and returns in item order,
    // and each table is a pure function of `(topology, announcement)`, so
    // the report below is byte-identical for every `--jobs` value.
    let stride = (topo.as_count() / 4096).max(1);
    let reports = timing::time("propagate:routes", || {
        beating_bgp::exec::par_map(&picks, |_, &asn| {
            let ann = Announcement::full(topo, asn);
            let table = beating_bgp::exec::cached_routes(topo, &ann);
            let mut sampled = 0usize;
            let mut violations = 0usize;
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

    let mut csv = String::from("origin,reachable,interned_bytes,naive_bytes,entry_pool_bytes\n");
    let (mut interned, mut naive, mut pool) = (0usize, 0usize, 0usize);
    let (mut sampled, mut violations, mut unreachable) = (0usize, 0usize, 0usize);
    for (&asn, &(reach, i_bytes, n_bytes, p_bytes, smp, bad)) in picks.iter().zip(&reports) {
        let name = &topo.asys(asn).name;
        println!(
            "origin {name}: reachable {reach}/{}, interned {i_bytes} B, naive {n_bytes} B",
            topo.as_count()
        );
        writeln!(csv, "{name},{reach},{i_bytes},{n_bytes},{p_bytes}").unwrap();
        interned += i_bytes;
        naive += n_bytes;
        pool += p_bytes;
        sampled += smp;
        violations += bad;
        unreachable += topo.as_count() - reach;
    }
    println!(
        "rib totals: {k} tables, interned {interned} B, naive {naive} B ({:.1}% of naive), \
         entry pool {pool} B",
        100.0 * interned as f64 / naive as f64
    );
    println!("valley-free: {sampled} sampled paths, {violations} violations, {unreachable} unreachable");

    // Bounded spray slice: truncating to the *first* K prefixes keeps
    // PrefixId indexing consistent (ids are dense positions in the list).
    let mut workload = scenario.workload.clone();
    let p = prefixes.min(workload.prefixes.len());
    workload.prefixes.truncate(p);
    workload.prefix_ldns.truncate(p);
    let dataset = timing::time("propagate:spray", || {
        beating_bgp::measure::spray(
            topo,
            &scenario.provider,
            &workload,
            &scenario.congestion,
            None,
            &spray_cfg(scale),
        )
    });
    let route_samples: u64 = dataset
        .rows
        .iter()
        .map(|r| r.route_samples.iter().map(|&s| u64::from(s)).sum::<u64>())
        .sum();
    println!(
        "spray slice: {p} prefixes -> {} targets, {} window rows, {route_samples} route samples",
        dataset.targets.len(),
        dataset.rows.len()
    );
    let failed = violations > 0 || unreachable > 0;
    println!(
        "=== PROPAGATE {} ===",
        if failed { "FAILED" } else { "OK" }
    );

    if let Some(dir) = &csv_dir {
        export_or_exit("repro propagate", dir, "propagate.csv", csv.as_bytes());
    }
    finish(&opts, "propagate", beating_bgp::exec::jobs(), t0, "", Vec::new());
    std::process::exit(if failed { 1 } else { 0 });
}

/// The main campaign: its parsed options and the worlds and studies its
/// experiments share. Each is built once, on first use (the Facebook spray
/// campaign feeds fig1/fig2/s311/xfabric/xablate; the Microsoft world and
/// its beacon campaign feed fig3/fig4/xecs/xhybrid and four more
/// extensions). `OnceLock::get_or_init` blocks concurrent initializers, so
/// when several experiments race for the same world the build still
/// happens exactly once and everyone reads the same object.
struct Campaign {
    opts: Opts,
    facebook: OnceLock<Scenario>,
    microsoft: OnceLock<Scenario>,
    google: OnceLock<Scenario>,
    // Study cells hold `BbResult`: under heavy faults a shared study can
    // legitimately fail (e.g. every window of a figure degraded away), and
    // every experiment that shares it must see the same error.
    egress: OnceLock<BbResult<study_egress::EgressStudy>>,
    anycast: OnceLock<BbResult<study_anycast::AnycastStudy>>,
    tiers: OnceLock<BbResult<study_tiers::TiersStudy>>,
}

/// `cell`'s value, built by `build` on first use. The build says `what` on
/// stderr and is timed under `label`.
fn memo<'a, T>(cell: &'a OnceLock<T>, what: &str, label: &str, build: impl FnOnce() -> T) -> &'a T {
    cell.get_or_init(|| {
        eprintln!("[repro] {what}");
        timing::time(label, build)
    })
}

impl Campaign {
    fn new(opts: Opts) -> Campaign {
        Campaign {
            opts,
            facebook: OnceLock::new(),
            microsoft: OnceLock::new(),
            google: OnceLock::new(),
            egress: OnceLock::new(),
            anycast: OnceLock::new(),
            tiers: OnceLock::new(),
        }
    }

    /// A preset's world config with the run's fault level and
    /// `--snapshot`. Injecting the fault level here (not inside
    /// ScenarioConfig's presets) keeps library callers fault-free by
    /// default; every world the campaign builds, the fresh ones in xpeer
    /// and xablate included, goes through it.
    fn config(&self, preset: fn(u64, Scale) -> ScenarioConfig) -> ScenarioConfig {
        let mut cfg = preset(self.opts.seed, self.opts.scale);
        cfg.faults = self.opts.faults.config();
        cfg.snapshot = self.opts.snapshot.clone();
        cfg
    }

    fn facebook(&self) -> &Scenario {
        memo(
            &self.facebook,
            "building Facebook-like world…",
            "world:facebook",
            || build_world_or_exit(self.config(ScenarioConfig::facebook)),
        )
    }

    fn microsoft(&self) -> &Scenario {
        memo(
            &self.microsoft,
            "building Microsoft-like world…",
            "world:microsoft",
            || build_world_or_exit(self.config(ScenarioConfig::microsoft)),
        )
    }

    fn google(&self) -> &Scenario {
        memo(
            &self.google,
            "building Google-like world…",
            "world:google",
            || build_world_or_exit(self.config(ScenarioConfig::google)),
        )
    }

    fn egress(&self) -> BbResult<&study_egress::EgressStudy> {
        let scenario = self.facebook();
        let what = "spraying sessions across egress routes…";
        memo(&self.egress, what, "study:egress", || {
            study_egress::run(scenario, &spray_cfg(self.opts.scale))
        })
        .as_ref()
        .map_err(Clone::clone)
    }

    /// The Microsoft world's beacon campaign and Figs 3 and 4; the ECS and
    /// hybrid what-ifs evaluate its measurements too.
    fn anycast(&self) -> BbResult<&study_anycast::AnycastStudy> {
        let scenario = self.microsoft();
        memo(
            &self.anycast,
            "running beacon campaign…",
            "study:anycast",
            || study_anycast::run(scenario, &BeaconConfig::default()),
        )
        .as_ref()
        .map_err(Clone::clone)
    }

    fn tiers(&self) -> BbResult<&study_tiers::TiersStudy> {
        let scenario = self.google();
        memo(
            &self.tiers,
            "probing Premium/Standard tiers…",
            "study:tiers",
            || study_tiers::run(scenario, &ProbeConfig::default()),
        )
        .as_ref()
        .map_err(Clone::clone)
    }

    /// A figure's stdout chunk is its rendered chart. With `--csv`, its
    /// data is exported as `{name}.csv` too; the bytes are built only then.
    fn figure(
        &self,
        name: &str,
        render: String,
        csv_bytes: &dyn Fn() -> Vec<u8>,
    ) -> BbResult<UnitResult> {
        let files = match &self.opts.csv_dir {
            Some(dir) => {
                let files = vec![(format!("{name}.csv"), csv_bytes())];
                write_unit_files(dir, &files)?;
                files
            }
            None => Vec::new(),
        };
        Ok(UnitResult {
            stdout: format!("{render}\n"),
            files,
        })
    }
}

/// An experiment's unit: its stdout chunk plus any files it rendered
/// (written immediately, and captured for the checkpoint so a resumed run
/// can replay them byte-identically without recomputing).
type Experiment = fn(&Campaign) -> BbResult<UnitResult>;

/// A unit that prints `stdout` and writes no file.
fn text(stdout: String) -> BbResult<UnitResult> {
    Ok(UnitResult {
        stdout,
        files: Vec::new(),
    })
}

/// A unit that prints `title`, one line per item, then a blank line.
fn rows(title: &str, items: impl IntoIterator<Item = String>) -> BbResult<UnitResult> {
    let mut stdout = format!("{title}\n");
    for item in items {
        stdout.push_str(&item);
        stdout.push('\n');
    }
    stdout.push('\n');
    text(stdout)
}

/// Every experiment of `repro all`, in output order. `--help`, `BB_INJECT`
/// validation, the campaign key and the orchestrator's shard plan all take
/// their names from here.
const EXPERIMENTS: [(&str, Experiment); 18] = [
    ("calib", |c| {
        text(format!("{}\n", calibration::run(c.facebook()).render()))
    }),
    ("fig1", |c| {
        let study = c.egress()?;
        c.figure("fig1", study.fig1.render(), &|| fig1_csv_bytes(&study.fig1))
    }),
    ("fig2", |c| {
        let study = c.egress()?;
        c.figure("fig2", study.fig2.render(), &|| fig2_csv_bytes(&study.fig2))
    }),
    ("s311", |c| {
        let study = c.egress()?;
        text(format!(
            "{}\nS3.1 bandwidth: alternate improves goodput >=10% for {:.1}% of traffic \
             (paper: \"qualitatively similar results for bandwidth\")\n\n",
            study.episodes.render(),
            study.bandwidth_improvable * 100.0
        ))
    }),
    ("fig3", |c| {
        let study = c.anycast()?;
        c.figure("fig3", study.fig3.render(), &|| fig3_csv_bytes(&study.fig3))
    }),
    ("fig4", |c| {
        let study = c.anycast()?;
        c.figure("fig4", study.fig4.render(), &|| fig4_csv_bytes(&study.fig4))
    }),
    ("fig5", |c| {
        let study = c.tiers()?;
        c.figure("fig5", study.fig5.render(), &|| fig5_csv_bytes(&study.fig5))
    }),
    ("goodput", |c| {
        text(format!(
            "S4 goodput: weighted median 10MB transfer-time difference \
             (standard - premium): {:+.2} s\n\n",
            c.tiers()?.goodput_diff_s
        ))
    }),
    ("xonenet", |c| {
        let buckets = single_network::run(c.google(), None);
        rows(
            "X-ONENET (§3.3.2): latency inflation vs single-network share",
            buckets.iter().map(|b| b.render_row()),
        )
    }),
    ("xpeer", |c| {
        let base = c.config(ScenarioConfig::facebook);
        let steps = peering_reduction::run(&base, &[0.05, 0.12, 0.3, 0.6, 1.1]);
        rows(
            "X-PEER (§3.1.3): reduced peering footprint sweep",
            steps.iter().map(|s| s.render_row()),
        )
    }),
    ("xgroom", |c| {
        let scenario = c.microsoft();
        let steps = grooming::run(scenario, c.opts.seed ^ 0x_9700, 12);
        let baseline = grooming::groomed_baseline(scenario);
        rows(
            "X-GROOM (§3.2.2): grooming an ungroomed anycast prefix",
            steps.iter().map(|s| s.render_row()).chain([format!(
                "  fully-groomed baseline: {}",
                baseline.render_row()
            )]),
        )
    }),
    ("xsites", |c| {
        let points = site_count::run(c.microsoft(), &[1, 2, 4, 8, 16, 32, 64]);
        rows(
            "X-SITES (§3.2.2): anycast latency vs number of sites",
            points.iter().map(|p| p.render_row()),
        )
    }),
    ("xecs", |c| {
        // Re-analyzes Fig 4's own beacons at each adoption level.
        let adoptions = [0.0, 0.25, 0.5, 1.0];
        let points = ecs::sweep(c.microsoft(), &c.anycast()?.measurements, &adoptions)?;
        rows(
            "X-ECS (§3.2.1): Fig 4 vs ISP EDNS-Client-Subnet adoption",
            points.iter().map(|p| p.render_row()),
        )
    }),
    ("xavail", |c| {
        let r = availability::run(
            c.microsoft(),
            c.opts.seed ^ 0x_a1a,
            &availability::RecoveryConfig::default(),
        );
        text(format!("{}\n", r.render()))
    }),
    ("xhybrid", |c| {
        // Scores the schemes on Fig 4's own beacons.
        let schemes = hybrid::compare(c.microsoft(), &c.anycast()?.measurements, 10.0)?;
        rows(
            "X-HYBRID (§4): anycast vs DNS vs hybrid vs oracle",
            schemes.iter().map(|s| s.render_row()),
        )
    }),
    ("xfabric", |c| {
        // Reuse the egress study's spray dataset (same scenario, same spray
        // config) instead of re-running the campaign.
        let r = fabric::evaluate(&c.egress()?.dataset, &EgressController::default());
        text(format!("{}\n", r.render()))
    }),
    ("xablate", xablate),
    ("xsplit", |c| {
        let scenario = c.google();
        let lines: String = [30e3, 300e3, 3e6]
            .iter()
            .map(|&bytes| format!("{}\n", split_tcp::run(scenario, bytes, None).render()))
            .collect();
        text(format!(
            "X-SPLIT (§4): split-TCP backend comparison\n{lines}"
        ))
    }),
];

/// The experiment names of `repro all`, in output order.
fn experiment_names() -> [&'static str; 18] {
    EXPERIMENTS.map(|(name, _)| name)
}

/// X-ABLATE: each modeling mechanism switched off in turn, as quality
/// deltas.
fn xablate(c: &Campaign) -> BbResult<UnitResult> {
    // (1) Correlated congestion: without shared destination-side keys,
    // performance-aware routing finds far more exploitable windows — the
    // pre-2010 literature's world. The default arm is the fig1 study itself
    // (the Facebook world already runs the default congestion); only the
    // independent arm builds a world, and its campaign reuses fig1's jitter
    // table.
    let correlated = c.egress()?;
    // The independent arm prints three fractions, so it runs only the
    // shared step of the analysis.
    let independent = {
        let mut cfg = c.config(ScenarioConfig::facebook);
        cfg.congestion = CongestionConfig::independent();
        study_egress::run_summary(&Scenario::try_build(cfg)?, &spray_cfg(c.opts.scale))?
    };
    let congestion = [
        ("correlated (default)", correlated.fig1.frac_improvable_5ms, &correlated.episodes),
        ("independent", independent.fig1.frac_improvable_5ms, &independent.episodes),
    ]
    .map(|(label, improvable, episodes)| {
        format!(
            "    {label:<22} median-improvable>=5ms {:.1}%  windows-improvable {:.1}%  degrade-together {:.0}%",
            improvable * 100.0,
            episodes.frac_windows_improvable * 100.0,
            episodes.degrade_together * 100.0
        )
    });

    // (2) Exit fidelity: perfectly geographic exits kill most anycast
    // misdirection. The sloppy arm is the shared Microsoft world (its
    // preset's exit-fidelity factor); only the perfect-geo arm builds one.
    let fidelity = |label: &str, scenario: &Scenario| -> BbResult<String> {
        let beacons = BeaconConfig {
            rounds: 4,
            ..Default::default()
        };
        let fig3 = study_anycast::run(scenario, &beacons)?.fig3;
        Ok(format!(
            "    {label:<22} anycast within 10ms {:.1}%  tail>=100ms {:.1}%",
            fig3.frac_within_10ms * 100.0,
            fig3.frac_gt_100ms * 100.0
        ))
    };
    let sloppy = fidelity("sloppy (default)", c.microsoft())?;
    let mut cfg = c.config(ScenarioConfig::microsoft);
    cfg.exit_fidelity_factor = 1.0;
    let perfect = fidelity("perfect geo", &Scenario::try_build(cfg)?)?;

    let lines = std::iter::once("  [correlated congestion]".to_string())
        .chain(congestion)
        .chain(["  [exit fidelity]".to_string(), sloppy, perfect]);
    rows(
        "X-ABLATE: modeling-mechanism ablations (quality deltas)",
        lines,
    )
}

/// Parse `BB_INJECT` once and install it; a malformed value, or a kind
/// `cmd` cannot honour, exits 2 — even when `cmd` would never reach the
/// fault, a typo must not be silently ignored.
fn install_injection(cmd: &str, honoured: &[Kind]) -> &'static Injection {
    beating_bgp::core::inject::install(&experiment_names(), beating_bgp::audit::RULE_NAMES)
        .and_then(|inj| inj.require(honoured).map(|()| inj))
        .unwrap_or_else(|e| {
            eprintln!("{cmd}: {e}");
            std::process::exit(2)
        })
}

fn main() {
    use Kind::{Crash, Enospc, Poison, Stall, UnitLimit, Violate};
    let sub = std::env::args().nth(1);
    let subcommand: Option<(&str, fn() -> !, &[Kind])> = match sub.as_deref() {
        Some("merge") => Some(("repro merge", run_merge, &[Enospc])),
        Some("propagate") => Some(("repro propagate", run_propagate, &[Enospc])),
        Some("orchestrate") => Some(("repro orchestrate", run_orchestrate, &[Enospc])),
        Some("serve") => Some(("repro serve", run_serve, &[Crash, Enospc])),
        _ => None,
    };
    if let Some((cmd, run, honoured)) = subcommand {
        install_injection(cmd, honoured);
        run();
    }
    let campaign = Campaign::new(parse_args());
    let args = &campaign.opts;
    let inject = match args.experiment.as_str() {
        "audit" => install_injection("repro", &[Violate, Enospc]),
        // `crash` fires after a checkpoint flush, so it needs a checkpoint.
        _ if args.checkpoint.is_none() && args.resume.is_none() => {
            install_injection("repro", &[Poison, Stall, UnitLimit, Enospc])
        }
        _ => install_injection("repro", &[Poison, Stall, UnitLimit, Crash, Enospc]),
    };
    let t0 = std::time::Instant::now();
    beating_bgp::exec::set_jobs(args.jobs);

    // --- `repro audit`: invariant + metamorphic sweep, then exit. ---
    // Runs the same shared worlds/studies the figures are computed from
    // through bb-audit's rule catalog. Exit 0 = every rule held, exit 1 =
    // a violation (the build failed its own contract) or a study error.
    if args.experiment == "audit" {
        let run = || -> BbResult<beating_bgp::audit::AuditReport> {
            let c = &campaign;
            let (egress, anycast, tiers) = (c.egress()?, c.anycast()?, c.tiers()?);
            Ok(beating_bgp::audit::run_audit(
                c.facebook(),
                egress,
                c.microsoft(),
                anycast,
                c.google(),
                tiers,
                &beating_bgp::audit::AuditOptions {
                    seed: args.seed,
                    scale: args.scale,
                    faults: args.faults.as_str(),
                    violate: inject.violate.clone(),
                },
            ))
        };
        match timing::time("audit", run) {
            Ok(report) => {
                print!("{}", report.render());
                finish(args, "audit", beating_bgp::exec::jobs(), t0, "", Vec::new());
                std::process::exit(if report.passed() { 0 } else { 1 });
            }
            Err(e) => {
                eprintln!("audit: shared study failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let selected: Vec<(&'static str, Experiment)> = EXPERIMENTS
        .into_iter()
        .filter(|&(name, _)| args.experiment == "all" || args.experiment == name)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment '{}' — try --help", args.experiment);
        std::process::exit(2);
    }
    let names: Vec<&'static str> = selected.iter().map(|&(n, _)| n).collect();

    // --- Sharding: run one contiguous slice of the campaign. ---
    // The campaign key (below) still names the FULL selected list: every
    // shard of one campaign carries an identical key, which is what lets
    // `repro merge` verify the checkpoints belong together and that,
    // combined, they cover everything.
    let shard_names: Vec<&'static str> = match args.shard {
        Some((idx, n)) => {
            let slice = shard_slice(&names, idx, n);
            eprintln!(
                "[repro] shard {idx}/{n}: running {} of {} experiments: {}",
                slice.len(),
                names.len(),
                slice.join(",")
            );
            slice.to_vec()
        }
        None => names.clone(),
    };

    // --- Checkpoint / resume wiring. ---
    // The campaign key pins everything that feeds unit output; a
    // checkpoint whose key mismatches is rejected (exit 2), never silently
    // reused. `--resume DIR` implies continuing to checkpoint into DIR.
    let ckpt_dir = args.resume.clone().or_else(|| args.checkpoint.clone());
    let campaign_key = CampaignKey::new(
        args.seed,
        args.scale.as_str(),
        args.faults.as_str(),
        names.join(","),
        args.csv_dir.is_some(),
    );
    // Checkpoint writers fail *closed*: a unit that cannot be appended
    // would be silently recomputed at the next resume at best. Every unit
    // appended before the failure is intact (a torn append is truncated
    // by the resume), so exiting 1 here with the failing path in the
    // message loses only the unit in flight — rerunning resumes from it.
    fn write_failed(what: &str, e: beating_bgp::core::BbError, intact: &str, dir: &Path) -> ! {
        eprintln!("repro: {what} failed: {e}");
        eprintln!(
            "repro: {intact} in {} is intact; rerun with --resume after freeing space",
            dir.display()
        );
        std::process::exit(1)
    }
    let mut replay: std::collections::BTreeMap<&'static str, UnitResult> =
        std::collections::BTreeMap::new();
    let ck_shared: Option<Arc<(std::path::PathBuf, Mutex<AppendFile>)>> = match &ckpt_dir {
        None => None,
        Some(dir) => {
            install_signal_drain();
            let log = if args.resume.is_some() {
                let (mut ck, torn, log) =
                    Checkpoint::resume(dir, &campaign_key).unwrap_or_else(|e| {
                        eprintln!("--resume: {e}");
                        std::process::exit(2);
                    });
                if torn > 0 {
                    eprintln!("[repro] warning: checkpoint salvaged: cut a {torn}-byte torn tail");
                }
                for name in &names {
                    if let Some(unit) = ck.units.remove(*name) {
                        replay.insert(name, unit);
                    }
                }
                eprintln!(
                    "[repro] resuming: {}/{} experiments already completed in {}",
                    replay.len(),
                    names.len(),
                    dir.display()
                );
                log
            } else {
                Checkpoint::create(dir, &campaign_key).unwrap_or_else(|e| {
                    eprintln!("repro: checkpoint create failed: {e}");
                    std::process::exit(1)
                })
            };
            Some(Arc::new((dir.clone(), Mutex::new(log))))
        }
    };
    // Liveness heartbeat: a tiny progress record (`heartbeat.bbhb`)
    // rewritten atomically but *without* fsync — the orchestrator watches
    // its content for change to tell a slow shard from a hung one.
    // `units_done` counts finalized experiments, bumped in `on_final`
    // below. Like the unit appends it fails closed: a heartbeat that
    // cannot be written is the same disk failure that will eat the next
    // append, and a clean exit 1 now (prior artifacts intact) beats a torn
    // write later.
    let units_done = Arc::new(AtomicUsize::new(0));
    let beat = {
        let units = Arc::clone(&units_done);
        move |shared: &(std::path::PathBuf, Mutex<AppendFile>)| {
            let hb = Heartbeat::now(
                beating_bgp::measure::progress::windows_done(),
                units.load(Ordering::Relaxed) as u64,
            );
            timing::time("checkpoint:heartbeat", || {
                if let Err(e) = hb.save(&shared.0) {
                    write_failed("heartbeat write", e, "checkpoint", &shared.0);
                }
            });
        }
    };
    // Window-granular progress inside a study: every 2048 completed
    // measurement windows the heartbeat is refreshed (cheap: ~60 bytes, no
    // fsync). Without --checkpoint no hook is installed and the pipelines
    // pay one relaxed counter increment per window — nothing else.
    if let Some(shared) = &ck_shared {
        // Startup heartbeat: the orchestrator sees liveness before the
        // first window completes (world-building can take a while).
        beat(shared);
        let s = Arc::clone(shared);
        let b = beat.clone();
        beating_bgp::measure::progress::set_hook(2_048, Arc::new(move |_| b(&s)));
    }

    // Experiments still to run (this shard's slice, minus anything already
    // replayed from a checkpoint).
    let run_list: Vec<(&'static str, Experiment)> = selected
        .iter()
        .copied()
        .filter(|(n, _)| !replay.contains_key(n) && shard_names.contains(n))
        .collect();

    // `BB_INJECT` drills: `unit-limit` is a deterministic stand-in for
    // SIGTERM, `crash` for a worker dying (see `on_final`), and `poison` /
    // `stall` fire in the supervised closure below.
    let finalized = AtomicUsize::new(0);
    let cancel = || {
        INTERRUPTED.load(Ordering::Relaxed)
            || inject.unit_limit.is_some_and(|n| finalized.load(Ordering::Relaxed) >= n)
    };
    let on_final = |i: usize, outcome: &Result<BbResult<UnitResult>, _>| {
        if let (Ok(Ok(unit)), Some(shared)) = (outcome, &ck_shared) {
            timing::time("checkpoint:flush", || {
                let mut log = shared.1.lock().unwrap_or_else(|e| e.into_inner());
                if let Err(e) = log.append(&[&unit.encode(run_list[i].0)]) {
                    write_failed("checkpoint flush", e, "every unit appended before it", &shared.0);
                }
            });
            units_done.fetch_add(1, Ordering::Relaxed);
            beat(shared);
            // The injected crash fires only after the unit was flushed, so
            // every crash leaves resumable progress behind — the property
            // the orchestrator's restart path depends on.
            let flushed = units_done.load(Ordering::Relaxed);
            if inject.crash.is_some_and(|n| flushed as u64 >= n) {
                eprintln!("[repro] BB_INJECT crash after {flushed} finalized unit(s)");
                std::process::exit(101);
            }
        }
        finalized.fetch_add(1, Ordering::Relaxed);
    };

    // Run concurrently under supervision, print in order: stdout bytes do
    // not depend on the worker count or the schedule, one experiment's
    // panic cannot take down its siblings, and a failed/panicked experiment
    // is retried (bounded, deterministic backoff) before being declared
    // dead. Experiments are never killed mid-flight, so cancellation is
    // always a clean drain.
    let policy = supervisor::RetryPolicy {
        max_retries: 2,
        backoff_base: std::time::Duration::from_millis(50),
        retry_budget: 8,
        jitter_seed: args.seed,
    };
    // Per-experiment route-cache attribution: snapshot the process-wide
    // counters around each closure. At `--jobs 1` the deltas are exact; with
    // concurrent experiments the counters interleave, so a lookup lands on
    // whichever experiment was on the clock (documented in the report).
    let cache_deltas: Mutex<std::collections::BTreeMap<&'static str, (u64, u64)>> =
        Mutex::new(std::collections::BTreeMap::new());
    let (outcomes, sup_report) =
        supervisor::supervise(&run_list, &policy, &cancel, &on_final, |_, attempt, &(name, run)| {
            if inject.poison.as_ref().is_some_and(|(exp, k)| exp == name && attempt < *k) {
                panic!("poisoned by BB_INJECT (attempt {attempt})");
            }
            let stall = inject.stall.as_ref().filter(|(exp, _)| exp == name && attempt == 0);
            if let Some((_, secs)) = stall {
                eprintln!("[repro] BB_INJECT stall: {name} sleeps {secs}s (attempt 0)");
                std::thread::sleep(std::time::Duration::from_secs_f64(*secs));
            }
            let (h0, m0, _) = beating_bgp::exec::cache_stats();
            let out = timing::time(&format!("exp:{name}"), || run(&campaign));
            let (h1, m1, _) = beating_bgp::exec::cache_stats();
            let mut map = cache_deltas.lock().unwrap_or_else(|e| e.into_inner());
            let entry = map.entry(name).or_insert((0, 0));
            entry.0 += h1.saturating_sub(h0) as u64;
            entry.1 += m1.saturating_sub(m0) as u64;
            out
        });
    // Campaign output order, restricted to experiments that actually ran.
    let cache_by_exp: Vec<(&str, u64, u64)> = {
        let map = cache_deltas.lock().unwrap_or_else(|e| e.into_inner());
        names
            .iter()
            .filter_map(|n| map.get(n).map(|&(hits, misses)| (*n, hits, misses)))
            .collect()
    };
    beating_bgp::measure::progress::reset();

    let mut text = String::new();
    if !cache_by_exp.is_empty() {
        let approx = if beating_bgp::exec::jobs() == 1 {
            ""
        } else {
            "; approximate under --jobs > 1"
        };
        text += &format!("route cache by experiment (deltas{approx}):\n");
        for &(name, hits, misses) in &cache_by_exp {
            let rate = ratio(hits, hits + misses) * 100.0;
            text += &format!("  {name:<8} hits {hits:>6}  misses {misses:>6}  rate {rate:>5.1}%\n");
        }
    }
    text += &format!(
        "congestion races closed: {}\n\
         supervision: {} attempts, {} retries ({} recovered, {} failed, {} replayed)\n",
        beating_bgp::netsim::materialize_races_closed(),
        sup_report.attempts,
        sup_report.retries,
        sup_report.count("recovered"),
        sup_report.count("failed"),
        replay.len()
    );
    let by_experiment = cache_by_exp.iter().map(|&(name, hits, misses)| {
        obj! {
            "experiment": name,
            "hits": hits,
            "misses": misses,
            "hit_rate": ratio(hits, hits + misses),
        }
    });
    let supervision = obj! {
        "attempts": sup_report.attempts,
        "retries": sup_report.retries,
        "panics_absorbed": sup_report.panics_absorbed,
        "recovered": sup_report.count("recovered"),
        "failed": sup_report.count("failed"),
        "skipped": sup_report.count("skipped"),
        "budget_exhausted": sup_report.budget_exhausted,
    };
    let sections = vec![
        ("route_cache_by_experiment", Json::List(by_experiment.collect())),
        ("supervision", supervision),
    ];
    // The report is written on every way out (complete, failed, or
    // interrupted): a run that did not finish is when the supervision and
    // fault tallies matter most.
    let epilogue =
        || finish(args, &args.experiment, beating_bgp::exec::jobs(), t0, &text, sections);

    // A drain that skipped work means the campaign is incomplete (every
    // finalized unit is already appended): say how to pick the run back
    // up, and exit 130 with NOTHING on stdout — partial stdout is worse
    // than none, and the resume path reproduces the full byte-identical
    // output anyway.
    let interrupted = outcomes.iter().any(|o| o.is_none());
    if interrupted {
        let Some(shared) = &ck_shared else {
            epilogue();
            interrupted_exit(
                false,
                &[
                    "campaign stopped early with no --checkpoint directory; completed \
                     work was discarded"
                        .to_string(),
                ],
            );
        };
        let done = replay.len() + units_done.load(Ordering::Relaxed);
        let shard_suffix = args
            .shard
            .map(|(idx, n)| format!(" --shard {idx}/{n}"))
            .unwrap_or_default();
        epilogue();
        interrupted_exit(
            true,
            &[
                format!(
                    "completed {done}/{} experiments; checkpoint flushed to {}",
                    selected.len(),
                    shared.0.display()
                ),
                format!(
                    "resume with: repro {} --resume {} --seed {} --scale {} --faults {}{}",
                    args.experiment,
                    shared.0.display(),
                    args.seed,
                    args.scale.as_str(),
                    args.faults.as_str(),
                    shard_suffix
                ),
            ],
        );
    }

    // Assemble stdout in selection order: replayed units contribute their
    // cached bytes (and re-write their cached CSV files), fresh units
    // contribute what they just computed.
    let mut computed: std::collections::HashMap<&str, Result<BbResult<UnitResult>, _>> = run_list
        .iter()
        .map(|(n, _)| *n)
        .zip(outcomes)
        .map(|(n, o)| (n, o.expect("non-interrupted run finalizes every unit")))
        .collect();
    let mut stdout = String::new();
    let mut failures: Vec<(&str, String)> = Vec::new();
    for name in &shard_names {
        if let Some(unit) = replay.get(name) {
            stdout.push_str(&unit.stdout);
            if let Some(dir) = &args.csv_dir {
                if let Err(e) = write_unit_files(dir, &unit.files) {
                    failures.push((name, format!("replaying cached export: {e}")));
                }
            }
            continue;
        }
        match computed.remove(name).expect("every selected unit ran or replayed") {
            Ok(Ok(unit)) => stdout.push_str(&unit.stdout),
            Ok(Err(e)) => failures.push((name, e.to_string())),
            Err(f) => failures.push((
                name,
                format!(
                    "panicked: {} (final attempt died after {:.3}s)",
                    f.message,
                    f.elapsed.as_secs_f64()
                ),
            )),
        }
    }

    // Diagnostics go to stderr so surviving experiments' stdout stays
    // byte-stable with or without failures elsewhere in the run.
    for (name, message) in &failures {
        eprintln!("=== EXPERIMENT FAILED: {name} ===");
        eprintln!("  {message}");
        eprintln!("  (seed {}, scale {:?}, faults {:?})", args.seed, args.scale, args.faults);
        eprintln!("=== END {name} ===");
    }
    if !failures.is_empty() && !args.keep_going {
        eprintln!(
            "{} of {} experiments failed; rerun with --keep-going to print survivors",
            failures.len(),
            shard_names.len()
        );
        epilogue();
        std::process::exit(1);
    }
    // A shard's stdout is withheld: `repro merge` reassembles the campaign's
    // full output from the checkpoints, byte-identical to an unsharded run —
    // partial per-shard stdout would only invite accidental concatenation.
    if args.shard.is_none() {
        print!("{stdout}");
    } else if let Some(shared) = &ck_shared {
        eprintln!(
            "[repro] shard complete: {} experiment(s) checkpointed to {}; \
             stitch the shards with `repro merge`",
            shard_names.len(),
            shared.0.display()
        );
    }

    epilogue();
    if !failures.is_empty() {
        // Partial run under --keep-going: survivors printed, but the run
        // as a whole did not reproduce everything asked of it.
        std::process::exit(1);
    }
}
