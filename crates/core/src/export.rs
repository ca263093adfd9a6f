//! CSV export of figure data.
//!
//! Every figure can be dumped as plain CSV so the ASCII charts can be
//! re-plotted with real tooling (`repro --csv DIR` writes one file per
//! figure). No external dependencies — the data is simple enough that a
//! minimal writer with proper quoting suffices.
//!
//! Writes are crash-safe: each file is written to a `.tmp` sibling and
//! atomically renamed into place, so a run killed mid-export never leaves a
//! truncated CSV behind. I/O failures surface as [`BbError::Io`] with the
//! file being written as context.

use crate::error::{BbError, BbResult};
use crate::figures::{Coverage, Fig1, Fig2, Fig3, Fig4, Fig5};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of durable writes. Every writer that must never
/// tear a file — CSV exports, checkpoint and journal headers, serve
/// snapshots, heartbeats — and every [`AppendFile::append`] bumps this
/// exactly once per attempt, which is what makes the `BB_INJECT`
/// `enospc:N` fault below deterministic at `--jobs 1`.
static DURABLE_WRITES: AtomicU64 = AtomicU64::new(0);

/// Deterministic disk-full injection point, consulted by every atomic
/// writer before it creates its temp file and by [`AppendFile::append`]
/// before it writes. Failing *before* the first filesystem touch is the strictest
/// fail-closed shape: the prior artifact at `path` is untouched, no `.tmp`
/// sibling is left behind, and no rename can tear. Returns the injected error on the `enospc:N` write, `None`
/// otherwise.
pub(crate) fn injected_enospc(path: &Path) -> Option<BbError> {
    let n = DURABLE_WRITES.fetch_add(1, Ordering::SeqCst) + 1;
    match crate::inject::current().enospc {
        Some(trip) if n == trip => Some(BbError::io(
            format!("write {}", path.display()),
            std::io::Error::other("No space left on device (injected by BB_INJECT)"),
        )),
        _ => None,
    }
}

/// Escape one CSV field (RFC 4180 quoting).
pub fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Write pre-rendered `bytes` into `path` via a temp file + atomic rename.
///
/// The temp file lives in the same directory as `path` (renames across
/// filesystems are not atomic), named after the target with a `.tmp`
/// suffix so concurrent exports to different files never collide. Shared
/// by the CSV exporters, the checkpoint and journal headers, the serve
/// snapshots, and the harness's replay path — everything that must never
/// leave a torn file behind.
///
/// Durability ladder: the temp file is fsynced before the rename (so the
/// new name can never point at unwritten blocks), and the containing
/// directory is fsynced after it — the rename itself lives in the
/// directory's metadata, and without that second sync a power loss right
/// after this function returns can roll the directory entry back, making
/// the file vanish even though its data blocks reached disk.
pub fn write_atomic_bytes(path: &Path, bytes: &[u8]) -> BbResult<()> {
    if let Some(e) = injected_enospc(path) {
        return Err(e);
    }
    let label = path.display().to_string();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)
        .map_err(|e| BbError::io(format!("create {}", tmp.display()), e))?;
    f.write_all(bytes)
        .map_err(|e| BbError::io(format!("write {}", tmp.display()), e))?;
    f.sync_all()
        .map_err(|e| BbError::io(format!("sync {}", tmp.display()), e))?;
    drop(f);
    std::fs::rename(&tmp, path)
        .map_err(|e| BbError::io(format!("rename {} -> {label}", tmp.display()), e))?;
    #[cfg(unix)]
    {
        // Persist the rename: fsync the directory holding the new entry.
        // Unix-only — opening a directory for sync is not portable, and the
        // rename's atomicity (the visible guarantee) holds regardless.
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = dir {
            std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| BbError::io(format!("sync dir {}", dir.display()), e))?;
        }
    }
    Ok(())
}

/// An append-only file — a campaign checkpoint or a serve journal — open
/// for synced appends. It is created whole by [`write_atomic_bytes`] and
/// then only grows: [`AppendFile::append`] is its one non-atomic write.
#[derive(Debug)]
pub struct AppendFile {
    file: std::fs::File,
    path: std::path::PathBuf,
    len: u64,
}

impl AppendFile {
    /// Atomically write `bytes` as `path`, then open it for appends.
    pub fn create(path: &Path, bytes: &[u8]) -> BbResult<Self> {
        write_atomic_bytes(path, bytes)?;
        Self::reopen(path, bytes.len() as u64, false)
    }

    /// Open `path` for appends after its first `intact` bytes, cutting a
    /// `torn` tail past them (a crash mid-append) away and syncing the cut.
    pub fn reopen(path: &Path, intact: u64, torn: bool) -> BbResult<Self> {
        let io = |what: &str, e| BbError::io(format!("{what} {}", path.display()), e);
        let file = std::fs::OpenOptions::new().append(true).open(path);
        let file = file.map_err(|e| io("open", e))?;
        if torn {
            file.set_len(intact)
                .and_then(|()| file.sync_data())
                .map_err(|e| io("truncate", e))?;
        }
        Ok(AppendFile {
            file,
            path: path.to_path_buf(),
            len: intact,
        })
    }

    /// Bytes in the file, torn tail excluded.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Append `parts` and `sync_data` the file. A crash mid-append leaves a
    /// torn tail for the reader to drop; an injected ENOSPC fails before
    /// anything is written.
    pub fn append(&mut self, parts: &[&[u8]]) -> BbResult<()> {
        if let Some(e) = injected_enospc(&self.path) {
            return Err(e);
        }
        let path = self.path.display();
        for part in parts {
            self.file
                .write_all(part)
                .map_err(|e| BbError::io(format!("append {path}"), e))?;
            self.len += part.len() as u64;
        }
        self.file
            .sync_data()
            .map_err(|e| BbError::io(format!("sync {path}"), e))
    }
}

/// Coverage disclosure as a leading `#` comment line, so CSV consumers can
/// tell a degraded run from a full one without reading the rendered figure.
/// Full-coverage exports stay byte-identical to before the fault plane.
fn coverage_comment(f: &mut Vec<u8>, coverage: &Coverage) {
    if coverage.is_partial() {
        let _ = writeln!(
            f,
            "# partial data: {}/{} inputs kept ({:.1}% coverage)",
            coverage.kept,
            coverage.total,
            100.0 * coverage.fraction()
        );
    }
}

/// Render rows of (x, y) series points with a header. Writing into a `Vec`
/// is infallible, so this returns the bytes directly.
fn render_series(coverage: &Coverage, header: &str, series: &[(&str, Vec<(f64, f64)>)]) -> Vec<u8> {
    let mut f = Vec::new();
    coverage_comment(&mut f, coverage);
    let _ = writeln!(f, "{header}");
    for (label, pts) in series {
        for &(x, y) in pts {
            let _ = writeln!(f, "{},{x},{y}", csv_field(label));
        }
    }
    f
}

/// Render Figure 1 (point estimate + CI bound CDFs) as CSV bytes.
pub fn fig1_csv_bytes(fig: &Fig1) -> Vec<u8> {
    render_series(
        &fig.coverage,
        "series,diff_ms,cum_fraction_of_traffic",
        &[
            ("point", fig.diff.points().collect()),
            ("ci_lower", fig.ci_lower.points().collect()),
            ("ci_upper", fig.ci_upper.points().collect()),
        ],
    )
}

/// Render Figure 2 as CSV bytes.
pub fn fig2_csv_bytes(fig: &Fig2) -> Vec<u8> {
    let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    if let Some(c) = &fig.peer_vs_transit {
        series.push(("peer_vs_transit", c.points().collect()));
    }
    if let Some(c) = &fig.private_vs_public {
        series.push(("private_vs_public", c.points().collect()));
    }
    render_series(
        &fig.coverage,
        "series,diff_ms,cum_fraction_of_traffic",
        &series,
    )
}

/// Render Figure 3 (CCDFs) as CSV bytes.
pub fn fig3_csv_bytes(fig: &Fig3) -> Vec<u8> {
    let mut series: Vec<(&str, Vec<(f64, f64)>)> =
        vec![("world", fig.world.points().collect())];
    if let Some(c) = &fig.europe {
        series.push(("europe", c.points().collect()));
    }
    if let Some(c) = &fig.united_states {
        series.push(("united_states", c.points().collect()));
    }
    render_series(
        &fig.coverage,
        "series,penalty_ms,ccdf_fraction_of_requests",
        &series,
    )
}

/// Render Figure 4 as CSV bytes.
pub fn fig4_csv_bytes(fig: &Fig4) -> Vec<u8> {
    render_series(
        &fig.coverage,
        "series,improvement_ms,cum_fraction_of_weighted_prefixes",
        &[
            ("median", fig.median_improvement.points().collect()),
            ("p75", fig.p75_improvement.points().collect()),
        ],
    )
}

/// Render Figure 5 (per-country table) as CSV bytes.
pub fn fig5_csv_bytes(fig: &Fig5) -> Vec<u8> {
    let mut f = Vec::new();
    coverage_comment(&mut f, &fig.coverage);
    let _ = writeln!(
        f,
        "country_code,country,region,median_diff_ms,vantage_points,users_m"
    );
    for r in &fig.rows {
        let _ = writeln!(
            f,
            "{},{},{},{},{},{}",
            r.code,
            csv_field(r.name),
            csv_field(r.region.name()),
            r.median_diff_ms,
            r.vantage_points,
            r.users_m
        );
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Coverage;
    use bb_stats::{Ccdf, Cdf};

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bb_export_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn fig1_roundtrip() {
        let cdf = Cdf::from_values(&[1.0, 2.0, 3.0]).unwrap();
        let fig = Fig1 {
            diff: cdf.clone(),
            ci_lower: cdf.clone(),
            ci_upper: cdf,
            frac_improvable_5ms: 0.02,
            frac_bgp_good: 0.95,
            groups: 3,
            coverage: Coverage::default(),
        };
        let dir = tmpdir();
        write_atomic_bytes(&dir.join("fig1.csv"), &fig1_csv_bytes(&fig)).unwrap();
        let content = std::fs::read_to_string(dir.join("fig1.csv")).unwrap();
        assert!(content.starts_with("series,diff_ms"));
        // 3 series × 3 points + header.
        assert_eq!(content.lines().count(), 10);
        assert!(content.contains("point,1,"));
        // The temp file must not survive a successful export.
        assert!(!dir.join("fig1.csv.tmp").exists());
    }

    #[test]
    fn fig3_includes_all_series() {
        let ccdf = Ccdf::from_values(&[0.0, 10.0, 100.0]).unwrap();
        let fig = Fig3 {
            world: ccdf.clone(),
            europe: Some(ccdf.clone()),
            united_states: None,
            frac_within_10ms: 0.8,
            frac_gt_100ms: 0.05,
            coverage: Coverage::default(),
        };
        let dir = tmpdir();
        write_atomic_bytes(&dir.join("fig3.csv"), &fig3_csv_bytes(&fig)).unwrap();
        let content = std::fs::read_to_string(dir.join("fig3.csv")).unwrap();
        assert!(content.contains("world,"));
        assert!(content.contains("europe,"));
        assert!(!content.contains("united_states,"));
    }

    #[test]
    fn fig5_table_shape() {
        let fig = Fig5 {
            rows: vec![crate::figures::CountryDiff {
                code: "IN",
                name: "India",
                region: bb_geo::Region::SouthAsia,
                median_diff_ms: -51.8,
                vantage_points: 12,
                users_m: 600.0,
            }],
            premium_ingress_within_400km: 0.7,
            standard_ingress_within_400km: 0.05,
            qualifying_vps: 12,
            coverage: Coverage::default(),
        };
        let dir = tmpdir();
        write_atomic_bytes(&dir.join("fig5.csv"), &fig5_csv_bytes(&fig)).unwrap();
        let content = std::fs::read_to_string(dir.join("fig5.csv")).unwrap();
        assert!(content.contains("IN,India,South Asia,-51.8,12,600"));
    }

    #[test]
    fn partial_coverage_is_disclosed_as_comment_line() {
        let cdf = Cdf::from_values(&[1.0, 2.0, 3.0]).unwrap();
        let fig = Fig1 {
            diff: cdf.clone(),
            ci_lower: cdf.clone(),
            ci_upper: cdf,
            frac_improvable_5ms: 0.02,
            frac_bgp_good: 0.95,
            groups: 3,
            coverage: Coverage::new(37, 48),
        };
        let bytes = fig1_csv_bytes(&fig);
        let content = String::from_utf8(bytes).unwrap();
        assert!(
            content.starts_with("# partial data: 37/48 inputs kept (77.1% coverage)\n"),
            "{content}"
        );
        // The header is still the first non-comment line.
        assert_eq!(content.lines().nth(1).unwrap(), "series,diff_ms,cum_fraction_of_traffic");
    }

    #[test]
    fn unwritable_dir_yields_io_error() {
        let fig = Fig4 {
            median_improvement: Cdf::from_values(&[1.0]).unwrap(),
            p75_improvement: Cdf::from_values(&[2.0]).unwrap(),
            frac_improved: 0.27,
            frac_worse: 0.17,
            coverage: Coverage::default(),
        };
        let path = Path::new("/nonexistent_bb_dir/fig4.csv");
        let err = write_atomic_bytes(path, &fig4_csv_bytes(&fig)).unwrap_err();
        match err {
            BbError::Io { context, .. } => assert!(context.contains("fig4.csv"), "{context}"),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
