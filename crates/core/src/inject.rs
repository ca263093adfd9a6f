//! Deliberate faults, from one registry: `BB_INJECT`.
//!
//! Every recovery path — supervised retry, resume, the orchestrator's
//! restart and hang detection, fail-closed writers, the audit self-test —
//! is proven by a deliberate fault, and every deliberate fault is set
//! through `BB_INJECT=kind[:arg[:arg]],…` (kinds and arguments are the
//! fields of [`Injection`]). [`install`] reads it once at startup. A
//! malformed token, an unknown or repeated kind, an unknown experiment or
//! audit rule, and a kind the running subcommand cannot honour
//! ([`Injection::require`]) are [`BbError::Usage`] errors naming
//! `BB_INJECT` and the token. Library code reads the installed value
//! through [`current`]; with `BB_INJECT` unset every drill is one branch
//! on `None`.

use crate::error::{BbError, BbResult};
use std::fmt;
use std::sync::OnceLock;

/// One kind of deliberate fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Poison,
    Stall,
    UnitLimit,
    Crash,
    Enospc,
    Violate,
}

/// Every kind with its token name and argument shape, in the order
/// [`Injection`]'s `Display` lists them.
const KINDS: [(Kind, &str, &str); 6] = [
    (Kind::Poison, "poison", "EXP[:K] with K >= 1"),
    (Kind::Stall, "stall", "EXP[:SECS] with finite SECS >= 0"),
    (Kind::UnitLimit, "unit-limit", "N"),
    (Kind::Crash, "crash", "N with N >= 1"),
    (Kind::Enospc, "enospc", "N with N >= 1"),
    (Kind::Violate, "violate", "RULE"),
];

/// The parsed `BB_INJECT` value: at most one fault of each kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Injection {
    /// `poison:EXP[:K]`: experiment EXP panics on its first K attempts;
    /// K is `u32::MAX` (every attempt) when omitted.
    pub poison: Option<(String, u32)>,
    /// `stall:EXP[:SECS]`: sleep SECS (default 30) before EXP's first
    /// attempt only, so a restarted attempt does not repeat it.
    pub stall: Option<(String, f64)>,
    /// `unit-limit:N`: stop claiming work after N finalized experiments.
    pub unit_limit: Option<usize>,
    /// `crash:N`: exit 101 once this process has durably flushed its N-th
    /// unit (a checkpointed experiment, or a `serve` epoch snapshot).
    pub crash: Option<u64>,
    /// `enospc:N`: the process's N-th atomic write fails with ENOSPC.
    pub enospc: Option<u64>,
    /// `violate:RULE`: seed one corrupt item into that audit rule's input.
    pub violate: Option<String>,
}

static INSTALLED: OnceLock<Injection> = OnceLock::new();

/// Read `BB_INJECT` (unset = no faults), checking experiment names against
/// `experiments` and rules against `rules`, and install it for [`current`]
/// — the program's one environment read. Call it before anything reads
/// [`current`].
pub fn install(experiments: &[&str], rules: &[&str]) -> BbResult<&'static Injection> {
    let injection = match std::env::var_os("BB_INJECT") {
        None => Injection::default(),
        // A byte that is not UTF-8 becomes U+FFFD, which no token accepts.
        Some(spec) => Injection::parse(&spec.to_string_lossy(), experiments, rules)?,
    };
    Ok(INSTALLED.get_or_init(|| injection))
}

/// The installed injection; no faults when [`install`] has not run.
pub fn current() -> &'static Injection {
    INSTALLED.get_or_init(Injection::default)
}

/// Parse `s` as `T` and require `ok`.
fn num<T: std::str::FromStr>(s: &str, ok: impl Fn(&T) -> bool) -> Option<T> {
    s.parse().ok().filter(ok)
}

impl Injection {
    /// Parse a `BB_INJECT` value. Every comma-separated token must be a
    /// known kind, given once, with a well-formed argument.
    pub fn parse(spec: &str, experiments: &[&str], rules: &[&str]) -> BbResult<Injection> {
        let mut inj = Injection::default();
        for token in spec.split(',') {
            let fail = |why: String| BbError::usage(format!("BB_INJECT: {token:?}: {why}"));
            let (name, arg) = token.split_once(':').unwrap_or((token, ""));
            let Some(&(kind, _, shape)) = KINDS.iter().find(|k| k.1 == name) else {
                let names: Vec<&str> = KINDS.iter().map(|k| k.1).collect();
                return Err(fail(format!("unknown kind; kinds: {}", names.join(" "))));
            };
            if inj.token(kind).is_some() {
                return Err(fail(format!("{name} given twice")));
            }
            let malformed = || fail(format!("expected {name}:{shape}"));
            // `poison` and `stall` take `EXP[:VALUE]`.
            let (exp, value) = arg
                .split_once(':')
                .map_or((arg, None), |(e, v)| (e, Some(v)));
            let experiment = || match experiments.contains(&exp) {
                true => Ok(exp.to_string()),
                false => Err(fail(format!(
                    "unknown experiment {exp:?}; experiments: {}",
                    experiments.join(" ")
                ))),
            };
            match kind {
                Kind::Poison => {
                    let k = value.map_or(Some(u32::MAX), |v| num(v, |&k| k >= 1));
                    inj.poison = Some((experiment()?, k.ok_or_else(malformed)?));
                }
                Kind::Stall => {
                    let secs =
                        value.map_or(Some(30.0), |v| num(v, |s: &f64| s.is_finite() && *s >= 0.0));
                    inj.stall = Some((experiment()?, secs.ok_or_else(malformed)?));
                }
                Kind::UnitLimit => inj.unit_limit = Some(num(arg, |_| true).ok_or_else(malformed)?),
                Kind::Crash => inj.crash = Some(num(arg, |&n| n >= 1).ok_or_else(malformed)?),
                Kind::Enospc => inj.enospc = Some(num(arg, |&n| n >= 1).ok_or_else(malformed)?),
                Kind::Violate if rules.contains(&arg) => inj.violate = Some(arg.to_string()),
                Kind::Violate => {
                    let rules = rules.join(" ");
                    return Err(fail(format!("unknown rule {arg:?}; rules: {rules}")));
                }
            }
        }
        Ok(inj)
    }

    /// Reject a set fault whose kind is not in `honoured` — the kinds the
    /// running command (subcommand and flags) acts on.
    pub fn require(&self, honoured: &[Kind]) -> BbResult<()> {
        let mut stray = KINDS.iter().filter(|k| !honoured.contains(&k.0));
        match stray.find_map(|k| self.token(k.0)) {
            None => Ok(()),
            Some(token) => Err(BbError::usage(format!(
                "BB_INJECT: {token:?}: not honoured by this command"
            ))),
        }
    }

    /// The fault of `kind` as the token [`Injection::parse`] reads back,
    /// or `None` when that kind is not set.
    fn token(&self, kind: Kind) -> Option<String> {
        let arg = match kind {
            Kind::Poison => self.poison.as_ref().map(|(exp, k)| match *k {
                u32::MAX => exp.clone(),
                k => format!("{exp}:{k}"),
            }),
            Kind::Stall => self
                .stall
                .as_ref()
                .map(|(exp, secs)| format!("{exp}:{secs}")),
            Kind::UnitLimit => self.unit_limit.map(|n| n.to_string()),
            Kind::Crash => self.crash.map(|n| n.to_string()),
            Kind::Enospc => self.enospc.map(|n| n.to_string()),
            Kind::Violate => self.violate.clone(),
        };
        let name = KINDS.iter().find(|k| k.0 == kind).map_or("", |k| k.1);
        arg.map(|arg| format!("{name}:{arg}"))
    }
}

/// The `BB_INJECT` value that [`Injection::parse`] reads back as `self`:
/// comma-joined tokens in kind order; empty when no fault is set.
impl fmt::Display for Injection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tokens: Vec<String> = KINDS.iter().filter_map(|k| self.token(k.0)).collect();
        f.write_str(&tokens.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPS: &[&str] = &["calib", "fig1", "fig5"];
    const RULES: &[&str] = &["cdf.monotone", "meta.faults_off"];

    fn parse(spec: &str) -> BbResult<Injection> {
        Injection::parse(spec, EXPS, RULES)
    }

    fn err(spec: &str) -> String {
        parse(spec).unwrap_err().to_string()
    }

    #[test]
    fn every_kind_parses_and_round_trips() {
        let inj = parse(
            "poison:fig5:2,stall:fig1:0.5,unit-limit:0,crash:3,enospc:1,violate:cdf.monotone",
        )
        .unwrap();
        assert_eq!(inj.poison, Some(("fig5".to_string(), 2)));
        assert_eq!(inj.stall, Some(("fig1".to_string(), 0.5)));
        assert_eq!(inj.unit_limit, Some(0));
        assert_eq!(inj.crash, Some(3));
        assert_eq!(inj.enospc, Some(1));
        assert_eq!(inj.violate.as_deref(), Some("cdf.monotone"));
        assert_eq!(parse(&inj.to_string()).unwrap(), inj);

        let defaults = parse("poison:fig5,stall:calib").unwrap();
        assert_eq!(defaults.poison, Some(("fig5".to_string(), u32::MAX)));
        assert_eq!(defaults.stall, Some(("calib".to_string(), 30.0)));
        assert_eq!(defaults.to_string(), "poison:fig5,stall:calib:30");
        assert_eq!(Injection::default().to_string(), "");
    }

    #[test]
    fn bad_tokens_are_usage_errors_naming_the_token() {
        for (spec, why) in [
            ("crash:abc", "expected crash:N"),
            ("crash:0", "expected crash:N"),
            ("crash", "expected crash:N"),
            ("enospc:-1", "expected enospc:N"),
            ("unit-limit:-1", "expected unit-limit:N"),
            ("poison:fig1:x", "expected poison:EXP[:K]"),
            ("poison:fig1:0", "expected poison:EXP[:K]"),
            ("stall:fig1:nan", "expected stall:EXP[:SECS]"),
            ("stall:fig1:inf", "expected stall:EXP[:SECS]"),
            ("stall:fig1:-1", "expected stall:EXP[:SECS]"),
            ("poison:fgi5", "unknown experiment \"fgi5\""),
            ("stall:nosuch:1", "unknown experiment \"nosuch\""),
            ("violate:bogus", "unknown rule \"bogus\""),
            ("bogus:1", "unknown kind"),
            ("", "unknown kind"),
            ("crash:1,", "unknown kind"),
            ("crash:1,crash:2", "crash given twice"),
        ] {
            let e = err(spec);
            assert!(e.contains("BB_INJECT") && e.contains(why), "{spec:?}: {e}");
            let token = spec.rsplit(',').next().unwrap();
            assert!(e.contains(&format!("{token:?}")), "{spec:?} not named: {e}");
            assert!(!e.contains('\n'), "{e}");
        }
    }

    #[test]
    fn require_rejects_kinds_the_subcommand_cannot_honour() {
        let inj = parse("enospc:2,poison:fig1").unwrap();
        assert!(inj.require(&[Kind::Poison, Kind::Enospc]).is_ok());
        let e = inj
            .require(&[Kind::Crash, Kind::Enospc])
            .unwrap_err()
            .to_string();
        assert!(
            e.contains("BB_INJECT") && e.contains("\"poison:fig1\""),
            "{e}"
        );
        assert!(Injection::default().require(&[]).is_ok());
    }
}
