//! Structured errors for study and figure construction.
//!
//! Degraded inputs (fault-injected campaigns, unwritable export paths) are
//! expected operating conditions, not programming errors, so the studies
//! return [`BbError`] instead of panicking. `BbError` is `Clone` because
//! the harness memoizes studies in `OnceLock<BbResult<..>>` cells and must
//! hand the same error to every experiment that shares the study.

/// A study- or export-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BbError {
    /// An I/O operation failed. The message is captured as a string (not
    /// an `io::Error`) so the error stays `Clone`-able across memoized
    /// study cells.
    Io {
        /// What was being done, e.g. `"write fig1.csv"`.
        context: String,
        /// The underlying `io::Error`'s rendering.
        message: String,
    },
    /// A study's inputs degraded below the minimum it can analyze — e.g. a
    /// fault-injected campaign lost every window of a required figure.
    InsufficientData {
        /// Which figure/statistic could not be built.
        what: String,
        /// Usable inputs that survived.
        kept: usize,
        /// Minimum the analysis needs.
        needed: usize,
    },
    /// A persisted file (checkpoint, snapshot, journal) could not be used:
    /// stale key, corrupt blob, unsupported format version. Stale checkpoints are *rejected*, never
    /// silently reused, so the reason spells out which field mismatched.
    Checkpoint {
        /// Why the file was rejected.
        reason: String,
    },
    /// The caller asked for something the inputs cannot satisfy — an
    /// unreadable/malformed topology snapshot, an announcement built
    /// against a different world. Maps to exit code 2 in `repro`.
    Usage {
        /// What was wrong with the request.
        message: String,
    },
}

impl BbError {
    /// Wrap an `io::Error` with its operation context.
    pub fn io(context: impl Into<String>, err: std::io::Error) -> Self {
        BbError::Io {
            context: context.into(),
            message: err.to_string(),
        }
    }

    pub fn insufficient(what: impl Into<String>, kept: usize, needed: usize) -> Self {
        BbError::InsufficientData {
            what: what.into(),
            kept,
            needed,
        }
    }

    pub fn checkpoint(reason: impl Into<String>) -> Self {
        BbError::Checkpoint {
            reason: reason.into(),
        }
    }

    pub fn usage(message: impl Into<String>) -> Self {
        BbError::Usage {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for BbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BbError::Io { context, message } => write!(f, "{context}: {message}"),
            BbError::InsufficientData { what, kept, needed } => write!(
                f,
                "insufficient data for {what}: {kept} usable inputs, need at least {needed}"
            ),
            BbError::Checkpoint { reason } => write!(f, "checkpoint rejected: {reason}"),
            BbError::Usage { message } => write!(f, "invalid usage: {message}"),
        }
    }
}

impl std::error::Error for BbError {}

pub type BbResult<T> = Result<T, BbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line() {
        let e = BbError::io(
            "write fig1.csv",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        );
        let s = e.to_string();
        assert!(s.contains("write fig1.csv"), "{s}");
        assert!(!s.contains('\n'));

        let e = BbError::insufficient("fig3 CDF", 0, 1);
        assert_eq!(
            e.to_string(),
            "insufficient data for fig3 CDF: 0 usable inputs, need at least 1"
        );
    }

    #[test]
    fn errors_clone_for_memoized_cells() {
        let e = BbError::insufficient("fig1", 2, 10);
        assert_eq!(e.clone(), e);
    }
}
