//! Structured error taxonomy for the campaign stack.
//!
//! Everything above the raw simulation speaks [`CombError`]: a typed
//! [`ErrorKind`], a human-readable message, and the identity of the sweep
//! cell that failed (when there is one). Nothing is retried: every run is
//! deterministic, so a failure replays exactly from its inputs. The CLI
//! maps kinds onto its exit-code contract via [`CombError::exit_code`]:
//!
//! | exit | meaning                                   |
//! |------|-------------------------------------------|
//! | 0    | success                                   |
//! | 1    | usage error (bad flags, unknown command)  |
//! | 2    | run failure (sim error, I/O, panic, ...)  |
//! | 3    | watchdog abort (livelock / deadline)      |

use crate::runner::RunError;
use comb_sim::SimError;
use std::fmt;

/// Coarse classification of a [`CombError`]. Drives exit codes and
/// failure-manifest categorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The user asked for something malformed (bad flag, unknown id).
    Usage,
    /// The simulation failed: deadlock, in-simulation panic, event limit.
    Sim,
    /// A sweep worker thread panicked outside the simulation.
    WorkerPanic,
    /// The watchdog aborted a livelocked or over-deadline sweep.
    Watchdog,
    /// Reading or writing an artifact failed.
    Io,
    /// The campaign was interrupted before completing (resumable).
    Interrupted,
    /// A harness invariant broke — always a bug.
    Internal,
}

impl ErrorKind {
    /// Stable lowercase label (used in failure manifests).
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Usage => "usage",
            ErrorKind::Sim => "sim",
            ErrorKind::WorkerPanic => "worker-panic",
            ErrorKind::Watchdog => "watchdog",
            ErrorKind::Io => "io",
            ErrorKind::Interrupted => "interrupted",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A structured campaign error: kind, message, and the sweep cell it came
/// from.
#[derive(Debug, Clone)]
pub struct CombError {
    /// What class of failure this is.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Identity of the sweep cell that failed, e.g.
    /// `polling|GM|102400 @ x=1000`, when the error came from one.
    pub cell: Option<String>,
}

impl CombError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> CombError {
        CombError {
            kind,
            message: message.into(),
            cell: None,
        }
    }

    /// A usage error (exit code 1).
    pub fn usage(message: impl Into<String>) -> CombError {
        CombError::new(ErrorKind::Usage, message)
    }

    /// An I/O error with the path (or operation) it hit.
    pub fn io(context: impl fmt::Display, err: &std::io::Error) -> CombError {
        CombError::new(ErrorKind::Io, format!("{context}: {err}"))
    }

    /// The campaign stopped early; completed cells are in the cell cache
    /// and a rerun resumes.
    pub fn interrupted(message: impl Into<String>) -> CombError {
        CombError::new(ErrorKind::Interrupted, message)
    }

    /// A broken harness invariant (always a bug).
    pub fn internal(message: impl Into<String>) -> CombError {
        CombError::new(ErrorKind::Internal, message)
    }

    /// This error tagged with the sweep cell it came from.
    pub fn with_cell(mut self, cell: impl Into<String>) -> CombError {
        self.cell = Some(cell.into());
        self
    }

    /// The CLI exit code for this error (see module docs for the table).
    pub fn exit_code(&self) -> u8 {
        match self.kind {
            ErrorKind::Usage => 1,
            ErrorKind::Watchdog => 3,
            _ => 2,
        }
    }
}

impl fmt::Display for CombError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cell {
            Some(cell) => write!(
                f,
                "[{}] {} (cell {})",
                self.kind.label(),
                self.message,
                cell
            ),
            None => write!(f, "[{}] {}", self.kind.label(), self.message),
        }
    }
}

impl std::error::Error for CombError {}

// CLI option parsers speak `Result<_, String>`; a bare string error is
// always a usage error (exit code 1), never a run failure.
impl From<String> for CombError {
    fn from(message: String) -> CombError {
        CombError::usage(message)
    }
}

impl From<&str> for CombError {
    fn from(message: &str) -> CombError {
        CombError::usage(message)
    }
}

impl From<SimError> for CombError {
    fn from(e: SimError) -> CombError {
        let kind = if e.is_watchdog() {
            ErrorKind::Watchdog
        } else {
            ErrorKind::Sim
        };
        CombError::new(kind, e.to_string())
    }
}

impl From<RunError> for CombError {
    fn from(e: RunError) -> CombError {
        let kind = match e {
            RunError::Sim(e) => return CombError::from(e),
            RunError::NoResult => ErrorKind::Internal,
            RunError::WorkerPanic { .. } => ErrorKind::WorkerPanic,
            RunError::Watchdog { .. } => ErrorKind::Watchdog,
            RunError::Interrupted => ErrorKind::Interrupted,
            RunError::Usage { .. } => ErrorKind::Usage,
        };
        // The run error's text already carries the panic message or the
        // watchdog diagnostic.
        CombError::new(kind, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_contract() {
        assert_eq!(CombError::usage("x").exit_code(), 1);
        assert_eq!(CombError::internal("x").exit_code(), 2);
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert_eq!(CombError::io("out.csv", &io).exit_code(), 2);
        let wd = CombError::from(SimError::WatchdogStalled {
            events: 1,
            at: comb_sim::SimTime::from_nanos(0),
        });
        assert_eq!(wd.kind, ErrorKind::Watchdog);
        assert_eq!(wd.exit_code(), 3);
    }

    #[test]
    fn display_carries_kind_cell_and_message() {
        let e = CombError::internal("no sample").with_cell("polling|GM|102400 @ x=10");
        let s = e.to_string();
        assert!(s.contains("[internal]"));
        assert!(s.contains("no sample"));
        assert!(s.contains("polling|GM|102400 @ x=10"));
    }

    #[test]
    fn watchdog_diagnostic_is_appended() {
        let e = CombError::from(RunError::Watchdog {
            error: SimError::WatchdogDeadline {
                deadline: comb_sim::SimTime::from_nanos(5),
                unfinished: vec!["worker".into()],
            },
            diagnostic: "last events:\n  t=4 rts".into(),
        });
        assert!(e.message.contains("deadline"));
        assert!(e.message.contains("t=4 rts"));
        assert_eq!(e.exit_code(), 3);
    }
}
