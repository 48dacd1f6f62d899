//! A tiny leveled, target-prefixed stderr logger — no dependencies, no
//! global registration, one env knob.
//!
//! `SLB_LOG` selects the maximum level: `error`, `warn`, `info` (the
//! default), or `debug`. Anything else is a configuration mistake and
//! fails fast with a panic naming the variable and the offending value: a
//! typo must not quietly run at another level. Binaries call [`init`]
//! first thing in `main` so the failure happens at startup, not at the
//! first log call mid-run.
//!
//! Lines go to stderr as `[target] LEVEL message` — stdout is reserved
//! for machine-readable run reports (node_golden and node_faults parse
//! it), which is why the report printer does *not* route through here.

use std::sync::OnceLock;

/// Log severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error,
    Warn,
    Info,
    Debug,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
        }
    }
}

/// Parses an `SLB_LOG` value. `None` (unset) defaults to [`Level::Info`];
/// a malformed value panics — fail fast beats silently dropping logs.
pub fn parse_level(value: Option<&str>) -> Level {
    match value {
        None => Level::Info,
        Some("error") => Level::Error,
        Some("warn") => Level::Warn,
        Some("info") => Level::Info,
        Some("debug") => Level::Debug,
        Some(other) => {
            panic!("SLB_LOG must be one of error|warn|info|debug, got {other:?}")
        }
    }
}

static LEVEL: OnceLock<Level> = OnceLock::new();

/// Resolves (and caches) the level from `SLB_LOG`. Call at the top of
/// `main` to surface a malformed value at startup.
pub fn init() -> Level {
    *LEVEL.get_or_init(|| parse_level(std::env::var("SLB_LOG").ok().as_deref()))
}

/// Whether a message at `level` would be emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    level <= init()
}

/// Emits one line at `level` with a `[target]` prefix.
pub fn log(level: Level, target: &str, message: &str) {
    if enabled(level) {
        eprintln!("[{target}] {} {message}", level.name());
    }
}

pub fn error(target: &str, message: &str) {
    log(Level::Error, target, message);
}

pub fn warn(target: &str, message: &str) {
    log(Level::Warn, target, message);
}

pub fn info(target: &str, message: &str) {
    log(Level::Info, target, message);
}

pub fn debug(target: &str, message: &str) {
    log(Level::Debug, target, message);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(parse_level(None), Level::Info);
        assert_eq!(parse_level(Some("error")), Level::Error);
        assert_eq!(parse_level(Some("warn")), Level::Warn);
        assert_eq!(parse_level(Some("info")), Level::Info);
        assert_eq!(parse_level(Some("debug")), Level::Debug);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn malformed_level_fails_fast() {
        let panic = std::panic::catch_unwind(|| parse_level(Some("verbose")))
            .expect_err("malformed SLB_LOG must panic");
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("SLB_LOG") && message.contains("verbose"),
            "panic must name the variable and value: {message}"
        );
    }
}
