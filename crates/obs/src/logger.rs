//! An env-filtered structured logger, silent by default.
//!
//! The filter comes from the `DB_LOG` environment variable, read once:
//!
//! ```text
//! DB_LOG=debug                 # everything at debug or coarser
//! DB_LOG=optics=debug          # only the optics target
//! DB_LOG=optics=trace,birch=info
//! ```
//!
//! Targets default to `module_path!()` of the callsite; directive names
//! match a target if they equal its first path segment with any `db_`/`db-`
//! prefix stripped (so `optics` matches `db_optics::algorithm`). The fast
//! path for a *disabled* level is a single relaxed atomic load.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Log verbosity, coarser to finer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed.
    Error = 1,
    /// Something surprising that does not fail the operation.
    Warn = 2,
    /// Milestones: phase started, file written.
    Info = 3,
    /// Per-step diagnostics.
    Debug = 4,
    /// Inner-loop firehose.
    Trace = 5,
}

impl Level {
    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            "off" | "none" => None,
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

#[derive(Debug, Default)]
struct Filter {
    /// Level for targets not matched by any directive (0 = off).
    default_level: u8,
    /// `(name, level)` directives, e.g. `("optics", 4)`.
    directives: Vec<(String, u8)>,
}

impl Filter {
    fn parse(spec: &str) -> Filter {
        let mut f = Filter::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part.split_once('=') {
                Some((name, level)) => {
                    let level = Level::parse(level).map_or(0, |l| l as u8);
                    f.directives.push((normalize(name), level));
                }
                None => f.default_level = Level::parse(part).map_or(f.default_level, |l| l as u8),
            }
        }
        f
    }

    fn max_level(&self) -> u8 {
        self.directives.iter().map(|&(_, l)| l).chain([self.default_level]).max().unwrap_or(0)
    }

    fn level_for(&self, target: &str) -> u8 {
        let head = normalize(target.split("::").next().unwrap_or(target));
        self.directives
            .iter()
            .rev()
            .find(|(name, _)| *name == head)
            .map_or(self.default_level, |&(_, l)| l)
    }
}

/// Strips a `db_`/`db-` crate prefix and lowercases, so `db_optics`,
/// `db-optics`, and `optics` all name the same target.
fn normalize(name: &str) -> String {
    let name = name.trim().to_ascii_lowercase().replace('-', "_");
    name.strip_prefix("db_").map_or_else(|| name.clone(), str::to_string)
}

/// Fast-path gate: the maximum enabled level across all directives.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(u8::MAX); // MAX = "not initialized yet"

static FILTER: OnceLock<Mutex<Filter>> = OnceLock::new();

fn filter() -> &'static Mutex<Filter> {
    FILTER.get_or_init(|| {
        let f = std::env::var("DB_LOG").map(|s| Filter::parse(&s)).unwrap_or_default();
        MAX_LEVEL.store(f.max_level(), Ordering::Relaxed);
        Mutex::new(f)
    })
}

/// Replaces the filter (same syntax as `DB_LOG`). For tests and embedders;
/// normal use just sets the environment variable.
pub fn set_filter_spec(spec: &str) {
    let new = Filter::parse(spec);
    let max = new.max_level();
    // Replace the filter first: filter() may lazily initialize from the
    // env and clobber MAX_LEVEL, so the gate is stored after.
    *filter().lock().unwrap() = new;
    MAX_LEVEL.store(max, Ordering::Relaxed);
}

/// Whether a message for `target` at `level` would be emitted. One relaxed
/// load when the level is globally disabled.
#[inline]
pub fn log_enabled(target: &str, level: Level) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    if max != u8::MAX && level as u8 > max {
        return false;
    }
    level as u8 <= filter().lock().unwrap().level_for(target)
}

/// Emits one line to stderr. Called by the `log_*!` macros after
/// [`log_enabled`] passes; not intended for direct use.
pub fn log_emit(target: &str, level: Level, args: fmt::Arguments<'_>) {
    eprintln!("[{:5} {}] {}", level.label(), target, args);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parsing() {
        let f = Filter::parse("optics=debug,birch=trace,info");
        assert_eq!(f.default_level, Level::Info as u8);
        assert_eq!(f.level_for("db_optics::algorithm"), Level::Debug as u8);
        assert_eq!(f.level_for("db_birch"), Level::Trace as u8);
        assert_eq!(f.level_for("db_spatial::index"), Level::Info as u8);
        assert_eq!(f.max_level(), Level::Trace as u8);
    }

    #[test]
    fn empty_spec_is_silent() {
        let f = Filter::parse("");
        assert_eq!(f.max_level(), 0);
        assert_eq!(f.level_for("anything"), 0);
    }

    #[test]
    fn dash_and_db_prefix_normalize() {
        let f = Filter::parse("db-optics=warn");
        assert_eq!(f.level_for("optics"), Level::Warn as u8);
        assert_eq!(f.level_for("db_optics::space"), Level::Warn as u8);
    }

    #[test]
    fn bad_level_means_off() {
        let f = Filter::parse("optics=banana");
        assert_eq!(f.level_for("optics"), 0);
    }
}
