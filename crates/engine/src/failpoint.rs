//! Fault injection for robustness testing.
//!
//! Named *fail points* are compiled into the hot kernels (join, semijoin,
//! projection, scan, aggregation) behind the `failpoints` cargo feature.
//! Each site can be armed to inject a structured [`EvalError`], a delay,
//! or a deliberate panic — which is how the chaos suite proves that every operator either returns the
//! oracle-correct answer or a clean error, with no escaped panics and no
//! leaked budget.
//!
//! Cost model:
//! - feature off (the default for `--no-default-features` builds): the
//!   [`fail_point!`] macro folds to a constant-false branch — zero cost;
//! - feature on but no site armed: one relaxed atomic load per site hit;
//! - armed: a mutex-guarded registry lookup per hit (testing only).
//!
//! Sites are armed programmatically with [`configure`] or from the
//! environment via `HTQO_FAILPOINTS`, a `;`-separated list of
//! `site=action[@skip]` clauses where `action` is `error`, `panic`, or
//! `delay(<ms>)` and the optional `@skip` lets the first *skip* hits pass
//! (e.g. `HTQO_FAILPOINTS="ops::join=error;scan::atom=delay(5)@2"`).
//! [`clear`] resets everything (tests must call it between cases).

use crate::error::EvalError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed fail point does when hit.
#[derive(Clone, Debug, PartialEq)]
pub enum FailAction {
    /// Return `EvalError::Internal("injected failure at `<site>`")`.
    Error,
    /// Panic with a payload containing [`PANIC_MARKER`] and the site name.
    Panic,
    /// Sleep for the given duration, then continue normally. Used to
    /// widen race windows (e.g. for cancellation tests).
    Delay(Duration),
}

/// Substring present in every injected panic payload, so test panic hooks
/// can distinguish deliberate chaos panics from real bugs.
pub const PANIC_MARKER: &str = "htqo-failpoint";

/// Every fail-point site compiled into the engine and the downstream
/// evaluator/optimizer crates, sorted by name. [`configure_from_spec`]
/// (and therefore `HTQO_FAILPOINTS`) validates site names against this
/// list, so a typo'd site is a hard error instead of a silently dormant
/// clause. Keep in sync with the `fail_point!` invocations; the
/// `sites_are_sorted_and_documented` test cross-checks DESIGN.md.
pub const SITES: &[&str] = &[
    "aggregate::finalize",
    "bushy::node",
    "cops::join",
    "cops::project",
    "cops::semijoin",
    "factorized::build",
    "factorized::enumerate",
    "iseek::join",
    "ops::join",
    "ops::project",
    "ops::semijoin",
    "qeval::bottom_up",
    "qeval::vertex",
    "scan::atom",
    "spill::cleanup",
    "spill::read",
    "spill::write",
    "storage::catalog_rename",
    "storage::checkpoint",
    "storage::page_read",
    "storage::page_write",
    "storage::wal_append",
    "storage::wal_fsync",
    "storage::write_back",
];

/// The enumerable registry of fail-point site names (see [`SITES`]).
pub fn sites() -> &'static [&'static str] {
    SITES
}

/// Why an `HTQO_FAILPOINTS`-style spec was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A clause failed to parse (missing `=`, bad action, bad number).
    Parse(String),
    /// A clause named a site that is not in [`sites`].
    UnknownSite(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(m) => write!(f, "{m}"),
            SpecError::UnknownSite(site) => write!(
                f,
                "unknown fail-point site `{site}` (known sites: {})",
                SITES.join(", ")
            ),
        }
    }
}

impl std::error::Error for SpecError {}

struct SiteState {
    action: FailAction,
    /// Hits to let pass before firing.
    skip: u64,
    /// Remaining fires (`None` = unlimited).
    times: Option<u64>,
    hits: u64,
}

fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
    static REGISTRY: std::sync::OnceLock<Mutex<HashMap<String, SiteState>>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Whether any site is currently armed. `false` also covers the
/// feature-off build, where this folds to a constant.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Fast dormancy check used by the [`fail_point!`] macros. With the
/// `failpoints` feature off this is a constant `false` (the whole site
/// folds away); with it on, the first call reads `HTQO_FAILPOINTS` once,
/// then it is a single relaxed load.
#[inline]
pub fn armed() -> bool {
    #[cfg(not(feature = "failpoints"))]
    {
        false
    }
    #[cfg(feature = "failpoints")]
    {
        use std::sync::Once;
        static ENV_INIT: Once = Once::new();
        ENV_INIT.call_once(|| {
            if let Ok(spec) = std::env::var("HTQO_FAILPOINTS") {
                if let Err(e) = configure_from_spec(&spec) {
                    eprintln!("HTQO_FAILPOINTS ignored: {e}");
                }
            }
        });
        ARMED.load(Ordering::Relaxed)
    }
}

/// Arms `site` with `action`, letting the first `skip` hits pass and
/// firing at most `times` times (`None` = unlimited).
pub fn configure(site: &str, action: FailAction, skip: u64, times: Option<u64>) {
    let mut reg = registry().lock().unwrap();
    reg.insert(
        site.to_string(),
        SiteState {
            action,
            skip,
            times,
            hits: 0,
        },
    );
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms every site and resets hit counters. Chaos tests call this
/// between cases; it is also safe to call when nothing is armed.
pub fn clear() {
    registry().lock().unwrap().clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Parses and applies an `HTQO_FAILPOINTS`-style spec (see module docs).
/// Site names are validated against [`sites`]; an unknown name is a
/// [`SpecError::UnknownSite`] and nothing from the spec is armed.
pub fn configure_from_spec(spec: &str) -> Result<(), SpecError> {
    // Two passes: validate the whole spec first so a bad trailing clause
    // doesn't leave a half-armed registry.
    let mut parsed: Vec<(String, FailAction, u64)> = Vec::new();
    for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
        let (site, rest) = clause
            .split_once('=')
            .ok_or_else(|| SpecError::Parse(format!("missing `=` in clause `{clause}`")))?;
        let site = site.trim();
        if !SITES.contains(&site) {
            return Err(SpecError::UnknownSite(site.to_string()));
        }
        let (action_str, skip) = match rest.split_once('@') {
            Some((a, s)) => (
                a,
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| SpecError::Parse(format!("bad skip count in `{clause}`")))?,
            ),
            None => (rest, 0),
        };
        let action_str = action_str.trim();
        let action = if action_str == "error" {
            FailAction::Error
        } else if action_str == "panic" {
            FailAction::Panic
        } else if let Some(ms) = action_str
            .strip_prefix("delay(")
            .and_then(|s| s.strip_suffix(')'))
        {
            let ms: u64 = ms
                .trim()
                .parse()
                .map_err(|_| SpecError::Parse(format!("bad delay in `{clause}`")))?;
            FailAction::Delay(Duration::from_millis(ms))
        } else {
            return Err(SpecError::Parse(format!(
                "unknown action `{action_str}` in `{clause}`"
            )));
        };
        parsed.push((site.to_string(), action, skip));
    }
    for (site, action, skip) in parsed {
        configure(&site, action, skip, None);
    }
    Ok(())
}

/// Looks up `site` and decides whether it fires this hit.
fn fire(site: &str) -> Option<FailAction> {
    let mut reg = registry().lock().unwrap();
    let state = reg.get_mut(site)?;
    state.hits += 1;
    if state.hits <= state.skip {
        return None;
    }
    if let Some(times) = state.times.as_mut() {
        if *times == 0 {
            return None;
        }
        *times -= 1;
    }
    Some(state.action.clone())
}

/// Evaluates an armed site in a `Result` context: may return an injected
/// error, panic, or sleep. Called by [`fail_point!`]; only reached when
/// [`armed`] returned true.
pub fn eval(site: &str) -> Result<(), EvalError> {
    match fire(site) {
        None => Ok(()),
        Some(FailAction::Error) => {
            Err(EvalError::Internal(format!("injected failure at `{site}`")))
        }
        Some(FailAction::Panic) => panic!("{PANIC_MARKER}: injected panic at `{site}`"),
        Some(FailAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Fault-injection site in a `Result<_, EvalError>` context. Expands to a
/// dormant branch; see the module docs for the cost model.
///
/// The macro routes through [`armed`]/[`eval`] — always-present functions
/// in *this* crate — so the `failpoints` cfg is resolved against the
/// engine's features even when the macro is invoked from another crate.
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        if $crate::failpoint::armed() {
            $crate::failpoint::eval($site)?;
        }
    };
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    // The registry is global; serialize the tests touching it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn dormant_sites_are_free() {
        let _g = lock();
        clear();
        assert!(!armed());
        // A fail_point! in a function body compiles and is a no-op.
        fn site() -> Result<(), EvalError> {
            fail_point!("test::dormant");
            Ok(())
        }
        assert!(site().is_ok());
    }

    #[test]
    fn error_injection_with_skip_and_times() {
        let _g = lock();
        clear();
        configure("test::err", FailAction::Error, 1, Some(1));
        assert!(armed());
        assert!(eval("test::err").is_ok(), "first hit skipped");
        let err = eval("test::err").unwrap_err();
        assert!(matches!(err, EvalError::Internal(ref m) if m.contains("test::err")));
        assert!(eval("test::err").is_ok(), "times=1 exhausted");
        clear();
        assert!(!armed());
    }

    #[test]
    fn spec_parsing() {
        let _g = lock();
        clear();
        configure_from_spec("ops::join=error; scan::atom=delay(5)@2 ;qeval::vertex=panic").unwrap();
        assert!(eval("ops::join").is_err());
        assert!(eval("scan::atom").is_ok()); // skipped (1/2)
        assert!(eval("scan::atom").is_ok()); // skipped (2/2)
        let t = std::time::Instant::now();
        assert!(eval("scan::atom").is_ok()); // delay fires
        assert!(t.elapsed() >= Duration::from_millis(5));
        assert!(matches!(
            configure_from_spec("bad"),
            Err(SpecError::Parse(_))
        ));
        assert!(matches!(
            configure_from_spec("ops::join=frobnicate"),
            Err(SpecError::Parse(_))
        ));
        assert!(matches!(
            configure_from_spec("ops::join=delay(abc)"),
            Err(SpecError::Parse(_))
        ));
        clear();
    }

    /// A typo'd site name is a typed error, and a rejected spec arms
    /// nothing — not even its valid clauses.
    #[test]
    fn unknown_site_is_a_typed_error_and_arms_nothing() {
        let _g = lock();
        clear();
        let err = configure_from_spec("ops::join=error;no::such::site=panic").unwrap_err();
        assert_eq!(err, SpecError::UnknownSite("no::such::site".into()));
        assert!(err.to_string().contains("no::such::site"));
        assert!(!armed(), "a rejected spec must arm nothing");
        // The sites of the retired worker pool are unknown like any other.
        for retired in [
            "exec::worker",
            "ops::join::partition",
            "cops::join::partition",
        ] {
            assert_eq!(
                configure_from_spec(&format!("{retired}=panic")),
                Err(SpecError::UnknownSite(retired.into()))
            );
        }
        clear();
    }

    /// The registry is sorted (stable output for docs/tools), duplicate
    /// free, and in sync with the DESIGN.md §3.9 site table in **both**
    /// directions: every registered site has a table row, and every
    /// table row names a registered site.
    #[test]
    fn sites_are_sorted_and_documented() {
        let mut sorted = SITES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, SITES, "SITES must be sorted and unique");
        let design = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
        let text = std::fs::read_to_string(design).expect("DESIGN.md readable");
        // The §3.9 table rows have the shape: | `site::name` | where... |
        let documented: Vec<&str> = text
            .lines()
            .filter_map(|l| {
                let rest = l.trim().strip_prefix("| `")?;
                let (site, _) = rest.split_once('`')?;
                site.contains("::").then_some(site)
            })
            .collect();
        for site in sites() {
            assert!(
                documented.contains(site),
                "fail-point site `{site}` has no row in the DESIGN.md §3.9 table"
            );
        }
        for site in &documented {
            assert!(
                SITES.contains(site),
                "DESIGN.md documents `{site}` but the registry does not define it"
            );
        }
        assert_eq!(documented.len(), SITES.len(), "duplicate table rows");
    }

    #[test]
    fn panic_injection_carries_marker() {
        let _g = lock();
        clear();
        configure("test::panic", FailAction::Panic, 0, None);
        let res = std::panic::catch_unwind(|| eval("test::panic"));
        clear();
        let payload = res.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains(PANIC_MARKER));
        assert!(msg.contains("test::panic"));
    }
}
