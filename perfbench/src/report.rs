//! What one run reports: named metrics with units, request accounting,
//! output verification, and the JSON result line.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Named metrics in insertion order; a later `set` of the same name
/// replaces the value.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// Copies every metric of `other` whose name is not set here yet.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (name, value, unit) in &other.entries {
            if self.get(name).is_none() {
                self.entries.push((name.clone(), *value, unit));
            }
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// Bit-exact comparison of responses against the oracle, shared by every
/// thread of a run. A mismatch fails the run; it is not an error.
#[derive(Debug, Default)]
pub struct Verifier {
    checked: AtomicU64,
    mismatched: AtomicU64,
}

impl Verifier {
    /// Records one comparison; returns whether it matched.
    pub fn record(&self, matched: bool) -> bool {
        self.checked.fetch_add(1, Ordering::Relaxed);
        if !matched {
            self.mismatched.fetch_add(1, Ordering::Relaxed);
        }
        matched
    }

    pub fn checked(&self) -> u64 {
        self.checked.load(Ordering::Relaxed)
    }

    pub fn mismatched(&self) -> u64 {
        self.mismatched.load(Ordering::Relaxed)
    }
}

/// Request accounting for one phase of a run.
#[derive(Clone, Debug, Default)]
pub struct PhaseCount {
    pub name: String,
    /// Requests offered to the program.
    pub sent: u64,
    /// Requests answered with logits.
    pub succeeded: u64,
    /// Requests answered with an error, a timeout or a dead connection.
    pub failed: u64,
    /// Requests refused by admission control (HTTP 429/503, `RejectReason`).
    pub refused: u64,
    /// p99 of how late the generator sent requests while it was free to
    /// send them, milliseconds.
    pub gen_lag_p99_ms: f64,
    /// False when the generator's own lateness, not the program, set the
    /// schedule.
    pub valid: bool,
}

impl PhaseCount {
    pub fn add(&mut self, other: &PhaseCount) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.refused += other.refused;
    }
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Metrics,
    pub phases: Vec<PhaseCount>,
}

impl Report {
    /// Requests sent in the phases that produced the printed metrics.
    pub fn totals(&self) -> PhaseCount {
        let mut t = PhaseCount::default();
        for p in &self.phases {
            t.add(p);
        }
        t
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    s.push_str("}}");
    s
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
