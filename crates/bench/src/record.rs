//! The one shape of every `BENCH_<name>.json` recording and the one gate
//! that checks a run against it.
//!
//! A recording is `{"bench": <name>, "rows": [{<key fields…>, <metric
//! fields…>}, …]}`. A row is matched to its recording by its key fields
//! (the [`Bench::keys`] it carries), so a campaign-wide scalar is a row of
//! its own with a key that names it.
//!
//! Each `benches/*.rs` declares its bounds as a `const` [`Bench`] whose
//! [`Gate`] table uses four checks:
//!
//! - [`Bound::Floor`] / [`Bound::Ceiling`]: the live value against a fixed
//!   bar, no recording needed, checked on every run;
//! - [`Bound::Drift`]: the live value against the recorded one, allowed
//!   `rel · |recorded| + abs` of movement up, down or either way;
//! - [`Bound::Exact`]: the live value equals the recorded one
//!   ([`EVERY_FIELD`] compares whole rows).
//!
//! Drift and exact checks run under `EHDL_CHECK_BENCH=1`, where a row
//! measured but not recorded, or recorded but not measured, also fails.
//! `EHDL_WRITE_BENCH=1` re-records, unless a fixed bar already failed.

use ehdl_runtime::Json;
use std::path::PathBuf;

/// The [`Gate::field`] of an exact check on every field of a row.
pub const EVERY_FIELD: &str = "*";

/// Which way a drifting value may not move past its allowance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Neither way.
    Both,
    /// Up: the value may fall freely.
    Up,
    /// Down: the value may rise freely.
    Down,
}

/// One check of a [`Gate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `live >= bar` (booleans count as 0/1).
    Floor(f64),
    /// `live <= bar`.
    Ceiling(f64),
    /// `|live − recorded| <= rel · |recorded| + abs`, in the bounded
    /// direction(s).
    Drift {
        /// Bounded direction(s).
        dir: Dir,
        /// Allowance relative to the recorded value.
        rel: f64,
        /// Absolute allowance (slack) on top.
        abs: f64,
    },
    /// `live == recorded`, exactly.
    Exact,
}

/// One bound on one field of the rows it applies to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The row field checked ([`EVERY_FIELD`] for a whole-row exact check).
    pub field: &'static str,
    /// The check.
    pub bound: Bound,
    /// Only rows whose fields have these values (a string's text, any
    /// other value's JSON text); empty for every row that has `field`.
    pub when: &'static [(&'static str, &'static str)],
}

impl Gate {
    /// `field >= bar`.
    pub const fn floor(field: &'static str, bar: f64) -> Gate {
        Gate { field, bound: Bound::Floor(bar), when: &[] }
    }

    /// `field <= bar`.
    pub const fn ceiling(field: &'static str, bar: f64) -> Gate {
        Gate { field, bound: Bound::Ceiling(bar), when: &[] }
    }

    /// `field` within `rel · |recorded| + abs` of the recording, in `dir`.
    pub const fn drift(field: &'static str, dir: Dir, rel: f64, abs: f64) -> Gate {
        Gate { field, bound: Bound::Drift { dir, rel, abs }, when: &[] }
    }

    /// `field` equal to the recording.
    pub const fn exact(field: &'static str) -> Gate {
        Gate { field, bound: Bound::Exact, when: &[] }
    }

    /// The same gate restricted to rows matching `when`.
    pub const fn when(self, when: &'static [(&'static str, &'static str)]) -> Gate {
        Gate { when, ..self }
    }

    /// Whether the gate checks `row` (or the pair of a row and its
    /// recording, which share the `when` fields' values).
    fn applies(&self, row: &Json, rec: Option<&Json>) -> bool {
        let has = |r: &Json| self.field == EVERY_FIELD || r.get(self.field).is_some();
        (has(row) || rec.is_some_and(has))
            && self.when.iter().all(|&(k, v)| row.get(k).is_some_and(|x| text(x) == v))
    }
}

/// One bench's recording: its name, row keys and gate table.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Recorded as `BENCH_<name>.json` at the workspace root.
    pub name: &'static str,
    /// The fields that identify a row (a row carries a subset of them).
    pub keys: &'static [&'static str],
    /// Every bound on the rows.
    pub gates: &'static [Gate],
}

/// A value's text for messages and `when` matches: a string's content,
/// anything else as JSON.
fn text(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        v => v.write().unwrap_or_else(|e| e.to_string()),
    }
}

/// A gated number: integers, floats, and booleans as 0/1.
fn number(v: &Json) -> Option<f64> {
    match *v {
        Json::Bool(b) => Some(f64::from(u8::from(b))),
        ref v => v.as_f64(),
    }
}

impl Bench {
    /// The workspace-root path of the recording.
    fn path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("BENCH_{}.json", self.name))
    }

    /// The recording of `rows` as JSON text.
    ///
    /// # Errors
    ///
    /// A non-finite number in a row.
    fn render(&self, rows: &[Json]) -> Result<String, ehdl_runtime::JsonError> {
        let doc = Json::obj([("bench", Json::from(self.name)), ("rows", rows.to_vec().into())]);
        Ok(doc.write()? + "\n")
    }

    /// The rows of a recording's text, checked to be this bench's.
    ///
    /// # Errors
    ///
    /// Invalid JSON, another bench's name, or not the `{bench, rows}`
    /// shape with object rows.
    fn parse(&self, text: &str) -> Result<Vec<Json>, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("bench").and_then(Json::as_str) != Some(self.name) {
            return Err(format!("not a `{}` recording", self.name));
        }
        match doc.get("rows").and_then(Json::as_array) {
            Some(rows) if rows.iter().all(|r| r.as_object().is_some()) => Ok(rows.to_vec()),
            _ => Err("no `rows` array of objects".into()),
        }
    }

    /// The recorded rows.
    ///
    /// # Errors
    ///
    /// The file is missing or not this bench's recording.
    fn read(&self) -> Result<Vec<Json>, String> {
        let path = self.path();
        std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| self.parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// A row's key: its values of [`Bench::keys`], as `k=v/…`.
    fn key(&self, row: &Json) -> String {
        let parts: Vec<String> = self
            .keys
            .iter()
            .filter_map(|&k| row.get(k).map(|v| format!("{k}={}", text(v))))
            .collect();
        parts.join("/")
    }

    /// Failures of the fixed bars ([`Bound::Floor`], [`Bound::Ceiling`]),
    /// and of any gate that applies to no row at all.
    fn bounds(&self, live: &[Json]) -> Vec<String> {
        let mut failures = Vec::new();
        for g in self.gates {
            if !live.iter().any(|row| g.applies(row, None)) {
                failures.push(format!("gate on `{}` {:?} matches no row", g.field, g.when));
            }
            let (bar, below) = match g.bound {
                Bound::Floor(bar) => (bar, true),
                Bound::Ceiling(bar) => (bar, false),
                _ => continue,
            };
            for row in live.iter().filter(|r| g.applies(r, None)) {
                let (key, field) = (self.key(row), g.field);
                match row.get(field).and_then(number) {
                    Some(v) if below && v < bar => {
                        failures.push(format!("{key}: {field} {v} below the floor {bar}"));
                    }
                    Some(v) if !below && v > bar => {
                        failures.push(format!("{key}: {field} {v} above the ceiling {bar}"));
                    }
                    Some(_) => {}
                    None => failures.push(format!("{key}: {field} is not a number")),
                }
            }
        }
        failures
    }

    /// Failures of the live rows against the recorded ones: rows on one
    /// side only, then every [`Bound::Drift`] and [`Bound::Exact`].
    fn against(&self, live: &[Json], recorded: &[Json]) -> Vec<String> {
        let mut failures = Vec::new();
        for rec in recorded {
            if !live.iter().any(|row| self.key(row) == self.key(rec)) {
                failures.push(format!("{}: recorded but not measured", self.key(rec)));
            }
        }
        for row in live {
            let key = self.key(row);
            let Some(rec) = recorded.iter().find(|r| self.key(r) == key) else {
                failures.push(format!("{key}: measured but not recorded"));
                continue;
            };
            let recorded_gates = self.gates.iter().filter(|g| {
                matches!(g.bound, Bound::Drift { .. } | Bound::Exact) && g.applies(row, Some(rec))
            });
            for g in recorded_gates {
                let mut fields = vec![g.field];
                if g.field == EVERY_FIELD {
                    fields.clear();
                    for (k, _) in
                        [row, rec].into_iter().flat_map(|r| r.as_object().unwrap_or_default())
                    {
                        if !fields.contains(&k.as_str()) {
                            fields.push(k);
                        }
                    }
                }
                for field in fields {
                    if let Some(f) = check_field(g.bound, row.get(field), rec.get(field)) {
                        failures.push(format!("{key}: {field} {f}"));
                    }
                }
            }
        }
        failures
    }

    /// One line per row: `<name>[<key>] field=value …`.
    fn show(&self, row: &Json) -> String {
        let mut line = format!("{}[{}]", self.name, self.key(row));
        for (k, v) in row.as_object().unwrap_or_default() {
            if !self.keys.contains(&k.as_str()) {
                let v = match *v {
                    Json::Float(f) if f.abs() >= 1e3 => format!("{f:.0}"),
                    Json::Float(f) => format!("{f:.4}"),
                    ref v => text(v),
                };
                line.push_str(&format!(" {k}={v}"));
            }
        }
        line
    }

    /// Finish a bench run: print the rows, check the fixed bars and
    /// `checks` (failures of the bench's own checks), re-record under
    /// `EHDL_WRITE_BENCH=1` if they pass, compare with the recording under
    /// `EHDL_CHECK_BENCH=1`, and exit 1 on any failure.
    pub fn finish(&self, rows: &[Json], checks: Vec<String>) {
        for row in rows {
            println!("{}", self.show(row));
        }
        let mut failures = checks;
        failures.extend(self.bounds(rows));
        if std::env::var_os("EHDL_WRITE_BENCH").is_some() {
            if failures.is_empty() {
                let written = self
                    .render(rows)
                    .map_err(|e| e.to_string())
                    .and_then(|text| std::fs::write(self.path(), text).map_err(|e| e.to_string()));
                match written {
                    Ok(()) => println!("recorded BENCH_{}.json", self.name),
                    Err(e) => failures.push(format!("cannot record BENCH_{}.json: {e}", self.name)),
                }
            } else {
                println!("not recording BENCH_{}.json: the run fails its gates", self.name);
            }
        }
        if std::env::var_os("EHDL_CHECK_BENCH").is_some() {
            match self.read() {
                Ok(recorded) => failures.extend(self.against(rows, &recorded)),
                Err(e) => failures.push(e),
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("{} REGRESSION: {f}", self.name);
            }
            eprintln!(
                "re-record an intentional change with EHDL_WRITE_BENCH=1 and `git diff` \
                 BENCH_{}.json",
                self.name
            );
            std::process::exit(1);
        }
        println!("{} OK: {} rows pass {} gates", self.name, rows.len(), self.gates.len());
    }
}

/// Why one field fails a recording check, if it does.
fn check_field(bound: Bound, live: Option<&Json>, rec: Option<&Json>) -> Option<String> {
    let (live, rec) = match (live, rec) {
        (Some(l), Some(r)) => (l, r),
        (l, r) => {
            let side = |v: Option<&Json>| v.map_or("absent".to_string(), text);
            return Some(format!("{} vs recorded {}", side(l), side(r)));
        }
    };
    match bound {
        Bound::Exact if live != rec => Some(format!("{} vs recorded {}", text(live), text(rec))),
        Bound::Drift { dir, rel, abs } => {
            let (Some(l), Some(r)) = (number(live), number(rec)) else {
                return Some(format!("{} vs recorded {} is not a number", text(live), text(rec)));
            };
            let allowed = rel * r.abs() + abs;
            let over = match dir {
                Dir::Both => (l - r).abs() > allowed,
                Dir::Up => l - r > allowed,
                Dir::Down => r - l > allowed,
            };
            over.then(|| format!("{l} vs recorded {r} drifts past {allowed} ({dir:?})"))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Bench = Bench {
        name: "test",
        keys: &["app", "run"],
        gates: &[
            Gate::floor("frac", 0.8),
            Gate::ceiling("lost", 0.0).when(&[("app", "b")]),
            Gate::drift("rate", Dir::Down, 0.5, 0.0),
            Gate::drift("flushes", Dir::Up, 0.5, 8.0),
            Gate::exact("n"),
        ],
    };

    fn row(app: &str, frac: f64, lost: u64, rate: f64, flushes: u64) -> Json {
        Json::obj([
            ("app", Json::from(app)),
            ("frac", frac.into()),
            ("lost", lost.into()),
            ("rate", rate.into()),
            ("flushes", flushes.into()),
            ("n", 3u64.into()),
        ])
    }

    fn rows() -> Vec<Json> {
        vec![row("a", 0.9, 1, 100.0, 16), row("b", 1.0, 0, 50.0, 0)]
    }

    #[test]
    fn records_round_trip_through_the_one_shape() {
        let text = T.render(&rows()).expect("finite rows render");
        assert!(text.starts_with("{\n  \"bench\": \"test\",\n  \"rows\": [\n    {\"app\": \"a\""));
        assert_eq!(T.parse(&text), Ok(rows()));
        assert!(T.parse("{\"bench\": \"other\", \"rows\": []}").is_err());
        assert!(T.parse("{\"bench\": \"test\", \"rows\": [1]}").is_err());
    }

    #[test]
    fn rows_show_key_then_metrics() {
        assert_eq!(
            T.show(&row("a", 0.9, 1, 12345.6, 16)),
            "test[app=a] frac=0.9000 lost=1 rate=12346 flushes=16 n=3"
        );
    }

    #[test]
    fn fixed_bars_fail_only_past_the_bar() {
        assert!(T.bounds(&rows()).is_empty());
        // `lost` is only bounded on app b.
        let f = T.bounds(&[row("a", 0.8, 5, 1.0, 0), row("b", 0.79, 1, 1.0, 0)]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].contains("app=b: frac 0.79 below the floor 0.8"), "{f:?}");
        assert!(f[1].contains("app=b: lost 1 above the ceiling 0"), "{f:?}");
        // A gate whose field or `when` no row has is a failure, not a skip.
        let f = T.bounds(&[row("a", 0.9, 0, 1.0, 0)]);
        assert!(f.iter().any(|f| f.contains("gate on `lost`")), "{f:?}");
    }

    #[test]
    fn drift_and_exact_follow_the_recording() {
        let rec = rows();
        assert!(T.against(&rows(), &rec).is_empty());
        // Rate may fall by half, flushes may rise by half plus 8.
        let ok = [row("a", 0.9, 1, 50.0, 32), row("b", 1.0, 0, 1000.0, 8)];
        assert!(T.against(&ok, &rec).is_empty(), "{:?}", T.against(&ok, &rec));
        let bad = [row("a", 0.9, 1, 49.9, 33), row("b", 1.0, 0, 50.0, 9)];
        let f = T.against(&bad, &rec);
        assert_eq!(f.len(), 3, "{f:?}");
        let mut changed = rows();
        changed[1] = Json::obj([("app", Json::from("b")), ("n", 4u64.into())]);
        let f = T.against(&changed, &rec);
        assert!(f.iter().any(|f| f.contains("app=b: n 4 vs recorded 3")), "{f:?}");
        assert!(f.iter().any(|f| f.contains("app=b: rate absent vs recorded 50.0")), "{f:?}");
    }

    #[test]
    fn a_missing_row_fails_in_both_directions() {
        let rec = rows();
        let f = T.against(&rows()[..1], &rec);
        assert_eq!(f, vec!["app=b: recorded but not measured".to_string()]);
        let f = T.against(&rows(), &rec[..1]);
        assert_eq!(f, vec!["app=b: measured but not recorded".to_string()]);
        // A renamed key is both.
        let mut renamed = rows();
        renamed[1] = row("c", 1.0, 0, 50.0, 0);
        assert_eq!(T.against(&renamed, &rec).len(), 2);
    }

    #[test]
    fn every_field_exact_compares_whole_rows() {
        const E: Bench = Bench { name: "e", keys: &["app"], gates: &[Gate::exact(EVERY_FIELD)] };
        let rec = rows();
        assert!(E.against(&rows(), &rec).is_empty());
        let mut live = rows();
        live[0] = row("a", 0.9, 1, 100.000_000_1, 16);
        let f = E.against(&live, &rec);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].starts_with("app=a: rate 100.0000001 vs recorded 100.0"), "{f:?}");
    }
}
