//! Machine-readable experiment output via `SLB_BENCH_JSON_DIR`.
//!
//! Every `expt_*` binary prints a human-readable table to stdout; with
//! `SLB_BENCH_JSON_DIR=<dir>` set it *additionally* writes the same rows as
//! JSON to `<dir>/EXPT_<experiment>.json`, so figure data can be consumed by
//! plotting scripts without re-parsing aligned-column text.
//!
//! The vendored `serde` is a no-op shim (see `vendor/README.md`), so this is
//! a deliberately tiny hand-rolled JSON writer: a value model, escaping, and
//! a [`Table`] builder keyed by column names. Output shape:
//!
//! ```json
//! {
//!   "experiment": "fig13_throughput",
//!   "columns": ["scheme", "skew", "throughput_eps"],
//!   "rows": [
//!     {"scheme": "KG", "skew": 1.4, "throughput_eps": 123456.0}
//!   ]
//! }
//! ```

use std::path::PathBuf;

/// A JSON value. Integers keep their own variant so `u64` counts round-trip
/// exactly instead of passing through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (used for optional cells, e.g. a skew that does not apply).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered without a decimal point.
    U64(u64),
    /// A float; non-finite values render as `null` (JSON has no NaN).
    F64(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::U64(v as u64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::U64(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(JsonValue::Null)
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl JsonValue {
    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => out.push_str(&v.to_string()),
            JsonValue::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
            JsonValue::F64(_) => out.push_str("null"),
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// The JSON sink directory, if the hook is enabled.
pub fn json_dir() -> Option<PathBuf> {
    std::env::var_os("SLB_BENCH_JSON_DIR").map(PathBuf::from)
}

/// A column-named experiment table that mirrors a binary's printed rows.
pub struct Table {
    experiment: String,
    columns: Vec<String>,
    rows: Vec<JsonValue>,
}

impl Table {
    /// Creates a table for the named experiment with the given columns.
    pub fn new(experiment: &str, columns: &[&str]) -> Self {
        Self {
            experiment: experiment.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; `values` must match the column count and order.
    ///
    /// # Panics
    /// Panics if the value count differs from the column count — an
    /// experiment bug worth failing loudly on.
    pub fn row<const N: usize>(&mut self, values: [JsonValue; N]) {
        assert_eq!(
            N,
            self.columns.len(),
            "{}: row has {N} values for {} columns",
            self.experiment,
            self.columns.len()
        );
        let fields = self.columns.iter().cloned().zip(values).collect::<Vec<_>>();
        self.rows.push(JsonValue::Obj(fields));
    }

    /// Number of rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Writes `EXPT_<experiment>.json` into `SLB_BENCH_JSON_DIR` if the hook
    /// is enabled; a no-op otherwise. Errors are reported to stderr, never
    /// fatal — JSON emission must not fail an experiment run.
    pub fn emit(&self) {
        let Some(dir) = json_dir() else {
            return;
        };
        let document = JsonValue::Obj(vec![
            (
                "experiment".to_string(),
                JsonValue::Str(self.experiment.clone()),
            ),
            (
                "columns".to_string(),
                JsonValue::Arr(
                    self.columns
                        .iter()
                        .map(|c| JsonValue::Str(c.clone()))
                        .collect(),
                ),
            ),
            ("rows".to_string(), JsonValue::Arr(self.rows.clone())),
        ]);
        let path = dir.join(format!("EXPT_{}.json", self.experiment));
        let mut body = document.render();
        body.push('\n');
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_as_compact_json() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::from(true).render(), "true");
        assert_eq!(JsonValue::from(42u64).render(), "42");
        assert_eq!(JsonValue::from(1.5).render(), "1.5");
        assert_eq!(JsonValue::F64(f64::NAN).render(), "null");
        assert_eq!(JsonValue::from("a\"b\n").render(), "\"a\\\"b\\n\"");
        assert_eq!(
            JsonValue::Arr(vec![1u64.into(), "x".into()]).render(),
            "[1,\"x\"]"
        );
        assert_eq!(JsonValue::from(None::<u64>).render(), "null");
        assert_eq!(JsonValue::from(Some(3u64)).render(), "3");
    }

    #[test]
    fn u64_precision_is_not_squeezed_through_f64() {
        let big = u64::MAX - 1;
        assert_eq!(JsonValue::from(big).render(), big.to_string());
    }

    #[test]
    fn table_rows_become_column_keyed_objects() {
        let mut table = Table::new("unit", &["scheme", "imbalance"]);
        table.row(["PKG".into(), 0.25.into()]);
        assert_eq!(table.len(), 1);
        assert_eq!(
            table.rows[0].render(),
            "{\"scheme\":\"PKG\",\"imbalance\":0.25}"
        );
    }

    #[test]
    #[should_panic(expected = "row has 1 values for 2 columns")]
    fn mismatched_row_width_panics() {
        let mut table = Table::new("unit", &["a", "b"]);
        table.row(["only".into()]);
    }

    #[test]
    fn emit_writes_the_document_when_the_hook_is_set() {
        let dir = std::env::temp_dir().join(format!("slb-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Env mutation is process-global: this test is the only one in the
        // crate touching SLB_BENCH_JSON_DIR.
        std::env::set_var("SLB_BENCH_JSON_DIR", &dir);
        let mut table = Table::new("unit_emit", &["x"]);
        table.row([7u64.into()]);
        table.emit();
        std::env::remove_var("SLB_BENCH_JSON_DIR");
        let body = std::fs::read_to_string(dir.join("EXPT_unit_emit.json")).unwrap();
        assert_eq!(
            body,
            "{\"experiment\":\"unit_emit\",\"columns\":[\"x\"],\"rows\":[{\"x\":7}]}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
