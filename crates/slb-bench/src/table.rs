//! One table path: every experiment table is printed and mirrored to JSON
//! from the same row of cells.
//!
//! A [`Column`] is a name, a width and a [`Format`]; the name is both the
//! printed header and the JSON key. [`Table::new`] prints the header,
//! [`Table::row`] prints one aligned line and records the same cells, and
//! [`Table::emit`] writes the recorded rows to `<dir>/EXPT_<table>.json`:
//!
//! ```json
//! {"experiment": "fig04_d_fraction","columns": ["skew","workers","d","fraction"],
//! "rows": [{"skew": 0.1,"workers": 5,"d": 2,"fraction": 0.4}]}
//! ```
//!
//! A printed cell is the recorded value at the column's precision, so the
//! two views never disagree on a unit.

use std::path::Path;

use slb_benchmark::json::Value;

/// How a column prints its cells: text left-aligned, numbers right-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Text,
    Integer,
    /// Fixed-point with this many decimals.
    Fixed(usize),
    /// Scientific notation with three significant digits, the easiest form
    /// to compare against the paper's log-scale plots.
    Sci,
}

/// One column of a table.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    name: &'static str,
    width: usize,
    format: Format,
}

impl Column {
    /// A column at least `width` characters wide (and never narrower than
    /// its name).
    pub fn new(name: &'static str, width: usize, format: Format) -> Self {
        Self {
            name,
            width: width.max(name.chars().count()),
            format,
        }
    }

    fn render(&self, value: &Value) -> String {
        let cell = match (self.format, value) {
            (Format::Integer, Value::Num(n)) => format!("{}", *n as i64),
            (Format::Fixed(d), Value::Num(n)) => format!("{n:.d$}"),
            (Format::Sci, Value::Num(n)) => format!("{n:.3e}"),
            (_, Value::Str(s)) => s.clone(),
            (_, other) => other.to_string(),
        };
        self.align(&cell)
    }

    fn align(&self, cell: &str) -> String {
        let w = self.width;
        match self.format {
            Format::Text => format!("{cell:<w$}"),
            _ => format!("{cell:>w$}"),
        }
    }
}

/// A text column.
pub fn text(name: &'static str, width: usize) -> Column {
    Column::new(name, width, Format::Text)
}

/// An integer column.
pub fn int(name: &'static str, width: usize) -> Column {
    Column::new(name, width, Format::Integer)
}

/// A fixed-point column with `decimals` decimals.
pub fn fixed(name: &'static str, width: usize, decimals: usize) -> Column {
    Column::new(name, width, Format::Fixed(decimals))
}

/// A scientific-notation column.
pub fn sci(name: &'static str, width: usize) -> Column {
    Column::new(name, width, Format::Sci)
}

/// A value a table cell can hold. A non-finite number is recorded as JSON
/// `null` and prints as Rust formats it (`NaN`).
pub trait Cell {
    fn value(&self) -> Value;
}

impl Cell for str {
    fn value(&self) -> Value {
        Value::str(self)
    }
}

impl Cell for String {
    fn value(&self) -> Value {
        Value::str(self.as_str())
    }
}

macro_rules! numeric_cell {
    ($($t:ty),*) => {$(
        impl Cell for $t {
            fn value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
    )*};
}
numeric_cell!(f64, u64, usize);

impl<T: Cell + ?Sized> Cell for &T {
    fn value(&self) -> Value {
        (**self).value()
    }
}

/// A named experiment table, printed as it fills and emitted once full.
pub struct Table {
    name: &'static str,
    columns: Vec<Column>,
    rows: Vec<Value>,
}

impl Table {
    /// Prints the header line and starts an empty table.
    pub fn new(name: &'static str, columns: &[Column]) -> Self {
        let table = Self {
            name,
            columns: columns.to_vec(),
            rows: Vec::new(),
        };
        let header: Vec<String> = columns.iter().map(|c| c.align(c.name)).collect();
        println!("{}", header.join(" ").trim_end());
        table
    }

    /// Prints one aligned line and records the same cells as a JSON row.
    ///
    /// # Panics
    /// If the cell count differs from the column count — an experiment bug
    /// worth failing loudly on.
    pub fn row(&mut self, cells: &[&dyn Cell]) {
        let values: Vec<Value> = cells.iter().map(|c| c.value()).collect();
        println!("{}", self.line(&values));
        let keys = self.columns.iter().map(|c| c.name);
        self.rows.push(Value::obj(keys.zip(values)));
    }

    fn line(&self, values: &[Value]) -> String {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "{}: row has {} cells for {} columns",
            self.name,
            values.len(),
            self.columns.len()
        );
        let cells: Vec<String> = self
            .columns
            .iter()
            .zip(values)
            .map(|(c, v)| c.render(v))
            .collect();
        cells.join(" ").trim_end().to_string()
    }

    /// Writes `EXPT_<table>.json` into `dir`, if one is given. A failed
    /// write is reported on stderr, never fatal: JSON emission must not
    /// fail an experiment run.
    pub fn emit(&self, dir: Option<&Path>) {
        let Some(dir) = dir else {
            return;
        };
        let columns = self.columns.iter().map(|c| Value::str(c.name)).collect();
        let document = Value::obj([
            ("experiment", Value::str(self.name)),
            ("columns", Value::Arr(columns)),
            ("rows", Value::Arr(self.rows.clone())),
        ]);
        let path = dir.join(format!("EXPT_{}.json", self.name));
        if let Err(e) = std::fs::write(&path, format!("{document}\n")) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(cells: &[&dyn Cell]) -> Vec<Value> {
        cells.iter().map(|c| c.value()).collect()
    }

    #[test]
    fn each_format_prints_aligned_to_its_width() {
        assert_eq!(text("scheme", 8).render(&Value::str("PKG")), "PKG     ");
        assert_eq!(int("workers", 8).render(&Value::Num(50.0)), "      50");
        assert_eq!(fixed("skew", 6, 1).render(&Value::Num(1.44)), "   1.4");
        assert_eq!(fixed("share", 7, 3).render(&Value::Num(0.25)), "  0.250");
        assert_eq!(
            sci("imbalance", 10).render(&Value::Num(0.000123456)),
            "  1.235e-4"
        );
        assert_eq!(sci("imbalance", 9).render(&Value::Num(1.0)), "  1.000e0");
        assert_eq!(fixed("skew", 6, 1).render(&f64::NAN.value()), "   NaN");
        // A column is never narrower than its name.
        assert_eq!(int("windows", 3).render(&Value::Num(7.0)), "      7");
    }

    #[test]
    fn a_row_prints_its_cells_and_records_them_by_column_name() {
        let mut table = Table::new(
            "unit",
            &[text("scheme", 6), fixed("skew", 6, 1), int("d", 4)],
        );
        let line = table.line(&values(&[&"D-C", &2.0, &7u64]));
        assert_eq!(line, "D-C       2.0    7");
        table.row(&[&"D-C", &2.0, &7u64]);
        assert_eq!(
            table.rows[0].to_string(),
            r#"{"scheme": "D-C","skew": 2,"d": 7}"#
        );
    }

    #[test]
    #[should_panic(expected = "unit: row has 1 cells for 2 columns")]
    fn a_row_with_the_wrong_cell_count_panics() {
        let mut table = Table::new("unit", &[text("a", 1), int("b", 1)]);
        table.row(&[&"only"]);
    }

    #[test]
    fn emit_writes_the_document_into_the_directory_it_is_handed() {
        let dir = std::env::temp_dir().join(format!("slb-table-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut table = Table::new("unit_emit", &[text("scheme", 4), sci("imbalance", 10)]);
        table.row(&[&"PKG", &0.25]);
        table.row(&[&"SG", &f64::NAN]);
        table.emit(Some(&dir));
        let body = std::fs::read_to_string(dir.join("EXPT_unit_emit.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let document = Value::parse(&body).unwrap();
        assert_eq!(
            document.to_string(),
            concat!(
                r#"{"experiment": "unit_emit","columns": ["scheme","imbalance"],"#,
                r#""rows": [{"scheme": "PKG","imbalance": 0.25},{"scheme": "SG","imbalance": null}]}"#
            )
        );
        // No directory, no file: the hook is off.
        table.emit(None);
    }
}
