//! Multi-attribute tables with per-attribute bitmap indexes.

use std::collections::HashMap;

use bindex_core::design::constrained::time_opt_heur;
use bindex_core::design::knee::knee;
use bindex_core::design::space_opt::{max_components, space_optimal};
use bindex_core::design::time_opt::time_optimal;
use bindex_core::error::{Error, Result};
use bindex_core::{BitmapIndex, Encoding, IndexSpec};
use bindex_relation::Column;

/// How (and whether) to index an attribute — the paper's design points as
/// a physical-design menu.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexChoice {
    /// No index: predicates on this attribute force a scan or a filter.
    None,
    /// Single-component equality-encoded index (Figure 1).
    ValueList,
    /// The knee of the space–time tradeoff (Theorem 7.1), range encoded.
    Knee,
    /// Space-optimal index (Theorem 6.1), range encoded.
    SpaceOptimal,
    /// Time-optimal index `<C>`, range encoded.
    TimeOptimal,
    /// Best index within a bitmap budget (`TimeOptHeur`), range encoded.
    SpaceBudget(u64),
    /// An explicit layout.
    Custom(IndexSpec),
}

impl IndexChoice {
    /// Resolves the choice to a concrete layout for cardinality `c`.
    /// `None` resolves to `Ok(None)`.
    pub fn resolve(&self, c: u32) -> Result<Option<IndexSpec>> {
        let spec = match self {
            IndexChoice::None => return Ok(None),
            IndexChoice::ValueList => IndexSpec::value_list(c)?,
            IndexChoice::Knee => IndexSpec::new(knee(c)?, Encoding::Range),
            IndexChoice::SpaceOptimal => {
                IndexSpec::new(space_optimal(c, max_components(c))?, Encoding::Range)
            }
            IndexChoice::TimeOptimal => IndexSpec::new(time_optimal(c, 1)?, Encoding::Range),
            IndexChoice::SpaceBudget(m) => IndexSpec::new(time_opt_heur(c, *m)?, Encoding::Range),
            IndexChoice::Custom(spec) => spec.clone(),
        };
        Ok(Some(spec))
    }
}

struct Attribute {
    column: Column,
    index: Option<BitmapIndex>,
}

/// A read-mostly fact table: named columns, each optionally covered by a
/// bitmap index.
pub struct Table {
    n_rows: usize,
    attrs: Vec<Attribute>,
    by_name: HashMap<String, usize>,
}

/// Builder for [`Table`]; all columns must have the same row count.
#[derive(Default)]
pub struct TableBuilder {
    pending: Vec<(String, Column, IndexChoice)>,
}

impl TableBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a column with an indexing choice.
    pub fn column(mut self, name: &str, column: Column, choice: IndexChoice) -> Self {
        self.pending.push((name.to_string(), column, choice));
        self
    }

    /// Builds the table (constructing all requested indexes).
    pub fn build(self) -> Result<Table> {
        if self.pending.is_empty() {
            return Err(Error::Infeasible("table needs at least one column".into()));
        }
        let n_rows = self.pending[0].1.len();
        let mut attrs = Vec::with_capacity(self.pending.len());
        let mut by_name = HashMap::new();
        for (name, column, choice) in self.pending {
            if column.len() != n_rows {
                return Err(Error::CorruptIndex(format!(
                    "column {name} has {} rows, table has {n_rows}",
                    column.len()
                )));
            }
            if by_name.contains_key(&name) {
                return Err(Error::Infeasible(format!("duplicate column name {name}")));
            }
            let index = match choice.resolve(column.cardinality())? {
                Some(spec) => Some(BitmapIndex::build(&column, spec)?),
                None => None,
            };
            by_name.insert(name, attrs.len());
            attrs.push(Attribute { column, index });
        }
        Ok(Table {
            n_rows,
            attrs,
            by_name,
        })
    }
}

impl Table {
    /// Starts building a table.
    pub fn builder() -> TableBuilder {
        TableBuilder::new()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Column of an attribute.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.attrs[self.attr_index(name)?].column)
    }

    /// Bitmap index of an attribute, if one was built.
    pub fn index(&self, name: &str) -> Result<Option<&BitmapIndex>> {
        Ok(self.attrs[self.attr_index(name)?].index.as_ref())
    }

    /// Total stored bitmap bytes across all indexes (uncompressed).
    pub fn index_bytes(&self) -> usize {
        self.attrs
            .iter()
            .filter_map(|a| a.index.as_ref())
            .map(BitmapIndex::size_bytes)
            .sum()
    }

    /// Width of one row in bytes under the paper's 4-byte-value model.
    pub fn row_bytes(&self) -> usize {
        4 * self.attrs.len()
    }

    pub(crate) fn attr_index(&self, name: &str) -> Result<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::Infeasible(format!("no column named {name}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bindex_core::Base;
    use bindex_relation::gen;

    #[test]
    fn builder_and_accessors() {
        let t = Table::builder()
            .column("a", gen::uniform(100, 10, 1), IndexChoice::Knee)
            .column("b", gen::uniform(100, 50, 2), IndexChoice::ValueList)
            .column("c", gen::uniform(100, 5, 3), IndexChoice::None)
            .build()
            .unwrap();
        assert_eq!(t.n_rows(), 100);
        assert_eq!(t.n_attrs(), 3);
        assert_eq!(t.row_bytes(), 12);
        assert!(t.index("a").unwrap().is_some());
        assert!(t.index("c").unwrap().is_none());
        assert_eq!(t.index("b").unwrap().unwrap().stored_bitmaps(), 50);
        assert!(t.index("missing").is_err());
        assert!(t.index_bytes() > 0);
    }

    #[test]
    fn rejects_mismatched_rows_and_duplicates() {
        let r = Table::builder()
            .column("a", gen::uniform(100, 10, 1), IndexChoice::None)
            .column("b", gen::uniform(99, 10, 1), IndexChoice::None)
            .build();
        assert!(r.is_err());
        let r = Table::builder()
            .column("a", gen::uniform(10, 5, 1), IndexChoice::None)
            .column("a", gen::uniform(10, 5, 1), IndexChoice::None)
            .build();
        assert!(r.is_err());
        assert!(Table::builder().build().is_err());
    }

    #[test]
    fn index_choices_resolve_to_expected_shapes() {
        let c = 100u32;
        assert_eq!(
            IndexChoice::ValueList
                .resolve(c)
                .unwrap()
                .unwrap()
                .stored_bitmaps(),
            100
        );
        assert_eq!(
            IndexChoice::Knee
                .resolve(c)
                .unwrap()
                .unwrap()
                .base
                .to_msb_vec(),
            vec![10, 10]
        );
        assert_eq!(
            IndexChoice::SpaceOptimal
                .resolve(c)
                .unwrap()
                .unwrap()
                .stored_bitmaps(),
            7
        );
        assert_eq!(
            IndexChoice::TimeOptimal
                .resolve(c)
                .unwrap()
                .unwrap()
                .base
                .to_msb_vec(),
            vec![100]
        );
        let budget = IndexChoice::SpaceBudget(20).resolve(c).unwrap().unwrap();
        assert!(budget.stored_bitmaps() <= 20);
        assert!(IndexChoice::None.resolve(c).unwrap().is_none());
        let custom = IndexChoice::Custom(IndexSpec::new(
            Base::from_msb(&[4, 5, 5]).unwrap(),
            Encoding::Range,
        ));
        assert_eq!(custom.resolve(c).unwrap().unwrap().stored_bitmaps(), 11);
    }
}
