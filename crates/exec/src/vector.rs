//! Column vectors: the still-compressed, per-column representation the
//! executor's kernels operate on.
//!
//! A [`ColumnVector`] is built from one column's encoded section of one leaf
//! page (see `cadb_compression::page::column_sections`) by the page codec's
//! one block parser, `cadb_compression::decode_column`, **without expanding
//! runs or dictionary codes**: an RLE column becomes a list of
//! `(run_len, value)` pairs with each run's value decoded exactly once, and
//! a dictionary column (PAGE's page-local dictionary or the index-wide
//! global dictionary) becomes decoded dictionary entries plus one small code
//! per row. This module knows those shapes, not the codecs' byte layouts.
//! Kernels then pay decode and predicate cost **per distinct value**, not
//! per row:
//!
//! * [`ColumnVector::filter`] evaluates a predicate once per run / per
//!   dictionary entry and fans the verdict out to rows through the run
//!   lengths / codes;
//! * [`ColumnVector::gather`] clones from the single decoded value of a run
//!   or dictionary slot instead of re-decoding per row;
//! * the aggregate kernels in [`crate::scan`] collapse `SUM` over a run to
//!   `run_len × value`.
//!
//! NULLs live in the page's per-column bitmap and never enter the encoded
//! blocks, so every kernel walks rows with a cursor over the non-null value
//! stream; a NULL row fails every predicate (SQL three-valued logic) and
//! gathers as [`Value::Null`].

use cadb_common::{DataType, Result, Value};
use cadb_compression::bytesrepr::value_from_bytes;
use cadb_compression::{decode_column, ColumnData, ColumnSection, PageContext};
use cadb_engine::Predicate;

/// The physical shape of one column of one page, decoded only as far as its
/// compression structure allows without expanding: one `Value` per non-null
/// row (NS / plain columns — nothing to short-circuit on), RLE runs, or
/// dictionary entries (PAGE's page-local dictionary plus its inline
/// literals, or the index-wide GDICT entries the page uses) with one code
/// per non-null row.
pub type VectorData = ColumnData<Value>;

/// One column of one leaf page in vector form.
#[derive(Debug, Clone)]
pub struct ColumnVector {
    n_rows: usize,
    /// Null bitmap (bit set = NULL), one bit per row.
    nulls: Vec<u8>,
    data: VectorData,
}

impl ColumnVector {
    /// Build the vector for one column section of a page: one
    /// `value_from_bytes` per plain value, run or dictionary entry.
    ///
    /// `col` is the column's ordinal within the page (needed to pick the
    /// global dictionary when the section is GDICT-encoded).
    pub fn from_section(
        sec: &ColumnSection<'_>,
        dtype: &DataType,
        ctx: &PageContext<'_>,
        col: usize,
        n_rows: usize,
    ) -> Result<Self> {
        let n = sec.n_non_null(n_rows);
        let to_value = |b: Vec<u8>| value_from_bytes(&b, dtype);
        let data = decode_column(sec.block, sec.tag, dtype, ctx, col, n, 0..n, to_value)?;
        // `decode_column` returned exactly one position per non-null row.
        Ok(ColumnVector {
            n_rows,
            nulls: sec.bitmap.to_vec(),
            data,
        })
    }

    /// Rows in the page this vector covers.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// `true` when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls[i / 8] & (1 << (i % 8)) != 0
    }

    /// The underlying vector data.
    pub fn data(&self) -> &VectorData {
        &self.data
    }

    /// Upper bound on the predicate evaluations [`Self::filter`] can
    /// perform: one per run or dictionary entry, one per value on plain
    /// columns. The compressed-path short-circuit is exactly this number
    /// being smaller than the row count.
    pub fn filter_cost(&self) -> usize {
        match &self.data {
            VectorData::Plain(v) => v.len(),
            VectorData::Runs(runs) => runs.len(),
            VectorData::Dict { entries, .. } => entries.len(),
        }
    }

    /// AND the predicate's verdict into the selection vector: after the
    /// call, `sel[i]` holds only where it held before **and** row `i`
    /// matches. NULL rows never match. Returns the number of predicate
    /// evaluations actually performed — verdicts are computed lazily, at
    /// most once per run / per dictionary entry (never more than
    /// [`Self::filter_cost`]), and only when a still-selected row needs
    /// one; plain columns evaluate once per still-selected non-null row.
    pub fn filter(&self, pred: &Predicate, sel: &mut [bool]) -> usize {
        debug_assert_eq!(sel.len(), self.n_rows);
        let mut evals = 0usize;
        match &self.data {
            VectorData::Plain(vals) => {
                let mut cursor = 0usize;
                for (i, s) in sel.iter_mut().enumerate() {
                    if self.is_null(i) {
                        *s = false;
                    } else {
                        // Plain columns evaluate per value; they have no
                        // compression structure to share verdicts over.
                        if *s {
                            evals += 1;
                            if !pred.matches_value(&vals[cursor]) {
                                *s = false;
                            }
                        }
                        cursor += 1;
                    }
                }
            }
            VectorData::Runs(runs) => {
                let mut run_iter = runs.iter();
                // (rows left in the current run, its verdict — computed on
                // the first still-selected row that needs it).
                let mut current: Option<(usize, &Value, Option<bool>)> = None;
                for (i, s) in sel.iter_mut().enumerate() {
                    if self.is_null(i) {
                        *s = false;
                        continue;
                    }
                    loop {
                        match &mut current {
                            Some((left, _, _)) if *left > 0 => break,
                            _ => {
                                let (len, val) = run_iter.next().expect("bitmap/run mismatch");
                                current = Some((*len, val, None));
                            }
                        }
                    }
                    let (left, val, verdict) = current.as_mut().expect("set above");
                    *left -= 1;
                    if *s {
                        let v = *verdict.get_or_insert_with(|| {
                            evals += 1;
                            pred.matches_value(val)
                        });
                        if !v {
                            *s = false;
                        }
                    }
                }
            }
            VectorData::Dict { entries, codes } => {
                let mut verdicts: Vec<Option<bool>> = vec![None; entries.len()];
                let mut cursor = 0usize;
                for (i, s) in sel.iter_mut().enumerate() {
                    if self.is_null(i) {
                        *s = false;
                    } else {
                        if *s {
                            let code = codes[cursor] as usize;
                            let v = *verdicts[code].get_or_insert_with(|| {
                                evals += 1;
                                pred.matches_value(&entries[code])
                            });
                            if !v {
                                *s = false;
                            }
                        }
                        cursor += 1;
                    }
                }
            }
        }
        evals
    }

    /// Values of the selected rows, in row order (`Value::Null` for a
    /// selected NULL row). Clones from the per-run / per-dictionary decoded
    /// value — no re-decoding.
    pub fn gather(&self, sel: &[bool]) -> Vec<Value> {
        debug_assert_eq!(sel.len(), self.n_rows);
        let mut out = Vec::new();
        self.for_each_value(|i, v| {
            if sel[i] {
                out.push(v.cloned().unwrap_or(Value::Null));
            }
        });
        out
    }

    /// All `n_rows` values, NULLs included — the decompress-everything form.
    pub fn materialize(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.n_rows);
        self.for_each_value(|_, v| out.push(v.cloned().unwrap_or(Value::Null)));
        out
    }

    /// Walk rows in order, handing `(row_index, Some(&value) | None-for-NULL)`
    /// to `f`.
    fn for_each_value<'a>(&'a self, mut f: impl FnMut(usize, Option<&'a Value>)) {
        match &self.data {
            VectorData::Plain(vals) => {
                let mut cursor = 0usize;
                for i in 0..self.n_rows {
                    if self.is_null(i) {
                        f(i, None);
                    } else {
                        f(i, Some(&vals[cursor]));
                        cursor += 1;
                    }
                }
            }
            VectorData::Runs(runs) => {
                let mut run_iter = runs.iter();
                let mut current: Option<(usize, &Value)> = None;
                for i in 0..self.n_rows {
                    if self.is_null(i) {
                        f(i, None);
                        continue;
                    }
                    let (left, val) = loop {
                        match current {
                            Some((left, v)) if left > 0 => break (left, v),
                            _ => {
                                let (len, v) = run_iter.next().expect("bitmap/run mismatch");
                                current = Some((*len, v));
                            }
                        }
                    };
                    current = Some((left - 1, val));
                    f(i, Some(val));
                }
            }
            VectorData::Dict { entries, codes } => {
                let mut cursor = 0usize;
                for i in 0..self.n_rows {
                    if self.is_null(i) {
                        f(i, None);
                    } else {
                        f(i, Some(&entries[codes[cursor] as usize]));
                        cursor += 1;
                    }
                }
            }
        }
    }

    /// Integer aggregate of the selected rows in one pass: returns
    /// `(count, sum, min, max)` over the non-null **integer** values of
    /// selected rows (string values contribute nothing, mirroring SQL's
    /// numeric aggregates over our executor's semantics).
    ///
    /// With `sel == None` (no predicates — every row selected) the kernel
    /// short-circuits: a run contributes `run_len × value` to the sum with
    /// one multiplication, and dictionary columns aggregate per-code counts
    /// instead of touching rows. Sums use `i128`, so the result is exact
    /// and independent of accumulation order — which is what lets the
    /// compressed path and the row-at-a-time reference agree bit for bit.
    pub fn aggregate_ints(&self, sel: Option<&[bool]>) -> IntAggregate {
        let mut agg = IntAggregate::default();
        match (sel, &self.data) {
            (None, VectorData::Runs(runs)) => {
                for (len, v) in runs {
                    if let Value::Int(x) = v {
                        agg.add_repeated(*x, *len as u64);
                    }
                }
            }
            (None, VectorData::Dict { entries, codes }) => {
                let mut counts = vec![0u64; entries.len()];
                for c in codes {
                    counts[*c as usize] += 1;
                }
                for (v, n) in entries.iter().zip(counts) {
                    if let (Value::Int(x), true) = (v, n > 0) {
                        agg.add_repeated(*x, n);
                    }
                }
            }
            _ => {
                self.for_each_value(|i, v| {
                    if sel.map(|s| s[i]).unwrap_or(true) {
                        if let Some(Value::Int(x)) = v {
                            agg.add_repeated(*x, 1);
                        }
                    }
                });
            }
        }
        agg
    }
}

/// Exact integer aggregate state: count / sum / min / max of `i64` values,
/// accumulated in `i128` so the result never depends on evaluation order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntAggregate {
    /// Values aggregated (NULLs and strings excluded).
    pub count: u64,
    /// Exact sum.
    pub sum: i128,
    /// Minimum, when any value was seen.
    pub min: Option<i64>,
    /// Maximum, when any value was seen.
    pub max: Option<i64>,
}

impl IntAggregate {
    /// Fold `n` copies of `x` in (the run shortcut).
    pub fn add_repeated(&mut self, x: i64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += x as i128 * n as i128;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Merge another partial aggregate (leaf partials combine in leaf
    /// order; exactness makes the order irrelevant anyway).
    pub fn merge(&mut self, other: &IntAggregate) {
        self.count += other.count;
        self.sum += other.sum;
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |x| x.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |x| x.max(m)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadb_common::Row;
    use cadb_common::{ColumnId, TableId};
    use cadb_compression::analyze::build_dictionaries;
    use cadb_compression::page::{column_sections, encode_page};
    use cadb_compression::CompressionKind;
    use cadb_engine::{PredOp, Predicate};

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i / 10) as i64),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("tag{}", i % 3))
                    },
                ])
            })
            .collect()
    }

    fn vectors(kind: CompressionKind) -> (Vec<ColumnVector>, Vec<Row>) {
        let dtypes = vec![DataType::Int, DataType::Char { len: 8 }];
        let rs = rows(100);
        let dicts = build_dictionaries(&rs, &dtypes);
        let ctx = PageContext {
            dtypes: &dtypes,
            kind,
            global_dicts: Some(&dicts),
        };
        let page = encode_page(&rs, &ctx).unwrap();
        let (n, sections) = column_sections(&page.bytes).unwrap();
        let vecs = sections
            .iter()
            .enumerate()
            .map(|(c, s)| ColumnVector::from_section(s, &dtypes[c], &ctx, c, n).unwrap())
            .collect();
        (vecs, rs)
    }

    #[test]
    fn materialize_round_trips_every_kind() {
        for kind in [CompressionKind::None, CompressionKind::Row]
            .into_iter()
            .chain(CompressionKind::ALL_COMPRESSED)
        {
            let (vecs, rs) = vectors(kind);
            for (c, v) in vecs.iter().enumerate() {
                let col: Vec<Value> = rs.iter().map(|r| r.values[c].clone()).collect();
                assert_eq!(v.materialize(), col, "{kind} col {c}");
            }
        }
    }

    #[test]
    fn rle_and_dict_shortcircuit_filter_cost() {
        let (vecs, _) = vectors(CompressionKind::Rle);
        // Column 0 has 10 runs of 10 — far fewer predicate evals than rows.
        assert!(matches!(vecs[0].data(), VectorData::Runs(_)));
        assert_eq!(vecs[0].filter_cost(), 10);

        let (vecs, _) = vectors(CompressionKind::Page);
        // Column 1 has 3 distinct strings (plus literals at worst).
        assert!(matches!(vecs[1].data(), VectorData::Dict { .. }));
        assert!(vecs[1].filter_cost() <= 6, "{}", vecs[1].filter_cost());
    }

    #[test]
    fn filter_matches_row_at_a_time_for_every_kind() {
        let pred_int = Predicate {
            table: TableId(0),
            column: ColumnId(0),
            op: PredOp::Between,
            values: vec![Value::Int(2), Value::Int(6)],
        };
        let pred_str = Predicate::eq(TableId(0), ColumnId(1), Value::Str("tag1".into()));
        for kind in [CompressionKind::None, CompressionKind::Row]
            .into_iter()
            .chain(CompressionKind::ALL_COMPRESSED)
        {
            let (vecs, rs) = vectors(kind);
            let mut sel = vec![true; rs.len()];
            vecs[0].filter(&pred_int, &mut sel);
            vecs[1].filter(&pred_str, &mut sel);
            let expect: Vec<bool> = rs
                .iter()
                .map(|r| {
                    pred_int.matches_value(&r.values[0]) && pred_str.matches_value(&r.values[1])
                })
                .collect();
            assert_eq!(sel, expect, "{kind}");
            // Gather returns exactly the selected rows' values.
            let gathered = vecs[0].gather(&sel);
            let expect_vals: Vec<Value> = rs
                .iter()
                .zip(&expect)
                .filter(|(_, s)| **s)
                .map(|(r, _)| r.values[0].clone())
                .collect();
            assert_eq!(gathered, expect_vals, "{kind}");
        }
    }

    #[test]
    fn aggregate_shortcut_equals_row_loop() {
        for kind in CompressionKind::ALL_COMPRESSED {
            let (vecs, rs) = vectors(kind);
            let fast = vecs[0].aggregate_ints(None);
            let mut slow = IntAggregate::default();
            for r in &rs {
                if let Value::Int(x) = &r.values[0] {
                    slow.add_repeated(*x, 1);
                }
            }
            assert_eq!(fast, slow, "{kind}");
            // Selected subset agrees too.
            let sel: Vec<bool> = (0..rs.len()).map(|i| i % 2 == 0).collect();
            let sub = vecs[0].aggregate_ints(Some(&sel));
            let mut expect = IntAggregate::default();
            for (r, s) in rs.iter().zip(&sel) {
                if *s {
                    if let Value::Int(x) = &r.values[0] {
                        expect.add_repeated(*x, 1);
                    }
                }
            }
            assert_eq!(sub, expect, "{kind} selected");
        }
    }

    #[test]
    fn nulls_never_match_and_gather_as_null() {
        let (vecs, rs) = vectors(CompressionKind::Row);
        let pred = Predicate {
            table: TableId(0),
            column: ColumnId(1),
            op: PredOp::Neq,
            values: vec![Value::Str("zzz".into())],
        };
        let mut sel = vec![true; rs.len()];
        vecs[1].filter(&pred, &mut sel);
        for (i, r) in rs.iter().enumerate() {
            if r.values[1].is_null() {
                assert!(!sel[i], "NULL row {i} must not match <>");
            }
        }
        // Gathering with an all-true selection surfaces NULLs as NULL.
        let all = vec![true; rs.len()];
        let vals = vecs[1].gather(&all);
        assert_eq!(vals[0], Value::Null);
    }
}
