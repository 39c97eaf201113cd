//! Whole-query execution over a materialized configuration.
//!
//! [`ExecMode::Compressed`] runs **planned**: the access-path planner
//! ([`crate::planner`]) picks, per table, the cheapest structure the
//! configuration holds — base scan, covering secondary index (seeking on a
//! pushed-down key range), or a whole-query MV index — and the vector
//! kernels execute over it. [`ExecMode::ForcedBase`] runs the same kernels
//! but reads every table as a full base-structure scan (the differential
//! baseline), and [`ExecMode::Reference`] decompresses base pages and
//! operates row at a time (the oracle). The three are **bit-identical by
//! contract**: a secondary-index scan restores base row order through its
//! stored locators before anything order-sensitive happens, an MV path
//! reproduces the grouped output the base pipeline computes (exact integer
//! arithmetic at this workspace's scales), and `tests/plan_equivalence.rs`
//! pins the three-way identity on TPC-H + TPC-DS.
//!
//! Downstream of the scans, all modes share one pipeline (hash join in
//! join-edge order, grouped aggregation, output sort) with the same
//! semantics as `cadb_engine::exec::execute`, so the executor can be
//! cross-checked against the engine's row-store executor.
//!
//! Single-table scalar aggregations over plain columns take the vectorized
//! fast path ([`crate::scan::scan_aggregate`]): exact `i128` arithmetic
//! that collapses RLE runs and dictionary codes without expanding rows —
//! on the planned path, over the chosen index's leaf range instead of the
//! whole base. (Exactness is the one sanctioned deviation from the engine
//! executor's `f64` accumulation: the two agree unless a sum's magnitude
//! exceeds 2^53 — far beyond this workspace's scales — and where they
//! differ the exact path is the correct one.)

use crate::measured::MaterializedConfig;
use crate::planner::{plan_query, PathKind, QueryPlan, TablePath};
use crate::scan::{
    scan_aggregate_range, scan_filter, scan_filter_range, BoundPredicate, ExecMode, ExecStats,
};
use cadb_common::{CadbError, Parallelism, Result, Row, TableId, Value};
use cadb_engine::exec::finish_query;
use cadb_engine::stmt::{Query, ScalarExpr};
use cadb_engine::{IndexSpec, KeyRange};
use cadb_sampling::index_rows::mv_layout_order;
use cadb_sql::AggFunc;
use std::collections::HashMap;

/// Execute a query under a materialized configuration. Returns the output
/// rows (same shape as `cadb_engine::exec::execute`: group-by columns then
/// aggregates, or the used columns of each table in table order) and the
/// scan counters.
pub fn execute_query(
    mat: &MaterializedConfig,
    q: &Query,
    par: Parallelism,
    mode: ExecMode,
) -> Result<(Vec<Row>, ExecStats)> {
    match mode {
        ExecMode::Compressed => {
            let plan = plan_query(mat, q)?;
            execute_planned(mat, q, &plan, par)
        }
        ExecMode::ForcedBase | ExecMode::Reference => execute_base(mat, q, par, mode),
    }
}

/// The forced-base pipeline: every table read by a full filtered scan of
/// its base structure (compressed kernels or row-at-a-time decode,
/// depending on `mode`).
fn execute_base(
    mat: &MaterializedConfig,
    q: &Query,
    par: Parallelism,
    mode: ExecMode,
) -> Result<(Vec<Row>, ExecStats)> {
    if let Some(out) = try_scalar_fast_path(mat, q, None, par, mode)? {
        return Ok(out);
    }
    let mut streams: HashMap<TableId, Vec<Row>> = HashMap::new();
    let mut stats = ExecStats::default();
    for t in q.tables() {
        let base = mat.base(t)?;
        let preds = base_bound_predicates(q, t);
        let (rows, s) = scan_filter(base, &preds, par, mode)?;
        stats.merge(&s);
        streams.insert(t, rows);
    }
    Ok((finish_query(q, &streams), stats))
}

/// Execute an already-computed plan (exposed so the actuals harness and
/// the differential suites can plan once and execute many times).
pub fn execute_planned(
    mat: &MaterializedConfig,
    q: &Query,
    plan: &QueryPlan,
    par: Parallelism,
) -> Result<(Vec<Row>, ExecStats)> {
    if let Some(mv) = &plan.mv {
        return execute_mv_path(mat, q, mv, par);
    }
    if let Some(out) = try_scalar_fast_path(mat, q, Some(plan), par, ExecMode::Compressed)? {
        return Ok(out);
    }
    let mut streams: HashMap<TableId, Vec<Row>> = HashMap::new();
    let mut stats = ExecStats::default();
    for path in &plan.tables {
        let t = path.table;
        let (rows, s) = match (path.kind, &path.index) {
            (PathKind::BaseScan, _) => {
                let preds = base_bound_predicates(q, t);
                scan_filter(mat.base(t)?, &preds, par, ExecMode::Compressed)?
            }
            (PathKind::IndexScan | PathKind::IndexSeek, Some(spec)) => index_table_scan(
                mat,
                q,
                t,
                spec,
                path.key_range.as_ref(),
                par,
                ExecMode::Compressed,
            )?,
            _ => return Err(not_executable(path)),
        };
        stats.merge(&s);
        streams.insert(t, rows);
    }
    Ok((finish_query(q, &streams), stats))
}

/// A path the materialized view cannot run — a what-if plan with bookmark
/// lookups, an MV path among the table paths, a path without its structure
/// — reached the executor in a hand-built or stale plan.
fn not_executable(path: &TablePath) -> CadbError {
    CadbError::InvalidArgument(format!(
        "the compressed executor cannot run {:?} path `{}`",
        path.kind,
        path.describe()
    ))
}

/// The query's predicates on `t`, bound to base-structure ordinals (the
/// base stores all table columns in table order).
fn base_bound_predicates(q: &Query, t: TableId) -> Vec<BoundPredicate> {
    q.predicates_on(t)
        .iter()
        .map(|p| BoundPredicate {
            col: p.column.raw(),
            pred: (*p).clone(),
        })
        .collect()
}

/// Scan a covering secondary index for one table and return rows **in the
/// table's base layout and base scan order**: predicates are rebound to
/// the index's stored ordinals, the (optional) key range seeks past
/// non-qualifying leaves, matched rows are put back into base order via
/// their stored locators, and stored columns land at their table ordinals
/// (uncovered columns stay NULL — the plan only chose this index because
/// it covers every column the query reads).
fn index_table_scan(
    mat: &MaterializedConfig,
    q: &Query,
    t: TableId,
    spec: &IndexSpec,
    range: Option<&KeyRange>,
    par: Parallelism,
    mode: ExecMode,
) -> Result<(Vec<Row>, ExecStats)> {
    let ix = mat.structure(spec).ok_or_else(|| {
        CadbError::NotFound(format!("planned structure {spec} was not materialized"))
    })?;
    let stored = spec.stored_columns();
    let locator_pos = stored.len(); // appended by the index build
    let index_pos = |c: cadb_common::ColumnId| -> Result<usize> {
        stored.iter().position(|s| *s == c).ok_or_else(|| {
            CadbError::InvalidArgument(format!("column {c} not stored by planned index {spec}"))
        })
    };
    let mut preds = Vec::new();
    for p in q.predicates_on(t) {
        preds.push(BoundPredicate {
            col: index_pos(p.column)?,
            pred: (*p).clone(),
        });
    }
    // The key range is expressed over the index's leading key columns
    // already — usable as-is.
    let (mut rows, stats) = scan_filter_range(ix, &preds, range, par, mode)?;
    // Restore base scan order: locators are insertion ordinals; the base
    // permutation maps them to clustered positions when the base is sorted.
    rows.sort_by_key(|r| match &r.values[locator_pos] {
        Value::Int(o) => mat.base_position(t, *o as usize),
        _ => usize::MAX,
    });
    let arity = mat.base(t)?.dtypes().len();
    let remapped = rows
        .into_iter()
        .map(|mut r| {
            let mut vals = vec![Value::Null; arity];
            for (i, c) in stored.iter().enumerate() {
                vals[c.raw()] = std::mem::replace(&mut r.values[i], Value::Null);
            }
            Row::new(vals)
        })
        .collect();
    Ok((remapped, stats))
}

/// Answer a matching grouped query straight from an MV index: apply the
/// residual predicates (all on group-by columns, per the match), project
/// the stored group values / SUMs / COUNT(*) into the query's output
/// shape, and sort — exactly the grouped output `finish_query` computes
/// from base rows.
fn execute_mv_path(
    mat: &MaterializedConfig,
    q: &Query,
    path: &TablePath,
    par: Parallelism,
) -> Result<(Vec<Row>, ExecStats)> {
    let Some((spec, mv)) = path.index.as_ref().and_then(|s| Some((s, s.mv.as_ref()?))) else {
        return Err(not_executable(path));
    };
    let ix = mat.structure(spec).ok_or_else(|| {
        CadbError::NotFound(format!("planned MV structure {spec} was not materialized"))
    })?;
    let n_stored = mv.stored_columns();
    let order = mv_layout_order(spec, n_stored);
    let pos_of = |orig: usize| -> Result<usize> {
        order.iter().position(|&x| x == orig).ok_or_else(|| {
            CadbError::Storage(format!("MV layout ordinal {orig} missing from {spec}"))
        })
    };
    let mut preds = Vec::new();
    for p in &q.predicates {
        let orig = mv
            .group_by
            .iter()
            .position(|gc| *gc == (p.table, p.column))
            .ok_or_else(|| {
                CadbError::InvalidArgument(format!(
                    "MV residual predicate on non-grouped column {}.{}",
                    p.table, p.column
                ))
            })?;
        preds.push(BoundPredicate {
            col: pos_of(orig)?,
            pred: p.clone(),
        });
    }
    let (rows, stats) = scan_filter(ix, &preds, par, ExecMode::Compressed)?;
    // Resolve every output column's stored position once; the row loop
    // below must not search the layout permutation per value.
    let g = mv.group_by.len();
    let group_pos: Vec<usize> = (0..g).map(&pos_of).collect::<Result<Vec<_>>>()?;
    let mut agg_pos = Vec::with_capacity(q.aggregates.len());
    for a in &q.aggregates {
        let pos = match (&a.func, &a.expr) {
            (AggFunc::Count, None) => pos_of(g + mv.agg_columns.len())?,
            (AggFunc::Sum, Some(ScalarExpr::Column(t, c))) => {
                let k = mv
                    .agg_columns
                    .iter()
                    .position(|ac| *ac == (*t, *c))
                    .ok_or_else(|| {
                        CadbError::InvalidArgument(format!("MV does not store SUM({t}.{c})"))
                    })?;
                pos_of(g + k)?
            }
            _ => {
                return Err(CadbError::InvalidArgument(
                    "MV path planned for an aggregate it cannot answer".into(),
                ))
            }
        };
        agg_pos.push(pos);
    }
    let mut out = Vec::with_capacity(rows.len());
    for r in &rows {
        let vals = group_pos
            .iter()
            .chain(&agg_pos)
            .map(|&p| r.values[p].clone())
            .collect();
        out.push(Row::new(vals));
    }
    out.sort();
    Ok((out, stats))
}

/// The vectorized fast path: single table, no grouping, and every
/// aggregate either `COUNT(*)` or a bare column reference. On the planned
/// path (`plan` present) the pass runs over the chosen covering index and
/// its key range instead of the base structure. Returns `None` when the
/// query does not qualify.
fn try_scalar_fast_path(
    mat: &MaterializedConfig,
    q: &Query,
    plan: Option<&QueryPlan>,
    par: Parallelism,
    mode: ExecMode,
) -> Result<Option<(Vec<Row>, ExecStats)>> {
    if !q.joins.is_empty() || !q.group_by.is_empty() || q.aggregates.is_empty() {
        return Ok(None);
    }
    let mut cols = Vec::with_capacity(q.aggregates.len());
    for a in &q.aggregates {
        match &a.expr {
            None => cols.push(None),
            Some(ScalarExpr::Column(t, c)) if *t == q.root => cols.push(Some(c.raw())),
            _ => return Ok(None), // arithmetic expression: general path
        }
    }
    // Resolve the structure to aggregate over: the planned index path when
    // one was chosen, the base structure otherwise.
    let root_path = plan.and_then(|p| p.table_path(q.root));
    let (ix, remap, key_range): (_, Option<&IndexSpec>, Option<&KeyRange>) = match root_path {
        Some(TablePath {
            kind: PathKind::IndexScan | PathKind::IndexSeek,
            index: Some(spec),
            key_range,
            ..
        }) => (
            mat.structure(spec).ok_or_else(|| {
                CadbError::NotFound(format!("planned structure {spec} was not materialized"))
            })?,
            Some(spec),
            key_range.as_ref(),
        ),
        _ => (mat.base(q.root)?, None, None),
    };
    let to_ordinal = |table_col: usize| -> Result<usize> {
        match remap {
            None => Ok(table_col),
            Some(spec) => spec
                .stored_columns()
                .iter()
                .position(|s| s.raw() == table_col)
                .ok_or_else(|| {
                    CadbError::InvalidArgument(format!(
                        "column {table_col} not stored by planned index {spec}"
                    ))
                }),
        }
    };
    let mut preds = Vec::new();
    for p in q.predicates_on(q.root) {
        preds.push(BoundPredicate {
            col: to_ordinal(p.column.raw())?,
            pred: (*p).clone(),
        });
    }
    // One aggregation pass per distinct referenced column (or one pass on
    // the first stored column when only COUNT(*) is asked for), memoized.
    let mut passes: HashMap<usize, (crate::vector::IntAggregate, u64)> = HashMap::new();
    let mut stats = ExecStats::default();
    let mut run_pass = |col: usize| -> Result<(crate::vector::IntAggregate, u64)> {
        if let Some(hit) = passes.get(&col) {
            return Ok(*hit);
        }
        let (agg, matched, s) = scan_aggregate_range(ix, col, &preds, key_range, par, mode)?;
        stats.merge(&s);
        passes.insert(col, (agg, matched));
        Ok((agg, matched))
    };
    let mut vals = Vec::with_capacity(q.aggregates.len());
    for (a, col) in q.aggregates.iter().zip(&cols) {
        let v = match col {
            None => {
                let pass_col = match cols.iter().flatten().next() {
                    Some(c) => to_ordinal(*c)?,
                    None => 0,
                };
                let (_, matched) = run_pass(pass_col)?;
                Value::Int(matched as i64)
            }
            Some(c) => {
                let (agg, _) = run_pass(to_ordinal(*c)?)?;
                match a.func {
                    AggFunc::Count => Value::Int(agg.count as i64),
                    AggFunc::Sum => Value::Int(agg.sum as i64),
                    AggFunc::Avg => {
                        if agg.count == 0 {
                            Value::Null
                        } else {
                            Value::Int((agg.sum as f64 / agg.count as f64).round() as i64)
                        }
                    }
                    AggFunc::Min => agg.min.map_or(Value::Null, Value::Int),
                    AggFunc::Max => agg.max.map_or(Value::Null, Value::Int),
                }
            }
        };
        vals.push(v);
    }
    Ok(Some((vec![Row::new(vals)], stats)))
}

/// Convenience wrapper: the error type when the configuration has no base
/// structure for a table the query touches.
pub(crate) fn missing_base(t: TableId) -> CadbError {
    CadbError::NotFound(format!("no materialized base structure for table {t}"))
}
