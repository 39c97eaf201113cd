//! One planner, two views: what the hypothetical (what-if) and the
//! materialized (executor) view of the same configuration answer
//! differently — and the much larger part they cannot.
//!
//! The shared planner is generic over `PathView`, so a recording wrapper
//! around either view sees every question the planner asks. The same
//! query and structures through both views must produce the **same
//! candidate sequence** (eligibility, covering, key prefix and path kind
//! are decided before any view-specific fact is consulted) and differ only
//! in the seek *fraction* (estimated selectivity vs real leaf fraction,
//! the latter with a pushed-down key range) and in *executability*
//! (bookmark lookups and inexact MV aggregates are what-if only).
//!
//! A plan the materialized view cannot run — what-if's lookup plan handed
//! to the public `execute_planned` — is an `InvalidArgument`, not a panic.

use cadb_common::{
    CadbError, ColumnDef, ColumnId, DataType, Parallelism, Row, TableId, TableSchema, Value,
};
use cadb_engine::access_path::{plan_query as plan_over, BaseFacts, Hypothetical, PathView};
use cadb_engine::stmt::{Aggregate, ScalarExpr};
use cadb_engine::{
    Configuration, CostModel, Database, IndexSpec, KeyRange, MvSpec, PathKind, PhysicalStructure,
    Predicate, Query, WhatIfOptimizer,
};
use cadb_exec::{execute_planned, plan_query, MaterializedConfig};
use cadb_sql::AggFunc;
use std::cell::RefCell;

/// `t(g, v, id)`: 20 000 rows, `g` in 0..50 — enough for multi-leaf indexes.
fn build_db() -> (Database, TableId) {
    let mut db = Database::new();
    let cols = ["g", "v", "id"].map(|c| ColumnDef::new(c, DataType::Int));
    let schema = TableSchema::new("t", cols.to_vec(), vec![ColumnId(2)]).unwrap();
    let t = db.create_table(schema).unwrap();
    let rows = (0..20_000i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i % 50),
                Value::Int(i * 13 % 997),
                Value::Int(i),
            ])
        })
        .collect();
    db.insert_rows(t, rows).unwrap();
    (db, t)
}

/// `SELECT g, v FROM t WHERE g BETWEEN 3 AND 5`.
fn range_query(t: TableId) -> Query {
    let mut q = Query {
        root: t,
        ..Default::default()
    };
    q.predicates.push(Predicate::between(
        t,
        ColumnId(0),
        Value::Int(3),
        Value::Int(5),
    ));
    q.mark_used(t, ColumnId(0));
    q.mark_used(t, ColumnId(1));
    q
}

/// `SELECT g, <func>(v) FROM t GROUP BY g`.
fn grouped_query(t: TableId, func: AggFunc) -> Query {
    let mut q = Query {
        root: t,
        group_by: vec![(t, ColumnId(0))],
        ..Default::default()
    };
    q.aggregates.push(Aggregate {
        func,
        columns: vec![(t, ColumnId(1))],
        expr: Some(ScalarExpr::Column(t, ColumnId(1))),
    });
    q.mark_used(t, ColumnId(0));
    q.mark_used(t, ColumnId(1));
    q
}

/// Covering seekable, non-covering seekable, covering unseekable, and an
/// MV storing `SUM(v)` per `g`.
fn config(db: &Database, t: TableId) -> Configuration {
    let opt = WhatIfOptimizer::new(db);
    let mv = MvSpec {
        root: t,
        joins: Vec::new(),
        group_by: vec![(t, ColumnId(0))],
        agg_columns: vec![(t, ColumnId(1))],
    };
    let specs = [
        IndexSpec::secondary(t, vec![ColumnId(0)]).with_includes(vec![ColumnId(1)]),
        IndexSpec::secondary(t, vec![ColumnId(0)]),
        IndexSpec::secondary(t, vec![ColumnId(1)]).with_includes(vec![ColumnId(0)]),
        IndexSpec {
            table: t,
            key_cols: vec![ColumnId(0)],
            include_cols: vec![ColumnId(1), ColumnId(2)],
            clustered: false,
            compression: cadb_compression::CompressionKind::None,
            partial_filter: None,
            mv: Some(mv),
        },
    ];
    Configuration::new(
        specs
            .into_iter()
            .map(|spec| PhysicalStructure {
                size: opt.estimate_uncompressed_size(&spec),
                spec,
            })
            .collect(),
    )
}

/// `(structure, #prefix predicates, fraction, key range?)` of one seek.
type SeekRecord = (String, usize, f64, Option<KeyRange>);

/// Delegates every fact to `inner` and writes down what was asked.
struct Recording<'a, V> {
    inner: &'a V,
    /// `(structure, kind, executable?)` per candidate, in planner order.
    offered: RefCell<Vec<(String, PathKind, bool)>>,
    seeks: RefCell<Vec<SeekRecord>>,
}

impl<'a, V> Recording<'a, V> {
    fn new(inner: &'a V) -> Self {
        Recording {
            inner,
            offered: RefCell::default(),
            seeks: RefCell::default(),
        }
    }
}

impl<V: PathView> PathView for Recording<'_, V> {
    fn base_facts(&self, table: TableId) -> BaseFacts<'_> {
        self.inner.base_facts(table)
    }
    fn candidates(&self) -> impl Iterator<Item = (&IndexSpec, f64)> {
        self.inner.candidates()
    }
    fn rows(&self, spec: &IndexSpec) -> f64 {
        self.inner.rows(spec)
    }
    fn seek(&self, spec: &IndexSpec, prefix: &[&Predicate]) -> Option<(f64, Option<KeyRange>)> {
        let got = self.inner.seek(spec, prefix);
        if let Some((fraction, range)) = &got {
            let entry = (spec.to_string(), prefix.len(), *fraction, range.clone());
            self.seeks.borrow_mut().push(entry);
        }
        got
    }
    fn can_execute(&self, q: &Query, spec: &IndexSpec, kind: PathKind) -> bool {
        let ok = self.inner.can_execute(q, spec, kind);
        self.offered.borrow_mut().push((spec.to_string(), kind, ok));
        ok
    }
    fn selectivity(&self, p: &Predicate) -> f64 {
        self.inner.selectivity(p)
    }
    fn joined_rows(&self, q: &Query) -> f64 {
        self.inner.joined_rows(q)
    }
    fn output_rows(&self, q: &Query) -> f64 {
        self.inner.output_rows(q)
    }
}

#[test]
fn both_views_enumerate_the_same_candidates() {
    let (db, t) = build_db();
    let cfg = config(&db, t);
    let mat = MaterializedConfig::build(&db, &cfg).unwrap();
    let hyp = Hypothetical { db: &db, cfg: &cfg };
    let model = CostModel::default();
    let specs: Vec<String> = cfg
        .structures()
        .iter()
        .map(|s| s.spec.to_string())
        .collect();

    for (q, mv_executable) in [
        (range_query(t), None),
        (grouped_query(t, AggFunc::Sum), Some(true)),
        (grouped_query(t, AggFunc::Avg), Some(false)),
    ] {
        let (h, m) = (Recording::new(&hyp), Recording::new(&mat));
        plan_over(&h, &model, &q);
        plan_over(&m, &model, &q);
        let (h_offered, m_offered) = (h.offered.into_inner(), m.offered.into_inner());

        // Same candidates, same kinds, same order.
        let kinds = |o: &[(String, PathKind, bool)]| -> Vec<(String, PathKind)> {
            o.iter().map(|(s, k, _)| (s.clone(), *k)).collect()
        };
        assert_eq!(kinds(&h_offered), kinds(&m_offered));
        // The narrow index is offered only when there is a prefix to seek.
        let want: Vec<(String, PathKind)> = if q.predicates.is_empty() {
            vec![
                (specs[0].clone(), PathKind::IndexScan),
                (specs[2].clone(), PathKind::IndexScan),
                (specs[3].clone(), PathKind::MvScan),
            ]
        } else {
            vec![
                (specs[0].clone(), PathKind::IndexSeek),
                (specs[1].clone(), PathKind::LookupSeek),
                (specs[2].clone(), PathKind::IndexScan),
            ]
        };
        assert_eq!(kinds(&h_offered), want);

        // Executability is the first view difference: everything is
        // hypothetically executable; lookups and inexact MVs are not real.
        assert!(h_offered.iter().all(|(_, _, ok)| *ok));
        for (_, kind, ok) in &m_offered {
            let expect = match kind {
                PathKind::LookupSeek => false,
                PathKind::MvScan => mv_executable == Some(true),
                _ => true,
            };
            assert_eq!(*ok, expect, "{kind:?}");
        }

        // The seek fraction is the second: same structure and prefix where
        // both views seek, an estimate vs the real leaf fraction + range.
        let (h_seeks, m_seeks) = (h.seeks.into_inner(), m.seeks.into_inner());
        assert_eq!(m_seeks.len(), usize::from(!q.predicates.is_empty()));
        for (spec, n_prefix, fraction, range) in &m_seeks {
            let (_, h_prefix, h_fraction, h_range) = h_seeks
                .iter()
                .find(|(s, ..)| s == spec)
                .expect("hypothetical view seeks wherever the materialized one does");
            assert_eq!(n_prefix, h_prefix);
            assert!(h_range.is_none(), "what-if must not clone predicate values");
            let range = range
                .as_ref()
                .expect("materialized seeks carry a key range");
            assert_eq!(
                (&range.lo, &range.hi),
                (&vec![Value::Int(3)], &vec![Value::Int(5)])
            );
            for f in [*fraction, *h_fraction] {
                assert!(f > 0.0 && f < 0.5, "fraction {f}");
            }
        }
    }
}

#[test]
fn execute_planned_rejects_paths_it_cannot_run() {
    let (db, t) = build_db();
    // Only the narrow index: what-if plans bookmark lookups for a point query.
    let opt = WhatIfOptimizer::new(&db);
    let spec = IndexSpec::secondary(t, vec![ColumnId(2)]);
    let size = opt.estimate_uncompressed_size(&spec);
    let cfg = Configuration::new(vec![PhysicalStructure { spec, size }]);
    let mut q = Query {
        root: t,
        ..Default::default()
    };
    q.predicates
        .push(Predicate::eq(t, ColumnId(2), Value::Int(77)));
    q.mark_used(t, ColumnId(1));

    let mat = MaterializedConfig::build(&db, &cfg).unwrap();
    let whatif = opt.explain(&q, &cfg);
    assert_eq!(whatif.tables[0].kind, PathKind::LookupSeek);
    let ran = plan_query(&mat, &q).unwrap();
    assert!(ran.is_base_only() && !ran.same_paths(&whatif));
    execute_planned(&mat, &q, &ran, Parallelism::Serial).unwrap();

    // The what-if plan itself, and hand-damaged plans, are arguments the
    // executor refuses.
    let mut no_spec = ran.clone();
    no_spec.tables[0].kind = PathKind::IndexScan;
    let mut mv_without_mv = ran.clone();
    mv_without_mv.mv = Some(whatif.tables[0].clone());
    for bad in [whatif, no_spec, mv_without_mv] {
        let err = execute_planned(&mat, &q, &bad, Parallelism::Serial).unwrap_err();
        assert!(matches!(err, CadbError::InvalidArgument(_)), "{err:?}");
    }
}
