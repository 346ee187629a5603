//! Copy-on-write isolation of shared rows: scans hand out refcount bumps
//! of table storage, so snapshots and in-flight query results must keep
//! their own values when later DML writes the rows they share.

use coddb::{Database, Dialect};

/// A snapshot taken before DML must keep its own row values: restore
/// brings back the exact pre-DML data even though the snapshot shares
/// row storage with the live catalog (copy-on-write isolation).
#[test]
fn snapshot_restore_is_isolated_from_cow_writes() {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql(
        "CREATE TABLE t (a INT, b TEXT);
         INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')",
    )
    .unwrap();
    let before = db.query_sql("SELECT * FROM t ORDER BY a").unwrap();
    let snap = db.snapshot();
    db.execute_sql("UPDATE t SET b = 'mutated' WHERE a >= 2")
        .unwrap();
    db.execute_sql("DELETE FROM t WHERE a = 1").unwrap();
    let mutated = db.query_sql("SELECT * FROM t ORDER BY a").unwrap();
    assert_ne!(before.rows, mutated.rows);
    db.restore(snap);
    let restored = db.query_sql("SELECT * FROM t ORDER BY a").unwrap();
    assert_eq!(before.rows, restored.rows, "snapshot must be COW-isolated");
}

/// An in-flight query result must not observe a later UPDATE through
/// shared storage: the result rows were handed out as refcount bumps of
/// table rows, and the UPDATE must copy, not mutate in place.
#[test]
fn query_results_are_isolated_from_later_dml() {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (a INT, b TEXT); INSERT INTO t VALUES (1, 'orig')")
        .unwrap();
    let held = db.query_sql("SELECT * FROM t").unwrap();
    db.execute_sql("UPDATE t SET b = 'changed'").unwrap();
    assert_eq!(held.rows[0][1], coddb::Value::Text("orig".into()));
    let fresh = db.query_sql("SELECT * FROM t").unwrap();
    assert_eq!(fresh.rows[0][1], coddb::Value::Text("changed".into()));
}
