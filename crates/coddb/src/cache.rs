//! Per-statement plan / binding / result caches.
//!
//! A statement owns one [`StmtCaches`] (inside [`crate::exec::EngineCtx`],
//! which [`crate::Database`] rebuilds per statement — so every cache is
//! invalidated at statement boundaries, and DML between statements can
//! never leak stale results). Three layers:
//!
//! 1. **Subquery plans** ([`SubqEntry::plan`]): `exec::exec_subquery`
//!    previously re-planned a subquery on every evaluation — once per
//!    outer row for correlated predicates. Plans are now compiled once
//!    per statement, keyed by the address of the bound subquery node's
//!    `Rc<Select>`. The entry holds that `Rc`, so every key is a live
//!    allocation until the statement ends: no other subquery can take
//!    its address, and a hit (`Rc::ptr_eq`) is the very node that built
//!    the entry. Equal subqueries bound separately (depth-0 bound forms
//!    are not cached, so each operator instantiation binds anew) get
//!    separate entries, which keeps memo sharing — and with it fuel —
//!    independent of the allocator.
//! 2. **Bindings**: clause expressions that live inside a retained plan
//!    (or the statement AST) are bound once per statement instead of once
//!    per operator instantiation — see `exec::Prepared` and the
//!    projection / grouped-binding entries here. Pointer-keyed caching is
//!    sound because every plan whose expressions serve as keys is kept
//!    alive for the whole statement: the statement AST and catalog
//!    outlive execution, subquery plans are owned by this cache, and
//!    replaced subquery entries are parked in `retired` rather than
//!    dropped, so a key's address is never freed (hence never reused)
//!    mid-statement.
//! 3. **Results** ([`SubqEntry::result`], [`KeyedMemo`]): a subquery that
//!    read no outer column during a full evaluation is non-correlated —
//!    its output is a deterministic function of table state, which cannot
//!    change within a statement — so the whole result relation is
//!    memoized. A subquery that *did* read outer columns is a
//!    deterministic function of table state plus exactly the slots it
//!    read, so its result is memoized keyed by those slots' values: K
//!    distinct outer keys cost K executions instead of one per outer
//!    row. Correlation is observed at runtime
//!    (`EngineCtx::outer_floor`/`outer_reads`), which also keeps the
//!    `TidbCorrelatedNameCollision` mutant honest: when the mutant
//!    redirects a binding to an outer frame, the redirected read is
//!    tracked at the load site and widens the memo key, so the mutant's
//!    per-row effect can never be memoized away.
//! 4. **FROM results** ([`StmtCaches::from_results`]): a correlated
//!    subquery re-instantiates its operators per outer key, but its FROM
//!    internals evaluate on rootless frame stacks and cannot read outer
//!    columns — the materialized scan/join output is a function of table
//!    state alone and is shared across re-instantiations (shared
//!    [`crate::value::Row`]s make that a refcount bump per row).
//!    Subtrees that scan CTEs, nest
//!    derived tables, or embed subqueries are conservatively excluded
//!    (see `exec::from_result_cacheable`). An index seek's entry holds
//!    only its FROM-stage charge and schema, paid once per statement
//!    like the scan-only twin's cached scan: a seek may probe by an
//!    outer column, so its rows belong to one run and are never cached
//!    (`exec::seek_input` seeks again on every run, and no outer key's
//!    rows reach a run for another key).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{Expr, Select};
use crate::bind::{AggSpec, BoundExpr};
use crate::exec::Frame;
use crate::plan::SelectPlan;
use crate::value::{Relation, Value};

/// Upper bound on memoized results per keyed subquery entry — a backstop
/// against statements with pathological key cardinality; beyond it the
/// subquery simply re-executes (lookups still serve the stored keys).
const MAX_KEYED_RESULTS: usize = 1 << 16;

/// A memo key component: *exact* value identity, deliberately stricter
/// than SQL `=` (`2` and `2.0` compare SQL-equal but can behave
/// differently inside a subquery, e.g. under `typeof`-style dialect
/// rules or text coercion). Reals key by bit pattern — `-0.0`, `0.0` and
/// NaN payloads all land on distinct keys, which costs at most a spare
/// re-execution, never a wrong hit.
#[derive(PartialEq, Eq, Hash)]
pub(crate) enum MemoKey {
    Null,
    Int(i64),
    Real(u64),
    Text(String),
    Bool(bool),
}

impl MemoKey {
    fn of(v: &Value) -> MemoKey {
        match v {
            Value::Null => MemoKey::Null,
            Value::Int(i) => MemoKey::Int(*i),
            Value::Real(r) => MemoKey::Real(r.to_bits()),
            Value::Text(s) => MemoKey::Text(s.clone()),
            Value::Bool(b) => MemoKey::Bool(*b),
        }
    }
}

/// Results of one correlated subquery, memoized per outer key: `slots`
/// is the exact set of outer slots one execution read (sorted, deduped),
/// `map` takes the values of those slots to the result relation.
pub(crate) struct KeyedMemo {
    /// `(absolute frame index, column ordinal)` — indices into the outer
    /// scope stack the subquery evaluates under.
    slots: Vec<(u32, u32)>,
    map: HashMap<Vec<MemoKey>, Rc<Relation>>,
}

/// One cached subquery: the compiled plan plus the result memo — the full
/// relation once an evaluation proves the subquery non-correlated, or
/// per-outer-key relations keyed by the slots a correlated evaluation
/// actually read (see [`crate::exec::exec_subquery`]).
pub(crate) struct SubqEntry {
    /// The bound subquery node's AST: held here, its allocation — the
    /// entry's key — stays live for the whole statement (module docs).
    pub ast: Rc<Select>,
    /// CTE names visible when the plan was compiled. A plan is a function
    /// of the AST *and* this set (a name may resolve to a CTE scan in one
    /// scope and a base table in another), so a hit must match both.
    pub cte_names: std::collections::BTreeSet<String>,
    pub plan: Rc<SelectPlan>,
    pub result: RefCell<Option<Rc<Relation>>>,
    /// Keyed memo groups, one per distinct observed slot set (almost
    /// always exactly one — the bound plan reads fixed slots unless
    /// short-circuiting evaluation varies the path).
    keyed: RefCell<Vec<KeyedMemo>>,
    /// Scratch probe key reused across lookups — the per-outer-row probe
    /// allocates nothing beyond TEXT slot values (which must be cloned
    /// into the hashable key form).
    probe: RefCell<Vec<MemoKey>>,
}

/// Fill `key` with the current values of `slots` from the outer scope
/// stack. `false` when a slot does not exist in this stack (never a
/// valid hit).
fn slot_values(slots: &[(u32, u32)], scopes: &[Frame], key: &mut Vec<MemoKey>) -> bool {
    key.clear();
    for &(fi, ci) in slots {
        let Some(frame) = scopes.get(fi as usize) else {
            return false;
        };
        let Some(v) = frame.row.get(ci as usize) else {
            return false;
        };
        key.push(MemoKey::of(v));
    }
    true
}

impl SubqEntry {
    pub fn new(
        ast: Rc<Select>,
        cte_names: std::collections::BTreeSet<String>,
        plan: Rc<SelectPlan>,
    ) -> SubqEntry {
        SubqEntry {
            ast,
            cte_names,
            plan,
            result: RefCell::new(None),
            keyed: RefCell::new(Vec::new()),
            probe: RefCell::new(Vec::new()),
        }
    }

    /// Keyed-memo lookup: a stored result is reusable when the current
    /// outer rows carry the same values in every slot the cached
    /// execution read. On a hit, the matched slot set is reported through
    /// `note` (for propagation to the enclosing correlation detector)
    /// before the result is returned.
    pub fn keyed_lookup(
        &self,
        scopes: &[Frame],
        mut note: impl FnMut(u32, u32),
    ) -> Option<Rc<Relation>> {
        let keyed = self.keyed.borrow();
        let mut key = self.probe.borrow_mut();
        for group in keyed.iter() {
            if !slot_values(&group.slots, scopes, &mut key) {
                continue;
            }
            if let Some(rel) = group.map.get(&*key) {
                for &(fi, ci) in &group.slots {
                    note(fi, ci);
                }
                return Some(Rc::clone(rel));
            }
        }
        None
    }

    /// Store a correlated execution's result under the slots it read.
    pub fn keyed_insert(&self, mut slots: Vec<(u32, u32)>, scopes: &[Frame], rel: Rc<Relation>) {
        slots.sort_unstable();
        let mut key = Vec::with_capacity(slots.len());
        if !slot_values(&slots, scopes, &mut key) {
            return;
        }
        let mut keyed = self.keyed.borrow_mut();
        match keyed.iter_mut().find(|g| g.slots == slots) {
            Some(group) => {
                if group.map.len() < MAX_KEYED_RESULTS {
                    group.map.insert(key, rel);
                }
            }
            None => keyed.push(KeyedMemo {
                slots,
                map: HashMap::from([(key, rel)]),
            }),
        }
    }
}

/// Compiled projection of a non-aggregated select core: expanded output
/// columns plus each item's expression (owned here — `expand_items`
/// builds temporaries) and its bound form.
pub(crate) struct ProjBindings {
    pub columns: Vec<String>,
    pub exprs: Vec<Expr>,
    pub bound: Vec<Rc<BoundExpr>>,
}

/// Compiled grouped execution state: resolved group keys, projection and
/// HAVING bound through one binder, and the aggregate slot table.
pub(crate) struct GroupedBindings {
    pub group_exprs: Vec<Expr>,
    pub group_bound: Vec<Rc<BoundExpr>>,
    pub columns: Vec<String>,
    pub bound_projs: Vec<BoundExpr>,
    pub bound_having: Option<BoundExpr>,
    pub agg_specs: Vec<AggSpec>,
}

/// A pointer-keyed binding cache (see [`get_or_build`]).
pub(crate) type PtrCache<T> = RefCell<HashMap<usize, Rc<T>>>;

/// The single get-or-build used by every pointer-keyed binding cache.
/// `cacheable` must come from `EngineCtx::bindings_cacheable` — it owns
/// the soundness gate (depth > 0, so the site re-executes and its plan is
/// retained).
pub(crate) fn get_or_build<T>(
    map: &PtrCache<T>,
    cacheable: bool,
    key: usize,
    build: impl FnOnce() -> crate::error::Result<Rc<T>>,
) -> crate::error::Result<Rc<T>> {
    if !cacheable {
        return build();
    }
    if let Some(v) = map.borrow().get(&key).cloned() {
        return Ok(v);
    }
    let v = build()?;
    map.borrow_mut().insert(key, Rc::clone(&v));
    Ok(v)
}

/// All per-statement caches. Single-threaded by design, like the rest of
/// the engine context.
#[derive(Default)]
pub(crate) struct StmtCaches {
    subq: RefCell<HashMap<usize, Rc<SubqEntry>>>,
    /// Clause expressions, keyed by AST node address.
    pub bound: PtrCache<BoundExpr>,
    /// Plain projections, keyed by core-plan address.
    pub proj: PtrCache<ProjBindings>,
    /// Grouped-execution state, keyed by core-plan address.
    pub grouped: PtrCache<GroupedBindings>,
    /// Hash-join key bindings (left-side, right-side), keyed by the
    /// plan's `hash_keys` buffer address.
    pub join_keys: PtrCache<(Vec<BoundExpr>, Vec<BoundExpr>)>,
    /// Materialized FROM subtree results, keyed by `FromPlan` address
    /// (module docs, layer 4).
    pub from_results: PtrCache<crate::exec::FromResult>,
    /// Graveyard for replaced subquery entries (address-stability, see
    /// module docs).
    retired: RefCell<Vec<Rc<SubqEntry>>>,
}

impl StmtCaches {
    /// The entry of this very bound subquery node, if any.
    pub fn subq_get(&self, ast: &Rc<Select>) -> Option<Rc<SubqEntry>> {
        let entry = self.subq.borrow().get(&subq_key(ast)).cloned()?;
        Rc::ptr_eq(&entry.ast, ast).then_some(entry)
    }

    /// Insert a fresh entry; a replaced entry is retired, not dropped.
    pub fn subq_insert(&self, entry: Rc<SubqEntry>) {
        if let Some(old) = self.subq.borrow_mut().insert(subq_key(&entry.ast), entry) {
            self.retired.borrow_mut().push(old);
        }
    }
}

/// A subquery entry's key: the address of its bound node's AST.
fn subq_key(ast: &Rc<Select>) -> usize {
    Rc::as_ptr(ast) as usize
}
