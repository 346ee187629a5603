//! Per-statement plan / binding / result caches.
//!
//! A statement owns one [`StmtCaches`] (inside [`crate::exec::EngineCtx`],
//! which [`crate::Database`] rebuilds per statement — so every cache is
//! invalidated at statement boundaries, and DML between statements can
//! never leak stale results). Four layers:
//!
//! 1. **Subquery plans** ([`SubqEntry::plan`]): a subquery is planned
//!    once per statement, not once per evaluation (once per outer row
//!    for correlated predicates). Each bound subquery node
//!    ([`crate::bind::BoundSubquery`]) carries a [`SubqCell`] that its
//!    first evaluation in a statement fills with the statement's entry
//!    for it, so a later evaluation reaches its plan and memo without a
//!    lookup; a CTE environment the plan was not compiled under
//!    re-plans and refills the cell. Every entry is also appended to
//!    [`StmtCaches`]'s entry list, which owns it until the statement
//!    ends. So there is exactly one entry per bound node, and equal
//!    subqueries bound separately (depth-0 bound forms are not cached,
//!    so each operator instantiation binds anew) get separate entries:
//!    memo sharing, and with it fuel, depends on which node evaluates,
//!    never on where the allocator put it.
//! 2. **Bindings**: clause expressions that live inside a retained plan
//!    (or the statement AST) are bound once per statement instead of once
//!    per operator instantiation — see `exec::Prepared` and the
//!    projection / grouped-binding entries here. Pointer-keyed caching is
//!    sound because every plan whose expressions serve as keys is kept
//!    alive for the whole statement: the statement AST and catalog
//!    outlive execution, and subquery plans belong to entries that the
//!    entry list holds until the statement ends, even after a refilled
//!    cell or a freed bound node dropped its own reference. So a key's
//!    address is never freed (hence never reused) mid-statement.
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
//!    per-row effect can never be memoized away. A full memo probed by
//!    `x IN (subquery)` also keeps its values in order ([`Membership`]),
//!    so each later probe is a binary search, not a pass over the rows.
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

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ast::Expr;
use crate::bind::{AggSpec, BoundExpr};
use crate::eval::Bool3;
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
    /// The statement whose entry list owns this entry
    /// ([`StmtCaches::subq_entry`] serves it to no other statement).
    stmt: u64,
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
    /// The ordered values of `result`, built by the first `IN` probe
    /// against it.
    membership: OnceCell<Membership>,
}

/// The non-NULL values of a fully memoized one-column result in order,
/// so that `x IN (subquery)` finds `x` by binary search instead of
/// comparing it with every row. A search serves a probe only where
/// `eval::compare` would order the same way and cannot fail: an INT
/// probe when every non-NULL value is an INT, a TEXT probe when every
/// one is a TEXT (in every dialect, such pairs compare by their plain
/// values). Any other pair of classes keeps the comparison loop, so a
/// strict dialect's type error still surfaces.
pub(crate) struct Membership {
    /// Positions of the rows whose value is not NULL, in value order.
    order: Vec<usize>,
    /// No non-NULL value is other than an INT.
    ints: bool,
    /// No non-NULL value is other than a TEXT.
    texts: bool,
    /// Some value is NULL.
    has_null: bool,
}

impl Membership {
    fn of(rel: &Relation) -> Membership {
        let value = |i: usize| &rel.rows[i][0];
        let mut order: Vec<usize> = (0..rel.rows.len())
            .filter(|&i| !value(i).is_null())
            .collect();
        let has_null = order.len() < rel.rows.len();
        let ints = order.iter().all(|&i| matches!(value(i), Value::Int(_)));
        let texts = order.iter().all(|&i| matches!(value(i), Value::Text(_)));
        if ints || texts {
            order.sort_unstable_by(|&a, &b| value(a).total_cmp(value(b)));
        }
        Membership {
            order,
            ints,
            texts,
            has_null,
        }
    }

    /// `v IN rel` for the non-empty one-column result `rel` this set was
    /// built from, or `None` when the comparison loop must decide.
    fn probe(&self, rel: &Relation, v: &Value) -> Option<Bool3> {
        let served = match v {
            // NULL compares as unknown with every value.
            Value::Null => return Some(None),
            Value::Int(_) => self.ints,
            Value::Text(_) => self.texts,
            _ => false,
        };
        if !served {
            return None;
        }
        let hit = self
            .order
            .binary_search_by(|&i| rel.rows[i][0].total_cmp(v))
            .is_ok();
        Some(if hit {
            Some(true)
        } else if self.has_null {
            None
        } else {
            Some(false)
        })
    }
}

/// A bound subquery node's cache entry, filled by the node's first
/// evaluation in a statement (module docs, layer 1).
#[derive(Default)]
pub(crate) struct SubqCell(RefCell<Option<Rc<SubqEntry>>>);

impl std::fmt::Debug for SubqCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SubqCell")
    }
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

    /// `v IN rel`, answered from the ordered values of this entry's full
    /// memo when `rel` is that memo and [`Membership`] serves `v`'s
    /// class; `None` when the comparison loop must decide.
    pub fn memo_in(&self, rel: &Rc<Relation>, v: &Value) -> Option<Bool3> {
        let memo = self.result.borrow();
        let memo = memo.as_ref().filter(|m| Rc::ptr_eq(m, rel))?;
        self.membership
            .get_or_init(|| Membership::of(memo))
            .probe(memo, v)
    }

    /// Store a correlated execution's result under the slots it read
    /// (sorted here, in place).
    pub fn keyed_insert(&self, slots: &mut [(u32, u32)], scopes: &[Frame], rel: Rc<Relation>) {
        slots.sort_unstable();
        let mut key = Vec::with_capacity(slots.len());
        if !slot_values(slots, scopes, &mut key) {
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
                slots: slots.to_vec(),
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
/// HAVING bound through one binder, the aggregate slot table, and how
/// each aggregate's argument evaluates (set by the first run that
/// computes aggregates, so mutant consults happen where they always
/// did).
pub(crate) struct GroupedBindings {
    pub group_exprs: Vec<Expr>,
    pub group_bound: Vec<Rc<BoundExpr>>,
    pub columns: Vec<String>,
    pub bound_projs: Vec<BoundExpr>,
    pub bound_having: Option<BoundExpr>,
    pub agg_specs: Vec<AggSpec>,
    pub spec_modes: OnceCell<Vec<crate::exec::BatchedArg>>,
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

/// Source of statement identities for [`StmtCaches::stmt`].
static NEXT_STMT: AtomicU64 = AtomicU64::new(1);

/// All per-statement caches. Single-threaded by design, like the rest of
/// the engine context.
pub(crate) struct StmtCaches {
    /// This statement's identity, unique in the process: a bound node's
    /// cell serves only entries its own statement made.
    stmt: u64,
    /// Every subquery entry made in this statement, in creation order.
    /// Append-only: it owns each entry until the statement ends (module
    /// docs, layers 1 and 2).
    subq: RefCell<Vec<Rc<SubqEntry>>>,
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
    /// The frame slots of an index seek's outer probes, keyed by the
    /// seek's `FromPlan` address (`exec::outer_probe_slots`).
    pub seek_slots: PtrCache<crate::exec::ProbeSlots>,
}

impl Default for StmtCaches {
    fn default() -> StmtCaches {
        StmtCaches {
            // Relaxed: the counter publishes no other data, and
            // `fetch_add` hands out each value once whatever the ordering.
            stmt: NEXT_STMT.fetch_add(1, Ordering::Relaxed),
            subq: RefCell::default(),
            bound: PtrCache::default(),
            proj: PtrCache::default(),
            grouped: PtrCache::default(),
            join_keys: PtrCache::default(),
            from_results: PtrCache::default(),
            seek_slots: PtrCache::default(),
        }
    }
}

impl StmtCaches {
    /// The entry `cell`'s node made in this statement, if any.
    pub fn subq_entry(&self, cell: &SubqCell) -> Option<Rc<SubqEntry>> {
        cell.0
            .borrow()
            .as_ref()
            .filter(|e| e.stmt == self.stmt)
            .map(Rc::clone)
    }

    /// Make a plan compiled under `cte_names` this statement's entry for
    /// `cell`'s node: the list keeps it, and the cell serves it from now
    /// on.
    pub fn subq_fill(
        &self,
        cell: &SubqCell,
        cte_names: std::collections::BTreeSet<String>,
        plan: Rc<SelectPlan>,
    ) -> Rc<SubqEntry> {
        let entry = Rc::new(SubqEntry {
            stmt: self.stmt,
            cte_names,
            plan,
            result: RefCell::new(None),
            keyed: RefCell::new(Vec::new()),
            probe: RefCell::new(Vec::new()),
            membership: OnceCell::new(),
        });
        self.subq.borrow_mut().push(Rc::clone(&entry));
        *cell.0.borrow_mut() = Some(Rc::clone(&entry));
        entry
    }
}
