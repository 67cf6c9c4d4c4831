//! Call-graph analyses (DESIGN.md §14).
//!
//! Two analyses run over the parsed AST and the workspace call graph:
//!
//! * **lock discipline** — infers a lock-acquisition order over named
//!   `Mutex` fields, flags order inversions, double-acquisition on any
//!   path, and blocking calls (channel send/recv, stream I/O, `join`)
//!   made while a lock is held, directly or through the call graph.
//! * **panic-path reachability** — `expect`/indexing sites transitively
//!   reachable from the daemon entry points, with lock-poisoning
//!   `expect`s sanctioned.
//!
//! Soundness posture: over-approximate call resolution (inherited from
//! [`CallGraph`]) and heuristic guard scoping for locks. What each
//! analysis is known to miss is listed by name in DESIGN.md §14.

use crate::ast::*;
use crate::callgraph::{type_head, CallGraph, FnNode};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Analysis configuration; [`DfConfig::workspace`] is the real-repo
/// instance, fixtures construct their own.
pub struct DfConfig {
    /// Crates whose fn bodies get the lock-discipline walk.
    pub lock_crates: Vec<String>,
    /// Entry points for panic-path reachability:
    /// `(crate, impl type, fn name)`.
    pub panic_roots: Vec<(String, Option<String>, String)>,
    /// Crates where indexing sites are flagged as panic paths.
    pub index_panic_crates: Vec<String>,
}

impl DfConfig {
    /// The configuration for this workspace.
    pub fn workspace() -> DfConfig {
        DfConfig {
            lock_crates: vec![
                "vdx-exchanged".to_string(),
                "vdx-broker".to_string(),
                "vdx-obs".to_string(),
            ],
            panic_roots: vec![
                (
                    "vdx-exchanged".to_string(),
                    Some("ExchangeServer".to_string()),
                    "run_round".to_string(),
                ),
                // The spine (`vdx-core::Round::run`) calls the daemon's
                // half of a round through generic `RoundHooks`, which the
                // call graph cannot follow: root the hooks themselves.
                (
                    "vdx-exchanged".to_string(),
                    Some("Transport".to_string()),
                    "collect_announces".to_string(),
                ),
                (
                    "vdx-exchanged".to_string(),
                    Some("Transport".to_string()),
                    "commit".to_string(),
                ),
                ("vdx-exchanged".to_string(), None, "accept_loop".to_string()),
                (
                    "vdx-exchanged".to_string(),
                    None,
                    "serve_connection".to_string(),
                ),
                ("vdx-exchanged".to_string(), None, "run_agent".to_string()),
                ("vdx-exchanged".to_string(), None, "main".to_string()),
                // Crash recovery (DESIGN.md §15): startup WAL replay
                // must never panic — it runs exactly when state is
                // least trustworthy.
                ("vdx-exchanged".to_string(), None, "recover".to_string()),
                ("vdx-core".to_string(), None, "replay".to_string()),
            ],
            index_panic_crates: vec!["vdx-exchanged".to_string()],
        }
    }
}

/// Runs both analyses; findings come back deterministically sorted.
pub fn analyze(g: &CallGraph<'_>, cfg: &DfConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    lock_discipline(g, cfg, &mut findings);
    panic_paths(g, cfg, &mut findings);
    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, a.col, a.kind, &a.message)
            .cmp(&(b.rule, &b.file, b.line, b.col, b.kind, &b.message))
    });
    findings.dedup_by(|a, b| {
        (a.rule, &a.file, a.line, a.col, a.kind, &a.context)
            == (b.rule, &b.file, b.line, b.col, b.kind, &b.context)
    });
    findings
}

fn ctx_of(n: &FnNode<'_>) -> String {
    n.name.to_string()
}

/// Methods that block the calling thread when the receiver is a std
/// channel endpoint, stream, or join handle.
const BLOCKING_METHODS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "join",
    "accept",
    "read_exact",
    "read_until",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
    "wait",
];

/// Guard adapters through which a `let`-bound lock guard still refers
/// to the lock (`m.lock().expect(..)`).
fn is_guard_adapter(method: &str) -> bool {
    matches!(method, "unwrap" | "expect")
}

fn is_spawn_path(callee: &Expr) -> bool {
    if let Expr::Path { segs, .. } = callee {
        let n = segs.len();
        return segs.last().is_some_and(|s| s == "spawn")
            && (n == 1 || segs[n - 2] == "thread" || segs[n - 2] == "Builder");
    }
    false
}

/// One interprocedural fact with a witness link: `via == None` means
/// the fact holds directly in the fn, otherwise it flows through the
/// callee `via`.
#[derive(Clone)]
struct Hop {
    what: String,
    via: Option<usize>,
}

/// Per-fn call list excluding `thread::spawn` closure arguments (those
/// run on a fresh thread with an empty lock set).
fn calls_outside_spawn<'a>(g: &CallGraph<'a>) -> Vec<Vec<(usize, Span, String)>> {
    let mut out = Vec::with_capacity(g.fns.len());
    for idx in 0..g.fns.len() {
        let node = &g.fns[idx];
        let mut calls = Vec::new();
        if let Some(body) = &node.def.body {
            let locals = g.locals_of(node);
            let skip = spans_under_spawn(body);
            let mut seen = BTreeSet::new();
            walk_block(body, &mut |e| {
                let s = e.span();
                if skip.contains(&(s.line, s.col)) {
                    return;
                }
                match e {
                    Expr::Call { callee, span, .. } => {
                        if is_spawn_path(callee) {
                            return;
                        }
                        if let Expr::Path { segs, .. } = &**callee {
                            for c in g.resolve_path(node, segs) {
                                if seen.insert((c, span.line, span.col)) {
                                    calls.push((c, *span, segs.join("::")));
                                }
                            }
                        }
                    }
                    Expr::MethodCall {
                        recv, method, span, ..
                    } => {
                        if method == "spawn" {
                            return;
                        }
                        let ty = g.infer_ty(node, &locals, recv);
                        for c in g.resolve_method(ty.as_deref(), method) {
                            if seen.insert((c, span.line, span.col)) {
                                calls.push((c, *span, format!(".{method}")));
                            }
                        }
                    }
                    _ => {}
                }
            });
        }
        out.push(calls);
    }
    out
}

/// `true` when `e` sits lexically inside a spawn-call argument of the
/// body. Used to exclude fresh-thread code from same-thread facts.
fn spawn_arg_spans(b: &Block) -> Vec<&Expr> {
    let mut args = Vec::new();
    walk_block(b, &mut |e| match e {
        Expr::Call {
            callee, args: a, ..
        } if is_spawn_path(callee) => {
            for arg in a {
                args.push(arg);
            }
        }
        Expr::MethodCall {
            method, args: a, ..
        } if method == "spawn" => {
            for arg in a {
                args.push(arg);
            }
        }
        _ => {}
    });
    args
}

/// Marks every span inside spawn-closure arguments of `b`.
fn spans_under_spawn(b: &Block) -> BTreeSet<(usize, usize)> {
    let mut set = BTreeSet::new();
    for arg in spawn_arg_spans(b) {
        walk_expr(arg, &mut |e| {
            let s = e.span();
            set.insert((s.line, s.col));
        });
    }
    set
}

/// Fixpoint over the spawn-filtered call graph: for each fn, whether
/// it may block, and the set of lock names it may acquire (directly or
/// transitively), each with a witness hop.
fn blocking_fixpoint<'a>(
    g: &CallGraph<'a>,
    lock_fields: &BTreeSet<String>,
    calls: &[Vec<(usize, Span, String)>],
) -> (Vec<Option<Hop>>, Vec<BTreeMap<String, Hop>>) {
    let n = g.fns.len();
    let mut may_block: Vec<Option<Hop>> = vec![None; n];
    let mut acq: Vec<BTreeMap<String, Hop>> = vec![BTreeMap::new(); n];
    // Direct facts.
    for idx in 0..n {
        let node = &g.fns[idx];
        let Some(body) = &node.def.body else { continue };
        let locals = g.locals_of(node);
        let aliases = lock_aliases(body, lock_fields);
        let skip = spans_under_spawn(body);
        walk_block(body, &mut |e| {
            let s = e.span();
            if skip.contains(&(s.line, s.col)) {
                return;
            }
            match e {
                Expr::MethodCall { recv, method, .. } => {
                    if method == "lock" {
                        let name = lock_name(recv, lock_fields, &aliases);
                        acq[idx].entry(name.clone()).or_insert(Hop {
                            what: format!("`.lock()` on `{name}`"),
                            via: None,
                        });
                    } else if may_block[idx].is_none()
                        && BLOCKING_METHODS.contains(&method.as_str())
                    {
                        let ty = g.infer_ty(node, &locals, recv);
                        if g.resolve_method(ty.as_deref(), method).is_empty() {
                            may_block[idx] = Some(Hop {
                                what: format!("`.{method}()`"),
                                via: None,
                            });
                        }
                    }
                }
                Expr::Call { callee, .. } => {
                    if let Expr::Path { segs, .. } = &**callee {
                        let k = segs.len();
                        if may_block[idx].is_none()
                            && k >= 2
                            && segs[k - 2] == "thread"
                            && segs[k - 1] == "sleep"
                        {
                            may_block[idx] = Some(Hop {
                                what: "`thread::sleep`".to_string(),
                                via: None,
                            });
                        }
                    }
                }
                _ => {}
            }
        });
    }
    // Propagate through calls (spawn-closure args excluded).
    loop {
        let mut changed = false;
        for idx in 0..n {
            for (callee, _, via) in &calls[idx] {
                if may_block[idx].is_none() && may_block[*callee].is_some() {
                    may_block[idx] = Some(Hop {
                        what: format!("call to `{via}`"),
                        via: Some(*callee),
                    });
                    changed = true;
                }
                let names: Vec<String> = acq[*callee].keys().cloned().collect();
                for name in names {
                    if let std::collections::btree_map::Entry::Vacant(slot) = acq[idx].entry(name) {
                        slot.insert(Hop {
                            what: format!("call to `{via}`"),
                            via: Some(*callee),
                        });
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    (may_block, acq)
}

fn block_chain(g: &CallGraph<'_>, may_block: &[Option<Hop>], start: usize) -> Vec<String> {
    let mut chain = vec![g.fns[start].id.clone()];
    let mut cur = start;
    while let Some(Hop {
        via: Some(next), ..
    }) = &may_block[cur]
    {
        chain.push(g.fns[*next].id.clone());
        cur = *next;
    }
    if let Some(Hop { what, via: None }) = &may_block[cur] {
        chain.push(what.clone());
    }
    chain
}

fn acq_chain(
    g: &CallGraph<'_>,
    acq: &[BTreeMap<String, Hop>],
    start: usize,
    name: &str,
) -> Vec<String> {
    let mut chain = vec![g.fns[start].id.clone()];
    let mut cur = start;
    while let Some(Hop {
        via: Some(next), ..
    }) = acq[cur].get(name)
    {
        chain.push(g.fns[*next].id.clone());
        cur = *next;
    }
    chain
}

/// Names the lock behind a `.lock()` receiver: the outermost field in
/// the receiver chain whose declared type is `Mutex`, or a local alias
/// to one, or the raw path text.
fn lock_name(
    e: &Expr,
    lock_fields: &BTreeSet<String>,
    aliases: &HashMap<String, String>,
) -> String {
    fn go(
        e: &Expr,
        lock_fields: &BTreeSet<String>,
        aliases: &HashMap<String, String>,
    ) -> Option<String> {
        match e {
            Expr::Field { recv, name, .. } => {
                if lock_fields.contains(name) {
                    Some(name.clone())
                } else {
                    go(recv, lock_fields, aliases)
                }
            }
            Expr::Index { recv, .. } | Expr::MethodCall { recv, .. } => {
                go(recv, lock_fields, aliases)
            }
            Expr::Unary { expr, .. } | Expr::Try { expr } | Expr::Cast { expr } => {
                go(expr, lock_fields, aliases)
            }
            Expr::Path { segs, .. } => {
                let last = segs.last()?;
                if let Some(a) = aliases.get(last) {
                    Some(a.clone())
                } else {
                    Some(last.clone())
                }
            }
            _ => None,
        }
    }
    go(e, lock_fields, aliases).unwrap_or_else(|| "<lock>".to_string())
}

/// Flow-insensitive `local -> lock name` aliases from `let` bindings
/// whose initializer references a known `Mutex` field
/// (`let slot = &self.shared.slots[i];`).
fn lock_aliases(body: &Block, lock_fields: &BTreeSet<String>) -> HashMap<String, String> {
    let mut aliases = HashMap::new();
    for s in stmts_in_order(body) {
        if let Stmt::Let {
            pat,
            init: Some(init),
            ..
        } = s
        {
            let Some(name) = pat.binding() else { continue };
            // Only alias expressions that do NOT consume the guard:
            // `let slot = &self.shared.slots[i]` aliases, while
            // `let v = self.shared.slots[i].lock()...` is a guard and
            // is handled by the held-stack walk itself.
            let mut found: Option<String> = None;
            let mut has_call = false;
            walk_expr(init, &mut |e| match e {
                Expr::Field { name: f, .. } if lock_fields.contains(f) => {
                    found.get_or_insert_with(|| f.clone());
                }
                Expr::MethodCall { .. } | Expr::Call { .. } => has_call = true,
                _ => {}
            });
            if let (Some(l), false) = (found, has_call) {
                aliases.insert(name.to_string(), l);
            }
        }
    }
    aliases
}

/// All statements of a body, outer blocks first, in source order
/// within each block (nested blocks trail their enclosing statement).
fn stmts_in_order<'a>(body: &'a Block) -> Vec<&'a Stmt> {
    let mut out: Vec<&'a Stmt> = Vec::new();
    for s in &body.stmts {
        out.push(s);
    }
    walk_block(body, &mut |e| {
        let push_block = |b: &'a Block, out: &mut Vec<&'a Stmt>| {
            for s in &b.stmts {
                out.push(s);
            }
        };
        match e {
            Expr::Block(b) => push_block(b, &mut out),
            Expr::If { then, .. } => push_block(then, &mut out),
            Expr::While { body, .. } | Expr::Loop { body } | Expr::For { body, .. } => {
                push_block(body, &mut out)
            }
            _ => {}
        }
    });
    out
}

// ---------------------------------------------------------------------
// Lock discipline
// ---------------------------------------------------------------------

struct Held {
    name: String,
    guard: Option<String>,
    block_scoped: bool,
    span: Span,
}

struct PairSite {
    file: String,
    ctx: String,
    span: Span,
}

struct LockScan<'s, 'a> {
    g: &'s CallGraph<'a>,
    idx: usize,
    locals: HashMap<&'a str, String>,
    aliases: HashMap<String, String>,
    lock_fields: &'s BTreeSet<String>,
    may_block: &'s [Option<Hop>],
    acq: &'s [BTreeMap<String, Hop>],
    findings: &'s mut Vec<Finding>,
    pairs: &'s mut BTreeMap<(String, String), PairSite>,
}

impl<'s, 'a> LockScan<'s, 'a> {
    fn node(&self) -> &'s FnNode<'a> {
        &self.g.fns[self.idx]
    }

    fn finding(&mut self, kind: &'static str, span: Span, message: String, chain: Vec<String>) {
        let n = self.node();
        self.findings.push(Finding {
            rule: "lock-discipline",
            kind,
            file: n.file.to_string(),
            line: span.line,
            col: span.col,
            context: ctx_of(n),
            message,
            chain,
            ..Finding::default()
        });
    }

    fn held_names(held: &[Held]) -> String {
        held.iter()
            .map(|h| format!("`{}`", h.name))
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn scan_block(&mut self, b: &'a Block, held: &mut Vec<Held>) {
        let base = held.len();
        for s in &b.stmts {
            let stmt_base = held.len();
            match s {
                Stmt::Let {
                    pat,
                    init,
                    else_block,
                    ..
                } => {
                    if let Some(e) = init {
                        self.scan_expr(e, held, pat.binding());
                    }
                    if let Some(eb) = else_block {
                        self.scan_block(eb, held);
                    }
                }
                Stmt::Expr { expr, .. } => {
                    if self.try_release(expr, held) {
                        continue;
                    }
                    self.scan_expr(expr, held, None);
                }
            }
            let floor = stmt_base.min(held.len());
            let kept: Vec<Held> = held.drain(floor..).filter(|h| h.block_scoped).collect();
            held.extend(kept);
        }
        held.truncate(base.min(held.len()));
    }

    /// `drop(guard)` releases the named guard early.
    fn try_release(&mut self, e: &'a Expr, held: &mut Vec<Held>) -> bool {
        if let Expr::Call { callee, args, .. } = e {
            if let Expr::Path { segs, .. } = &**callee {
                if segs.len() == 1 && segs[0] == "drop" && args.len() == 1 {
                    if let Expr::Path { segs: a, .. } = &args[0] {
                        if a.len() == 1 {
                            held.retain(|h| h.guard.as_deref() != Some(a[0].as_str()));
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    fn acquire(&mut self, name: String, span: Span, held: &mut Vec<Held>, guard: Option<&'a str>) {
        if let Some(prev) = held.iter().find(|h| h.name == name) {
            let msg = format!(
                "lock `{name}` acquired while already held (first acquired at line {})",
                prev.span.line
            );
            self.finding("double-acquire", span, msg, Vec::new());
        }
        let n = self.node();
        for h in held.iter() {
            if h.name != name {
                self.pairs
                    .entry((h.name.clone(), name.clone()))
                    .or_insert_with(|| PairSite {
                        file: n.file.to_string(),
                        ctx: ctx_of(n),
                        span,
                    });
            }
        }
        held.push(Held {
            name,
            guard: guard.map(str::to_string),
            block_scoped: guard.is_some(),
            span,
        });
    }

    /// Post-scan checks for a call site while locks are held.
    fn check_callees(&mut self, cands: &[usize], via: &str, span: Span, held: &[Held]) {
        if held.is_empty() {
            return;
        }
        for &c in cands {
            if self.may_block[c].is_some() {
                let msg = format!(
                    "call to `{via}` may block while holding {}",
                    Self::held_names(held)
                );
                let chain = block_chain(self.g, self.may_block, c);
                self.finding("blocking-under-lock", span, msg, chain);
                break;
            }
        }
        // Transitive acquisitions: double-acquire and order pairs.
        let mut reported_double = false;
        for &c in cands {
            let names: Vec<String> = self.acq[c].keys().cloned().collect();
            for name in names {
                if held.iter().any(|h| h.name == name) {
                    if !reported_double {
                        let msg = format!("call to `{via}` re-acquires `{name}` already held here");
                        let chain = acq_chain(self.g, self.acq, c, &name);
                        self.finding("double-acquire", span, msg, chain);
                        reported_double = true;
                    }
                } else {
                    let n = &self.g.fns[self.idx];
                    for h in held.iter() {
                        if h.name != name {
                            self.pairs
                                .entry((h.name.clone(), name.clone()))
                                .or_insert_with(|| PairSite {
                                    file: n.file.to_string(),
                                    ctx: ctx_of(n),
                                    span,
                                });
                        }
                    }
                }
            }
        }
    }

    fn scan_expr(&mut self, e: &'a Expr, held: &mut Vec<Held>, spine: Option<&'a str>) {
        match e {
            Expr::MethodCall {
                recv,
                method,
                args,
                span,
            } => {
                if method == "spawn" {
                    // Closure args run on a fresh thread: empty set.
                    self.scan_expr(recv, held, None);
                    for a in args {
                        let mut fresh = Vec::new();
                        self.scan_expr(a, &mut fresh, None);
                    }
                    return;
                }
                let inner_spine = if is_guard_adapter(method) {
                    spine
                } else {
                    None
                };
                self.scan_expr(recv, held, inner_spine);
                for a in args {
                    self.scan_expr(a, held, None);
                }
                if method == "lock" {
                    let name = lock_name(recv, self.lock_fields, &self.aliases);
                    self.acquire(name, *span, held, spine);
                } else if !held.is_empty() {
                    let node = self.node();
                    let ty = self.g.infer_ty(node, &self.locals, recv);
                    let cands = self.g.resolve_method(ty.as_deref(), method);
                    if cands.is_empty() && BLOCKING_METHODS.contains(&method.as_str()) {
                        let msg = format!(
                            "`.{method}()` may block while holding {}",
                            Self::held_names(held)
                        );
                        self.finding("blocking-under-lock", *span, msg, Vec::new());
                    } else {
                        self.check_callees(&cands, &format!(".{method}"), *span, held);
                    }
                }
            }
            Expr::Call { callee, args, span } => {
                if is_spawn_path(callee) {
                    for a in args {
                        let mut fresh = Vec::new();
                        self.scan_expr(a, &mut fresh, None);
                    }
                    return;
                }
                self.scan_expr(callee, held, None);
                for a in args {
                    self.scan_expr(a, held, None);
                }
                if let Expr::Path { segs, .. } = &**callee {
                    let k = segs.len();
                    if k >= 2 && segs[k - 2] == "thread" && segs[k - 1] == "sleep" {
                        if !held.is_empty() {
                            let msg =
                                format!("`thread::sleep` while holding {}", Self::held_names(held));
                            self.finding("blocking-under-lock", *span, msg, Vec::new());
                        }
                        return;
                    }
                    if !held.is_empty() {
                        let cands = self.g.resolve_path(self.node(), segs);
                        self.check_callees(&cands, &segs.join("::"), *span, held);
                    }
                }
            }
            Expr::If { cond, then, else_ } => {
                let base = held.len();
                self.scan_expr(cond, held, None);
                self.scan_block(then, held);
                if let Some(el) = else_ {
                    self.scan_expr(el, held, None);
                }
                let floor = base.min(held.len());
                let kept: Vec<Held> = held.drain(floor..).filter(|h| h.block_scoped).collect();
                held.extend(kept);
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                // A match holds scrutinee temporaries through all arms.
                let base = held.len();
                self.scan_expr(scrutinee, held, None);
                for arm in arms {
                    if let Some(gd) = &arm.guard {
                        self.scan_expr(gd, held, None);
                    }
                    self.scan_expr(&arm.body, held, None);
                }
                let floor = base.min(held.len());
                let kept: Vec<Held> = held.drain(floor..).filter(|h| h.block_scoped).collect();
                held.extend(kept);
            }
            Expr::While { cond, body } => {
                let base = held.len();
                self.scan_expr(cond, held, None);
                self.scan_block(body, held);
                let floor = base.min(held.len());
                held.truncate(floor);
            }
            Expr::For { iter, body } => {
                let base = held.len();
                self.scan_expr(iter, held, None);
                self.scan_block(body, held);
                let floor = base.min(held.len());
                held.truncate(floor);
            }
            Expr::Loop { body } => self.scan_block(body, held),
            Expr::Block(b) => self.scan_block(b, held),
            Expr::Closure { body, .. } => self.scan_expr(body, held, None),
            Expr::LetCond { pat, expr } => {
                // `if let Ok(g) = m.lock()`: the guard lives through
                // the success branch; bind it so `drop(g)` releases.
                let guard = pat.names.first().map(String::as_str);
                self.scan_expr(expr, held, guard);
            }
            Expr::Try { expr } => self.scan_expr(expr, held, spine),
            Expr::Unary { expr, .. } => self.scan_expr(expr, held, spine),
            Expr::Cast { expr } => self.scan_expr(expr, held, None),
            Expr::Field { recv, .. } => self.scan_expr(recv, held, None),
            Expr::Index { recv, index, .. } => {
                self.scan_expr(recv, held, None);
                self.scan_expr(index, held, None);
            }
            Expr::Binary { lhs, rhs } | Expr::Assign { lhs, rhs } => {
                self.scan_expr(lhs, held, None);
                self.scan_expr(rhs, held, None);
            }
            Expr::Range { lo, hi } => {
                if let Some(lo) = lo {
                    self.scan_expr(lo, held, None);
                }
                if let Some(hi) = hi {
                    self.scan_expr(hi, held, None);
                }
            }
            Expr::Return { expr } | Expr::Break { expr } => {
                if let Some(e) = expr {
                    self.scan_expr(e, held, None);
                }
            }
            Expr::StructLit { fields, base, .. } => {
                for v in fields {
                    self.scan_expr(v, held, None);
                }
                if let Some(b) = base {
                    self.scan_expr(b, held, None);
                }
            }
            Expr::Tuple(es) | Expr::Array(es) => {
                for e in es {
                    self.scan_expr(e, held, None);
                }
            }
            Expr::ArrayRepeat { elem, len } => {
                self.scan_expr(elem, held, None);
                self.scan_expr(len, held, None);
            }
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Continue | Expr::MacroCall { .. } => {}
        }
    }
}

fn lock_discipline(g: &CallGraph<'_>, cfg: &DfConfig, findings: &mut Vec<Finding>) {
    let mut lock_fields: BTreeSet<String> = BTreeSet::new();
    for ((_, _, field), ty) in &g.field_ty {
        if type_head(ty) == Some("Mutex") {
            lock_fields.insert(field.clone());
        }
    }
    let calls = calls_outside_spawn(g);
    let (may_block, acq) = blocking_fixpoint(g, &lock_fields, &calls);
    let mut pairs: BTreeMap<(String, String), PairSite> = BTreeMap::new();
    for idx in 0..g.fns.len() {
        let node = &g.fns[idx];
        if node.is_test || !cfg.lock_crates.iter().any(|c| c == node.crate_name) {
            continue;
        }
        let Some(body) = &node.def.body else { continue };
        let locals = g.locals_of(node);
        let aliases = lock_aliases(body, &lock_fields);
        let mut scan = LockScan {
            g,
            idx,
            locals,
            aliases,
            lock_fields: &lock_fields,
            may_block: &may_block,
            acq: &acq,
            findings: &mut *findings,
            pairs: &mut pairs,
        };
        let mut held = Vec::new();
        scan.scan_block(body, &mut held);
    }
    // Order inversions: both (a, b) and (b, a) observed.
    for ((a, b), site) in &pairs {
        if a < b {
            if let Some(rev) = pairs.get(&(b.clone(), a.clone())) {
                findings.push(Finding {
                    rule: "lock-discipline",
                    kind: "order-inversion",
                    file: site.file.clone(),
                    line: site.span.line,
                    col: site.span.col,
                    context: site.ctx.clone(),
                    message: format!(
                        "lock order inversion: `{a}` then `{b}` here, but `{b}` then `{a}` at {}:{}",
                        rev.file, rev.span.line
                    ),
                    ..Finding::default()
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Panic-path reachability
// ---------------------------------------------------------------------

fn panic_paths(g: &CallGraph<'_>, cfg: &DfConfig, findings: &mut Vec<Finding>) {
    let mut roots = Vec::new();
    for (krate, ty, name) in &cfg.panic_roots {
        let matched = roots.len();
        for (i, f) in g.fns.iter().enumerate() {
            if f.crate_name == krate && f.name == name && f.self_ty.as_deref() == ty.as_deref() {
                roots.push(i);
            }
        }
        if roots.len() == matched {
            // A renamed entry point would silently take its threads out
            // of the analysis: report it like a stale allowlist entry.
            let root = match ty {
                Some(ty) => format!("{krate}::{ty}::{name}"),
                None => format!("{krate}::{name}"),
            };
            findings.push(Finding {
                rule: "stale-panic-root",
                file: "crates/lint/src/dataflow.rs".to_string(),
                message: format!(
                    "panic root `{root}` matches no fn in the workspace; the entry \
                     point was renamed or removed — point `DfConfig::workspace` at its successor"
                ),
                context: root,
                ..Finding::default()
            });
        }
    }
    let parent = g.reach(&roots);
    let mut reachable: Vec<usize> = parent.keys().copied().collect();
    reachable.sort_unstable();
    for idx in reachable {
        let node = &g.fns[idx];
        if node.is_test {
            continue;
        }
        let Some(body) = &node.def.body else { continue };
        let index_ok = cfg.index_panic_crates.iter().any(|c| c == node.crate_name);
        let chain = g.witness(&parent, idx);
        for (kind, what, span) in panic_sites(body, index_ok) {
            findings.push(Finding {
                rule: "panic-path",
                kind,
                file: node.file.to_string(),
                line: span.line,
                col: span.col,
                context: ctx_of(node),
                message: format!(
                    "{what} reachable from `{}`",
                    chain.first().cloned().unwrap_or_default()
                ),
                chain: chain.clone(),
                ..Finding::default()
            });
        }
    }
}

/// The `expect` and indexing sites of a body as `(kind, what, span)`,
/// skipping `#[cfg(debug_assertions)]`-gated statements (conservation
/// guards a release build does not contain) and lock-poisoning expects
/// (`.lock().expect(..)` — the sanctioned category). `unwrap` is not
/// looked for: clippy's `unwrap_used` keeps it out of non-test code.
fn panic_sites(body: &Block, index_ok: bool) -> Vec<(&'static str, &'static str, Span)> {
    let ungated = |s: &Stmt| {
        !matches!(s, Stmt::Expr { attrs, .. }
            if attrs.iter().any(|a| a.tokens == ["cfg", "(", "debug_assertions", ")"]))
    };
    let mut sites = Vec::new();
    walk_block_if(body, &ungated, &mut |e| match e {
        Expr::MethodCall {
            recv, method, span, ..
        } if method == "expect" => {
            let poisoning = matches!(&**recv, Expr::MethodCall { method: m, .. } if m == "lock");
            if !poisoning {
                sites.push(("expect", "`.expect()`", *span));
            }
        }
        Expr::Index { span, .. } if index_ok => sites.push(("indexing", "indexing", *span)),
        _ => {}
    });
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::scan::SourceFile;

    fn files(srcs: &[(&str, &str, &str)]) -> Vec<File> {
        srcs.iter()
            .map(|(path, krate, src)| {
                let sf = SourceFile::parse(path, src);
                parse_file(&sf, krate).expect("parse")
            })
            .collect()
    }

    fn cfg_for(krate: &str) -> DfConfig {
        DfConfig {
            lock_crates: vec![krate.to_string()],
            panic_roots: vec![(krate.to_string(), None, "entry".to_string())],
            index_panic_crates: vec![krate.to_string()],
        }
    }

    #[test]
    fn blocking_under_lock_direct_and_transitive() {
        let fs = files(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub struct S { slots: Mutex<u32> }\n\
             pub struct Conn;\n\
             impl Conn { pub fn send(&self, s: &TcpStream) { s.write_all(b\"\").unwrap(); } }\n\
             impl S {\n\
                 pub fn bad(&self, c: &Conn) {\n\
                     let g = self.slots.lock().unwrap();\n\
                     c.send(s);\n\
                 }\n\
             }",
        )]);
        let g = CallGraph::build(&fs);
        let f = analyze(&g, &cfg_for("x"));
        let hit = f
            .iter()
            .find(|f| f.rule == "lock-discipline" && f.kind == "blocking-under-lock")
            .expect("blocking-under-lock finding");
        assert_eq!(hit.line, 7);
        assert!(
            hit.chain.iter().any(|c| c.contains("Conn::send")),
            "{:?}",
            hit.chain
        );
    }

    #[test]
    fn lock_order_inversion_detected() {
        let fs = files(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
                 pub fn ab(&self) { let g = self.a.lock().unwrap(); let h = self.b.lock().unwrap(); }\n\
                 pub fn ba(&self) { let h = self.b.lock().unwrap(); let g = self.a.lock().unwrap(); }\n\
             }",
        )]);
        let g = CallGraph::build(&fs);
        let f = analyze(&g, &cfg_for("x"));
        assert!(
            f.iter().any(|f| f.kind == "order-inversion"),
            "expected inversion: {:?}",
            f.iter().map(|f| (f.rule, f.kind)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn double_acquire_and_drop_release() {
        let fs = files(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub struct S { a: Mutex<u32> }\n\
             impl S {\n\
                 pub fn bad(&self) { let g = self.a.lock().unwrap(); let h = self.a.lock().unwrap(); }\n\
                 pub fn ok(&self) { let g = self.a.lock().unwrap(); drop(g); let h = self.a.lock().unwrap(); }\n\
             }",
        )]);
        let g = CallGraph::build(&fs);
        let f = analyze(&g, &cfg_for("x"));
        let doubles: Vec<_> = f.iter().filter(|f| f.kind == "double-acquire").collect();
        assert_eq!(doubles.len(), 1, "{doubles:?}");
        assert_eq!(doubles[0].line, 3);
    }

    #[test]
    fn spawn_closure_gets_fresh_lock_set() {
        let fs = files(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub struct S { a: Mutex<u32> }\n\
             impl S {\n\
                 pub fn ok(&self) {\n\
                     let g = self.a.lock().unwrap();\n\
                     std::thread::spawn(move || { helper(); });\n\
                 }\n\
             }\n\
             fn helper() { std::thread::sleep(d); }",
        )]);
        let g = CallGraph::build(&fs);
        let f = analyze(&g, &cfg_for("x"));
        assert!(
            !f.iter().any(|f| f.kind == "blocking-under-lock"),
            "spawned closure must not inherit held locks: {:?}",
            f.iter().map(|f| (f.kind, f.line)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_panic_root_that_matches_no_fn_is_reported() {
        let fs = files(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub struct S;\n\
             pub fn entry() {}\n\
             impl S { pub fn run(&self) {} }",
        )]);
        let g = CallGraph::build(&fs);
        let root = |ty: Option<&str>, name: &str| {
            ("x".to_string(), ty.map(str::to_string), name.to_string())
        };
        let cfg = DfConfig {
            lock_crates: Vec::new(),
            panic_roots: vec![
                root(None, "entry"),
                root(Some("S"), "run"),
                root(None, "renamed_away"),
                // Right name, wrong impl type.
                root(Some("T"), "run"),
            ],
            index_panic_crates: Vec::new(),
        };
        let stale: Vec<String> = (analyze(&g, &cfg).into_iter())
            .filter(|f| f.rule == "stale-panic-root")
            .map(|f| f.context)
            .collect();
        assert_eq!(stale, vec!["x::T::run", "x::renamed_away"]);
    }

    #[test]
    fn panic_path_reachability_with_lock_poison_sanction() {
        let fs = files(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub struct S { a: Mutex<u32> }\n\
             pub fn entry(s: &S) { step(s); }\n\
             fn step(s: &S) {\n\
                 let g = s.a.lock().expect(\"poisoned\");\n\
                 let v = maybe().expect(\"there\");\n\
             }\n\
             fn unreached() { let v = maybe().expect(\"there\"); }",
        )]);
        let g = CallGraph::build(&fs);
        let f = analyze(&g, &cfg_for("x"));
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "panic-path").collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].line, hits[0].kind), (5, "expect"));
        assert_eq!(hits[0].chain, vec!["x::entry", "x::step"]);
    }
}
