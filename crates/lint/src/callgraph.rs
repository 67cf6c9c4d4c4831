//! Workspace call graph over the parsed AST (DESIGN.md §14).
//!
//! Resolution is deliberately *over-approximate* (every callee a call
//! may have, and some it cannot): a method call whose receiver
//! type cannot be inferred resolves to **every** workspace method of
//! that name. Receiver types are inferred from three cheap sources —
//! `self` (the enclosing impl), `self.field` (per-crate field-type
//! maps, which disambiguates e.g. `writer: Connection` in
//! vdx-exchanged from `writer: BufWriter<File>` in vdx-obs), and local
//! bindings whose `let` has a type annotation or a
//! `Type::new(..)`/`Type(..)` initializer.

use crate::ast::*;
use std::collections::{BTreeMap, HashMap};

/// One function (free or associated) in the workspace.
pub struct FnNode<'a> {
    /// Stable display id: `crate::Type::name` or `crate::name`.
    pub id: String,
    /// Cargo package name.
    pub crate_name: &'a str,
    /// Workspace-relative file path.
    pub file: &'a str,
    /// Impl self-type head when this is an associated fn.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: &'a str,
    /// The definition.
    pub def: &'a FnDef,
    /// True for `#[test]`/`#[cfg(test)]` code (incl. enclosing mods).
    pub is_test: bool,
}

/// The linked workspace call graph.
pub struct CallGraph<'a> {
    /// All function nodes, in file order (deterministic).
    pub fns: Vec<FnNode<'a>>,
    /// `(crate, type, field)` → field type tokens.
    pub field_ty: BTreeMap<(String, String, String), &'a [String]>,
    by_name: HashMap<&'a str, Vec<usize>>,
    by_type_method: HashMap<(String, &'a str), Vec<usize>>,
}

/// First meaningful type head in a token run (`&'a Vec<Kbps>` → `Vec`).
pub fn type_head(tokens: &[String]) -> Option<&str> {
    let mut it = tokens.iter().peekable();
    while let Some(t) = it.peek() {
        match t.as_str() {
            "&" | "mut" | "'" | "dyn" | "impl" => {
                it.next();
                // Skip a lifetime name right after `'`.
                continue;
            }
            _ => break,
        }
    }
    it.find(|t| {
        t.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    })
    .map(|s| s.as_str())
}

/// The head of the first generic argument (`Vec<Mutex<T>>` → `Mutex`).
pub fn generic_arg_head(tokens: &[String]) -> Option<&str> {
    let lt = tokens.iter().position(|t| t == "<")?;
    type_head(&tokens[lt + 1..])
}

impl<'a> CallGraph<'a> {
    /// Builds the graph over all parsed files.
    pub fn build(files: &'a [File]) -> CallGraph<'a> {
        let mut g = CallGraph {
            fns: Vec::new(),
            field_ty: BTreeMap::new(),
            by_name: HashMap::new(),
            by_type_method: HashMap::new(),
        };
        for file in files {
            for item in &file.items {
                g.collect_item(file, item, None, false);
            }
        }
        for i in 0..g.fns.len() {
            g.by_name.entry(g.fns[i].name).or_default().push(i);
            if let Some(ty) = g.fns[i].self_ty.clone() {
                g.by_type_method
                    .entry((ty, g.fns[i].name))
                    .or_default()
                    .push(i);
            }
        }
        g
    }

    fn collect_item(
        &mut self,
        file: &'a File,
        item: &'a Item,
        self_ty: Option<&str>,
        in_test: bool,
    ) {
        let test = in_test || item.is_test_only();
        match &item.kind {
            ItemKind::Fn(def) => {
                let id = match self_ty {
                    Some(ty) => format!("{}::{}::{}", file.crate_name, ty, def.name),
                    None => format!("{}::{}", file.crate_name, def.name),
                };
                self.fns.push(FnNode {
                    id,
                    crate_name: &file.crate_name,
                    file: &file.rel_path,
                    self_ty: self_ty.map(str::to_string),
                    name: &def.name,
                    def,
                    is_test: test,
                });
            }
            ItemKind::Struct { name, fields } => {
                for f in fields {
                    self.field_ty.insert(
                        (file.crate_name.clone(), name.clone(), f.name.clone()),
                        &f.ty,
                    );
                }
            }
            ItemKind::Impl {
                self_ty: ty_tokens,
                items,
            } => {
                let head = type_head(ty_tokens).map(str::to_string);
                for it in items {
                    self.collect_item(file, it, head.as_deref(), test);
                }
            }
            ItemKind::Scope(items) => {
                for it in items {
                    self.collect_item(file, it, self_ty, test);
                }
            }
            ItemKind::Other => {}
        }
    }

    /// Node index lookup by `(self_ty, name)`; `None` ty = free fn.
    #[cfg(test)]
    pub fn find(&self, crate_name: &str, self_ty: Option<&str>, name: &str) -> Option<usize> {
        self.fns.iter().position(|f| {
            f.crate_name == crate_name && f.name == name && f.self_ty.as_deref() == self_ty
        })
    }

    /// Resolves a direct call path to candidate nodes, preferring
    /// type-qualified and same-crate matches.
    pub fn resolve_path(&self, caller: &FnNode<'a>, segs: &[String]) -> Vec<usize> {
        let Some(last) = segs.last() else {
            return Vec::new();
        };
        if segs.len() >= 2 {
            let qual = &segs[segs.len() - 2];
            if qual == "Self" {
                if let Some(ty) = &caller.self_ty {
                    if let Some(v) = self.by_type_method.get(&(ty.clone(), last.as_str())) {
                        return v.clone();
                    }
                }
            }
            if let Some(v) = self.by_type_method.get(&(qual.clone(), last.as_str())) {
                return v.clone();
            }
            // Module-qualified (`decision::plan_round`): free fns only.
            let free: Vec<usize> = self
                .by_name
                .get(last.as_str())
                .into_iter()
                .flatten()
                .copied()
                .filter(|&i| self.fns[i].self_ty.is_none())
                .collect();
            if !free.is_empty() {
                return prefer_crate(&self.fns, free, caller.crate_name);
            }
            return Vec::new();
        }
        let cands: Vec<usize> = self
            .by_name
            .get(last.as_str())
            .into_iter()
            .flatten()
            .copied()
            .filter(|&i| self.fns[i].self_ty.is_none())
            .collect();
        prefer_crate(&self.fns, cands, caller.crate_name)
    }

    /// Resolves a method call given an inferred receiver type head
    /// (`None` = unknown → every method of that name, the documented
    /// over-approximation).
    pub fn resolve_method(&self, recv_ty: Option<&str>, name: &str) -> Vec<usize> {
        if let Some(ty) = recv_ty {
            if let Some(v) = self.by_type_method.get(&(ty.to_string(), name)) {
                return v.clone();
            }
            // A known receiver type with no such workspace method is a
            // std/container method — not a workspace edge.
            return Vec::new();
        }
        self.by_name
            .get(name)
            .into_iter()
            .flatten()
            .copied()
            .filter(|&i| self.fns[i].self_ty.is_some())
            .collect()
    }

    /// Infers the receiver type head of `e` inside `caller`, given the
    /// caller's local type environment.
    pub fn infer_ty(
        &self,
        caller: &FnNode<'a>,
        locals: &HashMap<&'a str, String>,
        e: &'a Expr,
    ) -> Option<String> {
        match e {
            Expr::Path { segs, .. } if segs.len() == 1 => {
                if segs[0] == "self" {
                    return caller.self_ty.clone();
                }
                locals.get(segs[0].as_str()).cloned()
            }
            Expr::Field { recv, name, .. } => {
                let ty = self.infer_ty(caller, locals, recv)?;
                let tokens =
                    self.field_ty
                        .get(&(caller.crate_name.to_string(), ty, name.clone()))?;
                type_head(tokens).map(str::to_string)
            }
            Expr::Index { recv, .. } => {
                // Indexing a Vec/slice yields its element type head.
                match &**recv {
                    Expr::Field {
                        recv: inner, name, ..
                    } => {
                        let ty = self.infer_ty(caller, locals, inner)?;
                        let tokens = self.field_ty.get(&(
                            caller.crate_name.to_string(),
                            ty,
                            name.clone(),
                        ))?;
                        if type_head(tokens) == Some("Vec") {
                            generic_arg_head(tokens).map(str::to_string)
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            Expr::Unary { op, expr } if op == "&" || op == "&mut" || op == "*" => {
                self.infer_ty(caller, locals, expr)
            }
            Expr::Call { callee, .. } => {
                // `Type::new(..)` / `Type(..)` constructor results.
                if let Expr::Path { segs, .. } = &**callee {
                    constructor_ty(segs)
                } else {
                    None
                }
            }
            Expr::StructLit { segs, .. } => segs.last().cloned(),
            Expr::MethodCall { recv, method, .. } => match method.as_str() {
                // A `Mutex<T>` guard derefs to `T`: typing the guard
                // lets calls through it resolve to T's methods instead
                // of every same-named method in the workspace.
                "lock" => {
                    if let Expr::Field {
                        recv: inner, name, ..
                    } = &**recv
                    {
                        let ty = self.infer_ty(caller, locals, inner)?;
                        let tokens = self.field_ty.get(&(
                            caller.crate_name.to_string(),
                            ty,
                            name.clone(),
                        ))?;
                        if type_head(tokens) == Some("Mutex") {
                            return generic_arg_head(tokens).map(str::to_string);
                        }
                    }
                    None
                }
                // Guard adapters preserve the guarded type.
                "unwrap" | "expect" => {
                    if matches!(&**recv, Expr::MethodCall { method: m, .. } if m == "lock") {
                        self.infer_ty(caller, locals, recv)
                    } else {
                        None
                    }
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Builds the local type environment for a fn: parameter types plus
    /// annotated/constructor `let` bindings (flow-insensitive).
    pub fn locals_of(&self, node: &FnNode<'a>) -> HashMap<&'a str, String> {
        let mut locals: HashMap<&'a str, String> = HashMap::new();
        for p in &node.def.params {
            if let (Some(name), Some(head)) = (p.pat.binding(), type_head(&p.ty)) {
                locals.insert(name, head.to_string());
            }
        }
        let Some(body) = &node.def.body else {
            return locals;
        };
        collect_let_types(self, node, body, &mut locals);
        locals
    }

    /// Callees of node `idx`, deduped, in first-call-site order: the
    /// resolution the lock analysis applies call by call.
    #[cfg(test)]
    pub fn callees(&self, idx: usize) -> Vec<usize> {
        let node = &self.fns[idx];
        let Some(body) = &node.def.body else {
            return Vec::new();
        };
        let locals = self.locals_of(node);
        let mut edges: Vec<usize> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        walk_block(body, &mut |e| {
            let cands = match e {
                Expr::Call { callee, .. } => match &**callee {
                    Expr::Path { segs, .. } => self.resolve_path(node, segs),
                    _ => return,
                },
                Expr::MethodCall { recv, method, .. } => {
                    let ty = self.infer_ty(node, &locals, recv);
                    self.resolve_method(ty.as_deref(), method)
                }
                _ => return,
            };
            edges.extend(cands.into_iter().filter(|&c| seen.insert(c)));
        });
        edges
    }
}

/// `Type::new`-style constructor paths → the type head.
fn constructor_ty(segs: &[String]) -> Option<String> {
    match segs.len() {
        1 if segs[0].starts_with(|c: char| c.is_uppercase()) => Some(segs[0].clone()),
        n if n >= 2 => {
            let ty = &segs[n - 2];
            let m = &segs[n - 1];
            let ctor = matches!(
                m.as_str(),
                "new" | "default" | "with_capacity" | "from" | "open" | "create" | "connect"
            );
            if ty.starts_with(|c: char| c.is_uppercase()) && ctor {
                Some(ty.clone())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Prefer candidates from `crate_name`, falling back to all.
fn prefer_crate(fns: &[FnNode<'_>], cands: Vec<usize>, crate_name: &str) -> Vec<usize> {
    let same: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| fns[i].crate_name == crate_name)
        .collect();
    if same.is_empty() {
        cands
    } else {
        same
    }
}

/// Collects `let` binding type heads across a body (flow-insensitive;
/// nested blocks included — shadowing keeps the innermost write order,
/// which is good enough for receiver inference).
fn collect_let_types<'a>(
    g: &CallGraph<'a>,
    node: &FnNode<'a>,
    body: &'a Block,
    locals: &mut HashMap<&'a str, String>,
) {
    // Two passes so initializers can refer to other locals regardless
    // of statement order inside nested scopes.
    for _ in 0..2 {
        let visit = |b: &'a Block, locals: &mut HashMap<&'a str, String>| {
            for s in &b.stmts {
                if let Stmt::Let { pat, ty, init, .. } = s {
                    let head = ty
                        .as_ref()
                        .and_then(|t| type_head(t).map(str::to_string))
                        .or_else(|| init.as_ref().and_then(|e| g.infer_ty(node, locals, e)));
                    if let (Some(name), Some(h)) = (pat.binding(), head) {
                        locals.insert(name, h);
                    }
                }
            }
        };
        // Walk every nested block.
        let mut blocks: Vec<&'a Block> = vec![body];
        let mut i = 0;
        while i < blocks.len() {
            let b = blocks[i];
            i += 1;
            visit(b, locals);
            walk_block(b, &mut |e| {
                if let Expr::Block(inner) = e {
                    blocks.push(inner);
                }
                if let Expr::If { then, else_, .. } = e {
                    blocks.push(then);
                    let _ = else_;
                }
                if let Expr::While { body, .. } | Expr::Loop { body } | Expr::For { body, .. } = e {
                    blocks.push(body);
                }
            });
        }
    }
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

    #[test]
    fn resolves_direct_and_method_calls() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "a",
            "pub struct S { w: W }\n\
             pub struct W;\n\
             impl W { pub fn send(&self) {} }\n\
             impl S { pub fn run(&self) { self.w.send(); helper(); } }\n\
             fn helper() {}",
        )]);
        let g = CallGraph::build(&fs);
        let run = g.find("a", Some("S"), "run").expect("run node");
        let callees: Vec<&str> = g
            .callees(run)
            .iter()
            .map(|&c| g.fns[c].id.as_str())
            .collect();
        assert_eq!(callees, vec!["a::W::send", "a::helper"]);
    }

    #[test]
    fn field_type_disambiguates_across_crates() {
        let fs = files(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub struct Conn; impl Conn { pub fn send(&self) {} }\n\
                 pub struct S { writer: Conn }\n\
                 impl S { pub fn go(&self) { self.writer.send(); } }",
            ),
            (
                "crates/b/src/lib.rs",
                "b",
                "pub struct Sink; impl Sink { pub fn send(&self) {} }",
            ),
        ]);
        let g = CallGraph::build(&fs);
        let go = g.find("a", Some("S"), "go").expect("go");
        let conn_send = g.find("a", Some("Conn"), "send").expect("conn send");
        let sink_send = g.find("b", Some("Sink"), "send").expect("sink send");
        assert!(g.callees(go).contains(&conn_send));
        assert!(
            !g.callees(go).contains(&sink_send),
            "field type must disambiguate"
        );
    }

    #[test]
    fn unknown_receiver_over_approximates() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "a",
            "pub struct X; impl X { pub fn ping(&self) {} }\n\
             pub fn f(v: &SomethingOpaque) { v.inner().ping(); }",
        )]);
        let g = CallGraph::build(&fs);
        let f = g.find("a", None, "f").expect("f");
        let ping = g.find("a", Some("X"), "ping").expect("ping");
        assert!(g.callees(f).contains(&ping));
    }
}
