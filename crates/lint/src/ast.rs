//! The AST for the Rust subset the workspace uses (DESIGN.md §14).
//!
//! The tree is deliberately *lossy where analyses don't care*: generic
//! parameter lists, where clauses, and turbofish type arguments are
//! dropped at parse time; types are kept as cooked token runs. What it
//! is **not** lossy about: item structure, visibility, attributes,
//! function signatures, and full expression trees for function bodies
//! (paths, calls, method calls, field accesses, indexing, closures,
//! control flow, struct literals, macro invocations as raw token trees).
//!
//! [`print_file`] renders a file back to parseable text. The printer is
//! canonical, not faithful: it space-separates tokens and parenthesizes
//! operands defensively. The contract — pinned by the golden tests in
//! `main.rs` — is the reparse fixpoint: `parse(print(ast)) == ast` for
//! every file of the workspace.

/// A 1-based (line, column) source position, exact w.r.t. raw source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line.
    pub line: usize,
    /// 1-based column (chars).
    pub col: usize,
}

impl Span {
    /// Spans never survive printing; equality of printed-and-reparsed
    /// trees must not depend on them.
    pub fn zero() -> Span {
        Span { line: 0, col: 0 }
    }
}

/// One parsed source file.
#[derive(Debug)]
pub struct File {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Cargo package the file belongs to (e.g. `vdx-exchanged`).
    pub crate_name: String,
    /// Top-level items.
    pub items: Vec<Item>,
}

/// An outer attribute, e.g. `#[cfg(test)]` as `["cfg", "(", "test", ")"]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// Cooked tokens between `#[` and the matching `]`.
    pub tokens: Vec<String>,
}

impl Attr {
    /// True for `#[test]`, `#[cfg(test)]`, and `#[cfg(any/all(.. test ..))]`.
    pub fn is_test_marker(&self) -> bool {
        match self.tokens.first().map(String::as_str) {
            Some("test") => self.tokens.len() == 1,
            Some("cfg") => self.tokens.iter().any(|t| t == "test"),
            _ => false,
        }
    }
}

/// Item visibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vis {
    /// No `pub`.
    Private,
    /// Bare `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)`, ... — the scope tokens are kept.
    Scoped(Vec<String>),
}

impl Vis {
    /// True for any `pub` form (`pub(crate)` counts as public: it
    /// still crosses module boundaries).
    pub fn is_pub(&self) -> bool {
        !matches!(self, Vis::Private)
    }
}

/// One item (module-level or nested in an impl/trait/mod/fn body).
#[derive(Debug, PartialEq)]
pub struct Item {
    /// Outer attributes.
    pub attrs: Vec<Attr>,
    /// Visibility.
    pub vis: Vis,
    /// The item proper.
    pub kind: ItemKind,
    /// Position of the item's leading keyword or name.
    pub span: Span,
}

impl Item {
    /// True when any attribute marks this item as test-only.
    pub fn is_test_only(&self) -> bool {
        self.attrs.iter().any(Attr::is_test_marker)
    }
}

/// Item payloads.
#[derive(Debug, PartialEq)]
pub enum ItemKind {
    /// `fn name(params) -> ret { body }` (or `;` body in traits).
    Fn(FnDef),
    /// `struct Name { fields }` / tuple struct / unit struct.
    Struct {
        /// Type name.
        name: String,
        /// Named fields; tuple-struct fields get numeric names.
        fields: Vec<FieldDef>,
        /// True for `struct T(..);` tuple form.
        tuple: bool,
    },
    /// `enum Name { variants }`.
    Enum {
        /// Type name.
        name: String,
        /// The variants.
        variants: Vec<VariantDef>,
    },
    /// `impl [Trait for] Type { items }`.
    Impl {
        /// Trait tokens when this is a trait impl.
        trait_tokens: Option<Vec<String>>,
        /// Self-type tokens.
        self_ty: Vec<String>,
        /// The impl's associated items.
        items: Vec<Item>,
    },
    /// `trait Name { items }`.
    Trait {
        /// Trait name.
        name: String,
        /// Associated items (fns may have no body).
        items: Vec<Item>,
    },
    /// `mod name { items }` or `mod name;`.
    Mod {
        /// Module name.
        name: String,
        /// `None` for `mod name;` declarations.
        items: Option<Vec<Item>>,
    },
    /// `use ...;` — raw token run.
    Use {
        /// Tokens between `use` and `;`.
        tokens: Vec<String>,
    },
    /// `const NAME: Ty = expr;`
    Const {
        /// Constant name.
        name: String,
        /// Type tokens.
        ty: Vec<String>,
        /// Initializer.
        value: Expr,
    },
    /// `static NAME: Ty = expr;`
    Static {
        /// Static name.
        name: String,
        /// Type tokens.
        ty: Vec<String>,
        /// Initializer.
        value: Expr,
    },
    /// `type Name = Ty;`
    TypeAlias {
        /// Alias name.
        name: String,
        /// Aliased type tokens (empty for bodyless associated types).
        ty: Vec<String>,
    },
    /// An item-position macro invocation, e.g. `macro_rules! x { ... }`
    /// or `base_impls!(Usd, "USD");` — raw token tree.
    MacroItem {
        /// Macro path (`macro_rules`, `proptest`, ...).
        path: Vec<String>,
        /// Everything inside the delimiters, cooked.
        tokens: Vec<String>,
    },
}

/// A function definition (free, associated, or trait method).
#[derive(Debug, PartialEq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameters (including a degenerate entry for `self` receivers).
    pub params: Vec<ParamDef>,
    /// Return-type tokens (empty when `()` implied).
    pub ret: Vec<String>,
    /// Body; `None` for trait-method declarations.
    pub body: Option<Block>,
    /// Position of the `fn` name.
    pub span: Span,
}

/// One function parameter.
#[derive(Debug, PartialEq)]
pub struct ParamDef {
    /// Binding pattern.
    pub pat: Pat,
    /// Type tokens (empty for `self` receivers).
    pub ty: Vec<String>,
    /// Position of the pattern start.
    pub span: Span,
}

impl ParamDef {
    /// The plain bound name when the pattern is a simple binding.
    pub fn name(&self) -> Option<&str> {
        match &self.pat {
            Pat::Ident { name, .. } => Some(name),
            _ => None,
        }
    }
}

/// A struct field.
#[derive(Debug, PartialEq)]
pub struct FieldDef {
    /// Field visibility.
    pub vis: Vis,
    /// Field name (tuple-struct positions get `"0"`, `"1"`, ...).
    pub name: String,
    /// Type tokens.
    pub ty: Vec<String>,
    /// Position of the field name.
    pub span: Span,
}

/// An enum variant.
#[derive(Debug, PartialEq)]
pub struct VariantDef {
    /// Variant name.
    pub name: String,
    /// Named-field payloads (`Variant { a: T }`); empty otherwise.
    pub fields: Vec<FieldDef>,
    /// Tuple payload type runs (`Variant(T, U)`); empty otherwise.
    pub tuple: Vec<Vec<String>>,
    /// Position of the variant name.
    pub span: Span,
}

/// A `{ ... }` block.
#[derive(Debug, PartialEq)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Position of the opening brace.
    pub span: Span,
}

/// One statement.
#[derive(Debug, PartialEq)]
pub enum Stmt {
    /// `let pat (: ty)? (= init (else block)?)? ;`
    Let {
        /// Binding pattern.
        pat: Pat,
        /// Optional type-annotation tokens.
        ty: Option<Vec<String>>,
        /// Optional initializer.
        init: Option<Expr>,
        /// let-else diverging block.
        else_block: Option<Block>,
        /// Position of `let`.
        span: Span,
    },
    /// An expression statement; `semi` records the trailing `;`.
    Expr {
        /// Statement-level attributes (`#[cfg(feature = "...")]` on a
        /// block or expression) — analyses use these to recognize
        /// feature-gated debug scaffolding.
        attrs: Vec<Attr>,
        /// The expression.
        expr: Expr,
        /// True when a `;` terminated it.
        semi: bool,
    },
    /// A nested item (fn, use, const, ... inside a block).
    Item(Box<Item>),
    /// A stray `;`.
    Empty,
}

/// A pattern.
#[derive(Debug, PartialEq)]
pub enum Pat {
    /// `_`
    Wild,
    /// `ref? mut? name (@ subpattern)?`
    Ident {
        /// Bound name.
        name: String,
        /// `ref` binding.
        by_ref: bool,
        /// `mut` binding.
        is_mut: bool,
        /// `name @ pat` sub-pattern.
        sub: Option<Box<Pat>>,
    },
    /// A path pattern: unit variant or const (`HealthState::Open`).
    Path {
        /// Path segments.
        segs: Vec<String>,
    },
    /// `Path(p1, p2)` tuple-struct pattern.
    TupleStruct {
        /// Path segments.
        segs: Vec<String>,
        /// Element patterns.
        elems: Vec<Pat>,
    },
    /// `Path { field: pat, shorthand, .. }` struct pattern.
    Struct {
        /// Path segments.
        segs: Vec<String>,
        /// `(field name, sub-pattern)`; `None` sub = shorthand binding.
        fields: Vec<(String, Option<Pat>)>,
        /// Trailing `..`.
        rest: bool,
    },
    /// `(p1, p2)` tuple pattern (also grouping parens when len 1).
    Tuple(Vec<Pat>),
    /// `& mut? pat`
    Ref {
        /// `&mut` vs `&`.
        is_mut: bool,
        /// Inner pattern.
        pat: Box<Pat>,
    },
    /// `[p1, p2, ..]` slice pattern.
    Slice(Vec<Pat>),
    /// A literal pattern (`1`, `""`, `-3`, `true`).
    Lit(String),
    /// `lo ..= hi` / `lo .. hi` range pattern (token texts).
    Range {
        /// Low endpoint literal/path text.
        lo: Option<String>,
        /// High endpoint literal/path text.
        hi: Option<String>,
        /// `..=` vs `..`.
        inclusive: bool,
    },
    /// `p1 | p2` or-pattern.
    Or(Vec<Pat>),
    /// `..` rest pattern.
    Rest,
}

impl Pat {
    /// Collects all names this pattern binds into `out`.
    pub fn bound_names<'p>(&'p self, out: &mut Vec<&'p str>) {
        match self {
            Pat::Ident { name, sub, .. } => {
                out.push(name);
                if let Some(s) = sub {
                    s.bound_names(out);
                }
            }
            Pat::TupleStruct { elems, .. } => {
                for p in elems {
                    p.bound_names(out);
                }
            }
            Pat::Struct { fields, .. } => {
                for (name, sub) in fields {
                    match sub {
                        Some(p) => p.bound_names(out),
                        None => out.push(name),
                    }
                }
            }
            Pat::Tuple(ps) | Pat::Or(ps) | Pat::Slice(ps) => {
                for p in ps {
                    p.bound_names(out);
                }
            }
            Pat::Ref { pat, .. } => pat.bound_names(out),
            Pat::Wild | Pat::Path { .. } | Pat::Lit(_) | Pat::Range { .. } | Pat::Rest => {}
        }
    }
}

/// A match arm.
#[derive(Debug, PartialEq)]
pub struct Arm {
    /// The arm pattern (an [`Pat::Or`] for `a | b` arms).
    pub pat: Pat,
    /// `if` guard.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// An expression.
#[derive(Debug, PartialEq)]
pub enum Expr {
    /// `a::b::c` (turbofish type arguments are dropped at parse time).
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Position of the first segment.
        span: Span,
    },
    /// A literal (`1`, `1.5`, `""`, `''`, `true`, `false`).
    Lit {
        /// Cooked token text.
        text: String,
        /// Position.
        span: Span,
    },
    /// `callee(args)`
    Call {
        /// Callee expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Position of the opening paren.
        span: Span,
    },
    /// `recv.method(args)` (method turbofish dropped).
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Position of the method name.
        span: Span,
    },
    /// `recv.field` / `recv.0`
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name or tuple index.
        name: String,
        /// Position of the field name.
        span: Span,
    },
    /// `recv[index]`
    Index {
        /// Receiver.
        recv: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Position of the opening bracket.
        span: Span,
    },
    /// `op expr` — ops: `-`, `!`, `*`, `&`, `&mut`.
    Unary {
        /// Operator text.
        op: String,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `lhs op rhs` for all binary operators.
    Binary {
        /// Operator text.
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs = rhs`, `lhs += rhs`, ...
    Assign {
        /// Operator text (`=`, `+=`, ...).
        op: String,
        /// Assignee.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// `expr as Ty`
    Cast {
        /// Value.
        expr: Box<Expr>,
        /// Target type tokens.
        ty: Vec<String>,
    },
    /// `lo .. hi`, `lo ..= hi`, `..`, `lo..`, `..hi`
    Range {
        /// Low endpoint.
        lo: Option<Box<Expr>>,
        /// High endpoint.
        hi: Option<Box<Expr>>,
        /// `..=` vs `..`.
        inclusive: bool,
    },
    /// `expr?`
    Try {
        /// Inner expression.
        expr: Box<Expr>,
    },
    /// `move? |params| body`
    Closure {
        /// `move` capture.
        is_move: bool,
        /// Parameter patterns (type annotations dropped).
        params: Vec<Pat>,
        /// Body expression.
        body: Box<Expr>,
        /// Position of the opening `|`.
        span: Span,
    },
    /// A block expression.
    Block(Block),
    /// `if cond { .. } else ..` (cond may be [`Expr::LetCond`]).
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then block.
        then: Block,
        /// `else` branch: a Block or another If.
        else_: Option<Box<Expr>>,
    },
    /// `let pat = expr` inside an `if`/`while` condition.
    LetCond {
        /// Pattern.
        pat: Pat,
        /// Scrutinee.
        expr: Box<Expr>,
    },
    /// `match scrutinee { arms }`
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
        /// Position of `match`.
        span: Span,
    },
    /// `('label:)? while cond { body }`
    While {
        /// Optional label.
        label: Option<String>,
        /// Condition (may be [`Expr::LetCond`]).
        cond: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// `('label:)? loop { body }`
    Loop {
        /// Optional label.
        label: Option<String>,
        /// Body.
        body: Block,
    },
    /// `('label:)? for pat in iter { body }`
    For {
        /// Optional label.
        label: Option<String>,
        /// Loop pattern.
        pat: Pat,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// `return expr?`
    Return {
        /// Returned value.
        expr: Option<Box<Expr>>,
    },
    /// `break 'label? expr?`
    Break {
        /// Loop label.
        label: Option<String>,
        /// Break value.
        expr: Option<Box<Expr>>,
    },
    /// `continue 'label?`
    Continue {
        /// Loop label.
        label: Option<String>,
    },
    /// `Path { field: expr, shorthand, ..base }`
    StructLit {
        /// Path segments.
        segs: Vec<String>,
        /// `(name, value)`; `None` value = shorthand.
        fields: Vec<(String, Option<Expr>)>,
        /// `..base` functional-update expression.
        base: Option<Box<Expr>>,
        /// Position of the path start.
        span: Span,
    },
    /// `(a, b)` tuple (never 1-tuple without trailing comma — plain
    /// parens are dropped at parse time).
    Tuple(Vec<Expr>),
    /// `[a, b, c]`
    Array(Vec<Expr>),
    /// `[elem; len]`
    ArrayRepeat {
        /// Element expression.
        elem: Box<Expr>,
        /// Length expression.
        len: Box<Expr>,
    },
    /// `path!(...)` / `path![...]` / `path! { ... }` — raw token tree.
    MacroCall {
        /// Macro path segments.
        segs: Vec<String>,
        /// Delimiter: `(`, `[`, or `{`.
        delim: char,
        /// Cooked tokens inside the delimiters.
        tokens: Vec<String>,
        /// Position of the macro path.
        span: Span,
    },
}

impl Expr {
    /// This expression's anchor position, best-effort.
    pub fn span(&self) -> Span {
        match self {
            Expr::Path { span, .. }
            | Expr::Lit { span, .. }
            | Expr::Call { span, .. }
            | Expr::MethodCall { span, .. }
            | Expr::Field { span, .. }
            | Expr::Index { span, .. }
            | Expr::Closure { span, .. }
            | Expr::Match { span, .. }
            | Expr::StructLit { span, .. }
            | Expr::MacroCall { span, .. } => *span,
            Expr::Unary { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Try { expr }
            | Expr::LetCond { expr, .. } => expr.span(),
            Expr::Binary { lhs, .. } | Expr::Assign { lhs, .. } => lhs.span(),
            Expr::Block(b) => b.span,
            Expr::If { then, .. } => then.span,
            Expr::While { body, .. } | Expr::Loop { body, .. } | Expr::For { body, .. } => {
                body.span
            }
            Expr::Range { lo, hi, .. } => lo
                .as_deref()
                .or(hi.as_deref())
                .map(Expr::span)
                .unwrap_or_else(Span::zero),
            Expr::Return { expr } => expr.as_deref().map(Expr::span).unwrap_or_else(Span::zero),
            Expr::Break { expr, .. } => expr.as_deref().map(Expr::span).unwrap_or_else(Span::zero),
            Expr::Continue { .. } => Span::zero(),
            Expr::Tuple(es) | Expr::Array(es) => {
                es.first().map(Expr::span).unwrap_or_else(Span::zero)
            }
            Expr::ArrayRepeat { elem, .. } => elem.span(),
        }
    }
}

// ---------------------------------------------------------------------
// Walkers
// ---------------------------------------------------------------------

/// Pre-order walk of every expression in a block (including nested
/// blocks, closures, and initializers of nested `const` items).
pub fn walk_block<'a>(b: &'a Block, visit: &mut dyn FnMut(&'a Expr)) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    walk_expr(e, visit);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr(expr, visit),
            Stmt::Item(item) => {
                if let ItemKind::Const { value, .. } | ItemKind::Static { value, .. } = &item.kind {
                    walk_expr(value, visit);
                }
            }
            Stmt::Empty => {}
        }
    }
}

/// Pre-order walk: `visit(e)` first, then all sub-expressions.
pub fn walk_expr<'a>(e: &'a Expr, visit: &mut dyn FnMut(&'a Expr)) {
    visit(e);
    match e {
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Continue { .. } | Expr::MacroCall { .. } => {}
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, visit);
            for a in args {
                walk_expr(a, visit);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_expr(recv, visit);
            for a in args {
                walk_expr(a, visit);
            }
        }
        Expr::Field { recv, .. } => walk_expr(recv, visit),
        Expr::Index { recv, index, .. } => {
            walk_expr(recv, visit);
            walk_expr(index, visit);
        }
        Expr::Unary { expr, .. }
        | Expr::Cast { expr, .. }
        | Expr::Try { expr }
        | Expr::LetCond { expr, .. } => walk_expr(expr, visit),
        Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, visit);
            walk_expr(rhs, visit);
        }
        Expr::Range { lo, hi, .. } => {
            if let Some(lo) = lo {
                walk_expr(lo, visit);
            }
            if let Some(hi) = hi {
                walk_expr(hi, visit);
            }
        }
        Expr::Closure { body, .. } => walk_expr(body, visit),
        Expr::Block(b) => walk_block(b, visit),
        Expr::If { cond, then, else_ } => {
            walk_expr(cond, visit);
            walk_block(then, visit);
            if let Some(else_) = else_ {
                walk_expr(else_, visit);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            walk_expr(scrutinee, visit);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, visit);
                }
                walk_expr(&arm.body, visit);
            }
        }
        Expr::While { cond, body, .. } => {
            walk_expr(cond, visit);
            walk_block(body, visit);
        }
        Expr::Loop { body, .. } => walk_block(body, visit),
        Expr::For { iter, body, .. } => {
            walk_expr(iter, visit);
            walk_block(body, visit);
        }
        Expr::Return { expr } => {
            if let Some(e) = expr {
                walk_expr(e, visit);
            }
        }
        Expr::Break { expr, .. } => {
            if let Some(e) = expr {
                walk_expr(e, visit);
            }
        }
        Expr::StructLit { fields, base, .. } => {
            for (_, v) in fields {
                if let Some(v) = v {
                    walk_expr(v, visit);
                }
            }
            if let Some(b) = base {
                walk_expr(b, visit);
            }
        }
        Expr::Tuple(es) | Expr::Array(es) => {
            for e in es {
                walk_expr(e, visit);
            }
        }
        Expr::ArrayRepeat { elem, len } => {
            walk_expr(elem, visit);
            walk_expr(len, visit);
        }
    }
}

// ---------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------

#[cfg_attr(not(test), allow(unused_imports))]
pub use printer::print_file;

/// Canonical-text printer for parsed files. Its consumers are the
/// golden parse → print → reparse fixpoint tests (and parser
/// debugging); it is not on the lint hot path, hence the dead-code
/// tolerance outside test builds.
#[cfg_attr(not(test), allow(dead_code))]
mod printer {
    use super::*;
    use std::fmt::Write as _;

    /// Emits `tokens` space-separated into `out`. A bare `'` (lifetime
    /// sigil) joins to the following token — printing it detached would
    /// make [`crate::scan::sanitize`] read `' ` as a char-literal opener
    /// and blank everything up to the next quote.
    fn put_tokens(out: &mut String, tokens: &[String]) {
        for t in tokens {
            if t == "'" {
                out.push('\'');
            } else {
                let _ = write!(out, "{t} ");
            }
        }
    }

    fn put_vis(out: &mut String, vis: &Vis) {
        match vis {
            Vis::Private => {}
            Vis::Pub => out.push_str("pub "),
            Vis::Scoped(toks) => {
                out.push_str("pub ( ");
                put_tokens(out, toks);
                out.push_str(") ");
            }
        }
    }

    fn put_attrs(out: &mut String, attrs: &[Attr]) {
        for a in attrs {
            out.push_str("# [ ");
            put_tokens(out, &a.tokens);
            out.push_str("] ");
        }
    }

    /// Renders a whole file back to parseable canonical text.
    pub fn print_file(file: &File) -> String {
        let mut out = String::new();
        for item in &file.items {
            print_item(&mut out, item);
        }
        out
    }

    /// Renders one item.
    pub fn print_item(out: &mut String, item: &Item) {
        put_attrs(out, &item.attrs);
        put_vis(out, &item.vis);
        match &item.kind {
            ItemKind::Fn(f) => print_fn(out, f),
            ItemKind::Struct {
                name,
                fields,
                tuple,
            } => {
                let _ = write!(out, "struct {name} ");
                if *tuple {
                    out.push_str("( ");
                    for (i, f) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        put_vis(out, &f.vis);
                        put_tokens(out, &f.ty);
                    }
                    out.push_str(") ; ");
                } else if fields.is_empty() {
                    out.push_str("; ");
                } else {
                    out.push_str("{ ");
                    for f in fields {
                        put_vis(out, &f.vis);
                        let _ = write!(out, "{} : ", f.name);
                        put_tokens(out, &f.ty);
                        out.push_str(", ");
                    }
                    out.push_str("} ");
                }
            }
            ItemKind::Enum { name, variants } => {
                let _ = write!(out, "enum {name} {{ ");
                for v in variants {
                    let _ = write!(out, "{} ", v.name);
                    if !v.fields.is_empty() {
                        out.push_str("{ ");
                        for f in &v.fields {
                            let _ = write!(out, "{} : ", f.name);
                            put_tokens(out, &f.ty);
                            out.push_str(", ");
                        }
                        out.push_str("} ");
                    } else if !v.tuple.is_empty() {
                        out.push_str("( ");
                        for (i, ty) in v.tuple.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            put_tokens(out, ty);
                        }
                        out.push_str(") ");
                    }
                    out.push_str(", ");
                }
                out.push_str("} ");
            }
            ItemKind::Impl {
                trait_tokens,
                self_ty,
                items,
            } => {
                out.push_str("impl ");
                if let Some(tr) = trait_tokens {
                    put_tokens(out, tr);
                    out.push_str("for ");
                }
                put_tokens(out, self_ty);
                out.push_str("{ ");
                for it in items {
                    print_item(out, it);
                }
                out.push_str("} ");
            }
            ItemKind::Trait { name, items } => {
                let _ = write!(out, "trait {name} {{ ");
                for it in items {
                    print_item(out, it);
                }
                out.push_str("} ");
            }
            ItemKind::Mod { name, items } => match items {
                Some(items) => {
                    let _ = write!(out, "mod {name} {{ ");
                    for it in items {
                        print_item(out, it);
                    }
                    out.push_str("} ");
                }
                None => {
                    let _ = write!(out, "mod {name} ; ");
                }
            },
            ItemKind::Use { tokens } => {
                out.push_str("use ");
                put_tokens(out, tokens);
                out.push_str("; ");
            }
            ItemKind::Const { name, ty, value } => {
                let _ = write!(out, "const {name} : ");
                put_tokens(out, ty);
                out.push_str("= ");
                print_expr(out, value);
                out.push_str("; ");
            }
            ItemKind::Static { name, ty, value } => {
                let _ = write!(out, "static {name} : ");
                put_tokens(out, ty);
                out.push_str("= ");
                print_expr(out, value);
                out.push_str("; ");
            }
            ItemKind::TypeAlias { name, ty } => {
                let _ = write!(out, "type {name} ");
                if ty.is_empty() {
                    out.push_str("; ");
                } else {
                    out.push_str("= ");
                    put_tokens(out, ty);
                    out.push_str("; ");
                }
            }
            ItemKind::MacroItem { path, tokens } => {
                for (i, s) in path.iter().enumerate() {
                    if i > 0 {
                        out.push_str(":: ");
                    }
                    let _ = write!(out, "{s} ");
                }
                out.push_str("! { ");
                put_tokens(out, tokens);
                out.push_str("} ");
            }
        }
    }

    fn print_fn(out: &mut String, f: &FnDef) {
        let _ = write!(out, "fn {} ( ", f.name);
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            print_pat(out, &p.pat);
            if !p.ty.is_empty() {
                out.push_str(": ");
                put_tokens(out, &p.ty);
            }
        }
        out.push_str(") ");
        if !f.ret.is_empty() {
            out.push_str("-> ");
            put_tokens(out, &f.ret);
        }
        match &f.body {
            Some(b) => print_block(out, b),
            None => out.push_str("; "),
        }
    }

    fn print_block(out: &mut String, b: &Block) {
        out.push_str("{ ");
        for s in &b.stmts {
            print_stmt(out, s);
        }
        out.push_str("} ");
    }

    fn print_stmt(out: &mut String, s: &Stmt) {
        match s {
            Stmt::Let {
                pat,
                ty,
                init,
                else_block,
                ..
            } => {
                out.push_str("let ");
                print_pat(out, pat);
                if let Some(ty) = ty {
                    out.push_str(": ");
                    put_tokens(out, ty);
                }
                if let Some(init) = init {
                    out.push_str("= ");
                    print_expr(out, init);
                }
                if let Some(eb) = else_block {
                    out.push_str("else ");
                    print_block(out, eb);
                }
                out.push_str("; ");
            }
            Stmt::Expr { attrs, expr, semi } => {
                put_attrs(out, attrs);
                print_expr(out, expr);
                if *semi {
                    out.push_str("; ");
                }
            }
            Stmt::Item(it) => print_item(out, it),
            Stmt::Empty => out.push_str("; "),
        }
    }

    fn print_pat(out: &mut String, p: &Pat) {
        match p {
            Pat::Wild => out.push_str("_ "),
            Pat::Ident {
                name,
                by_ref,
                is_mut,
                sub,
            } => {
                if *by_ref {
                    out.push_str("ref ");
                }
                if *is_mut {
                    out.push_str("mut ");
                }
                let _ = write!(out, "{name} ");
                if let Some(sub) = sub {
                    out.push_str("@ ");
                    print_pat(out, sub);
                }
            }
            Pat::Path { segs } => put_path(out, segs),
            Pat::TupleStruct { segs, elems } => {
                put_path(out, segs);
                out.push_str("( ");
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    print_pat(out, e);
                }
                out.push_str(") ");
            }
            Pat::Struct { segs, fields, rest } => {
                put_path(out, segs);
                out.push_str("{ ");
                for (i, (name, sub)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{name} ");
                    if let Some(sub) = sub {
                        out.push_str(": ");
                        print_pat(out, sub);
                    }
                }
                if *rest {
                    if !fields.is_empty() {
                        out.push_str(", ");
                    }
                    out.push_str(".. ");
                }
                out.push_str("} ");
            }
            Pat::Tuple(ps) => {
                out.push_str("( ");
                for (i, e) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    print_pat(out, e);
                }
                if ps.len() == 1 {
                    out.push_str(", ");
                }
                out.push_str(") ");
            }
            Pat::Ref { is_mut, pat } => {
                out.push_str("& ");
                if *is_mut {
                    out.push_str("mut ");
                }
                print_pat(out, pat);
            }
            Pat::Slice(ps) => {
                out.push_str("[ ");
                for (i, e) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    print_pat(out, e);
                }
                out.push_str("] ");
            }
            Pat::Lit(text) => {
                let _ = write!(out, "{text} ");
            }
            Pat::Range { lo, hi, inclusive } => {
                if let Some(lo) = lo {
                    let _ = write!(out, "{lo} ");
                }
                out.push_str(if *inclusive { "..= " } else { ".. " });
                if let Some(hi) = hi {
                    let _ = write!(out, "{hi} ");
                }
            }
            Pat::Or(ps) => {
                for (i, e) in ps.iter().enumerate() {
                    if i > 0 {
                        out.push_str("| ");
                    }
                    print_pat(out, e);
                }
            }
            Pat::Rest => out.push_str(".. "),
        }
    }

    fn put_path(out: &mut String, segs: &[String]) {
        for (i, s) in segs.iter().enumerate() {
            if i > 0 {
                out.push_str(":: ");
            }
            let _ = write!(out, "{s} ");
        }
    }

    /// Renders one expression. Operands of compound expressions are wrapped
    /// in parentheses defensively; the parser drops grouping parens, so the
    /// reparse yields the identical tree.
    pub fn print_expr(out: &mut String, e: &Expr) {
        match e {
            Expr::Path { segs, .. } => put_path(out, segs),
            Expr::Lit { text, .. } => {
                let _ = write!(out, "{text} ");
            }
            Expr::Call { callee, args, .. } => {
                print_operand(out, callee);
                out.push_str("( ");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    print_expr(out, a);
                }
                out.push_str(") ");
            }
            Expr::MethodCall {
                recv, method, args, ..
            } => {
                print_operand(out, recv);
                let _ = write!(out, ". {method} ( ");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    print_expr(out, a);
                }
                out.push_str(") ");
            }
            Expr::Field { recv, name, .. } => {
                print_operand(out, recv);
                let _ = write!(out, ". {name} ");
            }
            Expr::Index { recv, index, .. } => {
                print_operand(out, recv);
                out.push_str("[ ");
                print_expr(out, index);
                out.push_str("] ");
            }
            Expr::Unary { op, expr } => {
                let _ = write!(out, "{} ", if op == "&mut" { "& mut" } else { op });
                print_operand(out, expr);
            }
            Expr::Binary { op, lhs, rhs } => {
                print_operand(out, lhs);
                let _ = write!(out, "{op} ");
                print_operand(out, rhs);
            }
            Expr::Assign { op, lhs, rhs } => {
                print_operand(out, lhs);
                let _ = write!(out, "{op} ");
                print_operand(out, rhs);
            }
            Expr::Cast { expr, ty } => {
                print_operand(out, expr);
                out.push_str("as ");
                put_tokens(out, ty);
            }
            Expr::Range { lo, hi, inclusive } => {
                if let Some(lo) = lo {
                    print_operand(out, lo);
                }
                out.push_str(if *inclusive { "..= " } else { ".. " });
                if let Some(hi) = hi {
                    print_operand(out, hi);
                }
            }
            Expr::Try { expr } => {
                print_operand(out, expr);
                out.push_str("? ");
            }
            Expr::Closure {
                is_move,
                params,
                body,
                ..
            } => {
                if *is_move {
                    out.push_str("move ");
                }
                out.push_str("| ");
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    print_pat(out, p);
                }
                out.push_str("| ");
                print_expr(out, body);
            }
            Expr::Block(b) => print_block(out, b),
            Expr::If { cond, then, else_ } => {
                out.push_str("if ");
                print_expr(out, cond);
                print_block(out, then);
                if let Some(else_) = else_ {
                    out.push_str("else ");
                    print_expr(out, else_);
                }
            }
            Expr::LetCond { pat, expr } => {
                out.push_str("let ");
                print_pat(out, pat);
                out.push_str("= ");
                print_operand(out, expr);
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                out.push_str("match ");
                print_expr(out, scrutinee);
                out.push_str("{ ");
                for arm in arms {
                    print_pat(out, &arm.pat);
                    if let Some(g) = &arm.guard {
                        out.push_str("if ");
                        print_expr(out, g);
                    }
                    out.push_str("=> ");
                    print_expr(out, &arm.body);
                    out.push_str(", ");
                }
                out.push_str("} ");
            }
            Expr::While { label, cond, body } => {
                if let Some(l) = label {
                    let _ = write!(out, "'{l} : ");
                }
                out.push_str("while ");
                print_expr(out, cond);
                print_block(out, body);
            }
            Expr::Loop { label, body } => {
                if let Some(l) = label {
                    let _ = write!(out, "'{l} : ");
                }
                out.push_str("loop ");
                print_block(out, body);
            }
            Expr::For {
                label,
                pat,
                iter,
                body,
            } => {
                if let Some(l) = label {
                    let _ = write!(out, "'{l} : ");
                }
                out.push_str("for ");
                print_pat(out, pat);
                out.push_str("in ");
                print_expr(out, iter);
                print_block(out, body);
            }
            Expr::Return { expr } => {
                out.push_str("return ");
                if let Some(e) = expr {
                    print_expr(out, e);
                }
            }
            Expr::Break { label, expr } => {
                out.push_str("break ");
                if let Some(l) = label {
                    let _ = write!(out, "'{l} ");
                }
                if let Some(e) = expr {
                    print_expr(out, e);
                }
            }
            Expr::Continue { label } => {
                out.push_str("continue ");
                if let Some(l) = label {
                    let _ = write!(out, "'{l} ");
                }
            }
            Expr::StructLit {
                segs, fields, base, ..
            } => {
                put_path(out, segs);
                out.push_str("{ ");
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{name} ");
                    if let Some(v) = value {
                        out.push_str(": ");
                        print_expr(out, v);
                    }
                }
                if let Some(b) = base {
                    if !fields.is_empty() {
                        out.push_str(", ");
                    }
                    out.push_str(".. ");
                    print_expr(out, b);
                }
                out.push_str("} ");
            }
            Expr::Tuple(es) => {
                out.push_str("( ");
                for (i, a) in es.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    print_expr(out, a);
                }
                if es.len() == 1 {
                    out.push_str(", ");
                }
                out.push_str(") ");
            }
            Expr::Array(es) => {
                out.push_str("[ ");
                for (i, a) in es.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    print_expr(out, a);
                }
                out.push_str("] ");
            }
            Expr::ArrayRepeat { elem, len } => {
                out.push_str("[ ");
                print_expr(out, elem);
                out.push_str("; ");
                print_expr(out, len);
                out.push_str("] ");
            }
            Expr::MacroCall {
                segs,
                delim,
                tokens,
                ..
            } => {
                put_path(out, segs);
                out.push_str("! ");
                let (open, close) = match delim {
                    '[' => ("[ ", "] "),
                    '{' => ("{ ", "} "),
                    _ => ("( ", ") "),
                };
                out.push_str(open);
                put_tokens(out, tokens);
                out.push_str(close);
            }
        }
    }

    /// Prints a sub-expression operand, parenthesized unless it is already
    /// atomic (a path, literal, or postfix chain that binds tightest).
    fn print_operand(out: &mut String, e: &Expr) {
        let atomic = matches!(
            e,
            Expr::Path { .. }
                | Expr::Lit { .. }
                | Expr::Call { .. }
                | Expr::MethodCall { .. }
                | Expr::Field { .. }
                | Expr::Index { .. }
                | Expr::Try { .. }
                | Expr::Tuple(_)
                | Expr::Array(_)
                | Expr::ArrayRepeat { .. }
                | Expr::Block(_)
                | Expr::MacroCall { .. }
                | Expr::StructLit { .. }
                | Expr::LetCond { .. }
        );
        if atomic {
            print_expr(out, e);
        } else {
            out.push_str("( ");
            print_expr(out, e);
            out.push_str(") ");
        }
    }
}
