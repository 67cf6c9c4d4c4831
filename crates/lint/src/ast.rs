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
//! Nothing renders a tree back to text. The parser that builds it is
//! pinned by shape assertions in `parse.rs`'s tests, by the fixture
//! crate's exact-span findings and by the workspace's allowlists (an
//! entry whose site stops parsing goes stale) — DESIGN.md §14.

/// A 1-based (line, column) source position, exact w.r.t. raw source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line.
    pub line: usize,
    /// 1-based column (chars).
    pub col: usize,
}

impl Span {
    /// The position of an expression that has none of its own (a bare
    /// `return`, an empty tuple).
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
        /// Statement-level attributes (`#[cfg(debug_assertions)]` on a
        /// block or expression) — analyses use these to recognize
        /// debug-only scaffolding.
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
