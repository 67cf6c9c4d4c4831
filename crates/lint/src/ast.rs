//! The AST for the Rust subset the workspace uses (DESIGN.md §14), cut
//! to what the call graph and the two analyses read.
//!
//! Kept: item structure as far as it names functions and typed fields
//! (fns, structs, impls, and the items nested in traits and inline
//! mods), attributes, parameter and `let` types as cooked token runs,
//! and full expression trees for function bodies (paths, calls, method
//! calls, field accesses, indexing, closures, control flow, struct
//! literals). Parsed past and dropped: visibility, generics, where
//! clauses, turbofish, return types, operators, labels, literal text,
//! macro token trees, every item kind not listed above, and patterns
//! beyond the names they bind.
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
#[derive(Debug)]
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

/// One item (module-level or nested in an impl/trait/mod).
#[derive(Debug)]
pub struct Item {
    /// Outer attributes.
    pub attrs: Vec<Attr>,
    /// The item proper.
    pub kind: ItemKind,
}

impl Item {
    /// True when any attribute marks this item as test-only.
    pub fn is_test_only(&self) -> bool {
        self.attrs.iter().any(Attr::is_test_marker)
    }
}

/// Item payloads.
#[derive(Debug)]
pub enum ItemKind {
    /// `fn name(params) { body }` (or `;` body in traits).
    Fn(FnDef),
    /// `struct Name { fields }` / tuple struct / unit struct.
    Struct {
        /// Type name.
        name: String,
        /// Named fields; tuple-struct fields get numeric names.
        fields: Vec<FieldDef>,
    },
    /// `impl [Trait for] Type { items }`.
    Impl {
        /// Self-type tokens.
        self_ty: Vec<String>,
        /// The impl's associated items.
        items: Vec<Item>,
    },
    /// `trait Name { items }` or `mod name { items }`: the items one
    /// level down, which is all the call graph asks of either.
    Scope(Vec<Item>),
    /// Anything else — enum, use, const, static, type alias, `mod
    /// name;`, item-position macro — parsed past, nothing kept.
    Other,
}

/// A function definition (free, associated, or trait method).
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameters (including a degenerate entry for `self` receivers).
    pub params: Vec<ParamDef>,
    /// Body; `None` for trait-method declarations.
    pub body: Option<Block>,
}

/// One function parameter.
#[derive(Debug)]
pub struct ParamDef {
    /// Binding pattern.
    pub pat: Pat,
    /// Type tokens (empty for `self` receivers).
    pub ty: Vec<String>,
}

/// A struct field.
#[derive(Debug)]
pub struct FieldDef {
    /// Field name (tuple-struct positions get `"0"`, `"1"`, ...).
    pub name: String,
    /// Type tokens.
    pub ty: Vec<String>,
}

/// A `{ ... }` block.
#[derive(Debug)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Position of the opening brace.
    pub span: Span,
}

/// One statement. A nested item (`fn`, `use`, `const`, ... inside a
/// block) is parsed past and leaves nothing: its body is not part of
/// the enclosing function's.
#[derive(Debug)]
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
    },
    /// An expression statement.
    Expr {
        /// Statement-level attributes (`#[cfg(debug_assertions)]` on a
        /// block or expression) — `panic-path` uses these to recognize
        /// debug-only scaffolding.
        attrs: Vec<Attr>,
        /// The expression.
        expr: Expr,
    },
}

/// A pattern, reduced to the names it binds.
#[derive(Debug)]
pub struct Pat {
    /// Every name the pattern binds, in source order.
    pub names: Vec<String>,
    /// True when the whole pattern is one binding (`x`, `mut x`,
    /// `ref x`, `x @ ..`): the first name then names the value itself.
    pub is_binding: bool,
}

impl Pat {
    /// The bound name when the pattern is a plain binding.
    pub fn binding(&self) -> Option<&str> {
        match self.names.first() {
            Some(name) if self.is_binding => Some(name),
            _ => None,
        }
    }
}

/// A match arm (its pattern is parsed past).
#[derive(Debug)]
pub struct Arm {
    /// `if` guard.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// An expression.
#[derive(Debug)]
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
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs = rhs`, `lhs += rhs`, ...
    Assign {
        /// Assignee.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// `expr as Ty`
    Cast {
        /// Value.
        expr: Box<Expr>,
    },
    /// `lo .. hi`, `lo ..= hi`, `..`, `lo..`, `..hi`
    Range {
        /// Low endpoint.
        lo: Option<Box<Expr>>,
        /// High endpoint.
        hi: Option<Box<Expr>>,
    },
    /// `expr?`
    Try {
        /// Inner expression.
        expr: Box<Expr>,
    },
    /// `move? |params| body`
    Closure {
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
    /// `while cond { body }`
    While {
        /// Condition (may be [`Expr::LetCond`]).
        cond: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// `loop { body }`
    Loop {
        /// Body.
        body: Block,
    },
    /// `for pat in iter { body }`
    For {
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
        /// Break value.
        expr: Option<Box<Expr>>,
    },
    /// `continue 'label?`
    Continue,
    /// `Path { field: expr, shorthand, ..base }`
    StructLit {
        /// Path segments.
        segs: Vec<String>,
        /// The explicit field values (a shorthand field has none).
        fields: Vec<Expr>,
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
    /// `path!(...)` / `path![...]` / `path! { ... }` — an opaque leaf:
    /// no analysis looks inside a macro invocation.
    MacroCall {
        /// Position of the macro path.
        span: Span,
    },
}

impl Expr {
    /// This expression's anchor position, best-effort.
    pub fn span(&self) -> Span {
        match self {
            Expr::Path { span, .. }
            | Expr::Lit { span }
            | Expr::Call { span, .. }
            | Expr::MethodCall { span, .. }
            | Expr::Field { span, .. }
            | Expr::Index { span, .. }
            | Expr::Closure { span, .. }
            | Expr::Match { span, .. }
            | Expr::StructLit { span, .. }
            | Expr::MacroCall { span } => *span,
            Expr::Unary { expr, .. }
            | Expr::Cast { expr }
            | Expr::Try { expr }
            | Expr::LetCond { expr, .. } => expr.span(),
            Expr::Binary { lhs, .. } | Expr::Assign { lhs, .. } => lhs.span(),
            Expr::Block(b) => b.span,
            Expr::If { then, .. } => then.span,
            Expr::While { body, .. } | Expr::Loop { body } | Expr::For { body, .. } => body.span,
            Expr::Range { lo, hi } => lo
                .as_deref()
                .or(hi.as_deref())
                .map(Expr::span)
                .unwrap_or_else(Span::zero),
            Expr::Return { expr } | Expr::Break { expr } => {
                expr.as_deref().map(Expr::span).unwrap_or_else(Span::zero)
            }
            Expr::Continue => Span::zero(),
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
/// blocks, closures and `let … else` blocks).
pub fn walk_block<'a>(b: &'a Block, visit: &mut dyn FnMut(&'a Expr)) {
    walk_block_if(b, &|_| true, visit);
}

/// [`walk_block`] over the statements `keep` accepts, at every depth.
pub fn walk_block_if<'a>(
    b: &'a Block,
    keep: &dyn Fn(&Stmt) -> bool,
    visit: &mut dyn FnMut(&'a Expr),
) {
    for s in b.stmts.iter().filter(|s| keep(s)) {
        match s {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    walk_expr_if(e, keep, visit);
                }
                if let Some(eb) = else_block {
                    walk_block_if(eb, keep, visit);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr_if(expr, keep, visit),
        }
    }
}

/// Pre-order walk: `visit(e)` first, then all sub-expressions.
pub fn walk_expr<'a>(e: &'a Expr, visit: &mut dyn FnMut(&'a Expr)) {
    walk_expr_if(e, &|_| true, visit);
}

fn walk_expr_if<'a>(e: &'a Expr, keep: &dyn Fn(&Stmt) -> bool, visit: &mut dyn FnMut(&'a Expr)) {
    visit(e);
    match e {
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Continue | Expr::MacroCall { .. } => {}
        Expr::Call { callee, args, .. } => {
            walk_expr_if(callee, keep, visit);
            for a in args {
                walk_expr_if(a, keep, visit);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_expr_if(recv, keep, visit);
            for a in args {
                walk_expr_if(a, keep, visit);
            }
        }
        Expr::Field { recv, .. } => walk_expr_if(recv, keep, visit),
        Expr::Index { recv, index, .. } => {
            walk_expr_if(recv, keep, visit);
            walk_expr_if(index, keep, visit);
        }
        Expr::Unary { expr, .. }
        | Expr::Cast { expr }
        | Expr::Try { expr }
        | Expr::LetCond { expr, .. } => walk_expr_if(expr, keep, visit),
        Expr::Binary { lhs, rhs } | Expr::Assign { lhs, rhs } => {
            walk_expr_if(lhs, keep, visit);
            walk_expr_if(rhs, keep, visit);
        }
        Expr::Range { lo, hi } => {
            if let Some(lo) = lo {
                walk_expr_if(lo, keep, visit);
            }
            if let Some(hi) = hi {
                walk_expr_if(hi, keep, visit);
            }
        }
        Expr::Closure { body, .. } => walk_expr_if(body, keep, visit),
        Expr::Block(b) => walk_block_if(b, keep, visit),
        Expr::If { cond, then, else_ } => {
            walk_expr_if(cond, keep, visit);
            walk_block_if(then, keep, visit);
            if let Some(else_) = else_ {
                walk_expr_if(else_, keep, visit);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            walk_expr_if(scrutinee, keep, visit);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr_if(g, keep, visit);
                }
                walk_expr_if(&arm.body, keep, visit);
            }
        }
        Expr::While { cond, body } => {
            walk_expr_if(cond, keep, visit);
            walk_block_if(body, keep, visit);
        }
        Expr::Loop { body } => walk_block_if(body, keep, visit),
        Expr::For { iter, body } => {
            walk_expr_if(iter, keep, visit);
            walk_block_if(body, keep, visit);
        }
        Expr::Return { expr } | Expr::Break { expr } => {
            if let Some(e) = expr {
                walk_expr_if(e, keep, visit);
            }
        }
        Expr::StructLit { fields, base, .. } => {
            for v in fields {
                walk_expr_if(v, keep, visit);
            }
            if let Some(b) = base {
                walk_expr_if(b, keep, visit);
            }
        }
        Expr::Tuple(es) | Expr::Array(es) => {
            for e in es {
                walk_expr_if(e, keep, visit);
            }
        }
        Expr::ArrayRepeat { elem, len } => {
            walk_expr_if(elem, keep, visit);
            walk_expr_if(len, keep, visit);
        }
    }
}
