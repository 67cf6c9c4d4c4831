//! Recursive-descent parser for the Rust subset the workspace uses.
//!
//! Consumes the cooked token stream from [`crate::scan`] and produces
//! the [`crate::ast`] tree. What is parsed past without being kept is
//! listed in the ast module; everything the analysis depends on —
//! call/method/field structure, lock scopes, closures — is kept.
//!
//! Errors carry `file:line:col` context. The workspace must parse
//! cleanly; a parse error is itself a lint failure.

use crate::ast::*;
use crate::scan::{SourceFile, Token};

/// Parser result: `Err` carries a `file:line:col message` string.
pub type PResult<T> = Result<T, String>;

/// Parses a lexed file into an AST [`File`].
pub fn parse_file(sf: &SourceFile, crate_name: &str) -> PResult<File> {
    let mut p = Parser {
        toks: &sf.tokens,
        pos: 0,
        path: &sf.rel_path,
    };
    let mut items = Vec::new();
    while !p.eof() {
        // Inner attributes (`#![...]`) are file metadata; skip them.
        if p.at("#") && p.nth_text(1) == "!" {
            p.bump();
            p.bump();
            p.expect("[")?;
            p.skip_balanced("[", "]")?;
            continue;
        }
        items.push(p.item()?);
    }
    Ok(File {
        rel_path: sf.rel_path.clone(),
        crate_name: crate_name.to_string(),
        items,
    })
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    path: &'a str,
}

/// Tokens that legally follow an omitted expression (`return;`, `&v[..]`).
const EXPR_TERMINATORS: &[&str] = &[";", "}", ")", "]", ","];

/// True for literal token texts: numbers, blanked string/char/byte
/// literals, and the boolean keywords.
fn is_lit_text(t: &str) -> bool {
    t.starts_with(|c: char| c.is_ascii_digit())
        || matches!(t, "\"\"" | "''" | "b\"\"" | "b''" | "true" | "false")
}

impl<'a> Parser<'a> {
    // -- cursor helpers ------------------------------------------------

    fn eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn text(&self) -> &'a str {
        self.toks
            .get(self.pos)
            .map(|t| t.text.as_str())
            .unwrap_or("")
    }

    fn nth_text(&self, n: usize) -> &'a str {
        self.toks
            .get(self.pos + n)
            .map(|t| t.text.as_str())
            .unwrap_or("")
    }

    fn at(&self, text: &str) -> bool {
        self.text() == text
    }

    fn span(&self) -> Span {
        self.peek()
            .map(|t| Span {
                line: t.line,
                col: t.col,
            })
            .unwrap_or_else(Span::zero)
    }

    fn bump(&mut self) -> &'a Token {
        let t = &self.toks[self.pos.min(self.toks.len() - 1)];
        self.pos += 1;
        t
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.at(text) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err<T>(&self, msg: &str) -> PResult<T> {
        let s = self.span();
        Err(format!(
            "{}:{}:{}: {msg} (found `{}`)",
            self.path,
            s.line,
            s.col,
            self.text()
        ))
    }

    fn expect(&mut self, text: &str) -> PResult<&'a Token> {
        if self.at(text) {
            Ok(self.bump())
        } else {
            self.err(&format!("expected `{text}`"))
        }
    }

    /// True when the current token is a plain (non-numeric) identifier.
    fn at_name(&self) -> bool {
        self.peek()
            .is_some_and(|t| t.is_ident && !t.text.starts_with(|c: char| c.is_ascii_digit()))
    }

    fn ident(&mut self) -> PResult<String> {
        if self.at_name() {
            Ok(self.bump().text.clone())
        } else {
            self.err("expected identifier")
        }
    }

    // -- token-run helpers --------------------------------------------

    /// Skips tokens until the close delimiter matching the *already
    /// consumed* `open` (one level deep on entry).
    fn skip_balanced(&mut self, open: &str, close: &str) -> PResult<()> {
        let mut depth = 1usize;
        while depth > 0 {
            if self.eof() {
                return self.err("unbalanced delimiters");
            }
            let t = self.bump();
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
            }
        }
        Ok(())
    }

    /// Skips a generic parameter list when positioned on `<`.
    fn skip_generics(&mut self) -> PResult<()> {
        if !self.at("<") {
            return Ok(());
        }
        self.bump();
        let mut depth = 1i32;
        while depth > 0 {
            if self.eof() {
                return self.err("unbalanced `<`");
            }
            match self.bump().text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                "<<" => depth += 2,
                ">>" => depth -= 2,
                _ => {}
            }
        }
        Ok(())
    }

    /// Skips a `where` clause up to (not including) `{` or `;`.
    fn skip_where(&mut self) -> PResult<()> {
        if !self.eat("where") {
            return Ok(());
        }
        let mut depth = 0i32;
        loop {
            if self.eof() {
                return self.err("unterminated where clause");
            }
            if depth == 0 && (self.at("{") || self.at(";")) {
                return Ok(());
            }
            match self.bump().text.as_str() {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => depth -= 1,
                "<<" => depth += 2,
                ">>" => depth -= 2,
                _ => {}
            }
        }
    }

    /// Collects a type as a raw token run. Stops at any of `stops` at
    /// bracket/angle depth 0, or when a closer would go negative.
    fn type_tokens(&mut self, stops: &[&str]) -> PResult<Vec<String>> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        loop {
            if self.eof() {
                return self.err("unterminated type");
            }
            let text = self.text();
            if depth == 0 && stops.contains(&text) {
                return Ok(out);
            }
            match text {
                "<" | "(" | "[" => depth += 1,
                "<<" => depth += 2,
                ">" | ")" | "]" => {
                    if depth == 0 {
                        return Ok(out);
                    }
                    depth -= 1;
                }
                ">>" => {
                    if depth <= 1 {
                        // Splitting `>>` across the run boundary never
                        // happens in this workspace's type positions.
                        if depth == 0 {
                            return Ok(out);
                        }
                        depth -= 2;
                    } else {
                        depth -= 2;
                    }
                }
                _ => {}
            }
            out.push(self.bump().text.clone());
        }
    }

    /// Skips one delimited token tree (a macro's arguments): on entry
    /// the cursor is at the opening delimiter.
    fn skip_token_tree(&mut self) -> PResult<()> {
        let (open, close) = match self.text() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return self.err("expected macro delimiter"),
        };
        self.bump();
        self.skip_balanced(open, close)
    }

    /// Skips the rest of an item that ends in `;` (`use`, `const`,
    /// `static`, `type`), stepping over any brackets on the way.
    fn skip_to_semi(&mut self) -> PResult<()> {
        let mut depth = 0usize;
        loop {
            if self.eof() {
                return self.err("unterminated item");
            }
            match self.bump().text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return Ok(()),
                _ => {}
            }
        }
    }

    // -- attributes & visibility --------------------------------------

    fn attrs(&mut self) -> PResult<Vec<Attr>> {
        let mut out = Vec::new();
        while self.at("#") && self.nth_text(1) == "[" {
            self.bump();
            self.bump();
            let mut depth = 1usize;
            let mut tokens = Vec::new();
            loop {
                if self.eof() {
                    return self.err("unbalanced attribute");
                }
                let t = self.bump();
                if t.text == "[" {
                    depth += 1;
                } else if t.text == "]" {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                tokens.push(t.text.clone());
            }
            out.push(Attr { tokens });
        }
        Ok(out)
    }

    /// Skips `pub` / `pub(crate)` / `pub(in path)`.
    fn skip_vis(&mut self) -> PResult<()> {
        if self.eat("pub") && self.eat("(") {
            self.skip_balanced("(", ")")?;
        }
        Ok(())
    }

    // -- items --------------------------------------------------------

    fn item(&mut self) -> PResult<Item> {
        let attrs = self.attrs()?;
        self.skip_vis()?;
        let kind = match self.text() {
            "fn" => ItemKind::Fn(self.fn_def()?),
            "struct" => self.struct_def()?,
            "impl" => self.impl_def()?,
            "trait" => self.trait_def()?,
            "mod" => self.mod_def()?,
            // `const fn` — constness is dropped (not analysis-relevant).
            "const" if self.nth_text(1) == "fn" => {
                self.bump();
                ItemKind::Fn(self.fn_def()?)
            }
            "use" | "const" | "static" | "type" => {
                self.skip_to_semi()?;
                ItemKind::Other
            }
            "enum" => {
                self.bump();
                self.ident()?;
                self.skip_generics()?;
                self.skip_where()?;
                self.expect("{")?;
                self.skip_balanced("{", "}")?;
                ItemKind::Other
            }
            // `path ! name? <token tree> ;?` (`macro_rules! x { .. }`,
            // `base_impls!(Usd, "USD");`).
            _ if self.at_name() => {
                self.ident()?;
                while self.eat("::") {
                    self.ident()?;
                }
                self.expect("!")?;
                if self.at_name() {
                    self.bump();
                }
                self.skip_token_tree()?;
                self.eat(";");
                ItemKind::Other
            }
            _ => return self.err("expected item"),
        };
        Ok(Item { attrs, kind })
    }

    fn fn_def(&mut self) -> PResult<FnDef> {
        self.expect("fn")?;
        let name = self.ident()?;
        self.skip_generics()?;
        self.expect("(")?;
        let mut params = Vec::new();
        while !self.at(")") {
            params.push(self.param()?);
            if !self.eat(",") {
                break;
            }
        }
        self.expect(")")?;
        if self.eat("->") {
            self.type_tokens(&["{", ";", "where"])?;
        }
        self.skip_where()?;
        let body = if self.eat(";") {
            None
        } else {
            Some(self.block()?)
        };
        Ok(FnDef { name, params, body })
    }

    fn param(&mut self) -> PResult<ParamDef> {
        // Self receivers: `self`, `mut self`, `&self`, `&mut self`,
        // `&'a self`.
        let save = self.pos;
        if self.eat("&") && self.at("'") {
            self.bump();
            self.bump();
        }
        self.eat("mut");
        if self.eat("self") {
            return Ok(ParamDef {
                pat: Pat {
                    names: vec!["self".to_string()],
                    is_binding: true,
                },
                ty: Vec::new(),
            });
        }
        self.pos = save;
        let pat = self.pat()?;
        let ty = if self.eat(":") {
            self.type_tokens(&[",", ")"])?
        } else {
            Vec::new()
        };
        Ok(ParamDef { pat, ty })
    }

    fn struct_def(&mut self) -> PResult<ItemKind> {
        self.expect("struct")?;
        let name = self.ident()?;
        self.skip_generics()?;
        self.skip_where()?;
        let mut fields = Vec::new();
        if self.eat(";") {
            return Ok(ItemKind::Struct { name, fields });
        }
        if self.eat("(") {
            while !self.at(")") {
                self.skip_vis()?;
                let ty = self.type_tokens(&[",", ")"])?;
                fields.push(FieldDef {
                    name: fields.len().to_string(),
                    ty,
                });
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(")")?;
            self.skip_where()?;
            self.expect(";")?;
            return Ok(ItemKind::Struct { name, fields });
        }
        self.expect("{")?;
        while !self.at("}") {
            // Field-level doc attrs.
            self.attrs()?;
            self.skip_vis()?;
            let fname = self.ident()?;
            self.expect(":")?;
            let ty = self.type_tokens(&[",", "}"])?;
            fields.push(FieldDef { name: fname, ty });
            if !self.eat(",") {
                break;
            }
        }
        self.expect("}")?;
        Ok(ItemKind::Struct { name, fields })
    }

    fn impl_def(&mut self) -> PResult<ItemKind> {
        self.expect("impl")?;
        self.skip_generics()?;
        let mut self_ty = self.type_tokens(&["for", "{", "where"])?;
        if self.eat("for") {
            // What came first was the trait.
            self_ty = self.type_tokens(&["{", "where"])?;
        }
        self.skip_where()?;
        let items = self.item_list()?;
        Ok(ItemKind::Impl { self_ty, items })
    }

    /// `{ item* }` — the body of an impl, trait or inline mod.
    fn item_list(&mut self) -> PResult<Vec<Item>> {
        self.expect("{")?;
        let mut items = Vec::new();
        while !self.at("}") {
            items.push(self.item()?);
        }
        self.expect("}")?;
        Ok(items)
    }

    fn trait_def(&mut self) -> PResult<ItemKind> {
        self.expect("trait")?;
        self.ident()?;
        self.skip_generics()?;
        if self.eat(":") {
            // Supertrait bounds — skip to the body.
            let mut depth = 0i32;
            while !(depth == 0 && (self.at("{") || self.at("where"))) {
                if self.eof() {
                    return self.err("unterminated trait bounds");
                }
                match self.bump().text.as_str() {
                    "<" | "(" => depth += 1,
                    ">" | ")" => depth -= 1,
                    _ => {}
                }
            }
        }
        self.skip_where()?;
        Ok(ItemKind::Scope(self.item_list()?))
    }

    fn mod_def(&mut self) -> PResult<ItemKind> {
        self.expect("mod")?;
        self.ident()?;
        if self.eat(";") {
            return Ok(ItemKind::Other);
        }
        Ok(ItemKind::Scope(self.item_list()?))
    }

    // -- blocks & statements ------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        let span = self.span();
        self.expect("{")?;
        let mut stmts = Vec::new();
        while !self.at("}") {
            stmts.extend(self.stmt()?);
        }
        self.expect("}")?;
        Ok(Block { stmts, span })
    }

    /// One statement; `None` for a stray `;` or a nested item.
    fn stmt(&mut self) -> PResult<Option<Stmt>> {
        if self.eat(";") {
            return Ok(None);
        }
        // Statement attributes are dropped: no analysis reads them.
        self.attrs()?;
        if self.at("let") {
            return self.let_stmt().map(Some);
        }
        const ITEM_STARTS: &[&str] = &[
            "fn", "struct", "enum", "impl", "trait", "mod", "use", "static", "pub",
        ];
        if ITEM_STARTS.contains(&self.text())
            || (self.at("const") && self.nth_text(2) == ":")
            || (self.at("type") && self.nth_text(2) == "=")
        {
            self.item()?;
            return Ok(None);
        }
        // Rust's statement rule: an expression statement that starts
        // with a block-like construct ends at its closing brace — no
        // binary or call/index postfix continuation (`if c {} *p += 2`
        // is two statements, `{ .. } (x)` likewise).
        let expr = match self.text() {
            "{" => Expr::Block(self.block()?),
            "if" => self.if_expr()?,
            "match" => self.match_expr()?,
            "while" | "loop" | "for" => self.loop_expr()?,
            "'" if self.nth_text(2) == ":" => self.labelled_loop()?,
            _ => self.expr(true)?,
        };
        self.eat(";");
        Ok(Some(Stmt::Expr { expr }))
    }

    fn let_stmt(&mut self) -> PResult<Stmt> {
        self.expect("let")?;
        let pat = self.pat()?;
        let ty = if self.eat(":") {
            Some(self.type_tokens(&["=", ";", "else"])?)
        } else {
            None
        };
        let init = if self.eat("=") {
            Some(self.expr(true)?)
        } else {
            None
        };
        let else_block = if self.eat("else") {
            Some(self.block()?)
        } else {
            None
        };
        self.expect(";")?;
        Ok(Stmt::Let {
            pat,
            ty,
            init,
            else_block,
        })
    }

    // -- patterns -----------------------------------------------------
    //
    // A pattern is parsed for where it ends and for the names it binds;
    // each helper pushes those onto `names` and returns whether what it
    // parsed was, as a whole, one plain binding.

    fn pat(&mut self) -> PResult<Pat> {
        let mut names = Vec::new();
        let is_binding = self.pat_into(&mut names)?;
        Ok(Pat { names, is_binding })
    }

    fn pat_into(&mut self, names: &mut Vec<String>) -> PResult<bool> {
        self.eat("|");
        let mut is_binding = self.pat_one(names)?;
        while self.eat("|") {
            self.pat_one(names)?;
            is_binding = false;
        }
        Ok(is_binding)
    }

    /// `p1, p2, ..` up to (and including) `close`. Returns the
    /// is-a-binding flag of a lone, comma-less element: `(x)` is `x`.
    fn pat_list(&mut self, close: &str, names: &mut Vec<String>) -> PResult<bool> {
        let mut count = 0;
        let mut lone = false;
        while !self.at(close) {
            let is_binding = self.pat_into(names)?;
            count += 1;
            let trailing = self.eat(",");
            lone = is_binding && count == 1 && !trailing;
            if !trailing {
                break;
            }
        }
        self.expect(close)?;
        Ok(lone)
    }

    fn pat_one(&mut self, names: &mut Vec<String>) -> PResult<bool> {
        match self.text() {
            "_" | ".." => {
                self.bump();
                Ok(false)
            }
            // Cooked `&&` in pattern position is two reference layers
            // (`|&&s| ...` over an `iter().copied()`-style double ref).
            "&" | "&&" => {
                self.bump();
                self.eat("mut");
                self.pat_one(names)?;
                Ok(false)
            }
            "(" => {
                self.bump();
                self.pat_list(")", names)
            }
            "[" => {
                self.bump();
                self.pat_list("]", names)?;
                Ok(false)
            }
            "ref" | "mut" => {
                self.eat("ref");
                self.eat("mut");
                names.push(self.ident()?);
                if self.eat("@") {
                    self.pat_one(names)?;
                }
                Ok(true)
            }
            "-" => {
                self.bump();
                self.bump();
                self.range_pat_tail()
            }
            t if is_lit_text(t) => {
                self.bump();
                self.range_pat_tail()
            }
            _ if self.at_name() => self.path_pat(names),
            _ => self.err("expected pattern"),
        }
    }

    /// After a literal pattern: an optional `..=hi` / `..hi` / `..`.
    fn range_pat_tail(&mut self) -> PResult<bool> {
        if self.eat("..=") || self.eat("..") {
            self.eat("-");
            if self.at_name() || self.text().starts_with(|c: char| c.is_ascii_digit()) {
                self.bump();
            }
        }
        Ok(false)
    }

    fn path_pat(&mut self, names: &mut Vec<String>) -> PResult<bool> {
        let name = self.ident()?;
        let mut qualified = false;
        while self.eat("::") {
            self.ident()?;
            qualified = true;
        }
        if self.eat("(") {
            self.pat_list(")", names)?;
            return Ok(false);
        }
        if self.eat("{") {
            while !self.at("}") {
                if self.eat("..") {
                    break;
                }
                // Shorthand may carry `ref`/`mut`.
                let shorthand_only = self.at("ref") || self.at("mut");
                self.eat("ref");
                self.eat("mut");
                let field = self.ident()?;
                if !shorthand_only && self.eat(":") {
                    self.pat_into(names)?;
                } else {
                    names.push(field);
                }
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("}")?;
            return Ok(false);
        }
        // Heuristic shared with rustc style: capitalized single
        // segments are unit variants/consts, lowercase are bindings.
        if qualified || name.starts_with(|c: char| c.is_uppercase()) {
            return Ok(false);
        }
        names.push(name);
        if self.eat("@") {
            self.pat_one(names)?;
        }
        Ok(true)
    }

    // -- expressions --------------------------------------------------

    /// Full expression; `allow_struct` gates `Path { .. }` literals
    /// (off inside `if`/`while`/`for`/`match` heads).
    fn expr(&mut self, allow_struct: bool) -> PResult<Expr> {
        let lhs = self.range_expr(allow_struct)?;
        const ASSIGN_OPS: &[&str] = &[
            "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
        ];
        if ASSIGN_OPS.contains(&self.text()) {
            self.bump();
            let rhs = self.expr(allow_struct)?;
            return Ok(Expr::Assign {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    /// Condition position: allows `let pat = expr`.
    fn cond_expr(&mut self) -> PResult<Expr> {
        if self.at("let") {
            self.bump();
            let pat = self.pat()?;
            self.expect("=")?;
            let expr = self.expr(false)?;
            return Ok(Expr::LetCond {
                pat,
                expr: Box::new(expr),
            });
        }
        self.expr(false)
    }

    fn range_expr(&mut self, allow_struct: bool) -> PResult<Expr> {
        let at_range = |p: &Self| p.at("..") || p.at("..=");
        let lo = if at_range(self) {
            None
        } else {
            let lo = self.binary_expr(0, allow_struct)?;
            if !at_range(self) {
                return Ok(lo);
            }
            Some(Box::new(lo))
        };
        self.bump();
        let hi = if EXPR_TERMINATORS.contains(&self.text()) || self.at("{") {
            None
        } else {
            Some(Box::new(self.binary_expr(0, allow_struct)?))
        };
        Ok(Expr::Range { lo, hi })
    }

    /// Binary operator tiers, loosest first.
    fn binary_expr(&mut self, tier: usize, allow_struct: bool) -> PResult<Expr> {
        const TIERS: &[&[&str]] = &[
            &["||"],
            &["&&"],
            &["==", "!=", "<", ">", "<=", ">="],
            &["|"],
            &["^"],
            &["&"],
            &["<<", ">>"],
            &["+", "-"],
            &["*", "/", "%"],
        ];
        if tier >= TIERS.len() {
            return self.cast_expr(allow_struct);
        }
        let mut lhs = self.binary_expr(tier + 1, allow_struct)?;
        while TIERS[tier].contains(&self.text()) {
            self.bump();
            let rhs = self.binary_expr(tier + 1, allow_struct)?;
            lhs = Expr::Binary {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn cast_expr(&mut self, allow_struct: bool) -> PResult<Expr> {
        let mut e = self.unary_expr(allow_struct)?;
        while self.eat("as") {
            // Cast targets in this workspace are plain paths with
            // optional generics — step over exactly that shape.
            self.ident()?;
            while self.eat("::") {
                self.ident()?;
            }
            self.skip_generics()?;
            e = Expr::Cast { expr: Box::new(e) };
        }
        Ok(e)
    }

    fn unary_expr(&mut self, allow_struct: bool) -> PResult<Expr> {
        let op = match self.text() {
            "-" | "!" | "*" => Some(self.bump().text.clone()),
            "&" => {
                self.bump();
                if self.eat("mut") {
                    Some("&mut".to_string())
                } else {
                    Some("&".to_string())
                }
            }
            _ => None,
        };
        match op {
            Some(op) => Ok(Expr::Unary {
                op,
                expr: Box::new(self.unary_expr(allow_struct)?),
            }),
            None => self.postfix_expr(allow_struct),
        }
    }

    fn postfix_expr(&mut self, allow_struct: bool) -> PResult<Expr> {
        let mut e = self.atom(allow_struct)?;
        loop {
            if self.at(".") {
                self.bump();
                let span = self.span();
                let t = self.bump();
                let name = t.text.clone();
                // Method turbofish: `.collect::<Vec<_>>()`.
                if self.at("::") && self.nth_text(1) == "<" {
                    self.bump();
                    self.skip_generics()?;
                }
                if self.at("(") {
                    self.bump();
                    let args = self.call_args()?;
                    e = Expr::MethodCall {
                        recv: Box::new(e),
                        method: name,
                        args,
                        span,
                    };
                } else {
                    e = Expr::Field {
                        recv: Box::new(e),
                        name,
                        span,
                    };
                }
            } else if self.at("(") {
                let span = self.span();
                self.bump();
                let args = self.call_args()?;
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                    span,
                };
            } else if self.at("[") {
                let span = self.span();
                self.bump();
                let index = self.expr(true)?;
                self.expect("]")?;
                e = Expr::Index {
                    recv: Box::new(e),
                    index: Box::new(index),
                    span,
                };
            } else if self.at("?") {
                self.bump();
                e = Expr::Try { expr: Box::new(e) };
            } else {
                return Ok(e);
            }
        }
    }

    fn call_args(&mut self) -> PResult<Vec<Expr>> {
        let mut args = Vec::new();
        while !self.at(")") {
            args.push(self.expr(true)?);
            if !self.eat(",") {
                break;
            }
        }
        self.expect(")")?;
        Ok(args)
    }

    /// After `return` / `break 'label?`: the optional value.
    fn jump_value(&mut self, allow_struct: bool) -> PResult<Option<Box<Expr>>> {
        if EXPR_TERMINATORS.contains(&self.text()) {
            Ok(None)
        } else {
            Ok(Some(Box::new(self.expr(allow_struct)?)))
        }
    }

    /// Skips a `'label` after `break` / `continue`.
    fn skip_label(&mut self) -> PResult<()> {
        if self.eat("'") {
            self.ident()?;
        }
        Ok(())
    }

    fn atom(&mut self, allow_struct: bool) -> PResult<Expr> {
        let span = self.span();
        match self.text() {
            "(" => {
                self.bump();
                let mut elems = Vec::new();
                let mut trailing = false;
                while !self.at(")") {
                    elems.push(self.expr(true)?);
                    trailing = self.eat(",");
                    if !trailing {
                        break;
                    }
                }
                self.expect(")")?;
                if elems.len() == 1 && !trailing {
                    // Grouping parens are dropped: the tree already
                    // says what they grouped.
                    #[expect(clippy::expect_used, reason = "the length is checked above")]
                    let grouped = elems.pop().expect("one element");
                    Ok(grouped)
                } else {
                    Ok(Expr::Tuple(elems))
                }
            }
            "[" => {
                self.bump();
                if self.eat("]") {
                    return Ok(Expr::Array(Vec::new()));
                }
                let first = self.expr(true)?;
                if self.eat(";") {
                    let len = self.expr(true)?;
                    self.expect("]")?;
                    return Ok(Expr::ArrayRepeat {
                        elem: Box::new(first),
                        len: Box::new(len),
                    });
                }
                let mut elems = vec![first];
                while self.eat(",") {
                    if self.at("]") {
                        break;
                    }
                    elems.push(self.expr(true)?);
                }
                self.expect("]")?;
                Ok(Expr::Array(elems))
            }
            "{" => Ok(Expr::Block(self.block()?)),
            "if" => self.if_expr(),
            "match" => self.match_expr(),
            "while" | "loop" | "for" => self.loop_expr(),
            "'" if self.nth_text(2) == ":" => self.labelled_loop(),
            "return" => {
                self.bump();
                Ok(Expr::Return {
                    expr: self.jump_value(allow_struct)?,
                })
            }
            "break" => {
                self.bump();
                self.skip_label()?;
                Ok(Expr::Break {
                    expr: self.jump_value(allow_struct)?,
                })
            }
            "continue" => {
                self.bump();
                self.skip_label()?;
                Ok(Expr::Continue)
            }
            "move" => {
                self.bump();
                self.closure(span)
            }
            "|" | "||" => self.closure(span),
            t if is_lit_text(t) => {
                self.bump();
                Ok(Expr::Lit { span })
            }
            _ if self.at_name() => self.path_expr(allow_struct, span),
            _ => self.err("expected expression"),
        }
    }

    fn closure(&mut self, span: Span) -> PResult<Expr> {
        if !self.eat("||") {
            self.expect("|")?;
            let mut params = Vec::new();
            while !self.at("|") {
                // `pat_one`, not `pat`: a top-level `|` here is the
                // closing delimiter, never an or-pattern separator.
                self.pat_one(&mut params)?;
                if self.eat(":") {
                    // Annotated closure param types are dropped.
                    self.type_tokens(&[",", "|"])?;
                }
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("|")?;
        }
        let body = if self.eat("->") {
            self.type_tokens(&["{"])?;
            Expr::Block(self.block()?)
        } else {
            self.expr(true)?
        };
        Ok(Expr::Closure {
            body: Box::new(body),
            span,
        })
    }

    fn if_expr(&mut self) -> PResult<Expr> {
        self.expect("if")?;
        let cond = self.cond_expr()?;
        let then = self.block()?;
        let else_ = if self.eat("else") {
            if self.at("if") {
                Some(Box::new(self.if_expr()?))
            } else {
                Some(Box::new(Expr::Block(self.block()?)))
            }
        } else {
            None
        };
        Ok(Expr::If {
            cond: Box::new(cond),
            then,
            else_,
        })
    }

    fn match_expr(&mut self) -> PResult<Expr> {
        let span = self.span();
        self.expect("match")?;
        let scrutinee = self.expr(false)?;
        self.expect("{")?;
        let mut arms = Vec::new();
        while !self.at("}") {
            self.attrs()?;
            self.pat()?;
            let guard = if self.eat("if") {
                Some(self.expr(true)?)
            } else {
                None
            };
            self.expect("=>")?;
            // A block arm body ends the arm — no postfix continuation
            // (`{ .. }` followed by `(None, _)` is the next arm's pattern).
            let body = if self.at("{") {
                Expr::Block(self.block()?)
            } else {
                self.expr(true)?
            };
            self.eat(",");
            arms.push(Arm { guard, body });
        }
        self.expect("}")?;
        Ok(Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            span,
        })
    }

    /// `'label: while|loop|for ..` — the label is dropped.
    fn labelled_loop(&mut self) -> PResult<Expr> {
        self.bump();
        self.ident()?;
        self.expect(":")?;
        self.loop_expr()
    }

    fn loop_expr(&mut self) -> PResult<Expr> {
        match self.text() {
            "while" => {
                self.bump();
                let cond = self.cond_expr()?;
                let body = self.block()?;
                Ok(Expr::While {
                    cond: Box::new(cond),
                    body,
                })
            }
            "loop" => {
                self.bump();
                let body = self.block()?;
                Ok(Expr::Loop { body })
            }
            "for" => {
                self.bump();
                self.pat()?;
                self.expect("in")?;
                let iter = self.expr(false)?;
                let body = self.block()?;
                Ok(Expr::For {
                    iter: Box::new(iter),
                    body,
                })
            }
            _ => self.err("expected loop"),
        }
    }

    fn path_expr(&mut self, allow_struct: bool, span: Span) -> PResult<Expr> {
        let mut segs = vec![self.ident()?];
        loop {
            if self.at("::") && self.nth_text(1) == "<" {
                // Turbofish — dropped.
                self.bump();
                self.skip_generics()?;
            } else if self.at("::") {
                self.bump();
                segs.push(self.ident()?);
            } else {
                break;
            }
        }
        // Macro invocation.
        if self.at("!") && matches!(self.nth_text(1), "(" | "[" | "{") {
            self.bump();
            self.skip_token_tree()?;
            return Ok(Expr::MacroCall { span });
        }
        // Struct literal.
        if allow_struct && self.at("{") {
            self.bump();
            let mut fields = Vec::new();
            let mut base = None;
            while !self.at("}") {
                if self.eat("..") {
                    base = Some(Box::new(self.expr(true)?));
                    break;
                }
                // Field-level attrs (`#[expect(...)] field: value`), then
                // the name (`Foo { 0: x }` has a number there).
                self.attrs()?;
                self.bump();
                if self.eat(":") {
                    fields.push(self.expr(true)?);
                }
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("}")?;
            return Ok(Expr::StructLit {
                segs,
                fields,
                base,
                span,
            });
        }
        Ok(Expr::Path { segs, span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> File {
        let sf = SourceFile::parse("test.rs", src);
        parse_file(&sf, "test").expect("parse")
    }

    /// The statements of `fn f() { <src> }`.
    fn body_of(src: &str) -> Vec<Stmt> {
        let mut f = parse_src(&format!("fn f() {{ {src} }}"));
        let ItemKind::Fn(fd) = f.items.remove(0).kind else {
            panic!("expected fn");
        };
        fd.body.expect("body").stmts
    }

    /// The expression of a one-statement body.
    fn expr_of(src: &str) -> Expr {
        match body_of(src).pop() {
            Some(Stmt::Expr { expr, .. }) => expr,
            other => panic!("expected expr stmt, got {other:?}"),
        }
    }

    #[test]
    fn parses_items_and_fns() {
        let f = parse_src(
            "pub struct S { pub a: u64, b: Vec<f64> }\n\
             impl S { pub fn get(&self, i: usize) -> f64 { self.b[i] } }",
        );
        assert_eq!(f.items.len(), 2);
        match &f.items[1].kind {
            ItemKind::Impl { items, .. } => assert_eq!(items.len(), 1),
            other => panic!("expected impl, got {other:?}"),
        }
    }

    #[test]
    fn expression_spans_are_exact() {
        let f = parse_src("fn f() {\n    x.lock().unwrap();\n}");
        let ItemKind::Fn(fd) = &f.items[0].kind else {
            panic!("expected fn");
        };
        let body = fd.body.as_ref().expect("body");
        let Stmt::Expr { expr, .. } = &body.stmts[0] else {
            panic!("expected expr stmt");
        };
        let Expr::MethodCall { method, span, .. } = expr else {
            panic!("expected method call");
        };
        assert_eq!(method, "unwrap");
        assert_eq!((span.line, span.col), (2, 14));
    }

    #[test]
    fn binary_precedence_and_associativity() {
        // Operators are not kept; the grouping they imply is.
        fn shape(e: &Expr) -> String {
            match e {
                Expr::Binary { lhs, rhs } => format!("({} {})", shape(lhs), shape(rhs)),
                Expr::Path { segs, .. } => segs.join("::"),
                other => panic!("unexpected operand {other:?}"),
            }
        }
        let shape_of = |src: &str| shape(&expr_of(src));
        assert_eq!(shape_of("a + b * c"), "(a (b c))");
        assert_eq!(shape_of("a * b + c"), "((a b) c)");
        assert_eq!(shape_of("a - b - c"), "((a b) c)");
        assert_eq!(shape_of("a || b && c == d"), "(a (b (c d)))");
    }

    /// An expression statement that starts with a block-like construct
    /// ends at its closing brace: what follows is the next statement,
    /// not a binary, call or index continuation of it.
    #[test]
    fn block_like_statements_end_at_their_brace() {
        let stmts = body_of(
            "if c {} *p += 2; for x in xs {} (a).b(); { g(); } (h)(); \
             match v { _ => {} } -1; while c {} [0][0]; loop {}",
        );
        let kinds: Vec<&str> = stmts
            .iter()
            .map(|s| match s {
                Stmt::Expr { expr, .. } => match expr {
                    Expr::If { .. } => "if",
                    Expr::Assign { .. } => "assign",
                    Expr::For { .. } => "for",
                    Expr::MethodCall { .. } => "method",
                    Expr::Block(_) => "block",
                    Expr::Call { .. } => "call",
                    Expr::Match { .. } => "match",
                    Expr::Unary { .. } => "unary",
                    Expr::While { .. } => "while",
                    Expr::Index { .. } => "index",
                    Expr::Loop { .. } => "loop",
                    other => panic!("unexpected statement {other:?}"),
                },
                other => panic!("unexpected statement {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "if", "assign", "for", "method", "block", "call", "match", "unary", "while",
                "index", "loop"
            ]
        );
    }

    #[test]
    fn match_arm_guards_are_kept() {
        let Expr::Match { arms, .. } = expr_of("match o { Some(x) if x > 0 => x, _ => 0 }") else {
            panic!("expected match");
        };
        assert!(matches!(arms[0].guard, Some(Expr::Binary { .. })));
        assert!(arms[1].guard.is_none());
    }

    #[test]
    fn let_else_and_nested_closures() {
        let stmts = body_of("let Some(x) = o else { return; }; g(|| h(|y| y + x));");
        let Stmt::Let {
            else_block: Some(diverge),
            ..
        } = &stmts[0]
        else {
            panic!("expected let-else, got {:?}", stmts[0]);
        };
        assert!(matches!(
            diverge.stmts[..],
            [Stmt::Expr {
                expr: Expr::Return { expr: None },
                ..
            }]
        ));
        // `g(|| h(|y| ..))`: each closure is the one argument of its call.
        let Stmt::Expr {
            expr: Expr::Call { args, .. },
            ..
        } = &stmts[1]
        else {
            panic!("expected call, got {:?}", stmts[1]);
        };
        let [Expr::Closure { body, .. }] = &args[..] else {
            panic!("expected one closure argument, got {args:?}");
        };
        let Expr::Call { args, .. } = &**body else {
            panic!("expected call body, got {body:?}");
        };
        assert!(matches!(
            &args[..],
            [Expr::Closure { body, .. }] if matches!(**body, Expr::Binary { .. })
        ));
    }

    #[test]
    fn turbofish_and_generics_are_dropped() {
        let stmts = body_of("let v = xs.iter().collect::<Vec<_>>(); Vec::<u64>::new();");
        let Stmt::Let {
            init: Some(Expr::MethodCall { method, args, .. }),
            ..
        } = &stmts[0]
        else {
            panic!("expected let with a method-call init, got {:?}", stmts[0]);
        };
        assert_eq!((method.as_str(), args.len()), ("collect", 0));
        let Stmt::Expr {
            expr: Expr::Call { callee, .. },
            ..
        } = &stmts[1]
        else {
            panic!("expected call, got {:?}", stmts[1]);
        };
        assert!(matches!(&**callee, Expr::Path { segs, .. } if segs == &["Vec", "new"]));
    }

    #[test]
    fn struct_lit_gating_in_conditions() {
        // `x` then `{` in an if-head must be the block, not a struct lit.
        let Expr::If { cond, then, else_ } =
            expr_of("if x { g(); } else if let Some(v) = m.get(&k) { h(v); }")
        else {
            panic!("expected if");
        };
        assert!(matches!(&*cond, Expr::Path { segs, .. } if segs == &["x"]));
        assert_eq!(then.stmts.len(), 1);
        let Some(Expr::If { cond, .. }) = else_.as_deref() else {
            panic!("expected else-if, got {else_:?}");
        };
        assert!(matches!(&**cond, Expr::LetCond { .. }));
    }
}
