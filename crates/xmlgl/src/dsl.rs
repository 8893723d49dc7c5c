//! The GQL DSL — a textual concrete syntax for XML-GL diagrams.
//!
//! Since this reproduction replaces the interactive diagram editor with a
//! programmatic model, the DSL is the human-writable projection of a
//! diagram; it round-trips losslessly ([`parse`] ∘ [`print()`](fn@print) = id up to
//! formatting). Shape of the syntax:
//!
//! ```text
//! rule {
//!   extract {
//!     book as $b {                      # element box, bound to $b
//!       @year as $y >= "2000"           # filled circle (attribute) + predicate
//!       title { text as $t }            # box + hollow circle (content)
//!       deep section                    # asterisk edge (any depth)
//!       not errata                      # crossed-out edge (negation)
//!     }
//!     person as $p [ first last ]       # [ ] = ordered containment
//!     join $t == $p                     # shared node (deep-equal join)
//!   }
//!   construct {
//!     result {
//!       all $b                          # triangle
//!       all $b group by $y as year-group  # list icon
//!       count($b) "books"               # aggregate + literal text
//!       @source = "bib.xml"             # constructed attribute
//!       copy $t                         # one instance per binding
//!     }
//!   }
//! }
//! ```
//!
//! `#` starts a line comment. Predicates chain with `and`/`or`
//! (`text >= "16" and <= "20"`, `text = "a" or = "b"`). The identifier
//! `text` is reserved for content circles; query elements named literally
//! `text` can be matched with a wildcard box plus predicates.

use crate::ast::{
    AggFunc, CNode, CNodeId, CNodeKind, CValue, CmpOp, ConstructGraph, ExtractGraph, NameTest,
    Predicate, Program, QEdge, QNode, QNodeId, QNodeKind, Rule, Span,
};
use crate::{Result, XmlGlError};
use gql_ssdm::xml::{MAX_QUERY_DEPTH, MAX_QUERY_WIDTH};

// ----------------------------------------------------------------------
// Lexer
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Var(String),
    Str(String),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    At,
    Assign,
    EqEq,
    Op(CmpOp),
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("'{s}'"),
            Tok::Var(v) => format!("${v}"),
            Tok::Str(s) => format!("\"{s}\""),
            Tok::LBrace => "'{'".into(),
            Tok::RBrace => "'}'".into(),
            Tok::LBracket => "'['".into(),
            Tok::RBracket => "']'".into(),
            Tok::LParen => "'('".into(),
            Tok::RParen => "')'".into(),
            Tok::At => "'@'".into(),
            Tok::Assign => "'='".into(),
            Tok::EqEq => "'=='".into(),
            Tok::Op(op) => format!("'{}'", op.symbol()),
        }
    }
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '*' || c == '.'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | '*' | ':')
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> XmlGlError {
        XmlGlError::Syntax {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn tokenize(mut self) -> Result<Vec<(Tok, u32, u32)>> {
        let mut out = Vec::new();
        loop {
            // Skip whitespace, separators and comments.
            loop {
                match self.peek() {
                    Some(c) if c.is_whitespace() || c == ';' || c == ',' => {
                        self.bump();
                    }
                    Some('#') => {
                        while matches!(self.peek(), Some(c) if c != '\n') {
                            self.bump();
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else { break };
            let tok = match c {
                '{' => {
                    self.bump();
                    Tok::LBrace
                }
                '}' => {
                    self.bump();
                    Tok::RBrace
                }
                '[' => {
                    self.bump();
                    Tok::LBracket
                }
                ']' => {
                    self.bump();
                    Tok::RBracket
                }
                '(' => {
                    self.bump();
                    Tok::LParen
                }
                ')' => {
                    self.bump();
                    Tok::RParen
                }
                '@' => {
                    self.bump();
                    Tok::At
                }
                '$' => {
                    self.bump();
                    let mut name = String::new();
                    while matches!(self.peek(), Some(c) if is_ident_char(c)) {
                        name.push(self.bump().expect("peeked"));
                    }
                    if name.is_empty() {
                        return Err(self.err("expected a variable name after '$'"));
                    }
                    Tok::Var(name)
                }
                '"' | '\'' => {
                    let quote = c;
                    self.bump();
                    let mut s = String::new();
                    loop {
                        match self.bump() {
                            Some(c) if c == quote => break,
                            Some('\\') => match self.bump() {
                                Some(e @ ('"' | '\'' | '\\')) => s.push(e),
                                Some('n') => s.push('\n'),
                                Some(other) => {
                                    return Err(self.err(format!("bad escape '\\{other}'")))
                                }
                                None => return Err(self.err("unterminated string")),
                            },
                            Some(c) => s.push(c),
                            None => return Err(self.err("unterminated string")),
                        }
                    }
                    Tok::Str(s)
                }
                '=' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        Tok::EqEq
                    } else {
                        Tok::Assign
                    }
                }
                '!' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        Tok::Op(CmpOp::Ne)
                    } else {
                        return Err(self.err("lone '!'"));
                    }
                }
                '<' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        Tok::Op(CmpOp::Le)
                    } else {
                        Tok::Op(CmpOp::Lt)
                    }
                }
                '>' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        Tok::Op(CmpOp::Ge)
                    } else {
                        Tok::Op(CmpOp::Gt)
                    }
                }
                c if is_ident_start(c) => {
                    let mut s = String::new();
                    while matches!(self.peek(), Some(c) if is_ident_char(c)) {
                        s.push(self.bump().expect("peeked"));
                    }
                    Tok::Ident(s)
                }
                other => return Err(self.err(format!("unexpected character '{other}'"))),
            };
            out.push((tok, line, col));
        }
        Ok(out)
    }
}

// ----------------------------------------------------------------------
// Parser
// ----------------------------------------------------------------------

/// Parse a GQL DSL program and run the well-formedness checks.
pub fn parse(src: &str) -> Result<Program> {
    let program = parse_unchecked(src)?;
    crate::check::check_program(&program)?;
    Ok(program)
}

/// Parse without running the well-formedness checks. This is the static
/// analyzer's entry point: it wants the AST of ill-formed programs so it
/// can report *all* their problems as structured diagnostics, not just the
/// first one as a parse failure. A root box is one level deep and a box in
/// its body one deeper; a program whose extract or construct part nests
/// past [`MAX_QUERY_DEPTH`] levels is refused, and so is one with an
/// extract box of more than [`MAX_QUERY_WIDTH`] child boxes or an extract
/// part of more than [`MAX_QUERY_WIDTH`] root boxes.
pub fn parse_unchecked(src: &str) -> Result<Program> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut rules = Vec::new();
    while !p.eof() {
        rules.push(p.parse_rule()?);
    }
    if rules.is_empty() {
        return Err(XmlGlError::Syntax {
            line: 1,
            col: 1,
            msg: "empty program".into(),
        });
    }
    Ok(Program { rules })
}

/// Parse a single rule (must be exactly one).
pub fn parse_rule(src: &str) -> Result<Rule> {
    let mut program = parse(src)?;
    if program.rules.len() != 1 {
        return Err(XmlGlError::Syntax {
            line: 1,
            col: 1,
            msg: format!("expected exactly one rule, found {}", program.rules.len()),
        });
    }
    Ok(program.rules.remove(0))
}

struct Parser {
    tokens: Vec<(Tok, u32, u32)>,
    pos: usize,
    /// Boxes open around the current token, the one being parsed included.
    depth: usize,
}

impl Parser {
    fn eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Source position of the token about to be consumed.
    fn here(&self) -> Span {
        self.tokens
            .get(self.pos)
            .map_or(Span::none(), |(_, l, c)| Span::new(*l, *c))
    }

    fn err_here(&self, msg: impl Into<String>) -> XmlGlError {
        let (line, col) = self
            .tokens
            .get(self.pos)
            .map_or((0, 0), |(_, l, c)| (*l, *c));
        XmlGlError::Syntax {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _, _)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|(t, _, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err_here(format!(
                "expected {}, found {}",
                t.describe(),
                self.peek().map_or("end of input".into(), Tok::describe)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!(
                "expected '{kw}', found {}",
                self.peek().map_or("end of input".into(), Tok::describe)
            )))
        }
    }

    fn expect_var(&mut self) -> Result<String> {
        match self.peek() {
            Some(Tok::Var(v)) => {
                let v = v.clone();
                self.pos += 1;
                Ok(v)
            }
            other => Err(self.err_here(format!(
                "expected a $variable, found {}",
                other.map_or("end of input".into(), |t| t.describe())
            ))),
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err_here(format!(
                "expected a name, found {}",
                other.map_or("end of input".into(), |t| t.describe())
            ))),
        }
    }

    fn parse_rule(&mut self) -> Result<Rule> {
        let span = self.here();
        self.expect_keyword("rule")?;
        self.expect(&Tok::LBrace)?;
        self.expect_keyword("extract")?;
        self.expect(&Tok::LBrace)?;
        let mut extract = ExtractGraph::default();
        let mut joins: Vec<(String, String)> = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if self.eat_keyword("join") {
                let a = self.expect_var()?;
                self.expect(&Tok::EqEq)?;
                let b = self.expect_var()?;
                joins.push((a, b));
            } else {
                self.within_width(extract.roots.len(), "extract part", "root")?;
                let root = self.parse_qnode(&mut extract)?;
                extract.roots.push(root);
            }
        }
        for (a, b) in joins {
            let qa = extract
                .by_var(&a)
                .ok_or_else(|| self.err_here(format!("join references unknown variable ${a}")))?;
            let qb = extract
                .by_var(&b)
                .ok_or_else(|| self.err_here(format!("join references unknown variable ${b}")))?;
            extract.joins.push((qa, qb));
        }
        self.expect_keyword("construct")?;
        self.expect(&Tok::LBrace)?;
        let mut construct = ConstructGraph::default();
        while !self.eat(&Tok::RBrace) {
            let root = self.parse_cnode(&mut construct, &extract)?;
            construct.roots.push(root);
        }
        self.expect(&Tok::RBrace)?;
        Ok(Rule {
            extract,
            construct,
            span,
        })
    }

    /// Run `f` one box deeper: a box nested past [`MAX_QUERY_DEPTH`] in
    /// the extract or the construct part is refused, by name.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.depth += 1;
        let out = if self.depth > MAX_QUERY_DEPTH {
            Err(self.err_here(format!(
                "box nested deeper than {MAX_QUERY_DEPTH} levels (xml::MAX_QUERY_DEPTH)"
            )))
        } else {
            f(self)
        };
        self.depth -= 1;
        out
    }

    /// Refuse, by name, a `what` that already has [`MAX_QUERY_WIDTH`]
    /// `boxes` boxes and is about to get another.
    fn within_width(&self, have: usize, what: &str, boxes: &str) -> Result<()> {
        match have < MAX_QUERY_WIDTH {
            true => Ok(()),
            false => Err(self.err_here(format!(
                "{what} with more than {MAX_QUERY_WIDTH} {boxes} boxes (xml::MAX_QUERY_WIDTH)"
            ))),
        }
    }

    /// Parse one query node (with optional binding, predicate, body).
    fn parse_qnode(&mut self, g: &mut ExtractGraph) -> Result<QNodeId> {
        self.nested(|p| p.parse_qnode_inner(g))
    }

    fn parse_qnode_inner(&mut self, g: &mut ExtractGraph) -> Result<QNodeId> {
        let span = self.here();
        let kind = if self.eat(&Tok::At) {
            QNodeKind::Attribute(self.expect_ident()?)
        } else {
            match self.bump() {
                Some(Tok::Ident(s)) if s == "text" => QNodeKind::Text,
                Some(Tok::Ident(s)) if s == "*" => QNodeKind::Element(NameTest::Wildcard),
                Some(Tok::Ident(s)) => QNodeKind::Element(NameTest::Name(s)),
                other => {
                    return Err(self.err_here(format!(
                        "expected an element name, '@attr' or 'text', found {}",
                        other.map_or("end of input".into(), |t| t.describe())
                    )))
                }
            }
        };
        let var = if self.eat_keyword("as") {
            Some(self.expect_var()?)
        } else {
            None
        };
        let predicate = self.parse_predicate()?;
        let id = g.add(QNode {
            kind,
            var,
            predicate,
            children: Vec::new(),
            span,
        });
        // Body.
        let (open, close, ordered) = if self.peek() == Some(&Tok::LBrace) {
            (Tok::LBrace, Tok::RBrace, false)
        } else if self.peek() == Some(&Tok::LBracket) {
            (Tok::LBracket, Tok::RBracket, true)
        } else {
            return Ok(id);
        };
        self.expect(&open)?;
        g.ordered[id.index()] = ordered;
        let mut edges = Vec::new();
        while !self.eat(&close) {
            let mut deep = false;
            let mut negated = false;
            loop {
                if self.eat_keyword("deep") {
                    deep = true;
                } else if self.eat_keyword("not") {
                    negated = true;
                } else {
                    break;
                }
            }
            self.within_width(edges.len(), "box", "child")?;
            let child = self.parse_qnode(g)?;
            edges.push(QEdge {
                target: child,
                deep,
                negated,
            });
        }
        g.node_mut(id).children = edges;
        Ok(id)
    }

    /// Optional predicate chain: `op value (('and'|'or') op value)*`.
    fn parse_predicate(&mut self) -> Result<Predicate> {
        let mut pred = Predicate::always();
        let Some(first) = self.try_parse_cmp()? else {
            return Ok(pred);
        };
        pred = pred.and(first.0, first.1);
        loop {
            if self.eat_keyword("and") {
                let (op, v) = self.require_cmp()?;
                pred = pred.and(op, v);
            } else if self.eat_keyword("or") {
                let (op, v) = self.require_cmp()?;
                pred = pred.or(op, v);
            } else {
                return Ok(pred);
            }
        }
    }

    fn try_parse_cmp(&mut self) -> Result<Option<(CmpOp, String)>> {
        let op = match self.peek() {
            Some(Tok::Op(op)) => {
                let op = *op;
                self.bump();
                op
            }
            Some(Tok::Assign) => {
                self.bump();
                CmpOp::Eq
            }
            Some(Tok::Ident(s)) if s == "contains" => {
                self.bump();
                CmpOp::Contains
            }
            Some(Tok::Ident(s)) if s == "starts-with" => {
                self.bump();
                CmpOp::StartsWith
            }
            _ => return Ok(None),
        };
        let value = match self.bump() {
            Some(Tok::Str(s)) => s,
            Some(Tok::Ident(s)) if s.chars().all(|c| c.is_ascii_digit() || c == '.') => s,
            other => {
                return Err(self.err_here(format!(
                    "expected a string or number after comparison, found {}",
                    other.map_or("end of input".into(), |t| t.describe())
                )))
            }
        };
        Ok(Some((op, value)))
    }

    fn require_cmp(&mut self) -> Result<(CmpOp, String)> {
        self.try_parse_cmp()?
            .ok_or_else(|| self.err_here("expected a comparison after 'and'/'or'"))
    }

    /// Parse one construct node, stamping its source position.
    fn parse_cnode(&mut self, g: &mut ConstructGraph, q: &ExtractGraph) -> Result<CNodeId> {
        let span = self.here();
        let id = self.nested(|p| p.parse_cnode_inner(g, q))?;
        g.node_mut(id).span = span;
        Ok(id)
    }

    fn parse_cnode_inner(&mut self, g: &mut ConstructGraph, q: &ExtractGraph) -> Result<CNodeId> {
        let resolve = |p: &Parser, var: &str| -> Result<QNodeId> {
            q.by_var(var)
                .ok_or_else(|| p.err_here(format!("unknown variable ${var} on construct side")))
        };
        // Literal text.
        if let Some(Tok::Str(_)) = self.peek() {
            let Some(Tok::Str(s)) = self.bump() else {
                unreachable!("peeked a string")
            };
            return Ok(g.add(CNode::new(CNodeKind::Text(s))));
        }
        // Attribute: @name = value.
        if self.eat(&Tok::At) {
            let name = self.expect_ident()?;
            self.expect(&Tok::Assign)?;
            let value = match self.bump() {
                Some(Tok::Str(s)) => CValue::Literal(s),
                Some(Tok::Var(v)) => CValue::Binding(resolve(self, &v)?),
                other => {
                    return Err(self.err_here(format!(
                        "expected a string or $variable for the attribute value, found {}",
                        other.map_or("end of input".into(), |t| t.describe())
                    )))
                }
            };
            return Ok(g.add(CNode::new(CNodeKind::Attribute { name, value })));
        }
        let ident = self.expect_ident()?;
        // Aggregates: count($v) etc.
        if let Some(func) = AggFunc::from_name(&ident) {
            if self.peek() == Some(&Tok::LParen) {
                self.bump();
                let v = self.expect_var()?;
                self.expect(&Tok::RParen)?;
                return Ok(g.add(CNode::new(CNodeKind::Aggregate {
                    func,
                    source: resolve(self, &v)?,
                })));
            }
        }
        match ident.as_str() {
            "copy" => {
                let v = self.expect_var()?;
                Ok(g.add(CNode::new(CNodeKind::Copy {
                    source: resolve(self, &v)?,
                    deep: true,
                })))
            }
            "shallow-copy" => {
                let v = self.expect_var()?;
                Ok(g.add(CNode::new(CNodeKind::Copy {
                    source: resolve(self, &v)?,
                    deep: false,
                })))
            }
            "all" => {
                let v = self.expect_var()?;
                let source = resolve(self, &v)?;
                if self.eat_keyword("group") {
                    self.expect_keyword("by")?;
                    let k = self.expect_var()?;
                    self.expect_keyword("as")?;
                    let wrapper = self.expect_ident()?;
                    Ok(g.add(CNode::new(CNodeKind::GroupBy {
                        source,
                        key: resolve(self, &k)?,
                        wrapper,
                    })))
                } else if self.eat_keyword("order") {
                    self.expect_keyword("by")?;
                    let k = self.expect_var()?;
                    let descending = self.eat_keyword("desc");
                    Ok(g.add(CNode::new(CNodeKind::All {
                        source,
                        order: Some(crate::ast::SortSpec {
                            key: resolve(self, &k)?,
                            descending,
                        }),
                    })))
                } else {
                    Ok(g.add(CNode::new(CNodeKind::All {
                        source,
                        order: None,
                    })))
                }
            }
            name => {
                // An element with optional body.
                let id = g.add(CNode::new(CNodeKind::Element(name.to_string())));
                if self.eat(&Tok::LBrace) {
                    let mut kids = Vec::new();
                    while !self.eat(&Tok::RBrace) {
                        kids.push(self.parse_cnode(g, q)?);
                    }
                    g.node_mut(id).children = kids;
                }
                Ok(id)
            }
        }
    }
}

// ----------------------------------------------------------------------
// Printer
// ----------------------------------------------------------------------

/// Print a program back to DSL text (canonical formatting).
pub fn print(program: &Program) -> String {
    let mut out = String::new();
    for rule in &program.rules {
        print_rule(rule, &mut out);
    }
    out
}

fn print_rule(rule: &Rule, out: &mut String) {
    out.push_str("rule {\n  extract {\n");
    for &root in &rule.extract.roots {
        print_qnode(&rule.extract, root, 2, out);
    }
    for &(a, b) in &rule.extract.joins {
        let name = |q: QNodeId| {
            rule.extract
                .node(q)
                .var
                .clone()
                .unwrap_or_else(|| format!("q{}", q.0))
        };
        out.push_str(&format!("    join ${} == ${}\n", name(a), name(b)));
    }
    out.push_str("  }\n  construct {\n");
    for &root in &rule.construct.roots {
        print_cnode(rule, root, 2, out);
    }
    out.push_str("  }\n}\n");
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level + 1 {
        out.push_str("  ");
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn print_qnode(g: &ExtractGraph, id: QNodeId, level: usize, out: &mut String) {
    let n = g.node(id);
    indent(out, level);
    match &n.kind {
        QNodeKind::Element(t) => out.push_str(&t.to_string()),
        QNodeKind::Text => out.push_str("text"),
        QNodeKind::Attribute(a) => {
            out.push('@');
            out.push_str(a);
        }
    }
    if let Some(v) = &n.var {
        out.push_str(&format!(" as ${v}"));
    }
    if !n.predicate.is_trivial() {
        for (i, clause) in n.predicate.clauses.iter().enumerate() {
            for (j, (op, val)) in clause.iter().enumerate() {
                if i > 0 && j == 0 {
                    out.push_str(" and");
                } else if j > 0 {
                    out.push_str(" or");
                }
                out.push_str(&format!(" {} {}", op.symbol(), quote(val)));
            }
        }
    }
    if n.children.is_empty() {
        out.push('\n');
        return;
    }
    let ordered = g.ordered[id.index()];
    out.push_str(if ordered { " [\n" } else { " {\n" });
    for e in &n.children {
        if e.deep || e.negated {
            indent(out, level + 1);
            if e.deep {
                out.push_str("deep ");
            }
            if e.negated {
                out.push_str("not ");
            }
            // Print the child node without its own indentation.
            let mut tmp = String::new();
            print_qnode(g, e.target, 0, &mut tmp);
            out.push_str(tmp.trim_start());
        } else {
            print_qnode(g, e.target, level + 1, out);
        }
    }
    indent(out, level);
    out.push_str(if ordered { "]\n" } else { "}\n" });
}

fn print_cnode(rule: &Rule, id: CNodeId, level: usize, out: &mut String) {
    let g = &rule.construct;
    let n = g.node(id);
    let var_of = |q: QNodeId| -> String {
        rule.extract
            .node(q)
            .var
            .clone()
            .unwrap_or_else(|| format!("q{}", q.0))
    };
    indent(out, level);
    match &n.kind {
        CNodeKind::Element(name) => {
            out.push_str(name);
            if !n.children.is_empty() {
                out.push_str(" {\n");
                for &c in &n.children {
                    print_cnode(rule, c, level + 1, out);
                }
                indent(out, level);
                out.push('}');
            }
        }
        CNodeKind::Text(s) => out.push_str(&quote(s)),
        CNodeKind::Attribute { name, value } => {
            out.push('@');
            out.push_str(name);
            out.push_str(" = ");
            match value {
                CValue::Literal(s) => out.push_str(&quote(s)),
                CValue::Binding(q) => out.push_str(&format!("${}", var_of(*q))),
            }
        }
        CNodeKind::Copy { source, deep } => {
            out.push_str(if *deep { "copy $" } else { "shallow-copy $" });
            out.push_str(&var_of(*source));
        }
        CNodeKind::All { source, order } => {
            out.push_str(&format!("all ${}", var_of(*source)));
            if let Some(spec) = order {
                out.push_str(&format!(" order by ${}", var_of(spec.key)));
                if spec.descending {
                    out.push_str(" desc");
                }
            }
        }
        CNodeKind::GroupBy {
            source,
            key,
            wrapper,
        } => {
            out.push_str(&format!(
                "all ${} group by ${} as {wrapper}",
                var_of(*source),
                var_of(*key)
            ));
        }
        CNodeKind::Aggregate { func, source } => {
            out.push_str(&format!("{}(${})", func.name(), var_of(*source)));
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::run;
    use gql_ssdm::Document;

    const SAMPLE: &str = r#"
        # paper query F2: all recent books
        rule {
          extract {
            book as $b {
              @year as $y >= "2000"
              title { text as $t }
            }
          }
          construct {
            result {
              all $b
              count($b)
            }
          }
        }
    "#;

    /// Boxes nest up to `MAX_QUERY_DEPTH` levels in either part of a rule,
    /// and one more is refused by name, as is a text 100,000 boxes deep.
    #[test]
    fn box_nesting_is_bounded_by_name() {
        let m = MAX_QUERY_DEPTH;
        let extract = |n: usize| {
            format!(
                "rule {{ extract {{ {} a as $a {} }} construct {{ out {{ all $a }} }} }}",
                "a { ".repeat(n - 1),
                "} ".repeat(n - 1)
            )
        };
        let construct = |n: usize| {
            format!(
                "rule {{ extract {{ a as $a }} construct {{ {} all $a {} }} }}",
                "o { ".repeat(n - 1),
                "} ".repeat(n - 1)
            )
        };
        let refusal = format!("nested deeper than {m} levels (xml::MAX_QUERY_DEPTH)");
        for (part, text) in [
            ("extract", &extract as &dyn Fn(usize) -> String),
            ("construct", &construct),
        ] {
            assert!(parse(&text(m)).is_ok(), "{part} at the bound");
            for n in [m + 1, 100_000] {
                let err = parse(&text(n)).unwrap_err().to_string();
                assert!(err.contains(&refusal), "{part}, {n} deep: {err}");
            }
        }
    }

    /// An extract box takes up to `MAX_QUERY_WIDTH` child boxes and an
    /// extract part as many roots; one more is refused by name, as is a box
    /// of 50,000 children.
    #[test]
    fn box_width_is_bounded_by_name() {
        let w = MAX_QUERY_WIDTH;
        let children = |n: usize| {
            format!(
                "rule {{ extract {{ r {{ {} }} }} construct {{ out }} }}",
                "a ".repeat(n)
            )
        };
        let roots = |n: usize| {
            format!(
                "rule {{ extract {{ {}a as $a }} construct {{ out {{ all $a }} }} }}",
                "a ".repeat(n - 1)
            )
        };
        for (what, text) in [
            ("box with", &children as &dyn Fn(usize) -> String),
            ("extract part with", &roots),
        ] {
            assert!(parse(&text(w)).is_ok(), "{what} at the bound");
            for n in [w + 1, 50_000] {
                let err = parse(&text(n)).unwrap_err().to_string();
                let refusal = format!("{what} more than {w} ");
                assert!(err.contains(&refusal), "{what} {n}: {err}");
                assert!(err.contains("(xml::MAX_QUERY_WIDTH)"), "{err}");
            }
        }
    }

    #[test]
    fn parses_sample() {
        let p = parse(SAMPLE).unwrap();
        assert_eq!(p.rules.len(), 1);
        let r = &p.rules[0];
        assert_eq!(r.extract.nodes.len(), 4);
        assert_eq!(r.construct.nodes.len(), 3);
        assert!(r.extract.by_var("b").is_some());
        assert!(r.extract.by_var("t").is_some());
    }

    #[test]
    fn runs_parsed_query() {
        let doc = Document::parse_str(
            "<bib><book year='2001'><title>A</title></book>\
             <book year='1999'><title>B</title></book></bib>",
        )
        .unwrap();
        let p = parse(SAMPLE).unwrap();
        let out = run(&p, &doc).unwrap();
        let xml = out.to_xml_string();
        assert!(xml.contains("<title>A</title>"));
        assert!(!xml.contains("<title>B</title>"));
        assert!(xml.ends_with("1</result>"), "{xml}");
    }

    #[test]
    fn ordered_bodies() {
        let p =
            parse("rule { extract { seq as $s [ a b ] } construct { out { all $s } } }").unwrap();
        let r = &p.rules[0];
        assert!(r.extract.ordered[r.extract.roots[0].index()]);
    }

    #[test]
    fn joins_and_multiple_roots() {
        let p = parse(
            r#"rule {
                 extract {
                   product as $p { vendor { text as $v1 } }
                   vendor { name { text as $v2 } }
                   join $v1 == $v2
                 }
                 construct { out { all $p } }
               }"#,
        )
        .unwrap();
        let r = &p.rules[0];
        assert_eq!(r.extract.roots.len(), 2);
        assert_eq!(r.extract.joins.len(), 1);
    }

    #[test]
    fn deep_and_not_modifiers() {
        let p =
            parse("rule { extract { r { deep x as $x  not y } } construct { out { all $x } } }")
                .unwrap();
        let root = p.rules[0].extract.roots[0];
        let edges = &p.rules[0].extract.node(root).children;
        assert!(edges[0].deep);
        assert!(edges[1].negated);
    }

    #[test]
    fn predicates_with_and_or() {
        let p = parse(
            r#"rule { extract { person { age as $a >= "16" and <= "20" or = "99" } }
                      construct { out { copy $a } } }"#,
        )
        .unwrap();
        let g = &p.rules[0].extract;
        let a = g.by_var("a").unwrap();
        let pred = &g.node(a).predicate;
        assert_eq!(pred.clauses.len(), 2);
        assert_eq!(pred.clauses[1].len(), 2);
        assert!(pred.eval("18"));
        assert!(pred.eval("99"));
        assert!(!pred.eval("25"));
    }

    #[test]
    fn group_by_and_attrs() {
        let p = parse(
            r#"rule {
                 extract { book as $b { @year as $y } }
                 construct {
                   index {
                     @source = "bib"
                     all $b group by $y as year
                   }
                 }
               }"#,
        )
        .unwrap();
        let c = &p.rules[0].construct;
        assert_eq!(c.nodes.len(), 3);
    }

    #[test]
    fn wildcard_and_contains() {
        let p = parse(
            r#"rule { extract { * as $x contains "Xcerpt" } construct { hits { all $x } } }"#,
        )
        .unwrap();
        let g = &p.rules[0].extract;
        assert!(matches!(
            g.node(g.roots[0]).kind,
            QNodeKind::Element(NameTest::Wildcard)
        ));
    }

    #[test]
    fn syntax_errors_have_positions() {
        let err = parse("rule {\n  extract { book as }\n construct { out } }").unwrap_err();
        match err {
            XmlGlError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_programs_rejected() {
        for bad in [
            "",
            "rule { }",
            "rule { extract { } construct { out } }",
            "rule { extract { b as $b } construct { } }",
            "rule { extract { b } construct { out { all $ghost } } }",
            "rule { extract { b as $x { text as $x } } construct { out } }",
            "rule { extract { b as $b join $b == $b } construct { out } }",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn roundtrip_through_printer() {
        for src in [
            SAMPLE,
            "rule { extract { r [ a b ] } construct { o { \"lit\" } } }",
            r#"rule {
                 extract {
                   product as $p { vendor { text as $v1 } price { text as $m > "3" } }
                   vendor as $w { name { text as $v2 } }
                   join $v1 == $v2
                 }
                 construct {
                   out { @n = $m all $p group by $v1 as g copy $w min($m) }
                 }
               }"#,
            "rule { extract { r { deep x as $x not y @a as $q } } construct { out { shallow-copy $x } } }",
        ] {
            let p1 = parse(src).unwrap_or_else(|e| panic!("parse {src}: {e}"));
            let printed = print(&p1);
            let p2 = parse(&printed).unwrap_or_else(|e| panic!("reparse {printed}: {e}"));
            assert_eq!(p1, p2, "roundtrip failed for:\n{printed}");
        }
    }

    #[test]
    fn order_by_parses_and_roundtrips() {
        let src = r#"rule {
             extract { book as $b { price { text as $p } } }
             construct { out { all $b order by $p desc } }
           }"#;
        let p1 = parse(src).unwrap();
        match &p1.rules[0].construct.nodes[1].kind {
            CNodeKind::All {
                order: Some(spec), ..
            } => assert!(spec.descending),
            other => panic!("unexpected {other:?}"),
        }
        let p2 = parse(&print(&p1)).unwrap();
        assert_eq!(p1, p2);
        // Ascending without 'desc'.
        let asc = parse(
            "rule { extract { b as $b { text as $t } } construct { o { all $b order by $t } } }",
        )
        .unwrap();
        match &asc.rules[0].construct.nodes[1].kind {
            CNodeKind::All {
                order: Some(spec), ..
            } => assert!(!spec.descending),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_separators_are_noise() {
        let p = parse(
            "rule { extract { a as $a; b as $b, } # trailing\n construct { out { all $a; all $b } } }",
        )
        .unwrap();
        assert_eq!(p.rules[0].extract.roots.len(), 2);
    }
}
