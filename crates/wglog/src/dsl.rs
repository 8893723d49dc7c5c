//! Textual concrete syntax for WG-Log rule graphs.
//!
//! As with XML-GL's GQL DSL, this syntax is the writable projection of a
//! diagram (the interactive editor substitute). Shape:
//!
//! ```text
//! rule {
//!   query {
//!     $r: restaurant where category = "italian" and stars >= "3"
//!     $m: menu
//!     $r -offers-> $m            # thin (query) edge
//!     not $r -closed-> $m        # crossed-out edge
//!     $a -(link|index)+-> $b     # regular path (GraphLog dashed edge)
//!     $x -*-> $y                 # any-label edge
//!   }
//!   construct {
//!     $l: rest-list              # thick (green) node, invented once
//!     $s: summary per $r set name = $r.name set kind = "auto"
//!     $l -member-> $r            # thick edge
//!   }
//! }
//! goal rest-list
//! ```
//!
//! `#` starts a line comment; `,` and `;` are separators. A construct node
//! without `per` is invented once for the whole rule (the single collection
//! node of figure F1); `per $v` makes it one object per binding of `$v`.

use gql_ssdm::xml::MAX_QUERY_RULES;

use crate::rule::{
    AttrValue, CmpOp, Color, Constraint, LabelTest, PathRe, PathRep, Program, REdge, RNode, Rule,
    TypeTest,
};
use crate::{Result, WgLogError};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Var(String),
    Str(String),
    Colon,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Minus,
    Arrow,
    Plus,
    Star,
    Pipe,
    Dot,
    Op(CmpOp),
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("'{s}'"),
            Tok::Var(v) => format!("${v}"),
            Tok::Str(s) => format!("\"{s}\""),
            Tok::Colon => "':'".into(),
            Tok::LBrace => "'{'".into(),
            Tok::RBrace => "'}'".into(),
            Tok::LParen => "'('".into(),
            Tok::RParen => "')'".into(),
            Tok::Minus => "'-'".into(),
            Tok::Arrow => "'->'".into(),
            Tok::Plus => "'+'".into(),
            Tok::Star => "'*'".into(),
            Tok::Pipe => "'|'".into(),
            Tok::Dot => "'.'".into(),
            Tok::Op(op) => format!("'{}'", op.symbol()),
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '.')
}

/// Identifier characters for *names* (labels, types): dashes belong to
/// names (`rest-list`) unless followed by `>` or used as an edge dash —
/// resolved by the lexer contextually below.
fn tokenize(src: &str) -> Result<Vec<(Tok, u32, u32)>> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let (mut i, mut line, mut col) = (0usize, 1u32, 1u32);
    let bump = |i: &mut usize, line: &mut u32, col: &mut u32, chars: &[char]| {
        if chars[*i] == '\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
        *i += 1;
    };
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() || c == ',' || c == ';' {
            bump(&mut i, &mut line, &mut col, &chars);
            continue;
        }
        if c == '#' {
            while i < chars.len() && chars[i] != '\n' {
                bump(&mut i, &mut line, &mut col, &chars);
            }
            continue;
        }
        let (tline, tcol) = (line, col);
        let tok = match c {
            '{' => {
                bump(&mut i, &mut line, &mut col, &chars);
                Tok::LBrace
            }
            '}' => {
                bump(&mut i, &mut line, &mut col, &chars);
                Tok::RBrace
            }
            '(' => {
                bump(&mut i, &mut line, &mut col, &chars);
                Tok::LParen
            }
            ')' => {
                bump(&mut i, &mut line, &mut col, &chars);
                Tok::RParen
            }
            ':' => {
                bump(&mut i, &mut line, &mut col, &chars);
                Tok::Colon
            }
            '|' => {
                bump(&mut i, &mut line, &mut col, &chars);
                Tok::Pipe
            }
            '+' => {
                bump(&mut i, &mut line, &mut col, &chars);
                Tok::Plus
            }
            '*' => {
                bump(&mut i, &mut line, &mut col, &chars);
                Tok::Star
            }
            '.' => {
                bump(&mut i, &mut line, &mut col, &chars);
                Tok::Dot
            }
            '-' => {
                bump(&mut i, &mut line, &mut col, &chars);
                if i < chars.len() && chars[i] == '>' {
                    bump(&mut i, &mut line, &mut col, &chars);
                    Tok::Arrow
                } else {
                    Tok::Minus
                }
            }
            '$' => {
                bump(&mut i, &mut line, &mut col, &chars);
                let start = i;
                // Variables stop at '-' (edge arrows) and '.' (attribute
                // projections like `$r.name`).
                while i < chars.len() && is_ident_char(chars[i]) && chars[i] != '.' {
                    bump(&mut i, &mut line, &mut col, &chars);
                }
                if i == start {
                    return Err(WgLogError::Syntax {
                        line,
                        col,
                        msg: "expected a variable name after '$'".into(),
                    });
                }
                Tok::Var(chars[start..i].iter().collect())
            }
            '"' | '\'' => {
                let quote = c;
                bump(&mut i, &mut line, &mut col, &chars);
                let mut s = String::new();
                loop {
                    if i >= chars.len() {
                        return Err(WgLogError::Syntax {
                            line,
                            col,
                            msg: "unterminated string".into(),
                        });
                    }
                    let c = chars[i];
                    bump(&mut i, &mut line, &mut col, &chars);
                    if c == quote {
                        break;
                    }
                    if c == '\\' {
                        if i >= chars.len() {
                            return Err(WgLogError::Syntax {
                                line,
                                col,
                                msg: "unterminated string".into(),
                            });
                        }
                        let e = chars[i];
                        bump(&mut i, &mut line, &mut col, &chars);
                        match e {
                            '"' | '\'' | '\\' => s.push(e),
                            'n' => s.push('\n'),
                            other => {
                                return Err(WgLogError::Syntax {
                                    line,
                                    col,
                                    msg: format!("bad escape '\\{other}'"),
                                })
                            }
                        }
                        continue;
                    }
                    s.push(c);
                }
                Tok::Str(s)
            }
            '=' => {
                bump(&mut i, &mut line, &mut col, &chars);
                Tok::Op(CmpOp::Eq)
            }
            '!' => {
                bump(&mut i, &mut line, &mut col, &chars);
                if i < chars.len() && chars[i] == '=' {
                    bump(&mut i, &mut line, &mut col, &chars);
                    Tok::Op(CmpOp::Ne)
                } else {
                    return Err(WgLogError::Syntax {
                        line,
                        col,
                        msg: "lone '!'".into(),
                    });
                }
            }
            '<' => {
                bump(&mut i, &mut line, &mut col, &chars);
                if i < chars.len() && chars[i] == '=' {
                    bump(&mut i, &mut line, &mut col, &chars);
                    Tok::Op(CmpOp::Le)
                } else {
                    Tok::Op(CmpOp::Lt)
                }
            }
            '>' => {
                bump(&mut i, &mut line, &mut col, &chars);
                if i < chars.len() && chars[i] == '=' {
                    bump(&mut i, &mut line, &mut col, &chars);
                    Tok::Op(CmpOp::Ge)
                } else {
                    Tok::Op(CmpOp::Gt)
                }
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < chars.len() {
                    let ch = chars[i];
                    if is_ident_char(ch) {
                        bump(&mut i, &mut line, &mut col, &chars);
                    } else if ch == '-' {
                        // Part of the name unless it begins '->' .
                        if i + 1 < chars.len() && chars[i + 1] == '>' {
                            break;
                        }
                        // Or unless the next char cannot continue a name
                        // (e.g. `-(`): then it is an edge dash.
                        if i + 1 < chars.len()
                            && !(chars[i + 1].is_alphanumeric() || chars[i + 1] == '_')
                        {
                            break;
                        }
                        bump(&mut i, &mut line, &mut col, &chars);
                    } else {
                        break;
                    }
                }
                Tok::Ident(chars[start..i].iter().collect())
            }
            other => {
                return Err(WgLogError::Syntax {
                    line,
                    col,
                    msg: format!("unexpected character '{other}'"),
                })
            }
        };
        out.push((tok, tline, tcol));
    }
    Ok(out)
}

/// Parse a WG-Log DSL program and check it for well-formedness.
pub fn parse(src: &str) -> Result<Program> {
    let program = parse_unchecked(src)?;
    program.check()?;
    Ok(program)
}

/// Parse without the well-formedness check — for tools (like the analyzer)
/// that want to see ill-formed programs and report on them. A program of
/// more than [`MAX_QUERY_RULES`] rules is refused.
pub fn parse_unchecked(src: &str) -> Result<Program> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut program = Program::default();
    loop {
        if p.eof() {
            break;
        }
        if p.eat_keyword("goal") {
            program.goal = Some(p.expect_ident()?);
            continue;
        }
        if program.rules.len() == MAX_QUERY_RULES {
            return Err(p.err_here(format!(
                "program with more than {MAX_QUERY_RULES} rules (xml::MAX_QUERY_RULES)"
            )));
        }
        program.rules.push(p.parse_rule()?);
    }
    Ok(program)
}

struct Parser {
    tokens: Vec<(Tok, u32, u32)>,
    pos: usize,
}

impl Parser {
    fn eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Source position of the token about to be consumed.
    fn here(&self) -> gql_ssdm::Span {
        self.tokens
            .get(self.pos)
            .map_or(gql_ssdm::Span::none(), |(_, l, c)| {
                gql_ssdm::Span::new(*l, *c)
            })
    }

    fn err_here(&self, msg: impl Into<String>) -> WgLogError {
        let (line, col) = self
            .tokens
            .get(self.pos)
            .map_or((0, 0), |(_, l, c)| (*l, *c));
        WgLogError::Syntax {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _, _)| t)
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

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err_here(format!(
                "expected a name, found {}",
                other.map_or("end of input".into(), Tok::describe)
            ))),
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
                other.map_or("end of input".into(), Tok::describe)
            ))),
        }
    }

    fn parse_rule(&mut self) -> Result<Rule> {
        let span = self.here();
        self.expect_keyword("rule")?;
        self.expect(&Tok::LBrace)?;
        let mut rule = Rule {
            span,
            ..Rule::default()
        };
        self.expect_keyword("query")?;
        self.expect(&Tok::LBrace)?;
        self.parse_section(&mut rule, Color::Query)?;
        self.expect_keyword("construct")?;
        self.expect(&Tok::LBrace)?;
        self.parse_section(&mut rule, Color::Construct)?;
        self.expect(&Tok::RBrace)?;
        Ok(rule)
    }

    fn parse_section(&mut self, rule: &mut Rule, color: Color) -> Result<()> {
        while !self.eat(&Tok::RBrace) {
            let negated = color == Color::Query && self.eat_keyword("not");
            let span = self.here();
            let var = self.expect_var()?;
            if self.eat(&Tok::Colon) {
                if negated {
                    return Err(self.err_here("'not' applies to edges, not node declarations"));
                }
                self.parse_node_decl(rule, color, var, span)?;
            } else if self.peek() == Some(&Tok::Minus) {
                self.parse_edge(rule, color, var, negated)?;
            } else {
                return Err(self.err_here(format!(
                    "expected ':' (node declaration) or '-' (edge) after ${var}"
                )));
            }
        }
        Ok(())
    }

    fn parse_node_decl(
        &mut self,
        rule: &mut Rule,
        color: Color,
        var: String,
        span: gql_ssdm::Span,
    ) -> Result<()> {
        let test = match self.peek() {
            Some(Tok::Star) => {
                self.pos += 1;
                TypeTest::Any
            }
            _ => TypeTest::Type(self.expect_ident()?),
        };
        let mut node = RNode {
            var,
            test,
            color,
            constraints: Vec::new(),
            set_attrs: Vec::new(),
            per: Vec::new(),
            span,
        };
        loop {
            if self.eat_keyword("where") {
                loop {
                    node.constraints.push(self.parse_constraint()?);
                    if !self.eat_keyword("and") {
                        break;
                    }
                }
            } else if self.eat_keyword("per") {
                node.per.push(self.expect_var()?);
            } else if self.eat_keyword("set") {
                let attr = self.expect_ident()?;
                self.expect(&Tok::Op(CmpOp::Eq))?;
                let value = match self.peek() {
                    Some(Tok::Str(s)) => {
                        let s = s.clone();
                        self.pos += 1;
                        AttrValue::Literal(s)
                    }
                    Some(Tok::Var(v)) => {
                        let v = v.clone();
                        self.pos += 1;
                        self.expect(&Tok::Dot)?;
                        let a = self.expect_ident()?;
                        AttrValue::CopyFrom { var: v, attr: a }
                    }
                    other => {
                        return Err(self.err_here(format!(
                            "expected \"literal\" or $var.attr, found {}",
                            other.map_or("end of input".into(), Tok::describe)
                        )))
                    }
                };
                node.set_attrs.push((attr, value));
            } else {
                break;
            }
        }
        rule.nodes.push(node);
        Ok(())
    }

    fn parse_constraint(&mut self) -> Result<Constraint> {
        let attr = self.expect_ident()?;
        let op = match self.peek() {
            Some(Tok::Op(op)) => {
                let op = *op;
                self.pos += 1;
                op
            }
            Some(Tok::Ident(s)) if s == "contains" || s == "starts-with" => {
                let op = CmpOp::from_symbol(s).expect("known symbol");
                self.pos += 1;
                op
            }
            other => {
                return Err(self.err_here(format!(
                    "expected a comparison operator, found {}",
                    other.map_or("end of input".into(), Tok::describe)
                )))
            }
        };
        let value = match self.peek() {
            Some(Tok::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                s
            }
            Some(Tok::Ident(s)) if s.chars().all(|c| c.is_ascii_digit() || c == '.') => {
                let s = s.clone();
                self.pos += 1;
                s
            }
            other => {
                return Err(self.err_here(format!(
                    "expected a value, found {}",
                    other.map_or("end of input".into(), Tok::describe)
                )))
            }
        };
        Ok(Constraint { attr, op, value })
    }

    /// `$a -label-> $b` | `$a -*-> $b` | `$a -(l1|l2)+-> $b`.
    fn parse_edge(
        &mut self,
        rule: &mut Rule,
        color: Color,
        from_var: String,
        negated: bool,
    ) -> Result<()> {
        self.expect(&Tok::Minus)?;
        let label = match self.peek() {
            Some(Tok::Star) => {
                self.pos += 1;
                LabelTest::Any
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let mut labels = vec![self.expect_ident()?];
                while self.eat(&Tok::Pipe) {
                    labels.push(self.expect_ident()?);
                }
                self.expect(&Tok::RParen)?;
                let rep = if self.eat(&Tok::Plus) {
                    PathRep::Plus
                } else if self.eat(&Tok::Star) {
                    PathRep::Star
                } else {
                    PathRep::One
                };
                LabelTest::Regex(PathRe { labels, rep })
            }
            _ => LabelTest::Label(self.expect_ident()?),
        };
        self.expect(&Tok::Arrow)?;
        let to_var = self.expect_var()?;
        let resolve = |p: &Parser, v: &str| {
            rule.by_var(v)
                .ok_or_else(|| p.err_here(format!("unknown variable ${v} (declare nodes first)")))
        };
        let from = resolve(self, &from_var)?;
        let to = resolve(self, &to_var)?;
        rule.edges.push(REdge {
            from,
            to,
            label,
            color,
            negated,
        });
        Ok(())
    }
}

/// Quote a literal for printing, escaping the string syntax.
fn quote(s: &str) -> String {
    format!(
        "\"{}\"",
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    )
}

/// Print a program back to DSL text.
pub fn print(program: &Program) -> String {
    let mut out = String::new();
    for rule in &program.rules {
        out.push_str("rule {\n  query {\n");
        print_section(rule, Color::Query, &mut out);
        out.push_str("  }\n  construct {\n");
        print_section(rule, Color::Construct, &mut out);
        out.push_str("  }\n}\n");
    }
    if let Some(goal) = &program.goal {
        out.push_str(&format!("goal {goal}\n"));
    }
    out
}

fn print_section(rule: &Rule, color: Color, out: &mut String) {
    for n in &rule.nodes {
        if n.color != color {
            continue;
        }
        out.push_str(&format!("    ${}: {}", n.var, n.test));
        for (i, c) in n.constraints.iter().enumerate() {
            out.push_str(if i == 0 { " where " } else { " and " });
            out.push_str(&format!("{} {} {}", c.attr, c.op.symbol(), quote(&c.value)));
        }
        for p in &n.per {
            out.push_str(&format!(" per ${p}"));
        }
        for (attr, value) in &n.set_attrs {
            match value {
                AttrValue::Literal(s) => out.push_str(&format!(" set {attr} = {}", quote(s))),
                AttrValue::CopyFrom { var, attr: a } => {
                    out.push_str(&format!(" set {attr} = ${var}.{a}"))
                }
            }
        }
        out.push('\n');
    }
    for e in &rule.edges {
        if e.color != color {
            continue;
        }
        let from = &rule.node(e.from).var;
        let to = &rule.node(e.to).var;
        let label = match &e.label {
            LabelTest::Label(l) => l.clone(),
            LabelTest::Any => "*".to_string(),
            LabelTest::Regex(re) => {
                let body = format!("({})", re.labels.join("|"));
                match re.rep {
                    PathRep::One => body,
                    PathRep::Plus => format!("{body}+"),
                    PathRep::Star => format!("{body}*"),
                }
            }
        };
        let not = if e.negated { "not " } else { "" };
        out.push_str(&format!("    {not}${from} -{label}-> ${to}\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    const F1: &str = r#"
        # restaurants offering menus, collected into one rest-list
        rule {
          query {
            $r: restaurant
            $m: menu
            $r -menu-> $m
          }
          construct {
            $l: rest-list
            $l -member-> $r
          }
        }
        goal rest-list
    "#;

    #[test]
    fn parses_f1() {
        let p = parse(F1).unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.goal.as_deref(), Some("rest-list"));
        let r = &p.rules[0];
        assert_eq!(r.query_nodes().count(), 2);
        assert_eq!(r.construct_nodes().count(), 1);
        assert_eq!(r.edges.len(), 2);
    }

    #[test]
    fn end_to_end_f1() {
        let doc = gql_ssdm::Document::parse_str(
            "<g><restaurant><name>A</name><menu><price>1</price></menu></restaurant>\
             <restaurant><name>B</name></restaurant></g>",
        )
        .unwrap();
        let db = Instance::from_document(&doc);
        let p = parse(F1).unwrap();
        let out = crate::eval::run(&p, &db).unwrap();
        assert_eq!(out.objects_of_type("rest-list").count(), 1);
        let l = out.objects_of_type("rest-list").next().unwrap();
        assert_eq!(out.out_edges(l).count(), 1);
    }

    #[test]
    fn constraints_and_sets() {
        let p = parse(
            r#"rule {
                 query { $r: restaurant where category = "italian" and stars >= "3" }
                 construct {
                   $s: summary per $r set name = $r.name set kind = "auto"
                   $s -about-> $r
                 }
               }"#,
        )
        .unwrap();
        let r = &p.rules[0];
        let q = r.node(r.by_var("r").unwrap());
        assert_eq!(q.constraints.len(), 2);
        let s = r.node(r.by_var("s").unwrap());
        assert_eq!(s.per, vec!["r"]);
        assert_eq!(s.set_attrs.len(), 2);
        assert_eq!(
            s.set_attrs[0].1,
            AttrValue::CopyFrom {
                var: "r".into(),
                attr: "name".into()
            }
        );
    }

    #[test]
    fn edges_with_paths_and_negation() {
        let p = parse(
            r#"rule {
                 query {
                   $a: doc
                   $b: doc
                   $a -(link|index)+-> $b
                   not $a -cites-> $b
                   $a -*-> $b
                 }
                 construct { $a -related-> $b }
               }"#,
        )
        .unwrap();
        let r = &p.rules[0];
        assert_eq!(r.edges.len(), 4);
        assert!(matches!(
            &r.edges[0].label,
            LabelTest::Regex(re) if re.labels == vec!["link", "index"] && re.rep == PathRep::Plus
        ));
        assert!(r.edges[1].negated);
        assert_eq!(r.edges[2].label, LabelTest::Any);
        assert_eq!(r.edges[3].color, Color::Construct);
    }

    #[test]
    fn dashed_names_parse() {
        let p =
            parse("rule { query { $r: rest-list } construct { $c: top-ten  $c -member-of-> $r } }")
                .unwrap();
        let r = &p.rules[0];
        assert_eq!(
            r.node(r.by_var("r").unwrap()).test,
            TypeTest::Type("rest-list".into())
        );
        assert!(matches!(&r.edges[0].label, LabelTest::Label(l) if l == "member-of"));
    }

    #[test]
    fn roundtrip_through_printer() {
        for src in [
            F1,
            r#"rule {
                 query {
                   $a: doc where kind = "index"
                   $b: *
                   $a -(link)+-> $b
                   not $b -link-> $a
                 }
                 construct {
                   $root: root-doc per $a set title = $a.title
                   $root -covers-> $b
                 }
               }
               goal root-doc"#,
        ] {
            let p1 = parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
            let text = print(&p1);
            let p2 = parse(&text).unwrap_or_else(|e| panic!("reparse {text}: {e}"));
            assert_eq!(p1, p2, "roundtrip failed:\n{text}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let p1 = parse(
            "rule { query { $r: x where a = 'say \"hi\"' and b = \"back\\\\slash\" } construct { $c: out set note = \"line\\nbreak\" $c -m-> $r } } goal out",
        )
        .unwrap();
        let r = &p1.rules[0];
        let q = r.node(r.by_var("r").unwrap());
        assert_eq!(q.constraints[0].value, "say \"hi\"");
        assert_eq!(q.constraints[1].value, "back\\slash");
        let c = r.node(r.by_var("c").unwrap());
        assert_eq!(c.set_attrs[0].1, AttrValue::Literal("line\nbreak".into()));
        let p2 = parse(&print(&p1)).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn errors_are_positioned_and_clear() {
        let err = parse("rule {\n query { $r restaurant }\n construct { } }").unwrap_err();
        match err {
            WgLogError::Syntax { line, msg, .. } => {
                assert_eq!(line, 2);
                assert!(msg.contains("':'"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_programs_rejected() {
        for bad in [
            "",
            "rule { query { } construct { } } goal x", // no nodes at all
            "rule { query { $a: x } construct { $a -l-> $b } }", // unknown $b
            "rule { query { $a: x, $a: y } construct { } }", // dup var
            "rule { query { not $a: x } construct { } }", // not on node
            "goal",                                    // missing goal name
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn multiple_rules_and_recursion() {
        let p = parse(
            r#"
            rule {
              query { $a: doc  $b: doc  $a -link-> $b }
              construct { $a -reach-> $b }
            }
            rule {
              query { $a: doc  $b: doc  $c: doc  $a -reach-> $b  $b -link-> $c }
              construct { $a -reach-> $c }
            }
            goal doc
            "#,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        // And it runs.
        let mut db = Instance::new();
        use crate::instance::Object;
        let d: Vec<_> = (0..4).map(|_| db.add_object(Object::new("doc"))).collect();
        db.add_edge(d[0], "link", d[1]);
        db.add_edge(d[1], "link", d[2]);
        db.add_edge(d[2], "link", d[3]);
        let out = crate::eval::run(&p, &db).unwrap();
        assert_eq!(out.edges().filter(|e| e.label == "reach").count(), 6);
    }
}
