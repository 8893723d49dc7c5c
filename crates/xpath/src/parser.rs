//! Recursive-descent parser for the XPath subset, following the XPath 1.0
//! grammar and its disambiguation rules (`*` and the operator names
//! `and`/`or`/`div`/`mod` are operators only where an operand just ended).

use crate::ast::{Axis, BinOp, Expr, LocationPath, NodeTest, Step};
use crate::lexer::{tokenize_spanned, Token};
use crate::{Result, XPathError};
use gql_ssdm::xml::MAX_QUERY_DEPTH;

/// Parse an XPath expression.
///
/// A text is refused past [`MAX_QUERY_DEPTH`] levels of nesting. A literal,
/// a number and a step are one level; an operator, a function call and a
/// unary minus are one above their deepest operand; a location path is as
/// deep as its steps' depths added up, and a step as one plus its
/// predicates' depths. Brackets that add no level still count as they
/// open: no more than the bound may be open at once.
pub fn parse(input: &str) -> Result<Expr> {
    let mut p = Parser {
        tokens: tokenize_spanned(input)?,
        end: input.chars().count(),
        pos: 0,
        open: 0,
    };
    let (expr, _) = p.parse_or()?;
    if !p.eof() {
        return Err(p.err(format!("trailing input starting at {}", p.peek_describe())));
    }
    Ok(expr)
}

struct Parser {
    /// Each token with the character offset it starts at.
    tokens: Vec<(Token, usize)>,
    /// Character length of the input, reported for errors at end of input.
    end: usize,
    pos: usize,
    /// Brackets (and unary minuses) open around the current token.
    open: usize,
}

/// A parsed expression and its depth (see [`parse`]).
type Nested = (Expr, usize);

impl Parser {
    /// Offset of the token about to be consumed (input end at EOF).
    fn here(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.end, |&(_, at)| at)
    }

    /// A parse error anchored at the current token. Errors raised after
    /// `bump` consumed the offending token pass `self.pos - 1`'s offset via
    /// [`Parser::err_before`] instead.
    fn err(&self, msg: impl Into<String>) -> XPathError {
        XPathError::Parse {
            offset: self.here(),
            msg: msg.into(),
        }
    }

    /// A parse error anchored at the most recently consumed token.
    fn err_before(&self, msg: impl Into<String>) -> XPathError {
        let offset = self
            .pos
            .checked_sub(1)
            .and_then(|p| self.tokens.get(p).map(|&(_, at)| at))
            .unwrap_or(self.end);
        XPathError::Parse {
            offset,
            msg: msg.into(),
        }
    }

    fn eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|(t, _)| t)
    }

    fn peek_describe(&self) -> String {
        self.peek().map_or("end of input".into(), Token::describe)
    }

    /// Consume the next token. The parser never looks back at a consumed
    /// token (an error about it is anchored by its offset alone), so the
    /// token is moved out, not copied; a `Comma` is left in its place.
    fn bump(&mut self) -> Option<Token> {
        let (t, _) = self.tokens.get_mut(self.pos)?;
        self.pos += 1;
        Some(std::mem::replace(t, Token::Comma))
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                t.describe(),
                self.peek_describe()
            )))
        }
    }

    /// Is the upcoming name token the given operator keyword?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Name(n)) if n == kw)
    }

    /// `depth` if it is within [`MAX_QUERY_DEPTH`], else the parse error
    /// that names the bound.
    fn within(&self, depth: usize) -> Result<usize> {
        if depth > MAX_QUERY_DEPTH {
            return Err(self.err(format!(
                "query nested deeper than {MAX_QUERY_DEPTH} levels (xml::MAX_QUERY_DEPTH)"
            )));
        }
        Ok(depth)
    }

    /// Run `f` one bracket (or one unary minus) deeper. The count of open
    /// brackets is bounded on the way down, so that the parser's own
    /// recursion stops at the bound before any node is built.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.open += 1;
        let out = self.within(self.open).and_then(|_| f(self));
        self.open -= 1;
        out
    }

    /// `lhs op rhs`, one level above the deeper operand.
    fn binary(&self, op: BinOp, (lhs, l): Nested, (rhs, r): Nested) -> Result<Nested> {
        let depth = self.within(1 + l.max(r))?;
        Ok((Expr::Binary(op, Box::new(lhs), Box::new(rhs)), depth))
    }

    fn parse_or(&mut self) -> Result<Nested> {
        let mut lhs = self.parse_and()?;
        while self.at_keyword("or") {
            self.bump();
            let rhs = self.parse_and()?;
            lhs = self.binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Nested> {
        let mut lhs = self.parse_equality()?;
        while self.at_keyword("and") {
            self.bump();
            let rhs = self.parse_equality()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_equality(&mut self) -> Result<Nested> {
        let mut lhs = self.parse_relational()?;
        loop {
            let op = match self.peek() {
                Some(Token::Eq) => BinOp::Eq,
                Some(Token::Ne) => BinOp::Ne,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_relational()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_relational(&mut self) -> Result<Nested> {
        let mut lhs = self.parse_additive()?;
        loop {
            let op = match self.peek() {
                Some(Token::Lt) => BinOp::Lt,
                Some(Token::Le) => BinOp::Le,
                Some(Token::Gt) => BinOp::Gt,
                Some(Token::Ge) => BinOp::Ge,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_additive()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Nested> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_multiplicative()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Nested> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Name(n)) if n == "div" => BinOp::Div,
                Some(Token::Name(n)) if n == "mod" => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Nested> {
        if self.eat(&Token::Minus) {
            let (e, depth) = self.nested(Self::parse_unary)?;
            Ok((Expr::Neg(Box::new(e)), self.within(depth + 1)?))
        } else {
            self.parse_union()
        }
    }

    fn parse_union(&mut self) -> Result<Nested> {
        let (mut lhs, mut depth) = self.parse_path_expr()?;
        while self.eat(&Token::Pipe) {
            let (rhs, r) = self.parse_path_expr()?;
            depth = self.within(1 + depth.max(r))?;
            lhs = Expr::Union(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    /// Does the next token begin a *filter* (non-location-path) primary?
    fn at_filter_primary(&self) -> bool {
        match self.peek() {
            Some(Token::LParen | Token::Literal(_) | Token::Number(_)) => true,
            Some(Token::Name(n)) => {
                // A name followed by '(' is a function call — unless it is a
                // node-type test, which belongs to a location path.
                self.peek2() == Some(&Token::LParen)
                    && !matches!(n.as_str(), "text" | "comment" | "node")
            }
            _ => false,
        }
    }

    fn parse_path_expr(&mut self) -> Result<Nested> {
        if self.at_filter_primary() {
            let (primary, mut depth) = self.parse_primary()?;
            // Optional trailing steps: primary '/' relative-path.
            let mut steps = Vec::new();
            loop {
                if self.eat(&Token::DoubleSlash) {
                    steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::Node));
                    depth = self.within(depth + 1)?;
                } else if !self.eat(&Token::Slash) {
                    break;
                }
                let (step, d) = self.parse_step()?;
                steps.push(step);
                depth = self.within(depth + d)?;
            }
            if steps.is_empty() {
                Ok((primary, depth))
            } else {
                Ok((Expr::FilterPath(Box::new(primary), steps), depth))
            }
        } else {
            let (path, depth) = self.parse_location_path()?;
            Ok((Expr::Path(path), depth))
        }
    }

    fn parse_primary(&mut self) -> Result<Nested> {
        match self.bump() {
            Some(Token::LParen) => {
                let e = self.nested(Self::parse_or)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Literal(s)) => Ok((Expr::Literal(s), 1)),
            Some(Token::Number(n)) => Ok((Expr::Number(n), 1)),
            Some(Token::Name(name)) => {
                self.expect(&Token::LParen)?;
                let (mut args, mut depth) = (Vec::new(), 1);
                if !self.eat(&Token::RParen) {
                    loop {
                        let (arg, d) = self.nested(Self::parse_or)?;
                        args.push(arg);
                        depth = self.within(depth.max(d + 1))?;
                        if self.eat(&Token::RParen) {
                            break;
                        }
                        self.expect(&Token::Comma)?;
                    }
                }
                Ok((Expr::Call(name, args), depth))
            }
            Some(other) => Err(self.err_before(format!(
                "expected a primary expression, found {}",
                other.describe()
            ))),
            None => Err(self.err("expected a primary expression, found end of input")),
        }
    }

    /// A location path and its depth: its steps' depths added up, since a
    /// path's steps are a chain in every stage that walks it.
    fn parse_location_path(&mut self) -> Result<(LocationPath, usize)> {
        let mut steps = Vec::new();
        let mut depth = 0;
        let absolute = if self.eat(&Token::DoubleSlash) {
            steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::Node));
            depth = 1;
            true
        } else if self.eat(&Token::Slash) {
            // Bare "/" selects the document node.
            if !self.at_step_start() {
                return Ok((
                    LocationPath {
                        absolute: true,
                        steps,
                    },
                    1,
                ));
            }
            true
        } else {
            false
        };
        loop {
            let (step, d) = self.parse_step()?;
            steps.push(step);
            depth = self.within(depth + d)?;
            if self.eat(&Token::DoubleSlash) {
                steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::Node));
                depth = self.within(depth + 1)?;
            } else if !self.eat(&Token::Slash) {
                break;
            }
        }
        Ok((LocationPath { absolute, steps }, depth))
    }

    fn at_step_start(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::Name(_) | Token::Star | Token::At | Token::Dot | Token::DotDot)
        )
    }

    /// A step and its depth: one, and its predicates' depths added up.
    fn parse_step(&mut self) -> Result<(Step, usize)> {
        if self.eat(&Token::Dot) {
            return Ok((Step::new(Axis::SelfAxis, NodeTest::Node), 1));
        }
        if self.eat(&Token::DotDot) {
            return Ok((Step::new(Axis::Parent, NodeTest::Node), 1));
        }
        let axis = if self.eat(&Token::At) {
            Axis::Attribute
        } else if let (Some(Token::Name(n)), Some(Token::ColonColon)) = (self.peek(), self.peek2())
        {
            let axis = Axis::from_name(n).ok_or_else(|| self.err(format!("unknown axis '{n}'")))?;
            self.bump();
            self.bump();
            axis
        } else {
            Axis::Child
        };
        let test = match self.bump() {
            Some(Token::Star) => NodeTest::Any,
            Some(Token::Name(n)) => {
                if self.peek() == Some(&Token::LParen) {
                    match n.as_str() {
                        "text" => {
                            self.bump();
                            self.expect(&Token::RParen)?;
                            NodeTest::Text
                        }
                        "comment" => {
                            self.bump();
                            self.expect(&Token::RParen)?;
                            NodeTest::Comment
                        }
                        "node" => {
                            self.bump();
                            self.expect(&Token::RParen)?;
                            NodeTest::Node
                        }
                        other => {
                            return Err(self.err_before(format!(
                                "function call '{other}(…)' cannot be a step"
                            )))
                        }
                    }
                } else {
                    NodeTest::Name(n)
                }
            }
            Some(other) => {
                return Err(
                    self.err_before(format!("expected a node test, found {}", other.describe()))
                )
            }
            None => return Err(self.err("expected a node test, found end of input")),
        };
        let mut step = Step::new(axis, test);
        let mut depth = 1;
        while self.eat(&Token::LBracket) {
            let (pred, d) = self.nested(Self::parse_or)?;
            self.expect(&Token::RBracket)?;
            step.predicates.push(pred);
            depth = self.within(depth + d)?;
        }
        Ok((step, depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(e: &Expr) -> &LocationPath {
        match e {
            Expr::Path(p) => p,
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn simple_absolute_path() {
        let e = parse("/bib/book").unwrap();
        let p = path(&e);
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].test, NodeTest::Name("bib".into()));
        assert_eq!(p.steps[1].axis, Axis::Child);
    }

    #[test]
    fn double_slash_expands() {
        let e = parse("//a").unwrap();
        let p = path(&e);
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[0].test, NodeTest::Node);
    }

    #[test]
    fn bare_root() {
        let e = parse("/").unwrap();
        assert!(path(&e).steps.is_empty());
    }

    #[test]
    fn abbreviations() {
        let e = parse("../@id").unwrap();
        let p = path(&e);
        assert_eq!(p.steps[0].axis, Axis::Parent);
        assert_eq!(p.steps[1].axis, Axis::Attribute);
        assert_eq!(p.steps[1].test, NodeTest::Name("id".into()));
    }

    #[test]
    fn explicit_axes() {
        let e = parse("ancestor-or-self::book/following-sibling::*").unwrap();
        let p = path(&e);
        assert_eq!(p.steps[0].axis, Axis::AncestorOrSelf);
        assert_eq!(p.steps[1].axis, Axis::FollowingSibling);
        assert_eq!(p.steps[1].test, NodeTest::Any);
    }

    #[test]
    fn predicates_parse() {
        let e = parse("book[@year=1999][2]").unwrap();
        let p = path(&e);
        assert_eq!(p.steps[0].predicates.len(), 2);
        assert_eq!(p.steps[0].predicates[1], Expr::Number(2.0));
    }

    #[test]
    fn the_papers_example() {
        // The hyperlink query from the survey chapter.
        let e = parse(
            "/html/body//a[contains(./text(),\"Xcerpt\") and starts-with(./@href,\"http:\")]",
        )
        .unwrap();
        let p = path(&e);
        assert_eq!(p.steps.len(), 4);
        assert_eq!(p.steps[3].predicates.len(), 1);
    }

    #[test]
    fn operator_precedence() {
        let e = parse("1 + 2 * 3 = 7 and true()").unwrap();
        match e {
            Expr::Binary(BinOp::And, lhs, _) => match *lhs {
                Expr::Binary(BinOp::Eq, add, _) => match *add {
                    Expr::Binary(BinOp::Add, _, mul) => {
                        assert!(matches!(*mul, Expr::Binary(BinOp::Mul, _, _)));
                    }
                    other => panic!("expected Add, got {other:?}"),
                },
                other => panic!("expected Eq, got {other:?}"),
            },
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn star_disambiguation() {
        // First * is a wildcard, second is multiplication, third a wildcard.
        let e = parse("count(*) * count(*)").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn div_and_mod_vs_element_names() {
        // Leading "div" is an element name; infix div is the operator.
        let e = parse("div div div").unwrap();
        match e {
            Expr::Binary(BinOp::Div, a, b) => {
                assert!(matches!(*a, Expr::Path(_)));
                assert!(matches!(*b, Expr::Path(_)));
            }
            other => panic!("expected Div, got {other:?}"),
        }
    }

    #[test]
    fn union_of_paths() {
        let e = parse("book | article | //note").unwrap();
        assert!(matches!(e, Expr::Union(_, _)));
    }

    #[test]
    fn function_calls() {
        let e = parse("concat('a', 'b', 'c')").unwrap();
        match e {
            Expr::Call(name, args) => {
                assert_eq!(name, "concat");
                assert_eq!(args.len(), 3);
            }
            other => panic!("expected call, got {other:?}"),
        }
        assert!(matches!(parse("true()").unwrap(), Expr::Call(_, _)));
    }

    #[test]
    fn filter_path() {
        let e = parse("(//book)[1]/title").unwrap_err();
        // Predicates after parenthesised expressions are not in the subset;
        // ensure a clean error rather than a wrong parse.
        assert!(matches!(e, XPathError::Parse { .. }));
        let ok = parse("(//book)/title").unwrap();
        assert!(matches!(ok, Expr::FilterPath(_, _)));
    }

    #[test]
    fn negation() {
        let e = parse("--1").unwrap();
        assert!(matches!(e, Expr::Neg(_)));
    }

    #[test]
    fn errors_are_reported() {
        for bad in [
            "",
            "/bib/",
            "book[",
            "book]",
            "foo(",
            "child::",
            "unknown::x",
            "1 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// Each way to nest is accepted up to `MAX_QUERY_DEPTH` levels and
    /// refused one past it, by name; a text 100,000 levels deep is refused
    /// before the parser's recursion gets far.
    #[test]
    fn nesting_is_bounded_by_name() {
        let m = MAX_QUERY_DEPTH;
        type Shape = (&'static str, fn(usize) -> String);
        let shapes: [Shape; 6] = [
            ("brackets", |n| {
                format!("{}1{}", "(".repeat(n), ")".repeat(n))
            }),
            ("predicates", |n| {
                format!("{}a{}", "a[".repeat(n - 1), "]".repeat(n - 1))
            }),
            ("minuses", |n| format!("{}1", "-".repeat(n - 1))),
            ("operators", |n| vec!["1"; n].join(" or ")),
            ("steps", |n| vec!["a"; n].join("/")),
            ("calls", |n| {
                format!("{}1{}", "count(".repeat(n - 1), ")".repeat(n - 1))
            }),
        ];
        let refusal = format!("nested deeper than {m} levels (xml::MAX_QUERY_DEPTH)");
        for (shape, text) in shapes {
            assert!(parse(&text(m)).is_ok(), "{shape} at the bound");
            let err = parse(&text(m + 1)).unwrap_err().to_string();
            assert!(err.contains(&refusal), "{shape} past the bound: {err}");
            let err = parse(&text(100_000)).unwrap_err().to_string();
            assert!(err.contains(&refusal), "{shape}, 100,000 deep: {err}");
        }
    }

    #[test]
    fn node_type_tests() {
        let e = parse("text() | comment() | node()").unwrap();
        fn first_test(e: &Expr) -> &NodeTest {
            &path(e).steps[0].test
        }
        match &e {
            Expr::Union(ab, c) => {
                assert_eq!(first_test(c), &NodeTest::Node);
                match &**ab {
                    Expr::Union(a, b) => {
                        assert_eq!(first_test(a), &NodeTest::Text);
                        assert_eq!(first_test(b), &NodeTest::Comment);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_roundtrips_through_parser() {
        for src in [
            "/bib/book[@year=1999]/title",
            "//a[contains(text(),'x')]",
            "count(//book) > 3 or false()",
            "book | article",
        ] {
            let e1 = parse(src).unwrap();
            let printed = e1.to_string();
            let e2 = parse(&printed).unwrap_or_else(|err| panic!("reparse {printed}: {err}"));
            assert_eq!(e1, e2, "{src} → {printed}");
        }
    }
}
