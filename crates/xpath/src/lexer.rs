//! Tokenizer for XPath expressions.

use crate::{Result, XPathError};

/// One XPath token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Element/function/axis name (NCName, possibly with embedded `-`/`.`).
    Name(String),
    /// String literal (quotes stripped).
    Literal(String),
    /// Numeric literal.
    Number(f64),
    Slash,
    DoubleSlash,
    Dot,
    DotDot,
    At,
    Star,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Comma,
    Pipe,
    Plus,
    Minus,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `::` axis separator.
    ColonColon,
}

impl Token {
    /// Render for error messages.
    pub fn describe(&self) -> String {
        match self {
            Token::Name(n) => format!("name '{n}'"),
            Token::Literal(s) => format!("literal \"{s}\""),
            Token::Number(n) => format!("number {n}"),
            Token::Slash => "'/'".into(),
            Token::DoubleSlash => "'//'".into(),
            Token::Dot => "'.'".into(),
            Token::DotDot => "'..'".into(),
            Token::At => "'@'".into(),
            Token::Star => "'*'".into(),
            Token::LBracket => "'['".into(),
            Token::RBracket => "']'".into(),
            Token::LParen => "'('".into(),
            Token::RParen => "')'".into(),
            Token::Comma => "','".into(),
            Token::Pipe => "'|'".into(),
            Token::Plus => "'+'".into(),
            Token::Minus => "'-'".into(),
            Token::Eq => "'='".into(),
            Token::Ne => "'!='".into(),
            Token::Lt => "'<'".into(),
            Token::Le => "'<='".into(),
            Token::Gt => "'>'".into(),
            Token::Ge => "'>='".into(),
            Token::ColonColon => "'::'".into(),
        }
    }
}

/// Collects tokens stamped with the start offset of the lexeme currently
/// being read.
struct TokenSink<'a> {
    out: &'a mut Vec<(Token, usize)>,
    start: usize,
}

impl TokenSink<'_> {
    fn push(&mut self, t: Token) {
        self.out.push((t, self.start));
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.')
}

/// Tokenize an XPath expression.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    Ok(tokenize_spanned(input)?
        .into_iter()
        .map(|(t, _)| t)
        .collect())
}

/// Tokenize, pairing every token with the character offset it starts at, so
/// the parser can report span-carrying diagnostics. (Offsets count `char`s,
/// matching the offsets in [`XPathError::Lex`].)
pub fn tokenize_spanned(input: &str) -> Result<Vec<(Token, usize)>> {
    // The text is read by byte offset `b`; `i` counts the chars before it,
    // the offset tokens and errors report. Every character a token starts
    // or ends with is ASCII, so a byte test never splits a char.
    let bytes = input.as_bytes();
    let mut spanned = Vec::new();
    let (mut b, mut i) = (0usize, 0usize);
    while let Some(c) = input[b..].chars().next() {
        let mut toks = TokenSink {
            out: &mut spanned,
            start: i,
        };
        let (next, start) = (bytes.get(b + 1).copied(), i);
        match c {
            c if c.is_whitespace() => {
                (b, i) = (b + c.len_utf8(), i + 1);
                continue;
            }
            '/' => {
                if next == Some(b'/') {
                    toks.push(Token::DoubleSlash);
                    i += 2;
                } else {
                    toks.push(Token::Slash);
                    i += 1;
                }
            }
            '.' => {
                if next == Some(b'.') {
                    toks.push(Token::DotDot);
                    i += 2;
                } else if next.is_some_and(|d| d.is_ascii_digit()) {
                    // .5 style number
                    let (n, len) = lex_number(&input[b..]).ok_or_else(|| XPathError::Lex {
                        offset: i,
                        msg: "bad number".into(),
                    })?;
                    toks.push(Token::Number(n));
                    i += len;
                } else {
                    toks.push(Token::Dot);
                    i += 1;
                }
            }
            '@' => {
                toks.push(Token::At);
                i += 1;
            }
            '*' => {
                toks.push(Token::Star);
                i += 1;
            }
            '[' => {
                toks.push(Token::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Token::RBracket);
                i += 1;
            }
            '(' => {
                toks.push(Token::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Token::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Token::Comma);
                i += 1;
            }
            '|' => {
                toks.push(Token::Pipe);
                i += 1;
            }
            '+' => {
                toks.push(Token::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Token::Minus);
                i += 1;
            }
            '=' => {
                toks.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if next == Some(b'=') {
                    toks.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(XPathError::Lex {
                        offset: i,
                        msg: "lone '!'".into(),
                    });
                }
            }
            '<' => {
                if next == Some(b'=') {
                    toks.push(Token::Le);
                    i += 2;
                } else {
                    toks.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if next == Some(b'=') {
                    toks.push(Token::Ge);
                    i += 2;
                } else {
                    toks.push(Token::Gt);
                    i += 1;
                }
            }
            ':' => {
                if next == Some(b':') {
                    toks.push(Token::ColonColon);
                    i += 2;
                } else {
                    return Err(XPathError::Lex {
                        offset: i,
                        msg: "namespaces are not supported (lone ':')".into(),
                    });
                }
            }
            '"' | '\'' => {
                let Some(len) = input[b + 1..].find(c) else {
                    return Err(XPathError::Lex {
                        offset: i,
                        msg: "unterminated literal".into(),
                    });
                };
                let literal = &input[b + 1..b + 1 + len];
                toks.push(Token::Literal(literal.to_string()));
                b += len + 2;
                i += literal.chars().count() + 2;
                continue;
            }
            c if c.is_ascii_digit() => {
                let (n, len) = lex_number(&input[b..]).ok_or_else(|| XPathError::Lex {
                    offset: i,
                    msg: "bad number".into(),
                })?;
                toks.push(Token::Number(n));
                i += len;
            }
            c if is_name_start(c) => {
                // Names must not swallow a trailing '.' that is actually a
                // path dot — but XPath names can legitimately contain dots;
                // XPath 1.0 resolves this in favour of the name, which we
                // follow.
                let rest = &input[b..];
                let len = rest.find(|c| !is_name_char(c)).unwrap_or(rest.len());
                toks.push(Token::Name(rest[..len].to_string()));
                b += len;
                i += rest[..len].chars().count();
                continue;
            }
            other => {
                return Err(XPathError::Lex {
                    offset: i,
                    msg: format!("unexpected character '{other}'"),
                })
            }
        }
        // An ASCII token: as many bytes as chars.
        b += i - start;
    }
    Ok(spanned)
}

/// Lex digits [. digits]; returns (value, chars consumed).
fn lex_number(s: &str) -> Option<(f64, usize)> {
    let digits = |from: usize| s[from..].bytes().take_while(u8::is_ascii_digit).count();
    let mut j = digits(0);
    if s.as_bytes().get(j) == Some(&b'.') {
        j += 1 + digits(j + 1);
    }
    if j == 0 {
        return None;
    }
    s[..j].parse::<f64>().ok().map(|n| (n, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_path() {
        let t = tokenize("/html/body//a").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Slash,
                Token::Name("html".into()),
                Token::Slash,
                Token::Name("body".into()),
                Token::DoubleSlash,
                Token::Name("a".into()),
            ]
        );
    }

    #[test]
    fn predicates_and_operators() {
        let t = tokenize("book[@year >= 1999 and price != 10.5]").unwrap();
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::Ne));
        assert!(t.contains(&Token::Name("and".into())));
        assert!(t.contains(&Token::Number(10.5)));
    }

    #[test]
    fn literals_both_quotes() {
        let t = tokenize("contains(., \"Xcerpt\") or . = 'y'").unwrap();
        assert!(t.contains(&Token::Literal("Xcerpt".into())));
        assert!(t.contains(&Token::Literal("y".into())));
    }

    #[test]
    fn dots_and_numbers() {
        assert_eq!(tokenize(".5").unwrap(), vec![Token::Number(0.5)]);
        assert_eq!(tokenize("..").unwrap(), vec![Token::DotDot]);
        assert_eq!(tokenize(".").unwrap(), vec![Token::Dot]);
        assert_eq!(tokenize("5.25").unwrap(), vec![Token::Number(5.25)]);
    }

    #[test]
    fn axis_separator() {
        let t = tokenize("ancestor-or-self::node()").unwrap();
        assert_eq!(t[0], Token::Name("ancestor-or-self".into()));
        assert_eq!(t[1], Token::ColonColon);
    }

    #[test]
    fn errors() {
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("ns:name").is_err());
        assert!(tokenize("#").is_err());
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(tokenize("a / b").unwrap(), tokenize("a/b").unwrap());
    }
}
