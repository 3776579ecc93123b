//! A small s-expression parser for tensor-graph rewrite patterns.
//!
//! The textual form mirrors the paper's Figure 2: operator applications are
//! parenthesised lists, `?name` is a pattern variable, bare integers are
//! integer parameters, and double-quoted strings are string parameters
//! (permutations, shapes).
//!
//! ```text
//! (split0 1 ?n (matmul ?act ?x (concat2 1 ?w1 ?w2)))
//! ```

use tensat_egraph::{ENodeOrVar, Pattern, RecExpr, Symbol, Var};
use tensat_ir::TensorLang;

/// Errors produced when parsing a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePatternError(pub String);

impl std::fmt::Display for ParsePatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pattern parse error: {}", self.0)
    }
}

impl std::error::Error for ParsePatternError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Open,
    Close,
    Atom(String),
    Str(String),
}

fn tokenize(input: &str) -> Result<Vec<Token>, ParsePatternError> {
    let mut tokens = vec![];
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '(' => {
                tokens.push(Token::Open);
                chars.next();
            }
            ')' => {
                tokens.push(Token::Close);
                chars.next();
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(ch) => s.push(ch),
                        None => {
                            return Err(ParsePatternError("unterminated string literal".into()))
                        }
                    }
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            _ => {
                let mut s = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace() || ch == '(' || ch == ')' {
                        break;
                    }
                    s.push(ch);
                    chars.next();
                }
                tokens.push(Token::Atom(s));
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    ast: RecExpr<ENodeOrVar<TensorLang>>,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn parse_atom(&mut self, atom: &str) -> Result<tensat_egraph::Id, ParsePatternError> {
        if let Some(stripped) = atom.strip_prefix('?') {
            if stripped.is_empty() {
                return Err(ParsePatternError("empty variable name `?`".into()));
            }
            return Ok(self.ast.add(ENodeOrVar::Var(Var::new(stripped))));
        }
        if let Ok(n) = atom.parse::<i64>() {
            return Ok(self.ast.add(ENodeOrVar::ENode(TensorLang::Num(n))));
        }
        Err(ParsePatternError(format!(
            "atom `{atom}` is neither a variable, an integer, nor a string literal; \
             operators must be applied in parentheses"
        )))
    }

    fn parse_expr(&mut self) -> Result<tensat_egraph::Id, ParsePatternError> {
        match self.next() {
            Some(Token::Atom(a)) => self.parse_atom(&a),
            Some(Token::Str(s)) => Ok(self
                .ast
                .add(ENodeOrVar::ENode(TensorLang::Str(Symbol::new(s))))),
            Some(Token::Open) => {
                let op = match self.next() {
                    Some(Token::Atom(op)) => op,
                    other => {
                        return Err(ParsePatternError(format!(
                            "expected operator name after `(`, found {other:?}"
                        )))
                    }
                };
                let mut children = vec![];
                loop {
                    match self.peek() {
                        Some(Token::Close) => {
                            self.next();
                            break;
                        }
                        Some(_) => children.push(self.parse_expr()?),
                        None => return Err(ParsePatternError("unexpected end of input".into())),
                    }
                }
                let node = TensorLang::from_op(&op, children).map_err(ParsePatternError)?;
                Ok(self.ast.add(ENodeOrVar::ENode(node)))
            }
            Some(Token::Close) => Err(ParsePatternError("unexpected `)`".into())),
            None => Err(ParsePatternError("empty pattern".into())),
        }
    }
}

/// Parses a pattern from its textual s-expression form.
///
/// # Errors
///
/// Returns an error describing the first syntax or arity problem found.
///
/// # Examples
///
/// ```
/// use tensat_rules::parse_pattern;
/// let p = parse_pattern("(matmul ?act ?x (concat2 1 ?w1 ?w2))").unwrap();
/// assert_eq!(p.vars().len(), 4);
/// ```
pub fn parse_pattern(input: &str) -> Result<Pattern<TensorLang>, ParsePatternError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        ast: RecExpr::default(),
    };
    parser.parse_expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(ParsePatternError(format!(
            "trailing tokens after pattern: {:?}",
            &parser.tokens[parser.pos..]
        )));
    }
    Ok(Pattern::new(parser.ast))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_pattern() {
        let p = parse_pattern("(ewadd ?x ?y)").unwrap();
        assert_eq!(p.to_string(), "(ewadd ?x ?y)");
        assert_eq!(p.vars().len(), 2);
    }

    #[test]
    fn parses_nested_pattern_with_numbers() {
        let p = parse_pattern("(split0 1 ?n (matmul ?act ?x (concat2 1 ?w1 ?w2)))").unwrap();
        assert_eq!(
            p.to_string(),
            "(split0 1 ?n (matmul ?act ?x (concat2 1 ?w1 ?w2)))"
        );
        assert_eq!(p.vars().len(), 5);
    }

    #[test]
    fn parses_string_literals() {
        let p = parse_pattern("(transpose ?x \"1_0\")").unwrap();
        assert_eq!(p.to_string(), "(transpose ?x 1_0)");
    }

    #[test]
    fn parses_bare_variable() {
        let p = parse_pattern("?x").unwrap();
        assert_eq!(p.to_string(), "?x");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse_pattern("").is_err());
        assert!(parse_pattern("(unknownop ?x)").is_err());
        assert!(parse_pattern("(ewadd ?x)").is_err()); // wrong arity
        assert!(parse_pattern("(ewadd ?x ?y))").is_err()); // trailing token
        assert!(parse_pattern("(ewadd ?x ?y").is_err()); // missing close
        assert!(parse_pattern("justanop").is_err());
        assert!(parse_pattern("?").is_err());
        assert!(parse_pattern("(transpose ?x \"unterminated)").is_err());
    }

    #[test]
    fn negative_numbers_parse() {
        let p = parse_pattern("(matmul -1 ?x ?y)").unwrap();
        assert_eq!(p.to_string(), "(matmul -1 ?x ?y)");
    }
}
