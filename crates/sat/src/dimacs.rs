//! DIMACS CNF reading and writing.
//!
//! Supports the conventional `p cnf <vars> <clauses>` header, `c` comment
//! lines, and clauses terminated by `0`. Reading is tolerant of clauses
//! spanning multiple lines and of a missing header.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

use crate::cnf::{ClauseSink, CnfFormula};
use crate::lit::Lit;

/// The largest variable number (1-based, as DIMACS counts) that
/// [`Lit::from_dimacs`] can represent.
const MAX_VAR: u64 = i32::MAX as u64;

/// Errors produced while parsing DIMACS input.
#[derive(Debug)]
pub enum ParseDimacsError {
    /// An I/O error from the underlying reader.
    Io(io::Error),
    /// A malformed token, header, or out-of-range literal.
    Syntax {
        /// 1-based line number of the offending input.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDimacsError::Io(e) => write!(f, "i/o error reading dimacs: {e}"),
            ParseDimacsError::Syntax { line, message } => {
                write!(f, "dimacs syntax error at line {line}: {message}")
            }
        }
    }
}

impl Error for ParseDimacsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseDimacsError::Io(e) => Some(e),
            ParseDimacsError::Syntax { .. } => None,
        }
    }
}

impl From<io::Error> for ParseDimacsError {
    fn from(e: io::Error) -> ParseDimacsError {
        ParseDimacsError::Io(e)
    }
}

/// Parses a DIMACS CNF file into a [`CnfFormula`].
///
/// A mutable reference can be passed for `reader` (e.g. `&mut file`).
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on I/O failure, malformed tokens, a repeated
/// header, an unterminated final clause, or a literal or header variable
/// count beyond `i32::MAX`, the largest variable a [`Lit`] can represent.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let input = "c example\np cnf 2 2\n1 -2 0\n2 0\n";
/// let formula = polykey_sat::parse_dimacs(input.as_bytes())?;
/// assert_eq!(formula.num_vars(), 2);
/// assert_eq!(formula.num_clauses(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_dimacs<R: BufRead>(reader: R) -> Result<CnfFormula, ParseDimacsError> {
    let mut formula = CnfFormula::new();
    let mut current: Vec<Lit> = Vec::new();
    let mut saw_header = false;
    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = line_no + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
            continue;
        }
        if trimmed.starts_with('p') {
            if saw_header {
                return Err(ParseDimacsError::Syntax {
                    line: line_no,
                    message: "duplicate header".into(),
                });
            }
            saw_header = true;
            let mut parts = trimmed.split_whitespace();
            let _p = parts.next();
            if parts.next() != Some("cnf") {
                return Err(ParseDimacsError::Syntax {
                    line: line_no,
                    message: "expected `p cnf <vars> <clauses>`".into(),
                });
            }
            let vars = parts
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .filter(|&n| n <= MAX_VAR)
                .ok_or_else(|| ParseDimacsError::Syntax {
                    line: line_no,
                    message: "bad variable count".into(),
                })?;
            formula.set_num_vars(vars as usize);
            continue;
        }
        for token in trimmed.split_whitespace() {
            let value: i64 = token.parse().map_err(|_| ParseDimacsError::Syntax {
                line: line_no,
                message: format!("bad literal token `{token}`"),
            })?;
            if value == 0 {
                formula.add_clause(&current);
                current.clear();
            } else if value.unsigned_abs() > MAX_VAR {
                return Err(ParseDimacsError::Syntax {
                    line: line_no,
                    message: format!("literal `{token}` out of range"),
                });
            } else {
                current.push(Lit::from_dimacs(value as i32));
            }
        }
    }
    if !current.is_empty() {
        return Err(ParseDimacsError::Syntax {
            line: 0,
            message: "unterminated final clause (missing `0`)".into(),
        });
    }
    Ok(formula)
}

/// Writes a formula in DIMACS CNF format.
///
/// A mutable reference can be passed for `writer` (e.g. `&mut file`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_dimacs<W: Write>(mut writer: W, formula: &CnfFormula) -> io::Result<()> {
    writeln!(writer, "p cnf {} {}", formula.num_vars(), formula.num_clauses())?;
    for clause in formula.clauses() {
        for l in clause {
            write!(writer, "{} ", l.to_dimacs())?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let f = parse_dimacs("p cnf 3 2\n1 2 0\n-3 0\n".as_bytes()).expect("valid");
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
        let clauses: Vec<_> = f.clauses().collect();
        assert_eq!(clauses[0], &[Lit::from_dimacs(1), Lit::from_dimacs(2)][..]);
        assert_eq!(clauses[1], &[Lit::from_dimacs(-3)][..]);
    }

    #[test]
    fn parse_multiline_clause_and_comments() {
        let f = parse_dimacs("c hi\np cnf 2 1\n1\n-2\n0\n".as_bytes()).expect("valid");
        assert_eq!(f.num_clauses(), 1);
        assert_eq!(f.clauses().next().map(<[Lit]>::len), Some(2));
    }

    #[test]
    fn parse_headerless_is_tolerated() {
        let f = parse_dimacs("1 -2 0\n".as_bytes()).expect("valid");
        assert_eq!(f.num_vars(), 2);
        assert_eq!(f.num_clauses(), 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = parse_dimacs("p cnf 2 1\n1 x 0\n".as_bytes()).expect_err("invalid token");
        match err {
            ParseDimacsError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_unterminated() {
        let err = parse_dimacs("p cnf 2 1\n1 2\n".as_bytes()).expect_err("unterminated");
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn parse_rejects_duplicate_header() {
        let err =
            parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n".as_bytes()).expect_err("dup header");
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn parse_rejects_literals_beyond_the_largest_variable() {
        for token in ["4294967295", "3000000000", "2147483648", "-2147483648", "-4294967295"] {
            let input = format!("p cnf 1 1\n{token} 0\n");
            let err = parse_dimacs(input.as_bytes()).expect_err(token);
            assert!(err.to_string().contains("out of range"), "{token}: {err}");
        }
        let f =
            parse_dimacs("2147483647 -2147483647 0\n".as_bytes()).expect("largest variable");
        let top = Lit::from_dimacs(i32::MAX);
        assert_eq!(f.clauses().next(), Some(&[top, !top][..]));
    }

    #[test]
    fn parse_rejects_header_counts_beyond_the_largest_variable() {
        for count in ["99999999999", "2147483648", "18446744073709551616"] {
            let input = format!("p cnf {count} 1\n1 0\n");
            let err = parse_dimacs(input.as_bytes()).expect_err(count);
            assert!(err.to_string().contains("variable count"), "{count}: {err}");
        }
        let f = parse_dimacs("p cnf 2147483647 0\n".as_bytes()).expect("largest count");
        assert_eq!(f.num_vars(), i32::MAX as usize);
    }

    #[test]
    fn round_trip() {
        let input = "p cnf 4 3\n1 -2 0\n3 4 -1 0\n2 0\n";
        let f = parse_dimacs(input.as_bytes()).expect("valid");
        let mut out = Vec::new();
        write_dimacs(&mut out, &f).expect("write");
        let f2 = parse_dimacs(&out[..]).expect("round trip parses");
        assert_eq!(f, f2);
    }

    #[test]
    fn error_display_is_informative() {
        let err = parse_dimacs("p dnf 1 1\n".as_bytes()).expect_err("bad format tag");
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
    }
}
