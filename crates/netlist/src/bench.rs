//! ISCAS `.bench` format reading and writing.
//!
//! The dialect understood here is the classic ISCAS'85 combinational subset:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G22)
//! G10 = NAND(G1, G3)
//! ```
//!
//! plus three extensions used by the logic-locking ecosystem:
//!
//! - inputs whose name starts with `keyinput` (any case) are classified as
//!   key inputs, matching the convention of published locked benchmarks;
//! - an explicit `KEYINPUT(name)` declaration;
//! - `MUX`, `CONST0()` and `CONST1()` gates.
//!
//! Sequential elements (`DFF`) are rejected with a clear error: the attack
//! framework is combinational-only.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistError, NodeId};

/// Errors produced while parsing a `.bench` file.
#[derive(Debug)]
pub enum ParseBenchError {
    /// An I/O error from the underlying reader.
    Io(io::Error),
    /// A malformed line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A structural error detected while assembling the netlist
    /// (duplicate names, unknown signals, cycles, bad arity, …).
    Netlist(NetlistError),
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBenchError::Io(e) => write!(f, "i/o error reading bench: {e}"),
            ParseBenchError::Syntax { line, message } => {
                write!(f, "bench syntax error at line {line}: {message}")
            }
            ParseBenchError::Netlist(e) => write!(f, "bench structural error: {e}"),
        }
    }
}

impl Error for ParseBenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseBenchError::Io(e) => Some(e),
            ParseBenchError::Netlist(e) => Some(e),
            ParseBenchError::Syntax { .. } => None,
        }
    }
}

impl From<io::Error> for ParseBenchError {
    fn from(e: io::Error) -> ParseBenchError {
        ParseBenchError::Io(e)
    }
}

impl From<NetlistError> for ParseBenchError {
    fn from(e: NetlistError) -> ParseBenchError {
        ParseBenchError::Netlist(e)
    }
}

/// True if `name` follows the locked-benchmark key-input naming convention.
fn is_key_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.starts_with("keyinput") || lower.starts_with("key_input")
}

/// Parses a `.bench` netlist. A mutable reference can be passed for
/// `reader` (e.g. `&mut file`).
///
/// Signals may be referenced before they are defined (forward references are
/// resolved at the end). The resulting netlist is fully validated.
///
/// # Errors
///
/// Returns [`ParseBenchError`] on I/O failure, malformed lines, unsupported
/// constructs (e.g. `DFF`), or structural problems (cycles, unknown
/// signals, duplicate definitions).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
/// let nl = polykey_netlist::parse_bench(src.as_bytes(), "tiny")?;
/// assert_eq!(nl.inputs().len(), 2);
/// assert_eq!(nl.num_gates(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_bench<R: BufRead>(reader: R, name: &str) -> Result<Netlist, ParseBenchError> {
    enum Decl {
        Input { name: String, key: bool },
        Output(String),
        Gate { name: String, kind: GateKind, fanins: Vec<String> },
    }

    let mut decls: Vec<(usize, Decl)> = Vec::new();
    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = line_no + 1;
        let code = match line.find('#') {
            Some(pos) => &line[..pos],
            None => &line[..],
        };
        let code = code.trim();
        if code.is_empty() {
            continue;
        }
        let syntax = |message: String| ParseBenchError::Syntax { line: line_no, message };

        if let Some(rest) = strip_keyword(code, "INPUT") {
            let signal = parse_parenthesized(rest).map_err(syntax)?;
            let key = is_key_name(&signal);
            decls.push((line_no, Decl::Input { name: signal, key }));
        } else if let Some(rest) = strip_keyword(code, "KEYINPUT") {
            let signal = parse_parenthesized(rest).map_err(syntax)?;
            decls.push((line_no, Decl::Input { name: signal, key: true }));
        } else if let Some(rest) = strip_keyword(code, "OUTPUT") {
            let signal = parse_parenthesized(rest).map_err(syntax)?;
            decls.push((line_no, Decl::Output(signal)));
        } else if let Some(eq) = code.find('=') {
            let lhs = code[..eq].trim();
            let rhs = code[eq + 1..].trim();
            if lhs.is_empty() {
                return Err(syntax("missing signal name before `=`".into()));
            }
            let open = rhs.find('(').ok_or_else(|| {
                syntax(format!("expected `KIND(args)` after `=`, got `{rhs}`"))
            })?;
            if !rhs.ends_with(')') {
                return Err(syntax("missing closing `)`".into()));
            }
            let kind_str = rhs[..open].trim();
            let kind = GateKind::from_bench_name(kind_str).ok_or_else(|| {
                if kind_str.eq_ignore_ascii_case("dff") {
                    ParseBenchError::Netlist(NetlistError::Unsupported(format!(
                        "sequential element `{kind_str}` at line {line_no} (combinational \
                         netlists only)"
                    )))
                } else {
                    syntax(format!("unknown gate kind `{kind_str}`"))
                }
            })?;
            let args = rhs[open + 1..rhs.len() - 1].trim();
            let fanins: Vec<String> = if args.is_empty() {
                Vec::new()
            } else {
                args.split(',').map(|s| s.trim().to_string()).collect()
            };
            if fanins.iter().any(String::is_empty) {
                return Err(syntax("empty fanin name".into()));
            }
            decls.push((line_no, Decl::Gate { name: lhs.to_string(), kind, fanins }));
        } else {
            return Err(syntax(format!("unrecognized line `{code}`")));
        }
    }

    // Pass 1: create all named nodes (gates as placeholders).
    let mut nl = Netlist::new(name);
    let mut gate_ids: Vec<(NodeId, GateKind, Vec<String>)> = Vec::new();
    for (_line, decl) in &decls {
        match decl {
            Decl::Input { name, key } => {
                if *key {
                    nl.add_key_input(name.clone())?;
                } else {
                    nl.add_input(name.clone())?;
                }
            }
            Decl::Output(_) => {}
            Decl::Gate { name, kind, fanins } => {
                // Placeholder; its definition is patched in pass 2 once all
                // names exist (forward references are legal in .bench).
                let id = nl.add_const(name.clone(), false)?;
                gate_ids.push((id, *kind, fanins.clone()));
            }
        }
    }
    // Pass 2: resolve fanins and patch definitions.
    for (id, kind, fanins) in gate_ids {
        let resolved: Result<Vec<NodeId>, ParseBenchError> = fanins
            .iter()
            .map(|f| {
                nl.find(f).ok_or_else(|| {
                    ParseBenchError::Netlist(NetlistError::UnknownSignal(f.clone()))
                })
            })
            .collect();
        nl.set_node(id, kind, resolved?);
    }
    // Outputs last: they may reference any named signal.
    for (_line, decl) in &decls {
        if let Decl::Output(signal) = decl {
            let id = nl.find(signal).ok_or_else(|| {
                ParseBenchError::Netlist(NetlistError::UnknownSignal(signal.clone()))
            })?;
            nl.mark_output(id)?;
        }
    }
    nl.validate()?;
    Ok(nl)
}

fn strip_keyword<'a>(code: &'a str, keyword: &str) -> Option<&'a str> {
    let head = code.get(..keyword.len())?;
    if head.eq_ignore_ascii_case(keyword) {
        let rest = &code[keyword.len()..];
        // Must be followed by an open paren (possibly after spaces) so that
        // a gate assignment like `INPUTX = AND(a, b)` is not misparsed.
        let trimmed = rest.trim_start();
        if trimmed.starts_with('(') {
            return Some(trimmed);
        }
    }
    None
}

fn parse_parenthesized(rest: &str) -> Result<String, String> {
    let inner = rest
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| format!("expected `(signal)`, got `{rest}`"))?;
    let signal = inner.trim();
    if signal.is_empty() {
        return Err("empty signal name".into());
    }
    if signal.contains(',') {
        return Err(format!("expected a single signal, got `{signal}`"));
    }
    Ok(signal.to_string())
}

/// Writes a netlist in `.bench` format. A mutable reference can be passed
/// for `writer`.
///
/// Key inputs named with the `keyinput` convention are emitted as plain
/// `INPUT(...)` lines (maximally compatible with external tools and
/// re-classified on re-parse); other key inputs use the `KEYINPUT(...)`
/// extension. Gates are emitted in topological order.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_bench<W: Write>(mut writer: W, netlist: &Netlist) -> io::Result<()> {
    writeln!(writer, "# {}", netlist.name())?;
    writeln!(
        writer,
        "# {} inputs, {} key inputs, {} outputs, {} gates",
        netlist.inputs().len(),
        netlist.key_inputs().len(),
        netlist.outputs().len(),
        netlist.num_gates()
    )?;
    for &pi in netlist.inputs() {
        writeln!(writer, "INPUT({})", netlist.node_name(pi))?;
    }
    for &ki in netlist.key_inputs() {
        let name = netlist.node_name(ki);
        if is_key_name(name) {
            writeln!(writer, "INPUT({name})")?;
        } else {
            writeln!(writer, "KEYINPUT({name})")?;
        }
    }
    for &o in netlist.outputs() {
        writeln!(writer, "OUTPUT({})", netlist.node_name(o))?;
    }
    for &id in netlist.topological_order() {
        let node = netlist.node(id);
        let kind = node.kind();
        if kind.is_input() {
            continue;
        }
        let args: Vec<&str> = node.fanins().iter().map(|f| netlist.node_name(*f)).collect();
        writeln!(
            writer,
            "{} = {}({})",
            netlist.node_name(id),
            kind.bench_name().expect("non-input"),
            args.join(", ")
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{bits_of, Simulator};

    const C17: &str = "\
# c17 from the ISCAS'85 suite
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

    #[test]
    fn parse_c17() {
        let nl = parse_bench(C17.as_bytes(), "c17").expect("valid");
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.num_gates(), 6);
        assert_eq!(nl.name(), "c17");
        // All inputs 0: G10=G11=1, G16=NAND(0,1)=1, G19=NAND(1,0)=1,
        // so G22=NAND(1,1)=0 and G23=NAND(1,1)=0.
        let mut sim = Simulator::new(&nl).unwrap();
        let out = sim.eval(&[false; 5], &[]);
        assert_eq!(out, vec![false, false]);
        // And with G2 = G3 = 1: G11 = NAND(1,0)=1... check one more point:
        // inputs (1,1,1,1,1): G10=0, G11=0, G16=1, G19=1, G22=1, G23=0.
        let out = sim.eval(&[true; 5], &[]);
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn forward_references_ok() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = NOT(a)\n";
        let nl = parse_bench(src.as_bytes(), "fwd").expect("forward refs are legal");
        let mut sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.eval(&[true], &[]), vec![true]);
    }

    #[test]
    fn keyinput_conventions() {
        let src = "INPUT(a)\nINPUT(keyinput0)\nKEYINPUT(k_explicit)\nOUTPUT(y)\n\
                   y = XOR(a, keyinput0)\n";
        let nl = parse_bench(src.as_bytes(), "locked").expect("valid");
        assert_eq!(nl.inputs().len(), 1);
        assert_eq!(nl.key_inputs().len(), 2);
    }

    #[test]
    fn rejects_dff() {
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n";
        let err = parse_bench(src.as_bytes(), "seq").expect_err("sequential");
        assert!(err.to_string().contains("sequential"), "{err}");
    }

    #[test]
    fn rejects_unknown_signal() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        let err = parse_bench(src.as_bytes(), "t").expect_err("unknown");
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn rejects_cycle() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n";
        let err = parse_bench(src.as_bytes(), "t").expect_err("cycle");
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn rejects_duplicate_definition() {
        let src = "INPUT(a)\na = NOT(a)\n";
        let err = parse_bench(src.as_bytes(), "t").expect_err("dup");
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_garbage_line() {
        let src = "INPUT(a)\nTHIS IS NOT BENCH\n";
        let err = parse_bench(src.as_bytes(), "t").expect_err("garbage");
        match err {
            ParseBenchError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let src = "\n# full comment\nINPUT(a)  # trailing comment\nOUTPUT(y)\ny = NOT(a)\n";
        let nl = parse_bench(src.as_bytes(), "t").expect("valid");
        assert_eq!(nl.num_gates(), 1);
    }

    #[test]
    fn round_trip_preserves_function() {
        let nl = parse_bench(C17.as_bytes(), "c17").expect("valid");
        let mut text = Vec::new();
        write_bench(&mut text, &nl).expect("write");
        let nl2 = parse_bench(&text[..], "c17").expect("round trip");
        assert_eq!(nl.inputs().len(), nl2.inputs().len());
        assert_eq!(nl.outputs().len(), nl2.outputs().len());
        assert_eq!(nl.num_gates(), nl2.num_gates());
        let mut s1 = Simulator::new(&nl).unwrap();
        let mut s2 = Simulator::new(&nl2).unwrap();
        for v in 0..32u64 {
            let bits = bits_of(v, 5);
            assert_eq!(s1.eval(&bits, &[]), s2.eval(&bits, &[]), "pattern {v}");
        }
    }

    #[test]
    fn round_trip_with_keys_and_consts() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let k = nl.add_key_input("keyinput0").unwrap();
        let k2 = nl.add_key_input("odd_key").unwrap();
        let c1 = nl.add_const("tie1", true).unwrap();
        let x = nl.add_gate("x", GateKind::Xor, &[a, k]).unwrap();
        let m = nl.add_gate("m", GateKind::Mux, &[k2, x, c1]).unwrap();
        nl.mark_output(m).unwrap();

        let mut text = Vec::new();
        write_bench(&mut text, &nl).expect("write");
        let nl2 = parse_bench(&text[..], "t").expect("parse");
        assert_eq!(nl2.key_inputs().len(), 2);
        let mut s1 = Simulator::new(&nl).unwrap();
        let mut s2 = Simulator::new(&nl2).unwrap();
        for v in 0..8u64 {
            let b = bits_of(v, 3);
            assert_eq!(s1.eval(&b[..1], &b[1..]), s2.eval(&b[..1], &b[1..]));
        }
    }

    #[test]
    fn case_insensitive_keywords() {
        let src = "input(a)\noutput(y)\ny = nand(a, a)\n";
        let nl = parse_bench(src.as_bytes(), "t").expect("valid");
        assert_eq!(nl.num_gates(), 1);
    }
}
