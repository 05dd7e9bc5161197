//! Property tests for DIMACS I/O: the parser answers any input with a
//! formula or an error, never a panic, and written formulas parse back
//! unchanged.

use proptest::prelude::*;

use polykey_sat::{parse_dimacs, write_dimacs, ClauseSink, CnfFormula, Lit, Var};

/// Fragments of DIMACS syntax, well-formed and not, for token soup.
const DIMACS_TOKENS: &[&str] = &[
    "p",
    "cnf",
    "p cnf ",
    "c",
    "%",
    "0",
    " 0",
    "1",
    "-1",
    "7",
    "-12",
    "2147483647",
    "-2147483647",
    "2147483648",
    "-2147483648",
    "4294967295",
    "4294967296",
    "99999999999",
    "18446744073709551616",
    "-",
    "+3",
    "x",
    " ",
    " ",
    "\t",
    "\n",
    "\n",
    "\r\n",
    "\u{e9}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_dimacs_never_panics_on_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = parse_dimacs(&bytes[..]);
    }

    #[test]
    fn parse_dimacs_never_panics_on_token_soup(
        picks in proptest::collection::vec(any::<u16>(), 0..64),
    ) {
        let text: String =
            picks.iter().map(|&i| DIMACS_TOKENS[i as usize % DIMACS_TOKENS.len()]).collect();
        if let Ok(f) = parse_dimacs(text.as_bytes()) {
            // Whatever parses names only variables DIMACS can write back.
            for clause in f.clauses() {
                for &l in clause {
                    prop_assert_eq!(Lit::from_dimacs(l.to_dimacs()), l);
                }
            }
        }
    }

    #[test]
    fn written_formulas_parse_back(
        extra_vars in 0usize..4,
        clauses in proptest::collection::vec(
            proptest::collection::vec((0u32..1000, proptest::bool::ANY), 0..6),
            0..20,
        ),
    ) {
        let mut f = CnfFormula::new();
        for c in &clauses {
            let lits: Vec<Lit> = c.iter().map(|&(v, neg)| Lit::new(Var::new(v), neg)).collect();
            f.add_clause(&lits);
        }
        f.new_vars(extra_vars);
        let mut text = Vec::new();
        write_dimacs(&mut text, &f).expect("write to memory");
        let parsed = parse_dimacs(&text[..]).expect("written DIMACS parses");
        prop_assert_eq!(parsed, f);
    }
}
