//! The attack oracle: the attacker's black-box access to a working chip.
//!
//! The SAT attack's threat model gives the attacker a functional unlocked
//! chip bought on the open market, queried input-by-input. [`SimOracle`]
//! plays that chip by simulating the original netlist; the [`Oracle`] trait
//! keeps the attack code independent of where responses come from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use polykey_netlist::{pack_patterns, unpack_patterns, Netlist, NetlistError, Simulator};

/// Black-box input/output access to the original (unlocked) circuit.
pub trait Oracle {
    /// Number of primary inputs the oracle expects.
    fn num_inputs(&self) -> usize;

    /// Number of outputs the oracle produces.
    fn num_outputs(&self) -> usize;

    /// Queries the chip with one input pattern.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `input` has the wrong width.
    fn query(&mut self, input: &[bool]) -> Vec<bool>;

    /// Answers a whole batch of input patterns in one oracle round-trip,
    /// returning one response per pattern, in order.
    ///
    /// The default implementation loops over [`Oracle::query`], so every
    /// existing oracle keeps working; oracles backed by a bit-parallel
    /// simulator override it to answer up to 64 patterns per simulation
    /// pass (see [`SimOracle`]). The batched SAT attack
    /// (`AttackSessionBuilder::dip_batch`) funnels all its DIP traffic
    /// through this method, so one round-trip amortizes over many DIPs.
    ///
    /// # Panics
    ///
    /// Implementations may panic if any pattern has the wrong width.
    ///
    /// # Examples
    ///
    /// ```
    /// use polykey_attack::{Oracle, SimOracle};
    /// use polykey_netlist::{GateKind, Netlist};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut nl = Netlist::new("inv");
    /// let a = nl.add_input("a")?;
    /// let y = nl.add_gate("y", GateKind::Not, &[a])?;
    /// nl.mark_output(y)?;
    ///
    /// let mut oracle = SimOracle::new(&nl)?;
    /// let batch = vec![vec![false], vec![true]];
    /// // One packed pass answers both patterns...
    /// assert_eq!(oracle.query_batch(&batch), vec![vec![true], vec![false]]);
    /// // ...and each pattern still counts as one query.
    /// assert_eq!(oracle.queries(), 2);
    /// # Ok(())
    /// # }
    /// ```
    fn query_batch(&mut self, inputs: &[Vec<bool>]) -> Vec<Vec<bool>> {
        inputs.iter().map(|input| self.query(input)).collect()
    }

    /// Number of queries served so far (the attack's oracle-access cost).
    /// A batch of `k` patterns counts as `k` queries.
    fn queries(&self) -> u64;
}

/// An oracle that simulates the original netlist (the "working chip").
///
/// Single queries, and batches of one, are simulated incrementally: a
/// query re-evaluates only the gates that the inputs it flips since the
/// previous one reach (see [`Simulator`]). Consecutive DIPs differ in a
/// few inputs, so a query costs a small part of a full pass. Larger batches
/// take one bit-parallel pass per 64 patterns.
///
/// # Examples
///
/// ```
/// use polykey_attack::{Oracle, SimOracle};
/// use polykey_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("inv");
/// let a = nl.add_input("a")?;
/// let y = nl.add_gate("y", GateKind::Not, &[a])?;
/// nl.mark_output(y)?;
///
/// let mut oracle = SimOracle::new(&nl)?;
/// assert_eq!(oracle.query(&[false]), vec![true]);
/// assert_eq!(oracle.queries(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimOracle<'a> {
    sim: Simulator<'a>,
    queries: u64,
}

impl<'a> SimOracle<'a> {
    /// Builds an oracle over the original netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unsupported`], naming the netlist and its
    /// first key inputs, if the netlist has key inputs (an oracle is an
    /// *unlocked* chip).
    pub fn new(netlist: &'a Netlist) -> Result<SimOracle<'a>, NetlistError> {
        let keys = netlist.key_inputs();
        if !keys.is_empty() {
            let mut names: Vec<String> =
                keys.iter().take(4).map(|&k| format!("`{}`", netlist.node_name(k))).collect();
            if keys.len() > 4 {
                names.push(format!("… ({} in all)", keys.len()));
            }
            return Err(NetlistError::Unsupported(format!(
                "key inputs {} in oracle netlist `{}` (an oracle is an unlocked chip)",
                names.join(", "),
                netlist.name()
            )));
        }
        Ok(SimOracle { sim: Simulator::new(netlist)?, queries: 0 })
    }
}

impl Oracle for SimOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.sim.netlist().inputs().len()
    }

    fn num_outputs(&self) -> usize {
        self.sim.netlist().outputs().len()
    }

    fn query(&mut self, input: &[bool]) -> Vec<bool> {
        self.queries += 1;
        self.sim.eval(input, &[])
    }

    fn query_batch(&mut self, inputs: &[Vec<bool>]) -> Vec<Vec<bool>> {
        if let [input] = inputs {
            // A lone pattern (every round of an unbatched attack) takes the
            // incremental single-pattern path.
            return vec![self.query(input)];
        }
        let width = self.num_inputs();
        let mut responses = Vec::with_capacity(inputs.len());
        // One bit-parallel pass per 64 patterns: pattern p of the chunk
        // rides bit p of each input word.
        for chunk in inputs.chunks(64) {
            let packed_in = pack_patterns(chunk, width);
            let packed_out = self.sim.eval_packed(&packed_in, &[]);
            responses.extend(unpack_patterns(&packed_out, chunk.len()));
        }
        self.queries += inputs.len() as u64;
        responses
    }

    fn queries(&self) -> u64 {
        self.queries
    }
}

/// An oracle shared by concurrent sub-attacks: queries are serialized
/// behind a mutex, so any `Send` oracle — simulated or a custom hardware
/// harness — serves every term of the multi-key engine.
pub(crate) struct SharedOracle<'o> {
    inner: Mutex<&'o mut (dyn Oracle + Send)>,
    num_inputs: usize,
    num_outputs: usize,
}

impl<'o> SharedOracle<'o> {
    pub(crate) fn new(oracle: &'o mut (dyn Oracle + Send)) -> SharedOracle<'o> {
        let num_inputs = oracle.num_inputs();
        let num_outputs = oracle.num_outputs();
        SharedOracle { inner: Mutex::new(oracle), num_inputs, num_outputs }
    }

    pub(crate) fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    pub(crate) fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Locks the shared oracle, *recovering* a poisoned mutex: a term
    /// whose oracle panicked mid-query poisons the lock, but the oracle
    /// itself (a query-in, response-out device) holds no half-applied
    /// invariants, and propagating the poison would cascade one term's
    /// panic into every sibling and then the whole session.
    fn lock(&self) -> MutexGuard<'_, &'o mut (dyn Oracle + Send)> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One term's view of the shared oracle. Queries pass through unchanged:
/// the term's SAT attack pins its split bits with unit clauses, so every
/// DIP it asks about already lies in its sub-space. Queries are counted
/// per term through a counter the *caller* owns, outside the engine's
/// panic boundary, and the count is taken from the underlying oracle's
/// *own* delta: a term whose oracle crashes mid-run (even mid-batch) still
/// reports exactly the queries the oracle says it served, so session
/// totals keep reconciling with [`Oracle::queries`] after a panic.
pub(crate) struct TermOracle<'a, 'o> {
    shared: &'a SharedOracle<'o>,
    queries: &'a AtomicU64,
}

impl<'a, 'o> TermOracle<'a, 'o> {
    /// A term view counting served queries into `queries`.
    pub(crate) fn new(
        shared: &'a SharedOracle<'o>,
        queries: &'a AtomicU64,
    ) -> TermOracle<'a, 'o> {
        TermOracle { shared, queries }
    }

    /// Runs `call` against the locked inner oracle, crediting this term
    /// with however many queries the inner oracle's counter advanced —
    /// *including* the partial progress of a call that panics, which is
    /// re-raised after the count lands.
    fn serve<R>(&mut self, call: impl FnOnce(&mut (dyn Oracle + Send)) -> R) -> R {
        let mut inner = self.shared.lock();
        let before = inner.queries();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&mut **inner)));
        let served = inner.queries().saturating_sub(before);
        self.queries.fetch_add(served, Ordering::Relaxed);
        match result {
            Ok(response) => response,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Oracle for TermOracle<'_, '_> {
    fn num_inputs(&self) -> usize {
        self.shared.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.shared.num_outputs()
    }

    fn query(&mut self, input: &[bool]) -> Vec<bool> {
        self.serve(|inner| inner.query(input))
    }

    fn query_batch(&mut self, inputs: &[Vec<bool>]) -> Vec<Vec<bool>> {
        // One lock acquisition serves the whole batch, so concurrent terms
        // amortize contention on the shared oracle along with the
        // round-trip itself.
        self.serve(|inner| inner.query_batch(inputs))
    }

    fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_circuits::Iscas85;
    use polykey_netlist::GateKind;

    fn xor2() -> Netlist {
        let mut nl = Netlist::new("xor2");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let y = nl.add_gate("y", GateKind::Xor, &[a, b]).unwrap();
        nl.mark_output(y).unwrap();
        nl
    }

    #[test]
    fn sim_oracle_answers_and_counts() {
        let nl = xor2();
        let mut oracle = SimOracle::new(&nl).unwrap();
        assert_eq!(oracle.num_inputs(), 2);
        assert_eq!(oracle.num_outputs(), 1);
        assert_eq!(oracle.query(&[true, false]), vec![true]);
        assert_eq!(oracle.query(&[true, true]), vec![false]);
        assert_eq!(oracle.queries(), 2);
    }

    #[test]
    fn keyed_netlist_rejected_as_oracle() {
        let mut nl = xor2();
        nl.add_key_input("k").unwrap();
        let err = SimOracle::new(&nl).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "unsupported construct: key inputs `k` in oracle netlist `{}` \
                 (an oracle is an unlocked chip)",
                nl.name()
            )
        );
        for i in 0..5 {
            nl.add_key_input(format!("k{i}")).unwrap();
        }
        let err = SimOracle::new(&nl).unwrap_err().to_string();
        assert!(err.contains("key inputs `k`, `k0`, `k1`, `k2`, … (6 in all) in"), "{err}");
    }

    #[test]
    fn batch_agrees_with_sequential_queries() {
        let nl = xor2();
        let patterns: Vec<Vec<bool>> =
            (0..4u64).map(|v| polykey_netlist::bits_of(v, 2)).collect();
        let mut sequential = SimOracle::new(&nl).unwrap();
        let expected: Vec<Vec<bool>> = patterns.iter().map(|p| sequential.query(p)).collect();
        let mut batched = SimOracle::new(&nl).unwrap();
        assert_eq!(batched.query_batch(&patterns), expected);
        assert_eq!(batched.queries(), 4);
    }

    #[test]
    fn batch_larger_than_one_packed_word() {
        // 5 inputs, 96 patterns: the packed implementation must chunk.
        let mut nl = Netlist::new("parity5");
        let inputs: Vec<_> = (0..5).map(|i| nl.add_input(format!("x{i}")).unwrap()).collect();
        let y = nl.add_gate("y", GateKind::Xor, &inputs).unwrap();
        nl.mark_output(y).unwrap();
        let patterns: Vec<Vec<bool>> =
            (0..96u64).map(|v| polykey_netlist::bits_of(v % 32, 5)).collect();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let responses = oracle.query_batch(&patterns);
        assert_eq!(responses.len(), 96);
        for (pattern, response) in patterns.iter().zip(&responses) {
            let parity = pattern.iter().filter(|&&b| b).count() % 2 == 1;
            assert_eq!(response, &vec![parity]);
        }
        assert_eq!(oracle.queries(), 96);
    }

    #[test]
    fn one_pattern_batches_match_single_queries() {
        // An unbatched attack sends every DIP as a batch of one: it must
        // answer like `query`, on the same incremental path, and count one
        // query. The patterns walk through no, one and every input flipping.
        let nl = Iscas85::C432.build();
        let width = nl.inputs().len();
        let mut pattern = vec![false; width];
        let mut patterns = Vec::new();
        for step in 0..40 {
            match step % 4 {
                0 => {}
                1 | 2 => pattern[step * 7 % width] ^= true,
                _ => pattern.iter_mut().for_each(|b| *b = !*b),
            }
            patterns.push(pattern.clone());
        }
        let mut single = SimOracle::new(&nl).unwrap();
        let mut batched = SimOracle::new(&nl).unwrap();
        let mut reference = Simulator::new(&nl).unwrap();
        for (served, pattern) in patterns.iter().enumerate() {
            let expected = single.query(pattern);
            assert_eq!(single.queries(), served as u64 + 1);
            assert_eq!(
                batched.query_batch(std::slice::from_ref(pattern)),
                vec![expected.clone()]
            );
            assert_eq!(batched.queries(), served as u64 + 1);
            let packed = reference
                .eval_packed(&pack_patterns(std::slice::from_ref(pattern), width), &[]);
            assert_eq!(unpack_patterns(&packed, 1), vec![expected]);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let nl = xor2();
        let mut oracle = SimOracle::new(&nl).unwrap();
        assert!(oracle.query_batch(&[]).is_empty());
        assert_eq!(oracle.queries(), 0);
    }

    #[test]
    fn shared_oracle_recovers_from_a_poisoned_lock() {
        // A panic while holding the shared-oracle lock (a crashing oracle
        // mid-query) must not cascade: sibling terms recover the mutex and
        // keep querying.
        let nl = xor2();
        let mut oracle = SimOracle::new(&nl).unwrap();
        let shared = SharedOracle::new(&mut oracle);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.lock();
            panic!("oracle crashed mid-query");
        }));
        assert!(poisoned.is_err());
        let served = AtomicU64::new(0);
        let mut term = TermOracle::new(&shared, &served);
        assert_eq!(term.query(&[false, false]), vec![false]);
        assert_eq!(term.query_batch(&[vec![false, true]]), vec![vec![true]]);
        assert_eq!(term.queries(), 2);
    }
}
