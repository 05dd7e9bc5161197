//! The per-DIP consistency constraints of the oracle-guided SAT attack,
//! added as the few clauses they mean over key and miter variables.

use polykey_netlist::Netlist;
use polykey_sat::{ElimBuffer, Lit, Solver};

use crate::miter::{KeyMirror, Miter};
use crate::tseitin::{assert_equal, assert_value, CnfValue, ConeEncoder, EncodeError};

/// Adds the constraints of distinguishing input patterns (DIPs) to the
/// solver of an attack miter.
///
/// A DIP constrains both key copies of the miter: each must reproduce the
/// oracle's whole response at that input. A copy is the locked netlist
/// with inputs pinned to the DIP, encoded by a [`ConeEncoder`] that walks
/// only its key cone and reuses the miter's gates (such as SARLock's
/// `K == K*` mask). An output outside the key's fan-out is a constant of
/// the copy, so its answer folds: a right one adds nothing, a wrong one
/// the empty clause, which leaves no key consistent. Only the left copy
/// is encoded: it goes into an [`ElimBuffer`] together with
/// the response units, which eliminates its private variables, so the
/// solver receives only what the DIP says about the key and miter
/// variables, and later solves never re-propagate the copy's internals.
/// What survives is added twice, once as it is and once renamed through
/// the miter's [`KeyMirror`] onto the right key copy, and the solver
/// merges each clause with an earlier DIP's survivor that differs from it
/// in one literal's sign. While the response is pending, the two copies'
/// outputs are tied instead.
#[derive(Debug)]
pub struct DipConstraints<'n> {
    cone: ConeEncoder<'n>,
    /// The miter's left key literals.
    keys: &'n [Lit],
    mirror: &'n KeyMirror,
    buffer: ElimBuffer,
    /// The literal outputs of a pending DIP's left copy, and their twins
    /// in the right copy.
    kept: Vec<Lit>,
    mirrored: Vec<Lit>,
}

impl<'n> DipConstraints<'n> {
    /// Prepares the constraints of `netlist` against `miter`, which must
    /// be in the solver the constraints are added to and have `netlist`'s
    /// key inputs: the miter of `netlist` with itself, or of a cut of it
    /// that keeps every input, such as its key cone
    /// ([`keep_outputs`](polykey_netlist::keep_outputs)) with the key-free
    /// layers peeled off
    /// ([`peel_key_free_layers`](polykey_netlist::peel_key_free_layers)).
    /// `mirror` is [`KeyMirror::new`] of `miter`.
    pub fn new(
        netlist: &'n Netlist,
        miter: &'n Miter,
        mirror: &'n KeyMirror,
    ) -> DipConstraints<'n> {
        DipConstraints {
            cone: ConeEncoder::over(netlist, Some(&miter.table)),
            keys: &miter.keys_left,
            mirror,
            buffer: ElimBuffer::new(),
            kept: Vec::new(),
            mirrored: Vec::new(),
        }
    }

    /// Requires both key copies to produce `response`, one bit per output
    /// of the netlist, at `pattern`.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::BindingWidth`] if `pattern` does not match
    /// the netlist's inputs or the miter's keys do not match its key
    /// inputs.
    ///
    /// # Panics
    ///
    /// Panics if the copy names a literal the mirror does not map, which
    /// happens only when `mirror` does not belong to the self-miter this
    /// was built with.
    pub fn add_answered(
        &mut self,
        solver: &mut Solver,
        pattern: &[bool],
        response: &[bool],
    ) -> Result<(), EncodeError> {
        self.buffer.reset(solver.num_vars());
        let outputs = self.cone.encode(&mut self.buffer, pattern, self.keys)?;
        for (&out, &bit) in outputs.iter().zip(response) {
            assert_value(&mut self.buffer, out, bit);
        }
        let mirror = self.mirror;
        self.buffer.flush_mirrored(solver, &mut [], &mut self.mirrored, |l| mirror.mirror(l));
        Ok(())
    }

    /// Requires the two key copies to agree at `pattern`, whose response
    /// is not known yet, and returns their output values in `solver`
    /// (`[left, right]`), for the response to be asserted on once it is.
    ///
    /// # Errors
    ///
    /// As [`DipConstraints::add_answered`].
    ///
    /// # Panics
    ///
    /// As [`DipConstraints::add_answered`].
    pub fn add_pending(
        &mut self,
        solver: &mut Solver,
        pattern: &[bool],
    ) -> Result<[Vec<CnfValue>; 2], EncodeError> {
        self.buffer.reset(solver.num_vars());
        let outputs = self.cone.encode(&mut self.buffer, pattern, self.keys)?;
        self.kept.clear();
        self.kept.extend(outputs.iter().filter_map(|v| v.lit()));
        let mirror = self.mirror;
        self.buffer
            .flush_mirrored(solver, &mut self.kept, &mut self.mirrored, |l| mirror.mirror(l));
        let in_solver = |lits: &[Lit]| -> Vec<CnfValue> {
            let mut lits = lits.iter();
            outputs
                .iter()
                .map(|&v| match v {
                    CnfValue::Lit(_) => CnfValue::Lit(*lits.next().expect("one per literal")),
                    constant => constant,
                })
                .collect()
        };
        let (left, right) = (in_solver(&self.kept), in_solver(&self.mirrored));
        for (&l, &r) in left.iter().zip(&right) {
            assert_equal(solver, l, r);
        }
        Ok([left, right])
    }
}
