//! The per-DIP consistency constraints of the oracle-guided SAT attack,
//! added as the few clauses they mean over key and miter variables.

use polykey_netlist::Netlist;
use polykey_sat::{ElimBuffer, Lit, Solver};

use crate::miter::Miter;
use crate::tseitin::{assert_equal, assert_value, CnfValue, ConeEncoder, EncodeError};

/// Adds the constraints of distinguishing input patterns (DIPs) to the
/// solver of an attack miter.
///
/// A DIP constrains both key copies of the miter: each must reproduce the
/// oracle's response at that input. Each copy is the key cone of the
/// locked netlist with inputs pinned to the DIP, encoded by a
/// [`ConeEncoder`] that reuses the miter's gates (such as SARLock's
/// `K == K*` mask). Both copies go into one [`ElimBuffer`] together with
/// the response units, or with the ties between their outputs while the
/// response is pending. The buffer eliminates the copies' private
/// variables, so the solver receives only what the DIP says about the key
/// and miter variables, and later solves never re-propagate the copies'
/// internals.
#[derive(Debug)]
pub struct DipConstraints<'n> {
    cone: ConeEncoder<'n>,
    /// The miter's left and right key literals.
    keys: [&'n [Lit]; 2],
    buffer: ElimBuffer,
    /// The literal outputs of a pending DIP's copies.
    kept: Vec<Lit>,
}

impl<'n> DipConstraints<'n> {
    /// Prepares the constraints of `netlist` against `miter`, which must
    /// be in the solver the constraints are added to and have `netlist`'s
    /// key inputs: the miter of `netlist` with itself, or of a cut of it
    /// that keeps every input, such as
    /// [`peel_key_free_layers`](polykey_netlist::peel_key_free_layers).
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::Netlist`] for cyclic netlists.
    pub fn new(
        netlist: &'n Netlist,
        miter: &'n Miter,
    ) -> Result<DipConstraints<'n>, EncodeError> {
        Ok(DipConstraints {
            cone: ConeEncoder::over(netlist, Some(&miter.table))?,
            keys: [&miter.keys_left, &miter.keys_right],
            buffer: ElimBuffer::new(),
            kept: Vec::new(),
        })
    }

    /// Requires both key copies to produce `response` at `pattern`.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::BindingWidth`] if `pattern` does not match
    /// the netlist's inputs or the miter's keys do not match its key
    /// inputs.
    pub fn add_answered(
        &mut self,
        solver: &mut Solver,
        pattern: &[bool],
        response: &[bool],
    ) -> Result<(), EncodeError> {
        self.buffer.reset(solver.num_vars());
        let left = self.cone.encode(&mut self.buffer, pattern, self.keys[0])?;
        let right = self.cone.encode(&mut self.buffer, pattern, self.keys[1])?;
        for outputs in [left, right] {
            for (&out, &bit) in outputs.iter().zip(response) {
                assert_value(&mut self.buffer, out, bit);
            }
        }
        self.buffer.flush(solver, &mut []);
        Ok(())
    }

    /// Requires the two key copies to agree at `pattern`, whose response
    /// is not known yet, and returns their output values in `solver`
    /// (`[left, right]`), for the response to be asserted on once it is.
    ///
    /// # Errors
    ///
    /// As [`DipConstraints::add_answered`].
    pub fn add_pending(
        &mut self,
        solver: &mut Solver,
        pattern: &[bool],
    ) -> Result<[Vec<CnfValue>; 2], EncodeError> {
        self.buffer.reset(solver.num_vars());
        let left = self.cone.encode(&mut self.buffer, pattern, self.keys[0])?;
        let right = self.cone.encode(&mut self.buffer, pattern, self.keys[1])?;
        for (&l, &r) in left.iter().zip(&right) {
            assert_equal(&mut self.buffer, l, r);
        }
        self.kept.clear();
        self.kept.extend(left.iter().chain(&right).filter_map(|v| v.lit()));
        self.buffer.flush(solver, &mut self.kept);
        let mut mapped = self.kept.iter();
        let mut in_solver = |values: Vec<CnfValue>| -> Vec<CnfValue> {
            values
                .into_iter()
                .map(|v| match v {
                    CnfValue::Lit(_) => CnfValue::Lit(*mapped.next().expect("one per literal")),
                    constant => constant,
                })
                .collect()
        };
        Ok([in_solver(left), in_solver(right)])
    }
}
