//! The attack's CNF: the session encoding of a locked netlist, and the
//! per-DIP constraints every run of the session adds to it, in both
//! formulations.

use std::borrow::Cow;

use polykey_netlist::{keep_outputs, peel_key_free_layers, Netlist};
use polykey_sat::{ClauseSink, ElimBuffer, Lit, Solver};

use crate::miter::{build_miter, KeyMirror, Miter};
use crate::tseitin::{
    assert_equal, assert_value, encode, Binding, CnfValue, ConeEncoder, ConePlan, PortBinding,
};

/// A locked netlist encoded for the oracle-guided SAT attack, once per
/// session: the miter every solver of the session starts from, and what
/// its runs need to add each DIP ([`AttackEncoding::dip_constraints`]).
#[derive(Debug)]
pub struct AttackEncoding<'n> {
    /// The attacked netlist, with every output: what DIP copies encode.
    netlist: &'n Netlist,
    miter: Miter,
    formulation: Formulation,
}

/// How the per-DIP copies are encoded.
#[derive(Debug)]
enum Formulation {
    /// Inputs pinned as constants: each copy walks the key cone along
    /// `plan`, hashed against the miter, and is renamed onto the right
    /// keys by `mirror`.
    Folded { plan: ConePlan, mirror: KeyMirror },
    /// The textbook formulation: full copies with unit clauses on the
    /// inputs.
    Textbook,
}

impl<'n> AttackEncoding<'n> {
    /// Encodes `netlist` and returns the encoding with a new solver that
    /// holds its miter. The miter compares two key copies of the key cone
    /// (every input, and the outputs the keys reach with their fan-in)
    /// with its key-free output layers peeled off
    /// ([`peel_key_free_layers`]): it is satisfiable on exactly the inputs
    /// and key pairs the whole cone's miter is, but holds only the logic
    /// the key changes. The key cone the DIP copies walk and their renaming
    /// onto the right keys are built here too. The `textbook` formulation
    /// keeps every output, peels nothing, and adds two full copies per DIP.
    ///
    /// Every constraint a run adds is a fact the oracle confirmed, so a
    /// solver resumed with more input pins stays sound.
    pub fn new(netlist: &'n Netlist, textbook: bool) -> (AttackEncoding<'n>, Solver) {
        let mut solver = Solver::new();
        let mut self_miter = |differs: &Netlist| {
            build_miter(&mut solver, differs, differs).expect("a netlist has its own interface")
        };
        let (miter, formulation) = if textbook {
            (self_miter(netlist), Formulation::Textbook)
        } else {
            let plan = ConePlan::new(netlist);
            let outputs = netlist.outputs();
            let kept: Vec<usize> =
                (0..outputs.len()).filter(|&i| plan.controls(outputs[i])).collect();
            let cone = (kept.len() < outputs.len()).then(|| {
                keep_outputs(netlist, &kept).expect("the key's outputs are distinct positions")
            });
            let differs = peel_key_free_layers(cone.as_ref().unwrap_or(netlist));
            let miter = self_miter(&differs);
            let mirror = KeyMirror::new(&miter);
            (miter, Formulation::Folded { plan, mirror })
        };
        (AttackEncoding { netlist, miter, formulation }, solver)
    }

    /// The miter every run searches: its shared inputs, both key copies
    /// and the `diff` literal that asks for a DIP.
    pub fn miter(&self) -> &Miter {
        &self.miter
    }

    /// The per-DIP constraints of one run, which adds them to a solver
    /// that started from this encoding's.
    pub fn dip_constraints(&self) -> DipConstraints<'_> {
        let copies = match &self.formulation {
            Formulation::Folded { plan, mirror } => Copies::Folded(Box::new(FoldedCopies {
                cone: ConeEncoder::over(
                    self.netlist,
                    Cow::Borrowed(plan),
                    Some(&self.miter.table),
                ),
                mirror,
                buffer: ElimBuffer::new(),
                kept: Vec::new(),
                mirrored: Vec::new(),
            })),
            Formulation::Textbook => Copies::Full,
        };
        DipConstraints { netlist: self.netlist, miter: &self.miter, copies }
    }
}

/// Adds the constraints of distinguishing input patterns (DIPs) to the
/// solver of an [`AttackEncoding`]: both key copies of the miter must
/// reproduce the oracle's whole response at the DIP.
///
/// The textbook formulation adds two copies of the whole netlist with unit
/// clauses on their inputs. The folded one pins the inputs as constants:
/// a [`ConeEncoder`] walks only the key cone and reuses the miter's gates
/// (such as SARLock's `K == K*` mask), and an output outside the key's
/// fan-out folds with its answer, to nothing or to the empty clause. Only
/// the left copy is encoded, into an [`ElimBuffer`] with the response
/// units, which eliminates its private variables; what survives is added
/// as it is and renamed onto the right keys, and the solver merges each
/// clause with an earlier DIP's survivor one literal's sign apart.
///
/// While the response is pending, the copies' outputs are tied instead
/// ([`DipConstraints::add_pending`]), and the response lands on them once
/// it is known ([`DipConstraints::answer`]).
#[derive(Debug)]
pub struct DipConstraints<'e> {
    netlist: &'e Netlist,
    miter: &'e Miter,
    copies: Copies<'e>,
}

/// The per-DIP copies of one formulation; full copies keep no state.
#[derive(Debug)]
enum Copies<'e> {
    Folded(Box<FoldedCopies<'e>>),
    Full,
}

/// The folded copies' encoder and elimination state.
#[derive(Debug)]
struct FoldedCopies<'e> {
    cone: ConeEncoder<'e>,
    mirror: &'e KeyMirror,
    buffer: ElimBuffer,
    /// The literal outputs of a pending DIP's left copy, and their twins
    /// in the right copy.
    kept: Vec<Lit>,
    mirrored: Vec<Lit>,
}

/// The two copies of a DIP whose response is still pending, as
/// [`DipConstraints::add_pending`] added them: their output values in the
/// solver, left copy first. [`DipConstraints::answer`] settles them.
#[derive(Debug)]
#[must_use = "a pending DIP constrains its keys only once it is answered"]
pub struct PendingCopies([Vec<CnfValue>; 2]);

impl DipConstraints<'_> {
    /// Requires both key copies to produce `response`, one bit per output
    /// of the netlist, at `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` does not have one bit per input of the netlist
    /// or `response` one bit per output.
    pub fn add_answered(&mut self, solver: &mut Solver, pattern: &[bool], response: &[bool]) {
        self.check_response(response);
        match &mut self.copies {
            Copies::Folded(folded) => {
                let FoldedCopies { cone, mirror, buffer, mirrored, .. } = &mut **folded;
                buffer.reset(solver.num_vars());
                let outputs = cone.encode(buffer, pattern, &self.miter.keys_left);
                require(buffer, &outputs, response);
                buffer.flush_mirrored(solver, &mut [], mirrored, |l| mirror.mirror(l));
            }
            Copies::Full => {
                full_copies(solver, self.netlist, self.miter, pattern, Some(response));
            }
        }
    }

    /// Requires the two key copies to agree at `pattern`, whose response
    /// is not known yet, and returns the copies for
    /// [`DipConstraints::answer`] to settle once it is.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` does not have one bit per input of the netlist.
    pub fn add_pending(&mut self, solver: &mut Solver, pattern: &[bool]) -> PendingCopies {
        match &mut self.copies {
            Copies::Folded(folded) => {
                let FoldedCopies { cone, mirror, buffer, kept, mirrored } = &mut **folded;
                buffer.reset(solver.num_vars());
                let outputs = cone.encode(buffer, pattern, &self.miter.keys_left);
                kept.clear();
                kept.extend(outputs.iter().filter_map(|v| v.lit()));
                buffer.flush_mirrored(solver, kept, mirrored, |l| mirror.mirror(l));
                let in_solver = |lits: &[Lit]| -> Vec<CnfValue> {
                    let mut lits = lits.iter();
                    outputs
                        .iter()
                        .map(|&v| match v {
                            CnfValue::Lit(_) => {
                                CnfValue::Lit(*lits.next().expect("one per literal"))
                            }
                            constant => constant,
                        })
                        .collect()
                };
                let (left, right) = (in_solver(kept), in_solver(mirrored));
                for (&l, &r) in left.iter().zip(&right) {
                    assert_equal(solver, l, r);
                }
                PendingCopies([left, right])
            }
            Copies::Full => {
                PendingCopies(full_copies(solver, self.netlist, self.miter, pattern, None))
            }
        }
    }

    /// Requires both copies of a pending DIP to produce `response`, one
    /// bit per output of the netlist.
    ///
    /// # Panics
    ///
    /// Panics if `response` does not have one bit per output.
    pub fn answer(&self, solver: &mut Solver, pending: PendingCopies, response: &[bool]) {
        self.check_response(response);
        for outputs in &pending.0 {
            require(solver, outputs, response);
        }
    }

    /// A short response would leave the missing outputs unconstrained.
    fn check_response(&self, response: &[bool]) {
        assert_eq!(response.len(), self.netlist.outputs().len(), "one response bit per output");
    }
}

/// Requires `outputs` to take the values of `response`.
fn require<S: ClauseSink>(sink: &mut S, outputs: &[CnfValue], response: &[bool]) {
    for (&out, &bit) in outputs.iter().zip(response) {
        assert_value(sink, out, bit);
    }
}

/// One textbook copy of `netlist` over `keys`: the whole circuit, with
/// unit clauses pinning its inputs to `pattern`.
fn full_copy<S: ClauseSink>(
    sink: &mut S,
    netlist: &Netlist,
    pattern: &[bool],
    keys: &[Lit],
) -> Vec<CnfValue> {
    assert_eq!(pattern.len(), netlist.inputs().len(), "one pattern bit per input");
    let binding = Binding {
        inputs: vec![PortBinding::Fresh; pattern.len()],
        keys: keys.iter().map(|&l| PortBinding::Shared(l)).collect(),
    };
    let copy = encode(sink, netlist, &binding).expect("the miter's keys are the netlist's");
    require(sink, &copy.inputs, pattern);
    copy.outputs
}

/// The textbook copies of `pattern` over the left and the right keys:
/// each answered as soon as it is encoded when `response` is known, else
/// tied to each other.
fn full_copies<S: ClauseSink>(
    sink: &mut S,
    netlist: &Netlist,
    miter: &Miter,
    pattern: &[bool],
    response: Option<&[bool]>,
) -> [Vec<CnfValue>; 2] {
    let copies = [&miter.keys_left, &miter.keys_right].map(|keys| {
        let outputs = full_copy(sink, netlist, pattern, keys);
        if let Some(response) = response {
            require(sink, &outputs, response);
        }
        outputs
    });
    if response.is_none() {
        for (&l, &r) in copies[0].iter().zip(&copies[1]) {
            assert_equal(sink, l, r);
        }
    }
    copies
}

#[cfg(test)]
mod tests {
    use super::*;
    use polykey_circuits::Iscas85;
    use polykey_locking::{LockScheme, LutLock, Rll, Sarlock};
    use polykey_netlist::{bits_of, Simulator};
    use polykey_sat::CnfFormula;
    use rand::SeedableRng;

    /// The textbook copy's reference: [`encode`] under fresh inputs and
    /// the given keys, then a unit clause per input.
    fn reference_copy(
        sink: &mut CnfFormula,
        netlist: &Netlist,
        pattern: &[bool],
        keys: &[Lit],
    ) -> Vec<CnfValue> {
        let mut binding = Binding::fresh(netlist);
        binding.keys = keys.iter().map(|&l| PortBinding::Shared(l)).collect();
        let copy = encode(sink, netlist, &binding).unwrap();
        for (&input, &bit) in copy.inputs.iter().zip(pattern) {
            assert_value(sink, input, bit);
        }
        copy.outputs
    }

    #[test]
    fn textbook_copies_are_the_plain_encoding_with_pinned_inputs() {
        // Answered and pending DIPs, some answered wrong, over locks that
        // leave outputs outside the key cone (RLL, SARLock) and one that
        // ends in MUX trees (LUT): the textbook arm and its reference must
        // send the same clause stream into a formula over the miter's
        // variables.
        let original = Iscas85::C432.build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let schemes: [Box<dyn LockScheme>; 3] = [
            Box::new(Rll::new(6).with_seed(5)),
            Box::new(Sarlock::new(5)),
            Box::new(LutLock::small().with_seed(5)),
        ];
        let mut oracle = Simulator::new(&original).unwrap();
        for scheme in &schemes {
            let locked = scheme.lock_random(&original, &mut rng).unwrap().netlist;
            let (encoding, solver) = AttackEncoding::new(&locked, true);
            let miter = encoding.miter();
            let mut got = CnfFormula::new();
            let mut want = CnfFormula::new();
            got.set_num_vars(solver.num_vars());
            want.set_num_vars(solver.num_vars());
            for i in 0..8u64 {
                let dip = bits_of(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), locked.inputs().len());
                let mut response = oracle.eval(&dip, &[]);
                if i % 3 == 2 {
                    let at = i as usize % response.len();
                    response[at] = !response[at];
                }
                let [left, right] = [&miter.keys_left, &miter.keys_right];
                if i % 2 == 0 {
                    full_copies(&mut got, &locked, miter, &dip, Some(&response));
                    // Each copy is answered as soon as it is encoded.
                    for keys in [left, right] {
                        let outputs = reference_copy(&mut want, &locked, &dip, keys);
                        for (&out, &bit) in outputs.iter().zip(&response) {
                            assert_value(&mut want, out, bit);
                        }
                    }
                } else {
                    let pending = full_copies(&mut got, &locked, miter, &dip, None);
                    let copies = [left, right]
                        .map(|keys| reference_copy(&mut want, &locked, &dip, keys));
                    for (&l, &r) in copies[0].iter().zip(&copies[1]) {
                        assert_equal(&mut want, l, r);
                    }
                    assert_eq!(pending, copies, "{}", scheme.name());
                    for outputs in &pending {
                        require(&mut got, outputs, &response);
                    }
                    for outputs in &copies {
                        for (&out, &bit) in outputs.iter().zip(&response) {
                            assert_value(&mut want, out, bit);
                        }
                    }
                }
            }
            assert_eq!(got, want, "{}", scheme.name());
        }
    }

    /// RLL on c17, which has two outputs, at one DIP answered with one bit.
    fn answer_short(textbook: bool, pending: bool) {
        let original = polykey_circuits::c17();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let locked = Rll::new(6).with_seed(1).lock_random(&original, &mut rng).unwrap().netlist;
        assert_eq!(locked.outputs().len(), 2);
        let (encoding, mut solver) = AttackEncoding::new(&locked, textbook);
        let mut constraints = encoding.dip_constraints();
        let dip = vec![false; locked.inputs().len()];
        if pending {
            let copies = constraints.add_pending(&mut solver, &dip);
            constraints.answer(&mut solver, copies, &[true]);
        } else {
            constraints.add_answered(&mut solver, &dip, &[true]);
        }
    }

    #[test]
    #[should_panic(expected = "one response bit per output")]
    fn a_short_answer_to_a_folded_dip_panics() {
        answer_short(false, false);
    }

    #[test]
    #[should_panic(expected = "one response bit per output")]
    fn a_short_answer_to_a_pending_folded_dip_panics() {
        answer_short(false, true);
    }

    #[test]
    #[should_panic(expected = "one response bit per output")]
    fn a_short_answer_to_a_textbook_dip_panics() {
        answer_short(true, false);
    }

    #[test]
    #[should_panic(expected = "one response bit per output")]
    fn a_short_answer_to_a_pending_textbook_dip_panics() {
        answer_short(true, true);
    }
}
