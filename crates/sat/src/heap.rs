//! Indexed max-heap over variable activities (the VSIDS decision order).

use crate::lit::Var;

/// A binary max-heap of variables keyed by an external activity array,
/// supporting `decrease-key` (here: activity *increase*) in `O(log n)` via a
/// position index.
///
/// The activity array lives in the solver; every operation that needs to
/// compare takes it as a parameter so the heap holds no borrow.
#[derive(Clone, Debug, Default)]
pub(crate) struct VarOrderHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `NONE` if absent.
    pos: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl VarOrderHeap {
    pub(crate) fn new() -> VarOrderHeap {
        VarOrderHeap::default()
    }

    /// Registers a new variable index (does not insert it).
    pub(crate) fn grow_to(&mut self, num_vars: usize) {
        if self.pos.len() < num_vars {
            self.pos.resize(num_vars, NONE);
        }
    }

    #[inline]
    pub(crate) fn contains(&self, v: Var) -> bool {
        self.pos[v.index()] != NONE
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Inserts `v` if absent.
    pub(crate) fn insert(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        let i = self.heap.len();
        self.heap.push(v);
        self.pos[v.index()] = i as u32;
        self.sift_up(i, act);
    }

    /// Restores the heap property after `v`'s activity increased.
    pub(crate) fn bumped(&mut self, v: Var, act: &[f64]) {
        let p = self.pos[v.index()];
        if p != NONE {
            self.sift_up(p as usize, act);
        }
    }

    /// Removes and returns the variable with maximum activity.
    pub(crate) fn pop_max(&mut self, act: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.pos[top.index()] = NONE;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        let a = act[v.index()];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if act[pv.index()] >= a {
                break;
            }
            self.heap[i] = pv;
            self.pos[pv.index()] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v.index()] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        let a = act[v.index()];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child =
                if right < n && act[self.heap[right].index()] > act[self.heap[left].index()] {
                    right
                } else {
                    left
                };
            let cv = self.heap[child];
            if a >= act[cv.index()] {
                break;
            }
            self.heap[i] = cv;
            self.pos[cv.index()] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v.index()] = i as u32;
    }

    #[cfg(test)]
    fn check_invariants(&self, act: &[f64]) {
        for (i, &v) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[v.index()] as usize, i);
            if i > 0 {
                let parent = self.heap[(i - 1) / 2];
                assert!(act[parent.index()] >= act[v.index()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_order_is_descending_activity() {
        let act = vec![0.5, 3.0, 1.5, 0.1, 2.0];
        let mut h = VarOrderHeap::new();
        h.grow_to(5);
        for i in 0..5 {
            h.insert(Var::new(i), &act);
        }
        h.check_invariants(&act);
        let order: Vec<usize> =
            std::iter::from_fn(|| h.pop_max(&act)).map(|v| v.index()).collect();
        assert_eq!(order, vec![1, 4, 2, 0, 3]);
    }

    #[test]
    fn insert_is_idempotent() {
        let act = vec![1.0, 2.0];
        let mut h = VarOrderHeap::new();
        h.grow_to(2);
        h.insert(Var::new(0), &act);
        h.insert(Var::new(0), &act);
        assert_eq!(h.len(), 1);
        assert!(h.contains(Var::new(0)));
        assert!(!h.contains(Var::new(1)));
    }

    #[test]
    fn bumped_reorders() {
        let mut act = vec![1.0, 2.0, 3.0];
        let mut h = VarOrderHeap::new();
        h.grow_to(3);
        for i in 0..3 {
            h.insert(Var::new(i), &act);
        }
        // Bump x0 above everything.
        act[0] = 10.0;
        h.bumped(Var::new(0), &act);
        h.check_invariants(&act);
        assert_eq!(h.pop_max(&act), Some(Var::new(0)));
    }

    #[test]
    fn pop_empty_is_none() {
        let act: Vec<f64> = vec![];
        let mut h = VarOrderHeap::new();
        assert_eq!(h.len(), 0);
        assert_eq!(h.pop_max(&act), None);
    }

    #[test]
    fn randomized_against_sort() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.random_range(1..60usize);
            let act: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..100.0)).collect();
            let mut h = VarOrderHeap::new();
            h.grow_to(n);
            for i in 0..n {
                h.insert(Var::new(i as u32), &act);
            }
            let mut popped: Vec<f64> =
                std::iter::from_fn(|| h.pop_max(&act)).map(|v| act[v.index()]).collect();
            let mut sorted = act.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
            assert_eq!(popped.len(), sorted.len());
            for (a, b) in popped.drain(..).zip(sorted) {
                assert_eq!(a, b);
            }
        }
    }
}
