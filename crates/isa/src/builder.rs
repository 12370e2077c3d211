//! A small DSL for constructing loop-structured warp programs.

use crate::op::WarpOp;
use crate::program::{Program, Step};

/// Builder for [`Program`]s.
///
/// # Example
///
/// ```
/// use virgo_isa::{ProgramBuilder, WarpOp};
///
/// let mut b = ProgramBuilder::new();
/// b.op(WarpOp::Alu { rf_reads: 2, rf_writes: 1 });
/// b.repeat(16, |b| {
///     b.op(WarpOp::WaitLoads);
///     b.op(WarpOp::Barrier { id: 0 });
/// });
/// let p = b.build();
/// assert_eq!(p.dynamic_len(), 1 + 16 * 2);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    /// The program's steps so far, loops bracketed by `Loop`/`End`.
    steps: Vec<Step>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Appends a single operation to the current scope.
    ///
    /// The op is a new static instruction. Its [`AddrExpr`](crate::AddrExpr)s
    /// are evaluated at its execution index: the op's n-th execution is its
    /// position in its enclosing loops, so an op inside a
    /// [`repeat`](Self::repeat) advances across the loop's iterations.
    /// Unrolled copies are separate ops, and each starts at 0: appending the
    /// same op twice gives two ops that both start at `base`.
    pub fn op(&mut self, op: WarpOp) -> &mut Self {
        self.steps.push(Step::Op(op));
        self
    }

    /// Appends `n` copies of the same operation as distinct static
    /// instructions: an op's n-th execution is its position in its
    /// enclosing loops, and each unrolled copy starts at 0.
    pub fn op_n(&mut self, n: u32, op: WarpOp) -> &mut Self {
        for _ in 0..n {
            self.op(op);
        }
        self
    }

    /// Appends a counted loop whose body is built by `f`.
    ///
    /// Zero-trip loops are allowed and are skipped at execution time, which
    /// lets kernel generators express edge cases (e.g. a K-loop with a single
    /// iteration having no "next tile" prologue) without special cases.
    ///
    /// # Panics
    ///
    /// Panics if the program grows beyond `u32::MAX` steps.
    pub fn repeat(&mut self, count: u64, f: impl FnOnce(&mut Self)) -> &mut Self {
        let start = self.next_step();
        self.steps.push(Step::Loop { count, end: 0 });
        f(self);
        let end = self.next_step();
        self.steps.push(Step::End { start });
        self.steps[start as usize] = Step::Loop { count, end };
        self
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        Program::from_steps(self.steps)
    }

    /// Index the next pushed step will get.
    fn next_step(&self) -> u32 {
        u32::try_from(self.steps.len()).expect("program exceeds u32::MAX steps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AddrExpr, LaneAccess};
    use std::sync::Arc;
    use virgo_sim::{StableHash, StableHasher};

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Nop).op(WarpOp::Nop);
        b.repeat(2, |b| {
            b.op(WarpOp::Nop);
        });
        let mut h = StableHasher::new();
        b.build().stable_hash(&mut h);
        // The digest layout: the op count, the step count, then each step,
        // ops carrying their ordinal in construction order.
        let mut expected = StableHasher::new();
        for word in [3, 5, 0, 0] {
            expected.write_u64(word);
        }
        WarpOp::Nop.stable_hash(&mut expected);
        expected.write_u64(0);
        expected.write_u64(1);
        WarpOp::Nop.stable_hash(&mut expected);
        for word in [1, 2, 0, 2] {
            expected.write_u64(word);
        }
        WarpOp::Nop.stable_hash(&mut expected);
        expected.write_u64(2);
        assert_eq!(h.finish128(), expected.finish128());
    }

    #[test]
    fn op_n_adds_distinct_static_ops() {
        let access = LaneAccess::contiguous_words(AddrExpr::streaming(0x40, 0x100), 8);
        let mut b = ProgramBuilder::new();
        b.op_n(5, WarpOp::LoadShared { access });
        let p = Arc::new(b.build());
        assert_eq!(p.dynamic_len(), 5);
        // Each copy is its own op, at its first execution.
        let mut cursor = p.cursor();
        while let Some(op) = cursor.next_op() {
            let WarpOp::LoadShared { access } = op else {
                panic!("{op:?}");
            };
            assert_eq!(access.addr, AddrExpr::fixed(0x40));
        }
    }

    #[test]
    fn nested_repeat_builds_tree() {
        let mut b = ProgramBuilder::new();
        b.repeat(4, |b| {
            b.repeat(3, |b| {
                b.op(WarpOp::Nop);
            });
            b.op(WarpOp::WaitLoads);
        });
        let p = b.build();
        assert_eq!(p.dynamic_len(), 4 * (3 + 1));
    }

    #[test]
    fn empty_builder_builds_empty_program() {
        let p = ProgramBuilder::new().build();
        assert_eq!(p.dynamic_len(), 0);
        assert_eq!(p, crate::Program::empty());
    }
}
