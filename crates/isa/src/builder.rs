//! A small DSL for constructing loop-structured warp programs.

use crate::op::{OpId, WarpOp};
use crate::program::{Program, Step};

/// Builder for [`Program`]s.
///
/// The builder assigns dense [`OpId`]s in construction order, which warps use
/// to index their per-instruction execution counters.
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
/// assert_eq!(p.static_len(), 3);
/// assert_eq!(p.dynamic_len(), 1 + 16 * 2);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    /// The program's steps so far, loops bracketed by `Loop`/`End`.
    steps: Vec<Step>,
    next_id: u32,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Appends a single operation to the current scope.
    ///
    /// The op is a new static instruction with its own execution counter,
    /// which drives its [`AddrExpr`](crate::AddrExpr)s: appending the same
    /// op twice gives two counters that both start at zero, and an op inside
    /// a [`repeat`](Self::repeat) counts across the loop's iterations.
    pub fn op(&mut self, op: WarpOp) -> &mut Self {
        let id = OpId(self.next_id);
        self.next_id += 1;
        self.steps.push(Step::Op(id, op));
        self
    }

    /// Appends `n` copies of the same operation (as distinct static
    /// instructions, so each keeps its own execution counter).
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
        Program::from_steps(self.steps, self.next_id)
    }

    /// Number of static operations added so far.
    pub fn static_len(&self) -> u32 {
        self.next_id
    }

    /// Index the next pushed step will get.
    fn next_step(&self) -> u32 {
        u32::try_from(self.steps.len()).expect("program exceeds u32::MAX steps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Nop).op(WarpOp::Nop);
        b.repeat(2, |b| {
            b.op(WarpOp::Nop);
        });
        assert_eq!(b.static_len(), 3);
        let p = b.build();
        assert_eq!(p.static_len(), 3);
    }

    #[test]
    fn op_n_adds_distinct_static_ops() {
        let mut b = ProgramBuilder::new();
        b.op_n(5, WarpOp::Nop);
        let p = b.build();
        assert_eq!(p.static_len(), 5);
        assert_eq!(p.dynamic_len(), 5);
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
        assert_eq!(p.static_len(), 2);
        assert_eq!(p.dynamic_len(), 4 * (3 + 1));
    }

    #[test]
    fn empty_builder_builds_empty_program() {
        let p = ProgramBuilder::new().build();
        assert_eq!(p.static_len(), 0);
        assert_eq!(p.dynamic_len(), 0);
    }
}
