//! Loop-structured warp programs and their execution cursor.
//!
//! A [`Program`] is one flat list of steps: plain operations plus the
//! `Loop`/`End` markers bracketing each counted loop body. This keeps the
//! memory footprint proportional to the *static* kernel size while the
//! simulator still observes every *dynamic* instruction. A [`ProgramCursor`]
//! walks the steps in execution order with a program counter and a stack of
//! remaining trip counts, so each step costs O(1).

use std::sync::Arc;

use virgo_sim::{StableHash, StableHasher};

use crate::op::{OpId, WarpOp};

/// One step of a flat program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Step {
    /// A single static operation with its program-unique id.
    Op(OpId, WarpOp),
    /// Opens a loop of `count` iterations whose matching [`Step::End`] sits
    /// at index `end`; zero-iteration loops jump past it.
    Loop {
        /// Number of iterations.
        count: u64,
        /// Index of the matching `End`.
        end: u32,
    },
    /// Closes the loop opened at index `start`.
    End {
        /// Index of the matching `Loop`.
        start: u32,
    },
}

impl StableHash for Step {
    fn stable_hash(&self, h: &mut StableHasher) {
        match *self {
            Step::Op(id, op) => {
                h.write_u64(0);
                id.stable_hash(h);
                op.stable_hash(h);
            }
            // The bracket offsets follow from the order of the steps.
            Step::Loop { count, .. } => {
                h.write_u64(1);
                h.write_u64(count);
            }
            Step::End { .. } => h.write_u64(2),
        }
    }
}

/// A complete per-warp program.
///
/// Programs are constructed through [`ProgramBuilder`](crate::ProgramBuilder)
/// and shared between warps via `Arc` (all warps of a collaborative kernel
/// typically run the same program at different base addresses, but nothing
/// requires that).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    steps: Vec<Step>,
    num_ops: u32,
}

impl Program {
    /// Creates a program from builder-emitted steps.
    pub(crate) fn from_steps(steps: Vec<Step>, num_ops: u32) -> Self {
        Program { steps, num_ops }
    }

    /// The empty program; a warp running it retires immediately.
    pub fn empty() -> Self {
        Program::default()
    }

    /// Number of *static* operations in the program (loop bodies counted
    /// once). This is the size of the per-warp execution-counter table.
    pub fn static_len(&self) -> u32 {
        self.num_ops
    }

    /// Number of *dynamic* operations the program will execute (loop bodies
    /// multiplied by their trip counts).
    pub fn dynamic_len(&self) -> u64 {
        // `sums[d]` accumulates the dynamic length of the body open at depth
        // `d`; `End` folds it, times the trip count, into its parent.
        let mut sums = vec![0u64];
        for step in &self.steps {
            match step {
                Step::Op(..) => *sums.last_mut().expect("root sum") += 1,
                Step::Loop { .. } => sums.push(0),
                &Step::End { start } => {
                    let body = sums.pop().expect("loop sum pushed at its start");
                    let Step::Loop { count, .. } = self.steps[start as usize] else {
                        unreachable!("End always points at its Loop");
                    };
                    *sums.last_mut().expect("root sum") += count * body;
                }
            }
        }
        sums[0]
    }

    /// Creates a cursor positioned before the first dynamic operation.
    pub fn cursor(self: &Arc<Self>) -> ProgramCursor {
        ProgramCursor {
            program: Arc::clone(self),
            pc: 0,
            remaining: Vec::new(),
        }
    }
}

impl StableHash for Program {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(u64::from(self.num_ops));
        self.steps.stable_hash(h);
    }
}

/// A cursor that yields the dynamic operation stream of a [`Program`].
///
/// The cursor owns an `Arc` of the program, so warps can be moved freely.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use virgo_isa::{ProgramBuilder, WarpOp};
///
/// let mut b = ProgramBuilder::new();
/// b.repeat(3, |b| {
///     b.op(WarpOp::Nop);
/// });
/// let program = Arc::new(b.build());
/// let mut cursor = program.cursor();
/// let mut n = 0;
/// while cursor.next_op().is_some() {
///     n += 1;
/// }
/// assert_eq!(n, 3);
/// ```
#[derive(Debug, Clone)]
pub struct ProgramCursor {
    program: Arc<Program>,
    /// Index of the next step to execute.
    pc: usize,
    /// Remaining iterations (the current one included) of every open loop,
    /// innermost last.
    remaining: Vec<u64>,
}

impl ProgramCursor {
    /// True once the cursor has stepped past the end of the program: every
    /// dynamic operation has been yielded.
    pub fn is_done(&self) -> bool {
        self.pc >= self.program.steps.len()
    }

    /// Returns the next dynamic operation, or `None` when the program has
    /// finished.
    ///
    /// The returned operation is copied out of the program (operations are
    /// small `Copy` values), together with its static [`OpId`].
    pub fn next_op(&mut self) -> Option<(OpId, WarpOp)> {
        loop {
            match self.program.steps.get(self.pc)? {
                Step::Op(id, op) => {
                    self.pc += 1;
                    return Some((*id, *op));
                }
                Step::Loop { count: 0, end } => self.pc = *end as usize + 1,
                Step::Loop { count, .. } => {
                    self.remaining.push(*count);
                    self.pc += 1;
                }
                &Step::End { start } => {
                    let left = self.remaining.last_mut().expect("End inside an open loop");
                    *left -= 1;
                    if *left > 0 {
                        self.pc = start as usize + 1;
                    } else {
                        self.remaining.pop();
                        self.pc += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use virgo_sim::SplitMix64;

    fn collect(program: Program) -> Vec<&'static str> {
        let program = Arc::new(program);
        let mut cursor = program.cursor();
        let mut out = Vec::new();
        while let Some((_, op)) = cursor.next_op() {
            out.push(op.mnemonic());
        }
        out
    }

    #[test]
    fn empty_program_yields_nothing() {
        let program = Arc::new(Program::empty());
        let mut cursor = program.cursor();
        assert!(cursor.is_done() || cursor.next_op().is_none());
        assert!(cursor.is_done());
        assert_eq!(program.dynamic_len(), 0);
    }

    #[test]
    fn flat_program_yields_in_order() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Nop);
        b.op(WarpOp::Alu {
            rf_reads: 1,
            rf_writes: 1,
        });
        b.op(WarpOp::WaitLoads);
        let mnemonics = collect(b.build());
        assert_eq!(mnemonics, vec!["nop", "alu", "waitcnt"]);
    }

    #[test]
    fn nested_loops_multiply() {
        let mut b = ProgramBuilder::new();
        b.repeat(3, |b| {
            b.op(WarpOp::Nop);
            b.repeat(2, |b| {
                b.op(WarpOp::Alu {
                    rf_reads: 0,
                    rf_writes: 0,
                });
            });
        });
        let program = b.build();
        assert_eq!(program.dynamic_len(), 3 * (1 + 2));
        let mnemonics = collect(program);
        assert_eq!(mnemonics.len(), 9);
        assert_eq!(mnemonics[0], "nop");
        assert_eq!(mnemonics[1], "alu");
        assert_eq!(mnemonics[2], "alu");
        assert_eq!(mnemonics[3], "nop");
    }

    #[test]
    fn zero_trip_loops_are_skipped() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Nop);
        b.repeat(0, |b| {
            b.op(WarpOp::WaitLoads);
        });
        b.op(WarpOp::Nop);
        let program = b.build();
        assert_eq!(program.dynamic_len(), 2);
        assert_eq!(collect(program), vec!["nop", "nop"]);
    }

    #[test]
    fn op_ids_are_unique_and_dense() {
        let mut b = ProgramBuilder::new();
        b.op(WarpOp::Nop);
        b.repeat(5, |b| {
            b.op(WarpOp::Nop);
            b.op(WarpOp::Nop);
        });
        let program = Arc::new(b.build());
        assert_eq!(program.static_len(), 3);
        let mut cursor = program.cursor();
        let mut seen = Vec::new();
        while let Some((id, _)) = cursor.next_op() {
            seen.push(id.index());
        }
        assert_eq!(seen.len(), 11);
        assert!(seen.iter().all(|&i| i < 3));
        // The two loop-body ops repeat with stable ids.
        assert_eq!(seen[1], seen[3]);
        assert_eq!(seen[2], seen[4]);
    }

    #[test]
    fn trailing_ops_after_loop_execute() {
        let mut b = ProgramBuilder::new();
        b.repeat(2, |b| {
            b.op(WarpOp::Nop);
        });
        b.op(WarpOp::Barrier { id: 0 });
        assert_eq!(collect(b.build()), vec!["nop", "nop", "vx.bar"]);
    }

    /// A program tree for the cursor property test: the shape
    /// [`ProgramBuilder`] calls describe, expanded here by plain recursion
    /// as the reference for the flat cursor.
    #[derive(Debug)]
    enum Node {
        Op(WarpOp),
        Loop(u64, Vec<Node>),
    }

    fn random_op(rng: &mut SplitMix64) -> WarpOp {
        match rng.next_below(4) {
            0 => WarpOp::Nop,
            1 => WarpOp::WaitLoads,
            2 => WarpOp::Barrier {
                id: rng.next_below(4) as u8,
            },
            _ => WarpOp::Alu {
                rf_reads: rng.next_below(3) as u8,
                rf_writes: rng.next_below(2) as u8,
            },
        }
    }

    /// A random body of up to four items; loops nest up to `depth` more
    /// levels, have 0–3 trips and may be empty.
    fn random_body(rng: &mut SplitMix64, depth: u32) -> Vec<Node> {
        (0..rng.next_below(5))
            .map(|_| {
                if depth > 0 && rng.next_below(2) == 0 {
                    Node::Loop(rng.next_below(4), random_body(rng, depth - 1))
                } else {
                    Node::Op(random_op(rng))
                }
            })
            .collect()
    }

    fn build(b: &mut ProgramBuilder, nodes: &[Node]) {
        for node in nodes {
            match node {
                Node::Op(op) => {
                    b.op(*op);
                }
                Node::Loop(count, body) => {
                    b.repeat(*count, |b| build(b, body));
                }
            }
        }
    }

    /// Recursive reference expansion. Ids are assigned in pre-order, the
    /// builder's construction order, whether or not a loop ever runs.
    fn expand(nodes: &[Node], next_id: &mut u32, out: &mut Vec<(OpId, WarpOp)>) {
        for node in nodes {
            match node {
                Node::Op(op) => {
                    out.push((OpId(*next_id), *op));
                    *next_id += 1;
                }
                Node::Loop(count, body) => {
                    let first_id = *next_id;
                    for _ in 0..*count {
                        *next_id = first_id;
                        expand(body, next_id, out);
                    }
                    *next_id = first_id + static_ops(body);
                }
            }
        }
    }

    fn static_ops(nodes: &[Node]) -> u32 {
        nodes
            .iter()
            .map(|n| match n {
                Node::Op(_) => 1,
                Node::Loop(_, body) => static_ops(body),
            })
            .sum()
    }

    /// Loop nesting depth of `nodes`, and how many of its loops have zero
    /// trips or an empty body.
    fn shape(nodes: &[Node]) -> (u32, u32, u32) {
        let mut out = (0, 0, 0);
        for node in nodes {
            if let Node::Loop(count, body) = node {
                let (depth, zero, empty) = shape(body);
                out.0 = out.0.max(depth + 1);
                out.1 += zero + u32::from(*count == 0);
                out.2 += empty + u32::from(body.is_empty());
            }
        }
        out
    }

    #[test]
    fn flat_cursor_matches_recursive_expansion() {
        let mut rng = SplitMix64::new(0xC0A5_0001);
        let (mut zero_trip, mut empty_body, mut trailing_loop, mut deep) = (0, 0, 0, 0);
        for case in 0..512 {
            let mut tree = random_body(&mut rng, 5);
            if case % 3 == 0 {
                // A loop as the very last item of the program.
                tree.push(Node::Loop(rng.next_below(3), random_body(&mut rng, 2)));
            }
            let (depth, zero, empty) = shape(&tree);
            deep += u32::from(depth >= 4);
            zero_trip += zero;
            empty_body += empty;
            trailing_loop += u32::from(matches!(tree.last(), Some(Node::Loop(..))));

            let mut b = ProgramBuilder::new();
            build(&mut b, &tree);
            let program = Arc::new(b.build());
            let mut expected = Vec::new();
            let mut next_id = 0;
            expand(&tree, &mut next_id, &mut expected);
            assert_eq!(program.static_len(), next_id, "case {case}");

            let mut cursor = program.cursor();
            let mut got = Vec::new();
            while let Some(step) = cursor.next_op() {
                got.push(step);
            }
            assert!(cursor.is_done(), "case {case}");
            assert_eq!(cursor.next_op(), None, "case {case}: stays finished");
            assert_eq!(got, expected, "case {case}: {tree:?}");
            assert_eq!(got.len() as u64, program.dynamic_len(), "case {case}");
        }
        assert!(zero_trip > 0 && empty_body > 0 && trailing_loop > 0 && deep > 0);
    }

    fn program_hash(f: impl FnOnce(&mut ProgramBuilder)) -> (u64, u64) {
        let mut b = ProgramBuilder::new();
        f(&mut b);
        let mut h = StableHasher::new();
        b.build().stable_hash(&mut h);
        h.finish128()
    }

    #[test]
    fn stable_hash_tells_loop_structure_apart() {
        let op = WarpOp::Nop;
        let looped = program_hash(|b| {
            b.repeat(2, |b| {
                b.op(op);
            });
        });
        let unrolled = program_hash(|b| {
            b.op_n(2, op);
        });
        let three_trips = program_hash(|b| {
            b.repeat(3, |b| {
                b.op(op);
            });
        });
        let nested = program_hash(|b| {
            b.repeat(2, |b| {
                b.repeat(1, |b| {
                    b.op(op);
                });
            });
        });
        let after = program_hash(|b| {
            b.repeat(2, |_| {});
            b.op(op);
        });
        let hashes = [looped, unrolled, three_trips, nested, after];
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            looped,
            program_hash(|b| {
                b.repeat(2, |b| {
                    b.op(op);
                });
            }),
            "equal programs hash equally"
        );
    }

    #[test]
    fn deeply_nested_loop_counts() {
        let mut b = ProgramBuilder::new();
        b.repeat(2, |b| {
            b.repeat(2, |b| {
                b.repeat(2, |b| {
                    b.op(WarpOp::Nop);
                });
            });
        });
        let program = b.build();
        assert_eq!(program.dynamic_len(), 8);
        assert_eq!(collect(program).len(), 8);
    }
}
