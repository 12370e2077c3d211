//! Loop-structured warp programs and their execution cursor.
//!
//! A [`Program`] is one flat list of steps: plain operations plus the
//! `Loop`/`End` markers bracketing each counted loop body. This keeps the
//! memory footprint proportional to the *static* kernel size while the
//! simulator still observes every *dynamic* instruction. A [`ProgramCursor`]
//! walks the steps in execution order with a program counter and a stack of
//! open loops, so each step costs O(1). The cursor is also the one place
//! where [`AddrExpr`]s become addresses.

use std::sync::Arc;

use virgo_sim::{StableHash, StableHasher};

use crate::addr::AddrExpr;
use crate::mmio::MmioCommand;
use crate::op::WarpOp;

/// One step of a flat program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Step {
    /// A single static operation.
    Op(WarpOp),
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

/// A complete per-warp program.
///
/// Programs are constructed through [`ProgramBuilder`](crate::ProgramBuilder)
/// and shared between warps via `Arc` (all warps of a collaborative kernel
/// typically run the same program at different base addresses, but nothing
/// requires that).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    steps: Vec<Step>,
}

impl Program {
    /// Creates a program from builder-emitted steps.
    pub(crate) fn from_steps(steps: Vec<Step>) -> Self {
        Program { steps }
    }

    /// The empty program; a warp running it retires immediately.
    pub fn empty() -> Self {
        Program::default()
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
            loops: Vec::new(),
        }
    }
}

impl StableHash for Program {
    /// Hashes the op count, then every step; each op is preceded by its
    /// ordinal among the program's ops.
    fn stable_hash(&self, h: &mut StableHasher) {
        let ops = self.steps.iter().filter(|s| matches!(s, Step::Op(_)));
        h.write_u64(ops.count() as u64);
        h.write_u64(self.steps.len() as u64);
        let mut ordinal = 0;
        for step in &self.steps {
            match step {
                Step::Op(op) => {
                    h.write_u64(0);
                    h.write_u64(ordinal);
                    ordinal += 1;
                    op.stable_hash(h);
                }
                // The bracket offsets follow from the order of the steps.
                Step::Loop { count, .. } => {
                    h.write_u64(1);
                    h.write_u64(*count);
                }
                Step::End { .. } => h.write_u64(2),
            }
        }
    }
}

/// One open loop on the cursor's stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Remaining iterations, the current one included.
    remaining: u64,
    /// The current iteration's position across this loop and every loop
    /// enclosing it: `(i1·c2 + i2)·c3 + …` for iteration indices `i` and
    /// trip counts `c`, outermost first. It is the execution index of every
    /// op directly in the body.
    index: u64,
}

/// A cursor that yields the dynamic operation stream of a [`Program`].
///
/// The cursor owns an `Arc` of the program, so warps can be moved freely.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use virgo_isa::{AddrExpr, LaneAccess, ProgramBuilder, WarpOp};
///
/// let access = LaneAccess::contiguous_words(AddrExpr::streaming(0x1000, 256), 8);
/// let mut b = ProgramBuilder::new();
/// b.repeat(3, |b| {
///     b.op(WarpOp::LoadShared { access });
/// });
/// let program = Arc::new(b.build());
/// let mut cursor = program.cursor();
/// let mut addrs = Vec::new();
/// while let Some(WarpOp::LoadShared { access }) = cursor.next_op() {
///     addrs.push(access.addr.resolved());
/// }
/// assert_eq!(addrs, [0x1000, 0x1100, 0x1200]);
/// ```
#[derive(Debug, Clone)]
pub struct ProgramCursor {
    program: Arc<Program>,
    /// Index of the next step to execute.
    pc: usize,
    /// Every open loop, innermost last.
    loops: Vec<Frame>,
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
    /// The operation is copied out of the program with every address it
    /// carries resolved to [`AddrExpr::fixed`] form, as the hardware latches
    /// it at issue. An op's `n`-th execution is its position in its
    /// enclosing loops; unrolled copies are separate ops, and each starts
    /// at 0.
    pub fn next_op(&mut self) -> Option<WarpOp> {
        loop {
            match self.program.steps.get(self.pc)? {
                Step::Op(op) => {
                    self.pc += 1;
                    return Some(resolve(*op, self.index()));
                }
                Step::Loop { count: 0, end } => self.pc = *end as usize + 1,
                &Step::Loop { count, .. } => {
                    let index = self.index() * count;
                    self.loops.push(Frame {
                        remaining: count,
                        index,
                    });
                    self.pc += 1;
                }
                &Step::End { start } => {
                    let top = self.loops.last_mut().expect("End inside an open loop");
                    top.remaining -= 1;
                    if top.remaining > 0 {
                        top.index += 1;
                        self.pc = start as usize + 1;
                    } else {
                        self.loops.pop();
                        self.pc += 1;
                    }
                }
            }
        }
    }

    /// Execution index of an op at the cursor's current loop depth.
    fn index(&self) -> u64 {
        self.loops.last().map_or(0, |frame| frame.index)
    }
}

/// Evaluates every address `op` carries at its `n`-th execution: the loads
/// and stores, `WgmmaInit` and `MmioWrite`. Every other op has none.
fn resolve(mut op: WarpOp, n: u64) -> WarpOp {
    let at = |addr: &mut AddrExpr| *addr = AddrExpr::fixed(addr.eval(n));
    match &mut op {
        WarpOp::LoadGlobal { access }
        | WarpOp::StoreGlobal { access }
        | WarpOp::LoadShared { access }
        | WarpOp::StoreShared { access } => at(&mut access.addr),
        WarpOp::WgmmaInit(wgmma) => {
            at(&mut wgmma.a);
            at(&mut wgmma.b);
        }
        WarpOp::MmioWrite { cmd, .. } => match cmd {
            MmioCommand::DmaCopy(copy) | MmioCommand::DmaRemote(copy) => {
                at(&mut copy.src.addr);
                at(&mut copy.dst.addr);
            }
            MmioCommand::MatrixCompute(compute) => {
                at(&mut compute.a);
                at(&mut compute.b);
            }
        },
        _ => {}
    }
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LaneAccess;
    use crate::builder::ProgramBuilder;
    use crate::kernel::DataType;
    use crate::mmio::{DeviceId, DmaCopyCmd, MemLoc, WgmmaOp};
    use virgo_sim::SplitMix64;

    fn collect(program: Program) -> Vec<&'static str> {
        let program = Arc::new(program);
        let mut cursor = program.cursor();
        let mut out = Vec::new();
        while let Some(op) = cursor.next_op() {
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

    fn load(addr: AddrExpr) -> WarpOp {
        WarpOp::LoadShared {
            access: LaneAccess::contiguous_words(addr, 8),
        }
    }

    fn lane0(op: WarpOp) -> u64 {
        let WarpOp::LoadShared { access } = op else {
            panic!("expected a shared load, got {op:?}");
        };
        access.addr.resolved()
    }

    #[test]
    fn loop_body_ops_resolve_at_their_loop_position() {
        let stream = AddrExpr::streaming(0x1000, 0x10);
        let mut b = ProgramBuilder::new();
        b.op(load(stream));
        b.repeat(3, |b| {
            b.op(load(stream));
            b.repeat(2, |b| {
                b.op(load(stream));
            });
        });
        b.op_n(2, load(stream));
        let program = Arc::new(b.build());
        let mut cursor = program.cursor();
        let mut got = Vec::new();
        while let Some(op) = cursor.next_op() {
            got.push((lane0(op) - 0x1000) / 0x10);
        }
        // The op before the loop and the two unrolled copies after it run
        // once each, at 0; the outer body op counts the outer iterations,
        // and the inner op runs at `i_outer · 2 + i_inner`.
        assert_eq!(got, [0, 0, 0, 1, 1, 2, 3, 2, 4, 5, 0, 0]);
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

    /// A random op; three of the kinds carry addresses that change from one
    /// execution to the next.
    fn random_op(rng: &mut SplitMix64) -> WarpOp {
        let base = rng.next_below(64) * 0x100;
        match rng.next_below(7) {
            0 => WarpOp::Nop,
            1 => WarpOp::WaitLoads,
            2 => WarpOp::Barrier {
                id: rng.next_below(4) as u8,
            },
            3 => WarpOp::Alu {
                rf_reads: rng.next_below(3) as u8,
                rf_writes: rng.next_below(2) as u8,
            },
            4 => load(AddrExpr::streaming(base, 1 + rng.next_below(64))),
            5 => WarpOp::MmioWrite {
                device: DeviceId::DMA0,
                cmd: MmioCommand::DmaCopy(DmaCopyCmd::new(
                    MemLoc::global(AddrExpr::streaming(base, 0x40)),
                    MemLoc::shared(AddrExpr::double_buffered(base, 0x800)),
                    256,
                )),
            },
            _ => WarpOp::WgmmaInit(WgmmaOp {
                a: AddrExpr::rotating(base, 0x200, 1 + rng.next_below(4) as u32),
                b: AddrExpr::fixed(base + 0x8000),
                m: 16,
                n: 16,
                k: 16,
                dtype: DataType::Fp16,
            }),
        }
    }

    /// The reference resolution: every address of `op` evaluated at its
    /// `n`-th execution, written out per kind.
    fn resolve_at(op: WarpOp, n: u64) -> WarpOp {
        let at = |addr: AddrExpr| AddrExpr::fixed(addr.eval(n));
        match op {
            WarpOp::LoadShared { access } => WarpOp::LoadShared {
                access: LaneAccess {
                    addr: at(access.addr),
                    ..access
                },
            },
            WarpOp::MmioWrite {
                device,
                cmd: MmioCommand::DmaCopy(copy),
            } => WarpOp::MmioWrite {
                device,
                cmd: MmioCommand::DmaCopy(DmaCopyCmd {
                    src: MemLoc {
                        addr: at(copy.src.addr),
                        ..copy.src
                    },
                    dst: MemLoc {
                        addr: at(copy.dst.addr),
                        ..copy.dst
                    },
                    ..copy
                }),
            },
            WarpOp::WgmmaInit(wgmma) => WarpOp::WgmmaInit(WgmmaOp {
                a: at(wgmma.a),
                b: at(wgmma.b),
                ..wgmma
            }),
            other => other,
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

    /// Recursive reference expansion. Every op node keeps its own execution
    /// counter, indexed by the node's pre-order position (the builder's
    /// construction order, whether or not a loop ever runs), and each
    /// execution resolves its addresses at the node's count so far. `out`
    /// gets each dynamic op with the count it resolved at.
    fn expand(
        nodes: &[Node],
        next_node: &mut usize,
        counts: &mut Vec<u64>,
        out: &mut Vec<(u64, WarpOp)>,
    ) {
        for node in nodes {
            match node {
                Node::Op(op) => {
                    if counts.len() <= *next_node {
                        counts.resize(*next_node + 1, 0);
                    }
                    let n = counts[*next_node];
                    out.push((n, resolve_at(*op, n)));
                    counts[*next_node] += 1;
                    *next_node += 1;
                }
                Node::Loop(count, body) => {
                    let first = *next_node;
                    for _ in 0..*count {
                        *next_node = first;
                        expand(body, next_node, counts, out);
                    }
                    *next_node = first + static_ops(body);
                }
            }
        }
    }

    fn static_ops(nodes: &[Node]) -> usize {
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
        // Executions past the first of an address-carrying op: the ones
        // that resolve away from the expression's base.
        let mut repeated_addressed = 0;
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
            let mut expansion = Vec::new();
            expand(&tree, &mut 0, &mut Vec::new(), &mut expansion);
            repeated_addressed += expansion
                .iter()
                .filter(|(n, op)| *n > 0 && (op.is_memory() || op.is_matrix()))
                .count();
            let expected: Vec<WarpOp> = expansion.into_iter().map(|(_, op)| op).collect();

            let mut cursor = program.cursor();
            let mut got = Vec::new();
            while let Some(op) = cursor.next_op() {
                got.push(op);
            }
            assert!(cursor.is_done(), "case {case}");
            assert_eq!(cursor.next_op(), None, "case {case}: stays finished");
            assert_eq!(got, expected, "case {case}: {tree:?}");
            assert_eq!(got.len() as u64, program.dynamic_len(), "case {case}");
        }
        assert!(zero_trip > 0 && empty_body > 0 && trailing_loop > 0 && deep > 0);
        assert!(repeated_addressed > 1000, "{repeated_addressed}");
    }

    #[test]
    fn step_is_at_most_88_bytes() {
        assert!(
            std::mem::size_of::<Step>() <= 88,
            "Step is {} bytes",
            std::mem::size_of::<Step>()
        );
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
