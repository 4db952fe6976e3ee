//! # myrtus-vm
//!
//! A minimal deterministic stack-bytecode VM giving continuum tasks
//! *portable bodies*: instead of a scalar cost, a task carries a small
//! program whose per-opcode cost is priced by the hosting node's ISA
//! class and DVFS state. Execution is bit-reproducible — fixed-width
//! wrapping integer ops, masked shifts, defined stack over/underflow,
//! seeded-PRNG input reads and a hard step bound — so a program can be
//! interrupted at any cost boundary, serialized as a [`Checkpoint`]
//! (canonical byte image + fingerprint), shipped over a modeled link
//! and resumed on a different node with bit-identical results. That is
//! the substrate for **live task migration**: snapshot on the source,
//! transfer bytes, resume on the destination, with no work re-executed
//! and none skipped.
//!
//! Opcodes are *macro-ops* (think basic blocks, not single
//! instructions): each costs tens to thousands of cycles, so a few
//! thousand interpreter steps model megacycles of work. Interpreting a
//! body still costs host time per step, and pricing every arrival by a
//! full scratch run can dominate a simulation's wall time. A program
//! whose control flow no seed can steer is therefore analysed once
//! into an ISA-independent [`OpCounts`] census
//! ([`Program::seed_free_counts`]), which prices it on any host with a
//! dot product. A paused run of such a program is priced the same
//! way: the ops it has left are the census minus the ops it already
//! executed, which [`VmState::advance_tallied`] counts by class.
//!
//! The census of a branch-free loop program is read off its op list
//! without running it ([`Program::static_counts`], O(ops)); only a
//! program with a `Jz`, a `Jmp` or a loop that pass cannot summarise
//! has its census run ([`Program::taint_census`], O(steps)). What
//! still needs the interpreter is that census run, scratch runs of
//! seed-steered programs ([`VmState::cost_to_halt`]) and advancing an
//! image to a cut point; all of them go through one budgeted loop that
//! offers each op to a per-caller hook before executing it.
//!
//! ## Determinism rules
//!
//! - all arithmetic is wrapping two's-complement on `i64`;
//! - shift amounts are masked to 6 bits;
//! - popping an empty stack yields `0`; pushing past [`STACK_MAX`]
//!   drops the value — no traps, no UB, no host dependence;
//! - [`Op::Input`] reads the next word of a splitmix64 stream seeded
//!   per task, so "I/O" is reproducible;
//! - every run is bounded by [`Program::max_steps`] regardless of
//!   control flow, so termination never depends on program content.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Hard cap on operand-stack depth; pushes beyond it are dropped.
pub const STACK_MAX: usize = 1024;

/// Default per-program step bound.
pub const DEFAULT_MAX_STEPS: u64 = 262_144;

/// Serialized-checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

const CHECKPOINT_MAGIC: u32 = 0x4d56_4350; // "MVCP"

/// One bytecode instruction. Operands are embedded (no separate
/// constant pool) so a program is a flat `Vec<Op>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push an immediate.
    Push(i64),
    /// Drop the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the two topmost values.
    Swap,
    /// Pop b, a; push `a + b` (wrapping).
    Add,
    /// Pop b, a; push `a - b` (wrapping).
    Sub,
    /// Pop b, a; push `a * b` (wrapping).
    Mul,
    /// Pop b, a; push `a & b`.
    And,
    /// Pop b, a; push `a | b`.
    Or,
    /// Pop b, a; push `a ^ b`.
    Xor,
    /// Pop b, a; push `a << (b & 63)`.
    Shl,
    /// Pop b, a; push logical `a >> (b & 63)`.
    Shr,
    /// Pop a; push `!a`.
    Not,
    /// Pop b, a; push `1` if `a == b` else `0`.
    Eq,
    /// Pop b, a; push `1` if `a < b` (signed) else `0`.
    Lt,
    /// Push local `i`.
    Load(u8),
    /// Pop into local `i`.
    Store(u8),
    /// Unconditional jump to instruction index.
    Jmp(u16),
    /// Pop a; jump when `a == 0`.
    Jz(u16),
    /// Bounded loop back-edge: decrement local `i`; jump to the target
    /// while the local stays positive.
    LoopDec(u8, u16),
    /// Push the next word of the task's seeded input stream.
    Input,
    /// Pop a; push `splitmix64(a)` — a compute-kernel macro-op.
    Mix,
    /// Pop a; fold it into the output digest.
    Out,
    /// Stop execution.
    Halt,
}

/// Broad cost class of an opcode (indexes [`CostTable::cycles`]).
/// Declaration order is slot order, see [`OpClass::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Stack moves: push/pop/dup/swap.
    Stack,
    /// Integer ALU ops and comparisons.
    Alu,
    /// Local-variable (memory) access.
    Mem,
    /// Control flow.
    Branch,
    /// Seeded input reads and output folds.
    Io,
    /// The `Mix` compute kernel.
    Kernel,
}

impl OpClass {
    /// Slot of this class in [`CostTable::cycles`] and
    /// [`OpCounts::by_class`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl Op {
    /// Cost class of this op.
    pub fn class(self) -> OpClass {
        match self {
            Op::Push(_) | Op::Pop | Op::Dup | Op::Swap => OpClass::Stack,
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::Not
            | Op::Eq
            | Op::Lt => OpClass::Alu,
            Op::Load(_) | Op::Store(_) => OpClass::Mem,
            Op::Jmp(_) | Op::Jz(_) | Op::LoopDec(_, _) | Op::Halt => OpClass::Branch,
            Op::Input | Op::Out => OpClass::Io,
            Op::Mix => OpClass::Kernel,
        }
    }

    /// Folds the op (discriminant + operands) into an FNV accumulator;
    /// the basis of [`Program::fingerprint`].
    fn fold(self, h: u64) -> u64 {
        let (d, a, b): (u64, u64, u64) = match self {
            Op::Push(v) => (0, v as u64, 0),
            Op::Pop => (1, 0, 0),
            Op::Dup => (2, 0, 0),
            Op::Swap => (3, 0, 0),
            Op::Add => (4, 0, 0),
            Op::Sub => (5, 0, 0),
            Op::Mul => (6, 0, 0),
            Op::And => (7, 0, 0),
            Op::Or => (8, 0, 0),
            Op::Xor => (9, 0, 0),
            Op::Shl => (10, 0, 0),
            Op::Shr => (11, 0, 0),
            Op::Not => (12, 0, 0),
            Op::Eq => (13, 0, 0),
            Op::Lt => (14, 0, 0),
            Op::Load(i) => (15, i as u64, 0),
            Op::Store(i) => (16, i as u64, 0),
            Op::Jmp(t) => (17, t as u64, 0),
            Op::Jz(t) => (18, t as u64, 0),
            Op::LoopDec(i, t) => (19, i as u64, t as u64),
            Op::Input => (20, 0, 0),
            Op::Mix => (21, 0, 0),
            Op::Out => (22, 0, 0),
            Op::Halt => (23, 0, 0),
        };
        let mut h = fnv(h, d);
        h = fnv(h, a);
        fnv(h, b)
    }
}

/// FNV-1a over one 64-bit word.
fn fnv(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The sequence-scrambling finisher used by splitmix64.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Validation failure for a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// A jump targets an instruction index past the end of the program.
    JumpOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// Its (invalid) target.
        target: u16,
    },
    /// A local index is out of the declared local frame.
    LocalOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The invalid local slot.
        local: u8,
    },
    /// The program is empty.
    Empty,
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::JumpOutOfRange { at, target } => {
                write!(f, "op {at}: jump target {target} out of range")
            }
            ProgramError::LocalOutOfRange { at, local } => {
                write!(f, "op {at}: local {local} out of range")
            }
            ProgramError::Empty => write!(f, "empty program"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// An immutable validated bytecode program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
    locals: u8,
    max_steps: u64,
}

impl Program {
    /// Builds and validates a program with `locals` local slots and the
    /// default step bound.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn new(ops: Vec<Op>, locals: u8) -> Result<Self, ProgramError> {
        Self::with_max_steps(ops, locals, DEFAULT_MAX_STEPS)
    }

    /// Builds and validates a program with an explicit step bound.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn with_max_steps(ops: Vec<Op>, locals: u8, max_steps: u64) -> Result<Self, ProgramError> {
        if ops.is_empty() {
            return Err(ProgramError::Empty);
        }
        let len = ops.len();
        for (at, op) in ops.iter().enumerate() {
            match *op {
                Op::Jmp(t) | Op::Jz(t) | Op::LoopDec(_, t) if t as usize >= len => {
                    return Err(ProgramError::JumpOutOfRange { at, target: t });
                }
                Op::Load(i) | Op::Store(i) | Op::LoopDec(i, _) if i >= locals => {
                    return Err(ProgramError::LocalOutOfRange { at, local: i });
                }
                _ => {}
            }
        }
        Ok(Program { ops, locals, max_steps })
    }

    /// The instruction stream.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Declared local-frame size.
    pub fn locals(&self) -> u8 {
        self.locals
    }

    /// Hard bound on executed steps.
    pub fn max_steps(&self) -> u64 {
        self.max_steps
    }

    /// Deterministic FNV fingerprint over the encoded instruction
    /// stream, locals and step bound. A checkpoint embeds it so a
    /// resume against the wrong program is rejected.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv(FNV_OFFSET, self.locals as u64);
        h = fnv(h, self.max_steps);
        for op in &self.ops {
            h = op.fold(h);
        }
        h
    }

    /// Total steps and total cycles of an uninterrupted run from
    /// `seed` under `table` (a scratch execution).
    pub fn full_cost(&self, seed: u64, table: &CostTable) -> (u64, u64) {
        VmState::new(self, seed).cost_to_halt(self, table)
    }

    /// The op-class census of a run from [`VmState::new`], if it is the
    /// same for every seed; `None` when seeded input may steer control
    /// flow. When it answers, it prices any seed's full run:
    /// `(c.steps, c.cycles(t))` equals [`Program::full_cost`]`(seed, t)`.
    ///
    /// This is [`Program::census`] without its interpreter work count.
    pub fn seed_free_counts(&self) -> Option<OpCounts> {
        self.census().counts
    }

    /// The seed-free census and the interpreter steps taken to find it.
    /// A branch-free loop program is answered by
    /// [`Program::static_counts`] without interpreting anything; every
    /// other program, or one whose loops that pass cannot summarise, by
    /// one [`Program::taint_census`] run.
    pub fn census(&self) -> Census {
        match self.static_counts() {
            Some(counts) => Census { counts: Some(counts), interpreted: 0 },
            None => self.taint_census(),
        }
    }

    /// The census read off the op list in O(ops), or `None` when this
    /// pass cannot tell (the program may still have a census; see
    /// [`Program::taint_census`]).
    ///
    /// The pass walks the ops in order with an exact stack depth and a
    /// known constant or "unknown" per stack slot and local. A value is
    /// known only when it comes through `Push`, `Dup`, `Swap`, `Load`
    /// or `Store` (or an empty-stack pop's 0); `STACK_MAX` drops apply
    /// as in the interpreter. A backward `LoopDec(i, head)` whose
    /// counter is a known `c ≥ 2` repeats its body `[head, pc)` `c`
    /// times in all, and the pass adds the `c − 1` trips after the one
    /// it walked in one step, provided every trip runs the same ops
    /// from the same depth: the body holds no `Jz`, `Jmp`, `LoopDec`,
    /// `Halt` or `Store(i)`, and its walk popped no empty stack,
    /// dropped no push and ended at the depth it started from. After
    /// the loop `i` is 0, and the body's stored locals and the whole
    /// stack are unknown. Any `Jz` or `Jmp`, an unknown counter, a loop
    /// it cannot summarise, a count that overflows and a run cut short
    /// by [`Program::max_steps`] all give `None`.
    pub fn static_counts(&self) -> Option<OpCounts> {
        let ops = &self.ops;
        let mut stack = ConstStack::default();
        let mut locals = vec![Some(0); self.locals as usize];
        let mut counts = OpCounts::default();
        // The walk's state as it first reaches each op. Ops are walked
        // in order and a summarised loop resumes past its back-edge, so
        // each op is reached once and `marks[pc]` belongs to op `pc`.
        let mut marks = Vec::with_capacity(ops.len());
        for (pc, &op) in ops.iter().enumerate() {
            marks.push((stack.slots.len(), stack.clamps, counts));
            counts.steps += 1;
            counts.by_class[op.class().index()] += 1;
            match op {
                Op::Push(v) => stack.push(Some(v)),
                Op::Pop | Op::Out => {
                    stack.pop();
                }
                Op::Dup => stack.push(stack.slots.last().copied().unwrap_or(Some(0))),
                Op::Swap => {
                    let b = stack.pop();
                    let a = stack.pop();
                    stack.push(b);
                    stack.push(a);
                }
                Op::Add
                | Op::Sub
                | Op::Mul
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::Shl
                | Op::Shr
                | Op::Eq
                | Op::Lt => {
                    stack.pop();
                    stack.pop();
                    stack.push(None);
                }
                Op::Not | Op::Mix => {
                    stack.pop();
                    stack.push(None);
                }
                Op::Load(i) => stack.push(locals[i as usize]),
                Op::Store(i) => locals[i as usize] = stack.pop(),
                Op::Input => stack.push(None),
                Op::Jmp(_) | Op::Jz(_) => return None,
                Op::Halt => return Some(counts),
                Op::LoopDec(i, head) => {
                    let c = locals[i as usize]?;
                    let left = c.wrapping_sub(1);
                    locals[i as usize] = Some(left);
                    if left > 0 {
                        // The back-edge is taken: summarise the loop. A
                        // `Jz`, `Jmp` or `Halt` would have ended the walk.
                        let head = head as usize;
                        let body = ops.get(head..pc)?;
                        let (depth, clamps, at_head) = marks[head];
                        let steady = c >= 2
                            && stack.clamps == clamps
                            && stack.slots.len() == depth
                            && !body
                                .iter()
                                .any(|&op| matches!(op, Op::LoopDec(..)) || op == Op::Store(i));
                        if !steady {
                            return None;
                        }
                        // One trip: the body walked once plus this back-edge.
                        let more = c as u64 - 1;
                        counts.steps = (counts.steps - at_head.steps)
                            .checked_mul(more)?
                            .checked_add(counts.steps)?;
                        for (n, was) in counts.by_class.iter_mut().zip(at_head.by_class) {
                            *n = (*n - was).checked_mul(more)?.checked_add(*n)?;
                        }
                        locals[i as usize] = Some(0);
                        for &op in body {
                            if let Op::Store(j) = op {
                                locals[j as usize] = None;
                            }
                        }
                        stack.slots.fill(None);
                    }
                }
            }
            // The interpreter halts at the step bound; a run cut there
            // is left to the taint run.
            if counts.steps >= self.max_steps {
                return None;
            }
        }
        Some(counts)
    }

    /// The census by one interpreted run from [`VmState::new`], with the
    /// steps it ran: [`Program::census`] for programs
    /// [`Program::static_counts`] cannot answer.
    ///
    /// The run tracks a taint bit per stack slot and local: [`Op::Input`]
    /// pushes a tainted value, and every op that moves or combines
    /// values carries taint along. Halting depends only on control flow
    /// (pc, the step bound, `Halt`), and so does the stack depth that
    /// decides `STACK_MAX` drops and empty-stack pops. So if no `Jz`
    /// pops a tainted value and no `LoopDec` counts down a tainted
    /// local, every seed executes the same op sequence, and the run's
    /// counts are the census. Otherwise the run stops before that
    /// branch, and the steps it ran are still reported.
    pub fn taint_census(&self) -> Census {
        // Prices are irrelevant here; only the op sequence is recorded.
        let free = CostTable { cycles: [0; 6] };
        let mut vm = VmState::new(self, 0);
        let mut stack: Vec<bool> = Vec::new();
        let mut locals = vec![false; self.locals as usize];
        let pop = |stack: &mut Vec<bool>| stack.pop().unwrap_or(false);
        let push = |stack: &mut Vec<bool>, t: bool| {
            if stack.len() < STACK_MAX {
                stack.push(t);
            }
        };
        let mut by_class = [0; 6];
        vm.run(self, &free, u64::MAX, |op, depth| {
            debug_assert_eq!(stack.len(), depth, "shadow stack tracks the real one");
            match op {
                Op::Push(_) => push(&mut stack, false),
                Op::Pop | Op::Out => {
                    pop(&mut stack);
                }
                Op::Dup => {
                    let t = stack.last().copied().unwrap_or(false);
                    push(&mut stack, t);
                }
                Op::Swap => {
                    let b = pop(&mut stack);
                    let a = pop(&mut stack);
                    push(&mut stack, b);
                    push(&mut stack, a);
                }
                Op::Add
                | Op::Sub
                | Op::Mul
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::Shl
                | Op::Shr
                | Op::Eq
                | Op::Lt => {
                    let b = pop(&mut stack);
                    let a = pop(&mut stack);
                    push(&mut stack, a | b);
                }
                Op::Not | Op::Mix => {
                    let a = pop(&mut stack);
                    push(&mut stack, a);
                }
                Op::Load(i) => push(&mut stack, locals[i as usize]),
                Op::Store(i) => locals[i as usize] = pop(&mut stack),
                Op::Jz(_) if pop(&mut stack) => return false,
                Op::LoopDec(i, _) if locals[i as usize] => return false,
                Op::Input => push(&mut stack, true),
                Op::Jmp(_) | Op::Jz(_) | Op::LoopDec(_, _) | Op::Halt => {}
            }
            by_class[op.class().index()] += 1;
            true
        });
        // Only a steered branch stops the run short of halting.
        let counts = vm.halted.then_some(OpCounts { steps: vm.steps, by_class });
        debug_assert!(!vm.halted || stack.len() == vm.stack.len(), "shadow tracks the real stack");
        Census { counts, interpreted: vm.steps }
    }
}

/// The outcome of [`Program::census`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Census {
    /// The seed-free op census, `None` when seeded input may steer
    /// control flow.
    pub counts: Option<OpCounts>,
    /// Interpreter steps run to find it: 0 when the op list answered,
    /// else the steps of the census run, up to a steered branch when it
    /// declined.
    pub interpreted: u64,
}

/// The stack of [`Program::static_counts`]: the exact depth, each slot
/// a known constant or unknown (`None`), and how many pops so far found
/// the stack empty plus how many pushes were dropped at [`STACK_MAX`].
#[derive(Default)]
struct ConstStack {
    slots: Vec<Option<i64>>,
    clamps: u64,
}

impl ConstStack {
    fn pop(&mut self) -> Option<i64> {
        self.slots.pop().unwrap_or_else(|| {
            self.clamps += 1;
            Some(0)
        })
    }

    fn push(&mut self, v: Option<i64>) {
        if self.slots.len() < STACK_MAX {
            self.slots.push(v);
        } else {
            self.clamps += 1;
        }
    }
}

/// Broad ISA family of a hosting node; prices the cost table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaClass {
    /// ARM-class embedded multicores, HMPSoCs and smart gateways.
    Arm,
    /// Small adaptive RISC-V cores.
    Riscv,
    /// Server-class x86 (FMDC / cloud).
    Server,
}

/// Cycles per macro-op class, priced by ISA family and DVFS state.
///
/// ALU, stack and branch costs are clock-invariant (cycles are
/// cycles); memory and I/O macro-ops cost *fewer* cycles at a lower
/// clock because DRAM latency is fixed in wall time — the classic
/// memory wall, scaled by `0.25 + 0.75·freq_scale` and floored at one
/// cycle. All arithmetic is f64-rounded once at table construction, so
/// a table is a pure function of `(isa, freq_scale)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostTable {
    /// Cycles per [`OpClass`], indexed `[stack, alu, mem, branch, io,
    /// kernel]`.
    pub cycles: [u32; 6],
}

impl CostTable {
    /// Builds the table for one ISA family at one DVFS frequency scale.
    pub fn for_isa(isa: IsaClass, freq_scale: f64) -> Self {
        let base: [u32; 6] = match isa {
            IsaClass::Arm => [20, 40, 120, 60, 800, 1500],
            IsaClass::Riscv => [30, 70, 200, 80, 1400, 2600],
            IsaClass::Server => [10, 20, 60, 30, 400, 700],
        };
        let wall = 0.25 + 0.75 * freq_scale.clamp(0.05, 4.0);
        let scale = |c: u32| ((c as f64 * wall).round() as u32).max(1);
        CostTable {
            cycles: [base[0], base[1], scale(base[2]), base[3], scale(base[4]), scale(base[5])],
        }
    }

    /// Cost in cycles of one op.
    pub fn cost(&self, op: Op) -> u64 {
        self.cycles[op.class().index()] as u64
    }
}

/// An ISA-independent census of one run: the steps it executes and
/// how many of them fall in each [`OpClass`]. Pricing it under a
/// [`CostTable`] is a dot product, exactly equal to the per-op sum an
/// interpreted run accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Steps executed.
    pub steps: u64,
    /// Executed ops per class, indexed by [`OpClass::index`].
    pub by_class: [u64; 6],
}

impl OpCounts {
    /// Total cycles of the counted ops under `table`.
    pub fn cycles(&self, table: &CostTable) -> u64 {
        self.by_class.iter().zip(table.cycles).map(|(&n, c)| n * c as u64).sum()
    }
}

/// Takes the ops of `rhs` off `self`, class by class; `rhs` must be a
/// sub-count (such as the ops already run out of a census).
impl std::ops::SubAssign for OpCounts {
    fn sub_assign(&mut self, rhs: OpCounts) {
        self.steps -= rhs.steps;
        for (n, done) in self.by_class.iter_mut().zip(rhs.by_class) {
            *n -= done;
        }
    }
}

/// Outcome of [`VmState::advance_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceResult {
    /// The program reached `Halt`, ran off the end, or hit its step
    /// bound.
    Halted,
    /// The cycle budget is exhausted (the next op would overshoot).
    BudgetExhausted,
}

/// Checkpoint decode failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// Bad magic or truncated image.
    Malformed,
    /// Unknown format version.
    Version(u16),
    /// The embedded program fingerprint does not match the program the
    /// resume was attempted against.
    ProgramMismatch {
        /// Fingerprint recorded at snapshot time.
        expected: u64,
        /// Fingerprint of the program offered at resume.
        got: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Malformed => write!(f, "malformed checkpoint image"),
            CheckpointError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::ProgramMismatch { expected, got } => {
                write!(f, "checkpoint for program {expected:#x}, resumed against {got:#x}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A serializable snapshot of a paused VM: stack, locals, pc, PRNG
/// cursor, step/cycle ledgers and the program fingerprint. Converts to
/// a canonical little-endian byte image ([`Checkpoint::to_bytes`])
/// whose FNV fingerprint travels with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the program this snapshot belongs to.
    pub program_fp: u64,
    /// Program counter.
    pub pc: u32,
    /// Steps executed so far (ISA-independent).
    pub steps: u64,
    /// Cycle ledger: cost consumed so far, accumulated under the cost
    /// tables of every node that hosted the task (monotone across
    /// migrations; per-node deltas are what each host charges).
    pub consumed_cycles: u64,
    /// Input-PRNG state.
    pub prng: u64,
    /// Output digest so far.
    pub out_digest: u64,
    /// Operand stack.
    pub stack: Vec<i64>,
    /// Local frame.
    pub locals: Vec<i64>,
}

impl Checkpoint {
    /// Canonical little-endian byte image: magic, version, fixed
    /// header, then stack and locals with explicit lengths.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64 + 8 * (self.stack.len() + self.locals.len()));
        b.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
        b.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        b.extend_from_slice(&self.program_fp.to_le_bytes());
        b.extend_from_slice(&self.pc.to_le_bytes());
        b.extend_from_slice(&self.steps.to_le_bytes());
        b.extend_from_slice(&self.consumed_cycles.to_le_bytes());
        b.extend_from_slice(&self.prng.to_le_bytes());
        b.extend_from_slice(&self.out_digest.to_le_bytes());
        b.extend_from_slice(&(self.stack.len() as u32).to_le_bytes());
        for v in &self.stack {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.extend_from_slice(&(self.locals.len() as u32).to_le_bytes());
        for v in &self.locals {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b
    }

    /// Size of the canonical image in bytes (what a migration ships).
    pub fn byte_len(&self) -> u64 {
        58 + 8 * (self.stack.len() + self.locals.len()) as u64
    }

    /// FNV-1a fingerprint of the canonical image.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for b in self.to_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Decodes a canonical image.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] on truncation or bad magic,
    /// [`CheckpointError::Version`] on an unknown version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], CheckpointError> {
            let s = bytes.get(*at..*at + n).ok_or(CheckpointError::Malformed)?;
            *at += n;
            Ok(s)
        };
        let u32le = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4 bytes"));
        let u64le = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8 bytes"));
        let i64le = |s: &[u8]| i64::from_le_bytes(s.try_into().expect("8 bytes"));
        if u32le(take(&mut at, 4)?) != CHECKPOINT_MAGIC {
            return Err(CheckpointError::Malformed);
        }
        let version = u16::from_le_bytes(take(&mut at, 2)?.try_into().expect("2 bytes"));
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version(version));
        }
        let program_fp = u64le(take(&mut at, 8)?);
        let pc = u32le(take(&mut at, 4)?);
        let steps = u64le(take(&mut at, 8)?);
        let consumed_cycles = u64le(take(&mut at, 8)?);
        let prng = u64le(take(&mut at, 8)?);
        let out_digest = u64le(take(&mut at, 8)?);
        let stack_len = u32le(take(&mut at, 4)?) as usize;
        if stack_len > STACK_MAX {
            return Err(CheckpointError::Malformed);
        }
        let mut stack = Vec::with_capacity(stack_len);
        for _ in 0..stack_len {
            stack.push(i64le(take(&mut at, 8)?));
        }
        let locals_len = u32le(take(&mut at, 4)?) as usize;
        if locals_len > u8::MAX as usize {
            return Err(CheckpointError::Malformed);
        }
        let mut locals = Vec::with_capacity(locals_len);
        for _ in 0..locals_len {
            locals.push(i64le(take(&mut at, 8)?));
        }
        if at != bytes.len() {
            return Err(CheckpointError::Malformed);
        }
        Ok(Checkpoint { program_fp, pc, steps, consumed_cycles, prng, out_digest, stack, locals })
    }
}

/// The mutable machine state of one executing program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmState {
    stack: Vec<i64>,
    locals: Vec<i64>,
    pc: u32,
    steps: u64,
    consumed: u64,
    prng: u64,
    out_digest: u64,
    halted: bool,
}

impl VmState {
    /// Fresh machine at pc 0 with zeroed locals and the input stream
    /// seeded from `seed`.
    pub fn new(program: &Program, seed: u64) -> Self {
        VmState {
            stack: Vec::new(),
            locals: vec![0; program.locals() as usize],
            pc: 0,
            steps: 0,
            consumed: 0,
            prng: splitmix(seed ^ 0xA076_1D64_78BD_642F),
            out_digest: FNV_OFFSET,
            halted: false,
        }
    }

    /// Restores a machine from a checkpoint, validating it against the
    /// program it claims to belong to.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ProgramMismatch`] on a fingerprint mismatch,
    /// [`CheckpointError::Malformed`] on out-of-range pc/frame or a
    /// stack deeper than [`STACK_MAX`] (no run can reach one).
    pub fn from_checkpoint(cp: &Checkpoint, program: &Program) -> Result<Self, CheckpointError> {
        let fp = program.fingerprint();
        if cp.program_fp != fp {
            return Err(CheckpointError::ProgramMismatch { expected: cp.program_fp, got: fp });
        }
        if cp.locals.len() != program.locals() as usize
            || cp.pc as usize > program.ops().len()
            || cp.stack.len() > STACK_MAX
        {
            return Err(CheckpointError::Malformed);
        }
        Ok(VmState {
            stack: cp.stack.clone(),
            locals: cp.locals.clone(),
            pc: cp.pc,
            steps: cp.steps,
            consumed: cp.consumed_cycles,
            prng: cp.prng,
            out_digest: cp.out_digest,
            halted: cp.pc as usize >= program.ops().len() || cp.steps >= program.max_steps(),
        })
    }

    /// Snapshot the machine (valid at any op boundary).
    pub fn checkpoint(&self, program: &Program) -> Checkpoint {
        Checkpoint {
            program_fp: program.fingerprint(),
            pc: self.pc,
            steps: self.steps,
            consumed_cycles: self.consumed,
            prng: self.prng,
            out_digest: self.out_digest,
            stack: self.stack.clone(),
            locals: self.locals.clone(),
        }
    }

    /// Whether the machine reached a terminal state.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Steps executed so far (ISA-independent work measure).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Cycle ledger consumed so far (see [`Checkpoint::consumed_cycles`]).
    pub fn consumed_cycles(&self) -> u64 {
        self.consumed
    }

    /// Output digest accumulated by [`Op::Out`].
    pub fn out_digest(&self) -> u64 {
        self.out_digest
    }

    fn pop(&mut self) -> i64 {
        self.stack.pop().unwrap_or(0)
    }

    fn push(&mut self, v: i64) {
        if self.stack.len() < STACK_MAX {
            self.stack.push(v);
        }
    }

    /// Retires `op`, priced at `cost` cycles: charges both ledgers,
    /// applies the op's effect and halts at `Halt`, past the last op of
    /// a `len`-op program or at its `max_steps` bound.
    #[inline(always)]
    fn exec(&mut self, op: Op, cost: u64, len: usize, max_steps: u64) {
        self.consumed += cost;
        self.steps += 1;
        self.pc += 1;
        match op {
            Op::Push(v) => self.push(v),
            Op::Pop => {
                self.pop();
            }
            Op::Dup => {
                let v = *self.stack.last().unwrap_or(&0);
                self.push(v);
            }
            Op::Swap => {
                let b = self.pop();
                let a = self.pop();
                self.push(b);
                self.push(a);
            }
            Op::Add => {
                let b = self.pop();
                let a = self.pop();
                self.push(a.wrapping_add(b));
            }
            Op::Sub => {
                let b = self.pop();
                let a = self.pop();
                self.push(a.wrapping_sub(b));
            }
            Op::Mul => {
                let b = self.pop();
                let a = self.pop();
                self.push(a.wrapping_mul(b));
            }
            Op::And => {
                let b = self.pop();
                let a = self.pop();
                self.push(a & b);
            }
            Op::Or => {
                let b = self.pop();
                let a = self.pop();
                self.push(a | b);
            }
            Op::Xor => {
                let b = self.pop();
                let a = self.pop();
                self.push(a ^ b);
            }
            Op::Shl => {
                let b = self.pop();
                let a = self.pop();
                self.push(a.wrapping_shl((b & 63) as u32));
            }
            Op::Shr => {
                let b = self.pop();
                let a = self.pop();
                self.push(((a as u64).wrapping_shr((b & 63) as u32)) as i64);
            }
            Op::Not => {
                let a = self.pop();
                self.push(!a);
            }
            Op::Eq => {
                let b = self.pop();
                let a = self.pop();
                self.push((a == b) as i64);
            }
            Op::Lt => {
                let b = self.pop();
                let a = self.pop();
                self.push((a < b) as i64);
            }
            Op::Load(i) => {
                let v = self.locals[i as usize];
                self.push(v);
            }
            Op::Store(i) => {
                let v = self.pop();
                self.locals[i as usize] = v;
            }
            Op::Jmp(t) => self.pc = t as u32,
            Op::Jz(t) => {
                if self.pop() == 0 {
                    self.pc = t as u32;
                }
            }
            Op::LoopDec(i, t) => {
                let v = self.locals[i as usize].wrapping_sub(1);
                self.locals[i as usize] = v;
                if v > 0 {
                    self.pc = t as u32;
                }
            }
            Op::Input => {
                self.prng = splitmix(self.prng);
                let v = self.prng as i64;
                self.push(v);
            }
            Op::Mix => {
                let a = self.pop();
                self.push(splitmix(a as u64) as i64);
            }
            Op::Out => {
                let a = self.pop();
                self.out_digest = fnv(self.out_digest, a as u64);
            }
            Op::Halt => {
                // Park pc past the end, so a checkpoint of this machine
                // resumes halted wherever the `Halt` sits.
                self.pc = len as u32;
                self.halted = true;
            }
        }
        if self.pc as usize >= len || self.steps >= max_steps {
            self.halted = true;
        }
    }

    /// Executes one op under `table`; returns `false` once halted.
    pub fn step(&mut self, program: &Program, table: &CostTable) -> bool {
        if !self.halted {
            match program.ops().get(self.pc as usize) {
                Some(&op) => {
                    self.exec(op, table.cost(op), program.ops().len(), program.max_steps())
                }
                None => self.halted = true,
            }
        }
        !self.halted
    }

    /// The interpreter loop every multi-step run goes through. Before
    /// each op it checks that the op still fits under the absolute
    /// cycle target `target_cycles`, then offers it to `hook` with the
    /// stack depth it starts from; a hook returning `false` stops the
    /// run before that op executes. Returns [`SliceResult::Halted`]
    /// only at a terminal state.
    #[inline(always)]
    fn run<H: FnMut(Op, usize) -> bool>(
        &mut self,
        program: &Program,
        table: &CostTable,
        target_cycles: u64,
        mut hook: H,
    ) -> SliceResult {
        let ops = program.ops();
        let max_steps = program.max_steps();
        while !self.halted {
            let Some(&op) = ops.get(self.pc as usize) else {
                self.halted = true;
                break;
            };
            let cost = table.cost(op);
            if self.consumed + cost > target_cycles || !hook(op, self.stack.len()) {
                return SliceResult::BudgetExhausted;
            }
            self.exec(op, cost, ops.len(), max_steps);
        }
        SliceResult::Halted
    }

    /// Runs while the *next* op still fits under the absolute cycle
    /// target `target_cycles` (compared against the consumed ledger),
    /// i.e. execution never overshoots the slice budget.
    pub fn advance_to(
        &mut self,
        program: &Program,
        table: &CostTable,
        target_cycles: u64,
    ) -> SliceResult {
        self.run(program, table, target_cycles, |_, _| true)
    }

    /// [`VmState::advance_to`] that also adds every op it executes to
    /// `tally`, by class. For a program with a census, the census minus
    /// the tallies of every slice run so far is what is left to halt.
    pub fn advance_tallied(
        &mut self,
        program: &Program,
        table: &CostTable,
        target_cycles: u64,
        tally: &mut OpCounts,
    ) -> SliceResult {
        self.run(program, table, target_cycles, |op, _| {
            tally.steps += 1;
            tally.by_class[op.class().index()] += 1;
            true
        })
    }

    /// Runs to the terminal state (bounded by the program's step cap).
    pub fn run_to_halt(&mut self, program: &Program, table: &CostTable) {
        self.run(program, table, u64::MAX, |_, _| true);
    }

    /// Steps and cycles left to the terminal state under `table`,
    /// measured by one scratch run of a clone: the cycles price a
    /// host's effective work, the steps fix the final tally.
    pub fn cost_to_halt(&self, program: &Program, table: &CostTable) -> (u64, u64) {
        let mut scratch = self.clone();
        scratch.run_to_halt(program, table);
        (scratch.steps - self.steps, scratch.consumed - self.consumed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CostTable {
        CostTable::for_isa(IsaClass::Arm, 1.0)
    }

    /// `locals[0] = n`; loop n times: input → mix → out.
    fn loop_program(n: i64) -> Program {
        Program::new(
            vec![
                Op::Push(n),
                Op::Store(0),
                Op::Input, // loop head = 2
                Op::Mix,
                Op::Out,
                Op::LoopDec(0, 2),
                Op::Halt,
            ],
            1,
        )
        .expect("valid")
    }

    #[test]
    fn arithmetic_and_stack_semantics() {
        let p = Program::new(
            vec![Op::Push(7), Op::Push(5), Op::Sub, Op::Push(3), Op::Mul, Op::Out, Op::Halt],
            0,
        )
        .expect("valid");
        let mut vm = VmState::new(&p, 1);
        vm.run_to_halt(&p, &table());
        assert!(vm.is_halted());
        // (7-5)*3 = 6 folded into the digest.
        assert_eq!(vm.out_digest(), fnv(FNV_OFFSET, 6));
        assert_eq!(vm.steps(), 7);
    }

    #[test]
    fn underflow_and_overflow_are_defined() {
        let p = Program::new(vec![Op::Add, Op::Pop, Op::Halt], 0).expect("valid");
        let mut vm = VmState::new(&p, 0);
        vm.run_to_halt(&p, &table());
        assert!(vm.is_halted());
        assert_eq!(vm.steps(), 3);
    }

    #[test]
    fn bounded_loop_terminates_with_exact_iterations() {
        let p = loop_program(10);
        let mut vm = VmState::new(&p, 42);
        vm.run_to_halt(&p, &table());
        // 2 setup + 10 × (input, mix, out, loopdec) + halt.
        assert_eq!(vm.steps(), 2 + 40 + 1);
    }

    #[test]
    fn step_bound_stops_runaway_programs() {
        let p = Program::with_max_steps(vec![Op::Jmp(0)], 0, 100).expect("valid");
        let mut vm = VmState::new(&p, 0);
        vm.run_to_halt(&p, &table());
        assert_eq!(vm.steps(), 100);
        assert!(vm.is_halted());
    }

    #[test]
    fn validation_rejects_bad_jumps_and_locals() {
        assert_eq!(
            Program::new(vec![Op::Jmp(9)], 0),
            Err(ProgramError::JumpOutOfRange { at: 0, target: 9 })
        );
        assert_eq!(
            Program::new(vec![Op::Load(2), Op::Halt], 2),
            Err(ProgramError::LocalOutOfRange { at: 0, local: 2 })
        );
        assert_eq!(Program::new(vec![], 0), Err(ProgramError::Empty));
    }

    #[test]
    fn seeded_input_is_reproducible_and_seed_sensitive() {
        let p = loop_program(4);
        let run = |seed| {
            let mut vm = VmState::new(&p, seed);
            vm.run_to_halt(&p, &table());
            vm.out_digest()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn cost_tables_differ_by_isa_and_dvfs() {
        let p = loop_program(8);
        let (steps_a, cyc_a) = p.full_cost(1, &CostTable::for_isa(IsaClass::Arm, 1.0));
        let (steps_r, cyc_r) = p.full_cost(1, &CostTable::for_isa(IsaClass::Riscv, 1.0));
        let (steps_eco, cyc_eco) = p.full_cost(1, &CostTable::for_isa(IsaClass::Arm, 0.5));
        // Steps are ISA-independent; cycle prices are not.
        assert_eq!(steps_a, steps_r);
        assert_eq!(steps_a, steps_eco);
        assert!(cyc_r > cyc_a, "riscv prices above arm");
        assert!(cyc_eco < cyc_a, "memory-wall relief at the lower clock");
    }

    #[test]
    fn cost_to_halt_from_a_paused_state_completes_the_full_cost() {
        let p = loop_program(12);
        let t = table();
        let (steps, cycles) = p.full_cost(4, &t);
        let mut vm = VmState::new(&p, 4);
        vm.advance_to(&p, &t, cycles / 3);
        let (left_steps, left_cycles) = vm.cost_to_halt(&p, &t);
        assert!(vm.steps() > 0 && left_steps > 0, "paused mid-run");
        assert_eq!(vm.steps() + left_steps, steps);
        assert_eq!(vm.consumed_cycles() + left_cycles, cycles);
    }

    #[test]
    fn checkpoint_roundtrips_through_canonical_bytes() {
        let p = loop_program(16);
        let mut vm = VmState::new(&p, 9);
        vm.advance_to(&p, &table(), 5_000);
        let cp = vm.checkpoint(&p);
        let bytes = cp.to_bytes();
        assert_eq!(bytes.len() as u64, cp.byte_len());
        let back = Checkpoint::from_bytes(&bytes).expect("decodes");
        assert_eq!(cp, back);
        assert_eq!(cp.fingerprint(), back.fingerprint());
        let resumed = VmState::from_checkpoint(&back, &p).expect("valid");
        assert_eq!(resumed, vm);
    }

    #[test]
    fn checkpoint_rejects_corruption_and_wrong_program() {
        let p = loop_program(4);
        let mut vm = VmState::new(&p, 1);
        vm.advance_to(&p, &table(), 3_000);
        let cp = vm.checkpoint(&p);
        let mut bytes = cp.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(Checkpoint::from_bytes(&bytes), Err(CheckpointError::Malformed));
        let other = loop_program(5);
        assert!(matches!(
            VmState::from_checkpoint(&cp, &other),
            Err(CheckpointError::ProgramMismatch { .. })
        ));
    }

    #[test]
    fn a_machine_halted_mid_program_resumes_halted() {
        let p = Program::new(vec![Op::Push(1), Op::Halt, Op::Mix, Op::Out], 0).expect("valid");
        let mut vm = VmState::new(&p, 1);
        vm.run_to_halt(&p, &table());
        assert_eq!(vm.steps(), 2);
        let resumed = VmState::from_checkpoint(&vm.checkpoint(&p), &p).expect("valid");
        assert!(resumed.is_halted());
        assert_eq!(resumed.cost_to_halt(&p, &table()), (0, 0), "nothing past the Halt runs");
    }

    #[test]
    fn checkpoint_with_a_stack_past_the_cap_is_malformed() {
        let p = loop_program(4);
        let mut cp = VmState::new(&p, 1).checkpoint(&p);
        cp.stack = vec![7; STACK_MAX];
        assert!(VmState::from_checkpoint(&cp, &p).is_ok(), "a full stack is reachable");
        cp.stack.push(7);
        assert_eq!(VmState::from_checkpoint(&cp, &p), Err(CheckpointError::Malformed));
        // The byte decoder draws the same line.
        assert_eq!(Checkpoint::from_bytes(&cp.to_bytes()), Err(CheckpointError::Malformed));
    }

    #[test]
    fn sliced_execution_matches_uninterrupted_run() {
        let p = loop_program(32);
        let t = table();
        let mut whole = VmState::new(&p, 3);
        whole.run_to_halt(&p, &t);
        let mut sliced = VmState::new(&p, 3);
        let mut budget = 777;
        while sliced.advance_to(&p, &t, budget) == SliceResult::BudgetExhausted {
            budget += 777;
        }
        assert_eq!(sliced, whole);
    }

    #[test]
    fn migration_across_isas_conserves_steps() {
        let p = loop_program(20);
        let arm = CostTable::for_isa(IsaClass::Arm, 1.0);
        let server = CostTable::for_isa(IsaClass::Server, 1.0);
        let (total_steps, _) = p.full_cost(5, &arm);
        let mut vm = VmState::new(&p, 5);
        vm.advance_to(&p, &arm, 10_000);
        let cp = vm.checkpoint(&p);
        let mut resumed = VmState::from_checkpoint(&cp, &p).expect("valid");
        resumed.run_to_halt(&p, &server);
        assert_eq!(resumed.steps(), total_steps, "no step lost or re-executed");
        let mut reference = VmState::new(&p, 5);
        reference.run_to_halt(&p, &arm);
        assert_eq!(resumed.out_digest(), reference.out_digest(), "same output on any host");
    }
}
