//! Property battery: a program interrupted at *any* slice boundary,
//! checkpointed through the canonical byte image and resumed —
//! possibly on a different ISA's cost table — finishes with
//! bit-identical machine state, step count and output digest to an
//! uninterrupted run.

use myrtus_vm::{
    Checkpoint, CostTable, IsaClass, Op, OpCounts, Program, SliceResult, VmState, STACK_MAX,
};
use proptest::prelude::*;

/// A small random-but-valid program: a bounded loop whose body mixes
/// every op class, parameterized by iteration count and immediates.
fn gen_program(iters: i64, imm: i64, shift: i64, io_heavy: bool) -> Program {
    let mut ops = vec![Op::Push(iters), Op::Store(0)];
    let head = ops.len() as u16 + 1; // first op after the Jmp below
    ops.push(Op::Jmp(head));
    ops.extend([
        Op::Input,
        Op::Push(imm),
        Op::Add,
        Op::Mix,
        Op::Push(shift),
        Op::Shr,
        Op::Load(1),
        Op::Xor,
        Op::Store(1),
    ]);
    if io_heavy {
        ops.extend([Op::Input, Op::Out]);
    } else {
        ops.extend([Op::Dup, Op::Mul, Op::Pop]);
    }
    ops.push(Op::Load(1));
    ops.push(Op::Out);
    ops.push(Op::LoopDec(0, head));
    ops.push(Op::Halt);
    Program::new(ops, 2).expect("generated program validates")
}

fn isa(pick: u8) -> CostTable {
    match pick % 3 {
        0 => CostTable::for_isa(IsaClass::Arm, 1.0),
        1 => CostTable::for_isa(IsaClass::Riscv, 0.5),
        _ => CostTable::for_isa(IsaClass::Server, 1.2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Interrupt at an arbitrary cycle boundary, round-trip through
    /// bytes, resume on the same table: final state, consumed cost and
    /// digest match the uninterrupted run exactly.
    #[test]
    fn interrupt_resume_is_bit_identical(
        iters in 1i64..40,
        imm in -1000i64..1000,
        shift in 0i64..64,
        io_heavy in any::<bool>(),
        seed in any::<u64>(),
        cut in 1u64..60_000,
        pick in any::<u8>(),
    ) {
        let p = gen_program(iters, imm, shift, io_heavy);
        let t = isa(pick);
        let mut whole = VmState::new(&p, seed);
        whole.run_to_halt(&p, &t);

        let mut head = VmState::new(&p, seed);
        head.advance_to(&p, &t, cut);
        let image = head.checkpoint(&p).to_bytes();
        let cp = Checkpoint::from_bytes(&image).expect("canonical image decodes");
        let mut tail = VmState::from_checkpoint(&cp, &p).expect("fingerprint matches");
        tail.run_to_halt(&p, &t);

        prop_assert_eq!(&tail, &whole);
        prop_assert_eq!(tail.consumed_cycles(), whole.consumed_cycles());
        prop_assert_eq!(tail.out_digest(), whole.out_digest());
    }

    /// Chop the run into many slices of arbitrary stride (a harsher
    /// schedule than one interruption): still bit-identical.
    #[test]
    fn many_slices_match_one_shot(
        iters in 1i64..30,
        imm in -50i64..50,
        seed in any::<u64>(),
        stride in 200u64..5_000,
        pick in any::<u8>(),
    ) {
        let p = gen_program(iters, imm, 7, false);
        let t = isa(pick);
        let mut whole = VmState::new(&p, seed);
        whole.run_to_halt(&p, &t);

        let mut sliced = VmState::new(&p, seed);
        let mut target = sliced.consumed_cycles() + stride;
        while sliced.advance_to(&p, &t, target) == SliceResult::BudgetExhausted {
            // Round-trip every boundary through the byte image.
            let cp = Checkpoint::from_bytes(&sliced.checkpoint(&p).to_bytes())
                .expect("canonical image decodes");
            sliced = VmState::from_checkpoint(&cp, &p).expect("fingerprint matches");
            target += stride;
        }
        prop_assert_eq!(&sliced, &whole);
    }

    /// Migration across ISA classes: steps (the portable work measure)
    /// and the output digest are conserved exactly; the cycle ledger
    /// stays monotone.
    #[test]
    fn cross_isa_resume_conserves_steps(
        iters in 1i64..30,
        seed in any::<u64>(),
        cut in 1u64..40_000,
        src in any::<u8>(),
        dst in any::<u8>(),
    ) {
        let p = gen_program(iters, 13, 5, true);
        let (ts, tt) = (isa(src), isa(dst));
        let mut reference = VmState::new(&p, seed);
        reference.run_to_halt(&p, &ts);

        let mut vm = VmState::new(&p, seed);
        vm.advance_to(&p, &ts, cut);
        let snap_steps = vm.steps();
        let snap_cycles = vm.consumed_cycles();
        let cp = Checkpoint::from_bytes(&vm.checkpoint(&p).to_bytes()).expect("decodes");
        let mut resumed = VmState::from_checkpoint(&cp, &p).expect("fingerprint matches");
        prop_assert_eq!(resumed.steps(), snap_steps, "no step re-executed at resume");
        resumed.run_to_halt(&p, &tt);

        prop_assert_eq!(resumed.steps(), reference.steps());
        prop_assert_eq!(resumed.out_digest(), reference.out_digest());
        prop_assert!(resumed.consumed_cycles() >= snap_cycles, "cost ledger is monotone");
    }
}

/// Every ISA class at several DVFS scales, nominal included.
fn tables() -> Vec<CostTable> {
    let mut out = Vec::new();
    for isa in [IsaClass::Arm, IsaClass::Riscv, IsaClass::Server] {
        for scale in [0.3, 0.6, 1.0, 1.2, 2.5] {
            out.push(CostTable::for_isa(isa, scale));
        }
    }
    out
}

/// Asserts the census prices `p` exactly like an interpreted full run,
/// for each of `seeds` under every table.
fn census_matches_full_cost(p: &Program, seeds: impl IntoIterator<Item = u64>) {
    let c = p.seed_free_counts().expect("seed-free program");
    assert_eq!(c.by_class.iter().sum::<u64>(), c.steps, "every step has one class");
    for seed in seeds {
        for t in tables() {
            assert_eq!((c.steps, c.cycles(&t)), p.full_cost(seed, &t), "seed {seed}, {t:?}");
        }
    }
}

/// Ways seeded input can steer control flow, each through a different
/// carrier; the census must decline every one.
#[derive(Debug, Clone, Copy)]
enum Steer {
    /// `Input` → ALU → `Jz`.
    Jz,
    /// `Input` → `Store` → `LoopDec` on that local.
    LoopDec,
    /// `Input` → `Swap` → `Jz`.
    Swap,
    /// `Input` → `Dup` → `Jz`.
    Dup,
}

/// A bounded loop whose iteration cost depends on the seed via `steer`.
fn gen_steered(steer: Steer, iters: i64, imm: i64) -> Program {
    let mut ops = vec![Op::Push(iters), Op::Store(0)];
    let head = ops.len() as u16;
    let skip_len = 3; // Mix, Out, Push(imm) below
    let cond: Vec<Op> = match steer {
        Steer::Jz => vec![Op::Input, Op::Push(imm), Op::And],
        Steer::LoopDec => vec![Op::Input, Op::Push(7), Op::And, Op::Store(1), Op::Push(0)],
        Steer::Swap => vec![Op::Input, Op::Push(imm), Op::Swap, Op::And],
        Steer::Dup => vec![Op::Input, Op::Dup, Op::Out, Op::Push(1), Op::And],
    };
    let jz_at = head as usize + cond.len();
    ops.extend(cond);
    ops.push(Op::Jz((jz_at + 1 + skip_len) as u16));
    ops.extend([Op::Mix, Op::Out, Op::Push(imm)]);
    if let Steer::LoopDec = steer {
        // Count the seeded local down: a seed-dependent inner trip count.
        ops.extend([Op::Pop, Op::Mix, Op::LoopDec(1, (jz_at + 1 + skip_len) as u16)]);
    } else {
        ops.push(Op::Pop);
    }
    ops.push(Op::LoopDec(0, head));
    ops.push(Op::Halt);
    Program::new(ops, 2).expect("generated program validates")
}

/// Any valid program: opcodes from `raw`, jump targets and locals
/// folded into range. Taint can reach control flow or not, so this
/// covers both census outcomes.
fn gen_any(raw: &[(u8, i64)], locals: u8, max_steps: u64) -> Program {
    let len = raw.len() as i64;
    let target = |v: i64| v.rem_euclid(len) as u16;
    let local = |v: i64| v.rem_euclid(locals as i64) as u8;
    let ops = raw
        .iter()
        .map(|&(code, v)| match code % 24 {
            0 => Op::Push(v % 8),
            1 => Op::Pop,
            2 => Op::Dup,
            3 => Op::Swap,
            4 => Op::Add,
            5 => Op::Sub,
            6 => Op::Mul,
            7 => Op::And,
            8 => Op::Or,
            9 => Op::Xor,
            10 => Op::Shl,
            11 => Op::Shr,
            12 => Op::Not,
            13 => Op::Eq,
            14 => Op::Lt,
            15 => Op::Load(local(v)),
            16 => Op::Store(local(v)),
            17 => Op::Jmp(target(v)),
            18 => Op::Jz(target(v)),
            19 => Op::LoopDec(local(v), target(v)),
            20 => Op::Input,
            21 => Op::Mix,
            22 => Op::Out,
            _ => Op::Halt,
        })
        .collect();
    Program::with_max_steps(ops, locals, max_steps).expect("generated program validates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The generated loops send `Input` only into the digest, so the
    /// census answers, and it prices any seed on any host exactly.
    #[test]
    fn census_prices_every_seed_on_every_table(
        iters in 1i64..40,
        imm in -1000i64..1000,
        shift in 0i64..64,
        io_heavy in any::<bool>(),
        seeds in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let p = gen_program(iters, imm, shift, io_heavy);
        prop_assert!(p.seed_free_counts().is_some());
        census_matches_full_cost(&p, seeds);
    }

    /// Seeded input that reaches a branch, directly or through a local
    /// or a stack shuffle, makes the census decline.
    #[test]
    fn census_declines_seed_steered_programs(
        pick in 0u8..4,
        iters in 1i64..20,
        imm in 1i64..1000,
    ) {
        let steer = [Steer::Jz, Steer::LoopDec, Steer::Swap, Steer::Dup][pick as usize];
        prop_assert_eq!(gen_steered(steer, iters, imm).seed_free_counts(), None);
    }

    /// Arbitrary programs: whenever the census answers, every seed runs
    /// to exactly its price.
    #[test]
    fn census_is_exact_whenever_it_answers(
        raw in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..24),
        locals in 1u8..4,
        max_steps in 1u64..3_000,
        seeds in proptest::collection::vec(any::<u64>(), 3),
    ) {
        let p = gen_any(&raw, locals, max_steps);
        if p.seed_free_counts().is_some() {
            census_matches_full_cost(&p, seeds);
        }
    }
}

#[test]
fn steered_programs_really_cost_differently_per_seed() {
    let t = CostTable::for_isa(IsaClass::Arm, 1.0);
    for steer in [Steer::Jz, Steer::LoopDec, Steer::Swap, Steer::Dup] {
        let p = gen_steered(steer, 8, 1);
        let costs: std::collections::BTreeSet<_> = (0..16).map(|s| p.full_cost(s, &t)).collect();
        assert!(costs.len() > 1, "{steer:?}: the seed steers the cost");
    }
}

#[test]
fn census_survives_stack_overflow() {
    // Fill the stack past STACK_MAX with constants: the Input pushed at
    // full depth is dropped, so the Jz tests a constant and the census
    // answers.
    let fill = STACK_MAX as i64 + 8;
    let constant_top = Program::new(
        vec![
            Op::Push(fill),
            Op::Store(0),
            Op::Push(0), // loop head = 2
            Op::LoopDec(0, 2),
            Op::Input,
            Op::Jz(7),
            Op::Mix,
            Op::Halt,
        ],
        1,
    )
    .expect("valid");
    census_matches_full_cost(&constant_top, 0..8);
    // The same depth filled with seeded words: the Jz is seed-steered.
    let seeded_top = Program::new(
        vec![
            Op::Push(fill),
            Op::Store(0),
            Op::Input, // loop head = 2
            Op::LoopDec(0, 2),
            Op::Push(0),
            Op::Jz(7),
            Op::Mix,
            Op::Halt,
        ],
        1,
    )
    .expect("valid");
    assert_eq!(seeded_top.seed_free_counts(), None);
}

#[test]
fn census_survives_empty_stack_pops() {
    // Pops of an empty stack yield an untainted 0: the Input is folded
    // away first, so every Jz and ALU op below sees constants.
    let drained = Program::new(
        vec![
            Op::Input,
            Op::Out,
            Op::Pop,
            Op::Add,
            Op::Jz(6),
            Op::Mix,
            Op::Dup,
            Op::Jz(9),
            Op::Mix,
            Op::Halt,
        ],
        0,
    )
    .expect("valid");
    census_matches_full_cost(&drained, 0..8);
    // A Swap against an empty slot keeps the seeded word underneath:
    // [v] → [v, 0] → Pop → Jz(v) is seed-steered.
    let swapped = Program::new(vec![Op::Input, Op::Swap, Op::Pop, Op::Jz(5), Op::Mix, Op::Halt], 0)
        .expect("valid");
    assert_eq!(swapped.seed_free_counts(), None);
}

/// Reference for every budgeted run: single [`VmState::step`]s while
/// the next op still fits under `target`, tallying each one by class.
fn stepped_to(vm: &mut VmState, p: &Program, t: &CostTable, target: u64) -> OpCounts {
    let mut tally = OpCounts::default();
    while !vm.is_halted() {
        let Some(&op) = p.ops().get(vm.checkpoint(p).pc as usize) else {
            vm.step(p, t); // ran off the end: halts without executing
            break;
        };
        if vm.consumed_cycles() + t.cost(op) > target {
            break;
        }
        vm.step(p, t);
        tally.steps += 1;
        tally.by_class[op.class().index()] += 1;
    }
    tally
}

/// A seed-free program: a generated loop, or an arbitrary program when
/// its census answers (else the loop again).
fn gen_seed_free(arbitrary: bool, raw: &[(u8, i64)], iters: i64, imm: i64) -> Program {
    let any = gen_any(raw, 3, 2_000);
    if arbitrary && any.seed_free_counts().is_some() {
        any
    } else {
        gen_program(iters, imm, 9, iters % 2 == 0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The budgeted loop, plain or tallying, stops where single steps
    /// stop on every slice of a sliced run, and the tally counts
    /// exactly the ops stepped, class by class.
    #[test]
    fn budgeted_runs_match_single_stepping(
        raw in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..24),
        locals in 1u8..4,
        seed in any::<u64>(),
        strides in proptest::collection::vec(0u64..4_000, 1..12),
        pick in 0usize..15,
    ) {
        let p = gen_any(&raw, locals, 1_500);
        let t = tables()[pick];
        let mut plain = VmState::new(&p, seed);
        let mut tallied = plain.clone();
        let mut stepped = plain.clone();
        let mut target = 0;
        for stride in strides {
            target += stride;
            let want = stepped_to(&mut stepped, &p, &t, target);
            let mut tally = OpCounts::default();
            let result = tallied.advance_tallied(&p, &t, target, &mut tally);
            prop_assert_eq!(plain.advance_to(&p, &t, target), result);
            prop_assert_eq!(&tallied, &stepped);
            prop_assert_eq!(&plain, &stepped);
            prop_assert_eq!(tally, want);
            prop_assert_eq!(result == SliceResult::Halted, stepped.is_halted());
        }
    }

    /// A seed-free body migrated over 1-3 hops, each cut at any budget
    /// (none, mid-run or past halt) under its own host's table: at
    /// every resume, the census minus the tallies of all earlier hops
    /// prices the rest of the run on the destination exactly like a
    /// scratch run to halt.
    #[test]
    fn census_minus_tallies_prices_every_resume(
        arbitrary in any::<bool>(),
        raw in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..24),
        iters in 1i64..40,
        imm in -1000i64..1000,
        seed in any::<u64>(),
        hops in proptest::collection::vec((0u64..1_300, 0usize..15), 1..4),
        dst in 0usize..15,
    ) {
        let p = gen_seed_free(arbitrary, &raw, iters, imm);
        let census = p.seed_free_counts().expect("seed-free program");
        let mut left = census;
        let mut vm = VmState::new(&p, seed);
        for (i, &(permille, host)) in hops.iter().enumerate() {
            // Serve `permille`/1000 of the whole body's price on this host.
            let t = tables()[host];
            let target = vm.consumed_cycles() + census.cycles(&t) * permille / 1_000;
            let mut served = OpCounts::default();
            vm.advance_tallied(&p, &t, target, &mut served);
            left -= served;
            let cp = Checkpoint::from_bytes(&vm.checkpoint(&p).to_bytes()).expect("decodes");
            vm = VmState::from_checkpoint(&cp, &p).expect("fingerprint matches");
            let next = hops.get(i + 1).map_or(dst, |&(_, host)| host);
            let dt = tables()[next];
            prop_assert_eq!(left.steps + vm.steps(), census.steps);
            prop_assert_eq!((left.steps, left.cycles(&dt)), vm.cost_to_halt(&p, &dt));
        }
    }
}
