//! Property battery: a program interrupted at *any* slice boundary,
//! checkpointed through the canonical byte image and resumed —
//! possibly on a different ISA's cost table — finishes with
//! bit-identical machine state, step count and output digest to an
//! uninterrupted run.

use myrtus_vm::{
    Census, Checkpoint, CostTable, IsaClass, Op, OpCounts, Program, SliceResult, VmState, STACK_MAX,
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

/// Asserts that wherever [`Program::static_counts`] answers, it equals
/// the census run and prices every seed like an interpreted run.
/// Returns whether it answered.
fn static_pass_is_exact(p: &Program, seeds: impl IntoIterator<Item = u64>) -> bool {
    let Some(counts) = p.static_counts() else { return false };
    assert_eq!(p.taint_census().counts, Some(counts), "static pass equals the census run");
    assert_eq!(p.census(), Census { counts: Some(counts), interpreted: 0 });
    census_matches_full_cost(p, seeds);
    true
}

/// One counted loop of [`gen_loops`]: its raw counter (see
/// [`counter_of`]), the ops before its head and the raw ops of its body.
type RawLoop = ((u8, i64), Vec<(u8, i64)>, Vec<(u8, i64)>);

/// The op that loads a loop's counter: mostly a small constant,
/// sometimes `i64::MIN` or `i64::MAX`, sometimes whatever local 1
/// holds (a constant, an input word, or a value an earlier loop's body
/// stored there), sometimes none, so the loop counts on from what the
/// loop before left in local 0.
fn counter_of((pick, c): (u8, i64)) -> Option<Op> {
    match pick {
        0 => Some(Op::Push(i64::MIN)),
        1 => Some(Op::Push(i64::MAX)),
        2 => Some(Op::Load(1)),
        3 => None,
        _ => Some(Op::Push(c)),
    }
}

/// Branch-free programs of counted loops run one after another, each
/// counting down local 0 from its own counter. Prefix ops may leave
/// any depth or empty-stack pops behind; body ops are chosen so the
/// body never pops below its head's depth and ends at it, and stores
/// only to locals 1 and 2. So the static pass can summarise every
/// loop whose counter is a constant other than `i64::MIN` and whose
/// run fits the step bound.
fn gen_loops(loops: &[RawLoop], max_steps: u64) -> Program {
    let op_of = |code: u8, v: i64, depth: usize| -> Op {
        let ops = [
            Op::Push(v % 8),
            Op::Input,
            Op::Load(v.rem_euclid(3) as u8),
            Op::Dup,
            Op::Pop,
            Op::Out,
            Op::Store(1 + v.rem_euclid(2) as u8),
            Op::Mix,
            Op::Not,
            Op::Swap,
            Op::Add,
            Op::Xor,
            Op::Mul,
        ];
        let op = ops[code as usize % ops.len()];
        // How deep below the top the op reaches.
        let reach = match op {
            Op::Pop | Op::Out | Op::Store(_) | Op::Mix | Op::Not => 1,
            Op::Swap | Op::Add | Op::Xor | Op::Mul => 2,
            _ => 0,
        };
        if reach <= depth {
            op
        } else {
            Op::Push(v % 8)
        }
    };
    let mut ops = Vec::new();
    for &(counter, ref prefix, ref body) in loops {
        ops.extend(prefix.iter().map(|&(code, v)| op_of(code, v, usize::MAX)));
        if let Some(load) = counter_of(counter) {
            ops.extend([load, Op::Store(0)]);
        }
        let head = ops.len() as u16;
        let mut depth = 0;
        for &(code, v) in body {
            let op = op_of(code, v, depth);
            depth = match op {
                Op::Push(_) | Op::Input | Op::Load(_) | Op::Dup => depth + 1,
                Op::Pop | Op::Out | Op::Store(_) | Op::Add | Op::Xor | Op::Mul => depth - 1,
                _ => depth,
            };
            ops.push(op);
        }
        ops.extend(std::iter::repeat_n(Op::Out, depth));
        ops.push(Op::LoopDec(0, head));
    }
    ops.push(Op::Halt);
    Program::with_max_steps(ops, 3, max_steps).expect("generated program validates")
}

fn raw_ops(max: usize) -> impl Strategy<Value = Vec<(u8, i64)>> {
    proptest::collection::vec((any::<u8>(), any::<i64>()), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Counted loops: the static pass equals the census run and
    /// `census_matches_full_cost` holds wherever it answers, and it
    /// answers every program whose counters are constants other than
    /// `i64::MIN` (or what an earlier loop left) and whose run ends
    /// before the step bound.
    #[test]
    fn static_census_answers_counted_loops_exactly(
        loops in proptest::collection::vec(((0u8..10, -3i64..60), raw_ops(3), raw_ops(10)), 1..4),
        (bounded, bound) in (any::<bool>(), 1u64..400),
        seeds in proptest::collection::vec(any::<u64>(), 2),
    ) {
        let max_steps = if bounded { bound } else { myrtus_vm::DEFAULT_MAX_STEPS };
        let p = gen_loops(&loops, max_steps);
        let answered = static_pass_is_exact(&p, seeds);
        let run = p.taint_census().counts.expect("no branch reads input");
        let constant = |l: &RawLoop| match counter_of(l.0) {
            Some(Op::Push(c)) => c != i64::MIN,
            load => load.is_none(),
        };
        if loops.iter().all(constant) && run.steps < max_steps {
            prop_assert!(answered, "a summarisable program falls back");
        }
    }

    /// Arbitrary programs and the generated loops: wherever the static
    /// pass answers, it is exact.
    #[test]
    fn static_census_is_exact_whenever_it_answers(
        raw in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..24),
        locals in 1u8..4,
        max_steps in 1u64..3_000,
        iters in 1i64..40,
        imm in -1000i64..1000,
        seeds in proptest::collection::vec(any::<u64>(), 2),
    ) {
        static_pass_is_exact(&gen_any(&raw, locals, max_steps), seeds.clone());
        static_pass_is_exact(&gen_program(iters, imm, 9, iters % 2 == 0), seeds);
    }
}

/// `Push(c) Store(0)`, then a balanced `Input, Mix, Out` loop on local
/// 0, then `Halt`, bounded at `max_steps`.
fn counted(c: i64, max_steps: u64) -> Program {
    let ops =
        vec![Op::Push(c), Op::Store(0), Op::Input, Op::Mix, Op::Out, Op::LoopDec(0, 2), Op::Halt];
    Program::with_max_steps(ops, 1, max_steps).expect("valid")
}

#[test]
fn counters_below_two_run_the_body_once() {
    // The first back-edge falls through, so the walk needs no summary.
    for c in [1, 0, -1, -7, i64::MIN + 1] {
        let p = counted(c, 1_000);
        assert!(static_pass_is_exact(&p, 0..4), "counter {c}");
        assert_eq!(p.static_counts().map(|n| n.steps), Some(7), "counter {c}");
    }
    assert!(static_pass_is_exact(&counted(2, 1_000), 0..4));
}

#[test]
fn a_wrapping_counter_falls_back_to_the_census_run() {
    // `i64::MIN - 1` wraps to `i64::MAX`: the loop runs to the bound.
    let p = counted(i64::MIN, 2_000);
    assert_eq!(p.static_counts(), None);
    census_matches_full_cost(&p, 0..4);
    assert_eq!(p.census().interpreted, 2_000, "the census run is counted");
}

#[test]
fn a_run_cut_at_the_step_bound_falls_back() {
    // 100 trips of 4 ops would take 403 steps.
    let cut = counted(100, 300);
    assert_eq!(cut.static_counts(), None);
    census_matches_full_cost(&cut, 0..4);
    assert_eq!(cut.seed_free_counts().map(|c| c.steps), Some(300));
    // A bound reached at the last back-edge stops the run before its
    // Halt; one step more is not a cut.
    let at_back_edge = counted(100, 402);
    assert_eq!(at_back_edge.static_counts(), None);
    assert_eq!(at_back_edge.seed_free_counts().map(|c| c.steps), Some(402));
    assert!(static_pass_is_exact(&counted(100, 403), 0..4));
    // The same in straight-line code: the bound falls on the op before
    // the Halt.
    let p = Program::with_max_steps(vec![Op::Push(1), Op::Pop, Op::Halt], 0, 2).expect("valid");
    assert_eq!(p.static_counts(), None);
    assert_eq!(p.seed_free_counts().map(|c| c.steps), Some(2));
}

#[test]
fn a_nested_loop_falls_back() {
    let p = Program::new(
        vec![
            Op::Push(5),
            Op::Store(0),
            Op::Push(3), // outer head = 2
            Op::Store(1),
            Op::Input, // inner head = 4
            Op::Out,
            Op::LoopDec(1, 4),
            Op::LoopDec(0, 2),
            Op::Halt,
        ],
        2,
    )
    .expect("valid");
    assert_eq!(p.static_counts(), None);
    census_matches_full_cost(&p, 0..4);
    assert_eq!(p.seed_free_counts().map(|c| c.steps), Some(2 + 5 * (2 + 3 * 3 + 1) + 1));
}

#[test]
fn a_body_storing_its_counter_falls_back() {
    // The body re-arms its own counter, so only the step bound ends it.
    let p = Program::with_max_steps(
        vec![Op::Push(4), Op::Store(0), Op::Push(3), Op::Store(0), Op::LoopDec(0, 2), Op::Halt],
        1,
        1_000,
    )
    .expect("valid");
    assert_eq!(p.static_counts(), None);
    census_matches_full_cost(&p, 0..4);
    assert_eq!(p.seed_free_counts().map(|c| c.steps), Some(1_000));
}

#[test]
fn a_stack_max_clamp_in_the_body_falls_back() {
    // A full stack at the head: the body's Push is dropped, so it ends
    // at the head's depth without being the same trip at another depth.
    let mut ops = vec![Op::Push(7); STACK_MAX];
    ops.extend([Op::Store(0), Op::Push(1)]); // counter 7, depth STACK_MAX
    let head = ops.len() as u16;
    ops.extend([Op::Push(5), Op::Pop, Op::Push(6), Op::LoopDec(0, head), Op::Halt]);
    let p = Program::new(ops, 1).expect("valid");
    assert_eq!(p.static_counts(), None);
    census_matches_full_cost(&p, 0..4);
    // Without the clamp (one slot of room) the same loop is summarised.
    let mut ops = vec![Op::Push(7); STACK_MAX - 1];
    ops.extend([Op::Store(0), Op::Push(1)]);
    let head = ops.len() as u16;
    ops.extend([Op::Push(5), Op::Pop, Op::Push(6), Op::Pop, Op::LoopDec(0, head), Op::Halt]);
    assert!(static_pass_is_exact(&Program::new(ops, 1).expect("valid"), 0..2));
}

#[test]
fn a_loop_that_moves_the_stack_falls_back() {
    // Each trip leaves a 5 behind, so after 3 trips the Pop leaves two
    // of them and the Store takes a 5, not an empty-stack 0.
    let p = Program::new(
        vec![
            Op::Push(3),
            Op::Store(0),
            Op::Push(5), // head = 2
            Op::LoopDec(0, 2),
            Op::Pop,
            Op::Store(0),
            Op::Input, // head = 6
            Op::Out,
            Op::LoopDec(0, 6),
            Op::Halt,
        ],
        1,
    )
    .expect("valid");
    assert_eq!(p.static_counts(), None);
    census_matches_full_cost(&p, 0..4);
    assert_eq!(p.seed_free_counts().map(|c| c.steps), Some(2 + 3 * 2 + 2 + 5 * 3 + 1));
}

#[test]
fn stack_values_a_loop_body_moves_are_unknown_after_it() {
    // Two trips of a Swap leave [4, 6] as they found it; the walked
    // trip saw [6, 4], so the second counter is not the 4 it saw.
    let p = Program::new(
        vec![
            Op::Push(4),
            Op::Push(6),
            Op::Push(2),
            Op::Store(0),
            Op::Swap, // head = 4
            Op::LoopDec(0, 4),
            Op::Store(0),
            Op::Input, // head = 7
            Op::Out,
            Op::LoopDec(0, 7),
            Op::Halt,
        ],
        1,
    )
    .expect("valid");
    assert_eq!(p.static_counts(), None);
    census_matches_full_cost(&p, 0..4);
    assert_eq!(p.seed_free_counts().map(|c| c.steps), Some(4 + 2 * 2 + 1 + 6 * 3 + 1));
}

#[test]
fn locals_a_loop_body_stores_are_unknown_after_it() {
    // The first trip stores the old local 2 (9) into local 1, every
    // later trip the 2 the body left in local 2: after the loop local 1
    // is 2, not the 9 the walked trip saw, so the pass cannot take it
    // as the second loop's counter.
    let p = Program::new(
        vec![
            Op::Push(9),
            Op::Store(2),
            Op::Push(3),
            Op::Store(0),
            Op::Load(2), // head = 4
            Op::Store(1),
            Op::Push(2),
            Op::Store(2),
            Op::LoopDec(0, 4),
            Op::Load(1),
            Op::Store(0),
            Op::Input, // head = 11
            Op::Out,
            Op::LoopDec(0, 11),
            Op::Halt,
        ],
        3,
    )
    .expect("valid");
    assert_eq!(p.static_counts(), None);
    census_matches_full_cost(&p, 0..4);
    assert_eq!(p.seed_free_counts().map(|c| c.steps), Some(4 + 3 * 5 + 2 + 2 * 3 + 1));
}

#[test]
fn counters_carried_through_stack_moves_are_summarised() {
    // [3, 5] → Swap → [5, 3]: local 1 = 3; Dup, Store: local 0 = 5.
    let p = Program::new(
        vec![
            Op::Push(3),
            Op::Push(5),
            Op::Swap,
            Op::Store(1),
            Op::Dup,
            Op::Store(0),
            Op::Pop,
            Op::Input, // head = 7
            Op::Out,
            Op::LoopDec(0, 7),
            Op::Load(1),
            Op::Store(0),
            Op::Input, // head = 12
            Op::Mix,
            Op::Out,
            Op::LoopDec(0, 12),
            Op::Halt,
        ],
        2,
    )
    .expect("valid");
    assert!(static_pass_is_exact(&p, 0..4));
    assert_eq!(p.static_counts().map(|c| c.steps), Some(7 + 5 * 3 + 2 + 3 * 4 + 1));
}
