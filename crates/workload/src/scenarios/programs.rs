//! Seeded generator of portable task bodies (VM programs).
//!
//! A deployment that wants live-migratable tasks ships a *program
//! library* ([`myrtus_vm::Program`]s installed via
//! `SimCore::set_vm`) and tags components with a library index
//! ([`crate::tosca::Component::with_program`]). This module builds that
//! library deterministically from a seed: every program is a bounded
//! loop whose body follows one of three instruction mixes — compute
//! (`Mix`-kernel heavy), branch (data-dependent control flow), io
//! (seeded input reads folded into the output digest) — and is sized so
//! its total cost on the reference ISA (Arm at nominal frequency) lands
//! on a requested megacycle target. That keeps bodied runs comparable
//! to the scalar runs the earlier experiments calibrated: attaching a
//! body re-prices a task from the program, but the price stays in the
//! same ballpark as the scalar `work_mc` it replaces.
//!
//! Like every scenario generator, equal seeds yield byte-identical
//! programs (the E15 CI gate double-runs a seed and diffs exports).

use myrtus_vm::{CostTable, IsaClass, Op, Program};

use myrtus_continuum::time::SimTime;

use super::federation::{region_mix, RegionalApp, BATCH_WORK_MC};

/// Instruction mix of a generated program body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// ALU / `Mix`-kernel heavy inner loop (pose estimation, fusion).
    Compute,
    /// Data-dependent branches on the accumulator (protocol parsing).
    Branch,
    /// Seeded input reads folded into the digest (ingest, storage).
    Io,
}

impl Mix {
    /// All mixes, in library order.
    pub const ALL: [Mix; 3] = [Mix::Compute, Mix::Branch, Mix::Io];
}

/// Per-iteration loop body for a mix. Jump targets are relative to the
/// body start; [`program_for`] relocates them. Every path through a
/// body leaves the stack balanced and rewrites the accumulator
/// (local 1), so control flow stays data-dependent across iterations.
fn body_ops(mix: Mix, salt: i64) -> Vec<Op> {
    match mix {
        Mix::Compute => vec![Op::Load(1), Op::Mix, Op::Push(salt), Op::Xor, Op::Mix, Op::Store(1)],
        // Branch on the accumulator's parity into one of two mix
        // flavours. The paths are cost-balanced on the reference ISA
        // (Mem+Kernel+Mem+Branch == Mem+Stack+Alu+Kernel+Mem), so the
        // program's total cost is deterministic even though the path
        // taken each iteration is data-dependent.
        Mix::Branch => vec![
            Op::Load(1),
            Op::Push(1),
            Op::And,
            Op::Jz(8), // even → second flavour
            Op::Load(1),
            Op::Mix,
            Op::Store(1),
            Op::Jmp(13), // → LoopDec
            Op::Load(1),
            Op::Push(salt),
            Op::Xor,
            Op::Mix,
            Op::Store(1),
        ],
        Mix::Io => vec![Op::Input, Op::Push(salt), Op::Xor, Op::Mix, Op::Out],
    }
}

/// Builds one program of the given mix, sized so its full cost on the
/// reference ISA (Arm, nominal frequency) approximates
/// `target_mc` megacycles. The `seed` only perturbs immediates (and so
/// the fingerprint); structure and cost depend on `mix` and
/// `target_mc` alone.
///
/// # Panics
///
/// Panics if `target_mc` is not finite and positive — generator inputs
/// are build-time scenario constants, not runtime data.
pub fn program_for(mix: Mix, seed: u64, target_mc: f64) -> Program {
    assert!(
        target_mc.is_finite() && target_mc > 0.0,
        "program target must be positive, got {target_mc}"
    );
    let table = CostTable::for_isa(IsaClass::Arm, 1.0);
    let salt = (seed ^ 0xA076_1D64_78BD_642F) as i64;
    let body = body_ops(mix, salt);

    // Cost of one iteration (plus the LoopDec back-edge) on the
    // reference table. Straight-line bodies sum every op; the branch
    // body sums the condition plus one of its two cost-balanced paths.
    let back_edge = table.cost(Op::LoopDec(0, 0));
    let per_iter: u64 = match mix {
        Mix::Compute | Mix::Io => body.iter().map(|&op| table.cost(op)).sum::<u64>() + back_edge,
        Mix::Branch => {
            let cond: u64 = body[..4].iter().map(|&op| table.cost(op)).sum();
            let odd: u64 = body[4..8].iter().map(|&op| table.cost(op)).sum();
            let even: u64 = body[8..].iter().map(|&op| table.cost(op)).sum();
            debug_assert_eq!(odd, even, "paths must be cost-balanced on the reference ISA");
            cond + odd.max(even) + back_edge
        }
    };
    let prologue = [Op::Push(0), Op::Store(0), Op::Push(salt), Op::Store(1)];
    let epilogue = [Op::Load(1), Op::Out, Op::Halt];
    let overhead: u64 = prologue.iter().chain(epilogue.iter()).map(|&op| table.cost(op)).sum();

    let target_cycles = (target_mc * 1e6) as u64;
    let iters = (target_cycles.saturating_sub(overhead) / per_iter).max(1);

    let mut ops = prologue.to_vec();
    ops[0] = Op::Push(iters as i64);
    let body_start = ops.len() as u16;
    for &op in &body {
        ops.push(match op {
            Op::Jz(t) => Op::Jz(t + body_start),
            Op::Jmp(t) => Op::Jmp(t + body_start),
            other => other,
        });
    }
    ops.push(Op::LoopDec(0, body_start));
    ops.extend_from_slice(&epilogue);

    // Steps are bounded by construction; give the ceiling a one-iteration
    // margin so the VM's runaway guard never fires on a healthy body.
    let max_steps =
        (prologue.len() + epilogue.len()) as u64 + (iters + 1) * (body.len() as u64 + 1);
    Program::with_max_steps(ops, 2, max_steps).expect("generated program validates")
}

/// The standard three-program library (one per [`Mix`], library order
/// = [`Mix::ALL`] order), each sized to `target_mc`.
pub fn library(seed: u64, target_mc: f64) -> Vec<Program> {
    Mix::ALL
        .iter()
        .enumerate()
        .map(|(i, &mix)| program_for(mix, seed.wrapping_add(i as u64), target_mc))
        .collect()
}

/// The E15 workload: the federation [`region_mix`] with every batch
/// `crunch` stage given a portable body, plus the matching program
/// library (sized to [`BATCH_WORK_MC`], one mix per region, rotating).
/// Interactive tenants stay scalar — only the heavy, deadline-free
/// batch work is worth checkpointing across a WAN.
pub fn bodied_region_mix(
    seed: u64,
    regions: u16,
    horizon: SimTime,
    hot: u16,
    overload: f64,
) -> (Vec<RegionalApp>, Vec<Program>) {
    let mut mix = region_mix(seed, regions, horizon, hot, overload);
    for (app, region) in &mut mix {
        if !app.name.ends_with("-batch") {
            continue;
        }
        let prog = (*region as u32) % Mix::ALL.len() as u32;
        for comp in &mut app.components {
            if comp.name == "crunch" {
                comp.requirements.program = Some(prog);
            }
        }
    }
    (mix, library(seed, BATCH_WORK_MC))
}

#[cfg(test)]
mod tests {
    use super::*;
    use myrtus_vm::VmState;

    #[test]
    fn equal_seeds_make_identical_programs() {
        for mix in Mix::ALL {
            let a = program_for(mix, 42, 10.0);
            let b = program_for(mix, 42, 10.0);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{mix:?}");
            let c = program_for(mix, 43, 10.0);
            assert_ne!(a.fingerprint(), c.fingerprint(), "{mix:?} seed must matter");
        }
    }

    #[test]
    fn programs_land_near_their_cycle_target() {
        let table = CostTable::for_isa(IsaClass::Arm, 1.0);
        for mix in Mix::ALL {
            for target_mc in [1.0, 10.0, BATCH_WORK_MC] {
                let p = program_for(mix, 7, target_mc);
                let (steps, cycles) = p.full_cost(7, &table);
                let target = target_mc * 1e6;
                let err = (cycles as f64 - target).abs() / target;
                assert!(err < 0.05, "{mix:?}@{target_mc}: {cycles} cycles, err {err:.3}");
                assert!(steps <= p.max_steps(), "{mix:?} runs within its step bound");
            }
        }
    }

    #[test]
    fn programs_halt_and_produce_a_digest() {
        let table = CostTable::for_isa(IsaClass::Server, 1.0);
        for mix in Mix::ALL {
            let p = program_for(mix, 9, 2.0);
            let mut vm = VmState::new(&p, 9);
            vm.run_to_halt(&p, &table);
            assert!(vm.is_halted(), "{mix:?} halts");
            assert_ne!(vm.out_digest(), 0, "{mix:?} folds output");
        }
    }

    /// Compute and io bodies are branch-free loops, so their census is
    /// read off the op list; the branch body's `Jz` needs the census run.
    #[test]
    fn straight_line_mixes_are_priced_without_running() {
        for seed in 0..16 {
            for target_mc in [0.01, 1.0, 10.0, BATCH_WORK_MC] {
                for mix in Mix::ALL {
                    let p = program_for(mix, seed, target_mc);
                    let census = p.census();
                    let run = p.taint_census();
                    assert_eq!(census.counts, run.counts, "{mix:?} seed {seed} @{target_mc}");
                    assert!(census.counts.is_some(), "{mix:?}: no branch reads input");
                    let interpreted = if mix == Mix::Branch { run.interpreted } else { 0 };
                    assert_eq!(census.interpreted, interpreted, "{mix:?} seed {seed}");
                    assert_eq!(p.static_counts().is_some(), mix != Mix::Branch, "{mix:?}");
                }
            }
        }
    }

    #[test]
    fn bodied_mix_tags_batch_crunch_only() {
        let (mix, lib) = bodied_region_mix(7, 3, SimTime::from_secs(4), 0, 2.0);
        assert_eq!(lib.len(), Mix::ALL.len());
        for (app, region) in &mix {
            for comp in &app.components {
                let expect = if app.name.ends_with("-batch") && comp.name == "crunch" {
                    Some(*region as u32 % lib.len() as u32)
                } else {
                    None
                };
                assert_eq!(comp.requirements.program, expect, "{} / {}", app.name, comp.name);
            }
        }
        let again = bodied_region_mix(7, 3, SimTime::from_secs(4), 0, 2.0);
        assert_eq!(mix, again.0, "bodied mix is deterministic");
    }
}
