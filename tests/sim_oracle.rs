//! Bit-identity of the predecoded simulator against the interpreter it
//! replaced (`tests/support/`): every `SimResult` field — `block_counts`
//! and `entry_trace` included — and every `SimError` must be equal, over
//! the paper's benchmark matrix, generated corpora, and hand-built
//! programs aimed at the error paths and the timing corner cases.

#[path = "support/mod.rs"]
mod support;

use dra_core::corpus::corpus_setup;
use dra_core::lowend::{compile_benchmark, compile_program, Approach, LowEndSetup};
use dra_ir::{
    BinOp, BlockId, Cond, FunctionBuilder, Inst, PReg, Program, Reg, RegClass, SpillSlot,
};
use dra_sim::{simulate, LowEndConfig, SimError, SimResult};
use dra_workloads::mibench::benchmark_names;
use dra_workloads::profile::{builtin_profiles, generate_from_profile};

/// Run both simulators and require identical outcomes.
fn agree(what: &str, p: &Program, cfg: &LowEndConfig, args: &[i64]) -> Result<SimResult, SimError> {
    let got = simulate(p, cfg, args);
    let want = support::machine::simulate(p, cfg, args);
    assert_eq!(
        got, want,
        "{what}: predecoded simulator disagrees with the oracle"
    );
    got
}

fn phys(n: u8) -> Reg {
    Reg::Phys(PReg(n))
}

fn approaches() -> Vec<Approach> {
    let mut all = Approach::ALL.to_vec();
    all.push(Approach::Adaptive);
    all
}

#[test]
fn mibench_matrix_matches_oracle() {
    let setup = LowEndSetup::default();
    for name in benchmark_names() {
        for a in approaches() {
            let (p, _, _) = compile_benchmark(name, a, &setup)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.label()));
            let what = format!("{name}/{}", a.label());
            let r = agree(&what, &p, &setup.machine, &setup.args)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(r.insts_fetched > 0 && !r.block_counts.is_empty(), "{what}");
        }
    }
}

#[test]
fn builtin_corpora_match_oracle() {
    let setup = corpus_setup();
    for profile in builtin_profiles() {
        let programs = generate_from_profile(&profile, 0, 25).unwrap();
        for (i, source) in programs.into_iter().enumerate() {
            let what = format!("{}#{i}", profile.name);
            // The uncompiled program still names virtual registers: both
            // simulators must fail it the same way.
            let err = agree(&what, &source, &setup.machine, &setup.args).unwrap_err();
            assert!(
                matches!(err, SimError::VirtualRegister { .. }),
                "{what}: {err}"
            );
            let mut p = source;
            compile_program(&mut p, Approach::Adaptive, &setup)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            agree(&what, &p, &setup.machine, &setup.args).unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }
}

#[test]
fn step_limit_matches_oracle() {
    let mut b = FunctionBuilder::new("main");
    let l = b.new_block();
    b.br(l);
    b.switch_to(l);
    b.push(Inst::Nop);
    b.br(l);
    let p = Program::single(b.finish());
    for max_steps in [0, 1, 2, 999, 1000] {
        let cfg = LowEndConfig {
            max_steps,
            ..LowEndConfig::default()
        };
        let err = agree("runaway", &p, &cfg, &[]).unwrap_err();
        assert_eq!(err, SimError::StepLimit { max_steps });
    }
}

/// `main` calls `f1`, whose second instruction writes a virtual register.
#[test]
fn virtual_register_in_a_callee_matches_oracle() {
    let mut m = FunctionBuilder::new("main");
    m.push(Inst::MovImm {
        dst: phys(0),
        imm: 1,
    });
    m.push(Inst::Call {
        callee: 1,
        args: vec![phys(0)],
        ret: Some(phys(1)),
    });
    m.ret(Some(phys(1)));
    let mut c = FunctionBuilder::new("f1");
    let v = c.new_vreg();
    c.push(Inst::GetParam {
        dst: phys(0),
        index: 0,
    });
    c.mov(v, phys(0));
    c.ret(Some(phys(0)));
    let p = Program {
        funcs: vec![m.finish(), c.finish()],
        entry: 0,
    };
    let err = agree("virtual dst in f1", &p, &LowEndConfig::default(), &[]).unwrap_err();
    assert_eq!(err, SimError::VirtualRegister { func: 1 });
}

#[test]
fn falling_off_a_block_matches_oracle() {
    // Straight into a block with no terminator, after a taken branch.
    let mut b = FunctionBuilder::new("main");
    let tail = b.new_block();
    b.push(Inst::MovImm {
        dst: phys(0),
        imm: 3,
    });
    b.br(tail);
    b.switch_to(tail);
    b.push(Inst::Nop);
    b.ret(None);
    let mut f = b.finish();
    f.blocks[tail.index()].insts.pop();
    let p = Program::single(f);
    let err = agree("fell off", &p, &LowEndConfig::default(), &[]).unwrap_err();
    assert_eq!(
        err,
        SimError::ControlError {
            what: format!("fell off the end of main {tail}"),
        }
    );

    // A callee whose entry block is empty.
    let mut m = FunctionBuilder::new("main");
    m.push(Inst::Call {
        callee: 1,
        args: vec![],
        ret: None,
    });
    m.ret(None);
    let mut c = FunctionBuilder::new("empty").finish_unchecked();
    c.blocks[0].insts.clear();
    let p = Program {
        funcs: vec![m.finish(), c],
        entry: 0,
    };
    let err = agree("empty callee", &p, &LowEndConfig::default(), &[]).unwrap_err();
    assert!(matches!(err, SimError::ControlError { .. }), "{err}");
}

#[test]
fn set_last_reg_absorption_matches_oracle() {
    // Runs of 1–5 set_last_regs between executed instructions, so the
    // absorption budget carries across runs.
    let mut b = FunctionBuilder::new("main");
    for run in 1..=5 {
        for _ in 0..run {
            b.push(Inst::SetLastReg {
                class: RegClass::Int,
                value: run,
                delay: 0,
            });
        }
        b.push(Inst::MovImm {
            dst: phys(run),
            imm: run as i32,
        });
    }
    b.ret(Some(phys(5)));
    let p = Program::single(b.finish());
    for slr_per_cycle in [1, 2] {
        let cfg = LowEndConfig {
            slr_per_cycle,
            ..LowEndConfig::default()
        };
        let r = agree("slr runs", &p, &cfg, &[]).unwrap();
        assert_eq!(r.set_last_regs, 15);
    }
}

/// Loads whose destination is read by a `Call` (argument), by the first
/// instruction of the callee, by a `Ret`, and by the caller's instruction
/// after the return.
#[test]
fn load_use_across_call_and_ret_matches_oracle() {
    let mut m = FunctionBuilder::new("main");
    m.push(Inst::MovImm {
        dst: phys(0),
        imm: 0x200,
    });
    m.push(Inst::MovImm {
        dst: phys(1),
        imm: 9,
    });
    m.push(Inst::Store {
        src: phys(1),
        base: phys(0),
        offset: 0,
    });
    m.push(Inst::Load {
        dst: phys(1),
        base: phys(0),
        offset: 0,
    });
    m.push(Inst::Call {
        callee: 1,
        args: vec![phys(1)],
        ret: Some(phys(2)),
    });
    m.push(Inst::Load {
        dst: phys(3),
        base: phys(0),
        offset: 0,
    });
    m.push(Inst::Call {
        callee: 1,
        args: vec![phys(0)],
        ret: Some(phys(3)),
    });
    m.push(Inst::Bin {
        op: BinOp::Add,
        dst: phys(4),
        lhs: phys(2),
        rhs: phys(3),
    });
    m.ret(Some(phys(4)));
    let mut c = FunctionBuilder::new("callee");
    c.push(Inst::Load {
        dst: phys(1),
        base: phys(1),
        offset: 0,
    });
    c.push(Inst::GetParam {
        dst: phys(1),
        index: 0,
    });
    c.push(Inst::SpillStore {
        src: phys(1),
        slot: SpillSlot(2),
    });
    c.push(Inst::SpillLoad {
        dst: phys(2),
        slot: SpillSlot(2),
    });
    c.ret(Some(phys(2)));
    let p = Program {
        funcs: vec![m.finish(), c.finish()],
        entry: 0,
    };
    let r = agree("load-use across calls", &p, &LowEndConfig::default(), &[]).unwrap();
    assert_eq!(r.ret_value, Some(9 + 0x200));
    assert_eq!(r.block_counts[&(1, 0)], 2);
}

#[test]
fn counted_loop_trace_and_counts_match_oracle() {
    let mut b = FunctionBuilder::new("main");
    b.push(Inst::GetParam {
        dst: phys(0),
        index: 0,
    });
    b.push(Inst::MovImm {
        dst: phys(1),
        imm: 0,
    });
    let h = b.new_block();
    let body = b.new_block();
    let ex = b.new_block();
    b.br(h);
    b.switch_to(h);
    b.push(Inst::CondBr {
        cond: Cond::Lt,
        lhs: phys(1),
        rhs: phys(0),
        then_bb: body,
        else_bb: ex,
    });
    b.switch_to(body);
    b.push(Inst::BinImm {
        op: BinOp::Add,
        dst: phys(1),
        src: phys(1),
        imm: 1,
    });
    b.br(h);
    b.switch_to(ex);
    b.ret(Some(phys(1)));
    let p = Program::single(b.finish());
    // Past the trace cap, so the cap is compared too.
    let r = agree("loop", &p, &LowEndConfig::default(), &[5000]).unwrap();
    assert_eq!(r.ret_value, Some(5000));
    assert_eq!(r.block_counts[&(0, body.0)], 5000);
    assert_eq!(r.entry_trace.len(), 4096);
    assert_eq!(r.entry_trace[0], BlockId(0));
}
