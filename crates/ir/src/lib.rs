//! # dra-ir — three-address intermediate representation
//!
//! The IR underpinning the differential register allocation reproduction
//! (Zhuang & Pande, PLDI 2005). It models a small RISC machine: virtual and
//! physical registers, three-address arithmetic, loads/stores, structured
//! branching over a control-flow graph of basic blocks, calls and returns,
//! and the paper's `set_last_reg` decode-stage pseudo-instruction.
//!
//! The crate also provides the analyses every later stage leans on:
//! liveness ([`liveness`]), dominators ([`dom`]), natural loops and static
//! execution-frequency estimation ([`loops`]).
//!
//! ```
//! use dra_ir::{FunctionBuilder, BinOp, Reg};
//!
//! let mut b = FunctionBuilder::new("double");
//! let x = b.new_vreg();
//! let y = b.new_vreg();
//! b.mov_imm(x, 21);
//! b.bin(BinOp::Add, y, Reg::from(x), Reg::from(x));
//! b.ret(Some(Reg::from(y)));
//! let f = b.finish();
//! assert_eq!(f.num_blocks(), 1);
//! ```

pub mod bitset;
pub mod block;
pub mod builder;
pub mod dom;
pub mod function;
pub mod inst;
pub mod liveness;
pub mod loops;
pub mod parse;
pub mod pretty;
pub mod reg;
pub mod validate;

pub use bitset::{BitMatrix, BitSet};
pub use block::{BasicBlock, BlockId};
pub use builder::FunctionBuilder;
pub use function::{Function, Program};
pub use inst::{AccessOrder, BinOp, Cond, Inst, SpillSlot};
pub use liveness::Liveness;
pub use reg::{PReg, Reg, RegClass, VReg};
