//! Per-thread buffer pool for the interference graph and its IRC round.
//!
//! [`crate::interference::InterferenceGraph::build`] and the dense IRC
//! engine (`crate::irc`) rebuild large indexed arrays for every function,
//! and again for every spill round: the triangular bit-matrix, the
//! adjacency-list spine and its rows, the degree and use/def-weight
//! vectors, the move list, and IRC's CSR move index, mark and select
//! stack. This pool hands those buffers from one round to the next and
//! from one function to the next on the same thread. It is the only
//! buffer-reuse mechanism in the workspace, and it always reuses.
//!
//! It stays because it is measured to pay. On perfbench `compile-direct`
//! (4000 generated functions × baseline + o-spill, checker on, 2-vCPU
//! host), turning this pool off cost 7.2% of `functions_per_s` (3 runs),
//! against a published IQR of 3.5% for that metric. Pooling liveness
//! bitsets, the adjacency-index spine and IRC's typed node/move arrays as
//! well bought only 1.5% more, within that noise, so nothing else is
//! pooled.
//!
//! Ownership rules (DESIGN.md §13):
//!
//! - The pool is **thread-local**: a worker only ever sees buffers it
//!   returned itself, so there is no cross-thread state and determinism
//!   is untouched.
//! - Every taken buffer is **fully re-initialized** ([`BitMatrix::reset`],
//!   `clear` + `resize`), so it is observationally identical to a fresh
//!   allocation. Each kind is capped, so one outlier function cannot pin
//!   unbounded memory.
//! - Returning is **explicit** (`InterferenceGraph::recycle`, the IRC
//!   round's `recycle`). A buffer that escapes into a result is simply
//!   dropped, which is always safe.
//!
//! The oracles are `corpus_is_byte_identical_at_any_thread_count` and
//! `scratch_arenas_do_not_change_compiled_output` in
//! `tests/corpus_props.rs`: compiling every program on its own new
//! thread, from empty pools, must give the same bytes as one warm
//! thread that carries buffers from earlier, larger functions.

use crate::interference::MoveRef;
use dra_ir::bitset::BitMatrix;
use std::cell::RefCell;

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

// Per-kind carcass caps: generous enough that one batch worker's steady
// state never drops a buffer, small enough that an outlier function
// cannot pin unbounded memory.
const CAP_SMALL: usize = 8;
const CAP_VECS: usize = 32;

#[derive(Default)]
struct Pool {
    matrices: Vec<BitMatrix>,
    adjs: Vec<Vec<Vec<u32>>>,
    u32s: Vec<Vec<u32>>,
    f64s: Vec<Vec<f64>>,
    moves: Vec<Vec<MoveRef>>,
}

fn with_pool<T>(f: impl FnOnce(&mut Pool) -> T) -> T {
    POOL.with(|p| f(&mut p.borrow_mut()))
}

/// Take an empty triangular bit-matrix over `0..n`.
pub fn take_matrix(n: usize) -> BitMatrix {
    with_pool(|p| match p.matrices.pop() {
        Some(mut m) => {
            m.reset(n);
            m
        }
        None => BitMatrix::new(n),
    })
}

/// Return a bit-matrix to the pool.
pub fn put_matrix(m: BitMatrix) {
    with_pool(|p| {
        if p.matrices.len() < CAP_SMALL {
            p.matrices.push(m);
        }
    });
}

/// Take an adjacency-list spine of exactly `n` empty rows; recycled rows
/// keep their capacity, which is where most of the win comes from.
pub fn take_adj(n: usize) -> Vec<Vec<u32>> {
    with_pool(|p| match p.adjs.pop() {
        Some(mut a) => {
            a.truncate(n);
            for row in a.iter_mut() {
                row.clear();
            }
            a.resize_with(n, Vec::new);
            a
        }
        None => vec![Vec::new(); n],
    })
}

/// Return an adjacency-list spine to the pool.
pub fn put_adj(a: Vec<Vec<u32>>) {
    with_pool(|p| {
        if p.adjs.len() < CAP_SMALL {
            p.adjs.push(a);
        }
    });
}

/// Take an empty `Vec<u32>`.
pub fn take_u32() -> Vec<u32> {
    with_pool(|p| p.u32s.pop().unwrap_or_default())
}

/// Take a `Vec<u32>` of `n` zeros.
pub fn take_u32_zeroed(n: usize) -> Vec<u32> {
    let mut v = take_u32();
    v.clear();
    v.resize(n, 0);
    v
}

/// Return a `Vec<u32>` to the pool, emptied.
pub fn put_u32(mut v: Vec<u32>) {
    v.clear();
    with_pool(|p| {
        if p.u32s.len() < CAP_VECS {
            p.u32s.push(v);
        }
    });
}

/// Take a `Vec<f64>` of `n` zeros.
pub fn take_f64_zeroed(n: usize) -> Vec<f64> {
    let mut v = with_pool(|p| p.f64s.pop().unwrap_or_default());
    v.clear();
    v.resize(n, 0.0);
    v
}

/// Return a `Vec<f64>` to the pool.
pub fn put_f64(mut v: Vec<f64>) {
    v.clear();
    with_pool(|p| {
        if p.f64s.len() < CAP_SMALL {
            p.f64s.push(v);
        }
    });
}

/// Take an empty move list.
pub fn take_moves() -> Vec<MoveRef> {
    with_pool(|p| p.moves.pop().unwrap_or_default())
}

/// Return a move list to the pool.
pub fn put_moves(mut v: Vec<MoveRef>) {
    v.clear();
    with_pool(|p| {
        if p.moves.len() < CAP_SMALL {
            p.moves.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffers_come_back_fresh() {
        let mut m = take_matrix(10);
        m.set(1, 2);
        put_matrix(m);
        let m2 = take_matrix(20);
        assert_eq!(m2.dim(), 20);
        assert!(m2.is_empty());

        let mut a = take_adj(3);
        a[0].push(7);
        put_adj(a);
        let a2 = take_adj(5);
        assert_eq!(a2.len(), 5);
        assert!(a2.iter().all(|r| r.is_empty()));

        put_u32(vec![1, 2, 3]);
        assert!(take_u32().is_empty());
        assert_eq!(take_u32_zeroed(4), vec![0; 4]);
        assert_eq!(take_f64_zeroed(2), vec![0.0; 2]);
    }
}
