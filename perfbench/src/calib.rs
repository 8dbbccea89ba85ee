//! Host-speed calibration.
//!
//! The benchmark runs on a shared host whose speed moves by tens of
//! percent within seconds, in both wall and CPU time. A fixed kernel that
//! lives in this package, so that no change to the program can move it,
//! runs in short slices between cells on the same threads as the cells.
//! The mean slice time over a pass, against the slice's reference time,
//! is how much slower than the reference the host ran during that pass;
//! the benchmark divides the pass's times by it. Slice time is left out of
//! every measured time.

use crate::stats::mix;
use std::cell::RefCell;
use std::time::Instant;

/// Words in each thread's table: 32 KiB, so a slice does not depend on
/// what the cell before it left in the caches.
const TABLE: usize = 1 << 12;

/// Kernel iterations per slice.
const SLICE_ITERS: u64 = 40_000;

/// A thread takes a slice once this long (ns) has passed since its last.
const EVERY_NS: u128 = 5_000_000;

/// A slice's time (ns) at the reference speed: about its median on the
/// 2-vCPU host the baseline was measured on. It only sets the scale of the
/// reported times.
pub const REF_SLICE_NS: f64 = 400_000.0;

/// One slice of the kernel: a pseudo-random walk over a table with
/// data-dependent branches, integer multiplies and stores, the mix of an
/// interpreter loop or a cost evaluation over adjacency arrays.
fn kernel(table: &mut [u64], salt: u64, iters: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = salt | 1;
    let mut acc = 0u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & mask;
        let v = table[j];
        if v & 3 == 0 {
            acc = acc.wrapping_add(v >> 3);
        } else if v & 3 == 1 {
            acc ^= v.rotate_left(7);
        } else {
            acc = acc.wrapping_mul(3).wrapping_add(i);
        }
        table[j] = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(acc);
    }
    acc
}

thread_local! {
    static SLICER: RefCell<Option<(Vec<u64>, Instant, u64)>> = const { RefCell::new(None) };
}

/// On the calling thread: if [`EVERY_NS`] has passed since its last
/// slice, or it never took one, time one slice and return its duration
/// (ns).
pub fn maybe_slice() -> Option<u64> {
    SLICER.with(|s| {
        let mut s = s.borrow_mut();
        let (table, last, n) = s.get_or_insert_with(|| {
            let table = (0..TABLE as u64).map(|i| mix(7, i)).collect();
            (table, Instant::now(), 0)
        });
        if *n > 0 && last.elapsed().as_nanos() < EVERY_NS {
            return None;
        }
        *n += 1;
        let t0 = Instant::now();
        let acc = kernel(table, *n, SLICE_ITERS);
        let ns = t0.elapsed().as_nanos() as u64;
        std::hint::black_box(acc);
        *last = Instant::now();
        Some(ns)
    })
}

/// How much slower than the reference the host ran while `slices` were
/// taken: their mean time over [`REF_SLICE_NS`] (1 without slices).
pub fn slowdown(slices: &[u64]) -> f64 {
    if slices.is_empty() {
        return 1.0;
    }
    let mean = slices.iter().sum::<u64>() as f64 / slices.len() as f64;
    mean / REF_SLICE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_slices_first_then_waits() {
        std::thread::spawn(|| {
            assert!(maybe_slice().is_some_and(|ns| ns > 0));
            assert!(maybe_slice().is_none());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn slowdown_is_mean_over_reference() {
        assert_eq!(slowdown(&[]), 1.0);
        let r = REF_SLICE_NS as u64;
        assert_eq!(slowdown(&[r, 3 * r]), 2.0);
    }
}
