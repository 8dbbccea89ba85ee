//! Properties of the profile-driven corpus generator (DESIGN.md §13).
//!
//! Everything `generate_from_profile` emits must be a first-class
//! pipeline citizen: its rendered text parses back, the program
//! validates, every function allocates cleanly under every `Allocator`
//! engine and passes the symbolic checker, and the whole corpus compiles
//! to identical artifacts at any batch thread count, and whether a worker's
//! buffer pool is warm or empty. These are the load-bearing guarantees
//! behind `drac corpus` and the perfbench corpus workloads: a corpus that
//! occasionally emits an invalid program would poison every throughput
//! number downstream.

use dra_adjgraph::DiffParams;
use dra_core::batch::run_batch;
use dra_core::corpus::corpus_setup;
use dra_core::lowend::Approach;
use dra_core::session::CompileSession;
use dra_regalloc::{
    check_allocation, AllocConfig, Allocator, Coalescing, DenseIrc, Ospill, ReferenceIrc,
};
use dra_workloads::{builtin_profile, builtin_profiles, generate_from_profile};
use proptest::prelude::*;

/// Every engine behind the [`Allocator`] trait.
fn engines() -> Vec<Box<dyn Allocator>> {
    vec![
        Box::new(DenseIrc),
        Box::new(ReferenceIrc),
        Box::new(Ospill),
        Box::new(Coalescing),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 4 } else { 12 }
    ))]

    /// Any (builtin profile, seed, count) corpus: exact function count,
    /// parse round-trip, structural validity, and a checker-clean
    /// allocation from all four engines.
    #[test]
    fn generated_corpora_are_parse_valid_and_checker_clean(
        which in 0usize..4,
        seed in any::<u64>(),
        count in 1usize..=10,
    ) {
        let profile = builtin_profiles().swap_remove(which);
        let corpus = generate_from_profile(&profile, seed, count)
            .expect("builtin profiles always generate");
        let total: usize = corpus.iter().map(|p| p.funcs.len()).sum();
        prop_assert_eq!(total, count, "{} functions requested", count);

        let cfg = AllocConfig::differential(DiffParams::lowend_12_8());
        for (pi, p) in corpus.iter().enumerate() {
            let text = p.to_string();
            let back = dra_ir::parse::parse_program(&text)
                .unwrap_or_else(|e| panic!("program {pi}: generated text fails to parse: {e}"));
            prop_assert_eq!(back.funcs.len(), p.funcs.len());
            prop_assert_eq!(back.num_insts(), p.num_insts());
            dra_ir::validate::validate_program(p)
                .unwrap_or_else(|e| panic!("program {pi}: generated program invalid: {e:?}"));

            for f in &p.funcs {
                for eng in engines() {
                    let a = eng.allocate(f, &cfg).unwrap_or_else(|e| {
                        panic!("program {pi}: {} failed on {}: {e}", eng.name(), f.name)
                    });
                    if let Err(e) = check_allocation(&a.func, &a.record) {
                        prop_assert!(
                            false,
                            "program {}: {} rejected by checker on {}: {e}",
                            pi, eng.name(), f.name
                        );
                    }
                }
            }
        }
    }
}

/// What one compile produced, in full: the measured quantities plus the
/// compiled program's rendered text (byte-level equality).
type Fingerprint = (u64, u64, usize, String);

fn fingerprint(session: &CompileSession, text: &str) -> Fingerprint {
    let (run, _) = session
        .compile_source(text, Approach::Adaptive)
        .expect("corpus programs compile");
    (
        run.cycles,
        run.code_bits,
        run.total_insts,
        run.program.to_string(),
    )
}

/// Compile the corpus through the batch driver at `threads` workers.
fn compile_fingerprints(texts: &[String], threads: usize) -> Vec<Fingerprint> {
    let session = CompileSession::new(corpus_setup());
    run_batch(texts, threads, |_, text| fingerprint(&session, text))
}

/// Compile each program on its own newly spawned thread, one thread at a
/// time, so every compile starts from empty thread-local buffer pools.
fn compile_fingerprints_on_fresh_threads(texts: &[String]) -> Vec<Fingerprint> {
    let session = CompileSession::new(corpus_setup());
    texts
        .iter()
        .map(|text| {
            std::thread::scope(|s| {
                s.spawn(|| fingerprint(&session, text))
                    .join()
                    .expect("fresh-thread compile panicked")
            })
        })
        .collect()
}

/// `(profile, seed, count)` is the whole identity of a corpus: two
/// generations are byte-identical, and the compiled artifacts are
/// byte-identical at 1, 2, and 8 batch threads, and with every program
/// compiled on a fresh thread (see
/// `scratch_arenas_do_not_change_compiled_output`).
#[test]
fn corpus_is_byte_identical_at_any_thread_count() {
    let profile = builtin_profile("deep-cfg").unwrap();
    let corpus = generate_from_profile(&profile, 42, 48).unwrap();
    let again = generate_from_profile(&profile, 42, 48).unwrap();
    let texts: Vec<String> = corpus.iter().map(|p| p.to_string()).collect();
    let texts_again: Vec<String> = again.iter().map(|p| p.to_string()).collect();
    assert_eq!(texts, texts_again, "generation must be reproducible");

    let baseline = compile_fingerprints(&texts, 1);
    for threads in [2, 8] {
        assert_eq!(
            compile_fingerprints(&texts, threads),
            baseline,
            "{threads}-thread compile diverged from single-threaded"
        );
    }
    assert_eq!(
        compile_fingerprints_on_fresh_threads(&texts),
        baseline,
        "compiles from empty buffer pools diverged from one warm thread"
    );
}

/// The allocator's buffer pool (`dra_regalloc::scratch`) is a pure
/// allocation optimization. A single-threaded batch compiles every
/// program on one warm thread that carries buffers from earlier, larger
/// functions; compiling each program on a fresh thread starts from empty
/// pools. The two are bit-identical, so no recycled buffer leaks state.
#[test]
fn scratch_arenas_do_not_change_compiled_output() {
    let profile = builtin_profile("embedded-dsp").unwrap();
    let corpus = generate_from_profile(&profile, 7, 24).unwrap();
    let texts: Vec<String> = corpus.iter().map(|p| p.to_string()).collect();

    let warm = compile_fingerprints(&texts, 1);
    let fresh = compile_fingerprints_on_fresh_threads(&texts);
    assert_eq!(fresh, warm, "buffer reuse must not change any artifact");
}
