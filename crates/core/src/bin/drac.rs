//! `drac` — the differential register allocation compiler driver.
//!
//! ```text
//! drac list
//! drac compile --bench sha --approach coalesce [--emit ir|stats|bits|json] [--profile]
//! drac run     --bench sha --approach select   [--profile]
//! drac sweep   --bench sha
//! drac report  results/telemetry/fig11.json …
//! ```
//!
//! A thin command-line front end over `dra-core`: compile any built-in
//! benchmark under any setup, inspect the allocated+encoded IR, dump the
//! assembled LEAF16 words, run the cycle-level simulation, or validate
//! and pretty-print a run's emitted telemetry.

use dra_core::batch::run_lowend_matrix_with_telemetry;
use dra_core::bench_serve::{run_bench_serve, BenchServeConfig};
use dra_core::corpus::{corpus_setup, resolve_profile, run_corpus_compile, write_profile};
use dra_core::faults::{run_fault_campaign, PipelineFaults};
use dra_core::lowend::{compile_and_run, compile_program_telemetry, Approach, LowEndSetup};
use dra_core::profile::compile_and_run_profiled;
use dra_core::serve::{serve, ServeAddr, ServeConfig};
use dra_core::serve_chaos::{run_chaos_serve, ChaosServeConfig};
use dra_core::telemetry::{validate_telemetry, Telemetry};
use dra_encoding::EncodingConfig;
use dra_regalloc::RemapStrategy;
use dra_workloads::benchmark_names;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  drac list\n  drac compile --bench <name> --approach <a> [--emit ir|stats|bits|json] [--profile] [--check] [--remap-strategy <s>]\n  drac run --bench <name> --approach <a> [--profile] [--check] [--remap-strategy <s>]\n  drac sweep --bench <name> [--check] [--remap-strategy <s>]\n  drac check [--bench <name>] [--approach <a>]\n  drac chaos [--seed <n>] [--faults <n>] [--serve]\n  drac serve --addr <unix:PATH|tcp:HOST:PORT> [--workers <n>] [--retries <n>] [--queue-cap <n>] [--telemetry-root <dir>]\n  drac bench-serve [--smoke] [--workers <csv>] [--jobs <n>] [--clients <n>] [--seed <n>] [--bench <name>] [--corpus <profile>] [--approach <a>] [--deadline-ms <n>] [--queue-cap <n>] [--out <path>] [--telemetry-root <dir>]\n  drac profile [--bench <name>] [--name <out-name>] [--builtin <name|all>]   (default: all benchmarks)\n  drac corpus --profile <name|path> --count <n> [--seed <n>] [--threads <n>]\n  drac report [<telemetry.json>|<dir>]…   (default: results/telemetry)\n\napproaches: baseline remapping select o-spill coalesce adaptive\nremap strategies: greedy anneal lns bb portfolio\nbuiltin profiles: embedded-dsp pointer-chasing deep-cfg call-heavy"
    );
    ExitCode::FAILURE
}

fn parse_approach(s: &str) -> Option<Approach> {
    Approach::parse(s)
}

struct Args {
    bench: Option<String>,
    approach: Option<Approach>,
    emit: String,
    profile: bool,
    check: bool,
    remap_strategy: Option<RemapStrategy>,
}

fn parse_args(rest: &[String]) -> Option<Args> {
    let mut args = Args {
        bench: None,
        approach: None,
        emit: "stats".to_string(),
        profile: false,
        check: false,
        remap_strategy: None,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => args.bench = Some(it.next()?.clone()),
            "--approach" => args.approach = Some(parse_approach(it.next()?)?),
            "--emit" => args.emit = it.next()?.clone(),
            "--profile" => args.profile = true,
            "--check" => args.check = true,
            "--remap-strategy" => {
                args.remap_strategy = Some(RemapStrategy::parse(it.next()?)?)
            }
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return usage();
    };
    match cmd.as_str() {
        "list" => {
            for n in benchmark_names() {
                println!("{n}");
            }
            ExitCode::SUCCESS
        }
        "compile" | "run" => {
            let Some(args) = parse_args(&argv[1..]) else {
                return usage();
            };
            let (Some(bench), Some(approach)) = (args.bench, args.approach) else {
                return usage();
            };
            let mut setup = LowEndSetup::default();
            setup.check = args.check;
            if let Some(strategy) = args.remap_strategy {
                setup.remap_strategy = strategy;
            }
            let run = if args.profile {
                compile_and_run_profiled(&bench, approach, &setup)
            } else {
                compile_and_run(&bench, approach, &setup)
            };
            let run = match run {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match (cmd.as_str(), args.emit.as_str()) {
                ("compile", "json") | ("run", "json") => {
                    // Flat JSON object, hand-emitted (no JSON dependency).
                    println!(
                        "{{\"benchmark\":\"{bench}\",\"approach\":\"{}\",\"instructions\":{},\"spill_insts\":{},\"set_last_regs\":{},\"code_bits\":{},\"cycles\":{},\"dynamic_spills\":{},\"dynamic_set_last_regs\":{},\"icache_misses\":{},\"dcache_misses\":{},\"result\":{}}}",
                        approach.label(),
                        run.total_insts,
                        run.spill_insts,
                        run.set_last_regs,
                        run.code_bits,
                        run.cycles,
                        run.dynamic_spills,
                        run.dynamic_set_last_regs,
                        run.icache_misses,
                        run.dcache_misses,
                        run.ret_value.map_or("null".to_string(), |v| v.to_string()),
                    );
                }
                ("compile", "ir") => print!("{}", run.program),
                ("compile", "bits") => {
                    let geom = setup.machine.geometry;
                    let enc = EncodingConfig::new(setup.diff);
                    for f in &run.program.funcs {
                        match dra_encoding::assemble_function(f, &enc, &geom) {
                            Ok(img) => {
                                println!("; {} — {} bits", f.name, img.size_bits());
                                for chunk in img.words.chunks(8) {
                                    let hex: Vec<String> =
                                        chunk.iter().map(|w| format!("{w:04x}")).collect();
                                    println!("  {}", hex.join(" "));
                                }
                            }
                            Err(e) => println!("; {} — not assemblable: {e}", f.name),
                        }
                    }
                }
                _ => {
                    println!("benchmark      {bench}");
                    println!("approach       {}", approach.label());
                    println!("instructions   {}", run.total_insts);
                    println!(
                        "spills         {} ({:.2}%)",
                        run.spill_insts,
                        run.spill_percent()
                    );
                    println!(
                        "set_last_regs  {} ({:.2}%)",
                        run.set_last_regs,
                        run.cost_percent()
                    );
                    println!("code size      {} bits", run.code_bits);
                    println!("cycles         {}", run.cycles);
                    println!("dyn spills     {}", run.dynamic_spills);
                    println!("dyn repairs    {}", run.dynamic_set_last_regs);
                    println!("i-cache misses {}", run.icache_misses);
                    println!("d-cache misses {}", run.dcache_misses);
                    println!("result         {:?}", run.ret_value);
                }
            }
            ExitCode::SUCCESS
        }
        "sweep" => {
            let Some(args) = parse_args(&argv[1..]) else {
                return usage();
            };
            let Some(bench) = args.bench else {
                return usage();
            };
            let mut setup = LowEndSetup::default();
            setup.check = args.check;
            if let Some(strategy) = args.remap_strategy {
                setup.remap_strategy = strategy;
            }
            println!(
                "{:<11} {:>7} {:>7} {:>11} {:>10}",
                "approach", "spill%", "slr%", "code(bits)", "cycles"
            );
            let mut approaches = Approach::ALL.to_vec();
            approaches.push(Approach::Adaptive);
            for a in approaches {
                match compile_and_run(&bench, a, &setup) {
                    Ok(r) => println!(
                        "{:<11} {:>6.2}% {:>6.2}% {:>11} {:>10}",
                        a.label(),
                        r.spill_percent(),
                        r.cost_percent(),
                        r.code_bits,
                        r.cycles
                    ),
                    Err(e) => println!("{:<11} error: {e}", a.label()),
                }
            }
            ExitCode::SUCCESS
        }
        "chaos" => {
            let mut seed: Option<u64> = None;
            let mut n_faults = 96usize;
            let mut serve_mode = false;
            let mut it = argv[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--serve" => serve_mode = true,
                    "--seed" | "--faults" => {
                        let value = match it.next().map(|v| v.parse::<u64>()) {
                            Some(Ok(v)) => v,
                            _ => return usage(),
                        };
                        if a == "--seed" {
                            seed = Some(value);
                        } else {
                            n_faults = value as usize;
                        }
                    }
                    _ => return usage(),
                }
            }
            if serve_mode {
                run_chaos_serve_cmd(seed.unwrap_or(3))
            } else {
                run_chaos(seed.unwrap_or(1), n_faults)
            }
        }
        "check" => {
            let Some(args) = parse_args(&argv[1..]) else {
                return usage();
            };
            run_check(args.bench.as_deref(), args.approach)
        }
        "serve" => run_serve(&argv[1..]),
        "bench-serve" => run_bench_serve_cmd(&argv[1..]),
        "profile" => run_profile_cmd(&argv[1..]),
        "corpus" => run_corpus_cmd(&argv[1..]),
        "report" => run_report(&argv[1..]),
        _ => usage(),
    }
}

/// `drac report`: validate and pretty-print telemetry documents. Each
/// argument is a file or a directory (directories contribute their
/// `*.json` entries, sorted); with no arguments, discovers
/// `results/telemetry`. Any binary's frame is accepted — the schema, not
/// a hard-coded emitter list, is the contract.
fn run_report(args: &[String]) -> ExitCode {
    let roots: Vec<String> = if args.is_empty() {
        vec!["results/telemetry".to_string()]
    } else {
        args.to_vec()
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut failed = false;
    for root in &roots {
        let p = Path::new(root);
        if p.is_dir() {
            let entries = match std::fs::read_dir(p) {
                Ok(entries) => entries,
                Err(e) => {
                    eprintln!("{root}: {e}");
                    failed = true;
                    continue;
                }
            };
            // An unreadable directory entry is a failure, not a skip: a
            // corrupt telemetry file must never pass silently.
            let mut found: Vec<PathBuf> = Vec::new();
            for entry in entries {
                match entry {
                    Ok(e) => {
                        let path = e.path();
                        if path.extension().is_some_and(|ext| ext == "json") {
                            found.push(path);
                        }
                    }
                    Err(e) => {
                        eprintln!("{root}: unreadable entry: {e}");
                        failed = true;
                    }
                }
            }
            found.sort();
            if found.is_empty() {
                eprintln!("{root}: no telemetry documents");
                failed = true;
            }
            paths.extend(found);
        } else {
            paths.push(p.to_path_buf());
        }
    }
    for (i, path) in paths.iter().enumerate() {
        let display = path.display();
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{display}: {e}");
                failed = true;
                continue;
            }
        };
        match validate_telemetry(&src) {
            Ok(report) => {
                if i > 0 {
                    println!();
                }
                print!("{}", report.render());
            }
            Err(e) => {
                eprintln!("{display}: invalid telemetry: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `drac check`: run the symbolic allocation checker over the benchmark ×
/// approach matrix. Every function of every cell is compiled with
/// [`LowEndSetup::check`] on (degradation off, so a rejection surfaces
/// instead of silently recompiling direct), the `checker.*` counters are
/// aggregated to `results/telemetry/checker.json`, and the exit code is
/// nonzero if any cell is rejected.
fn run_check(bench: Option<&str>, approach: Option<Approach>) -> ExitCode {
    let names: Vec<&str> = match bench {
        Some(b) => match benchmark_names().iter().find(|n| **n == b) {
            Some(n) => vec![n],
            None => {
                eprintln!("check: unknown benchmark {b:?}");
                return ExitCode::FAILURE;
            }
        },
        None => benchmark_names().to_vec(),
    };
    let approaches: Vec<Approach> = match approach {
        Some(a) => vec![a],
        None => {
            let mut all = Approach::ALL.to_vec();
            all.push(Approach::Adaptive);
            all
        }
    };
    let mut setup = LowEndSetup::default();
    setup.check = true;
    setup.degrade = false;
    let mut telemetry = Telemetry::new();
    let mut failed = false;
    for name in &names {
        let mut bad = Vec::new();
        for &a in &approaches {
            let mut p = dra_workloads::benchmark(name);
            if let Err(e) = compile_program_telemetry(&mut p, a, &setup, None, &mut telemetry) {
                eprintln!("{name} × {}: {e}", a.label());
                bad.push(a.label());
                failed = true;
            }
        }
        if bad.is_empty() {
            println!("{name}: ok ({} approaches)", approaches.len());
        } else {
            println!("{name}: REJECTED under {}", bad.join(", "));
        }
    }
    println!(
        "checked {} functions, {} instructions, {} fields replayed, {} violations",
        telemetry.counter("checker.functions"),
        telemetry.counter("checker.insts"),
        telemetry.counter("checker.fields_replayed"),
        telemetry.counter("checker.violations"),
    );
    match telemetry.write_results(Path::new("."), "checker") {
        Ok(path) => println!("telemetry: {}", path.display()),
        Err(e) => {
            eprintln!("telemetry write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failed {
        eprintln!("check: CHECKER REJECTION");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `drac serve`: run the resident daemon until a `shutdown` request
/// arrives, then print where the final telemetry went.
fn run_serve(args: &[String]) -> ExitCode {
    let mut addr: Option<ServeAddr> = None;
    let mut workers = 0usize;
    let mut retries = 1u32;
    let mut queue_cap: Option<usize> = None;
    let mut telemetry_root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = Some(ServeAddr::parse(v)),
                None => return usage(),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => workers = v,
                None => return usage(),
            },
            "--retries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => retries = v,
                None => return usage(),
            },
            "--queue-cap" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => queue_cap = Some(v),
                None => return usage(),
            },
            "--telemetry-root" => match it.next() {
                Some(v) => telemetry_root = Some(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("serve: --addr is required (unix:/path or tcp:host:port)");
        return ExitCode::FAILURE;
    };
    let mut config = ServeConfig::new(addr);
    config.workers = workers;
    config.retries = retries;
    if let Some(cap) = queue_cap {
        config.queue_cap = cap;
    }
    config.telemetry_root = telemetry_root.clone();
    let handle = match serve(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("serving on {}", handle.addr());
    match handle.join() {
        Ok(telemetry) => {
            println!(
                "served {} requests ({} from cache)",
                telemetry.counter("serve.requests"),
                telemetry.counter("serve.cache_hits"),
            );
            if let Some(root) = telemetry_root {
                println!(
                    "telemetry: {}",
                    root.join("results/telemetry/serve.json").display()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `drac bench-serve`: the seeded load harness; `--smoke` shrinks the
/// sweep to CI scale and asserts the caches actually served hits.
fn run_bench_serve_cmd(args: &[String]) -> ExitCode {
    let mut smoke = false;
    let mut config = BenchServeConfig::standard();
    let mut out: Option<PathBuf> = Some(PathBuf::from("results/serve_bench.json"));
    let mut telemetry_root: Option<PathBuf> = Some(PathBuf::from("."));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--workers" => match it.next() {
                Some(v) => {
                    let parsed: Option<Vec<usize>> =
                        v.split(',').map(|w| w.trim().parse().ok()).collect();
                    match parsed {
                        Some(w) if !w.is_empty() => config.workers = w,
                        _ => return usage(),
                    }
                }
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.jobs = v,
                None => return usage(),
            },
            "--clients" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.clients = v,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.seed = v,
                None => return usage(),
            },
            "--bench" => match it.next() {
                Some(v) => config.bench = v.clone(),
                None => return usage(),
            },
            "--approach" => match it.next().and_then(|v| parse_approach(v)) {
                Some(v) => config.approach = v,
                None => return usage(),
            },
            "--corpus" => match it.next() {
                Some(v) => config.corpus_profile = Some(v.clone()),
                None => return usage(),
            },
            "--deadline-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.deadline_ms = Some(v),
                None => return usage(),
            },
            "--queue-cap" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => config.queue_cap = v,
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--telemetry-root" => match it.next() {
                Some(v) => telemetry_root = Some(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if smoke {
        let full = config;
        config = BenchServeConfig::smoke();
        config.seed = full.seed;
        config.bench = full.bench;
        config.approach = full.approach;
        config.corpus_profile = full.corpus_profile;
        config.deadline_ms = full.deadline_ms;
        config.queue_cap = full.queue_cap;
    }
    if config.corpus_profile.is_none() && !benchmark_names().contains(&config.bench.as_str()) {
        eprintln!("bench-serve: unknown benchmark {:?}", config.bench);
        return ExitCode::FAILURE;
    }
    config.out_path = out.clone();
    config.telemetry_root = telemetry_root;
    let report = match run_bench_serve(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    if let Some(path) = out {
        println!("report: {}", path.display());
    }
    let errors: u64 = report
        .sweeps
        .iter()
        .flat_map(|s| s.phases.iter())
        .map(|p| p.errors)
        .sum();
    let hits: u64 = report.sweeps.iter().map(|s| s.server_cache_hits).sum();
    if errors > 0 {
        eprintln!("bench-serve: {errors} jobs failed");
        return ExitCode::FAILURE;
    }
    if smoke && hits == 0 {
        eprintln!("bench-serve: smoke expected nonzero cache hits");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `drac profile`: extract a `dra-profile-v1` workload profile from one
/// named benchmark (or the whole mibench substitute suite) and write it
/// to `results/profiles/<name>.json`.
fn run_profile_cmd(args: &[String]) -> ExitCode {
    let mut bench: Option<String> = None;
    let mut out_name: Option<String> = None;
    let mut builtin: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => match it.next() {
                Some(v) => bench = Some(v.clone()),
                None => return usage(),
            },
            "--name" => match it.next() {
                Some(v) => out_name = Some(v.clone()),
                None => return usage(),
            },
            "--builtin" => match it.next() {
                Some(v) => builtin = Some(v.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    // `--builtin <name|all>`: write the checked-in generator profiles
    // instead of extracting one from a benchmark run.
    if let Some(which) = builtin {
        let profiles = if which == "all" {
            dra_workloads::builtin_profiles()
        } else {
            match dra_workloads::builtin_profile(&which) {
                Some(p) => vec![p],
                None => {
                    eprintln!("profile: unknown builtin {which:?}");
                    return ExitCode::FAILURE;
                }
            }
        };
        for p in &profiles {
            match write_profile(Path::new("."), p) {
                Ok(path) => println!("profile: {}", path.display()),
                Err(e) => {
                    eprintln!("profile: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let (programs, default_name) = match bench {
        Some(b) => {
            if !benchmark_names().contains(&b.as_str()) {
                eprintln!("profile: unknown benchmark {b:?}");
                return ExitCode::FAILURE;
            }
            (vec![dra_workloads::benchmark(&b)], b)
        }
        None => (
            benchmark_names()
                .iter()
                .map(|n| dra_workloads::benchmark(n))
                .collect(),
            "mibench".to_string(),
        ),
    };
    let name = out_name.unwrap_or(default_name);
    let profile = dra_workloads::extract_profile(&name, &programs);
    match write_profile(Path::new("."), &profile) {
        Ok(path) => {
            println!("profile: {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("profile: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `drac corpus`: synthesize a corpus from a profile and compile every
/// program through a resident session with the symbolic checker on.
/// Exits nonzero on any compile error or checker violation.
fn run_corpus_cmd(args: &[String]) -> ExitCode {
    let mut profile_spec: Option<String> = None;
    let mut count = 1000usize;
    let mut seed = 0u64;
    let mut threads = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--profile" => match it.next() {
                Some(v) => profile_spec = Some(v.clone()),
                None => return usage(),
            },
            "--count" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => count = v,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => threads = v,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(spec) = profile_spec else {
        eprintln!("corpus: --profile is required (a builtin name or a profile JSON path)");
        return ExitCode::FAILURE;
    };
    let profile = match resolve_profile(&spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("corpus: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut setup = corpus_setup();
    dra_core::knob::apply_cache_cap(&mut setup);
    setup.batch_threads = threads;
    let report = match run_corpus_compile(&profile, count, seed, threads, &setup) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("corpus: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "corpus {}: {} functions in {} programs — {} errors, {} checker violations ({} functions checked)",
        profile.name,
        report.functions,
        report.programs,
        report.errors,
        report.violations,
        report.telemetry.counter("checker.functions"),
    );
    match report.telemetry.write_results(Path::new("."), "corpus") {
        Ok(path) => println!("telemetry: {}", path.display()),
        Err(e) => {
            eprintln!("telemetry write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.errors > 0 || report.violations > 0 {
        eprintln!("corpus: FAILED");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `drac chaos`: the full benchmark × approach matrix under seeded
/// pipeline faults (worker panics, per-function alloc/verify failures),
/// plus an `n_faults`-deep stream-corruption campaign per benchmark.
/// Writes the verdict to `results/telemetry/chaos.json`; exits nonzero if
/// containment fails — an un-injected cell errors, a fault escapes
/// adjudication, or a corrupted stream decodes to different registers
/// without being detected.
fn run_chaos(seed: u64, n_faults: usize) -> ExitCode {
    let names = benchmark_names();
    let mut approaches = Approach::ALL.to_vec();
    approaches.push(Approach::Adaptive);
    let cells = names.len() * approaches.len();

    let mut setup = LowEndSetup::default();
    setup.faults = PipelineFaults::from_seed(seed, cells, 4);
    println!(
        "chaos: seed {seed}, {cells} cells, {} injected panics, {} alloc faults, {} verify faults",
        setup.faults.panic_cells.len(),
        setup.faults.fail_alloc_funcs.len(),
        setup.faults.fail_verify_funcs.len(),
    );

    // Injected cell panics are caught by the isolated driver; keep the
    // default hook from dumping a backtrace per (expected) unwind.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (matrix, mut telemetry) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);
    std::panic::set_hook(prev_hook);
    let mut contained = true;
    for (bi, row) in matrix.iter().enumerate() {
        for (ai, cell) in row.iter().enumerate() {
            let ci = bi * approaches.len() + ai;
            let injected = setup.faults.panic_cells.contains(&ci);
            match cell {
                Ok(_) => {
                    if injected {
                        eprintln!("cell {ci}: injected panic did not surface");
                        contained = false;
                    }
                }
                Err(e) if injected => {
                    println!("cell {ci} ({}, {}): {e}", names[bi], approaches[ai].label());
                }
                Err(e) => {
                    eprintln!(
                        "cell {ci} ({}, {}): UNCONTAINED: {e}",
                        names[bi],
                        approaches[ai].label()
                    );
                    contained = false;
                }
            }
        }
    }

    // Stream-corruption campaigns: compile each benchmark clean, then
    // corrupt its encoded diff stream n_faults ways.
    let clean = LowEndSetup::default();
    let cfg = EncodingConfig::new(clean.diff);
    for (i, name) in names.iter().enumerate() {
        let run = match compile_and_run(name, Approach::Select, &clean) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: clean compile failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let f = &run.program.funcs[run.program.entry as usize];
        let campaign_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        match run_fault_campaign(f, &cfg, &run.entry_trace, campaign_seed, n_faults) {
            Ok(report) => {
                report.record(&mut telemetry);
                println!(
                    "{name}: {} faults — {} detected ({} checker-only), {} benign, {} diverged",
                    report.injected,
                    report.detected,
                    report.detected_static,
                    report.benign,
                    report.diverged
                );
                if !report.fully_adjudicated() {
                    eprintln!("{name}: campaign left faults unadjudicated");
                    contained = false;
                }
            }
            Err(e) => {
                eprintln!("{name}: clean stream failed to decode: {e}");
                contained = false;
            }
        }
    }

    match telemetry.write_results(std::path::Path::new("."), "chaos") {
        Ok(path) => println!("telemetry: {}", path.display()),
        Err(e) => {
            eprintln!("telemetry write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if contained {
        println!("chaos: all faults contained");
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos: CONTAINMENT FAILURE");
        ExitCode::FAILURE
    }
}

/// `drac chaos --serve`: the serve-level fault campaign — overload,
/// deadline storms, worker kills, vanishing clients — run twice under a
/// watchdog, with the determinism verdict in `results/chaos_serve.json`.
fn run_chaos_serve_cmd(seed: u64) -> ExitCode {
    let config = ChaosServeConfig {
        seed,
        out_path: Some(PathBuf::from("results/chaos_serve.json")),
        telemetry_root: Some(PathBuf::from(".")),
        ..ChaosServeConfig::default()
    };
    let report = match run_chaos_serve(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos --serve: INVARIANT VIOLATION: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    if let Some(path) = &config.out_path {
        println!("report: {}", path.display());
    }
    if report.passed() {
        println!("chaos --serve: all invariants held");
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos --serve: NONDETERMINISM DETECTED");
        ExitCode::FAILURE
    }
}
