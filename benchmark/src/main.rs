//! `benchmark` — end-to-end and per-layer numbers for the `repro`
//! workloads. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run   --workload W [--seed N] [--seconds S] [--out DIR]
//! benchmark trace --workload W [--seed N] [--seconds S] [--out DIR]
//! benchmark check A_DIR B_DIR
//! benchmark replay --workload W --seed N --out DIR     (one traced replay)
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form is `run` (`--trace 0`) or `trace` (`--trace 1`). Both
//! end their stdout with one JSON result line. Exit codes: 0 = a result
//! was printed (its `correct` field says whether every output checked
//! out) or `check` found no regression; 1 = no result, or `check` found
//! a regression; 2 = usage error.

mod check;
mod json;
mod md5;
mod metrics;
mod replay;
mod run;
mod spans;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::Workload;

const USAGE: &str =
    "usage: benchmark run|trace --workload W [--seed N] [--seconds S] [--out DIR]\n\
                     \x20      benchmark check A_DIR B_DIR\n\
                     \x20      benchmark --workload W --seed N --seconds S --trace 0|1\n\
                     workloads: campaign campaign_faulted_j2 propagate_planet serve_sketch";

fn usage(msg: &str) -> ! {
    eprintln!("benchmark: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    mode: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        mode: String::new(),
        workload: None,
        seed: workloads::PINNED_SEED,
        seconds: 20,
        out: None,
        positional: Vec::new(),
    };
    let mut trace_flag: Option<bool> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let name = value(a);
                args.workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => {
                args.seed = value(a)
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a number"))
            }
            "--seconds" => {
                args.seconds = value(a)
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .unwrap_or_else(|| usage("--seconds needs a whole number >= 1"))
            }
            "--trace" => {
                trace_flag = match value(a).as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace needs 0 or 1"),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value(a))),
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag:?}")),
            word if args.mode.is_empty() => args.mode = word.to_string(),
            word => args.positional.push(word.to_string()),
        }
    }
    if args.mode.is_empty() {
        args.mode = match trace_flag {
            Some(true) => "trace".into(),
            Some(false) => "run".into(),
            None => usage("name a mode, or pass --trace 0|1"),
        };
    }
    args
}

fn main() {
    let args = parse_args();
    let workload = || {
        args.workload
            .unwrap_or_else(|| usage("--workload is required"))
    };
    let result = match args.mode.as_str() {
        "run" => run::run(workload(), args.seed, args.seconds, args.out.as_deref()),
        "trace" => trace::trace(workload(), args.seed, args.seconds, args.out.as_deref()),
        "replay" => {
            let out = args
                .out
                .as_deref()
                .unwrap_or_else(|| usage("replay needs --out DIR"));
            trace::replay_main(workload(), args.seed, out)
        }
        "check" => match args.positional.as_slice() {
            [a, b] => match check::check(a.as_ref(), b.as_ref()) {
                Ok(regressed) => std::process::exit(i32::from(regressed)),
                Err(e) => Err(e),
            },
            _ => usage("check needs two result directories"),
        },
        other => usage(&format!("unknown mode {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}
