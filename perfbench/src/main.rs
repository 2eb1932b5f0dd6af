//! wfspeak benchmark: one command for the `grid`, `serve-evaluate` and
//! `serve-execute` workloads. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <grid|serve-evaluate|serve-execute> --seed N
//!           --seconds S --trace <0|1> --repro PATH [--out DIR]
//! ```
//!
//! Prints a detail line (host, configuration, checks) and, last, the result
//! line `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Exits 1
//! when an output is wrong and 2 when the run could not be made.

mod grid;
mod host;
mod inputs;
mod report;
mod schedule;
mod serve;
mod stages;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    repro: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut repro = None;
    let mut out = PathBuf::from(".bench_build/perfbench");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)? as f64),
            "--trace" => traced = number(&value)? == 1,
            "--repro" => repro = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1.0),
        traced,
        repro: repro.ok_or("--repro is required")?,
        out,
    })
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    match args.workload.as_str() {
        "grid" => grid::run(args.seed, args.seconds, args.traced),
        name => {
            let spec =
                serve::Spec::named(name).ok_or_else(|| format!("unknown workload {name}"))?;
            serve::run(&spec, &args.repro, args.seed, args.seconds, args.traced)
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            std::process::exit(2);
        }
    };
    if args.traced {
        let name = format!("{}-{}.spans.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(args.out.join(&name), trace::to_jsonl(&outcome.spans)));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write spans: {e}");
            std::process::exit(2);
        }
    }
    println!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"config\":{},\"details\":{}}}",
        report::quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        host::describe(),
        serve::Spec::named(&args.workload).map_or("{}".to_owned(), |s| s.describe()),
        outcome.detail_json()
    );
    for problem in &outcome.problems {
        eprintln!("perfbench: {}: {problem}", args.workload);
    }
    println!("{}", outcome.result_json(args.traced));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
