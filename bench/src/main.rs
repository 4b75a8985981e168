//! The repo benchmark. See `bench/README.md`.
//!
//! `--workload W` runs one workload in this process and ends its
//! standard output with the one-line JSON result the driver reads.
//! Without `--workload`, every workload runs in a process of its own,
//! untraced then traced, `--repeat K` times, and the sets are compared.

mod codec;
mod env;
mod flight;
mod ingest;
mod inputs;
mod metrics;
mod repeat;
mod run;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use tlc_profile::Json;

use crate::metrics::{unit_of, RUN_SECONDS, WORKLOADS};
use crate::run::{Ctx, Report};

/// Parsed command line.
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: PathBuf,
    manifest: bool,
    map: bool,
}

const USAGE: &str = "usage: bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--repeat K] [--manifest] [--map]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        out: PathBuf::from("bench/out"),
        manifest: false,
        map: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|k| k.name).collect();
                    return Err(format!(
                        "unknown workload `{w}`; one of {}",
                        names.join(", ")
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--manifest" => args.manifest = true,
            "--map" => args.map = true,
            // The driver passes `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Run one workload in this process.
fn run_workload(name: &str, ctx: &mut Ctx) -> Report {
    // One busy thread, whatever the workload: this sandbox's two cores
    // are a shared host's, and a second thread ran anywhere between 1.4
    // and 1.75 times as fast as one from one minute to the next, which
    // moved two-thread runs by 40 % where one-thread runs moved by 13 %.
    tlc_gpu_sim::set_sim_threads_override(Some(1));
    let mut rep = match name {
        "codec" => codec::run(ctx),
        "ingest" => ingest::run(ctx),
        "flight_cold" => flight::run(ctx, flight::Temp::Cold),
        "flight_warm" => flight::run(ctx, flight::Temp::Warm),
        "serve_mixed" => serve::run(ctx),
        other => unreachable!("parse_args admits only declared workloads, got {other}"),
    };
    rep.metrics.set("peak_rss_mb", env::peak_rss_mb());
    rep
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, on one line.
fn result_line(rep: &Report, values: &[(&'static str, f64)]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        rep.correct(),
        rep.attempted,
        rep.failed
    );
    for (i, (name, v)) in values.iter().enumerate() {
        let unit = unit_of(name).expect("declared metric");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn single(args: &Args, workload: &str) -> ExitCode {
    let scratch = match env::Scratch::create(&args.out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "cannot create a scratch directory under {}: {e}",
                args.out.display()
            );
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch,
    };
    let rep = run_workload(workload, &mut ctx);
    drop(ctx); // the scratch directory goes before anything is reported

    let facts = env::facts(args.seed);
    println!(
        "# workload {workload} seconds {} trace {}",
        args.seconds, args.trace as u8
    );
    for (k, v) in &facts {
        println!("# {k} {v}");
    }
    let values = if args.trace {
        rep.metrics.per_layer()
    } else {
        rep.metrics.end_to_end()
    };
    for (name, v) in &values {
        println!(
            "{workload} {name} {v:?} {}",
            unit_of(name).expect("declared metric")
        );
    }
    for (k, v) in &rep.notes {
        println!("# note {k} {v}");
    }
    for name in &rep.unstable {
        println!("# unstable {name}: differed between two cycles of this run, so it is not exact");
    }
    for p in &rep.problems {
        println!("# problem {p}");
    }

    // The same rows as JSON, and the spans of a traced run.
    let mut fields: Vec<(&'static str, Json)> = vec![("workload", Json::Str(workload.to_string()))];
    fields.extend(facts.iter().map(|(k, v)| (*k, Json::Str(v.clone()))));
    fields.push(("seconds", Json::Num(args.seconds)));
    fields.push(("correct", Json::Str(rep.correct().to_string())));
    fields.push(("attempted", Json::Int(rep.attempted)));
    fields.push(("failed", Json::Int(rep.failed)));
    fields.push((
        "metrics",
        Json::Obj(values.iter().map(|(n, v)| (*n, Json::Num(*v))).collect()),
    ));
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = args.out.join(format!("{workload}.{kind}.json"));
    if let Err(e) = std::fs::write(&path, Json::Obj(fields).render()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    if let Some(tr) = &rep.tracer {
        for (name, self_s, n) in tr.self_time_table() {
            println!("# self {name} {self_s:.6} s over {n} spans");
        }
        let mut header = format!("  \"workload\": \"{workload}\",\n");
        for (k, v) in &facts {
            let _ = writeln!(header, "  \"{k}\": \"{v}\",");
        }
        let path = args.out.join(format!("trace_{workload}.json"));
        if let Err(e) = std::fs::write(&path, tr.to_json(&header)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }

    println!("{}", result_line(&rep, &values));
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if args.map {
        print!("{}", metrics::layer_map());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(w) => single(&args, w),
        None => repeat::all(&args),
    }
}
