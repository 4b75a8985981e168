//! Every workload, each in a process of its own (so `peak_rss_mb` and
//! the simulator's thread override belong to one workload), untraced
//! then traced; with `--repeat K`, K such sets compared metric by metric.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use tlc_profile::Json;

use crate::metrics::{is_exact, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, max_rel_spread, quartiles};
use crate::Args;

/// `(workload, metric)` → the value of each set as printed, and the unit.
type Rows = BTreeMap<(String, String), (Vec<String>, String)>;

/// Run one workload in a child process, echo what it printed, and fold
/// its metric rows into `rows`. False when the child did not exit 0.
fn child(args: &Args, workload: &str, trace: bool, rows: &mut Rows) -> bool {
    eprintln!("# running {workload} --trace {} ...", trace as u8);
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output(); // waits for the child to end
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            println!("# problem cannot start {workload}: {e}");
            return false;
        }
    };
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if line.starts_with('{') {
            continue; // the driver's line; the rows above it say the same
        }
        println!("{line}");
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if let [w, metric, value, unit] = tokens[..] {
            if w == workload {
                let row = rows
                    .entry((w.to_string(), metric.to_string()))
                    .or_insert_with(|| (Vec::new(), unit.to_string()));
                row.0.push(value.to_string());
            }
        }
    }
    if !output.status.success() {
        println!(
            "# problem {workload} --trace {} exited with {}",
            trace as u8, output.status
        );
    }
    output.status.success()
}

/// Run all sets and compare them.
pub fn all(args: &Args) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut rows = Rows::new();
    let mut ok = true;
    for set in 0..args.repeat {
        if args.repeat > 1 {
            println!("# set {} of {}", set + 1, args.repeat);
        }
        for w in &WORKLOADS {
            for trace in [false, true] {
                ok &= child(args, w.name, trace, &mut rows);
            }
        }
    }
    if args.repeat > 1 {
        ok &= compare(args, &rows);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Print each metric's median, quartiles and largest relative spread
/// over the sets, and hold it against its bound (end-to-end) or against
/// bit-identity (exact metrics). False when an end-to-end metric's
/// spread exceeds its bound.
fn compare(args: &Args, rows: &Rows) -> bool {
    println!("# workload metric median unit q1 q3 iqr_share max_rel_spread verdict");
    let mut all_within = true;
    let mut summary = Vec::new();
    for w in &WORKLOADS {
        // Declaration order within a workload, not the map's.
        let declared = END_TO_END
            .iter()
            .map(|m| (m.name, Some(m.bound)))
            .chain(crate::metrics::PER_LAYER.iter().map(|m| (m.name, None)));
        for (metric, bound) in declared {
            let Some((texts, unit)) = rows.get(&(w.name.to_string(), metric.to_string())) else {
                continue;
            };
            let values: Vec<f64> = texts.iter().filter_map(|t| t.parse().ok()).collect();
            let [q1, q2, q3] = quartiles(&values);
            let spread = max_rel_spread(&values);
            // A value prints in its shortest round-trip form, so equal
            // text is equal bits.
            let identical = texts.windows(2).all(|p| p[0] == p[1]);
            let mut exact = is_exact(metric);
            if exact && !identical {
                println!(
                    "# unstable {} {metric}: declared exact but the sets read {}; \
                     held against its bound instead",
                    w.name,
                    texts.join(" vs ")
                );
                exact = false;
            }
            let verdict = match (exact, bound) {
                (true, _) => "exact",
                (false, Some(b)) if spread <= b => "pass",
                (false, Some(_)) => {
                    all_within = false;
                    "FAIL"
                }
                (false, None) => "-",
            };
            println!(
                "{} {metric} {q2:?} {unit} {q1:?} {q3:?} {:.4} {spread:.4} {verdict}",
                w.name,
                iqr_share(&values)
            );
            summary.push(Json::Obj(vec![
                ("workload", Json::Str(w.name.to_string())),
                ("metric", Json::Str(metric.to_string())),
                ("unit", Json::Str(unit.clone())),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
                ("median", Json::Num(q2)),
                ("max_rel_spread", Json::Num(spread)),
                ("verdict", Json::Str(verdict.to_string())),
            ]));
        }
    }
    let doc = Json::Obj(vec![
        ("sets", Json::Int(args.repeat as u64)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("rows", Json::Arr(summary)),
    ]);
    let path = args.out.join("repeat.json");
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    all_within
}
