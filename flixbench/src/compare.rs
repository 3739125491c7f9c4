//! `flixbench compare DIR_A DIR_B`: reads two sets of saved run outputs
//! (each file is the standard output of one `--trace 0` run) and prints,
//! for every workload and end-to-end metric, each side's median and
//! quartiles and whether B agrees with A within the metric's bound in
//! `BENCHMARK.json`. Exits 0 when every pair agrees, 4 otherwise.

use crate::stats::{quartiles, sorted};
use flixd::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// workload → metric → values, one per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn declared(path: &Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("an end_to_end entry lacks {k}"));
            Ok(Declared {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                unit: field("unit")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

/// Reads every run output in `dir`: the workload from its
/// `# flixbench workload=...` header, the metrics from its last line.
fn runs(dir: &Path) -> Result<Runs, String> {
    let mut out = Runs::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    for path in entries {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(header) = text.lines().find(|l| l.starts_with("# flixbench ")) else {
            continue;
        };
        let field = |key: &str| {
            header
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .map(str::to_string)
        };
        if field("trace").as_deref() != Some("0") {
            continue;
        }
        let workload = field("workload").ok_or(format!("{}: no workload", path.display()))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or_default();
        // A run that failed or tripped a guard printed no result line.
        let Ok(doc) = json::parse(last) else {
            eprintln!(
                "flixbench compare: {}: no result line, skipped",
                path.display()
            );
            continue;
        };
        if let Some(Json::Obj(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(out)
}

/// The median as Python's `statistics.median` computes it.
fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut benchmark = String::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => benchmark = it.next().cloned().unwrap_or_default(),
            other => dirs.push(other.to_string()),
        }
    }
    let [a, b] = dirs.as_slice() else {
        return crate::usage("compare takes two directories of run outputs");
    };
    let loaded = declared(Path::new(&benchmark))
        .and_then(|d| Ok((d, runs(Path::new(a))?, runs(Path::new(b))?)));
    let (declared, runs_a, runs_b) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("flixbench compare: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "{:<16} {:<12} {:>5} {:>12} {:>25} {:>5} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "n(A)",
        "median(A)",
        "[q1, q3](A)",
        "n(B)",
        "median(B)",
        "[q1, q3](B)",
        "change",
        "bound"
    );
    let mut disagreements = 0;
    let workloads: std::collections::BTreeSet<&String> =
        runs_a.keys().chain(runs_b.keys()).collect();
    for workload in workloads {
        for m in &declared {
            let get = |r: &Runs| {
                r.get(workload)
                    .and_then(|w| w.get(&m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (get(&runs_a), get(&runs_b));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {:<12} missing on one side", m.name);
                disagreements += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let q = |v: &[f64]| {
                quartiles(v).map_or("-".to_string(), |(q1, q3)| format!("[{q1:.4}, {q3:.4}]"))
            };
            // Positive when B is worse than A.
            let change = if m.lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let spread = |v: &[f64], med: f64| quartiles(v).map(|(q1, q3)| (q3 - q1) / med);
            let noisy = [spread(&va, ma), spread(&vb, mb)]
                .into_iter()
                .flatten()
                .any(|s| s > m.bound);
            let verdict = if change.abs() <= m.bound {
                if noisy {
                    "agree (spread wider than bound)"
                } else {
                    "agree"
                }
            } else if noisy {
                "unresolved: spread wider than bound"
            } else if change > 0.0 {
                "B worse"
            } else {
                "B better"
            };
            if !verdict.starts_with("agree") {
                disagreements += 1;
            }
            println!(
                "{workload:<16} {:<12} {:>5} {ma:>12.4} {:>25} {:>5} {mb:>12.4} {:>25} {:>+7.1}% {:>5.0}%  {verdict} ({})",
                m.name,
                va.len(),
                q(&va),
                vb.len(),
                q(&vb),
                change * 100.0,
                m.bound * 100.0,
                m.unit
            );
        }
    }
    if disagreements == 0 {
        println!("every workload and metric agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("{disagreements} workload x metric pair(s) do not agree within their bound");
        ExitCode::from(4)
    }
}
