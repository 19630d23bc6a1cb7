//! The annealsched benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign-fast --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints every end-to-end
//! metric of the workload; `--trace 1` runs the traced replica and the
//! direct probes and prints every per-layer metric. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Earlier lines carry provenance and sample counts. See
//! `perfbench/README.md` for the workloads and the metric map.

mod alloc;
mod campaign;
mod probes;
mod solve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;

use stats::{highest_tail_percentile, percentile_sorted, samples_beyond, TAIL_SAMPLES};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `(name, unit)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("cells_per_s", "cells/s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
    ("sa_vs_hlf", "ratio"),
    ("static_sa_vs_hlf", "ratio"),
];

/// `(name, unit)` of every per-layer metric, in output order.
const PER_LAYER: [(&str, &str); 37] = [
    ("core.sa.cell_ns", "ns"),
    ("core.heuristics.cell_ns", "ns"),
    ("core.static_sa.cell_ns", "ns"),
    ("core.sa.packets", "count"),
    ("core.sa.moves", "count"),
    ("core.sa.accepted", "count"),
    ("core.sa.accept_ratio", "ratio"),
    ("core.sa.ns_per_move", "ns"),
    ("core.static_sa.evaluations", "count"),
    ("core.static_sa.accept_ratio", "ratio"),
    ("core.static_sa.ns_per_eval", "ns"),
    ("sim.kernel.events", "count"),
    ("sim.kernel.messages", "count"),
    ("sim.kernel.epochs", "count"),
    ("sched.route_cache.hits", "count"),
    ("sched.route_cache.builds", "count"),
    ("sched.pool.hits", "count"),
    ("sched.pool.misses", "count"),
    ("sim.kernel.ns_per_event", "ns"),
    ("sim.engine.solve_ns", "ns"),
    ("sim.audit_ns", "ns"),
    ("arena.cells", "count"),
    ("arena.shard_ns", "ns"),
    ("arena.gen_ns", "ns"),
    ("arena.idle_ns", "ns"),
    ("arena.allocs_per_cell.sa", "count"),
    ("arena.allocs_per_cell.heuristics", "count"),
    ("arena.allocs_per_cell.static_sa", "count"),
    ("fleet.worker_ns", "ns"),
    ("fleet.overhead_ns", "ns"),
    ("fleet.leases_acquired", "count"),
    ("fleet.artifact_bytes", "bytes"),
    ("report.scan_ns", "ns"),
    ("report.merge_ns", "ns"),
    ("report.commit_ns", "ns"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_ns", "ns"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, first few kept for the report.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub provenance: Vec<(String, String)>,
}

impl Outcome {
    pub fn fail(&mut self, why: &str) {
        if self.errors.len() < 8 {
            self.errors.push(why.to_string());
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }
}

/// Per-layer metric values by name; units come from [`PER_LAYER`].
#[derive(Default)]
pub struct Layer(BTreeMap<&'static str, f64>);

impl Layer {
    pub fn value(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn count(&mut self, name: &'static str, v: u64) {
        self.value(name, v as f64);
    }

    /// `num / den`, or 0 when nothing was attempted.
    pub fn ratio(&mut self, name: &'static str, num: u64, den: u64) {
        self.value(
            name,
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            },
        );
    }
}

/// Median and p95 of per-solve latencies. The p95 is reported only
/// with at least [`TAIL_SAMPLES`] samples beyond it; a run too short
/// for that is a failed check.
pub fn latency_metrics(out: &mut Outcome, mut ms: Vec<f64>) {
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    if n == 0 {
        out.fail("no latency samples");
        return;
    }
    if highest_tail_percentile(n, TAIL_SAMPLES).is_none_or(|p| p < 95) {
        out.fail(&format!("{n} latency samples: too few for a p95"));
    }
    out.e2e("solve_ms_p50", percentile_sorted(&ms, 50));
    out.e2e("solve_ms_p95", percentile_sorted(&ms, 95));
    out.note(format!(
        "latency samples {n}, beyond p95 {}, highest tail percentile {:?}",
        samples_beyond(n, 95),
        highest_tail_percentile(n, TAIL_SAMPLES)
    ));
}

/// Writes the traced run's spans, with self times, next to its work.
pub fn write_spans(dir: &Path, workload: &str, seed: u64, spans: &[trace::SpanRec]) {
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let written =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace::to_jsonl(spans)));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(v.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<(Outcome, Option<Layer>), String> {
    let fast = campaign::Spec {
        instances: 4000,
        full: false,
    };
    let full = campaign::Spec {
        instances: 400,
        full: true,
    };
    let (w, seed) = (args.workload.as_str(), args.seed);
    match (w, args.trace) {
        ("campaign-fast", false) => {
            campaign::measure(w, &fast, seed, args.seconds).map(|o| (o, None))
        }
        ("campaign-static", false) => {
            campaign::measure(w, &full, seed, args.seconds).map(|o| (o, None))
        }
        ("solve-paper", false) => solve::measure(seed, args.seconds).map(|o| (o, None)),
        ("campaign-fast", true) => campaign::traced(w, &fast, seed).map(|(o, l)| (o, Some(l))),
        ("campaign-static", true) => campaign::traced(w, &full, seed).map(|(o, l)| (o, Some(l))),
        ("solve-paper", true) => solve::traced(seed).map(|(o, l)| (o, Some(l))),
        _ => Err(format!(
            "unknown workload {w:?} (campaign-fast, campaign-static, solve-paper)"
        )),
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let (mut out, layer) = run(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });

    let mut provenance = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        (
            "git_rev".to_string(),
            sys::git_revision().unwrap_or_else(|| "none".into()),
        ),
        ("nproc".to_string(), sys::nproc().to_string()),
        ("cpu".to_string(), sys::cpu_model()),
    ];
    provenance.append(&mut out.provenance);
    let prov: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", prov.join(", "));
    for n in &out.notes {
        println!("# {n}");
    }

    let values = match layer {
        Some(l) => l.0,
        None => {
            let ok = if out.attempted == 0 {
                0.0
            } else {
                (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted as f64
            };
            out.metrics.insert("ok_ratio", ok);
            std::mem::take(&mut out.metrics)
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let v = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => {
                out.fail(&format!("{name} is not finite"));
                0.0
            }
            None => {
                out.fail(&format!("{name} was not measured"));
                0.0
            }
        };
        fields.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not print"
        );
    }
}
