//! The `campaign-fast` and `campaign-static` workloads: the real
//! `campaign` binary as a batch job, and an in-process replica of its
//! path built from public functions for the traced run.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

use anneal_arena::{
    campaign_instance, parse_cells_jsonl, run_shard_observed, shard_file_name,
    shard_metrics_file_name, ArenaInstance, CampaignConfig, Portfolio, ShardObs,
};
use anneal_core::{EvaluatorKind, SaLane};
use anneal_fleet::{
    commit_bytes, read_sealed, run_worker, seal, unseal, FleetConfig, FleetStats, ShardRunner,
    WorkerOutcome,
};
use anneal_obs::{Clock, WallClock};
use anneal_report::{merge_shard_csvs, scan_sealed_shards};

use crate::probes::{self, makespan_lower_bound};
use crate::stats::{fleet_overhead_ns, geomean_ratio, idle_ns, median};
use crate::sys::{self, wait_with_rusage};
use crate::trace::{self, Tracer};
use crate::{latency_metrics, Layer, Outcome};

/// Shards per campaign: enough for the fleet to lease and commit
/// several artifacts, few enough that each shard fans out real work.
const SHARDS: usize = 4;
/// The shard fan-out's thread cap, `nproc` of the reference machine.
const THREADS: usize = 2;
/// Timed binary runs per measurement, at least.
const MIN_JOBS: usize = 3;
/// Set-up-only runs after each measured run: set-up is a few
/// milliseconds of process start and synced writes, so it needs many
/// samples for a steady median.
const SETUP_PROBES_PER_RUN: u64 = 2;
/// Leading instances the traced run's direct probes cover.
const PROBE_INSTANCES: usize = 200;
/// Leading instances the untraced static-SA quality probe covers: as
/// many as campaign-static's matrix has, for the same spread across
/// seeds.
const STATIC_QUALITY_INSTANCES: usize = 400;

pub struct Spec {
    pub instances: usize,
    /// `--full`: the standard portfolio, with whole-graph static SA.
    pub full: bool,
}

/// One run of the binary.
struct Job {
    wall_ns: u64,
    /// Spawn to the first shard's "starting" line on stderr.
    setup_ns: Option<u64>,
    maxrss_kib: u64,
    exit_code: Option<i32>,
    stderr_tail: Vec<String>,
}

/// Starts the binary on a fresh campaign directory, stderr piped.
fn spawn(bin: &Path, dir: &Path, spec: &Spec, seed: u64, extra: &[&str]) -> Result<Child, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let mut cmd = Command::new(bin);
    cmd.arg(spec.instances.to_string())
        .arg(SHARDS.to_string())
        .arg(seed.to_string())
        .args(["--threads", &THREADS.to_string(), "--progress", "--dir"])
        .arg(dir)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if spec.full {
        cmd.arg("--full");
    }
    cmd.spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))
}

/// Set-up time alone: spawn to the first shard's "starting" line, after
/// which the child is killed and reaped. Nothing before that line
/// depends on the campaign's size, so this times the same path as a
/// full run's set-up.
fn probe_setup(
    bin: &Path,
    dir: &Path,
    spec: &Spec,
    seed: u64,
    clock: &WallClock,
) -> Result<Option<u64>, String> {
    let start = clock.now_ns();
    let mut child = spawn(bin, dir, spec, seed, &[])?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let started = BufReader::new(stderr)
        .lines()
        .map_while(Result::ok)
        .find(|line| line.ends_with(": starting"))
        .map(|_| clock.now_ns() - start);
    // the child may already have exited; either way it is reaped below
    let _ = child.kill();
    wait_with_rusage(&child)?;
    Ok(started)
}

fn run_job(
    bin: &Path,
    dir: &Path,
    spec: &Spec,
    seed: u64,
    extra: &[&str],
    clock: &WallClock,
) -> Result<Job, String> {
    let start = clock.now_ns();
    let mut child = spawn(bin, dir, spec, seed, extra)?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let reader_clock = *clock;
    let reader = std::thread::spawn(move || {
        let mut first_start = None;
        let mut tail = Vec::new();
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if first_start.is_none() && line.ends_with(": starting") {
                first_start = Some(reader_clock.now_ns());
            }
            tail.push(line);
            if tail.len() > 20 {
                tail.remove(0);
            }
        }
        (first_start, tail)
    });
    let exit = wait_with_rusage(&child);
    let end = clock.now_ns();
    let (first_start, stderr_tail) = reader.join().expect("stderr reader panicked");
    let exit = exit?;
    Ok(Job {
        wall_ns: end - start,
        setup_ns: first_start.map(|t| t - start),
        maxrss_kib: exit.maxrss_kib,
        exit_code: exit.code,
        stderr_tail,
    })
}

/// The run-level checks on one finished job; returns the sealed
/// `matrix.csv` bytes.
fn check_job(job: &Job, dir: &Path) -> Result<Vec<u8>, String> {
    if job.exit_code != Some(0) {
        return Err(format!(
            "campaign exited with {:?}:\n{}",
            job.exit_code,
            job.stderr_tail.join("\n")
        ));
    }
    let report = std::fs::read_to_string(dir.join("fleet.report.json"))
        .map_err(|e| format!("fleet.report.json: {e}"))?;
    if !report.contains("\"status\": \"ok\"") {
        return Err(format!("fleet.report.json is not ok:\n{report}"));
    }
    for e in std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.contains(".partial") {
            return Err(format!("partial artifact {name} present"));
        }
    }
    std::fs::read(dir.join("matrix.csv")).map_err(|e| format!("matrix.csv: {e}"))
}

/// A parsed merged matrix.
struct Matrix {
    schedulers: Vec<String>,
    /// `(instance index, instance name, makespans)`.
    rows: Vec<(usize, String, Vec<u64>)>,
}

fn parse_matrix(sealed: &[u8]) -> Result<Matrix, String> {
    let text = std::str::from_utf8(sealed).map_err(|e| format!("matrix.csv: {e}"))?;
    let body = unseal(text).map_err(|e| format!("matrix.csv: {e}"))?;
    let mut lines = body.lines();
    let header: Vec<&str> = lines
        .next()
        .ok_or("matrix.csv is empty")?
        .split(',')
        .collect();
    if header.len() < 3 || header[0] != "instance_index" || header[1] != "instance" {
        return Err(format!("matrix.csv header {header:?}"));
    }
    let schedulers: Vec<String> = header[2..].iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    for line in lines {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != header.len() {
            return Err(format!("matrix.csv row {line:?}"));
        }
        let idx = f[0]
            .parse()
            .map_err(|_| format!("matrix.csv index {:?}", f[0]))?;
        let ms = f[2..]
            .iter()
            .map(|v| v.parse().map_err(|_| format!("matrix.csv makespan {v:?}")))
            .collect::<Result<Vec<u64>, String>>()?;
        rows.push((idx, f[1].to_string(), ms));
    }
    Ok(Matrix { schedulers, rows })
}

/// Per-cell checks against instances regenerated with
/// `campaign_instance`: the shape is the portfolio's, names match, and
/// every makespan respects the lower bound. Returns the failed cells,
/// the SA/HLF ratio, and the static-SA/HLF ratio when the portfolio has
/// a `static-sa` row.
fn check_matrix(m: &Matrix, spec: &Spec, seed: u64) -> Result<(u64, f64, Option<f64>), String> {
    if m.rows.len() != spec.instances || m.schedulers.len() != portfolio_rows(spec) {
        return Err(format!(
            "matrix is {} x {}, expected {} x {}",
            m.rows.len(),
            m.schedulers.len(),
            spec.instances,
            portfolio_rows(spec)
        ));
    }
    let col = |name: &str| {
        m.schedulers
            .iter()
            .position(|s| s == name)
            .ok_or(format!("matrix has no {name} column"))
    };
    let (sa, hlf) = (col("sa")?, col("hlf")?);
    let static_sa = if spec.full {
        Some(col("static-sa")?)
    } else {
        None
    };
    let mut failed = 0;
    let mut pairs = Vec::with_capacity(m.rows.len());
    let mut static_pairs = Vec::new();
    for (idx, name, ms) in &m.rows {
        let inst = campaign_instance(seed, *idx);
        if &inst.name != name {
            failed += ms.len() as u64;
            continue;
        }
        let lb = makespan_lower_bound(&inst);
        failed += ms.iter().filter(|&&v| v < lb || v == 0).count() as u64;
        pairs.push((ms[sa], ms[hlf]));
        static_pairs.extend(static_sa.map(|c| (ms[c], ms[hlf])));
    }
    Ok((
        failed,
        geomean_ratio(&pairs),
        static_sa.map(|_| geomean_ratio(&static_pairs)),
    ))
}

/// Portfolio rows of one campaign instance: the cells it contributes.
fn portfolio_rows(spec: &Spec) -> usize {
    if spec.full {
        Portfolio::standard().len()
    } else {
        Portfolio::fast().len()
    }
}

/// The per-cell wall times a `--metrics` run wrote, one file per shard.
fn read_cell_ns(dir: &Path) -> Result<Vec<f64>, String> {
    let mut cell_ns = Vec::new();
    for k in 0..SHARDS {
        let text = read_sealed(&dir.join(shard_metrics_file_name(k)))
            .map_err(|e| format!("shard metrics {k}: {e}"))?;
        cell_ns.extend(parse_cells_jsonl(&text)?.iter().map(|c| c.wall_ns as f64));
    }
    Ok(cell_ns)
}

/// The untraced measurement: binary runs for `seconds`, every third
/// with `--metrics`, whose per-cell wall times give the latency
/// distribution; the others give wall, set-up and memory. Interleaving
/// the two kinds exposes both to the same machine noise. Every run's
/// matrix must be byte-identical. The loop ends on time and run count
/// alone, so a program that fails every check still ends with each
/// failure counted.
pub fn measure(workload: &str, spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let bin = sys::build_campaign()?;
    let clock = WallClock::new();
    let root = sys::work_dir(workload, seed);
    let dir = root.join("job");
    let metrics_path = dir.join("metrics.json").to_string_lossy().into_owned();
    let mut out = Outcome::default();
    let mut jobs = Vec::new();
    let mut setups = Vec::new();
    let mut cell_ns = Vec::new();
    let (mut latency_attempts, mut latency_runs) = (0, 0);
    let mut first: Option<Vec<u8>> = None;
    let mut meta = None;
    let mut job_failures = 0u64;
    let mut runs = 0u64;
    let mut started = 0;
    loop {
        let elapsed = (clock.now_ns() - started) as f64;
        if runs > 0 && jobs.len() >= MIN_JOBS && latency_attempts > 0 && elapsed >= seconds * 1e9 {
            break;
        }
        // Run 0 pays for cold caches after a build: checked, not timed.
        let latency = runs > 0 && runs.is_multiple_of(3);
        let extra: &[&str] = if latency {
            &["--metrics", &metrics_path]
        } else {
            &[]
        };
        let job = run_job(&bin, &dir, spec, seed, extra, &clock)?;
        let checked = match check_job(&job, &dir) {
            Ok(bytes) if first.as_ref().is_none_or(|f| *f == bytes) => {
                if first.is_none() {
                    meta = Some(read_meta(&dir.join("campaign.meta")));
                    first = Some(bytes);
                }
                Ok(())
            }
            Ok(_) => Err("matrix.csv differs between runs of one seed".to_string()),
            Err(e) => Err(e),
        };
        let checked = if latency {
            latency_attempts += 1;
            checked.and_then(|()| read_cell_ns(&dir)).map(|ns| {
                latency_runs += 1;
                cell_ns.extend(ns);
            })
        } else {
            checked
        };
        if let Err(e) = checked {
            out.fail(&e);
            job_failures += 1;
        }
        if runs == 0 {
            started = clock.now_ns();
        } else {
            // `--metrics` changes nothing before the first shard starts
            setups.extend(job.setup_ns);
            if !latency {
                jobs.push(job);
            }
            for _ in 0..SETUP_PROBES_PER_RUN {
                match probe_setup(&bin, &dir, spec, seed, &clock)? {
                    Some(ns) => setups.push(ns),
                    None => out.fail("a set-up probe printed no 'starting' line"),
                }
            }
        }
        runs += 1;
    }

    let cells = (spec.instances * portfolio_rows(spec)) as u64;
    let checked = match &first {
        Some(bytes) => parse_matrix(bytes).and_then(|m| check_matrix(&m, spec, seed)),
        None => Err("no campaign run passed its checks".to_string()),
    };
    let (bad_cells, sa_vs_hlf, static_vs_hlf) = match checked {
        Ok((0, r, s)) => (0, r, s),
        Ok((bad, r, s)) => {
            out.fail(&format!("{bad} cells failed their checks"));
            (bad, r, s)
        }
        Err(e) => {
            out.fail(&e);
            (cells, f64::NAN, None)
        }
    };
    out.attempted = cells * runs;
    out.failed = job_failures * cells + (runs - job_failures) * bad_cells;
    let meta = meta.unwrap_or_else(|| Err("no campaign run passed its checks".into()));
    out.provenance = meta_provenance(&meta);
    // Without a static-sa row, static SA's quality comes from the
    // direct probe on the leading instances, untimed.
    let static_vs_hlf = match (static_vs_hlf, &meta) {
        (Some(r), _) => r,
        (None, Ok(meta)) => {
            let insts: Vec<ArenaInstance> = (0..spec.instances.min(STATIC_QUALITY_INSTANCES))
                .map(|i| campaign_instance(seed, i))
                .collect();
            out.attempted += insts.len() as u64;
            match probes::static_sa_probe(&insts, meta.evaluator, meta.lane, seed, &clock) {
                Ok(t) => t.vs_hlf,
                Err(e) => {
                    out.failed += insts.len() as u64;
                    out.fail(&e);
                    f64::NAN
                }
            }
        }
        (None, Err(_)) => f64::NAN,
    };
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_ns as f64 / 1e9).collect();
    if setups.len() as u64 != (runs - 1) * (1 + SETUP_PROBES_PER_RUN) {
        out.fail("a run printed no shard 'starting' line");
    }
    let setups: Vec<f64> = setups.iter().map(|&ns| ns as f64 / 1e9).collect();
    let rss: Vec<f64> = jobs.iter().map(|j| j.maxrss_kib as f64 / 1024.0).collect();
    let wall = median(&walls);
    out.e2e("wall_s", wall);
    out.e2e("cells_per_s", cells as f64 / wall);
    latency_metrics(&mut out, cell_ns.iter().map(|ns| ns / 1e6).collect());
    out.e2e("setup_s", median(&setups));
    out.e2e("peak_rss_mb", median(&rss));
    out.e2e("sa_vs_hlf", sa_vs_hlf);
    out.e2e("static_sa_vs_hlf", static_vs_hlf);
    out.note(format!(
        "timed runs {}, latency runs {latency_runs} of {latency_attempts}, warm-up runs 1, \
         cells per run {cells}, wall_s {walls:?}",
        jobs.len()
    ));
    let _ = std::fs::remove_dir_all(&root);
    Ok(out)
}

/// The settings a campaign directory was produced with, read back from
/// its sealed `campaign.meta`.
struct Meta {
    cfg: CampaignConfig,
    full: bool,
    evaluator: EvaluatorKind,
    lane: SaLane,
    fields: BTreeMap<String, String>,
}

fn read_meta(path: &Path) -> Result<Meta, String> {
    let text = read_sealed(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let fields: BTreeMap<String, String> = text
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let get = |k: &str| {
        fields
            .get(k)
            .cloned()
            .ok_or(format!("campaign.meta has no {k}"))
    };
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("campaign.meta {k} is not a number"))
    };
    Ok(Meta {
        cfg: CampaignConfig {
            instances: num("instances")? as usize,
            shards: num("shards")? as usize,
            base_seed: num("seed")?,
            max_threads: THREADS,
        },
        full: match get("portfolio")?.as_str() {
            "standard" => true,
            "fast" => false,
            other => return Err(format!("campaign.meta portfolio {other:?}")),
        },
        evaluator: get("evaluator")?.parse()?,
        lane: get("sa-lane")?.parse()?,
        fields,
    })
}

fn meta_provenance(meta: &Result<Meta, String>) -> Vec<(String, String)> {
    match meta {
        Ok(m) => ["portfolio", "sa-lane", "evaluator"]
            .iter()
            .filter_map(|k| m.fields.get(*k).map(|v| (k.to_string(), v.clone())))
            .collect(),
        Err(e) => vec![("campaign.meta".into(), e.clone())],
    }
}

/// The campaign's shard runner, rebuilt from public functions; keeps
/// each shard's observations for the per-layer numbers.
struct ReplicaRunner<'a> {
    portfolio: &'a Portfolio,
    cfg: CampaignConfig,
    clock: WallClock,
    tracer: &'a Tracer,
    obs: Mutex<Vec<ShardObs>>,
    artifact_bytes: Mutex<u64>,
}

impl ShardRunner for ReplicaRunner<'_> {
    fn artifact_name(&self, shard: usize) -> String {
        shard_file_name(shard)
    }

    fn run(&self, shard: usize) -> Result<Vec<(String, String)>, String> {
        self.tracer.span("arena.run_shard", || {
            let (r, obs) = run_shard_observed(self.portfolio, &self.cfg, shard, &self.clock)
                .map_err(|e| format!("shard {shard}: {e}"))?;
            let csv = r.to_sealed_csv();
            *self.artifact_bytes.lock().expect("lock poisoned") += csv.len() as u64;
            self.obs.lock().expect("lock poisoned").push(obs);
            Ok(vec![(shard_file_name(shard), csv)])
        })
    }
}

struct Replica {
    matrix: Vec<u8>,
    obs: Vec<ShardObs>,
    stats: FleetStats,
    artifact_bytes: u64,
}

/// The binary's in-process path: a fleet worker over every shard, then
/// scan, merge and commit of `matrix.csv` and `standings.csv`.
fn replica(
    dir: &Path,
    portfolio: &Portfolio,
    cfg: &CampaignConfig,
    clock: &WallClock,
    tracer: &Tracer,
) -> Result<Replica, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let runner = ReplicaRunner {
        portfolio,
        cfg: cfg.clone(),
        clock: *clock,
        tracer,
        obs: Mutex::new(Vec::new()),
        artifact_bytes: Mutex::new(0),
    };
    let shards: Vec<usize> = (0..cfg.shards).collect();
    let mut stats = FleetStats::default();
    let outcome = tracer.span("fleet.run_worker", || {
        run_worker(
            dir,
            &shards,
            &format!("perfbench-{}", std::process::id()),
            &FleetConfig::default(),
            &runner,
            &mut stats,
            &mut |_| {},
        )
    });
    match outcome.map_err(|e| format!("fleet worker: {e}"))? {
        WorkerOutcome::Completed { failed, .. } if failed.is_empty() => {}
        other => return Err(format!("fleet worker did not complete: {other:?}")),
    }
    let scan = tracer
        .span("report.scan", || {
            scan_sealed_shards(dir, cfg.shards, shard_file_name)
        })
        .map_err(|e| format!("scan: {e}"))?;
    if !scan.complete() {
        return Err(format!(
            "scan found missing {:?} quarantined {:?}",
            scan.missing, scan.quarantined
        ));
    }
    let merged = tracer
        .span("report.merge", || {
            let texts: Vec<&str> = scan.valid.iter().map(|(_, t)| t.as_str()).collect();
            merge_shard_csvs(&texts)
        })
        .map_err(|e| format!("merge: {e}"))?;
    let matrix = seal(merged.matrix_csv().as_str());
    let standings = seal(merged.standings_csv().as_str());
    tracer
        .span("report.commit", || {
            commit_bytes(&dir.join("matrix.csv"), matrix.as_bytes())?;
            commit_bytes(&dir.join("standings.csv"), standings.as_bytes())
        })
        .map_err(|e| format!("commit: {e}"))?;
    let artifact_bytes = *runner.artifact_bytes.lock().expect("lock poisoned")
        + (matrix.len() + standings.len()) as u64;
    let obs = runner.obs.into_inner().expect("lock poisoned");
    Ok(Replica {
        matrix: matrix.into_bytes(),
        obs,
        stats,
        artifact_bytes,
    })
}

/// The traced run: one binary run for reference, the replica untraced
/// and traced (its matrix must match the binary's byte for byte), then
/// the direct probes on the leading instances.
pub fn traced(workload: &str, spec: &Spec, seed: u64) -> Result<(Outcome, Layer), String> {
    let bin = sys::build_campaign()?;
    let clock = WallClock::new();
    let root = sys::work_dir(workload, seed);
    let mut out = Outcome::default();
    let bin_dir = root.join("binary");
    let job = run_job(&bin, &bin_dir, spec, seed, &[], &clock)?;
    // A failed binary run leaves no reference: both replicas then count
    // as differing from it.
    let reference = check_job(&job, &bin_dir).unwrap_or_else(|e| {
        out.fail(&e);
        Vec::new()
    });
    let meta = read_meta(&bin_dir.join("campaign.meta"));
    out.provenance = meta_provenance(&meta);
    let meta = meta?;
    let portfolio = if meta.full {
        Portfolio::standard_with_lanes(meta.evaluator, meta.lane)
    } else {
        Portfolio::fast_with_lane(meta.lane)
    };

    let plain = Tracer::new(clock, false);
    let t0 = clock.now_ns();
    let untraced = replica(&root.join("plain"), &portfolio, &meta.cfg, &clock, &plain)?;
    let untraced_ns = clock.now_ns() - t0;

    let tracer = Tracer::new(clock, true);
    let mut layer = Layer::default();
    let start = clock.now_ns();
    let insts: Vec<ArenaInstance> = tracer.span("arena.gen", || {
        (0..meta.cfg.instances)
            .map(|i| campaign_instance(meta.cfg.base_seed, i))
            .collect()
    });
    let r_start = clock.now_ns();
    let rep = replica(&root.join("traced"), &portfolio, &meta.cfg, &clock, &tracer)?;
    let traced_ns = clock.now_ns() - r_start;
    let probe_insts = &insts[..insts.len().min(PROBE_INSTANCES)];
    tracer
        .span("probe.core.sa", || {
            probes::sa(probe_insts, meta.lane, seed, &clock)
        })?
        .report(&mut layer);
    probes::run_all(
        probe_insts,
        meta.evaluator,
        meta.lane,
        seed,
        &clock,
        &tracer,
        &mut layer,
    )?;
    let wall_ns = clock.now_ns() - start;

    let cells = (meta.cfg.instances * portfolio.len()) as u64;
    out.attempted = 2 * cells;
    for (what, bytes) in [("untraced", &untraced.matrix), ("traced", &rep.matrix)] {
        if *bytes != reference {
            out.failed += cells;
            out.fail(&format!(
                "{what} replica matrix.csv differs from the binary's"
            ));
        }
    }

    let spans = tracer.spans();
    // cell time per row class, as run_shard_observed reports it
    let mut row_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for c in rep.obs.iter().flat_map(|o| &o.cells) {
        let class = match c.scheduler.as_str() {
            "sa" => "core.sa.cell_ns",
            "static-sa" => "core.static_sa.cell_ns",
            _ => "core.heuristics.cell_ns",
        };
        *row_ns.entry(class).or_default() += c.wall_ns;
    }
    for k in [
        "core.sa.cell_ns",
        "core.heuristics.cell_ns",
        "core.static_sa.cell_ns",
    ] {
        layer.value(k, row_ns.get(k).copied().unwrap_or(0) as f64);
    }
    let reg = {
        let mut reg = anneal_obs::MetricsRegistry::new();
        for o in &rep.obs {
            reg.merge(&o.registry);
        }
        reg
    };
    for k in [
        "sim.kernel.events",
        "sim.kernel.messages",
        "sim.kernel.epochs",
        "sched.route_cache.hits",
        "sched.route_cache.builds",
        "sched.pool.hits",
        "sched.pool.misses",
        "arena.cells",
    ] {
        layer.count(k, reg.counter(k));
    }
    let shard_walls: Vec<u64> = rep
        .obs
        .iter()
        .map(|o| o.registry.counter("time.shard_ns"))
        .collect();
    let cell_sum: u64 = row_ns.values().sum();
    layer.value("arena.shard_ns", shard_walls.iter().sum::<u64>() as f64);
    layer.value("arena.gen_ns", trace::total_ns(&spans, "arena.gen") as f64);
    layer.value(
        "arena.idle_ns",
        idle_ns(&shard_walls, THREADS as u64, cell_sum) as f64,
    );
    let worker_ns = trace::total_ns(&spans, "fleet.run_worker");
    let runner_ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "arena.run_shard")
        .map(|s| s.duration_ns())
        .collect();
    layer.value("fleet.worker_ns", worker_ns as f64);
    layer.value(
        "fleet.overhead_ns",
        fleet_overhead_ns(worker_ns, &runner_ns) as f64,
    );
    layer.count("fleet.leases_acquired", rep.stats.leases_acquired);
    layer.count("fleet.artifact_bytes", rep.artifact_bytes);
    for (metric, span) in [
        ("report.scan_ns", "report.scan"),
        ("report.merge_ns", "report.merge"),
        ("report.commit_ns", "report.commit"),
    ] {
        layer.value(metric, trace::total_ns(&spans, span) as f64);
    }
    layer.value(
        "trace.overhead_s",
        (traced_ns as f64 - untraced_ns as f64) / 1e9,
    );
    layer.value(
        "trace.unattributed_ns",
        trace::unattributed_ns(&spans, wall_ns) as f64,
    );
    crate::write_spans(&root, workload, seed, &spans);
    out.note(format!(
        "binary run {:.3} s, replica untraced {:.3} s, traced {:.3} s",
        job.wall_ns as f64 / 1e9,
        untraced_ns as f64 / 1e9,
        traced_ns as f64 / 1e9
    ));
    let _ = std::fs::remove_dir_all(root.join("plain"));
    let _ = std::fs::remove_dir_all(root.join("traced"));
    let _ = std::fs::remove_dir_all(&bin_dir);
    Ok((out, layer))
}
