//! The CMO compiler benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cmo_release|naim_offload|edit_loop> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client in this process. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! checks the traced replica and the decorators, runs traced ops,
//! writes their spans to `target/spans/` in this package, and prints the
//! per-layer metrics. The last line of standard output is
//! one JSON object. README.md says why each workload exists and which
//! end-to-end metric each layer metric should move.

mod app;
mod builds;
mod decor;
mod edit_loop;
mod layers;
mod replica;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use builds::BuildBench;
use edit_loop::EditLoop;
use layers::Layers;
use trace::{Totals, Tracer};

/// The workloads, in the order README.md describes them.
pub const WORKLOADS: [&str; 3] = ["cmo_release", "naim_offload", "edit_loop"];

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// What one op did.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Op kind (`build` for the from-source workloads).
    pub kind: &'static str,
    /// Timed wall time.
    pub secs: f64,
    /// Whether every check passed.
    pub ok: bool,
    /// The first failed check.
    pub error: Option<String>,
    /// Simulated cycles of the image on the reference input.
    pub run_cycles: u64,
    /// Instructions in the image.
    pub image_instrs: u64,
    /// Peak accounted optimizer memory.
    pub peak_opt_bytes: u64,
    /// Deterministic work units the build charged.
    pub work: u64,
    /// `+O1` reference cycles over this image's cycles.
    pub speedup: f64,
    /// Peak RSS of the process during the timed part, in MiB.
    pub rss_mib: f64,
}

impl Outcome {
    fn new(kind: &'static str, secs: f64) -> Self {
        Outcome {
            kind,
            secs,
            ok: true,
            error: None,
            run_cycles: 0,
            image_instrs: 0,
            peak_opt_bytes: 0,
            work: 0,
            speedup: 0.0,
            rss_mib: 0.0,
        }
    }

    fn fail(&mut self, why: String) {
        if self.ok {
            self.ok = false;
            self.error = Some(why);
        }
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = app::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == v)
                        .ok_or(format!("unknown workload `{v}`; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The per-process directory every temp cache lives under, removed on
/// drop, which also runs when an op panics and unwinds through `main`.
struct TempRoot(PathBuf);

impl TempRoot {
    fn create() -> Result<Self, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("current dir: {e}"))?
            .join(".perfbench-tmp")
            .join(std::process::id().to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempRoot(dir))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak RSS counter so it covers only what follows; ops
/// call it just before their timed part and read [`peak_rss_mib`] just
/// after.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

enum Bench {
    Build(BuildBench),
    Edit(EditLoop),
}

impl Bench {
    fn setup(args: &Args, root: &Path) -> Result<Self, String> {
        Ok(match args.workload {
            "edit_loop" => Bench::Edit(EditLoop::setup(args.seed, root)?),
            w => Bench::Build(BuildBench::setup(w, args.seed)?),
        })
    }

    fn lines(&self) -> u64 {
        match self {
            Bench::Build(b) => b.lines(),
            Bench::Edit(e) => e.lines(),
        }
    }

    fn modules(&self) -> usize {
        match self {
            Bench::Build(b) => b.modules(),
            Bench::Edit(e) => e.modules(),
        }
    }

    fn op(&mut self, tracer: Option<&Tracer>) -> Outcome {
        let run = AssertUnwindSafe(|| match (&mut *self, tracer) {
            (Bench::Build(b), None) => b.op(),
            (Bench::Build(b), Some(t)) => b.traced_op(t),
            (Bench::Edit(e), t) => {
                let kind = e.next_kind();
                e.op(kind, t)
            }
        });
        catch_unwind(run).unwrap_or_else(|panic| {
            let why = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_default();
            let mut out = Outcome::new("panic", 0.0);
            out.fail(format!("op panicked: {why}"));
            out
        })
    }
}

/// Runs ops back to back until `budget` has passed (at least one).
/// With a tracer, every fourth op runs untraced, so traced and untraced
/// ops share the same stretch of the run (and, in `edit_loop`, the same
/// cache growth); returns the untraced and the traced outcomes.
fn closed_loop(
    bench: &mut Bench,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> (Vec<Outcome>, Vec<Outcome>) {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0usize;
    while i == 0 || start.elapsed() < budget {
        let t = tracer.filter(|_| i % 4 != 3);
        let out = bench.op(t);
        if let Some(e) = &out.error {
            eprintln!("op {i} ({}) failed: {e}", out.kind);
        }
        if t.is_some() {
            traced.push(out);
        } else {
            plain.push(out);
        }
        i += 1;
    }
    (plain, traced)
}

/// Traced minus untraced mean op time, per op kind, averaged over the
/// kinds both sides ran, so the kind mix cannot pass for overhead.
fn tracing_overhead(plain: &[Outcome], traced: &[Outcome]) -> f64 {
    let mean_by_kind = |outs: &[Outcome]| {
        let mut m: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for o in outs.iter().filter(|o| o.ok) {
            let e = m.entry(o.kind).or_default();
            e.0 += o.secs;
            e.1 += 1.0;
        }
        m
    };
    let (p, t) = (mean_by_kind(plain), mean_by_kind(traced));
    let diffs: Vec<f64> = t
        .iter()
        .filter_map(|(k, (ts, tn))| p.get(k).map(|(ps, pn)| ts / tn - ps / pn))
        .collect();
    stats::ratio(diffs.iter().sum(), diffs.len() as f64)
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: usize,
}

fn median_of(outs: &[&Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    stats::median(&outs.iter().map(|o| f(o)).collect::<Vec<_>>())
}

/// The end-to-end metrics of an untraced loop (the JSON's), and the
/// per-kind and per-workload names README.md lists beside them.
fn end_to_end(
    workload: &str,
    outs: &[Outcome],
    lines: u64,
    setups: &[f64],
) -> (Vec<Metric>, Vec<Metric>) {
    let ok: Vec<&Outcome> = outs.iter().filter(|o| o.ok).collect();
    let n = ok.len();
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for o in &ok {
        by_kind.entry(o.kind).or_default().push(o.secs);
    }
    let kinds = by_kind.len().max(1) as f64;
    // With several op kinds the overall median would sit in the gap
    // between two kinds and jump with the mix; the mean of the kinds'
    // medians weighs each kind equally and stays put. The tail is
    // averaged over kinds for the same reason; with fewer than twenty
    // samples of a kind, the tail rule finds no percentile above its
    // median.
    let p50 = by_kind.values().map(|v| stats::median(v)).sum::<f64>() / kinds;
    let tail = by_kind.values().map(|v| stats::tail(v).1).sum::<f64>() / kinds;
    let total: f64 = ok.iter().map(|o| o.secs).sum();
    let metric = |name: String, value: f64, unit: &'static str, n: usize| Metric {
        name,
        value,
        unit,
        n,
    };
    let instrs = median_of(&ok, |o| o.image_instrs as f64);
    let opt_bytes = median_of(&ok, |o| o.peak_opt_bytes as f64);
    let e2e = vec![
        metric("op_p50_s".into(), p50, "s", n),
        metric("op_tail_s".into(), tail, "s", n),
        metric(
            "lines_per_s".into(),
            stats::ratio((lines * n as u64) as f64, total),
            "1/s",
            n,
        ),
        metric("run_speedup".into(), median_of(&ok, |o| o.speedup), "x", n),
        metric(
            "instrs_per_line".into(),
            stats::ratio(instrs, lines as f64),
            "count",
            n,
        ),
        metric(
            "opt_bytes_per_line".into(),
            stats::ratio(opt_bytes, lines as f64),
            "bytes",
            n,
        ),
        metric(
            "peak_rss_mib".into(),
            median_of(&ok, |o| o.rss_mib),
            "MiB",
            n,
        ),
        metric("setup_s".into(), stats::median(setups), "s", setups.len()),
    ];
    let mut named = Vec::new();
    if workload == "edit_loop" {
        for kind in edit_loop::KINDS {
            let v = by_kind.get(kind).cloned().unwrap_or_default();
            let name = match kind {
                "edit" | "noop" => format!("{kind}_rebuild_p50_s"),
                _ => format!("{kind}_p50_s"),
            };
            named.push(metric(name, stats::median(&v), "s", v.len()));
            if kind == "edit" {
                let (p, t) = stats::tail(&v);
                named.push(metric(
                    format!("edit_rebuild_tail_s (p{p})"),
                    t,
                    "s",
                    v.len(),
                ));
            }
        }
    } else {
        let (p, _) = stats::tail(&ok.iter().map(|o| o.secs).collect::<Vec<_>>());
        named.push(metric("build_p50_s".into(), p50, "s", n));
        named.push(metric(format!("build_tail_s (p{p})"), tail, "s", n));
    }
    named.push(metric(
        "run_cycles".into(),
        median_of(&ok, |o| o.run_cycles as f64),
        "count",
        n,
    ));
    named.push(metric("image_instrs".into(), instrs, "count", n));
    named.push(metric("peak_opt_bytes".into(), opt_bytes, "bytes", n));
    named.push(metric(
        "failed_frac".into(),
        stats::ratio((outs.len() - n) as f64, outs.len() as f64),
        "frac",
        outs.len(),
    ));
    let work: u64 = ok.iter().map(|o| o.work).sum();
    named.push(metric(
        "compile_work_per_ms".into(),
        stats::ratio(work as f64, total * 1e3),
        "1/ms",
        n,
    ));
    (e2e, named)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    println!("{s}");
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<32} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
}

/// Writes the traced run's spans to
/// `target/spans/<workload>-seed<seed>.tsv` in this package, a path git
/// ignores; a later run of the same workload and seed replaces the file.
fn write_spans(args: &Args, spans: &Totals) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("spans");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_tsv(spans.spans(), &mut out)?;
        std::io::Write::flush(&mut out)
    };
    write().map_err(|e| format!("write spans to {}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<(), String> {
    let root = TempRoot::create()?;
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} jobs={} commit={} tree={} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        app::JOBS,
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_TREE"),
        env!("PERFBENCH_RUSTC"),
    );

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(Bench::setup(args, &root.0)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one setup");
    let lines = bench.lines();
    let budget = Duration::from_secs_f64(args.seconds);

    if !args.trace {
        let (outs, _) = closed_loop(&mut bench, budget, None);
        let failed = outs.iter().filter(|o| !o.ok).count();
        let (e2e, named) = end_to_end(args.workload, &outs, lines, &setups);
        print_table("end-to-end (tracing off):", &e2e);
        print_table("by op kind and as named in README.md:", &named);
        let secs: Vec<f64> = outs.iter().filter(|o| o.ok).map(|o| o.secs).collect();
        if let Some([q1, q2, q3]) = stats::quartiles(&secs) {
            println!("op time quartiles over all ops: {q1:.6} / {q2:.6} / {q3:.6} s");
        }
        print_result(failed == 0, outs.len(), failed, &e2e);
        return Ok(());
    }

    // Traced run: guards first, then traced ops with every fourth op
    // untraced to price the tracing.
    let mut guard_errors = Vec::new();
    match &bench {
        Bench::Build(b) => {
            let (modules, options, input) = b.guard_inputs();
            if let Err(e) = replica::guard(modules, options, input) {
                guard_errors.push(e);
            }
        }
        Bench::Edit(e) => {
            let (modules, options, input) = e.guard_inputs();
            if let Err(err) = replica::guard(modules, &options, input) {
                guard_errors.push(err);
            }
            if let Err(err) = edit_loop::decorator_guard(modules, &options, &root.0) {
                guard_errors.push(err);
            }
        }
    }
    for e in &guard_errors {
        eprintln!("guard failed: {e}");
    }
    println!(
        "replica guard: {}",
        if guard_errors.is_empty() {
            "pass"
        } else {
            "FAIL"
        }
    );

    let decorators = match &mut bench {
        Bench::Edit(e) => Some(e.decorate()),
        Bench::Build(_) => None,
    };
    let tracer = Tracer::default();
    let (plain, traced) = closed_loop(&mut bench, budget, Some(&tracer));
    let spans = Totals::new(tracer.finish());
    let path = write_spans(args, &spans)?;
    println!("spans: {}", path.display());

    let mut layers = Layers::default();
    let lines_per_module = stats::ratio(lines as f64, bench.modules() as f64);
    layers.spans(&spans, traced.len(), app::JOBS, lines_per_module);
    match &bench {
        Bench::Build(b) => b.layers(&mut layers),
        Bench::Edit(e) => e.layers(&mut layers)?,
    }
    if let Some(d) = &decorators {
        layers.storage(&d.storage.snapshot(), traced.len());
        layers.transport(&d.transport.snapshot(), traced.len());
    }
    let run_s = layers.get("vm.run_s");
    let cycles = stats::median(
        &traced
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.run_cycles as f64)
            .collect::<Vec<_>>(),
    );
    layers.set("vm.cycles_per_s", stats::ratio(cycles, run_s));
    layers.set("trace.overhead_s", tracing_overhead(&plain, &traced));

    let metrics: Vec<Metric> = layers
        .iter()
        .map(|(name, value, unit)| Metric {
            name: name.to_owned(),
            value,
            unit,
            n: traced.len(),
        })
        .collect();
    print_table(
        "per layer (traced; per op unless a fraction or ratio):",
        &metrics,
    );
    println!(
        "work to wall: hlo {:.1}/ms, llo {:.1}/ms, naim {:.1} per hlo ms",
        layers.get("hlo.work_per_ms"),
        layers.get("llo.work_per_ms"),
        layers.get("naim.work_per_hlo_ms")
    );
    println!(
        "tracing overhead: {:.6} s per op ({} traced, {} untraced ops)",
        layers.get("trace.overhead_s"),
        traced.len(),
        plain.len()
    );
    let all: Vec<&Outcome> = plain.iter().chain(&traced).collect();
    let failed = all.iter().filter(|o| !o.ok).count();
    print_result(
        failed == 0 && guard_errors.is_empty(),
        all.len(),
        failed,
        &metrics,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
