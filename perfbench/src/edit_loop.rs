//! `edit_loop`: a developer's inner loop at `+O2 +P -j2` against an
//! on-disk `BuildCache` on a `TieredStorage`, whose remote tier is an
//! in-process daemon (`CacheService` over `LoopbackTransport`: the
//! `cmocached` protocol without sockets). A seeded schedule runs four
//! op kinds equally often:
//!
//! * `edit`: a behaviour-preserving change to one module, then a rebuild;
//! * `noop`: a rebuild with nothing changed;
//! * `retrain`: an instrumented build, a training run on a seeded variant
//!   of the training input, then a `+P` rebuild under the new profile;
//! * `remote_warm`: a rebuild from a fresh, empty local tier against the
//!   warm daemon.
//!
//! Every op opens the cache anew, as a fresh `cmocc` process would.
//! Traced ops time the driver's own cached calls; the layers inside a
//! build that runs are timed by the driver's phase records.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cmo::{
    BuildCache, BuildOptions, BuildOutput, CacheStats, Compiler, DiskStorage, LoopbackTransport,
    MemStorage, OptLevel, ProfileDb, RemoteStorage, RemoteTransport, RetryPolicy, Storage,
    Telemetry, TieredStorage,
};
use cmo_naim::RemoteStats;
use cmo_synth::SynthApp;
use cmo_telemetry::PhaseRecord;
use cmo_vm::{run, RunConfig};

use crate::app::{self, mix, Expected, JOBS};
use crate::decor::{OpStats, TimedStorage, TimedTransport};
use crate::layers::Layers;
use crate::replica::StageCounts;
use crate::stats::ratio;
use crate::trace::{span, Tracer};
use crate::Outcome;

/// The four op kinds, in the order a schedule block lists them before
/// it is shuffled.
pub const KINDS: [&str; 4] = ["edit", "noop", "retrain", "remote_warm"];

/// A small deterministic generator for the schedule and the edits.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Decorators attached to every cache the traced run opens.
#[derive(Debug, Default, Clone)]
pub struct Decorators {
    /// Local-tier storage calls.
    pub storage: Arc<OpStats>,
    /// Remote exchanges.
    pub transport: Arc<OpStats>,
}

/// Opens a `BuildCache` in `dir` on a tiered storage whose remote tier
/// talks to `daemon`, optionally through the timing decorators.
///
/// # Errors
///
/// Describes a failed open.
pub fn open_cache(
    dir: &Path,
    daemon: &Arc<dyn RemoteTransport>,
    decor: Option<&Decorators>,
) -> Result<BuildCache, String> {
    let disk: Arc<dyn Storage> =
        Arc::new(DiskStorage::new(dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?);
    let (local, transport): (Arc<dyn Storage>, Arc<dyn RemoteTransport>) = match decor {
        Some(d) => (
            Arc::new(TimedStorage::new(disk, Arc::clone(&d.storage))),
            Arc::new(TimedTransport::new(
                Arc::clone(daemon),
                Arc::clone(&d.transport),
            )),
        ),
        None => (disk, Arc::clone(daemon)),
    };
    let remote = Arc::new(RemoteStorage::new(transport, RetryPolicy::default()));
    let tiered: Arc<dyn Storage> = Arc::new(TieredStorage::new(local, remote));
    BuildCache::open_on(tiered, &Telemetry::disabled()).map_err(|e| format!("open cache: {e}"))
}

/// A fresh in-process daemon with an empty store.
fn new_daemon() -> Arc<dyn RemoteTransport> {
    Arc::new(LoopbackTransport::over(Arc::new(MemStorage::new())))
}

/// What a traced op's cached rebuilds did, beyond the build output.
#[derive(Debug, Default)]
struct RebuildStats {
    /// Modules handed to the front end.
    modules: usize,
    /// Of those, modules served from the cache.
    hits: usize,
    /// The driver's phase records of a build that ran (none on a
    /// replay).
    phases: Vec<PhaseRecord>,
    /// Layer counters of a build that ran.
    counts: Option<StageCounts>,
}

/// Front end and build through the cache: the driver's
/// `add_sources_cached_with` and `build_cached`. With a tracer, each
/// call is a span, and the build runs with telemetry on so the driver's
/// phase records give the wall time of the layers inside it.
fn rebuild(
    modules: &[(String, String)],
    options: &BuildOptions,
    cache: &mut BuildCache,
    tracer: Option<&Tracer>,
) -> Result<(BuildOutput, RebuildStats), String> {
    let with_telemetry;
    let options = match tracer {
        Some(_) => {
            with_telemetry = options.clone().with_telemetry(Telemetry::enabled());
            &with_telemetry
        }
        None => options,
    };
    let mut cc = Compiler::new();
    let hits = span(tracer, "cache.frontend", 0, 0, |_| {
        cc.add_sources_cached_with(modules, options, cache)
    })
    .map_err(|e| format!("cached frontend: {e}"))?;
    let out = span(tracer, "cache.build", 0, 0, |_| {
        cc.build_cached(options, cache)
    })
    .map_err(|e| format!("cached build: {e}"))?;
    let ran = out.report.replayed.is_none();
    let stats = RebuildStats {
        modules: modules.len(),
        hits,
        phases: options.telemetry.phases(),
        counts: ran.then(|| driver_counts(&out)),
    };
    Ok((out, stats))
}

/// The layer counters of a build the driver ran, from its report and
/// image.
fn driver_counts(out: &BuildOutput) -> StageCounts {
    let r = &out.report;
    let phase_work = |name: &str| {
        r.phases
            .iter()
            .filter(|p| p.name == name)
            .map(PhaseRecord::work)
            .sum()
    };
    StageCounts {
        cmo_modules: r.cmo_modules as u64,
        cmo_loc: r.cmo_loc,
        total_loc: r.total_loc,
        clusters: r.clusters.clusters,
        largest_cluster: r.clusters.largest,
        cross_edges: r.clusters.cross_edges,
        inlines: r.hlo.inlines,
        considered: r.hlo.sites_considered,
        clones: r.hlo.clones,
        dead_routines: r.hlo.dead_routines,
        hlo_work: phase_work("hlo"),
        loader: r.loader,
        llo_routines: (out.image.routines.len() as u64).saturating_sub(r.hlo.dead_routines),
        llo_peak_bytes: r.llo_peak_bytes as u64,
        llo_work: phase_work("llo"),
        image_instrs: r.image_instrs as u64,
    }
}

/// The driver phases whose wall time stands in for a layer's span in
/// `edit_loop`, and the per-layer metric each one sets.
const PHASE_METRICS: [(&str, &str); 4] = [
    ("link", "ir.link_s"),
    ("hlo", "hlo.wall_s"),
    ("llo", "llo.wall_s"),
    ("link_image", "link.assemble_s"),
];

/// Cache, remote and layer counters summed over the traced ops; the
/// per-op metrics divide by the number of ops counted here.
#[derive(Debug, Default)]
struct TracedTotals {
    ops: u64,
    modules: u64,
    module_hits: u64,
    builds: u64,
    build_hits: u64,
    retained: u64,
    fetched: u64,
    pushed: u64,
    retries: u64,
    failures: u64,
    warm_fetched: u64,
    warm_ops: u64,
    /// Wall time of each of [`PHASE_METRICS`]' phases.
    phase_s: [f64; 4],
    /// Layer counters of each build that ran.
    counts: Vec<StageCounts>,
}

impl TracedTotals {
    /// Adds one op of `kind` whose cache counted `s` and `r` and which
    /// made `rebuilds`.
    fn add(&mut self, kind: &str, s: &CacheStats, r: &RemoteStats, rebuilds: Vec<RebuildStats>) {
        self.ops += 1;
        self.build_hits += s.build_hits;
        self.retained += s.profile_retained_hits;
        self.fetched += r.fetched_bytes;
        self.pushed += r.pushed_bytes;
        self.retries += r.retries;
        self.failures += r.failures;
        if kind == "remote_warm" {
            self.warm_fetched += r.fetched_bytes;
            self.warm_ops += 1;
        }
        for b in rebuilds {
            self.builds += 1;
            self.modules += b.modules as u64;
            self.module_hits += b.hits as u64;
            for p in &b.phases {
                if let Some(i) = PHASE_METRICS.iter().position(|(n, _)| *n == p.name) {
                    self.phase_s[i] += p.wall_nanos as f64 * 1e-9;
                }
            }
            self.counts.extend(b.counts);
        }
    }

    /// Sets the cache, remote and driver-phase metrics, per op. Needs
    /// [`Layers::spans`] first, whose `cache.frontend_s` stands in for
    /// the front end's time.
    fn layers(&self, layers: &mut Layers, lines_per_module: f64) {
        let ops = self.ops.max(1) as f64;
        for ((_, metric), secs) in PHASE_METRICS.iter().zip(self.phase_s) {
            layers.set(metric, secs / ops);
        }
        // The front end runs inside `add_sources_cached_with`, whose
        // span is its time here; the modules it compiled are the ones
        // the cache did not serve.
        let compiled = (self.modules - self.module_hits) as f64 / ops;
        let frontend_s = layers.get("cache.frontend_s");
        layers.set("frontend.busy_s", frontend_s);
        layers.set("frontend.modules", compiled);
        layers.set(
            "frontend.lines_per_s",
            ratio(compiled * lines_per_module, frontend_s),
        );
        layers.stage_counts(&self.counts);
        // Replayed builds add no phase time and no counters, so the
        // work-to-wall ratios divide the totals of the builds that ran
        // rather than the per-op means.
        let work = |f: fn(&StageCounts) -> u64| self.counts.iter().map(f).sum::<u64>() as f64;
        let (hlo_ms, llo_ms) = (self.phase_s[1] * 1e3, self.phase_s[2] * 1e3);
        layers.set("hlo.work_per_ms", ratio(work(|c| c.hlo_work), hlo_ms));
        layers.set(
            "naim.work_per_hlo_ms",
            ratio(work(|c| c.loader.work_units), hlo_ms),
        );
        layers.set("llo.work_per_ms", ratio(work(|c| c.llo_work), llo_ms));
        layers.set(
            "cache.frontend_hit_frac",
            ratio(self.module_hits as f64, self.modules as f64),
        );
        layers.set(
            "cache.build_hit_frac",
            ratio(self.build_hits as f64, self.builds as f64),
        );
        layers.set("cache.retained_hits", self.retained as f64 / ops);
        layers.set("remote.fetched_bytes", self.fetched as f64 / ops);
        layers.set("remote.pushed_bytes", self.pushed as f64 / ops);
        layers.set("remote.retries", self.retries as f64 / ops);
        layers.set("remote.failures", self.failures as f64 / ops);
        layers.set(
            "remote.warm_fetched_bytes",
            ratio(self.warm_fetched as f64, self.warm_ops as f64),
        );
    }
}

/// The state one setup leaves behind.
pub struct EditLoop {
    app: SynthApp,
    modules: Vec<(String, String)>,
    db: ProfileDb,
    expected: Expected,
    /// Cycles of the `+O1` reference image, the speedup baseline.
    o1_cycles: u64,
    root: PathBuf,
    local: PathBuf,
    daemon: Arc<dyn RemoteTransport>,
    rng: Rng,
    schedule: Vec<&'static str>,
    /// Bumped whenever the sources or the profile change.
    version: u64,
    /// The cold image of the current version, built on first need, and
    /// its cycles once a run of it matched the reference.
    cold: Option<(u64, Vec<u8>, Option<u64>)>,
    fresh_dirs: u64,
    decor: Option<Decorators>,
    traced: TracedTotals,
}

fn options(db: &ProfileDb) -> BuildOptions {
    BuildOptions::new(OptLevel::O2)
        .with_profile_db(db.clone())
        .with_jobs(JOBS)
}

impl EditLoop {
    /// Generates the app, sizes its inputs and computes the reference
    /// output, trains the profile, warms a fresh local cache and daemon under `root` with a cold
    /// build, and runs one untimed warm-up op.
    ///
    /// # Errors
    ///
    /// Describes the failing step.
    pub fn setup(seed: u64, root: &Path) -> Result<Self, String> {
        let mut app = app::generate_app(seed);
        let app::Reference {
            expected,
            o1_cycles,
        } = app::reference("edit_loop", seed, &mut app)?;
        let db = app::train(&app)?;
        let local = root.join("local");
        if local.exists() {
            std::fs::remove_dir_all(&local).map_err(|e| format!("clear local tier: {e}"))?;
        }
        let mut bench = EditLoop {
            modules: app.modules.clone(),
            app,
            db,
            expected,
            o1_cycles,
            root: root.to_path_buf(),
            local,
            daemon: new_daemon(),
            rng: Rng(mix(seed ^ 0xED17)),
            schedule: Vec::new(),
            version: 0,
            cold: None,
            fresh_dirs: 0,
            decor: None,
            traced: TracedTotals::default(),
        };
        let mut cache = open_cache(&bench.local, &bench.daemon, None)?;
        rebuild(&bench.modules, &options(&bench.db), &mut cache, None)?;
        drop(cache);
        let warm = bench.op("noop", None);
        if !warm.ok {
            return Err(format!(
                "warm-up op failed: {}",
                warm.error.unwrap_or_default()
            ));
        }
        Ok(bench)
    }

    /// Source lines of the app as first generated.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.app.total_lines
    }

    /// Modules in the app.
    #[must_use]
    pub fn modules(&self) -> usize {
        self.app.modules.len()
    }

    /// The modules and options the replica guard checks.
    #[must_use]
    pub fn guard_inputs(&self) -> (&[(String, String)], BuildOptions, &[i64]) {
        (&self.app.modules, options(&self.db), &self.app.ref_input)
    }

    /// Attaches the timing decorators to every cache a traced op opens
    /// from now on.
    pub fn decorate(&mut self) -> Decorators {
        let d = Decorators::default();
        self.decor = Some(d.clone());
        d
    }

    /// The next op kind: blocks of the four kinds, each block shuffled.
    pub fn next_kind(&mut self) -> &'static str {
        if self.schedule.is_empty() {
            let mut block = KINDS.to_vec();
            for i in (1..block.len()).rev() {
                block.swap(i, self.rng.below(i + 1));
            }
            block.reverse();
            self.schedule = block;
        }
        self.schedule.pop().expect("refilled above")
    }

    /// A seeded variant of the training input: about one selector in
    /// 32 replaced by another selector drawn from the same input.
    fn train_variant(&mut self) -> Vec<i64> {
        // Element 0 is the iteration count; the rest are selectors.
        let original = &self.app.train_input;
        let mut input = original.clone();
        let n = input.len();
        if n > 2 {
            for slot in input.iter_mut().skip(1) {
                if self.rng.below(32) == 0 {
                    *slot = original[1 + self.rng.below(n - 1)];
                }
            }
        }
        input
    }

    /// Applies an edit: module `m` gains (or changes) one routine that
    /// nothing calls, so behaviour is unchanged but its fingerprint is
    /// not.
    fn edit(&mut self) {
        let m = self.rng.below(self.modules.len());
        let k = self.rng.next() % 1_000_000;
        let mut source = self.app.modules[m].1.clone();
        source.push_str(&format!(
            "\nfn perfbench_edit_{m}(x: int) -> int {{ return x + {k}; }}\n"
        ));
        self.modules[m].1 = source;
        self.version += 1;
    }

    /// The bytes of a cold build of the current sources and profile.
    fn cold_image(&mut self) -> Result<&mut (u64, Vec<u8>, Option<u64>), String> {
        if self.cold.as_ref().map(|c| c.0) != Some(self.version) {
            let mut cc = Compiler::new();
            cc.add_sources(&self.modules, JOBS)
                .map_err(|e| format!("cold frontend: {e}"))?;
            let out = cc
                .build(&options(&self.db))
                .map_err(|e| format!("cold build: {e}"))?;
            self.cold = Some((self.version, out.image.to_bytes(), None));
        }
        Ok(self.cold.as_mut().expect("filled above"))
    }

    /// The timed part of one op. Returns the image build, the cache it
    /// went through, and what each rebuild did.
    fn timed_part(
        &mut self,
        kind: &'static str,
        tracer: Option<&Tracer>,
    ) -> Result<(BuildOutput, BuildCache, Vec<RebuildStats>), String> {
        let dir = if kind == "remote_warm" {
            self.fresh_dirs += 1;
            self.root.join(format!("fresh-{}", self.fresh_dirs))
        } else {
            self.local.clone()
        };
        let daemon = Arc::clone(&self.daemon);
        // Only traced ops go through the decorators.
        let decor = tracer.and(self.decor.clone());
        let mut cache = span(tracer, "cache.open", 0, 0, |_| {
            open_cache(&dir, &daemon, decor.as_ref())
        })?;
        let mut rebuilds = Vec::new();
        if kind == "retrain" {
            let instr = BuildOptions::instrumented().with_jobs(JOBS);
            let (image, stats) = rebuild(&self.modules, &instr, &mut cache, tracer)?;
            rebuilds.push(stats);
            let variant = self.train_variant();
            self.db = span(tracer, "vm.train_run", 0, 0, |_| {
                image.run_for_profile(&variant)
            })
            .map_err(|e| format!("training run: {e}"))?;
            self.version += 1;
        }
        let (out, stats) = rebuild(&self.modules, &options(&self.db), &mut cache, tracer)?;
        rebuilds.push(stats);
        Ok((out, cache, rebuilds))
    }

    /// Runs one op of `kind`; the source edit, the output checks and
    /// removing a fresh tier are outside the timed part.
    pub fn op(&mut self, kind: &'static str, tracer: Option<&Tracer>) -> Outcome {
        if let Some(t) = tracer {
            t.begin_op();
        }
        if kind == "edit" {
            self.edit();
        }
        crate::reset_peak_rss();
        let t0 = Instant::now();
        let result = self.timed_part(kind, tracer);
        let mut out = Outcome::new(kind, t0.elapsed().as_secs_f64());
        out.rss_mib = crate::peak_rss_mib();
        if kind == "remote_warm" {
            let dir = self.root.join(format!("fresh-{}", self.fresh_dirs));
            if let Err(e) = std::fs::remove_dir_all(&dir) {
                out.fail(format!("remove fresh tier: {e}"));
            }
        }
        let (built, cache, rebuilds) = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                return out;
            }
        };
        // Only traced ops are counted, so every per-op counter divides
        // by the ops the decorators saw.
        if tracer.is_some() {
            self.traced
                .add(kind, &cache.stats(), &cache.remote_stats(), rebuilds);
        }
        out.image_instrs = built.image.code_size() as u64;
        out.peak_opt_bytes = built.compile_report().overall_peak_bytes() as u64;
        out.work = built.report.compile_work;
        let verified = match self.cold_image() {
            Ok(cold) if cold.1 == built.image.to_bytes() => cold.2,
            Ok(_) => {
                out.fail(format!(
                    "{kind} image differs from a cold build of the same sources"
                ));
                None
            }
            Err(e) => {
                out.fail(e);
                None
            }
        };
        // An image equal to one whose run already matched the reference
        // needs no second run (the VM is deterministic), except in the
        // traced run, which times the VM.
        if let (Some(cycles), None) = (verified, tracer) {
            out.run_cycles = cycles;
            out.speedup = self.o1_cycles as f64 / cycles as f64;
            return out;
        }
        let ran = span(tracer, "vm.run", 0, 0, |_| {
            run(&built.image, &self.app.ref_input, &RunConfig::default())
        });
        match ran {
            Ok(r) if self.expected.matches(&r) => {
                out.run_cycles = r.cycles;
                out.speedup = self.o1_cycles as f64 / r.cycles as f64;
                if out.ok {
                    if let Some(cold) = self.cold.as_mut() {
                        cold.2 = Some(r.cycles);
                    }
                }
            }
            Ok(r) => out.fail(format!(
                "{kind} output {:#x}/{} differs from the reference",
                r.checksum, r.returned
            )),
            Err(e) => out.fail(format!("run: {e}")),
        }
        out
    }

    /// Per-layer cache, remote and driver-phase metrics of the traced
    /// ops.
    ///
    /// # Errors
    ///
    /// A cache that cannot be reopened to measure its dead bytes.
    pub fn layers(&self, layers: &mut Layers) -> Result<(), String> {
        let lines_per_module = ratio(self.lines() as f64, self.modules() as f64);
        self.traced.layers(layers, lines_per_module);
        let cache = open_cache(&self.local, &self.daemon, None)?;
        let dead = cache.dead_bytes().map_err(|e| format!("dead bytes: {e}"))?;
        layers.set("cache.dead_bytes", dead as f64);
        Ok(())
    }
}

/// Every file under `dir` with its bytes, by relative path.
fn snapshot(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("list {}: {e}", d.display()))?;
        for entry in entries {
            let path = entry
                .map_err(|e| format!("list {}: {e}", d.display()))?
                .path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes =
                    std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
                let rel = path
                    .strip_prefix(dir)
                    .expect("under dir")
                    .display()
                    .to_string();
                out.push((rel, bytes));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Checks that the decorators change no byte the cache writes: the
/// same short sequence of traced rebuilds (cold build, edit-free
/// rebuild, and a rebuild from a fresh local tier against the daemon)
/// runs once undecorated and once with both decorators, each under
/// `root` with its own daemon, and every file the two leave behind must
/// match.
///
/// # Errors
///
/// Describes the first difference, or a step that failed.
pub fn decorator_guard(
    modules: &[(String, String)],
    options: &BuildOptions,
    root: &Path,
) -> Result<(), String> {
    let mut trees = Vec::new();
    for (tag, decor) in [("plain", None), ("decorated", Some(Decorators::default()))] {
        let daemon = new_daemon();
        let local = root.join(format!("guard-{tag}-local"));
        let fresh = root.join(format!("guard-{tag}-fresh"));
        let tracer = Tracer::default();
        for dir in [&local, &local, &fresh] {
            let mut cache = open_cache(dir, &daemon, decor.as_ref())?;
            rebuild(modules, options, &mut cache, Some(&tracer))?;
        }
        trees.push((snapshot(&local)?, snapshot(&fresh)?));
        for dir in [&local, &fresh] {
            std::fs::remove_dir_all(dir).map_err(|e| format!("remove guard dir: {e}"))?;
        }
    }
    let names = |t: &[(String, Vec<u8>)]| t.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    for (a, b, which) in [
        (&trees[0].0, &trees[1].0, "local tier"),
        (&trees[0].1, &trees[1].1, "fresh tier"),
    ] {
        if names(a) != names(b) {
            return Err(format!(
                "decorated {which} holds other files: {:?} vs {:?}",
                names(a),
                names(b)
            ));
        }
        if let Some(f) = a.iter().zip(b.iter()).find(|(x, y)| x.1 != y.1) {
            return Err(format!("decorated {which} differs in {}", f.0 .0));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_counters_divide_by_the_ops_counted() {
        let mut t = TracedTotals::default();
        let cache = CacheStats {
            profile_retained_hits: 6,
            ..CacheStats::default()
        };
        let remote = RemoteStats {
            fetched_bytes: 300,
            pushed_bytes: 30,
            ..RemoteStats::default()
        };
        let rebuild = || RebuildStats {
            modules: 4,
            hits: 1,
            ..RebuildStats::default()
        };
        // A retrain makes two rebuilds but is one op.
        t.add("retrain", &cache, &remote, vec![rebuild(), rebuild()]);
        t.add("remote_warm", &cache, &remote, vec![rebuild()]);
        t.add(
            "noop",
            &CacheStats::default(),
            &RemoteStats::default(),
            vec![rebuild()],
        );
        let mut layers = Layers::default();
        t.layers(&mut layers, 100.0);
        assert_eq!(layers.get("cache.retained_hits"), 4.0);
        assert_eq!(layers.get("remote.fetched_bytes"), 200.0);
        assert_eq!(layers.get("remote.pushed_bytes"), 20.0);
        assert_eq!(layers.get("remote.warm_fetched_bytes"), 300.0);
        assert_eq!(layers.get("frontend.modules"), 4.0);
        assert_eq!(layers.get("cache.frontend_hit_frac"), 0.25);
    }
}
