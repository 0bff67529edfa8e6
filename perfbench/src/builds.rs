//! `cmo_release` and `naim_offload`: one op is a from-source build of
//! the whole app at `+O4 +P --sel 20 -j2`, then a run of the image on
//! the reference input. The two differ only in the NAIM budget.

use std::time::Instant;

use cmo::{BuildOptions, Compiler, NaimConfig, OptLevel};
use cmo_synth::SynthApp;
use cmo_vm::{run, MachineImage, RunConfig};

use crate::app::{self, Expected, JOBS};
use crate::layers::Layers;
use crate::replica::{self, StageCounts};
use crate::trace::Tracer;
use crate::Outcome;

/// The Figure 5 budget that makes the NAIM loader offload.
const OFFLOAD_BUDGET: usize = 512 << 10;

/// The state one setup leaves behind.
pub struct BuildBench {
    app: SynthApp,
    options: BuildOptions,
    expected: Expected,
    /// Cycles of the `+O1` reference image, the speedup baseline.
    o1_cycles: u64,
    /// Counters of each traced op.
    counts: Vec<StageCounts>,
    /// The last image whose run matched the reference, and its cycles.
    verified: Option<(Vec<u8>, u64)>,
}

impl BuildBench {
    /// Generates the app, sizes its inputs and computes the reference
    /// output, trains the profile, and runs one untimed warm-up op.
    ///
    /// # Errors
    ///
    /// Describes the failing step.
    pub fn setup(workload: &str, seed: u64) -> Result<Self, String> {
        let mut app = app::generate_app(seed);
        let app::Reference {
            expected,
            o1_cycles,
        } = app::reference(workload, seed, &mut app)?;
        let db = app::train(&app)?;
        let mut options = BuildOptions::new(OptLevel::O4)
            .with_profile_db(db)
            .with_selectivity(20.0)
            .with_jobs(JOBS);
        if workload == "naim_offload" {
            options = options.with_naim(NaimConfig::with_budget(OFFLOAD_BUDGET));
        }
        let mut bench = BuildBench {
            app,
            options,
            expected,
            o1_cycles,
            counts: Vec::new(),
            verified: None,
        };
        let warm = bench.op();
        if !warm.ok {
            return Err(format!(
                "warm-up op failed: {}",
                warm.error.unwrap_or_default()
            ));
        }
        Ok(bench)
    }

    /// Source lines of the app.
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
    pub fn guard_inputs(&self) -> (&[(String, String)], &BuildOptions, &[i64]) {
        (&self.app.modules, &self.options, &self.app.ref_input)
    }

    /// Checks the image's output against the reference. An image byte
    /// for byte equal to one already checked is not run again (the VM is
    /// deterministic) unless `always_run`.
    fn check(&mut self, image: &MachineImage, mut out: Outcome, always_run: bool) -> Outcome {
        let bytes = image.to_bytes();
        if let Some((seen, cycles)) = &self.verified {
            if !always_run && *seen == bytes {
                out.run_cycles = *cycles;
                out.speedup = self.o1_cycles as f64 / *cycles as f64;
                return out;
            }
        }
        match run(image, &self.app.ref_input, &RunConfig::default()) {
            Ok(r) if self.expected.matches(&r) => {
                out.run_cycles = r.cycles;
                out.speedup = self.o1_cycles as f64 / r.cycles as f64;
                self.verified = Some((bytes, r.cycles));
            }
            Ok(r) => out.fail(format!(
                "output {:#x}/{} differs from the reference {:#x}/{}",
                r.checksum, r.returned, self.expected.checksum, self.expected.returned
            )),
            Err(e) => out.fail(format!("run: {e}")),
        }
        out
    }

    /// One untraced op: `Compiler::add_sources` then `Compiler::build`,
    /// timed; the run that checks the output is not.
    pub fn op(&mut self) -> Outcome {
        crate::reset_peak_rss();
        let t0 = Instant::now();
        let mut cc = Compiler::new();
        let built = cc
            .add_sources(&self.app.modules, JOBS)
            .and_then(|()| cc.build(&self.options));
        let secs = t0.elapsed().as_secs_f64();
        let mut out = Outcome::new("build", secs);
        out.rss_mib = crate::peak_rss_mib();
        match built {
            Ok(b) => {
                out.image_instrs = b.image.code_size() as u64;
                out.peak_opt_bytes = b.compile_report().overall_peak_bytes() as u64;
                out.work = b.report.compile_work;
                self.check(&b.image, out, false)
            }
            Err(e) => {
                out.fail(format!("build: {e}"));
                out
            }
        }
    }

    /// One traced op: the same build through the stage-by-stage
    /// replica, with a span around every layer call.
    pub fn traced_op(&mut self, tracer: &Tracer) -> Outcome {
        tracer.begin_op();
        let t0 = Instant::now();
        let built = tracer.span("op", 0, 0, |root| {
            replica::build(&self.app.modules, &self.options, Some(tracer), root)
        });
        let secs = t0.elapsed().as_secs_f64();
        let mut out = Outcome::new("build", secs);
        match built {
            Ok((built, counts)) => {
                out.image_instrs = built.image.code_size() as u64;
                out.peak_opt_bytes = built.compile_report().overall_peak_bytes() as u64;
                out.work = built.report.compile_work;
                let out = tracer.span("vm.run", 0, 0, |_| self.check(&built.image, out, true));
                self.counts.push(counts);
                out
            }
            Err(e) => {
                out.fail(format!("replica build: {e}"));
                out
            }
        }
    }

    /// Per-layer counters of the traced ops.
    pub fn layers(&self, layers: &mut Layers) {
        layers.stage_counts(&self.counts);
    }
}
