//! The benchmark's input program, its training profile and its output
//! oracle, all derived from the workload seed.

use cmo::{BuildOptions, Compiler, OptLevel, ProfileDb};
use cmo_synth::{generate, mcad_preset, SynthApp};
use cmo_vm::ExecResult;

/// Frontend and build parallelism. The benchmark host has two cores
/// (see README.md); nothing runs more threads than this.
pub const JOBS: usize = 2;

/// Expected outputs for each workload's default seed, computed once
/// with an `+O1` build and committed, so the default run is checked
/// against values the build under test did not produce.
const ORACLE: &str = include_str!("../oracle.tsv");

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Iterations the generated inputs offer: four times the preset's, so
/// a seed whose program runs light can run longer.
const MAX_ITERS: usize = 10_000;

/// Simulated cycles the `+O1` image should spend on the reference
/// input, about what the median seed spends on the preset's 2500
/// iterations. Every seed's inputs are cut to the iteration count that
/// comes closest, so the VM runs in set-up and in the ops cost about the
/// same whatever program the seed generates.
const REF_CYCLES: u64 = 100_000_000;

/// Iterations of the probe run that estimates cycles per iteration.
const PROBE_ITERS: usize = 250;

/// What a correct program prints and returns on the reference input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Output checksum.
    pub checksum: u64,
    /// `main`'s return value.
    pub returned: i64,
}

impl Expected {
    /// Whether a run reproduced this output.
    #[must_use]
    pub fn matches(&self, run: &ExecResult) -> bool {
        run.checksum == self.checksum && run.returned == self.returned
    }
}

/// The reference output, and the cycles the `+O1` reference image took
/// to produce it: the baseline `run_speedup` divides by.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// The output every op must reproduce.
    pub expected: Expected,
    /// Cycles of the `+O1` image on the reference input.
    pub o1_cycles: u64,
}

/// SplitMix64: spreads consecutive workload seeds over the generator's
/// seed space.
#[must_use]
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `mcad1` application at full scale (about 21 k lines in 49
/// modules), its synthesis seed derived from `seed`, with inputs of
/// [`MAX_ITERS`] iterations until [`reference`] cuts them.
#[must_use]
pub fn generate_app(seed: u64) -> SynthApp {
    let mut spec = mcad_preset("mcad1", 1.0);
    spec.seed = mix(seed);
    spec.workload_iters = MAX_ITERS as u64;
    generate(&spec)
}

/// The first `iters` iterations of an input stream
/// (`[iterations, selector, ...]`).
fn cut(input: &[i64], iters: usize) -> Vec<i64> {
    let mut out = input[..=iters].to_vec();
    out[0] = iters as i64;
    out
}

/// The committed expectation for `workload` at `seed`, if any.
#[must_use]
pub fn committed(workload: &str, seed: u64) -> Option<Expected> {
    ORACLE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            (f.len() == 4 && f[0] == workload && f[1].parse() == Ok(seed)).then(|| Expected {
                checksum: f[2].parse().expect("oracle checksum is a u64"),
                returned: f[3].parse().expect("oracle return value is an i64"),
            })
        })
}

/// Builds and trains the app: an instrumented build run on the
/// training input.
///
/// # Errors
///
/// Describes the failing step.
pub fn train(app: &SynthApp) -> Result<ProfileDb, String> {
    let mut cc = Compiler::new();
    cc.add_sources(&app.modules, JOBS)
        .map_err(|e| format!("train frontend: {e}"))?;
    cc.build(&BuildOptions::instrumented().with_jobs(JOBS))
        .map_err(|e| format!("instrumented build: {e}"))?
        .run_for_profile(&app.train_input)
        .map_err(|e| format!("training run: {e}"))
}

/// Cuts the app's inputs to about [`REF_CYCLES`] on the `+O1` image
/// and computes the output every op is checked against. A committed
/// value is used when one exists for this seed; the `+O1` differential
/// reference is computed in every case and must agree with it.
///
/// # Errors
///
/// A failing reference build or run, or a reference that disagrees
/// with the committed value.
pub fn reference(workload: &str, seed: u64, app: &mut SynthApp) -> Result<Reference, String> {
    let mut cc = Compiler::new();
    cc.add_sources(&app.modules, JOBS)
        .map_err(|e| format!("reference frontend: {e}"))?;
    let o1 = cc
        .build(&BuildOptions::new(OptLevel::O1).with_jobs(JOBS))
        .map_err(|e| format!("reference build: {e}"))?;
    let probe = o1
        .run(&cut(&app.ref_input, PROBE_ITERS))
        .map_err(|e| format!("probe run: {e}"))?;
    let iters = (REF_CYCLES as f64 * PROBE_ITERS as f64 / probe.cycles.max(1) as f64).round();
    let iters = (iters as usize).clamp(PROBE_ITERS, MAX_ITERS);
    app.ref_input = cut(&app.ref_input, iters);
    app.train_input = cut(&app.train_input, iters);
    let run = o1
        .run(&app.ref_input)
        .map_err(|e| format!("reference run: {e}"))?;
    let o1 = Expected {
        checksum: run.checksum,
        returned: run.returned,
    };
    match committed(workload, seed) {
        Some(expected) if expected != o1 => Err(format!(
            "+O1 reference {o1:?} disagrees with the committed oracle {expected:?}"
        )),
        committed => Ok(Reference {
            expected: committed.unwrap_or(o1),
            o1_cycles: run.cycles,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_committed_default() {
        for w in crate::WORKLOADS {
            assert!(committed(w, DEFAULT_SEED).is_some(), "{w}");
        }
        assert!(committed("cmo_release", DEFAULT_SEED + 1000).is_none());
    }

    #[test]
    fn cut_keeps_a_prefix_and_its_count() {
        assert_eq!(cut(&[4, 7, 8, 9, 10], 2), [2, 7, 8]);
    }

    #[test]
    fn seeds_spread() {
        assert_ne!(mix(1), mix(2));
        assert_eq!(mix(7), mix(7));
    }
}
