//! The traced replica: a from-source build assembled stage by stage
//! from each layer's public functions, in the order `cmo::build_objects`
//! calls them, with a span around every call.
//!
//! The replica exists so the traced run can see inside a build without
//! adding spans to the compiler. It is only trusted while it agrees
//! with the real driver: [`guard`] checks that its image bytes, run
//! checksum and unified report equal those of `Compiler::build` at `-j1`
//! and `-j2`.
//!
//! Trace events are not replicated: the benchmark builds with telemetry
//! off, as a plain `cmocc` build does.

use std::collections::{BTreeMap, BTreeSet};

use cmo::{
    run_jobs, BuildError, BuildOptions, BuildOutput, BuildReport, Compiler, IlObject, OptLevel,
};
use cmo_hlo::{
    fold_globals, merge_outcomes, plan_clusters, run_cluster, CallGraph, CloneOptions, GlobalFacts,
    HloSession,
};
use cmo_ir::{link_objects, Instr, Program, RoutineBody, RoutineId};
use cmo_link::{assemble, CallArc, LinkOptions};
use cmo_llo::{
    lower_routine, shape_of, GlobalLayout, LloOptions, LoweredRoutine, OptEffort, OptEffortOpt,
};
use cmo_naim::LoaderStats;
use cmo_profile::{Freshness, ProfileDb};
use cmo_select::{coarse_select_traced, layered_levels, OptLayer};
use cmo_vm::{MInstr, MachineImage};

use crate::trace::{span, Tracer};

/// Layer counters a replica build collects next to its spans.
#[derive(Debug, Default, Clone)]
pub struct StageCounts {
    /// Modules selected for CMO (0 without selection).
    pub cmo_modules: u64,
    /// Source lines in CMO modules.
    pub cmo_loc: u64,
    /// All source lines.
    pub total_loc: u64,
    /// HLO cluster partition.
    pub clusters: u64,
    /// Members of the largest cluster.
    pub largest_cluster: u64,
    /// Call edges crossing clusters.
    pub cross_edges: u64,
    /// Inlines performed.
    pub inlines: u64,
    /// Inline sites considered.
    pub considered: u64,
    /// Clones made.
    pub clones: u64,
    /// Routines found dead.
    pub dead_routines: u64,
    /// Work units HLO charged: the inline and clone lumps plus NAIM.
    pub hlo_work: u64,
    /// NAIM loader counters after HLO.
    pub loader: LoaderStats,
    /// Routines LLO lowered (dead routines are stubbed, not lowered).
    pub llo_routines: u64,
    /// Largest per-routine LLO working set.
    pub llo_peak_bytes: u64,
    /// Work units LLO charged.
    pub llo_work: u64,
    /// Instructions in the image.
    pub image_instrs: u64,
}

/// Profile block counts correlated with a body's current shape, as the
/// driver supplies them to LLO: fresh data as-is, stale data clipped.
fn correlated_counts(db: &ProfileDb, name: &str, body: &RoutineBody) -> Option<Vec<u64>> {
    match db.lookup(name, shape_of(body)) {
        (Freshness::Missing, _) | (_, None) => None,
        (_, Some(p)) => {
            let mut counts = p.blocks.clone();
            counts.resize(body.blocks.len(), 0);
            Some(counts)
        }
    }
}

/// Caller→callee arcs weighted by profile site counts, for the `+P`
/// layout when HLO did not run.
fn profile_arcs(program: &Program, bodies: &[RoutineBody], db: &ProfileDb) -> Vec<CallArc> {
    let mut agg: BTreeMap<(RoutineId, RoutineId), u64> = BTreeMap::new();
    for (i, body) in bodies.iter().enumerate() {
        let caller = RoutineId::from_index(i);
        let name = program.name(program.routine(caller).name);
        for block in &body.blocks {
            for instr in &block.instrs {
                if let Instr::Call { callee, site, .. } = instr {
                    *agg.entry((caller, callee.id())).or_insert(0) +=
                        db.site_count(name, site.0).unwrap_or(0);
                }
            }
        }
    }
    agg.into_iter()
        .map(|((caller, callee), weight)| CallArc {
            caller,
            callee,
            weight,
        })
        .collect()
}

/// Compiles `modules` over `jobs` workers, a span per module.
///
/// # Errors
///
/// The first frontend diagnostic by module position.
pub fn frontend(
    modules: &[(String, String)],
    jobs: usize,
    tracer: Option<&Tracer>,
    parent: u32,
) -> Result<Vec<IlObject>, BuildError> {
    span(tracer, "frontend", parent, 0, |fe| {
        run_jobs(modules.len(), jobs.max(1), |worker, i| {
            span(tracer, "frontend.compile_module", fe, worker + 1, |_| {
                cmo_frontend::compile_module(&modules[i].0, &modules[i].1)
            })
        })
        .into_iter()
        .map(|r| r.map_err(BuildError::from))
        .collect()
    })
}

/// Builds `modules` from source at `options`, one stage at a time.
/// With a tracer, every stage call is a span under `parent`.
///
/// # Errors
///
/// Whatever the stage that failed returns.
pub fn build(
    modules: &[(String, String)],
    options: &BuildOptions,
    tracer: Option<&Tracer>,
    parent: u32,
) -> Result<(BuildOutput, StageCounts), BuildError> {
    let objects = frontend(modules, options.jobs, tracer, parent)?;
    build_objects(objects, options, tracer, parent)
}

/// `cmo::build_objects`, stage by stage.
///
/// # Errors
///
/// Whatever the stage that failed returns.
#[allow(clippy::too_many_lines)] // one straight pipeline, stage by stage
pub fn build_objects(
    objects: Vec<IlObject>,
    options: &BuildOptions,
    tracer: Option<&Tracer>,
    parent: u32,
) -> Result<(BuildOutput, StageCounts), BuildError> {
    let jobs = options.jobs.max(1);
    let mut counts = StageCounts::default();
    let unit = span(tracer, "ir.link_objects", parent, 0, |_| {
        link_objects(objects)
    })?;
    let Some(main) = unit.program.main_routine() else {
        return Err(BuildError::NoMain);
    };
    counts.total_loc = unit.program.total_source_lines();
    let mut report = BuildReport {
        total_modules: unit.program.modules().len(),
        total_loc: counts.total_loc,
        ..BuildReport::default()
    };
    let db = options.profile.as_ref().filter(|_| options.pbo);

    let (program, bodies, symtabs, maintained, dead, o4_arcs) = if options.level == OptLevel::O4 {
        span(tracer, "hlo", parent, 0, |hlo| -> Result<_, BuildError> {
            let plan = match (db, options.selectivity) {
                (Some(db), Some(pct)) => {
                    Some(span(tracer, "select.coarse_select", hlo, 0, |_| {
                        coarse_select_traced(
                            &unit.program,
                            &unit.bodies,
                            db,
                            pct,
                            &options.telemetry,
                        )
                    })?)
                }
                _ => None,
            };
            let targets: Option<BTreeSet<RoutineId>> = match &plan {
                Some(plan) => {
                    counts.cmo_modules = plan.cmo_modules.len() as u64;
                    counts.cmo_loc = plan
                        .cmo_modules
                        .iter()
                        .map(|&m| u64::from(unit.program.module(m).source_lines))
                        .sum();
                    Some(plan.hot_routines.iter().copied().collect())
                }
                None => {
                    counts.cmo_modules = unit.program.modules().len() as u64;
                    counts.cmo_loc = counts.total_loc;
                    None
                }
            };

            let mut session = span(tracer, "hlo.read_in", hlo, 0, |_| {
                HloSession::new_with_telemetry(
                    unit,
                    options.naim.clone(),
                    db,
                    options.telemetry.clone(),
                )
            })?;
            span(tracer, "hlo.ipa", hlo, 0, |_| -> Result<(), BuildError> {
                let facts = GlobalFacts::build(&mut session)?;
                let fold_targets: Vec<RoutineId> = match &targets {
                    Some(t) => t.iter().copied().collect(),
                    None => (0..session.n_routines())
                        .map(RoutineId::from_index)
                        .collect(),
                };
                fold_globals(&mut session, &facts, &fold_targets)?;
                session.unload_all()?;
                Ok(())
            })?;

            let mut inline_opts = options.inline.clone();
            inline_opts.targets = targets;
            if db.is_none() {
                inline_opts.small_callee_il = inline_opts.small_callee_il.max(80);
            }
            let clone_opts = db.is_some().then(|| CloneOptions {
                min_callee_il: inline_opts.hot_callee_il,
                targets: inline_opts.targets.clone(),
                ..CloneOptions::default()
            });

            let cplan = span(tracer, "hlo.partition", hlo, 0, |_| {
                plan_clusters(&mut session, Some(&inline_opts), clone_opts.as_ref())
            })?;
            let pstats = cplan.stats();
            report.clusters = pstats;
            counts.clusters = pstats.clusters;
            counts.largest_cluster = pstats.largest;
            counts.cross_edges = pstats.cross_edges;

            let config = session.loader_config();
            let n = cplan.inputs().len();
            let outcomes = span(
                tracer,
                "hlo.inline",
                hlo,
                0,
                |inl| -> Result<_, BuildError> {
                    if inline_opts.op_limit.is_some() || jobs <= 1 {
                        // The driver's sequential path threads one op
                        // budget through the clusters in index order.
                        let mut remaining = inline_opts.op_limit;
                        let mut outcomes = Vec::with_capacity(n);
                        for i in 0..n {
                            let outcome = span(tracer, "hlo.run_cluster", inl, 0, |_| {
                                run_cluster(
                                    &session.program,
                                    &cplan,
                                    i,
                                    &config,
                                    Some(&inline_opts),
                                    clone_opts.as_ref(),
                                    remaining,
                                    &options.telemetry,
                                )
                            })?;
                            if let Some(r) = remaining.as_mut() {
                                *r = r.saturating_sub(outcome.inline_stats.inlines);
                            }
                            outcomes.push(outcome);
                        }
                        Ok(outcomes)
                    } else {
                        let program = &session.program;
                        run_jobs(n, jobs, |worker, i| {
                            span(tracer, "hlo.run_cluster", inl, worker + 1, |_| {
                                run_cluster(
                                    program,
                                    &cplan,
                                    i,
                                    &config,
                                    Some(&inline_opts),
                                    clone_opts.as_ref(),
                                    None,
                                    &options.telemetry,
                                )
                            })
                        })
                        .into_iter()
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(BuildError::from)
                    }
                },
            )?;
            let (inline_stats, clone_stats) = span(tracer, "hlo.merge", hlo, 0, |_| {
                merge_outcomes(&mut session, &cplan, outcomes)
            })?;
            counts.inlines = inline_stats.inlines;
            counts.considered = inline_stats.considered;
            counts.clones = clone_stats.clones;

            let (dead, arcs) = span(
                tracer,
                "hlo.callgraph",
                hlo,
                0,
                |_| -> Result<_, BuildError> {
                    let graph = CallGraph::build(&mut session)?;
                    let reach = graph.reachable_from(main);
                    let dead: Vec<RoutineId> = (0..session.n_routines())
                        .map(RoutineId::from_index)
                        .filter(|r| !reach[r.index()])
                        .collect();
                    session.record_dead_routines(dead.len() as u64);
                    let arcs = options.pbo.then(|| {
                        let mut agg: BTreeMap<(RoutineId, RoutineId), u64> = BTreeMap::new();
                        for e in &graph.edges {
                            *agg.entry((e.caller, e.callee)).or_insert(0) += e.count;
                        }
                        agg.into_iter()
                            .map(|((caller, callee), weight)| CallArc {
                                caller,
                                callee,
                                weight,
                            })
                            .collect::<Vec<_>>()
                    });
                    session.unload_all()?;
                    Ok((dead, arcs))
                },
            )?;
            counts.dead_routines = dead.len() as u64;
            counts.loader = session.loader_stats();
            report.hlo = session.stats();
            report.loader = counts.loader;
            report.peak_memory = session.memory();
            counts.hlo_work = inline_stats.inlines * 200
                + inline_stats.considered
                + clone_stats.clones * 150
                + counts.loader.work_units;
            let (program, bodies, symtabs, maintained) =
                span(tracer, "hlo.write_out", hlo, 0, |_| session.into_parts())?;
            Ok((program, bodies, symtabs, maintained, dead, arcs))
        })?
    } else {
        let n = unit.bodies.len();
        (
            unit.program,
            unit.bodies,
            unit.symtabs,
            vec![None; n],
            Vec::new(),
            None,
        )
    };

    let layout = GlobalLayout::new(&program);
    let effort = match options.level {
        OptLevel::O1 => OptEffort::O1,
        _ => OptEffort::O2,
    };
    let layers = if options.layered {
        db.map(|db| layered_levels(&program, db, 0.95))
    } else {
        None
    };
    let dead_set: BTreeSet<usize> = dead.iter().map(|r| r.index()).collect();
    let lowered: Vec<LoweredRoutine> = span(tracer, "llo", parent, 0, |llo| {
        run_jobs(bodies.len(), jobs, |worker, i| {
            let body = &bodies[i];
            let rid = RoutineId::from_index(i);
            let name = program.name(program.routine(rid).name).to_owned();
            if dead_set.contains(&i) {
                return LoweredRoutine {
                    name,
                    code: vec![MInstr::Ret { value: None }],
                    frame_slots: 0,
                    probes: Vec::new(),
                    shape: shape_of(body),
                    llo_work_bytes: 0,
                    il_after_opt: 0,
                };
            }
            let block_counts = if options.pbo {
                match &maintained[i] {
                    Some(c) => Some(c.clone()),
                    None => db.and_then(|db| correlated_counts(db, &name, body)),
                }
            } else {
                None
            };
            let routine_effort = match &layers {
                Some(layers) if layers.get(&rid) == Some(&OptLayer::Minimal) => OptEffort::O1,
                _ => effort,
            };
            let llo_opts = LloOptions {
                effort: OptEffortOpt(routine_effort),
                instrument: options.instrument,
                block_counts,
            };
            span(tracer, "llo.lower_routine", llo, worker + 1, |_| {
                lower_routine(rid, body, &program, &layout, &llo_opts)
            })
        })
    });
    for (i, lr) in lowered.iter().enumerate() {
        if !dead_set.contains(&i) {
            counts.llo_routines += 1;
        }
        counts.llo_peak_bytes = counts.llo_peak_bytes.max(lr.llo_work_bytes as u64);
        counts.llo_work += u64::from(lr.il_after_opt) * 3 + (lr.llo_work_bytes as u64) / 256;
    }
    report.cmo_modules = counts.cmo_modules as usize;
    report.cmo_loc = counts.cmo_loc;
    report.llo_peak_bytes = counts.llo_peak_bytes as usize;
    report.compile_work = counts.hlo_work + counts.llo_work;

    let arcs = match o4_arcs {
        Some(arcs) => Some(arcs),
        None if options.pbo => db.map(|db| profile_arcs(&program, &bodies, db)),
        None => None,
    };
    let image = span(tracer, "link.assemble", parent, 0, |_| {
        assemble(
            &program,
            lowered,
            &symtabs,
            &layout,
            &LinkOptions {
                arcs,
                dead,
                telemetry: options.telemetry.clone(),
            },
        )
    });
    counts.image_instrs = image.code_size() as u64;
    report.image_instrs = image.code_size();
    report.phases = options.telemetry.phases();
    Ok((BuildOutput { image, report }, counts))
}

/// Checks the replica against the real driver for `options` at `-j1`
/// and `-j2`: equal image bytes, unified report, and run checksum on
/// `input`.
///
/// # Errors
///
/// Describes the first disagreement, or a build that failed.
pub fn guard(
    modules: &[(String, String)],
    options: &BuildOptions,
    input: &[i64],
) -> Result<(), String> {
    for jobs in [1, 2] {
        let opts = options.clone().with_jobs(jobs);
        let mut cc = Compiler::new();
        cc.add_sources(modules, jobs)
            .map_err(|e| format!("driver frontend: {e}"))?;
        let real = cc.build(&opts).map_err(|e| format!("driver build: {e}"))?;
        let (replica, _) = build(modules, &opts, None, 0).map_err(|e| format!("replica: {e}"))?;
        if replica.image.to_bytes() != real.image.to_bytes() {
            return Err(format!(
                "replica image differs from the driver's at -j{jobs}"
            ));
        }
        if replica.compile_report() != real.compile_report() {
            return Err(format!(
                "replica report differs from the driver's at -j{jobs}"
            ));
        }
        let run = |img: &MachineImage| {
            cmo_vm::run(img, input, &cmo_vm::RunConfig::default())
                .map(|r| r.checksum)
                .map_err(|e| format!("run at -j{jobs}: {e}"))
        };
        if run(&replica.image)? != run(&real.image)? {
            return Err(format!("replica run checksum differs at -j{jobs}"));
        }
    }
    Ok(())
}
