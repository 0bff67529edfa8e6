//! The per-layer metrics of the traced run.
//!
//! Every workload reports every metric, so a layer a workload bypasses
//! reads 0 there. Which end-to-end metric each layer metric should
//! move, on which workload, is written down in README.md.

use std::collections::BTreeMap;

use crate::decor::OpStat;
use crate::replica::StageCounts;
use crate::stats::ratio;
use crate::trace::Totals;

/// Name, unit and direction of every per-layer metric, in print order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("frontend.busy_s", "s", "lower"),
    ("frontend.modules", "count", "lower"),
    ("frontend.lines_per_s", "1/s", "higher"),
    ("ir.link_s", "s", "lower"),
    ("select.busy_s", "s", "lower"),
    ("select.cmo_modules", "count", "lower"),
    ("select.cmo_loc_frac", "frac", "lower"),
    ("hlo.wall_s", "s", "lower"),
    ("hlo.self_s", "s", "lower"),
    ("hlo.read_in_s", "s", "lower"),
    ("hlo.ipa_s", "s", "lower"),
    ("hlo.partition_s", "s", "lower"),
    ("hlo.inline_s", "s", "lower"),
    ("hlo.inline_busy_frac", "frac", "higher"),
    ("hlo.merge_s", "s", "lower"),
    ("hlo.callgraph_s", "s", "lower"),
    ("hlo.write_out_s", "s", "lower"),
    ("hlo.clusters", "count", "higher"),
    ("hlo.largest_cluster", "count", "lower"),
    ("hlo.cross_edges", "count", "lower"),
    ("hlo.inlines", "count", "higher"),
    ("hlo.inline_accept_frac", "frac", "higher"),
    ("hlo.clones", "count", "higher"),
    ("hlo.dead_routines", "count", "higher"),
    ("hlo.work_per_ms", "1/ms", "higher"),
    ("naim.compactions", "count", "lower"),
    ("naim.uncompactions", "count", "lower"),
    ("naim.offload_writes", "count", "lower"),
    ("naim.offload_reads", "count", "lower"),
    ("naim.bytes_offloaded", "bytes", "lower"),
    ("naim.fetch_work_units", "count", "lower"),
    ("naim.work_units", "count", "lower"),
    ("naim.pool_hit_frac", "frac", "higher"),
    ("naim.work_per_hlo_ms", "1/ms", "higher"),
    ("llo.busy_s", "s", "lower"),
    ("llo.wall_s", "s", "lower"),
    ("llo.self_s", "s", "lower"),
    ("llo.busy_frac", "frac", "higher"),
    ("llo.routines", "count", "lower"),
    ("llo.peak_bytes", "bytes", "lower"),
    ("llo.work_per_ms", "1/ms", "higher"),
    ("link.assemble_s", "s", "lower"),
    ("link.image_instrs", "count", "lower"),
    ("vm.run_s", "s", "lower"),
    ("vm.cycles_per_s", "1/s", "higher"),
    ("vm.train_run_s", "s", "lower"),
    ("cache.open_s", "s", "lower"),
    ("cache.frontend_s", "s", "lower"),
    ("cache.build_s", "s", "lower"),
    ("cache.frontend_hit_frac", "frac", "higher"),
    ("cache.build_hit_frac", "frac", "higher"),
    ("cache.retained_hits", "count", "higher"),
    ("cache.dead_bytes", "bytes", "lower"),
    ("storage.read_n", "count", "lower"),
    ("storage.read_s", "s", "lower"),
    ("storage.read_bytes", "bytes", "lower"),
    ("storage.write_n", "count", "lower"),
    ("storage.write_s", "s", "lower"),
    ("storage.write_bytes", "bytes", "lower"),
    ("storage.append_n", "count", "lower"),
    ("storage.append_s", "s", "lower"),
    ("storage.append_bytes", "bytes", "lower"),
    ("storage.read_at_n", "count", "lower"),
    ("storage.read_at_s", "s", "lower"),
    ("storage.read_at_bytes", "bytes", "lower"),
    ("storage.map_n", "count", "lower"),
    ("storage.map_s", "s", "lower"),
    ("storage.map_bytes", "bytes", "lower"),
    ("storage.size_n", "count", "lower"),
    ("storage.size_s", "s", "lower"),
    ("storage.truncate_n", "count", "lower"),
    ("storage.truncate_s", "s", "lower"),
    ("storage.sync_n", "count", "lower"),
    ("storage.sync_s", "s", "lower"),
    ("storage.rename_n", "count", "lower"),
    ("storage.rename_s", "s", "lower"),
    ("storage.exists_n", "count", "lower"),
    ("storage.exists_s", "s", "lower"),
    ("storage.remove_n", "count", "lower"),
    ("storage.remove_s", "s", "lower"),
    ("storage.failures", "count", "lower"),
    ("remote.exchanges", "count", "lower"),
    ("remote.round_trip_s", "s", "lower"),
    ("remote.get_n", "count", "lower"),
    ("remote.get_s", "s", "lower"),
    ("remote.put_n", "count", "lower"),
    ("remote.put_s", "s", "lower"),
    ("remote.del_n", "count", "lower"),
    ("remote.del_s", "s", "lower"),
    ("remote.get_hit_frac", "frac", "higher"),
    ("remote.fetched_bytes", "bytes", "lower"),
    ("remote.warm_fetched_bytes", "bytes", "lower"),
    ("remote.pushed_bytes", "bytes", "lower"),
    ("remote.retries", "count", "lower"),
    ("remote.failures", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// Storage methods timed by the decorator, and whether they move bytes.
const STORAGE_METHODS: &[(&str, bool)] = &[
    ("read", true),
    ("write", true),
    ("append", true),
    ("read_at", true),
    ("map", true),
    ("size", false),
    ("truncate", false),
    ("sync", false),
    ("rename", false),
    ("exists", false),
    ("remove", false),
];

/// Per-layer values, every one present from the start at 0.
#[derive(Debug)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect(),
        }
    }
}

fn key(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(n, _, _)| *n)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
}

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// On a name missing from [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        let v = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.values.insert(key(name), v);
    }

    /// One metric's value.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values[key(name)]
    }

    /// Every metric with its unit, in [`PER_LAYER`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .map(|&(n, unit, _)| (n, self.values[n], unit))
    }

    /// Per-op span times: `ops` traced ops ran `jobs` workers on an app
    /// whose modules average `lines_per_module` source lines.
    pub fn spans(&mut self, t: &Totals, ops: usize, jobs: usize, lines_per_module: f64) {
        let ops = ops.max(1) as f64;
        let per_op = |name: &str| t.busy_s(name) / ops;
        let fe = per_op("frontend.compile_module");
        let modules = t.count("frontend.compile_module") as f64 / ops;
        self.set("frontend.busy_s", fe);
        self.set("frontend.modules", modules);
        self.set(
            "frontend.lines_per_s",
            ratio(modules * lines_per_module, fe),
        );
        self.set("ir.link_s", per_op("ir.link_objects"));
        self.set("select.busy_s", per_op("select.coarse_select"));
        self.set("hlo.wall_s", per_op("hlo"));
        self.set("hlo.self_s", t.self_s("hlo") / ops);
        for (metric, span) in [
            ("hlo.read_in_s", "hlo.read_in"),
            ("hlo.ipa_s", "hlo.ipa"),
            ("hlo.partition_s", "hlo.partition"),
            ("hlo.inline_s", "hlo.inline"),
            ("hlo.merge_s", "hlo.merge"),
            ("hlo.callgraph_s", "hlo.callgraph"),
            ("hlo.write_out_s", "hlo.write_out"),
            ("link.assemble_s", "link.assemble"),
            ("vm.run_s", "vm.run"),
            ("vm.train_run_s", "vm.train_run"),
            ("cache.open_s", "cache.open"),
            ("cache.frontend_s", "cache.frontend"),
            ("cache.build_s", "cache.build"),
        ] {
            self.set(metric, per_op(span));
        }
        let jobs = jobs as f64;
        self.set(
            "hlo.inline_busy_frac",
            ratio(t.busy_s("hlo.run_cluster"), t.busy_s("hlo.inline") * jobs),
        );
        let llo_busy = per_op("llo.lower_routine");
        let llo_wall = per_op("llo");
        self.set("llo.busy_s", llo_busy);
        self.set("llo.wall_s", llo_wall);
        self.set("llo.self_s", t.self_s("llo") / ops);
        self.set("llo.busy_frac", ratio(llo_busy, llo_wall * jobs));
    }

    /// Means of the layer counters over the builds traced ops ran.
    /// Needs `hlo.wall_s` and `llo.wall_s` set first: the work-to-wall
    /// ratios divide by them.
    pub fn stage_counts(&mut self, counts: &[StageCounts]) {
        if counts.is_empty() {
            return;
        }
        let n = counts.len() as f64;
        let mean = |f: &dyn Fn(&StageCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64 / n;
        self.set("select.cmo_modules", mean(&|c| c.cmo_modules));
        self.set(
            "select.cmo_loc_frac",
            ratio(mean(&|c| c.cmo_loc), mean(&|c| c.total_loc)),
        );
        self.set("hlo.clusters", mean(&|c| c.clusters));
        self.set("hlo.largest_cluster", mean(&|c| c.largest_cluster));
        self.set("hlo.cross_edges", mean(&|c| c.cross_edges));
        self.set("hlo.inlines", mean(&|c| c.inlines));
        self.set(
            "hlo.inline_accept_frac",
            ratio(mean(&|c| c.inlines), mean(&|c| c.considered)),
        );
        self.set("hlo.clones", mean(&|c| c.clones));
        self.set("hlo.dead_routines", mean(&|c| c.dead_routines));
        let hlo_ms = self.get("hlo.wall_s") * 1e3;
        self.set("hlo.work_per_ms", ratio(mean(&|c| c.hlo_work), hlo_ms));
        self.set("naim.compactions", mean(&|c| c.loader.compactions));
        self.set("naim.uncompactions", mean(&|c| c.loader.uncompactions));
        self.set("naim.offload_writes", mean(&|c| c.loader.offload_writes));
        self.set("naim.offload_reads", mean(&|c| c.loader.offload_reads));
        self.set("naim.bytes_offloaded", mean(&|c| c.loader.bytes_offloaded));
        self.set(
            "naim.fetch_work_units",
            mean(&|c| c.loader.fetch_work_units),
        );
        let naim_work = mean(&|c| c.loader.work_units);
        self.set("naim.work_units", naim_work);
        let hits = mean(&|c| c.loader.hits);
        let expansions = mean(&|c| c.loader.uncompactions + c.loader.cache_rescues);
        self.set("naim.pool_hit_frac", ratio(hits, hits + expansions));
        self.set("naim.work_per_hlo_ms", ratio(naim_work, hlo_ms));
        self.set("llo.routines", mean(&|c| c.llo_routines));
        self.set(
            "llo.peak_bytes",
            counts.iter().map(|c| c.llo_peak_bytes).max().unwrap_or(0) as f64,
        );
        self.set(
            "llo.work_per_ms",
            ratio(mean(&|c| c.llo_work), self.get("llo.wall_s") * 1e3),
        );
        self.set("link.image_instrs", mean(&|c| c.image_instrs));
    }

    /// Storage decorator totals, per op.
    pub fn storage(&mut self, stats: &BTreeMap<&'static str, OpStat>, ops: usize) {
        let ops = ops.max(1) as f64;
        let mut failures = 0;
        for &(method, moves_bytes) in STORAGE_METHODS {
            let s = stats.get(method).copied().unwrap_or_default();
            failures += s.failures;
            self.set(&format!("storage.{method}_n"), s.n as f64 / ops);
            self.set(&format!("storage.{method}_s"), s.nanos as f64 * 1e-9 / ops);
            if moves_bytes {
                self.set(&format!("storage.{method}_bytes"), s.bytes as f64 / ops);
            }
        }
        self.set("storage.failures", failures as f64);
    }

    /// Transport decorator totals, per op.
    pub fn transport(&mut self, stats: &BTreeMap<&'static str, OpStat>, ops: usize) {
        let ops = ops.max(1) as f64;
        let get = |op: &str| stats.get(op).copied().unwrap_or_default();
        let (mut n, mut nanos) = (0, 0);
        for (op, s) in stats {
            if *op != "get_hit" {
                n += s.n;
                nanos += s.nanos;
            }
        }
        self.set("remote.exchanges", n as f64 / ops);
        self.set("remote.round_trip_s", nanos as f64 * 1e-9 / ops);
        for op in ["get", "put", "del"] {
            self.set(&format!("remote.{op}_n"), get(op).n as f64 / ops);
            self.set(&format!("remote.{op}_s"), get(op).nanos as f64 * 1e-9 / ops);
        }
        self.set(
            "remote.get_hit_frac",
            ratio(get("get_hit").n as f64, get("get").n as f64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert!(names.len() <= 128);
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn every_storage_metric_is_declared() {
        let mut l = Layers::default();
        l.storage(&BTreeMap::new(), 1);
        l.transport(&BTreeMap::new(), 1);
    }
}
