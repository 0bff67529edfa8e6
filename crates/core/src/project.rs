//! `make`-compatible incremental builds (§6.1).
//!
//! "Our system works with existing processes by maintaining all
//! persistent information (save for profile data) in object files, and
//! rebuilding program-wide information at optimization time." A
//! [`Project`] models that flow: each source module compiles to an IL
//! object *file image* (bytes); editing one module recompiles only
//! that module's object; every build re-reads the objects and rebuilds
//! program-wide information from scratch. The trade-off the paper
//! accepts — no persistent program database, hence no
//! recompilation-avoidance analysis [2] — is visible here as the full
//! relink on every build.

use crate::driver::{build_objects, BuildError, BuildOptions, BuildOutput};
use cmo_ir::IlObject;
use cmo_naim::ContentHash;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Entry {
    hash: ContentHash,
    object_bytes: Vec<u8>,
}

/// An incremental project: module sources with cached object files.
#[derive(Debug, Clone, Default)]
pub struct Project {
    modules: BTreeMap<String, Entry>,
    recompiles: u64,
}

impl Project {
    /// An empty project.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or updates a module source. Recompiles (frontend → IL
    /// object) only when the source actually changed, like `make` on a
    /// touched file. Returns `true` if a recompile happened.
    ///
    /// # Errors
    ///
    /// Returns frontend diagnostics for the changed module.
    pub fn update_source(&mut self, module: &str, source: &str) -> Result<bool, BuildError> {
        let hash = ContentHash::of(source.as_bytes());
        if let Some(e) = self.modules.get(module) {
            if e.hash == hash {
                return Ok(false);
            }
        }
        let obj = cmo_frontend::compile_module(module, source)?;
        self.modules.insert(
            module.to_owned(),
            Entry {
                hash,
                object_bytes: obj.to_bytes(),
            },
        );
        self.recompiles += 1;
        Ok(true)
    }

    /// Number of frontend recompiles performed so far.
    #[must_use]
    pub fn recompiles(&self) -> u64 {
        self.recompiles
    }

    /// Number of modules in the project.
    #[must_use]
    pub fn n_modules(&self) -> usize {
        self.modules.len()
    }

    /// Reads every cached object file back (exactly what the linker
    /// does when it encounters IL objects, §3).
    ///
    /// # Panics
    ///
    /// Panics if a cached object image is corrupt, which would indicate
    /// an internal bug — the images were produced by this process.
    #[must_use]
    pub fn objects(&self) -> Vec<IlObject> {
        self.modules
            .values()
            .map(|e| IlObject::from_bytes(&e.object_bytes).expect("self-produced object"))
            .collect()
    }

    /// Links and optimizes the whole project at the given options.
    ///
    /// # Errors
    ///
    /// See [`crate::Compiler::build`].
    pub fn build(&self, options: &BuildOptions) -> Result<BuildOutput, BuildError> {
        build_objects(self.objects(), options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::BuildOptions;

    #[test]
    fn unchanged_sources_do_not_recompile() {
        let mut p = Project::new();
        assert!(p
            .update_source("a", "fn main() -> int { return 1; }")
            .unwrap());
        assert!(!p
            .update_source("a", "fn main() -> int { return 1; }")
            .unwrap());
        assert_eq!(p.recompiles(), 1);
    }

    #[test]
    fn editing_one_module_recompiles_only_it() {
        let mut p = Project::new();
        p.update_source("util", "fn f() -> int { return 10; }")
            .unwrap();
        p.update_source(
            "app",
            "extern fn f() -> int;\nfn main() -> int { return f(); }",
        )
        .unwrap();
        assert_eq!(p.recompiles(), 2);
        let out1 = p.build(&BuildOptions::o2()).unwrap();
        assert_eq!(out1.run(&[]).unwrap().returned, 10);

        // Edit util only.
        p.update_source("util", "fn f() -> int { return 20; }")
            .unwrap();
        assert_eq!(p.recompiles(), 3, "app was not recompiled");
        let out2 = p.build(&BuildOptions::o2()).unwrap();
        assert_eq!(out2.run(&[]).unwrap().returned, 20);
    }

    #[test]
    fn objects_survive_the_byte_format() {
        let mut p = Project::new();
        p.update_source("m", "fn main() -> int { return 5; }")
            .unwrap();
        let objs = p.objects();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].module_name, "m");
    }

    #[test]
    fn frontend_errors_do_not_poison_the_cache() {
        let mut p = Project::new();
        p.update_source("m", "fn main() -> int { return 5; }")
            .unwrap();
        assert!(p.update_source("m", "fn main( -> int {").is_err());
        // The old object is still usable.
        let out = p.build(&BuildOptions::o2()).unwrap();
        assert_eq!(out.run(&[]).unwrap().returned, 5);
    }
}
