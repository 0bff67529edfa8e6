//! Stamps the binary with the toolchain that built it, the commit its
//! sources came from when they sit in a git checkout, and in every case
//! a fingerprint of the compiler's sources, so a result names the code
//! it measured even outside git.

use std::path::Path;
use std::process::Command;

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// FNV-1a over every file's relative path and bytes, in sorted order.
fn fingerprint(root: &Path, dirs: &[&str]) -> u64 {
    let mut files = Vec::new();
    let mut stack: Vec<_> = dirs.iter().map(|d| root.join(d)).collect();
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            if let Ok(entries) = std::fs::read_dir(&path) {
                stack.extend(entries.flatten().map(|e| e.path()));
            }
        } else {
            files.push(path);
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in rel.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let commit = output_of("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_owned());
    let repo = Path::new("..");
    let sources = ["crates", "vendor", "Cargo.lock"];
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!(
        "cargo:rustc-env=PERFBENCH_TREE={:016x}",
        fingerprint(repo, &sources)
    );
    println!("cargo:rerun-if-changed=build.rs");
    for s in sources {
        println!("cargo:rerun-if-changed=../{s}");
    }
}
