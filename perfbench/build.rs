//! Stamps the binary with the compiler version, build profile, git revision
//! (when built from a git checkout) and a digest of the library sources, so
//! every result says which code and toolchain produced it.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(Stdio::null()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.parent().expect("the benchmark lives inside the repository").to_path_buf();

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    let ceiling = root.parent().unwrap_or(&root).to_path_buf();
    let rev = output(
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "--short=12", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
    .unwrap_or_else(|| "none".into());

    // FNV-1a over the relative path and contents of every library source.
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        collect(&root.join(dir), &mut files);
        println!("cargo:rerun-if-changed={}", root.join(dir).display());
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file).to_string_lossy().into_owned();
        for byte in rel.bytes().chain(std::fs::read(file).unwrap_or_default()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    if root.join(".git").exists() {
        println!("cargo:rerun-if-changed={}", root.join(".git/HEAD").display());
        println!("cargo:rerun-if-changed={}", root.join(".git/refs").display());
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={hash:016x}");
}
