//! Records the compiler and the compiled target features, so every
//! result file can say what produced its numbers without spawning a
//! process at run time.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    let features = std::env::var("CARGO_CFG_TARGET_FEATURE").unwrap_or_default();
    println!("cargo:rustc-env=BENCH_TARGET_FEATURES={features}");
    println!("cargo:rerun-if-changed=build.rs");
}
