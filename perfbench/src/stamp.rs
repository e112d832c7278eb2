//! Where a result was measured: absolute times from different machines,
//! builds or sources are not comparable, so every result carries this.

use std::fs;
use std::path::Path;

/// Machine, build and source identity of a run.
pub fn stamp() -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // The program crates are built with their default features, which
    // are just `obs` (wall-clock instrumentation).
    format!(
        "threads_available={threads} cpu=\"{cpu}\" profile={profile} features=obs commit={} source={:016x}",
        commit(),
        source_digest()
    )
}

/// The checked-out commit when run from a git work tree, else `none`.
fn commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("none")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "none".into()),
    }
}

/// FNV-1a over the paths and bytes of every file under the program's
/// source directories, in path order: identifies the measured source
/// where no git metadata exists.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&fs::read(&f).unwrap_or_default());
    }
    h.0
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
