//! The source-tree stamp: FNV-1a 64 over every source file's path
//! (relative to the repository root) and contents, in path order.
//!
//! `build.rs` includes this file to embed the stamp of the tree a binary is
//! built from; `perfbench stamp --check ROOT` recomputes it over a live tree
//! with the same code, so a binary older than its sources is refused.

use std::fs;
use std::io;
use std::path::Path;

/// The inputs of the benchmark's build, relative to the repository root.
pub const ROOTS: &[&str] = &[
    "Cargo.toml",
    "crates",
    "shims",
    "perfbench/Cargo.toml",
    "perfbench/build.rs",
    "perfbench/src",
];

fn collect(root: &Path, rel: &str, out: &mut Vec<String>) -> io::Result<()> {
    let path = root.join(rel);
    if path.is_dir() {
        let mut names = Vec::new();
        for entry in fs::read_dir(&path)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if !name.starts_with('.') && name != "target" {
                names.push(name);
            }
        }
        names.sort();
        for name in names {
            collect(root, &format!("{rel}/{name}"), out)?;
        }
    } else if path.is_file() {
        out.push(rel.to_owned());
    }
    Ok(())
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The stamp of the tree at `root`, as 16 hex digits.
pub fn tree_stamp(root: &Path) -> io::Result<String> {
    let mut files = Vec::new();
    for rel in ROOTS {
        collect(root, rel, &mut files)?;
    }
    files.sort();
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for rel in &files {
        fnv1a(&mut hash, rel.as_bytes());
        fnv1a(&mut hash, &[0]);
        fnv1a(&mut hash, &fs::read(root.join(rel))?);
        fnv1a(&mut hash, &[0]);
    }
    Ok(format!("{hash:016x}"))
}
