//! Embeds the stamp of the source tree the binary is built from (see
//! `src/stamp.rs`), so a binary older than the checked-out sources is
//! refused.

use std::path::PathBuf;

#[path = "src/stamp.rs"]
mod stamp;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.parent().expect("perfbench sits in the repository root");
    for rel in stamp::ROOTS {
        println!("cargo:rerun-if-changed={}", root.join(rel).display());
    }
    let stamp = stamp::tree_stamp(root).expect("the source tree is readable");
    println!("cargo:rustc-env=PERFBENCH_TREE_STAMP={stamp}");
}
