//! Memory growth of a ranged slab load, in its own test binary:
//! `VmHWM` is a process-wide high-water mark, so sharing a binary with
//! tests that build graphs concurrently would poison the measurement.
//! The slab is written by the `louvain` binary in a child process, so
//! no heap the builder freed is lying resident here for the load to
//! reuse unseen.

use distributed_louvain::store::{load_rank, peek_header};

/// Peak-RSS growth a p=1 ranged load may add per arc. The rows it
/// returns are 12 B per arc (a `u32` target and an `f64` weight); the
/// offsets add 8 B per vertex and the read buffer one chunk. A load
/// that holds a second copy of either section while it decodes the
/// other, or widens the targets to 8 B, peaks at 16 B per arc or more
/// and fails this bound.
const MAX_GROWTH_BYTES_PER_ARC: f64 = 16.0;

/// Current resident set (`VmRSS`), in bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<u64>().ok())
        .expect("VmRSS line in /proc/self/status");
    kib * 1024
}

#[test]
fn p1_ranged_load_holds_its_rows_once() {
    let dir = std::env::temp_dir().join(format!("louvain-load-rss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rmat_s16.slab");
    let generate = std::process::Command::new(env!("CARGO_BIN_EXE_louvain"))
        .args([
            "generate", "--kind", "rmat", "--n", "65536", "--seed", "5", "--out",
        ])
        .arg(&path)
        .output()
        .expect("run louvain generate");
    assert!(generate.status.success(), "{generate:?}");
    let arcs = peek_header(&path).expect("slab header").num_arcs;

    // Writing 5 resets VmHWM to the current RSS, so the peak read after
    // the load is the load's own.
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!("skipped: cannot reset VmHWM through /proc/self/clear_refs: {e}");
        return;
    }
    let before = rss_bytes();
    let slice = load_rank(&path, 0, 1).expect("ranged load");
    let peak = louvain_obs::peak_rss_bytes();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(slice.local.num_local_arcs() as u64, arcs);
    let per_arc = peak.saturating_sub(before) as f64 / arcs as f64;
    eprintln!("{arcs} arcs: RSS {before} B before, peak {peak} B, growth {per_arc:.1} B/arc");
    assert!(
        per_arc < MAX_GROWTH_BYTES_PER_ARC,
        "a ranged load grew the peak RSS by {per_arc:.1} B per arc (bound {MAX_GROWTH_BYTES_PER_ARC})"
    );
}
