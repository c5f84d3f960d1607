//! End-to-end tests of the multi-process sharding pipeline: the real `repro`
//! binary, real loopback `repro worker` processes, real JSON over TCP.

use std::net::TcpStream;
use std::process::Command;

use timepiece_bench::LoopbackWorkers;
use timepiece_sched::Json;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn sharded_fig14_merges_reports_and_writes_json_rows() {
    let json_path =
        std::env::temp_dir().join(format!("timepiece-rows-{}.json", std::process::id()));
    let out = repro()
        .args(["fig14", "--bench", "spreach", "--max-k", "4", "--shards", "2", "--no-ms"])
        .args(["--json", json_path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // the plain-text sweep output is unchanged by --json/--shards
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("=== Fig. 14a — SpReach (Tp vs Ms) ==="), "{text}");
    assert!(text.contains("Tp total"), "{text}");

    // the JSON document has the promised row shape
    let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    std::fs::remove_file(&json_path).ok();
    assert_eq!(doc.get("shards").and_then(Json::as_usize), Some(2));
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 1, "one benchmark × one k");
    let row = &rows[0];
    assert_eq!(row.get("bench").and_then(Json::as_str), Some("SpReach"));
    assert_eq!(row.get("k").and_then(Json::as_usize), Some(4));
    assert_eq!(row.get("nodes").and_then(Json::as_usize), Some(20));
    let tp = row.get("tp").unwrap();
    assert_eq!(tp.get("outcome").and_then(Json::as_str), Some("verified"));
    assert!(tp.get("wall_secs").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(tp.get("median_secs").and_then(Json::as_f64).is_some());
    assert!(tp.get("p99_secs").and_then(Json::as_f64).is_some());
    assert_eq!(tp.get("shards").and_then(Json::as_usize), Some(2));
    assert_eq!(row.get("ms"), Some(&Json::Null), "--no-ms skips the baseline");
}

#[test]
fn file_scenarios_shard_across_loopback_workers() {
    // the workers are started with the same --scenario-file, so they can
    // rebuild the compiled instance the coordinator names
    let json_path =
        std::env::temp_dir().join(format!("timepiece-file-rows-{}.json", std::process::id()));
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios/sp_reach.toml");
    let out = repro()
        .args(["fig14", "--scenario-file", scenario, "--shards", "2", "--no-ms"])
        .args(["--json", json_path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    std::fs::remove_file(&json_path).ok();
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 1, "a file scenario is one row at its native size");
    let tp = rows[0].get("tp").unwrap();
    assert_eq!(tp.get("outcome").and_then(Json::as_str), Some("verified"), "{doc}");
    assert_eq!(tp.get("shards").and_then(Json::as_usize), Some(2), "{doc}");
}

#[test]
fn usage_lists_exactly_the_supported_subcommands() {
    // sharding has one runtime (`worker`) and one planner, so the table
    // offers no separate shard process or plan preview
    let out = repro().arg("--help").output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    let subcommands: Vec<&str> = usage
        .lines()
        .skip_while(|line| *line != "subcommands:")
        .skip(1)
        .take_while(|line| !line.is_empty())
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(
        subcommands,
        [
            "fig1", "fig3", "fig13", "fig14", "table1", "table2", "table3", "wan", "keyideas",
            "infer", "arena", "profile", "trend", "serve", "ask", "soak", "worker", "fuzz",
            "check", "export", "all"
        ],
        "{usage}"
    );
}

#[test]
fn loopback_workers_die_with_a_panicking_coordinator() {
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_repro"));
    let mut addrs = Vec::new();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let workers = LoopbackWorkers::spawn(exe, 2, &[]).expect("workers start");
        addrs = workers.addrs().to_vec();
        for addr in &addrs {
            TcpStream::connect(addr).expect("a spawned worker listens");
        }
        panic!("coordinator bug mid-sweep");
    }));
    assert!(panicked.is_err());
    assert_eq!(addrs.len(), 2);
    // unwinding dropped the set, which killed and reaped both children:
    // nothing listens on their ports any more
    for addr in &addrs {
        assert!(TcpStream::connect(addr).is_err(), "worker at {addr} outlived the coordinator");
    }
}

#[test]
fn halted_loopback_workers_exit_cleanly() {
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_repro"));
    let workers = LoopbackWorkers::spawn(exe, 2, &[]).expect("workers start");
    let addrs = workers.addrs().to_vec();
    assert_eq!(workers.halt(), Vec::<String>::new(), "both workers exit 0 on halt");
    for addr in &addrs {
        assert!(TcpStream::connect(addr).is_err(), "worker at {addr} survived halt");
    }
}

#[test]
fn ks_flag_rejects_invalid_fattree_parameters() {
    for bad in ["3", "0", "4,7"] {
        let out = repro().args(["fig14", "--ks", bad]).output().expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "--ks {bad} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("even and >= 2"), "stderr for {bad}: {stderr}");
    }
}
