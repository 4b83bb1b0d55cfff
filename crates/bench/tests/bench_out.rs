//! `repro` writes the `specpersist/perfbench-v1` record only where
//! `--bench-out` points. A run without the flag must leave the working
//! directory alone: the committed `BENCH_6.json` trajectory record at
//! the repository root is not a scratch file.

use std::process::Command;

#[test]
fn the_perf_record_is_written_only_where_bench_out_points() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("spp-bench-out-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let profile = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["profile", "LL", "base", "--scale", "5000", "--seed", "1"])
            .args(["--jobs", "1"])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("run repro profile");
        assert!(
            out.status.success(),
            "profile must pass: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut left: Vec<_> = std::fs::read_dir(&dir)
            .expect("read scratch dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        left.sort();
        left
    };
    assert!(
        profile(&[]).is_empty(),
        "a run without --bench-out wrote a file"
    );
    assert_eq!(profile(&["--bench-out", "record.json"]), ["record.json"]);
    let doc = std::fs::read_to_string(dir.join("record.json")).expect("record written");
    assert!(doc.contains("\"schema\":\"specpersist/perfbench-v1\""));
    std::fs::remove_dir_all(&dir).expect("clean up");
}
