//! Usage errors in the experiment binaries exit 2 with an `error:` line,
//! never a panic.

use std::process::Command;

#[test]
fn table1_usage_errors_exit_2() {
    for args in [&["--no-such-flag"][..], &["--seed", "abc"], &["--seed"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(args)
            .output()
            .expect("spawn table1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
