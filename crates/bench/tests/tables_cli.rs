//! The `tables` binary's command line: a typo in a subcommand or a flag
//! must fail loudly (exit 2, the known alternatives on stderr) instead
//! of running with defaults and exiting 0.

use std::process::Command;

/// Run `tables args`, require exit 2 before anything ran, and return
/// stderr.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("run tables");
    assert_eq!(out.status.code(), Some(2), "typo must not exit 0");
    assert!(out.stdout.is_empty(), "no subcommand ran");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_subcommand_exits_2_and_lists_the_known_ones() {
    // Removed subcommands must fail like typos.
    for typo in ["ckptparty", "speedup", "community", "sbparity"] {
        let stderr = usage_error(&[typo]);
        assert!(
            stderr.contains(&format!("unknown subcommand '{typo}'")),
            "{stderr}"
        );
        for known in ["ckptparity", "fleet", "all"] {
            assert!(stderr.contains(known), "{known} missing from: {stderr}");
        }
    }
}

#[test]
fn unknown_flag_exits_2_and_lists_the_known_ones() {
    let stderr = usage_error(&["fleet", "--host=50"]);
    assert!(stderr.contains("unknown flag '--host=50'"), "{stderr}");
    for known in ["--hosts=N", "--shards=K", "--seed=S", "--out=F", "--full"] {
        assert!(stderr.contains(known), "{known} missing from: {stderr}");
    }
}
