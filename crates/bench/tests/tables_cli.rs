//! The `tables` binary's subcommand dispatch: a typo must fail loudly
//! (exit 2, the known subcommands on stderr) instead of printing
//! nothing and exiting 0.

use std::process::Command;

#[test]
fn unknown_subcommand_exits_2_and_lists_the_known_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("ckptparty")
        .output()
        .expect("run tables");
    assert_eq!(out.status.code(), Some(2), "typo must not exit 0");
    assert!(out.stdout.is_empty(), "no subcommand ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown subcommand 'ckptparty'"),
        "{stderr}"
    );
    for known in ["ckptparity", "sbparity", "fleet", "all"] {
        assert!(stderr.contains(known), "{known} missing from: {stderr}");
    }
}
