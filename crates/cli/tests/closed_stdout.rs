//! `circ` behaves like a Unix filter when its reader quits early: a
//! closed stdout pipe (`circ batch ... | head -c 100`) is not a crash.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A batch whose `--json` report is far larger than a pipe buffer, so
/// the report is still being written when the reader goes away: the
/// write that follows must see the closed pipe. The command must still
/// finish quietly with its verdict exit code.
#[test]
fn a_reader_that_quits_early_gets_no_panic() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("closed-stdout");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/atomic_counter.nesl");
    std::fs::copy(model, dir.join("a.nesl")).unwrap();
    let entries = vec!["\"a.nesl\""; 200].join(",");
    let manifest = dir.join("many.json");
    std::fs::write(&manifest, format!("[{entries}]")).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_circ"))
        .arg("batch")
        .arg(&manifest)
        .arg("--json")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn circ");
    let mut stdout = child.stdout.take().unwrap();
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).expect("the report starts");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for circ");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "every copy is safe: {stderr}");
}
