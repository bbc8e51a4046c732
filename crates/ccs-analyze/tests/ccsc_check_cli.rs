//! The `ccsc-check` binary end to end on inputs with no tasks: each is
//! an error (`CCS009`, exit 1), never a clean report.

use std::process::Command;

#[test]
fn inputs_with_no_tasks_exit_1_with_ccs009() {
    let dir = std::env::temp_dir().join(format!("ccsc_check_empty_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (file, text) in [
        ("blank.csdfg", ""),
        ("comments.csdfg", "# no tasks here\n\n   # nor here\n"),
        ("spec.json", r#"{"nodes": [], "edges": []}"#),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_ccsc-check"))
            .arg(&path)
            .output()
            .unwrap();
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.status.code(), Some(1), "{file}: {text}");
        assert!(text.contains("CCS009"), "{file}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
