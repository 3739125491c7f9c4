//! The benchmark's answer check must count a wrong answer as a failure
//! and make the command exit non-zero. `--inject-wrong-answer` corrupts
//! one reply before it is checked.

use flixd::json::{self, Json};
use std::process::Command;

#[test]
fn a_wrong_answer_is_counted_and_fails_the_run() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong-answer");
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let run = Command::new(env!("CARGO_BIN_EXE_flixbench"))
        .args(["--workload", "service_query", "--seed", "3"])
        .args(["--seconds", "1", "--trace", "0", "--inject-wrong-answer"])
        .current_dir(&dir)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(run.status.code(), Some(2), "{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(1),
        "{last}"
    );
    let attempted = result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    assert!(attempted > 1, "{last}");
}
