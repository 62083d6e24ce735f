//! The event path never reads the wall clock. Deadlock detection there is
//! structural; the only real-time budget belongs to the thread backend and
//! lives in `WaitSet`'s condvar branch. This reads the sources of the
//! blocking primitives and checks that their non-test code names no
//! `std::time` type, so a deadline cannot creep back in unnoticed.

use std::path::{Path, PathBuf};

const TIME_NAMES: [&str; 3] = ["Instant", "Duration", "std::time"];

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The non-test code of `path`: everything before its test module, with
/// `//` comments dropped.
fn code(path: &Path) -> String {
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let code = match src.split_once("#[cfg(test)]") {
        Some((code, rest)) => {
            assert!(
                rest.trim_start().starts_with("mod tests"),
                "{}: the first #[cfg(test)] must open the test module",
                path.display()
            );
            code
        }
        None => &src,
    };
    code.lines()
        .map(|l| l.split("//").next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\n")
}

fn time_names_in(text: &str) -> Vec<&'static str> {
    TIME_NAMES
        .into_iter()
        .filter(|n| text.contains(n))
        .collect()
}

#[test]
fn event_path_names_no_time_type() {
    let omp_dir = crates_dir().join("ompsim/src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&omp_dir)
        .expect("ompsim sources")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    assert!(files.len() >= 4, "found only {files:?} in ompsim/src");
    for f in [
        "runtime/src/rendezvous.rs",
        "mpisim/src/comm.rs",
        "mpisim/src/mailbox.rs",
        "mpisim/src/proc.rs",
    ] {
        files.push(crates_dir().join(f));
    }
    for f in &files {
        let names = time_names_in(&code(f));
        assert!(names.is_empty(), "{} names {names:?}", f.display());
    }
}

#[test]
fn only_the_thread_budget_setter_exposes_time_in_the_scheduler() {
    let code = code(&crates_dir().join("runtime/src/sched.rs"));
    assert!(
        !code.contains("Instant"),
        "the scheduler keeps no deadlines: its budget counts inactivity"
    );
    // A public item's signature runs from `pub` to its body or its end.
    let exposing: Vec<&str> = code
        .match_indices("pub ")
        .map(|(at, _)| {
            let sig = &code[at..];
            &sig[..sig.find(['{', ';', '}']).unwrap_or(sig.len())]
        })
        .filter(|sig| !time_names_in(sig).is_empty())
        .collect();
    assert_eq!(exposing.len(), 1, "public items naming time: {exposing:?}");
    assert!(
        exposing[0].starts_with("pub fn set_thread_budget("),
        "{exposing:?}"
    );
}
