//! `cargo run -p sidco-lint [root]` — scan the workspace sources, print the
//! non-test library line count, and exit nonzero if any rule fires. See the
//! library docs for the rule list.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root_arg = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let root = Path::new(&root_arg);
    let scan = match sidco_lint::scan_workspace(root) {
        Ok(scan) => scan,
        Err(err) => {
            eprintln!("sidco-lint: failed to scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    for violation in &scan.violations {
        println!("{violation}");
    }
    let verdict = if scan.violations.is_empty() {
        println!("sidco-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("sidco-lint: {} violation(s)", scan.violations.len());
        ExitCode::FAILURE
    };
    println!(
        "sidco-lint: {} non-test library lines, {} test-only markers",
        scan.library_lines, scan.test_only_markers
    );
    verdict
}
