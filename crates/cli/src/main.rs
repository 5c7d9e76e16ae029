//! `mrbc` — generate graphs, compute betweenness centrality, validate
//! APSP bounds, tune batch sizes. Run `mrbc help` for usage.

use std::io::{ErrorKind, Write as _};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match mrbc_cli::args::parse(&argv, mrbc_cli::commands::SWITCHES) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", mrbc_cli::commands::USAGE);
            std::process::exit(2);
        }
    };
    match mrbc_cli::commands::run(&parsed) {
        Ok(report) => {
            let mut out = std::io::stdout().lock();
            if let Err(e) = out.write_all(report.as_bytes()).and_then(|()| out.flush()) {
                // A closed stdout (`mrbc info g | true`, or a supervisor
                // that is gone) means nobody wants the report; the work
                // itself is done, so end quietly.
                if e.kind() != ErrorKind::BrokenPipe {
                    eprintln!("error: cannot write the report: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.code);
        }
    }
}
