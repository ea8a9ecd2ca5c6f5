//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the run's accounting and each metric by name with its unit,
//! then, as the last line of standard output, one JSON object with
//! exactly `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::report::result_line;
use perfbench::{Args, Scale};

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!("usage: perfbench --workload fingerprint|recognize|serve|native --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args, Scale::FULL, process_start) {
        Ok(outcome) => {
            for why in &outcome.problems {
                eprintln!("perfbench: failed check: {why}");
            }
            println!("# {}", outcome.accounting);
            for m in &outcome.metrics {
                println!("# {:<36} {:>18.6} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}
