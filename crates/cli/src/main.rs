//! The `hetsort` command-line tool. See the library crate docs for the
//! subcommand and flag reference.

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match hetsort_cli::Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match hetsort_cli::run(&opts) {
        Ok(msg) => match writeln!(std::io::stdout().lock(), "{msg}") {
            Ok(()) => {}
            // A reader that stopped early (`hetsort help | head -1`) wanted
            // no more output: that is not a failure.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
            Err(e) => {
                eprintln!("error: cannot write output: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
