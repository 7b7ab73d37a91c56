//! The localization daemon binary.
//!
//! ```text
//! Usage: serve [--addr HOST:PORT] [--workers N] [--cache-capacity N]
//!              [--queue-capacity N] [--default-deadline-ms MS]
//!              [--max-deadline-ms MS] [--conflict-cap N]
//!              [--max-request-bytes N] [--read-timeout-ms MS]
//!              [--write-timeout-ms MS] [--store-dir DIR] [--no-restore]
//! ```
//!
//! Binds (default `127.0.0.1:7911`), prints the bound address on stdout and
//! serves until a client sends `{"op":"shutdown"}`, then drains every
//! accepted job and exits. See the `service` crate docs and the README's
//! "Running the localization service" and "Operating under overload"
//! sections for the wire protocol and the budget/robustness knobs.
//!
//! `--no-restore` skips the eager restore-on-boot scan of `--store-dir`:
//! the disk tier is consulted lazily per request instead (first repeat
//! request answers with `tier:"store"`), trading first-hit latency for an
//! instant boot. Each daemon needs its **own** `--store-dir`; a directory
//! already owned by a live daemon is refused at startup.

use service::{Server, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--cache-capacity N] \
         [--queue-capacity N] [--default-deadline-ms MS] [--max-deadline-ms MS] \
         [--conflict-cap N] [--max-request-bytes N] [--read-timeout-ms MS] \
         [--write-timeout-ms MS] [--store-dir DIR] [--no-restore]"
    );
    std::process::exit(2);
}

fn parse_count(value: Option<String>, flag: &str) -> usize {
    match value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        Some(n) => n,
        None => {
            eprintln!("{flag} needs a positive integer");
            usage();
        }
    }
}

fn parse_u64(value: Option<String>, flag: &str) -> u64 {
    match value
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&n| n >= 1)
    {
        Some(n) => n,
        None => {
            eprintln!("{flag} needs a positive integer");
            usage();
        }
    }
}

fn main() {
    let mut config = ServiceConfig {
        addr: "127.0.0.1:7911".to_string(),
        ..ServiceConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr,
                None => usage(),
            },
            "--workers" => config.workers = parse_count(args.next(), "--workers"),
            "--cache-capacity" => {
                config.cache_capacity = parse_count(args.next(), "--cache-capacity");
            }
            "--queue-capacity" => {
                config.queue_capacity = parse_count(args.next(), "--queue-capacity");
            }
            "--default-deadline-ms" => {
                config.default_deadline_ms = Some(parse_u64(args.next(), "--default-deadline-ms"));
            }
            "--max-deadline-ms" => {
                config.max_deadline_ms = Some(parse_u64(args.next(), "--max-deadline-ms"));
            }
            "--conflict-cap" => {
                config.conflict_cap = Some(parse_u64(args.next(), "--conflict-cap"));
            }
            "--max-request-bytes" => {
                config.max_request_bytes = parse_count(args.next(), "--max-request-bytes");
            }
            "--read-timeout-ms" => {
                config.read_timeout_ms = Some(parse_u64(args.next(), "--read-timeout-ms"));
            }
            "--write-timeout-ms" => {
                config.write_timeout_ms = Some(parse_u64(args.next(), "--write-timeout-ms"));
            }
            "--store-dir" => match args.next() {
                Some(dir) => config.store_dir = Some(dir),
                None => usage(),
            },
            "--no-restore" => config.restore_on_boot = false,
            _ => usage(),
        }
    }

    let workers = config.workers;
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("localization service listening on {}", server.local_addr());
    eprintln!("{workers} workers; send {{\"op\":\"shutdown\"}} to stop");
    server.wait();
    eprintln!("drained and stopped");
}
