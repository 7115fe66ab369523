//! `sgq-serve` — the long-running streaming query service host: binds a
//! TCP listener, owns one shared `MultiQueryEngine`, and speaks the
//! length-prefixed frame protocol documented in `docs/PROTOCOL.md`.
//!
//! ```text
//! sgq-serve --addr 127.0.0.1:7687 --metrics metrics.jsonl --metrics-every-ms 5000
//! sgq-serve --addr 127.0.0.1:0 --trace trace.jsonl --explicit-deletes
//! ```
//!
//! The host prints `listening on ADDR` once bound (port 0 picks a free
//! port — parse the line to discover it), then serves until a client
//! sends `SHUTDOWN` or the process receives SIGINT/SIGTERM, at which
//! point it drains the open epoch, routes every pending result, writes a
//! final metrics snapshot and the lifecycle trace, and says `BYE` to
//! every connection.

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

use sgq_serve::server::{ServeConfig, Server};

const USAGE: &str = "\
usage:
  sgq-serve [--addr HOST:PORT] [--batch N] [--tick-ms N]
            [--metrics FILE(.jsonl|.csv)] [--metrics-every-ms N]
            [--trace FILE.jsonl] [--explicit-deletes]
            [--buffer N] [--retention TICKS]

  --addr             bind address (default 127.0.0.1:7687; port 0 = any free port)
  --batch            epoch flush threshold in edges (default 256)
  --tick-ms          wall-clock epoch flush interval (default 50)
  --metrics          append metrics snapshots here (.csv selects CSV, else JSONL);
                     a final snapshot is always written on shutdown
  --metrics-every-ms periodic snapshot interval (default: shutdown-only)
  --trace            stream the structured lifecycle trace (JSONL) to FILE
  --explicit-deletes accept DELETE frames (runs without duplicate suppression)
  --buffer           default per-subscription result-buffer capacity (frames)
  --retention        catch-up horizon in ticks for late registrations";

fn parse_flags(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7687".to_string(),
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--batch" => {
                cfg.batch_size = value("--batch")?
                    .parse()
                    .map_err(|_| "--batch expects an integer".to_string())?
            }
            "--tick-ms" => {
                let ms: u64 = value("--tick-ms")?
                    .parse()
                    .map_err(|_| "--tick-ms expects an integer".to_string())?;
                cfg.tick = Duration::from_millis(ms);
            }
            "--metrics" => cfg.metrics_path = Some(value("--metrics")?),
            "--metrics-every-ms" => {
                let ms: u64 = value("--metrics-every-ms")?
                    .parse()
                    .map_err(|_| "--metrics-every-ms expects an integer".to_string())?;
                cfg.metrics_every = Some(Duration::from_millis(ms));
            }
            "--trace" => cfg.trace_path = Some(value("--trace")?),
            "--explicit-deletes" => cfg.explicit_deletes = true,
            "--buffer" => {
                cfg.default_buffer = value("--buffer")?
                    .parse()
                    .map_err(|_| "--buffer expects an integer".to_string())?
            }
            "--retention" => {
                cfg.retention = Some(
                    value("--retention")?
                        .parse()
                        .map_err(|_| "--retention expects an integer".to_string())?,
                )
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cfg)
}

// Graceful-shutdown signal plumbing: a SIGINT/SIGTERM handler flips one
// process-global flag that the serve loop polls. `std` already links the
// platform C runtime, so registering the handler needs no extra crate.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    pub fn install() {}
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_flags(&args) {
        Ok(cfg) => cfg,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("sgq-serve: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    sig::install();
    let server = match Server::spawn(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sgq-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Tests and scripts parse this line to discover the bound port.
    println!("listening on {}", server.addr());

    // Relay process signals into the server's shutdown flag, then let
    // the graceful sequence (drain + final snapshot + BYE) run.
    let flag = server.shutdown_flag();
    while !flag.load(Ordering::SeqCst) {
        if sig::REQUESTED.load(Ordering::SeqCst) {
            flag.store(true, Ordering::SeqCst);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    server.join();
    println!("sgq-serve: shut down cleanly");
    ExitCode::SUCCESS
}
