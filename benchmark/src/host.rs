//! The host under test as a separate OS process: this executable
//! re-executed with `--host`, running `sgq_serve::server::Server::spawn`
//! with the defaults the `sgq-serve` binary ships (`--batch 256
//! --tick-ms 50`). Its CPU time and memory are read from `/proc/<pid>`,
//! so they exclude the generator.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use sgq_serve::server::{ServeConfig, Server};

/// Environment switches that change how the engine executes; the child
/// runs without them so every row measures the default configuration.
const ENGINE_ENV: [&str; 5] = [
    "SGQ_SHARDS",
    "SGQ_WORKERS",
    "SGQ_OBS",
    "SGQ_ADAPT",
    "SGQ_SHARING",
];

/// Entry point of the child (`--host [--explicit-deletes] [--client-cuts]`).
/// Serves until a client sends SHUTDOWN; exits early if the parent goes
/// away (its end of our stdin closes), so no host outlives a benchmark.
pub fn host_main(args: &[String]) -> io::Result<()> {
    let mut cfg = ServeConfig::default();
    for a in args {
        match a.as_str() {
            "--explicit-deletes" => cfg.explicit_deletes = true,
            // Epoch cuts only where the client asks for them (barriers):
            // what the correctness gate needs to replay the same cuts.
            "--client-cuts" => {
                cfg.batch_size = usize::MAX;
                cfg.tick = Duration::from_secs(3600);
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown host flag {other}"),
                ))
            }
        }
    }
    let server = Server::spawn(cfg)?;
    println!("listening on {}", server.addr());
    io::stdout().flush()?;
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = io::stdin().read_to_end(&mut sink);
        std::process::exit(3);
    });
    server.join();
    Ok(())
}

/// A running child host. Dropping it kills the process if it is still
/// alive and waits for it.
pub struct HostProc {
    child: Child,
    pub addr: SocketAddr,
}

impl HostProc {
    pub fn spawn(explicit_deletes: bool, client_cuts: bool) -> io::Result<HostProc> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("--host");
        if explicit_deletes {
            cmd.arg("--explicit-deletes");
        }
        if client_cuts {
            cmd.arg("--client-cuts");
        }
        for key in ENGINE_ENV {
            cmd.env_remove(key);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let parsed = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match parsed {
            Some(addr) => Ok(HostProc { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("host did not announce its address: {line:?}"),
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the host to exit after SHUTDOWN; kills it if it does not
    /// within `patience`.
    pub fn wait_exit(mut self, patience: Duration) -> io::Result<bool> {
        let deadline = std::time::Instant::now() + patience;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status.success());
            }
            if std::time::Instant::now() >= deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for HostProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// /proc readers
// ---------------------------------------------------------------------

/// `/proc` reports process times in USER_HZ ticks, which Linux fixes at
/// 100 per second for user space on every architecture.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces and parentheses;
    // everything after the last ')' is space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?; // field 14
    let stime: u64 = fields.next()?.parse().ok()?; // field 15
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `Vm*` line of `/proc/<pid>/status`, in MB (the file reports kB).
pub fn parse_status_mb(status: &str, key: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb as f64 / 1024.0)
    })
}

/// What `/proc` says about the host at one instant.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    pub cpu_s: f64,
    pub rss_mb: f64,
    pub hwm_mb: f64,
}

pub fn sample(pid: u32) -> io::Result<ProcSample> {
    let bad =
        |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"));
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    Ok(ProcSample {
        cpu_s: parse_stat_cpu_seconds(&stat).ok_or_else(|| bad("stat"))?,
        rss_mb: parse_status_mb(&status, "VmRSS").ok_or_else(|| bad("VmRSS"))?,
        hwm_mb: parse_status_mb(&status, "VmHWM").ok_or_else(|| bad("VmHWM"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_odd_command_names() {
        let stat = "4242 (sgq bench) R) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 566 0 0 20 0 5 0 100 200 300";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(18.0));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_lines_parse_to_mb() {
        let status = "Name:\tsgq\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t    1536 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(200.0));
        assert_eq!(parse_status_mb(status, "VmRSS"), Some(1.5));
        assert_eq!(parse_status_mb(status, "VmSwap"), None);
        // a key that is a prefix of another must not match it
        assert_eq!(parse_status_mb("VmRSSx:\t 1 kB\n", "VmRSS"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let s = sample(std::process::id()).expect("/proc/self");
        assert!(s.rss_mb > 0.0 && s.hwm_mb >= s.rss_mb * 0.5);
    }
}
