//! Spawning, timing and stopping the `ptk serve` daemon under test.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client;

/// How long the daemon may take to load its table and bind.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a shut-down daemon may take to drain and exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `ptk serve` child process. Dropping it kills and reaps the
/// process if [`Daemon::shutdown`] did not already stop it.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `ptk serve <csv> --threads 2` on an OS-chosen loopback port
    /// (plus `extra` flags) and waits for its `--ready-file`. Returns the
    /// daemon and the time from spawn until the ready file appeared,
    /// which covers process start, the CSV load and the bind.
    pub fn spawn(
        ptk: &Path,
        csv: &Path,
        ready: &Path,
        extra: &[&str],
    ) -> Result<(Daemon, Duration), String> {
        let _ = std::fs::remove_file(ready);
        let started = Instant::now();
        let child = Command::new(ptk)
            .arg("serve")
            .arg(csv)
            .args(["--addr", "127.0.0.1:0", "--threads"])
            .arg(crate::serve::THREADS.to_string())
            .arg("--ready-file")
            .arg(ready)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ptk.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            // The daemon writes "<addr>\n" in one call; the newline marks
            // a complete write.
            if let Ok(text) = std::fs::read_to_string(ready) {
                if let Some(line) = text.strip_suffix('\n') {
                    let elapsed = started.elapsed();
                    daemon.addr = line
                        .parse()
                        .map_err(|e| format!("bad ready file {line:?}: {e}"))?;
                    return Ok((daemon, elapsed));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("ptk serve exited during start-up: {status}"));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err("ptk serve never wrote its ready file".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&PathBuf::from(format!("/proc/{}/status", self.child.id())))
    }

    /// `POST /shutdown`, then waits for the process to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let request = b"POST /shutdown HTTP/1.1\r\nHost: ptkbench\r\nContent-Length: 0\r\n\r\n";
        let reply =
            client::exchange(self.addr, request, false).map_err(|e| format!("shutdown: {e}"))?;
        if reply.0.status != 200 {
            return Err(format!("shutdown answered {}", reply.0.status));
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("ptk serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("ptk serve did not exit after /shutdown".into()),
                Err(e) => return Err(format!("waiting for ptk serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(status).map_err(|e| format!("{}: {e}", status.display()))?;
    let kib: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("{}: no VmHWM line", status.display()))?;
    Ok(kib / 1024.0)
}
