//! Child processes of the real `rmrls` binary, a loopback HTTP/1.1
//! client, and `/proc` readers for their CPU time and peak RSS.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(150);
const STOP_TIMEOUT: Duration = Duration::from_secs(30);
/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks.
const TICKS_PER_S: f64 = 100.0;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGINT: i32 = 2;

/// Asks the process to drain and exit, as Ctrl-C would.
pub fn interrupt(child: &Child) {
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    // SAFETY: kill(2) takes plain integers and touches no memory of
    // ours; `pid` is our own unreaped child, so it cannot name another
    // process.
    unsafe {
        kill(pid, SIGINT);
    }
}

/// Waits for `child` to exit, killing it if it has not after
/// [`STOP_TIMEOUT`]. Returns whether it exited on its own.
pub fn reap(child: &mut Child) -> bool {
    let start = Instant::now();
    loop {
        if let Ok(Some(_)) = child.try_wait() {
            return true;
        }
        if start.elapsed() > STOP_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// User plus system CPU seconds of a live process.
pub fn cpu_seconds(pid: u32) -> f64 {
    stat_fields(&format!("/proc/{pid}/stat"), &[11, 12])
}

/// CPU seconds of this process's reaped children.
pub fn children_cpu_seconds() -> f64 {
    stat_fields("/proc/self/stat", &[13, 14])
}

/// Sums the given fields of a `stat` file, counted after the command
/// name (index 0 is the state field).
fn stat_fields(path: &str, idx: &[usize]) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    idx.iter()
        .filter_map(|&i| fields.get(i)?.parse::<f64>().ok())
        .sum::<f64>()
        / TICKS_PER_S
}

/// Peak resident set (VmHWM) of a live process in MB, 0 once it is gone.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A running `rmrls serve` daemon.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `rmrls serve` with `args` and waits until it announces
    /// its address and answers `/healthz`.
    pub fn start(bin: &str, args: &[&str]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--jobs", "2"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keeps draining stderr after the announcement so the daemon
        // never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "serve never announced its address".to_string())?;
        daemon.addr = addr
            .parse()
            .map_err(|e| format!("bad announced address {addr:?}: {e}"))?;
        match get(daemon.addr, "/healthz") {
            Ok((200, _)) => Ok(daemon),
            Ok((status, body)) => Err(format!("/healthz answered {status}: {body}")),
            Err(e) => Err(e),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the daemon with SIGINT and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        interrupt(&self.child);
        let clean = reap(&mut self.child);
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        if clean {
            Ok(())
        } else {
            Err("serve did not exit after SIGINT".to_string())
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// The bytes of a `POST /synthesize` request for a perm spec.
pub fn synthesize_request(name: &str, spec: &str) -> Vec<u8> {
    let body = format!(r#"{{"kind":"perm","spec":"{spec}","name":"{name}"}}"#);
    format!(
        "POST /synthesize HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends raw request bytes on a fresh connection and returns the status
/// code and body of the response.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("cannot set timeouts: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .write_all(request)
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header end".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok((status, body.to_string()))
}

pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n");
    exchange(addr, request.as_bytes())
}
