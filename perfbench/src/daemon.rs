//! The real `upmem-nw serve` daemon, driven as a child process over its
//! unix socket: spawn with flags, connect, send lines, drain, and collect
//! the report it writes on exit.

use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use upmem_nw_service::json::Json;

/// How long any single wait on the daemon may take before the run fails.
pub const WAIT: Duration = Duration::from_secs(60);

/// A line the daemon sent, stamped when the reader thread received it.
pub type Line = (Instant, String);

pub struct Daemon {
    child: Child,
    pub state_dir: PathBuf,
    report_path: PathBuf,
    writer: UnixStream,
    pub rx: Receiver<Line>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start the daemon and connect to it. `dir` must be a short relative
    /// path (unix socket paths are limited to about 100 bytes).
    pub fn start(bin: &Path, dir: &Path, tag: &str, flags: &[String]) -> Result<Daemon, String> {
        let socket = dir.join(format!("{tag}.sock"));
        let state_dir = dir.join(format!("{tag}-state"));
        let report_path = dir.join(format!("{tag}-report.json"));
        let log =
            std::fs::File::create(dir.join(format!("{tag}.log"))).map_err(|e| e.to_string())?;
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--state-dir")
            .arg(&state_dir)
            .arg("--json")
            .arg(&report_path)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let t0 = Instant::now();
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(e) => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(format!("daemon exited during start-up ({status}): {e}"));
                    }
                    if t0.elapsed() > WAIT {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("daemon never listened on {}", socket.display()));
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        };
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stream);
            loop {
                let mut line = String::new();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        if tx.send((Instant::now(), line)).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(Daemon {
            child,
            state_dir,
            report_path,
            writer,
            rx,
            reader: Some(reader),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send to daemon failed: {e}"))
    }

    pub fn recv(&self) -> Result<Line, String> {
        self.rx.recv_timeout(WAIT).map_err(|e| match e {
            RecvTimeoutError::Timeout => "daemon went silent".to_string(),
            RecvTimeoutError::Disconnected => "daemon closed the connection".to_string(),
        })
    }

    /// One `{"op":"stats"}` round trip (nothing else may be outstanding).
    pub fn stats(&mut self) -> Result<(Json, Duration), String> {
        let t0 = Instant::now();
        self.send("{\"op\":\"stats\"}")?;
        loop {
            let (at, line) = self.recv()?;
            if line.starts_with("{\"type\":\"stats\"") {
                return Ok((Json::parse(line.trim())?, at - t0));
            }
        }
    }

    /// Drain, wait for exit, and return the report the daemon wrote.
    pub fn drain(mut self) -> Result<Json, String> {
        self.send("{\"op\":\"drain\"}")?;
        let t0 = Instant::now();
        // The daemon closes the connection once everything is answered.
        loop {
            match self.rx.recv_timeout(WAIT) {
                Ok(_) => {}
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {
                    return Err("daemon never finished draining".into())
                }
            }
        }
        if let Some(h) = self.reader.take() {
            h.join().map_err(|_| "reader thread panicked")?;
        }
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                if !status.success() {
                    return Err(format!("daemon exited with {status}"));
                }
                break;
            }
            if t0.elapsed() > WAIT {
                return Err("daemon did not exit after draining".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let text = std::fs::read_to_string(&self.report_path).map_err(|e| e.to_string())?;
        Json::parse(&text)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with the child still running on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Size of a file, 0 if absent.
pub fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}
