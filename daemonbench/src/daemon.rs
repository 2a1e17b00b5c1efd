//! Building, booting and stopping the real `isomit-serve` binary.
//!
//! The benchmark never links the server into its own process: it builds
//! the daemon with cargo from the checkout it runs in, boots it as a
//! child process on an ephemeral loopback port, and observes it only
//! through the wire protocol and `/proc/<pid>`.

use isomit_graph::json::Value;
use isomit_service::protocol::{encode_request, parse_response, RequestBody};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a stopping daemon may take to drain before it is killed.
const STOP_GRACE: Duration = Duration::from_secs(10);

/// Builds `isomit-serve` in release mode from the workspace at `root`
/// and returns the path of the executable cargo reports.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let output = Command::new("cargo")
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "isomit-service",
            "--bin",
            "isomit-serve",
            "--message-format=json-render-diagnostics",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building isomit-serve failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .filter_map(|line| Value::parse(line).ok())
        .filter(|msg| {
            msg.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Value::as_str)
                == Some("isomit-serve")
        })
        .find_map(|msg| {
            msg.get("executable")
                .and_then(Value::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no isomit-serve executable".to_owned())
}

/// A running daemon. Dropping it kills the process and waits for it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The loopback address it listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `binary --graph <graph> --addr 127.0.0.1:0` with all other
    /// settings at their defaults and waits for its `listening on` line.
    pub fn spawn(binary: &Path, graph: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(binary)
            .arg("--graph")
            .arg(graph)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).ok().and_then(|_| {
            line.trim()
                .strip_prefix("isomit-serve listening on ")?
                .parse()
                .ok()
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "isomit-serve did not announce its address (got {line:?})"
            )));
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The daemon's process id, for `/proc/<pid>`.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and stop with the protocol `shutdown`
    /// request and waits for it to exit; kills it if it takes longer
    /// than the grace period.
    pub fn stop(mut self) -> io::Result<()> {
        if let Ok(mut control) = Control::connect(self.addr) {
            let _ = control.call(&RequestBody::Shutdown);
        }
        let deadline = Instant::now() + STOP_GRACE;
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("isomit-serve did not stop after shutdown"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A blocking request/reply connection for control-plane calls
/// (`health`, `stats`, `shutdown`).
#[derive(Debug)]
pub struct Control {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Control {
    /// Connects with Nagle off, as the daemon does on its side.
    pub fn connect(addr: SocketAddr) -> io::Result<Control> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Control {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
        })
    }

    /// Sends `body` and returns the `result` of a successful reply.
    pub fn call(&mut self, body: &RequestBody) -> io::Result<Value> {
        let mut line = encode_request(self.next_id, body);
        self.next_id += 1;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let response = parse_response(reply.trim_end()).map_err(io::Error::other)?;
        response
            .outcome
            .map_err(|e| io::Error::other(format!("daemon refused the request: {e}")))
    }
}
