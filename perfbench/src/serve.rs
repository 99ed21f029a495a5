//! The loopback server under test and a timing client for it.
//!
//! The server runs in a child process (this binary's `serve-child` mode,
//! which calls `ctxform_server::server::start`), so its peak memory is
//! its own. It runs one shard with one worker and single-threaded solves:
//! with the one closed-loop client, at most two threads are ever busy.
//! The child exits when the parent closes its stdin, so it never outlives
//! the benchmark.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ctxform_server::server::{start, ServerConfig};
use ctxform_server::Json;

/// Entry point of `perfbench serve-child [--trace-ring N]`.
pub fn child_main(args: &[String]) {
    let mut ring = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--trace-ring" {
            ring = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--trace-ring needs a number");
        }
    }
    ctxform_obs::logger::set_level(ctxform_obs::Level::Warn);
    if ring > 0 {
        ctxform_obs::enable_tracing(ring);
    }
    let config = ServerConfig {
        port: 0,
        shards: 1,
        threads: 1,
        solver_threads: 1,
        deadline: Duration::from_secs(120),
        ..ServerConfig::default()
    };
    let handle = start(config).expect("bind a loopback port");
    println!("port {}", handle.addr().port());
    std::io::stdout().flush().expect("stdout");
    // Exit with the parent: its end of our stdin closes when it exits.
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });
    handle.join();
}

/// A running server child; shut down and reaped on drop.
pub struct ServerProcess {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Starts a server child and waits until it listens. `trace_ring > 0`
    /// turns on its span ring with that many records.
    pub fn start(trace_ring: usize) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg("--trace-ring")
            .arg(trace_ring.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let port = match read {
            Ok(_) => line
                .trim()
                .strip_prefix("port ")
                .and_then(|p| p.parse::<u16>().ok()),
            Err(_) => None,
        };
        let Some(port) = port else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report a port: {line:?}"));
        };
        Ok(ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let _ = conn.call(&Json::obj([("op", Json::str("shutdown"))]));
        }
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One reply with its client-observed latency and size on the wire.
pub struct Reply {
    pub json: Json,
    pub latency_ms: f64,
    pub bytes: usize,
}

impl Reply {
    pub fn str(&self, key: &str) -> Option<&str> {
        self.json.get(key).and_then(Json::as_str)
    }
}

/// A closed-loop client connection: one request in flight at a time.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(150)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    /// Sends `body`, waits for its reply and times the round trip. A
    /// transport failure or an `"ok": false` reply is an error.
    pub fn call(&mut self, body: &Json) -> Result<Reply, String> {
        let mut request = body.to_line();
        request.push('\n');
        let started = Instant::now();
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        let latency_ms = crate::util::ms_since(started);
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let json = Json::parse(self.line.trim()).map_err(|e| format!("bad reply: {e}"))?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("error reply: {}", self.line.trim()));
        }
        Ok(Reply {
            json,
            latency_ms,
            bytes: n,
        })
    }
}
