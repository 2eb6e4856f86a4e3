//! The server child: the benchmark binary re-executed as `serve-child`, so
//! the server's memory, threads and metrics registry are its own process's
//! and the load generator's are not in them.

use copydet_serve::frontend::{serve_with_config, Client, FrontendConfig};
use copydet_serve::{ShardedStore, StoreConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Shards of the benchmarked fleet.
pub const SHARDS: usize = 4;

/// The fleet's store configuration: the serving configuration of
/// `bench_serve_json` (auto-seal every 4096 claims per shard, compact past
/// four segments), WAL fsync at seal boundaries rather than per append.
pub const STORE_CONFIG: StoreConfig = StoreConfig {
    seal_threshold: Some(4096),
    max_sealed_segments: Some(4),
    wal_fsync_per_append: false,
};

/// Opens the fleet the way the child does (the in-process layer
/// measurements open theirs identically).
pub fn open_fleet(dir: &Path) -> Result<ShardedStore, String> {
    ShardedStore::open_with_config(dir, SHARDS, STORE_CONFIG)
        .map_err(|e| format!("open fleet {}: {e}", dir.display()))
}

/// `serve-child <dir>`: opens (or recovers) the durable fleet in `dir`,
/// serves it on a free loopback port, announces the port on stdout, and
/// runs until a wire SHUTDOWN — or until stdin closes, which is how a
/// parent that died takes its child with it.
pub fn child_main(dir: &Path) -> Result<(), String> {
    let store = open_fleet(dir)?;
    let handle = serve_with_config(store.clone(), "127.0.0.1:0", FrontendConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    println!("LISTENING {}", handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(3);
    });
    while !handle.is_stopped() {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown();
    store.sync().map_err(|e| format!("sync: {e}"))
}

/// A running server child.
pub struct Server {
    child: Child,
    /// Held open for the child's lifetime: its EOF is the child's signal
    /// that the parent is gone.
    _stdin: ChildStdin,
    pub addr: SocketAddr,
    pub dir: PathBuf,
}

impl Server {
    /// Spawns a child on `dir` and waits for its listening address.
    pub fn spawn(dir: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("LISTENING ")) {
            (Ok(_), Some(addr)) => addr.parse::<SocketAddr>().map_err(|e| e.to_string()),
            _ => Err(format!("server child did not announce an address (got {line:?})")),
        };
        match addr {
            Ok(addr) => Ok(Self { child, _stdin: stdin, addr, dir: dir.to_path_buf() }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read child status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the child's status".to_owned())
    }

    /// Graceful stop: wire SHUTDOWN, then wait for the child to sync its
    /// WALs and exit. Returns how long that took.
    pub fn shutdown(mut self) -> Result<Duration, String> {
        let start = Instant::now();
        self.connect()?.shutdown().map_err(|e| format!("SHUTDOWN: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait for child: {e}"))?;
        if !status.success() {
            return Err(format!("server child exited with {status}"));
        }
        Ok(start.elapsed())
    }
}

impl Drop for Server {
    /// The error path: a child still running here was not shut down
    /// gracefully, so it is killed and reaped (after a graceful
    /// [`shutdown`](Self::shutdown) both calls are no-ops on an exited,
    /// already-waited child).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}
