//! The server process tree: spawning `gables serve`, placing its threads
//! on a CPU, and reading its CPU time and peak memory, and the host's
//! TCP counters, from `/proc`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat`'s `utime` and `stime`
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: u64 = 100;

/// Worker threads per server process, and the thread count of the
/// model's parallel helpers (`GABLES_THREADS`). Both are fixed so that
/// a 2-vCPU host is not oversubscribed by per-request scoped threads.
pub const WORKERS: &str = "2";
pub const GABLES_THREADS: &str = "1";

/// One running `gables serve --announce` process (with its shard
/// children when started with replicas).
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    // Held open until the process exits, so a late write to stdout
    // never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The announced listen address.
    pub addr: String,
    /// Spawn to `LISTENING` announcement.
    pub setup: Duration,
}

/// The server's command-line arguments after the binary.
pub fn server_args(replicas: usize) -> Vec<String> {
    let mut args: Vec<String> = ["serve", "127.0.0.1:0", "--workers", WORKERS, "--announce"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    if replicas > 1 {
        args.push("--replicas".into());
        args.push(replicas.to_string());
    }
    args
}

impl Server {
    /// Spawns the server and waits for its `LISTENING <addr>` line. The
    /// access log goes to stderr, which is discarded so an undrained
    /// pipe can never stall the server.
    pub fn spawn(gables: &Path, replicas: usize) -> std::io::Result<Server> {
        let started = Instant::now();
        let mut child = Command::new(gables)
            .args(server_args(replicas))
            .env("GABLES_THREADS", GABLES_THREADS)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let setup = started.elapsed();
        let Some(addr) = line
            .trim()
            .strip_prefix("LISTENING ")
            .filter(|_| read.is_ok())
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "server did not announce itself: {line:?}"
            )));
        };
        Ok(Server {
            addr: addr.to_string(),
            child,
            stdin,
            _stdout: stdout,
            setup,
        })
    }

    /// The server's pid and the pids of its live children.
    pub fn tree(&self) -> Vec<u32> {
        let root = self.child.id();
        let mut pids = vec![root];
        pids.extend(children_of(root));
        pids
    }

    /// Asks the server to stop (stdin EOF) without waiting for it.
    pub fn begin_stop(&mut self) {
        drop(self.stdin.take());
    }
}

impl Drop for Server {
    /// Stops the server (also on an early error return) and waits until
    /// it has exited, killing it if it ignores the stdin-EOF contract for
    /// 15 s. A replica parent stops and reaps its shards before it exits.
    fn drop(&mut self) {
        self.begin_stop();
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) | Err(_) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let children = children_of(self.child.id());
        let _ = self.child.kill();
        let _ = self.child.wait();
        // Orphaned shards see their stdin close with the parent and exit
        // by themselves; wait until they have.
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline
            && children
                .iter()
                .any(|pid| Path::new(&format!("/proc/{pid}")).exists())
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Fields of `/proc/<pid>/stat` after the parenthesised command name
/// (index 0 is field 3, `state`).
fn stat_fields(pid: u32) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(
        rest.split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect(),
    )
}

/// Pids whose parent is `parent`.
fn children_of(parent: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| stat_fields(pid).and_then(|f| f.get(1).copied()) == Some(u64::from(parent)))
        .collect()
}

/// CPU time of `pids` (user plus system, every live thread), in
/// microseconds. Uses each thread's `se.sum_exec_runtime` from
/// `/proc/<pid>/task/<tid>/sched` (ns precision) where the kernel has
/// it, else the process's `utime + stime` in clock ticks.
pub fn cpu_us(pids: &[u32]) -> f64 {
    pids.iter()
        .map(|&pid| sched_runtime_us(pid).unwrap_or_else(|| stat_cpu_us(pid)))
        .sum()
}

fn stat_cpu_us(pid: u32) -> f64 {
    stat_fields(pid).map_or(0.0, |f| ((f[11] + f[12]) * (1_000_000 / USER_HZ)) as f64)
}

fn sched_runtime_us(pid: u32) -> Option<f64> {
    let mut total = 0.0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let sched = std::fs::read_to_string(task.ok()?.path().join("sched")).ok()?;
        let line = sched
            .lines()
            .find(|l| l.starts_with("se.sum_exec_runtime"))?;
        let ms: f64 = line.split(':').nth(1)?.trim().parse().ok()?;
        total += ms * 1e3;
    }
    Some(total)
}

/// Peak resident set (`VmHWM`) summed over `pids`, in KiB.
pub fn peak_rss_kib(pids: &[u32]) -> u64 {
    pids.iter()
        .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/status")).ok())
        .filter_map(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

/// `Tcp: ActiveOpens` from `/proc/net/snmp`: connections this network
/// namespace has opened.
pub fn tcp_active_opens() -> u64 {
    let text = std::fs::read_to_string("/proc/net/snmp").unwrap_or_default();
    let mut tcp = text.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(names), Some(values)) = (tcp.next(), tcp.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(n, _)| *n == "ActiveOpens")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

// The C library's affinity calls, which std links already.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1,024 bits.
type CpuSet = [u64; 16];

/// The CPUs this process may run on, in ascending order (empty if the
/// kernel will not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if r != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts thread `tid` (0: the calling thread) to `cpu`. False when
/// the kernel refuses, e.g. in a sandbox that forbids it; a thread that
/// has already exited counts as placed.
fn pin_thread(tid: i32, cpu: usize) -> bool {
    const ESRCH: i32 = 3;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed.
    let r = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    r == 0 || std::io::Error::last_os_error().raw_os_error() == Some(ESRCH)
}

/// Restricts the calling thread to `cpu`. A process spawned afterwards
/// inherits the restriction, with its threads and children.
pub fn pin_self(cpu: usize) -> bool {
    pin_thread(0, cpu)
}

/// Moves every live thread of `pids` to `cpu`. True when all moved.
pub fn pin_tree(pids: &[u32], cpu: usize) -> bool {
    let mut all = true;
    for pid in pids {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            continue;
        };
        for tid in tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
            all &= pin_thread(tid, cpu);
        }
    }
    all
}

/// Sockets in TIME_WAIT, from `/proc/net/sockstat`.
pub fn tcp_time_wait() -> u64 {
    let text = std::fs::read_to_string("/proc/net/sockstat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("TCP:")) else {
        return 0;
    };
    let fields: Vec<&str> = line.split_whitespace().collect();
    fields
        .windows(2)
        .find(|w| w[0] == "tw")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(0)
}
