//! The gateway as a child process, observed from outside: its start-up
//! banner, its `/metrics` page and its `/proc/<pid>` entries.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Linux reports process times in `USER_HZ` ticks, which is 100 on
/// every supported architecture.
const TICK_US: u64 = 10_000;

// `std` links the platform C library, so the two symbols resolve without
// a `libc` crate (the gateway's `netpoll` does the same for `epoll`).
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set of 1 024 CPUs, the size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

/// The calling thread's CPU set from before [`confine_to_one_cpu`];
/// dropping it gives the thread that set back.
pub struct Confined(CpuSet);

/// Confines the calling thread, and every thread and process it starts
/// while the returned guard lives, to the first CPU it may run on.
pub fn confine_to_one_cpu() -> std::io::Result<Confined> {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is `size` writable bytes; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let word = allowed
        .iter()
        .position(|&w| w != 0)
        .ok_or_else(|| std::io::Error::other("no CPU to run on"))?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: `one` is `size` readable bytes; pid 0 is the caller.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(Confined(allowed))
}

impl Drop for Confined {
    fn drop(&mut self) {
        // SAFETY: the set is `size_of::<CpuSet>()` readable bytes; pid 0
        // is the caller. It was this thread's set, so it is still valid.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self.0.as_ptr()) };
    }
}

/// One reading of a process's `/proc` entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcSample {
    pub utime_us: u64,
    pub stime_us: u64,
    /// Peak resident set (`VmHWM`), bytes.
    pub hwm_bytes: u64,
    pub threads: u64,
    /// Voluntary + involuntary context switches, all threads.
    pub ctx_switches: u64,
}

impl ProcSample {
    pub fn cpu_us(&self) -> u64 {
        self.utime_us + self.stime_us
    }
}

/// `(utime_us, stime_us)` from the text of `/proc/<pid>/stat`. The
/// command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime * TICK_US, stime * TICK_US))
}

/// The numeric value of `key` (e.g. `VmHWM:`) in a `/proc/<pid>/status`
/// text; `kB` values come back in bytes.
pub fn status_field(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    let mut parts = line[key.len()..].split_ascii_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    Some(if parts.next() == Some("kB") {
        value * 1024
    } else {
        value
    })
}

/// Samples `/proc/<pid>` (`pid` may be `self`).
pub fn sample_proc(pid: &str) -> std::io::Result<ProcSample> {
    let bad = |what: &str| std::io::Error::other(format!("/proc/{pid}/{what}: unexpected format"));
    let root = Path::new("/proc").join(pid);
    let (utime_us, stime_us) =
        parse_stat(&std::fs::read_to_string(root.join("stat"))?).ok_or_else(|| bad("stat"))?;
    let status = std::fs::read_to_string(root.join("status"))?;
    let hwm_bytes = status_field(&status, "VmHWM:").ok_or_else(|| bad("status"))?;
    let threads = status_field(&status, "Threads:").ok_or_else(|| bad("status"))?;
    let mut ctx_switches = 0;
    for task in std::fs::read_dir(root.join("task"))? {
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(task?.path().join("status")) {
            ctx_switches += status_field(&text, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    Ok(ProcSample {
        utime_us,
        stime_us,
        hwm_bytes,
        threads,
        ctx_switches,
    })
}

/// A parsed Prometheus text page: series (name plus label set, exactly
/// as printed) → value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn parse(body: &str) -> Metrics {
        let mut map = BTreeMap::new();
        for line in body.lines() {
            if line.starts_with('#') {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(value) = value.parse::<f64>() {
                    map.insert(series.to_string(), value);
                }
            }
        }
        Metrics(map)
    }

    /// The value of `series`, 0 when the page does not carry it.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// The sum of every series whose name starts with `prefix` and ends
    /// with `suffix`: one family across its other labels.
    pub fn sum(&self, prefix: &str, suffix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// An aggregate counter `pard_gateway_<family>_total`.
    pub fn counter(&self, family: &str) -> u64 {
        self.get(&format!("pard_gateway_{family}_total")) as u64
    }
}

/// Fetches and parses a `/metrics` page.
pub fn scrape(addr: SocketAddr) -> std::io::Result<Metrics> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut page = String::new();
    stream.read_to_string(&mut page)?;
    let body = page.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    Ok(Metrics::parse(body))
}

/// `(serving address, metrics address)` from the gateway's banner line:
/// `pard-gateway serving … on ADDR backend=…  metrics on http://ADDR/metrics`.
pub fn parse_banner(line: &str) -> Option<(SocketAddr, SocketAddr)> {
    let serving = line.split(" on ").nth(1)?.split_whitespace().next()?;
    let metrics = line.split("http://").nth(1)?.split('/').next()?;
    Some((serving.parse().ok()?, metrics.parse().ok()?))
}

/// A running `pard-gateway` child on ephemeral ports. Dropping it kills
/// the child and waits for it.
pub struct Gateway {
    child: Child,
    pub addr: SocketAddr,
    pub metrics_addr: SocketAddr,
}

impl Gateway {
    /// Starts `bin` with `args` plus ephemeral `--addr`/`--metrics`
    /// ports and waits for its banner.
    pub fn spawn(bin: &Path, args: &[&str]) -> std::io::Result<Gateway> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--metrics", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut banner = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        let read = BufReader::new(stdout).read_line(&mut banner);
        match (read, parse_banner(&banner)) {
            (Ok(_), Some((addr, metrics_addr))) => Ok(Gateway {
                child,
                addr,
                metrics_addr,
            }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "{}: no start-up banner ({read:?}, {banner:?})",
                    bin.display()
                )))
            }
        }
    }

    /// CPU time the child has used so far, µs; 0 if `/proc` cannot be
    /// read (the samples around the window then fail the run).
    pub fn cpu_us(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .ok()
            .and_then(|text| parse_stat(&text))
            .map_or(0, |(utime_us, stime_us)| utime_us + stime_us)
    }

    pub fn sample(&self) -> std::io::Result<ProcSample> {
        sample_proc(&self.child.id().to_string())
    }

    pub fn scrape(&self) -> std::io::Result<Metrics> {
        scrape(self.metrics_addr)
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let text = "4242 (pard) gate way) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    157 43 0 0 20 0 9 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_stat(text), Some((1_570_000, 430_000)));
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn status_fields_convert_kilobytes() {
        let text = "Name:\tpard-gateway\nVmHWM:\t   12340 kB\nThreads:\t9\n\
                    voluntary_ctxt_switches:\t77\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(text, "VmHWM:"), Some(12_340 * 1024));
        assert_eq!(status_field(text, "Threads:"), Some(9));
        assert_eq!(status_field(text, "voluntary_ctxt_switches:"), Some(77));
        assert_eq!(status_field(text, "nonvoluntary_ctxt_switches:"), Some(3));
        assert_eq!(status_field(text, "VmRSS:"), None);
    }

    #[test]
    fn a_confined_thread_and_what_it_starts_have_one_cpu() {
        let cpus = || std::thread::available_parallelism().unwrap().get();
        let seen = std::thread::spawn(move || {
            let before = cpus();
            let confined = confine_to_one_cpu().expect("affinity can be set");
            let started = std::thread::spawn(cpus).join().unwrap();
            let own = cpus();
            drop(confined);
            (own, started, cpus() == before)
        });
        assert_eq!(seen.join().unwrap(), (1, 1, true));
    }

    #[test]
    fn own_proc_entries_parse() {
        let sample = sample_proc("self").expect("/proc/self");
        assert!(sample.hwm_bytes > 0 && sample.threads >= 1);
    }

    #[test]
    fn metrics_pages_parse_counters_and_labelled_series() {
        let page = "# TYPE pard_gateway_received_total counter\n\
                    pard_gateway_received_total 12\n\
                    pard_gateway_module_dropped_total{module=\"1\",reason=\"predicted\"} 4\n\
                    pard_gateway_goodput_fraction 0.500000\n";
        let metrics = Metrics::parse(page);
        assert_eq!(metrics.counter("received"), 12);
        assert_eq!(metrics.counter("admitted"), 0);
        assert_eq!(
            metrics.get("pard_gateway_module_dropped_total{module=\"1\",reason=\"predicted\"}"),
            4.0
        );
        assert_eq!(metrics.get("pard_gateway_goodput_fraction"), 0.5);
    }

    #[test]
    fn banner_yields_both_addresses() {
        let line = "pard-gateway serving tm (3 modules, SLO 400.000ms, weight 1) on \
                    127.0.0.1:44281 backend=sim  metrics on http://127.0.0.1:37701/metrics\n";
        let (addr, metrics) = parse_banner(line).expect("parses");
        assert_eq!(addr.port(), 44281);
        assert_eq!(metrics.port(), 37701);
        assert_eq!(parse_banner("pard-gateway: unknown app"), None);
    }
}
