//! What the operating system says about this process: CPU time,
//! context switches and peak memory from `getrusage`; bytes written to
//! disk, threads, the allowed CPUs and the filesystem under the data
//! directory from `/proc`, whose parsers take the file's text so they
//! can be tested on captured samples.

use std::path::Path;
use std::time::Duration;

/// The value of `key` in a `key: value` file such as `/proc/self/io`
/// or `/proc/self/status`, without its unit.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|line| {
        let (name, rest) = line.split_once(':')?;
        (name == key).then(|| rest.trim())
    })
}

fn number_field(text: &str, key: &str) -> Option<u64> {
    field(text, key)?.split_whitespace().next()?.parse().ok()
}

/// `write_bytes` of `/proc/self/io`: bytes this process caused to be
/// sent to the storage layer.
pub fn parse_io_write_bytes(io: &str) -> Option<u64> {
    number_field(io, "write_bytes")
}

/// `Threads` of `/proc/self/status`.
pub fn parse_threads(status: &str) -> Option<u64> {
    number_field(status, "Threads")
}

/// The CPUs of `Cpus_allowed_list` (`0`, `0-1`, `0,2-3`), ascending.
pub fn parse_allowed_cpus(status: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in field(status, "Cpus_allowed_list")?.split(',') {
        match part.split_once('-') {
            Some((low, high)) => {
                cpus.extend(low.parse::<usize>().ok()?..=high.parse::<usize>().ok()?);
            }
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

/// The filesystem type of the mount that holds `path`, from
/// `/proc/self/mountinfo`: the longest mount point that is a prefix of
/// `path` wins, the last such line when mounts are stacked.
pub fn parse_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    let mut found: Option<(usize, &str)> = None;
    for line in mountinfo.lines() {
        let (left, right) = line.split_once(" - ")?;
        let mount_point = left.split(' ').nth(4)?;
        let fs_type = right.split(' ').next()?;
        if path.starts_with(mount_point) && found.is_none_or(|(len, _)| mount_point.len() >= len) {
            found = Some((mount_point.len(), fs_type));
        }
    }
    found.map(|(_, fs_type)| fs_type.to_string())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// One scrape of the process counters.
#[derive(Clone, Copy, Debug)]
pub struct ProcSample {
    /// User plus system CPU time.
    pub cpu: Duration,
    pub write_bytes: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    pub threads: u64,
    pub rss_peak_kib: u64,
}

/// CPU time, context switches and peak memory come from
/// `getrusage(RUSAGE_SELF)`, which accounts them to the whole process,
/// every thread dead or alive included — `/proc/self/task/*` forgets a
/// thread that exited, and `/proc/self/stat` counts CPU in 10 ms ticks,
/// too coarse for the workloads that mostly wait.
pub fn sample() -> ProcSample {
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut raw = [0i64; 18];
    // SAFETY: on 64-bit Linux, the only target this benchmark runs on,
    // `struct rusage` is two `timeval`s of two 64-bit fields each and
    // fourteen `long`s: exactly these eighteen words, which the call
    // fills and nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let [user_s, user_us, sys_s, sys_us, max_rss, .., voluntary, involuntary] = raw;
    ProcSample {
        cpu: Duration::from_secs((user_s + sys_s) as u64)
            + Duration::from_micros((user_us + sys_us) as u64),
        write_bytes: parse_io_write_bytes(&read("/proc/self/io")).expect("/proc/self/io"),
        ctx_switches: (voluntary + involuntary) as u64,
        threads: parse_threads(&read("/proc/self/status")).expect("Threads in /proc/self/status"),
        rss_peak_kib: max_rss as u64,
    }
}

pub fn allowed_cpus() -> Vec<usize> {
    parse_allowed_cpus(&read("/proc/self/status")).expect("Cpus_allowed_list")
}

/// The filesystem type under `path`, which must exist.
pub fn fs_type(path: &Path) -> String {
    let real = path
        .canonicalize()
        .unwrap_or_else(|e| panic!("resolving {}: {e}", path.display()));
    parse_fs_type(&read("/proc/self/mountinfo"), &real).unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on the sandbox this benchmark was written on.
    const IO: &str = "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 1\nread_bytes: 0\n\
                      write_bytes: 1204224\ncancelled_write_bytes: 4096\n";
    const STATUS: &str = "Name:\tbenchmark\nUmask:\t0022\nState:\tR (running)\nTgid:\t4242\n\
                          VmPeak:\t  411840 kB\nVmHWM:\t   24576 kB\nVmRSS:\t   20000 kB\n\
                          Threads:\t17\nCpus_allowed:\t1\nCpus_allowed_list:\t0\n\
                          voluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t37\n";
    const MOUNTINFO: &str = "\
22 1 254:0 / / rw,relatime - ext4 /dev/vda rw\n\
23 22 0:5 / /dev rw,nosuid - devtmpfs devtmpfs rw,size=4096k\n\
24 23 0:21 / /dev/shm rw,nosuid,nodev shared:3 - tmpfs tmpfs rw\n\
25 22 0:22 / /proc rw,relatime - proc proc rw\n\
26 22 0:30 / /root/scratch rw master:1 - tmpfs none rw,size=1g\n";

    #[test]
    fn io_and_status_fields_parse() {
        assert_eq!(parse_io_write_bytes(IO), Some(1_204_224));
        assert_eq!(parse_threads(STATUS), Some(17));
        assert_eq!(parse_io_write_bytes("rchar: 1\n"), None);
    }

    #[test]
    fn allowed_cpu_lists_parse() {
        assert_eq!(parse_allowed_cpus(STATUS), Some(vec![0]));
        let wide = "Cpus_allowed_list:\t0,2-4,7\n";
        assert_eq!(parse_allowed_cpus(wide), Some(vec![0, 2, 3, 4, 7]));
        assert_eq!(parse_allowed_cpus("Cpus_allowed_list:\tx\n"), None);
    }

    #[test]
    fn fs_type_takes_the_longest_mount_prefix() {
        let fs = |p: &str| parse_fs_type(MOUNTINFO, Path::new(p));
        assert_eq!(fs("/root/repo/benchmark/out"), Some("ext4".to_string()));
        assert_eq!(fs("/root/scratch/data"), Some("tmpfs".to_string()));
        assert_eq!(fs("/dev/shm/x"), Some("tmpfs".to_string()));
        // `/devices` is not under the `/dev` mount.
        assert_eq!(fs("/devices"), Some("ext4".to_string()));
    }

    #[test]
    fn live_scrape_reads_this_process() {
        let before = sample();
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(20) {
            std::hint::black_box(spin);
        }
        let after = sample();
        assert!(after.cpu > before.cpu);
        assert!(after.threads >= 1 && after.rss_peak_kib > 0);
        assert!(!allowed_cpus().is_empty());
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
