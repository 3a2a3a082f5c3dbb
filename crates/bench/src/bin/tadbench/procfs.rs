//! Std-only `/proc` readers: per-thread CPU time and run-queue wait from
//! `/proc/self/task/*/schedstat`, grouped by the thread names the crates
//! already set, and the process's peak resident set (`VmHWM`). Everything
//! degrades to `None` where `/proc` is missing (off Linux).

use std::collections::BTreeMap;

/// The layer a thread belongs to, from its `comm` (the kernel keeps the
/// first 15 bytes of the name passed to `thread::Builder::name`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// `tad-router-conn-*`: the router's per-connection front threads.
    RouterFront,
    /// `tad-router-backend-mux`: the router's shared backend-link thread.
    RouterMux,
    /// `tad-net-ev-*`: a backend's event-loop worker.
    NetEvloop,
    /// `tad-serve-shard-*`: a fleet engine's shard worker.
    ServeShard,
    /// The load generator: `tadbench-gen-*` and the main thread.
    Generator,
    /// Acceptors, recovery threads and anything unnamed.
    Other,
}

impl Group {
    /// Classifies a thread by its `comm`.
    pub fn of(comm: &str) -> Group {
        const PREFIXES: [(&str, Group); 5] = [
            ("tad-router-conn", Group::RouterFront),
            ("tad-router-back", Group::RouterMux),
            ("tad-net-ev", Group::NetEvloop),
            ("tad-serve-shard", Group::ServeShard),
            ("tadbench", Group::Generator),
        ];
        PREFIXES.iter().find(|(p, _)| comm.starts_with(p)).map_or(Group::Other, |&(_, g)| g)
    }

    /// Whether the group is part of the system under test.
    pub fn is_serving(self) -> bool {
        !matches!(self, Group::Generator | Group::Other)
    }
}

/// Cumulative scheduler accounting of one thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadStat {
    /// The thread's name as the kernel reports it.
    pub comm: String,
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

/// Parses one `schedstat` line: `run_ns wait_ns timeslices`.
fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_ascii_whitespace();
    Some((it.next()?.parse().ok()?, it.next()?.parse().ok()?))
}

/// Every live thread of this process, keyed by tid. `None` when
/// `/proc/self/task` cannot be read.
pub fn sample_threads() -> Option<BTreeMap<u32, ThreadStat>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path();
        let tid: u32 = path.file_name()?.to_str()?.parse().ok()?;
        // A thread may exit between the directory read and these reads.
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("schedstat")),
        ) else {
            continue;
        };
        let (run_ns, wait_ns) = parse_schedstat(&stat)?;
        out.insert(tid, ThreadStat { comm: comm.trim_end().to_string(), run_ns, wait_ns });
    }
    Some(out)
}

/// CPU and run-queue time a thread group accumulated between two samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCpu {
    /// Nanoseconds on a CPU.
    pub run_ns: u64,
    /// Nanoseconds runnable but not running.
    pub wait_ns: u64,
    /// Threads of the group seen in the later sample.
    pub threads: usize,
}

impl GroupCpu {
    /// Share of the group's runnable time spent waiting for a CPU.
    pub fn runq_wait_share(&self) -> f64 {
        let total = self.run_ns + self.wait_ns;
        if total == 0 {
            0.0
        } else {
            self.wait_ns as f64 / total as f64
        }
    }
}

/// Per-group deltas between two samples. A thread absent from `before`
/// started in between and counts from zero; a thread absent from `after`
/// exited and its time is lost, so take the later sample before closing
/// connections or shutting servers down.
pub fn group_deltas(
    before: &BTreeMap<u32, ThreadStat>,
    after: &BTreeMap<u32, ThreadStat>,
) -> BTreeMap<Group, GroupCpu> {
    let mut out: BTreeMap<Group, GroupCpu> = BTreeMap::new();
    for (tid, now) in after {
        let (run0, wait0) = before.get(tid).map_or((0, 0), |b| (b.run_ns, b.wait_ns));
        let g = out.entry(Group::of(&now.comm)).or_default();
        g.run_ns += now.run_ns.saturating_sub(run0);
        g.wait_ns += now.wait_ns.saturating_sub(wait0);
        g.threads += 1;
    }
    out
}

/// Peak resident set size of this process in MB (`VmHWM`), `None` off
/// Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(comm: &str, run_ns: u64, wait_ns: u64) -> ThreadStat {
        ThreadStat { comm: comm.to_string(), run_ns, wait_ns }
    }

    #[test]
    fn comm_prefixes_map_to_layers() {
        assert_eq!(Group::of("tad-router-conn"), Group::RouterFront);
        assert_eq!(Group::of("tad-router-back"), Group::RouterMux);
        assert_eq!(Group::of("tad-net-ev-0"), Group::NetEvloop);
        assert_eq!(Group::of("tad-serve-shard"), Group::ServeShard);
        assert_eq!(Group::of("tadbench-gen-1"), Group::Generator);
        assert_eq!(Group::of("tadbench"), Group::Generator);
        assert_eq!(Group::of("tad-net-accepto"), Group::Other);
        assert!(Group::NetEvloop.is_serving() && !Group::Generator.is_serving());
    }

    #[test]
    fn schedstat_line_parses() {
        assert_eq!(parse_schedstat("123 456 7\n"), Some((123, 456)));
        assert_eq!(parse_schedstat("garbage"), None);
    }

    #[test]
    fn deltas_group_and_count_new_threads_from_zero() {
        let before = BTreeMap::from([
            (1, stat("tadbench", 100, 10)),
            (2, stat("tad-serve-shard", 1_000, 50)),
            (3, stat("tad-serve-shard", 2_000, 0)),
        ]);
        let after = BTreeMap::from([
            (1, stat("tadbench", 150, 30)),
            (2, stat("tad-serve-shard", 1_500, 50)),
            (4, stat("tad-net-ev-0", 70, 30)),
        ]);
        let d = group_deltas(&before, &after);
        assert_eq!(d[&Group::Generator], GroupCpu { run_ns: 50, wait_ns: 20, threads: 1 });
        assert_eq!(d[&Group::ServeShard], GroupCpu { run_ns: 500, wait_ns: 0, threads: 1 });
        assert_eq!(d[&Group::NetEvloop], GroupCpu { run_ns: 70, wait_ns: 30, threads: 1 });
        assert_eq!(d[&Group::NetEvloop].runq_wait_share(), 0.3);
        assert_eq!(GroupCpu::default().runq_wait_share(), 0.0);
    }

    #[test]
    fn live_readers_work_on_linux_and_degrade_elsewhere() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("VmHWM") > 0.0);
            assert!(!sample_threads().expect("task dir").is_empty());
        } else {
            assert!(peak_rss_mb().is_none());
        }
    }
}
