//! Deterministic fault injection for storage robustness tests.
//!
//! [`FaultStore`] wraps any [`ByteStore`] and perturbs its operations
//! according to a seeded [`FaultPlan`]: transient read errors (retryable),
//! silent bit flips, truncated reads, and torn (partial) writes. Faults
//! are a pure function of the plan's seed, the file name, and the
//! operation sequence number, so a failing test case replays exactly.
//! Injected faults are tallied in [`FaultCounters`].

use std::io;
use std::sync::Mutex;

use crate::store::ByteStore;

/// SplitMix64, private to this crate so the storage crate stays
/// dependency-free (the relation crate's `Rng` would invert the layering).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, enough to give distinct files distinct fault positions.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// What a matching rule does to the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// The read fails with [`io::ErrorKind::Interrupted`] (transient).
    TransientError,
    /// One deterministically-chosen bit of the returned data is flipped.
    BitFlip,
    /// Only the first `keep` bytes of the file are returned.
    Truncate(usize),
    /// Only a deterministically-chosen prefix of the data is persisted.
    TornWrite,
}

#[derive(Debug, Clone)]
struct Rule {
    /// Substring match against the file name; empty matches every file.
    pattern: String,
    kind: FaultKind,
    /// Fire on every `nth` matching operation (1 = every one).
    every_nth: u64,
    /// Remaining firings; `None` = unlimited.
    budget: Option<u64>,
    /// Matching operations seen so far.
    seen: u64,
}

impl Rule {
    fn fire(&mut self) -> bool {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.every_nth) {
            return false;
        }
        match &mut self.budget {
            Some(0) => false,
            Some(n) => {
                *n -= 1;
                true
            }
            None => true,
        }
    }
}

/// A seeded, ordered list of fault rules. Build with the `with_*`
/// methods, then hand to [`FaultStore::new`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    /// Mutation-byte budget after which the store "crashes" (every later
    /// mutation fails); `None` = never.
    crash_after: Option<u64>,
    /// Record every mutation in a replayable trace.
    trace: bool,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
            crash_after: None,
            trace: false,
        }
    }

    fn push(mut self, pattern: &str, kind: FaultKind, every_nth: u64, budget: Option<u64>) -> Self {
        assert!(every_nth >= 1, "every_nth must be at least 1");
        self.rules.push(Rule {
            pattern: pattern.to_string(),
            kind,
            every_nth,
            budget,
            seen: 0,
        });
        self
    }

    /// The first `count` reads of files whose name contains `pattern`
    /// fail with a transient [`io::ErrorKind::Interrupted`] error.
    pub fn with_transient_reads(self, pattern: &str, count: u64) -> Self {
        self.push(pattern, FaultKind::TransientError, 1, Some(count))
    }

    /// Every `nth` read (of any file) fails with a transient error.
    pub fn with_transient_every_nth_read(self, nth: u64) -> Self {
        self.push("", FaultKind::TransientError, nth, None)
    }

    /// Every read of files whose name contains `pattern` returns data
    /// with one seeded bit flipped (silent corruption).
    pub fn with_bit_flip(self, pattern: &str) -> Self {
        self.push(pattern, FaultKind::BitFlip, 1, None)
    }

    /// Every read of files whose name contains `pattern` returns only the
    /// first `keep` bytes.
    pub fn with_truncated_reads(self, pattern: &str, keep: usize) -> Self {
        self.push(pattern, FaultKind::Truncate(keep), 1, None)
    }

    /// The first `count` writes to files whose name contains `pattern`
    /// persist only a seeded prefix of the data (a torn write).
    pub fn with_torn_writes(self, pattern: &str, count: u64) -> Self {
        self.push(pattern, FaultKind::TornWrite, 1, Some(count))
    }

    /// The process "crashes" once `budget` mutation bytes have been
    /// charged: the mutation that crosses the budget fails — an atomic
    /// `write_file` persists nothing, an `append_file` persists exactly
    /// the remaining-budget prefix (a torn tail) — and every later
    /// mutation fails too. Reads keep working (post-mortem inspection).
    ///
    /// Every mutation is charged its data length with a one-byte floor,
    /// so zero-length operations (`sync_file`, `remove_file`) are
    /// distinct crash points. Combined with the trace of a clean run
    /// ([`FaultStore::write_trace`] under [`FaultPlan::with_write_trace`])
    /// this enumerates a deterministic crash-point matrix: every
    /// operation boundary plus any mid-operation byte offset.
    pub fn with_crash_after_bytes(mut self, budget: u64) -> Self {
        self.crash_after = Some(budget);
        self
    }

    /// Records every mutating operation (name and cumulative charged
    /// bytes) for retrieval via [`FaultStore::write_trace`]. Off by
    /// default — the trace grows without bound on long workloads.
    pub fn with_write_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Tallies of the faults actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Reads failed with a transient error.
    pub transient_errors: u64,
    /// Reads returned with a flipped bit.
    pub bit_flips: u64,
    /// Reads returned truncated.
    pub truncated_reads: u64,
    /// Writes persisted partially.
    pub torn_writes: u64,
}

impl FaultCounters {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.transient_errors + self.bit_flips + self.truncated_reads + self.torn_writes
    }
}

#[derive(Debug)]
struct FaultState {
    rules: Vec<Rule>,
    counters: FaultCounters,
    /// Remaining mutation-byte budget before the injected crash.
    crash_remaining: Option<u64>,
    /// Once set, every mutation fails.
    crashed: bool,
    /// Mutation bytes charged so far (data length, one-byte floor).
    written: u64,
    /// `Some` when tracing: (op:file, cumulative charged bytes) pairs.
    trace: Option<Vec<(String, u64)>>,
}

/// What a charged mutation may do, given the crash budget.
enum Charge {
    /// The whole operation proceeds.
    Proceed,
    /// The crash point landed inside (or before) this operation: persist
    /// at most `keep` bytes, then fail.
    Crash {
        /// Surviving prefix length for append-style mutations; atomic
        /// replaces persist nothing regardless.
        keep: u64,
    },
}

fn crash_error(op: &str, name: &str) -> io::Error {
    io::Error::other(format!("injected crash: {op} {name} rejected"))
}

/// A [`ByteStore`] wrapper that injects faults per a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultStore<S: ByteStore> {
    inner: S,
    seed: u64,
    state: Mutex<FaultState>,
}

impl<S: ByteStore> FaultStore<S> {
    /// Wraps `inner` with the fault plan.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self {
            inner,
            seed: plan.seed,
            state: Mutex::new(FaultState {
                rules: plan.rules,
                counters: FaultCounters::default(),
                crash_remaining: plan.crash_after,
                crashed: false,
                written: 0,
                trace: plan.trace.then(Vec::new),
            }),
        }
    }

    /// Counters of the faults injected so far.
    pub fn counters(&self) -> FaultCounters {
        self.lock().counters
    }

    /// Mutation bytes charged so far (data length, one-byte floor per
    /// operation) — the coordinate system of
    /// [`FaultPlan::with_crash_after_bytes`].
    pub fn bytes_written(&self) -> u64 {
        self.lock().written
    }

    /// `true` once the injected crash point has been hit.
    pub fn has_crashed(&self) -> bool {
        self.lock().crashed
    }

    /// The mutation trace of a [`FaultPlan::with_write_trace`] run:
    /// `(op:file, cumulative charged bytes)` per mutation, in order. A
    /// crash harness records this on a clean run, then replays with
    /// [`FaultPlan::with_crash_after_bytes`] at every boundary and
    /// mid-operation offset it exposes. Empty when tracing is off.
    pub fn write_trace(&self) -> Vec<(String, u64)> {
        self.lock().trace.clone().unwrap_or_default()
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, discarding the fault plan.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Charges a mutation of `len` data bytes against the crash budget
    /// (one-byte floor) and appends it to the trace when tracing.
    fn charge(&self, op: &str, name: &str, len: u64) -> Charge {
        let mut st = self.lock();
        if st.crashed {
            return Charge::Crash { keep: 0 };
        }
        let cost = len.max(1);
        let keep = match st.crash_remaining {
            Some(remaining) if remaining < cost => {
                st.crashed = true;
                Some(remaining.min(len))
            }
            _ => {
                if let Some(remaining) = &mut st.crash_remaining {
                    *remaining -= cost;
                }
                None
            }
        };
        st.written += keep.unwrap_or(cost);
        let written = st.written;
        if let Some(trace) = &mut st.trace {
            trace.push((format!("{op}:{name}"), written));
        }
        match keep {
            Some(keep) => Charge::Crash { keep },
            None => Charge::Proceed,
        }
    }

    /// Deterministic value in `0..bound` for this (file, occurrence).
    fn roll(&self, name: &str, salt: u64, bound: u64) -> u64 {
        let mut s = self.seed ^ hash_name(name) ^ salt.wrapping_mul(0x2545_F491_4F6C_DD1D);
        if bound == 0 {
            return 0;
        }
        splitmix64(&mut s) % bound
    }
}

impl<S: ByteStore> ByteStore for FaultStore<S> {
    fn write_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        // Crash budget first: an atomic replace that crashes persists
        // nothing (the temp file never got renamed into place).
        if let Charge::Crash { .. } = self.charge("write", name, data.len() as u64) {
            return Err(crash_error("write", name));
        }
        let mut torn = None;
        {
            let mut st = self.lock();
            for rule in st.rules.iter_mut() {
                if rule.kind == FaultKind::TornWrite && name.contains(&rule.pattern) && rule.fire()
                {
                    torn = Some(rule.seen);
                    break;
                }
            }
            if torn.is_some() {
                st.counters.torn_writes += 1;
            }
        }
        match torn {
            Some(occurrence) => {
                // Persist a strict prefix: the write started but did not finish.
                let keep = self.roll(name, occurrence, data.len().max(1) as u64) as usize;
                self.inner.write_file(name, &data[..keep])
            }
            None => self.inner.write_file(name, data),
        }
    }

    /// Appends honor both injections: a crash persists exactly the
    /// remaining-budget prefix (a torn log tail), and a matching
    /// [`FaultPlan::with_torn_writes`] rule models a **torn fsync** —
    /// a seeded prefix lands but the operation reports failure, so a
    /// correct caller must not acknowledge the batch.
    fn append_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        match self.charge("append", name, data.len() as u64) {
            Charge::Crash { keep } => {
                if keep > 0 {
                    self.inner.append_file(name, &data[..keep as usize])?;
                }
                Err(crash_error("append", name))
            }
            Charge::Proceed => {
                let mut torn = None;
                {
                    let mut st = self.lock();
                    for rule in st.rules.iter_mut() {
                        if rule.kind == FaultKind::TornWrite
                            && name.contains(&rule.pattern)
                            && rule.fire()
                        {
                            torn = Some(rule.seen);
                            break;
                        }
                    }
                    if torn.is_some() {
                        st.counters.torn_writes += 1;
                    }
                }
                match torn {
                    Some(occurrence) => {
                        let keep = self.roll(name, occurrence, data.len().max(1) as u64) as usize;
                        self.inner.append_file(name, &data[..keep])?;
                        Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            format!("injected torn fsync appending {name}"),
                        ))
                    }
                    None => self.inner.append_file(name, data),
                }
            }
        }
    }

    fn sync_file(&mut self, name: &str) -> io::Result<()> {
        match self.charge("sync", name, 0) {
            Charge::Crash { .. } => Err(crash_error("sync", name)),
            Charge::Proceed => self.inner.sync_file(name),
        }
    }

    fn remove_file(&mut self, name: &str) -> io::Result<()> {
        match self.charge("remove", name, 0) {
            Charge::Crash { .. } => Err(crash_error("remove", name)),
            Charge::Proceed => self.inner.remove_file(name),
        }
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut fault = None;
        {
            let mut st = self.lock();
            for rule in st.rules.iter_mut() {
                if rule.kind != FaultKind::TornWrite && name.contains(&rule.pattern) && rule.fire()
                {
                    fault = Some((rule.kind, rule.seen));
                    break;
                }
            }
            match fault {
                Some((FaultKind::TransientError, _)) => st.counters.transient_errors += 1,
                Some((FaultKind::BitFlip, _)) => st.counters.bit_flips += 1,
                Some((FaultKind::Truncate(_), _)) => st.counters.truncated_reads += 1,
                _ => {}
            }
        }
        match fault {
            Some((FaultKind::TransientError, _)) => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient fault reading {name}"),
            )),
            Some((FaultKind::BitFlip, occurrence)) => {
                let mut data = self.inner.read_file(name)?;
                if !data.is_empty() {
                    let bit = self.roll(name, occurrence, data.len() as u64 * 8);
                    data[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                Ok(data)
            }
            Some((FaultKind::Truncate(keep), _)) => {
                let mut data = self.inner.read_file(name)?;
                data.truncate(keep);
                Ok(data)
            }
            _ => self.inner.read_file(name),
        }
    }

    fn file_size(&self, name: &str) -> io::Result<u64> {
        self.inner.file_size(name)
    }

    fn file_names(&self) -> io::Result<Vec<String>> {
        self.inner.file_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn seeded_store() -> MemStore {
        let mut m = MemStore::new();
        m.write_file("a.bmp", &[0xFF; 32]).unwrap();
        m.write_file("b.cmp", &[0x00; 32]).unwrap();
        m
    }

    #[test]
    fn clean_plan_is_transparent() {
        let fs = FaultStore::new(seeded_store(), FaultPlan::new(1));
        assert_eq!(fs.read_file("a.bmp").unwrap(), vec![0xFF; 32]);
        assert_eq!(fs.counters().total(), 0);
    }

    #[test]
    fn transient_reads_fail_then_recover() {
        let fs = FaultStore::new(
            seeded_store(),
            FaultPlan::new(1).with_transient_reads("a", 2),
        );
        for _ in 0..2 {
            let err = fs.read_file("a.bmp").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        }
        assert_eq!(fs.read_file("a.bmp").unwrap(), vec![0xFF; 32]);
        assert_eq!(fs.read_file("b.cmp").unwrap(), vec![0x00; 32]); // unmatched
        assert_eq!(fs.counters().transient_errors, 2);
    }

    #[test]
    fn every_nth_read_fails() {
        let fs = FaultStore::new(
            seeded_store(),
            FaultPlan::new(1).with_transient_every_nth_read(3),
        );
        let mut failures = 0;
        for _ in 0..9 {
            if fs.read_file("a.bmp").is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 3);
        assert_eq!(fs.counters().transient_errors, 3);
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit_deterministically() {
        let fs = FaultStore::new(seeded_store(), FaultPlan::new(42).with_bit_flip("a.bmp"));
        let first = fs.read_file("a.bmp").unwrap();
        let diff: u32 = first
            .iter()
            .zip([0xFFu8; 32])
            .map(|(&g, w)| (g ^ w).count_ones())
            .sum();
        assert_eq!(diff, 1);
        // Same seed, same occurrence number on a fresh store: same flip.
        let fs2 = FaultStore::new(seeded_store(), FaultPlan::new(42).with_bit_flip("a.bmp"));
        assert_eq!(fs2.read_file("a.bmp").unwrap(), first);
        assert_eq!(fs.counters().bit_flips, 1);
    }

    #[test]
    fn truncated_reads_shorten() {
        let fs = FaultStore::new(
            seeded_store(),
            FaultPlan::new(1).with_truncated_reads("b.cmp", 5),
        );
        assert_eq!(fs.read_file("b.cmp").unwrap().len(), 5);
        assert_eq!(fs.read_file("a.bmp").unwrap().len(), 32);
        assert_eq!(fs.counters().truncated_reads, 1);
    }

    #[test]
    fn crash_budget_fails_mutations_at_the_byte_boundary() {
        // Budget 10: an 8-byte write proceeds, the next 8-byte append
        // crosses the budget and persists exactly the 2 remaining bytes.
        let mut fs = FaultStore::new(
            MemStore::new(),
            FaultPlan::new(1)
                .with_crash_after_bytes(10)
                .with_write_trace(),
        );
        fs.write_file("w.bin", &[1u8; 8]).unwrap();
        let err = fs.append_file("log", &[2u8; 8]).unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(fs.has_crashed());
        assert_eq!(fs.inner().read_file("log").unwrap(), vec![2u8; 2]);
        // After the crash every mutation fails; reads still work.
        assert!(fs.write_file("x", &[0]).is_err());
        assert!(fs.sync_file("w.bin").is_err());
        assert!(fs.remove_file("w.bin").is_err());
        assert_eq!(fs.read_file("w.bin").unwrap(), vec![1u8; 8]);
        assert_eq!(fs.bytes_written(), 10);
        let trace = fs.write_trace();
        assert_eq!(trace[0], ("write:w.bin".to_string(), 8));
        assert_eq!(trace[1], ("append:log".to_string(), 10));
    }

    #[test]
    fn crash_mid_atomic_write_persists_nothing() {
        let mut fs = FaultStore::new(seeded_store(), FaultPlan::new(1).with_crash_after_bytes(3));
        let err = fs.write_file("a.bmp", &[7u8; 16]).unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        // The old content survives untouched: atomic replace semantics.
        assert_eq!(fs.inner().read_file("a.bmp").unwrap(), vec![0xFF; 32]);
    }

    #[test]
    fn zero_length_mutations_are_distinct_crash_points() {
        // Budget 1 admits the 1-byte append; the sync (1-byte floor)
        // crashes — the torn-fsync boundary.
        let mut fs = FaultStore::new(MemStore::new(), FaultPlan::new(1).with_crash_after_bytes(1));
        fs.append_file("log", &[5]).unwrap();
        assert!(fs.sync_file("log").is_err());
        assert_eq!(fs.inner().read_file("log").unwrap(), vec![5]);
    }

    #[test]
    fn torn_fsync_on_append_persists_prefix_and_errors() {
        let mut fs = FaultStore::new(
            MemStore::new(),
            FaultPlan::new(7).with_torn_writes("log", 1),
        );
        let err = fs.append_file("log", &[9u8; 100]).unwrap_err();
        assert!(err.to_string().contains("torn fsync"), "{err}");
        let stored = fs.inner().read_file("log").unwrap();
        assert!(stored.len() < 100, "got {} bytes", stored.len());
        // Budget exhausted: the next append lands whole and succeeds.
        fs.append_file("log", &[9u8; 10]).unwrap();
        assert_eq!(
            fs.inner().read_file("log").unwrap().len(),
            stored.len() + 10
        );
        assert_eq!(fs.counters().torn_writes, 1);
    }

    #[test]
    fn torn_write_persists_strict_prefix() {
        let mut fs = FaultStore::new(MemStore::new(), FaultPlan::new(7).with_torn_writes("x", 1));
        fs.write_file("x.bin", &[9u8; 100]).unwrap();
        let stored = fs.inner().read_file("x.bin").unwrap();
        assert!(stored.len() < 100, "got {} bytes", stored.len());
        assert!(stored.iter().all(|&b| b == 9));
        // Budget exhausted: second write lands whole.
        fs.write_file("x.bin", &[9u8; 100]).unwrap();
        assert_eq!(fs.inner().read_file("x.bin").unwrap().len(), 100);
        assert_eq!(fs.counters().torn_writes, 1);
    }
}
