//! Shared thread-team state: barriers, deterministic worksharing
//! dispensers, and virtual critical sections.
//!
//! Team members are tasks of one discrete-event scheduler run (see
//! [`crate::parallel`]), so every wait here goes through a [`WaitSet`] and
//! suspends the member cooperatively. A team that cannot make progress is
//! a structural deadlock, reported at once by the scheduler with the
//! construct each member is blocked in; no wall-clock budget is involved.

use ats_runtime::sched::{self, WaitSet};
use ats_runtime::sync::Unpoison;
use ats_runtime::{MachineModel, Rendezvous, VDur, VTime};
use std::collections::HashMap;
use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard};

/// Everything the members of one parallel region share.
#[derive(Debug)]
pub struct TeamShared {
    /// Run-unique id of this team (used as the `comm` field of OpenMP
    /// pseudo-collective trace events).
    pub id: u32,
    /// Number of threads.
    pub size: usize,
    /// Barrier/fork/join rendezvous carrying entry clocks.
    pub barrier: Rendezvous<VTime>,
    /// Reduction rendezvous carrying `(entry clock, contribution)` pairs.
    pub reduction: Rendezvous<(VTime, f64)>,
    /// Worksharing dispensers, keyed by the team-local construct sequence
    /// number (threads reach constructs in identical SPMD order).
    pub loops: Mutex<HashMap<u64, Arc<DynSched>>>,
    /// Cost model.
    pub model: MachineModel,
    /// Named critical sections (shared with nested teams).
    pub criticals: Arc<CriticalSpace>,
    /// Sync-id allocator shared with nested teams.
    pub sync_ids: Arc<AtomicU32>,
    /// Trace-location thread-id allocator shared with nested teams.
    pub thread_ids: Arc<AtomicU32>,
    /// RNG root seed inherited by team members.
    pub seed: u64,
    /// Real-work calibration inherited by team members.
    pub calibration: Option<f64>,
}

impl TeamShared {
    /// Barrier exit time given all entries: last arriver plus a
    /// log2-stage combining tree.
    pub fn barrier_exit(&self, entries: &[VTime]) -> VTime {
        let latest = entries.iter().copied().max().unwrap_or(VTime::ZERO);
        latest + self.model.barrier_stage * self.model.tree_stages(entries.len()) as u64
    }

    /// Fetch or create the dispenser for worksharing construct `seq`.
    pub fn dispenser(
        &self,
        seq: u64,
        chunks: impl FnOnce() -> Vec<(usize, usize)>,
    ) -> Arc<DynSched> {
        let mut loops = self.loops.lock().unpoison();
        loops
            .entry(seq)
            .or_insert_with(|| Arc::new(DynSched::new(self.size, chunks())))
            .clone()
    }
}

/// Deterministic dynamic/guided worksharing dispenser.
///
/// Chunks are assigned by greedy list scheduling over *virtual* time: the
/// next chunk always goes to the participating thread with the smallest
/// virtual clock (ties to the lowest thread id). To make that decidable,
/// one chunk executes at a time: the next grant waits until the current
/// chunk's end clock is known.
#[derive(Debug)]
pub struct DynSched {
    m: Mutex<DsState>,
    ws: WaitSet,
}

#[derive(Debug)]
struct DsState {
    chunks: Vec<(usize, usize)>,
    next: usize,
    /// Clock of each thread that is waiting for a turn (`None` = not yet
    /// registered, currently executing, or finished).
    waiting: Vec<Option<VTime>>,
    registered: usize,
    executing: bool,
}

/// One grant from the dispenser: a chunk of iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First iteration index.
    pub start: usize,
    /// One past the last iteration index.
    pub end: usize,
}

impl DynSched {
    fn new(size: usize, chunks: Vec<(usize, usize)>) -> Self {
        DynSched {
            m: Mutex::new(DsState {
                chunks,
                next: 0,
                waiting: vec![None; size],
                registered: 0,
                executing: false,
            }),
            ws: WaitSet::new(),
        }
    }

    /// Register thread `tid` (with its entry clock) as a participant.
    /// All threads must register before any chunk is granted.
    pub fn register(&self, tid: usize, clock: VTime) {
        let mut st = self.m.lock().unpoison();
        st.waiting[tid] = Some(clock);
        st.registered += 1;
        if st.registered == st.waiting.len() {
            self.notify();
        }
        while st.registered < st.waiting.len() {
            st = self.wait(st, clock);
        }
    }

    /// Ask for the first chunk as `tid` at virtual time `clock`. Returns
    /// `None` when the iteration space is exhausted. After executing a
    /// granted chunk, the caller must come back through
    /// [`DynSched::finish_and_acquire`] — completion and the next request
    /// are a single atomic step, so a thread is always either *executing*
    /// (dispenser reserved) or *waiting with a current clock*; there is no
    /// window in which another thread could steal its greedy turn.
    pub fn acquire(&self, tid: usize, clock: VTime) -> Option<Chunk> {
        let mut st = self.m.lock().unpoison();
        st.waiting[tid] = Some(clock);
        self.acquire_locked(st, tid, clock)
    }

    /// Atomically report completion of the previous chunk (ending at
    /// `new_clock`) and request the next one.
    pub fn finish_and_acquire(&self, tid: usize, new_clock: VTime) -> Option<Chunk> {
        let mut st = self.m.lock().unpoison();
        debug_assert!(st.executing, "finish_and_acquire without a granted chunk");
        st.executing = false;
        st.waiting[tid] = Some(new_clock);
        self.notify();
        self.acquire_locked(st, tid, new_clock)
    }

    fn acquire_locked<'a>(
        &'a self,
        mut st: MutexGuard<'a, DsState>,
        tid: usize,
        clock: VTime,
    ) -> Option<Chunk> {
        loop {
            if st.next >= st.chunks.len() {
                st.waiting[tid] = None;
                self.notify();
                return None;
            }
            let my_turn = !st.executing
                && st
                    .waiting
                    .iter()
                    .enumerate()
                    .filter_map(|(i, c)| c.map(|c| (c, i)))
                    .min()
                    .map(|(_, i)| i)
                    == Some(tid);
            if my_turn {
                let (start, end) = st.chunks[st.next];
                st.next += 1;
                st.executing = true;
                st.waiting[tid] = None;
                return Some(Chunk { start, end });
            }
            st = self.wait(st, clock);
        }
    }

    fn wait<'a>(&'a self, st: MutexGuard<'a, DsState>, clock: VTime) -> MutexGuard<'a, DsState> {
        self.ws.wait(&self.m, st, clock, "OpenMP worksharing")
    }

    /// Wake every waiter at its own clock: a grant carries no message, so
    /// the notifier's clock is no causal bound for the waiters.
    fn notify(&self) {
        self.ws.notify_all(VTime::ZERO);
    }
}

/// Compute dynamic-schedule chunk ranges: fixed `chunk` iterations each.
pub fn dynamic_chunks(iters: usize, chunk: usize) -> Vec<(usize, usize)> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut out = Vec::new();
    let mut i = 0;
    while i < iters {
        out.push((i, (i + chunk).min(iters)));
        i += chunk;
    }
    out
}

/// Compute guided-schedule chunk ranges: each grant takes
/// `ceil(remaining / nthreads)` iterations, never below `min_chunk`.
pub fn guided_chunks(iters: usize, nthreads: usize, min_chunk: usize) -> Vec<(usize, usize)> {
    assert!(min_chunk > 0, "minimum chunk size must be positive");
    assert!(nthreads > 0, "need at least one thread");
    let mut out = Vec::new();
    let mut i = 0;
    while i < iters {
        let remaining = iters - i;
        let take = (remaining.div_ceil(nthreads)).max(min_chunk).min(remaining);
        out.push((i, i + take));
        i += take;
    }
    out
}

/// The named-critical-section space of one process: a virtual mutex per
/// name. Entering a critical section serializes contenders in virtual time
/// (`start = max(arrival, previous holder's release)`).
#[derive(Debug, Default)]
pub struct CriticalSpace {
    locks: Mutex<HashMap<String, Arc<VirtualMutex>>>,
}

impl CriticalSpace {
    /// Create an empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch or create the mutex for `name`.
    pub fn named(&self, name: &str) -> Arc<VirtualMutex> {
        self.locks
            .lock()
            .unpoison()
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(VirtualMutex::new()))
            .clone()
    }
}

/// A mutex whose contention is accounted in virtual time.
///
/// Contenders obtain it in `(arrival clock, seq)` order: [`VirtualMutex::acquire`]
/// first yields to the scheduler at the arrival clock, so a member reaches
/// the lock only after every member with an earlier arrival (or an equal one
/// queued before it) has had its turn. No OS lock is held across the body,
/// which may itself switch tasks (a nested team, another critical section);
/// a contender arriving while the body runs waits for the release.
#[derive(Debug, Default)]
pub struct VirtualMutex {
    state: Mutex<VmState>,
    ws: WaitSet,
}

#[derive(Debug, Default)]
struct VmState {
    held: bool,
    free_at: VTime,
    acquisitions: u64,
}

/// Guard-style handle produced by [`VirtualMutex::acquire`].
pub struct VmGuard<'a> {
    lock: &'a VirtualMutex,
    /// Virtual time at which the caller actually obtained the lock.
    pub start: VTime,
    /// Time spent waiting for earlier holders.
    pub waited: VDur,
}

impl VirtualMutex {
    /// Create a free mutex.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire at virtual `arrival`, adding `lock_overhead`. The returned
    /// guard's `start` is when the body may begin.
    ///
    /// # Panics
    /// Panics if called outside a scheduler task (team members always run
    /// as tasks).
    pub fn acquire(&self, arrival: VTime, lock_overhead: VDur) -> VmGuard<'_> {
        sched::yield_at(arrival);
        let mut st = self.state.lock().unpoison();
        while st.held {
            st = self.ws.wait(&self.state, st, arrival, "OpenMP lock");
        }
        st.held = true;
        let start = arrival.max(st.free_at) + lock_overhead;
        VmGuard {
            lock: self,
            waited: start - arrival,
            start,
        }
    }

    /// Total successful acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.state.lock().unpoison().acquisitions
    }
}

impl VmGuard<'_> {
    /// Release at virtual time `end` (the clock after the critical body).
    pub fn release(self, end: VTime) {
        debug_assert!(end >= self.start, "critical body ended before it began");
        let mut st = self.lock.state.lock().unpoison();
        st.held = false;
        st.free_at = end;
        st.acquisitions += 1;
        drop(st);
        self.lock.ws.notify_all(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> VTime {
        VTime(ms * 1_000_000)
    }

    #[test]
    fn dynamic_chunk_ranges() {
        assert_eq!(dynamic_chunks(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(dynamic_chunks(0, 4), vec![]);
        assert_eq!(dynamic_chunks(3, 10), vec![(0, 3)]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        dynamic_chunks(10, 0);
    }

    #[test]
    fn guided_chunks_shrink() {
        let chunks = guided_chunks(32, 4, 2);
        // 32/4=8, 24/4=6, 18/4=5(ceil 4.5), 13/4=4(ceil 3.25), ...
        assert_eq!(chunks[0], (0, 8));
        assert!(chunks
            .windows(2)
            .all(|w| (w[0].1 - w[0].0) >= (w[1].1 - w[1].0)));
        assert_eq!(chunks.last().unwrap().1, 32);
        // Full coverage without gaps.
        for w in chunks.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn guided_respects_min_chunk() {
        let chunks = guided_chunks(100, 4, 10);
        for &(a, b) in &chunks[..chunks.len() - 1] {
            assert!(b - a >= 10);
        }
    }

    fn boxed<'a>(f: impl FnOnce() + 'a) -> Box<dyn FnOnce() + 'a> {
        Box::new(f)
    }

    #[test]
    fn dispenser_grants_to_min_clock_thread() {
        let ds = DynSched::new(2, dynamic_chunks(3, 1));
        let got1 = Mutex::new(Vec::new());
        sched::run_tasks(
            sched::MIN_STACK_BYTES,
            "test",
            vec![
                boxed(|| {
                    ds.register(0, t(1));
                    let first = ds.acquire(0, t(1)).unwrap();
                    assert_eq!(first, Chunk { start: 0, end: 1 }, "min clock wins");
                    let second = ds.finish_and_acquire(0, t(2)).unwrap();
                    assert_eq!(second, Chunk { start: 1, end: 2 }, "still the min clock");
                    // Thread 0 retires at a huge clock: the final chunk goes to 1.
                    assert_eq!(
                        ds.finish_and_acquire(0, t(200)),
                        None,
                        "thread 1 (100ms) outranks thread 0 (200ms) for the last chunk"
                    );
                }),
                // Thread 1 sits at clock 100ms: it must not win a grant while
                // thread 0 keeps presenting smaller clocks.
                boxed(|| {
                    ds.register(1, t(100));
                    let mut next = ds.acquire(1, t(100));
                    while let Some(c) = next {
                        got1.lock().unpoison().push(c);
                        next = ds.finish_and_acquire(1, t(100));
                    }
                }),
            ],
        );
        assert_eq!(
            got1.into_inner().unpoison(),
            vec![Chunk { start: 2, end: 3 }]
        );
    }

    #[test]
    fn virtual_mutex_grants_in_arrival_order() {
        // t threads arrive together, hold the lock for b each visit and
        // come straight back, r times: the first round waits
        // b·(0 + 1 + … + t−1), every later round b·(t−1) per thread, so the
        // total is b·t(t−1)(r−½) whatever the host does.
        let (threads, rounds, b) = (4u64, 3, VDur::from_millis(10));
        let vm = VirtualMutex::new();
        let waited = Mutex::new(VDur::ZERO);
        sched::run_tasks(
            sched::MIN_STACK_BYTES,
            "test",
            (0..threads)
                .map(|_| {
                    let (vm, waited) = (&vm, &waited);
                    boxed(move || {
                        let mut clock = VTime::ZERO;
                        for _ in 0..rounds {
                            let g = vm.acquire(clock, VDur::ZERO);
                            *waited.lock().unpoison() += g.waited;
                            clock = g.start + b;
                            g.release(clock);
                        }
                    })
                })
                .collect(),
        );
        let expect = b * (threads * (threads - 1) * (2 * rounds - 1) / 2);
        assert_eq!(waited.into_inner().unpoison(), expect);
        assert_eq!(expect, VDur::from_millis(300));
        assert_eq!(vm.acquisitions(), threads * rounds);
    }

    #[test]
    fn critical_space_interns_by_name() {
        let cs = CriticalSpace::new();
        let a = cs.named("x");
        let b = cs.named("x");
        let c = cs.named("y");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
