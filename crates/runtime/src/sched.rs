//! Discrete-event rank scheduler: thousands of simulated participants in
//! one OS thread.
//!
//! The thread backend gives every simulated MPI rank its own OS thread and
//! lets the kernel interleave them; blocking is a parked thread and every
//! message pays a condvar round-trip. That caps scenarios at a few hundred
//! ranks. This module provides the alternative the suite's virtual-time
//! semantics make possible: each rank becomes a cheap stackful coroutine,
//! and a single scheduler drives them from a binary heap of runnable tasks
//! keyed by `(virtual clock, FIFO sequence)`. A blocked `recv` or barrier
//! is a heap re-insertion instead of a parked thread, so per-event overhead
//! drops to a heap pop plus a user-space context switch and rank counts
//! jump to 10k+.
//!
//! # Task states and event-queue ordering
//!
//! A task is *Ready* (queued in the heap), *Running* (exactly one at a
//! time), *Blocked* (waiting on a [`WaitSet`]), or *Finished*. The heap
//! pops the minimum `(clock, seq)` key: `clock` is the task's virtual
//! resume bound and `seq` a global push counter, so equal-clock tasks run
//! in FIFO order (spawn order on the first round). When a waker at virtual
//! time `t` notifies a task blocked at time `b`, the task re-enters the
//! heap at `max(b, t)` — it can never run "before" the event that released
//! it. Re-notifying an already-Ready task with an earlier bound lowers its
//! key (lazy decrease-key: stale heap entries are skipped on pop by
//! comparing against the task's current `ready_key`).
//!
//! # Non-overtaking sketch
//!
//! Pop keys are non-decreasing over a run: every effect of a task popped at
//! key `k` happens at a virtual clock `≥ k` (work only advances clocks;
//! message completions and collective exits are `max`-based), so every
//! wake it issues carries a bound `≥ k`. Hence when a receiver resumes at
//! key `k_R`, any message a still-pending task could later send has post
//! time `≥ k_R`, and picking the minimum `(send_post, src)` among queued
//! matches reproduces virtual-time arrival order exactly — the property
//! the thread backend can only approximate with a wall-clock grace window.
//!
//! Deadlock detection is structural and instant: an empty heap with live
//! tasks *is* a deadlock, no real-time budget needed. Cleanup unwinds every
//! live coroutine (destructors run, stacks are reclaimed) by resuming it
//! with a cancellation flag that turns the next block into a silent panic.
//!
//! Runs nest: a task may itself call [`run_tasks`] (an OpenMP team forked
//! by a simulated rank), and the inner run completes on that task's stack
//! before the task goes on.

use crate::sync::Unpoison;
use crate::time::VTime;
use std::any::Any;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Which execution substrate drives the simulated ranks.
///
/// Both backends produce byte-identical traces on race-free programs (the
/// whole catalog); the event backend is one to two orders of magnitude
/// faster and scales to 10k+ ranks. The thread backend is kept as the
/// differential-testing oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    /// One OS thread per rank, parked on condvars while blocked.
    Thread,
    /// One coroutine per rank, driven by the discrete-event scheduler.
    #[default]
    Event,
}

impl SimBackend {
    /// Is the coroutine context switch implemented for this target?
    pub fn event_supported() -> bool {
        cfg!(any(target_arch = "x86_64", target_arch = "aarch64"))
    }

    /// The backend that will actually run: falls back to [`SimBackend::Thread`]
    /// on targets without a context-switch implementation.
    pub fn effective(self) -> SimBackend {
        match self {
            SimBackend::Event if !Self::event_supported() => SimBackend::Thread,
            b => b,
        }
    }

    /// Stable lowercase name, for manifests and stats documents.
    pub fn label(self) -> &'static str {
        match self {
            SimBackend::Thread => "thread",
            SimBackend::Event => "event",
        }
    }
}

impl std::fmt::Display for SimBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for SimBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "thread" => Ok(SimBackend::Thread),
            "event" => Ok(SimBackend::Event),
            other => Err(format!(
                "unknown backend {other:?} (expected \"thread\" or \"event\")"
            )),
        }
    }
}

/// Identifies a task within one [`run_tasks`] invocation (its spawn index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// What one scheduler run did, for the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Number of tasks (ranks) driven to completion.
    pub tasks: usize,
    /// Coroutine resumes executed (heap pops that ran a task).
    pub events: u64,
    /// Deepest the ready queue ever got (including lazily-deleted entries).
    pub max_ready: usize,
}

/// Minimum coroutine stack; requests below this are rounded up.
pub const MIN_STACK_BYTES: usize = 32 * 1024;

const CANARY: u64 = 0x5AFE_57AC_CA4A_B1E5;

/// Payload used to unwind cancelled tasks; never escapes [`run_tasks`].
struct CancelToken;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Ready,
    Running,
    Blocked(&'static str),
    Finished,
}

type HeapKey = (VTime, u64);

struct Task {
    /// Saved stack pointer while suspended.
    sp: *mut u8,
    stack: Stack,
    closure: Option<Box<dyn FnOnce() + 'static>>,
    state: TaskState,
    /// Virtual clock at the last `block()` / `yield_at()`.
    block_clock: VTime,
    /// Current heap key while Ready; stale heap entries fail this check.
    ready_key: HeapKey,
    cancelled: bool,
    panic: Option<Box<dyn Any + Send>>,
    core: *mut SchedCore,
}

struct SchedCore {
    sched_sp: *mut u8,
    current: usize,
    // Boxed on purpose: `ctx::craft_stack` writes each task's address into
    // its coroutine stack, so a task must not move when `tasks` grows.
    #[allow(clippy::vec_box)]
    tasks: Vec<Box<Task>>,
    ready: BinaryHeap<Reverse<(HeapKey, usize)>>,
    /// Global push counter: FIFO tie-break among equal clocks.
    seq: u64,
    live: usize,
    events: u64,
    max_ready: usize,
    /// The setting that sized the stacks, named in the overflow message.
    stack_knob: &'static str,
}

thread_local! {
    static ACTIVE: Cell<*mut SchedCore> = const { Cell::new(std::ptr::null_mut()) };
}

fn active() -> *mut SchedCore {
    ACTIVE.with(|a| a.get())
}

/// The id of the simulation task currently executing on this thread, or
/// `None` when called from an ordinary OS thread (thread-backend ranks, pool
/// workers, the test harness itself). Inside a nested [`run_tasks`] this is
/// the id within the innermost run.
pub fn current() -> Option<TaskId> {
    let core = active();
    if core.is_null() {
        return None;
    }
    // SAFETY: non-null ACTIVE points at the SchedCore owned by the
    // `run_tasks` frame live on this thread.
    let id = unsafe { (*core).current };
    (id != usize::MAX).then_some(TaskId(id))
}

/// Is this thread currently inside a simulation task?
pub fn in_task() -> bool {
    current().is_some()
}

/// Suspend the current task until [`wake`]d, recording its virtual clock
/// (the resume bound) and a human-readable reason for deadlock reports.
///
/// # Panics
/// Panics (via a silent cancellation unwind) if the scheduler is tearing
/// the run down; must be called from inside a task.
pub fn block(clock: VTime, reason: &'static str) {
    let core = active();
    assert!(
        !core.is_null(),
        "sched::block called outside a simulation task"
    );
    // SAFETY: single-threaded scheduler; no reference is held across the
    // context switch below.
    unsafe {
        let id = (*core).current;
        assert_ne!(id, usize::MAX, "sched::block called off-task");
        {
            let c = &mut *core;
            let t = &mut *c.tasks[id];
            if t.cancelled {
                resume_unwind(Box::new(CancelToken));
            }
            t.state = TaskState::Blocked(reason);
            t.block_clock = clock;
        }
        switch_to_scheduler(core, id);
        let c = &mut *core;
        if c.tasks[id].cancelled {
            resume_unwind(Box::new(CancelToken));
        }
    }
}

/// Re-queue the current task at virtual time `clock` and let others run —
/// a timed self-wake, used for pure virtual-clock events.
pub fn yield_at(clock: VTime) {
    let core = active();
    assert!(
        !core.is_null(),
        "sched::yield_at called outside a simulation task"
    );
    // SAFETY: as in `block`.
    unsafe {
        let id = (*core).current;
        assert_ne!(id, usize::MAX, "sched::yield_at called off-task");
        {
            let c = &mut *core;
            let key = (clock, c.seq);
            c.seq += 1;
            let t = &mut c.tasks[id];
            if t.cancelled {
                resume_unwind(Box::new(CancelToken));
            }
            t.state = TaskState::Ready;
            t.block_clock = clock;
            t.ready_key = key;
            c.ready.push(Reverse((key, id)));
            c.max_ready = c.max_ready.max(c.ready.len());
        }
        switch_to_scheduler(core, id);
        let c = &mut *core;
        if c.tasks[id].cancelled {
            resume_unwind(Box::new(CancelToken));
        }
    }
}

/// Make a blocked task runnable again, no earlier than virtual time `at`
/// (the waker's clock): the task re-enters the heap at
/// `max(its block clock, at)`. Waking an already-Ready task with an
/// earlier bound lowers its key; anything else is a no-op.
pub fn wake(id: TaskId, at: VTime) {
    let core = active();
    assert!(
        !core.is_null(),
        "sched::wake for task {id:?} from a thread that is not running the scheduler"
    );
    // SAFETY: single-threaded scheduler state, short-lived borrow.
    unsafe {
        let c = &mut *core;
        let Some(t) = c.tasks.get_mut(id.0) else {
            return;
        };
        let bound = t.block_clock.max(at);
        match t.state {
            TaskState::Blocked(_) => {
                let key = (bound, c.seq);
                c.seq += 1;
                t.state = TaskState::Ready;
                t.ready_key = key;
                c.ready.push(Reverse((key, id.0)));
                c.max_ready = c.max_ready.max(c.ready.len());
            }
            TaskState::Ready if bound < t.ready_key.0 => {
                let key = (bound, c.seq);
                c.seq += 1;
                t.ready_key = key;
                c.ready.push(Reverse((key, id.0)));
                c.max_ready = c.max_ready.max(c.ready.len());
            }
            _ => {}
        }
    }
}

/// Run `closures` as cooperatively-scheduled tasks (task id = spawn index,
/// all starting at virtual time zero) until every task finishes. Each task
/// gets a `stack_bytes` coroutine stack; `stack_knob` names the setting
/// that chose that size, for the stack-overflow message.
///
/// Runs may nest: called from inside a task, the inner run executes on that
/// task's stack and completes before returning, and no task of the outer
/// run executes meanwhile. [`current`], [`block`], [`yield_at`] and
/// [`wake`] address the innermost run; the outer task's view is restored on
/// return.
///
/// If a task panics, the remaining tasks are unwound (their destructors
/// run) and the original panic is propagated. If no task is runnable while
/// some are still alive, the run is torn down the same way and a deadlock
/// panic describing every blocked task is raised.
///
/// # Panics
/// Panics on a target without a context-switch implementation (see
/// [`SimBackend::event_supported`]).
pub fn run_tasks<'scope>(
    stack_bytes: usize,
    stack_knob: &'static str,
    closures: Vec<Box<dyn FnOnce() + 'scope>>,
) -> SchedStats {
    assert!(
        SimBackend::event_supported(),
        "the event backend has no context switch for this target; \
         use SimBackend::effective() to fall back to threads"
    );
    let n = closures.len();
    // SAFETY: every coroutine is driven to completion (normal return,
    // panic, or cancellation unwind) before this function returns, so no
    // closure or borrow within it outlives `'scope`.
    let closures: Vec<Box<dyn FnOnce() + 'static>> = closures
        .into_iter()
        .map(|c| unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + 'scope>, Box<dyn FnOnce() + 'static>>(c)
        })
        .collect();

    let stack_bytes = stack_bytes.max(MIN_STACK_BYTES);
    let mut core = Box::new(SchedCore {
        sched_sp: std::ptr::null_mut(),
        current: usize::MAX,
        tasks: Vec::with_capacity(n),
        ready: BinaryHeap::with_capacity(n),
        seq: 0,
        live: n,
        events: 0,
        max_ready: n,
        stack_knob,
    });
    let core_ptr: *mut SchedCore = &mut *core;
    for (id, closure) in closures.into_iter().enumerate() {
        let stack = Stack::alloc(stack_bytes);
        let mut task = Box::new(Task {
            sp: std::ptr::null_mut(),
            stack,
            closure: Some(closure),
            state: TaskState::Ready,
            block_clock: VTime::ZERO,
            ready_key: (VTime::ZERO, id as u64),
            cancelled: false,
            panic: None,
            core: core_ptr,
        });
        // SAFETY: the stack is freshly allocated and owned by `task`; the
        // crafted frame makes the first switch land in `trampoline` with
        // the task pointer in a callee-saved register. The Box gives the
        // task a stable address for the lifetime of the run.
        task.sp = unsafe { ctx::craft_stack(task.stack.top(), &mut *task) };
        task.stack.arm_canary();
        core.tasks.push(task);
        core.ready.push(Reverse(((VTime::ZERO, id as u64), id)));
    }
    core.seq = n as u64;

    let outer = ACTIVE.with(|a| a.replace(core_ptr));
    // SAFETY: core_ptr outlives the loop; the loop leaves every task
    // Finished before returning or unwinding.
    let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { run_loop(core_ptr) }));
    ACTIVE.with(|a| a.set(outer));
    match outcome {
        Ok(()) => SchedStats {
            tasks: n,
            events: core.events,
            max_ready: core.max_ready,
        },
        Err(p) => resume_unwind(p),
    }
}

/// # Safety
/// `core` must point at the live `SchedCore` of this thread's run; no
/// reference into it may be held across `resume`.
unsafe fn run_loop(core: *mut SchedCore) {
    loop {
        let popped = (*core).ready.pop();
        let Some(Reverse((key, id))) = popped else {
            if (*core).live == 0 {
                return;
            }
            let report = describe_blocked(core);
            cancel_all(core);
            panic!(
                "discrete-event scheduler deadlock: no runnable task, {} still blocked \
                 (deadlock in the simulated program?): {report}",
                report_count(core)
            );
        };
        {
            let c = &mut *core;
            let t = &mut *c.tasks[id];
            // Lazily-deleted entry: the task re-blocked, finished, or had
            // its key lowered since this entry was pushed.
            if t.state != TaskState::Ready || t.ready_key != key {
                continue;
            }
            t.state = TaskState::Running;
            c.current = id;
            c.events += 1;
        }
        resume(core, id);
        let c = &mut *core;
        c.current = usize::MAX;
        if c.tasks[id].state == TaskState::Finished {
            c.live -= 1;
            if let Some(p) = c.tasks[id].panic.take() {
                cancel_all(core);
                resume_unwind(p);
            }
        }
    }
}

/// Unwind every unfinished task so stacks, destructors, and borrows are
/// cleaned up before the scheduler frame goes away.
///
/// # Safety
/// As for `run_loop`.
unsafe fn cancel_all(core: *mut SchedCore) {
    let n = {
        let c = &mut *core;
        for t in c.tasks.iter_mut() {
            t.cancelled = true;
        }
        c.tasks.len()
    };
    loop {
        let next = {
            let c = &*core;
            (0..n).find(|&i| c.tasks[i].state != TaskState::Finished)
        };
        let Some(id) = next else {
            break;
        };
        {
            let c = &mut *core;
            c.tasks[id].state = TaskState::Running;
            c.current = id;
        }
        resume(core, id);
        (*core).current = usize::MAX;
        // A cancelled task either unwound (Finished) or ran on and blocked
        // again before noticing; the loop resumes it until it dies.
    }
    (*core).live = 0;
}

/// # Safety
/// As for `run_loop`; `id` must be a valid, unfinished task.
unsafe fn resume(core: *mut SchedCore, id: usize) {
    let (task, sched_sp_slot) = {
        let c = &mut *core;
        let task: *mut Task = &mut *c.tasks[id];
        (task, &raw mut c.sched_sp)
    };
    ctx::switch(sched_sp_slot, (*task).sp);
    if !(*task).stack.canary_ok() {
        eprintln!(
            "fatal: simulation task {id} overflowed its {}-byte stack (raise {})",
            (*task).stack.size(),
            (*core).stack_knob
        );
        std::process::abort();
    }
}

/// # Safety
/// Must be called on a task's coroutine stack with `core.current == id`.
unsafe fn switch_to_scheduler(core: *mut SchedCore, id: usize) {
    let (sp_slot, sched_sp) = {
        let c = &mut *core;
        let sp_slot: *mut *mut u8 = &raw mut c.tasks[id].sp;
        (sp_slot, c.sched_sp)
    };
    ctx::switch(sp_slot, sched_sp);
}

unsafe fn describe_blocked(core: *mut SchedCore) -> String {
    let mut parts = Vec::new();
    let c = &*core;
    for (id, t) in c.tasks.iter().enumerate() {
        if let TaskState::Blocked(reason) = t.state {
            if parts.len() == 8 {
                parts.push("…".to_string());
                break;
            }
            parts.push(format!("task {id} in {reason} @ {:?}", t.block_clock));
        }
    }
    parts.join(", ")
}

unsafe fn report_count(core: *mut SchedCore) -> usize {
    let c = &*core;
    c.tasks
        .iter()
        .filter(|t| matches!(t.state, TaskState::Blocked(_)))
        .count()
}

/// Coroutine entry point: runs the task closure under `catch_unwind`, then
/// parks forever on the scheduler (a finished task is never resumed except
/// by `cancel_all`, which it answers by switching straight back).
unsafe extern "C" fn task_entry(task: *mut Task) -> ! {
    let (core, closure) = {
        let t = &mut *task;
        (t.core, t.closure.take().expect("coroutine entered twice"))
    };
    let outcome = catch_unwind(AssertUnwindSafe(closure));
    {
        let t = &mut *task;
        if let Err(p) = outcome {
            if !p.is::<CancelToken>() {
                t.panic = Some(p);
            }
        }
        t.state = TaskState::Finished;
    }
    loop {
        let sp_slot: *mut *mut u8 = &raw mut (*task).sp;
        ctx::switch(sp_slot, (*core).sched_sp);
    }
}

struct Stack {
    base: *mut u8,
    layout: std::alloc::Layout,
}

impl Stack {
    /// Allocate without initializing: untouched pages stay virtual, so
    /// 8k ranks × 512 KiB stacks cost resident memory only where used.
    fn alloc(bytes: usize) -> Stack {
        let layout = std::alloc::Layout::from_size_align(bytes, 16).expect("stack layout");
        // SAFETY: non-zero size, valid alignment.
        let base = unsafe { std::alloc::alloc(layout) };
        assert!(!base.is_null(), "coroutine stack allocation failed");
        Stack { base, layout }
    }

    fn size(&self) -> usize {
        self.layout.size()
    }

    fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end of the allocation.
        unsafe { self.base.add(self.layout.size()) }
    }

    fn arm_canary(&self) {
        // SAFETY: base is 16-aligned and the stack is at least MIN_STACK_BYTES.
        unsafe { (self.base as *mut u64).write(CANARY) }
    }

    fn canary_ok(&self) -> bool {
        // SAFETY: as in `arm_canary`.
        unsafe { (self.base as *const u64).read() == CANARY }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: allocated in `alloc` with the same layout.
        unsafe { std::alloc::dealloc(self.base, self.layout) }
    }
}

/// The architecture-specific context switch: saves the callee-saved
/// register frame on the current stack, stores the stack pointer through
/// the first argument, installs the second argument as the new stack
/// pointer, restores its frame, and returns on the new stack.
#[cfg(target_arch = "x86_64")]
mod ctx {
    use super::Task;

    /// # Safety
    /// `save_slot` must be writable; `new_sp` must be a stack pointer
    /// previously produced by this function or by `craft_stack`.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(_save_slot: *mut *mut u8, _new_sp: *mut u8) {
        // System V x86-64: rdi = save_slot, rsi = new_sp. Frame layout,
        // low to high: r15 r14 r13 r12 rbx rbp [return address].
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First activation target: moves the task pointer (planted in r12 by
    /// `craft_stack`) into the argument register and calls `task_entry`.
    /// Entered via `ret` with rsp ≡ 0 (mod 16), so the `call` leaves the
    /// stack with standard System V alignment.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            entry = sym super::task_entry,
        )
    }

    /// Build the initial frame `switch` will restore on first resume.
    ///
    /// # Safety
    /// `top` must be one-past-the-end of a stack at least
    /// [`super::MIN_STACK_BYTES`] long; `task` must outlive the coroutine.
    pub(super) unsafe fn craft_stack(top: *mut u8, task: *mut Task) -> *mut u8 {
        let top16 = (top as usize) & !15;
        // ret target at ≡ 8 (mod 16): after the 6 pops and the ret the
        // trampoline starts with rsp = slot+8 ≡ 0 (mod 16).
        let ret_slot = (top16 - 8) as *mut usize;
        ret_slot.write(trampoline as unsafe extern "C" fn() as usize);
        let frame = ret_slot.sub(6);
        frame.write(0); // r15
        frame.add(1).write(0); // r14
        frame.add(2).write(0); // r13
        frame.add(3).write(task as usize); // r12: task pointer
        frame.add(4).write(0); // rbx
        frame.add(5).write(0); // rbp
        frame as *mut u8
    }
}

#[cfg(target_arch = "aarch64")]
mod ctx {
    use super::Task;

    /// # Safety
    /// As for the x86-64 variant.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(_save_slot: *mut *mut u8, _new_sp: *mut u8) {
        // AAPCS64: x0 = save_slot, x1 = new_sp. 160-byte frame: x19..x28,
        // fp, lr, d8..d15; `ret` returns through the restored x30.
        core::arch::naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x2, sp",
            "str x2, [x0]",
            "mov sp, x1",
            "ldp x21, x22, [sp, #16]",
            "ldp x23, x24, [sp, #32]",
            "ldp x25, x26, [sp, #48]",
            "ldp x27, x28, [sp, #64]",
            "ldp x29, x30, [sp, #80]",
            "ldp d8, d9, [sp, #96]",
            "ldp d10, d11, [sp, #112]",
            "ldp d12, d13, [sp, #128]",
            "ldp d14, d15, [sp, #144]",
            "ldp x19, x20, [sp], #160",
            "ret",
        )
    }

    /// First activation target: task pointer arrives in x19.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!(
            "mov x0, x19",
            "bl {entry}",
            "brk #0x1",
            entry = sym super::task_entry,
        )
    }

    /// # Safety
    /// As for the x86-64 variant.
    pub(super) unsafe fn craft_stack(top: *mut u8, task: *mut Task) -> *mut u8 {
        let top16 = (top as usize) & !15;
        let frame = (top16 - 160) as *mut usize;
        for i in 0..20 {
            frame.add(i).write(0);
        }
        frame.write(task as usize); // x19: task pointer
        frame
            .add(11)
            .write(trampoline as unsafe extern "C" fn() as usize); // x30: return target
        frame as *mut u8
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod ctx {
    use super::Task;

    /// # Safety
    /// Never callable: `run_tasks` rejects unsupported targets first.
    pub(super) unsafe extern "C" fn switch(_save_slot: *mut *mut u8, _new_sp: *mut u8) {
        unreachable!("event backend not implemented for this target")
    }

    /// # Safety
    /// As for `switch`.
    pub(super) unsafe fn craft_stack(_top: *mut u8, _task: *mut Task) -> *mut u8 {
        unreachable!("event backend not implemented for this target")
    }
}

/// A wait/notify primitive that blocks cooperatively inside a simulation
/// task and falls back to an OS condvar on plain threads — the bridge that
/// lets one blocking API (mailboxes, rendezvous handshakes, collective
/// slots) serve both backends unchanged.
///
/// The condvar branch is the only place the simulator reads the wall
/// clock: a thread-backend rank has no scheduler to see that every
/// participant is blocked, so it gives up after a real-time budget of
/// inactivity instead (see [`WaitSet::set_thread_budget`]).
#[derive(Debug, Default)]
pub struct WaitSet {
    cv: Condvar,
    waiters: Mutex<Vec<TaskId>>,
}

thread_local! {
    static BUDGET: Cell<Option<Duration>> = const { Cell::new(None) };
}

/// How long [`WaitSet::grace`] lets in-flight notifications land.
const GRACE: Duration = Duration::from_micros(500);

impl WaitSet {
    /// An empty wait set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Give every condvar wait on this OS thread a deadlock budget: a wait
    /// that sees no wake-up for `budget` panics. Thread-backend ranks set
    /// it from `SimConfig::progress_timeout`; without it a plain thread
    /// waits without limit. Scheduler tasks ignore it (their deadlocks are
    /// structural).
    pub fn set_thread_budget(budget: Duration) {
        BUDGET.with(|b| b.set(Some(budget)));
    }

    /// Release `guard`, wait for [`WaitSet::notify_all`], and hand back a
    /// freshly acquired guard on `mutex` (which must own `guard`).
    ///
    /// Inside a task this suspends the coroutine with resume bound `clock`;
    /// `reason` names the wait in the scheduler's deadlock report. On a
    /// plain thread it waits on the condvar.
    ///
    /// # Panics
    /// On a plain thread with a budget set, panics naming `reason` if the
    /// budget passes with no wake-up.
    pub fn wait<'m, T>(
        &self,
        mutex: &'m Mutex<T>,
        guard: MutexGuard<'m, T>,
        clock: VTime,
        reason: &'static str,
    ) -> MutexGuard<'m, T> {
        if let Some(id) = current() {
            self.waiters.lock().unpoison().push(id);
            drop(guard);
            block(clock, reason);
            return mutex.lock().unpoison();
        }
        let Some(budget) = BUDGET.with(Cell::get) else {
            return self.cv.wait(guard).unpoison();
        };
        let (guard, res) = self.cv.wait_timeout(guard, budget).unpoison();
        if res.timed_out() {
            drop(guard);
            panic!("{reason} blocked for {budget:?} with no wake-up (deadlock in the simulated program?)");
        }
        guard
    }

    /// Thread backend only: release `guard` for a short real-time window so
    /// notifications still in flight from other rank threads can land, and
    /// hand it back. Must not be called from a task, whose ordering is
    /// exact already.
    pub fn grace<'m, T>(&self, guard: MutexGuard<'m, T>) -> MutexGuard<'m, T> {
        debug_assert!(current().is_none(), "grace called from a simulation task");
        self.cv.wait_timeout(guard, GRACE).unpoison().0
    }

    /// Wake every registered waiter: queued tasks re-enter the scheduler
    /// no earlier than virtual time `at`; OS threads get a condvar
    /// broadcast.
    pub fn notify_all(&self, at: VTime) {
        let mut w = self.waiters.lock().unpoison();
        for id in w.drain(..) {
            wake(id, at);
        }
        drop(w);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn boxed<'a>(f: impl FnOnce() + 'a) -> Box<dyn FnOnce() + 'a> {
        Box::new(f)
    }

    #[test]
    fn tasks_run_in_virtual_clock_order() {
        let log = Mutex::new(Vec::new());
        let stats = run_tasks(
            MIN_STACK_BYTES,
            "test",
            vec![
                boxed(|| {
                    log.lock().unpoison().push("a0");
                    yield_at(VTime(100));
                    log.lock().unpoison().push("a1");
                }),
                boxed(|| {
                    log.lock().unpoison().push("b0");
                    yield_at(VTime(50));
                    log.lock().unpoison().push("b1");
                }),
            ],
        );
        assert_eq!(log.into_inner().unpoison(), vec!["a0", "b0", "b1", "a1"]);
        assert_eq!(stats.tasks, 2);
        assert_eq!(stats.events, 4);
        assert!(stats.max_ready >= 2);
    }

    #[test]
    fn equal_clocks_run_in_spawn_order() {
        let log = Mutex::new(Vec::new());
        run_tasks(
            MIN_STACK_BYTES,
            "test",
            (0..8)
                .map(|i| {
                    let log = &log;
                    boxed(move || log.lock().unpoison().push(i))
                })
                .collect(),
        );
        assert_eq!(log.into_inner().unpoison(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn waitset_hands_off_between_tasks() {
        let slot: Mutex<Option<u32>> = Mutex::new(None);
        let ws = WaitSet::new();
        let got = Mutex::new(None);
        run_tasks(
            MIN_STACK_BYTES,
            "test",
            vec![
                boxed(|| {
                    let mut s = slot.lock().unpoison();
                    while s.is_none() {
                        s = ws.wait(&slot, s, VTime::ZERO, "test-recv");
                    }
                    *got.lock().unpoison() = *s;
                }),
                boxed(|| {
                    *slot.lock().unpoison() = Some(42);
                    ws.notify_all(VTime(7));
                }),
            ],
        );
        assert_eq!(got.into_inner().unpoison(), Some(42));
    }

    #[test]
    fn wake_bound_is_wakers_clock() {
        // The woken task must not run before a same-clock task queued
        // earlier: its resume bound is max(block clock, waker clock).
        let log = Mutex::new(Vec::new());
        let ws = WaitSet::new();
        let flag = Mutex::new(false);
        run_tasks(
            MIN_STACK_BYTES,
            "test",
            vec![
                boxed(|| {
                    let mut f = flag.lock().unpoison();
                    while !*f {
                        f = ws.wait(&flag, f, VTime::ZERO, "test-wait");
                    }
                    drop(f);
                    log.lock().unpoison().push("waiter");
                }),
                boxed(|| {
                    *flag.lock().unpoison() = true;
                    ws.notify_all(VTime(200));
                    yield_at(VTime(100));
                    log.lock().unpoison().push("mid");
                }),
            ],
        );
        assert_eq!(log.into_inner().unpoison(), vec!["mid", "waiter"]);
    }

    #[test]
    fn nested_run_restores_the_outer_task() {
        let log = Mutex::new(Vec::new());
        let ws = WaitSet::new();
        let flag = Mutex::new(false);
        run_tasks(
            MIN_STACK_BYTES,
            "test",
            vec![
                boxed(|| {
                    run_tasks(
                        MIN_STACK_BYTES,
                        "test",
                        vec![
                            boxed(|| {
                                yield_at(VTime(5));
                                log.lock().unpoison().push(("inner", current()));
                            }),
                            boxed(|| log.lock().unpoison().push(("inner", current()))),
                        ],
                    );
                    assert_eq!(current(), Some(TaskId(0)));
                    let mut f = flag.lock().unpoison();
                    while !*f {
                        f = ws.wait(&flag, f, VTime(1), "test-wait");
                    }
                    drop(f);
                    log.lock().unpoison().push(("outer woke", current()));
                }),
                boxed(|| {
                    log.lock().unpoison().push(("outer", current()));
                    *flag.lock().unpoison() = true;
                    ws.notify_all(VTime(2));
                }),
            ],
        );
        assert_eq!(
            log.into_inner().unpoison(),
            vec![
                ("inner", Some(TaskId(1))),
                ("inner", Some(TaskId(0))),
                ("outer", Some(TaskId(1))),
                ("outer woke", Some(TaskId(0))),
            ]
        );
        assert_eq!(current(), None);
    }

    #[test]
    fn panic_in_one_task_cancels_and_unwinds_the_rest() {
        let dropped = AtomicBool::new(false);
        struct Guard<'a>(&'a AtomicBool);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let ws = WaitSet::new();
        let lock = Mutex::new(());
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_tasks(
                MIN_STACK_BYTES,
                "test",
                vec![
                    boxed(|| {
                        let _g = Guard(&dropped);
                        let mut l = lock.lock().unpoison();
                        loop {
                            l = ws.wait(&lock, l, VTime::ZERO, "test-park");
                        }
                    }),
                    boxed(|| panic!("kaboom")),
                ],
            )
        }))
        .expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "kaboom");
        assert!(
            dropped.load(Ordering::SeqCst),
            "blocked task must be unwound"
        );
    }

    #[test]
    fn structural_deadlock_is_reported() {
        let ws = WaitSet::new();
        let lock = Mutex::new(());
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_tasks(
                MIN_STACK_BYTES,
                "test",
                vec![boxed(|| {
                    let mut l = lock.lock().unpoison();
                    loop {
                        l = ws.wait(&lock, l, VTime(9), "test-recv");
                    }
                })],
            )
        }))
        .expect_err("deadlock must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deadlock"), "got: {msg}");
        assert!(msg.contains("test-recv"), "got: {msg}");
    }

    #[test]
    fn borrows_of_caller_locals_are_sound() {
        let mut results = vec![0u64; 16];
        {
            let cells: Vec<Mutex<&mut u64>> = results.iter_mut().map(Mutex::new).collect();
            run_tasks(
                MIN_STACK_BYTES,
                "test",
                (0..16)
                    .map(|i| {
                        let cells = &cells;
                        boxed(move || {
                            yield_at(VTime((16 - i) as u64));
                            **cells[i].lock().unpoison() = i as u64 + 1;
                        })
                    })
                    .collect(),
            );
        }
        assert_eq!(results, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn backend_labels_round_trip() {
        for b in [SimBackend::Thread, SimBackend::Event] {
            assert_eq!(b.label().parse::<SimBackend>().unwrap(), b);
        }
        assert!("bogus".parse::<SimBackend>().is_err());
        assert_eq!(SimBackend::default(), SimBackend::Event);
        if SimBackend::event_supported() {
            assert_eq!(SimBackend::Event.effective(), SimBackend::Event);
        } else {
            assert_eq!(SimBackend::Event.effective(), SimBackend::Thread);
        }
    }

    #[test]
    fn thousands_of_tasks_fit_in_one_thread() {
        let n = 4096;
        let counter = Mutex::new(0u64);
        let stats = run_tasks(
            MIN_STACK_BYTES,
            "test",
            (0..n)
                .map(|i| {
                    let counter = &counter;
                    boxed(move || {
                        yield_at(VTime(i as u64 % 97));
                        *counter.lock().unpoison() += 1;
                    })
                })
                .collect(),
        );
        assert_eq!(counter.into_inner().unpoison(), n as u64);
        assert_eq!(stats.tasks, n);
        assert_eq!(stats.events, 2 * n as u64);
    }
}
