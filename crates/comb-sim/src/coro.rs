//! Stackful coroutines: the execution vehicle of simulated processes.
//!
//! A [`Coroutine`] is a stack of its own plus the stack pointer saved when
//! it last switched out. [`switch`] saves the running context on its own
//! stack, loads another saved context and returns into it, handing over
//! one word. Both directions use it: the event loop resumes a process by
//! switching to the process's saved stack pointer, and the process parks
//! by switching back to the loop's. No OS thread is involved, so a switch
//! costs a few nanoseconds instead of a futex wake and a reschedule.
//!
//! Stacks are 2 MiB — the size a std thread gets by default — mapped with
//! `MAP_NORESERVE`, so only the pages a process touches are committed, and
//! with an inaccessible guard page below them: a process that overflows its
//! stack dies with `SIGSEGV` instead of silently writing over other memory.
//! A coroutine that ran to its end gives its stack, guard page and all, to
//! a free list of the thread it ran on, and the next coroutine created on
//! that thread takes it instead of mapping one: a run of many short
//! simulations maps as many stacks as a thread ever had processes alive at
//! once, not one per process. A coroutine dropped while still suspended is
//! unmapped, so a stale pointer into it faults rather than reading a
//! reused stack; the free list is unmapped when its thread exits.
//!
//! A coroutine is pinned to the OS thread that first resumed it. Code on
//! its stack may hold thread-local addresses, and the compiler is free to
//! cache them across the switch, so [`Coroutine::resume`] checks the
//! thread before every switch rather than trusting its callers.
//!
//! The switch is written for x86_64 System V (Linux). A port to another
//! target adds its own `switch` and initial frame in this file.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "crates/comb-sim/src/coro.rs: simulated processes need a stack switch, \
     and only x86_64 Linux has one; a port adds `switch` and the initial \
     frame for its target in this file"
);

use std::cell::{Cell, RefCell};
use std::ffi::c_void;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// Usable stack per coroutine: the default stack of a std thread.
const STACK_SIZE: usize = 2 << 20;

/// The inaccessible page below each stack (the x86_64 base page size).
const GUARD_SIZE: usize = 4096;

/// What [`switch`] delivers to the context it switches to: the stack
/// pointer the other side was saved at, and the word it passed.
#[repr(C)]
pub(crate) struct Transfer {
    /// Where the context that switched away is suspended; switch to this to
    /// resume it.
    pub sp: usize,
    /// The word it passed.
    pub arg: usize,
}

/// Save the running context on its stack, switch to the context saved at
/// `to`, and hand it `arg`. Returns when something switches back to this
/// context, with that side's saved stack pointer and word.
///
/// The saved context is the System V callee-saved state: `rbx`, `rbp`,
/// `r12`–`r15`, the MXCSR (SSE rounding and exception masks) and the x87
/// control word. Everything else is caller-saved and already spilled by the
/// compiler around this call. A fresh coroutine's initial frame (see
/// [`Coroutine::new`]) "returns" into its entry function, which receives
/// the same [`Transfer`] as its argument in `rdi:rsi`.
///
/// # Safety
///
/// `to` must be a stack pointer saved by `switch` (or built by
/// [`Coroutine::new`]) whose context is suspended, has not been resumed
/// since, and belongs to the calling OS thread's execution (see the module
/// docs). No panic may unwind across a switch: both sides catch their own.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(to: usize, arg: usize) -> Transfer {
    std::arch::naked_asm!(
        // Save the callee-saved registers and the floating-point control
        // words on the current stack.
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        // Switch stacks; the old stack pointer goes to the other side.
        "mov rax, rsp",
        "mov rsp, rdi",
        // Restore the target's saved state.
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        // Return `Transfer { sp, arg }` in rax:rdx to a suspended `switch`
        // call, and pass it in rdi:rsi to a fresh coroutine's entry.
        "mov rdx, rsi",
        "mov rdi, rax",
        "ret",
    )
}

/// Default MXCSR: every SSE exception masked, round to nearest.
const MXCSR_DEFAULT: u64 = 0x1F80;
/// Default x87 control word: every exception masked, 64-bit precision,
/// round to nearest.
const FCW_DEFAULT: u64 = 0x037F;

/// Process-unique tag of the calling OS thread (never 0). A counter rather
/// than an address, so a thread that exits can never pass its tag on.
fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: Cell<u64> = const { Cell::new(0) };
    }
    TAG.with(|t| match t.get() {
        0 => {
            let tag = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(tag);
            tag
        }
        tag => tag,
    })
}

static G_MAPPED: AtomicU64 = AtomicU64::new(0);
static G_UNMAPPED: AtomicU64 = AtomicU64::new(0);

/// Process-wide counts of the coroutine stacks mapped and unmapped so far.
/// Their difference is the stacks alive now, in use or on a thread's free
/// list.
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StackStats {
    /// Stacks mapped (a stack taken from a free list is not counted again).
    pub mapped: u64,
    /// Stacks unmapped.
    pub unmapped: u64,
}

impl StackStats {
    /// The counts so far, across every thread.
    pub fn global() -> StackStats {
        StackStats {
            mapped: G_MAPPED.load(Ordering::Relaxed),
            unmapped: G_UNMAPPED.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    /// Stacks of the coroutines that finished on this thread, for the next
    /// ones created here. Dropped, and so unmapped, when the thread exits.
    static FREE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// An anonymous mapping of [`STACK_SIZE`] usable bytes above one
/// inaccessible guard page.
struct Stack {
    base: NonNull<c_void>,
}

// SAFETY: the mapping is plain memory owned by this value alone; nothing
// about it is tied to the thread that mapped it.
unsafe impl Send for Stack {}

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

impl Stack {
    const LEN: usize = GUARD_SIZE + STACK_SIZE;

    /// A stack from this thread's free list, or a fresh mapping.
    fn new() -> Stack {
        FREE.try_with(|free| free.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_else(Stack::map)
    }

    fn map() -> Stack {
        // SAFETY: a fresh private anonymous mapping aliases nothing; the
        // arguments are valid for mmap(2).
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                Self::LEN,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        // MAP_FAILED is (void *)-1.
        if p as isize == -1 {
            panic!(
                "mapping a simulated process stack failed: {}",
                std::io::Error::last_os_error()
            );
        }
        let stack = Stack {
            base: NonNull::new(p).expect("mmap returned a null mapping"),
        };
        // SAFETY: the first page of the mapping just created; nothing
        // points into it.
        let rc = unsafe { mprotect(p, GUARD_SIZE, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "protecting a process stack's guard page failed: {}",
            std::io::Error::last_os_error()
        );
        G_MAPPED.fetch_add(1, Ordering::Relaxed);
        stack
    }

    /// One past the highest usable byte (page aligned, hence 16-aligned).
    fn top(&self) -> usize {
        self.base.as_ptr() as usize + Self::LEN
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` created. Whoever drops a
        // stack guarantees no suspended frame on it will ever run again
        // (see `Coroutine`).
        unsafe { munmap(self.base.as_ptr(), Self::LEN) };
        G_UNMAPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// A suspended execution context on a stack of its own.
///
/// Dropping a coroutine unmaps its stack without running anything on it:
/// frames still suspended there are never unwound, and what they own is
/// leaked. Callers that want those frames unwound resume the coroutine on
/// its home thread first and have it finish (see `process.rs`). A
/// coroutine that ran to its end is passed to [`Coroutine::finish`]
/// instead, which keeps its stack for reuse.
pub(crate) struct Coroutine {
    stack: Stack,
    /// Stack pointer the coroutine is suspended at.
    sp: usize,
    /// [`thread_tag`] of the thread that first resumed it; 0 before that.
    home: u64,
}

impl Coroutine {
    /// A coroutine that, on its first resume, calls `entry` on its own
    /// stack with the resumer's saved stack pointer and the resume's word.
    /// `entry` must never return: it ends by switching away for good.
    pub(crate) fn new(entry: extern "C" fn(Transfer) -> !) -> Coroutine {
        let stack = Stack::new();
        // The initial frame, laid out exactly as `switch` saves one, so the
        // first switch to it "returns" into `entry`:
        //   sp+0   MXCSR, x87 control word
        //   sp+8   r15 r14 r13 r12 rbx rbp (all zero; rbp = 0 ends
        //          frame-pointer walks)
        //   sp+56  return address: `entry`
        //   sp+64  `entry`'s own return address: 0, which ends unwinding
        //          and backtraces
        // `entry` starts with rsp = sp+64 = top-8, the alignment of a
        // function just called (rsp + 8 a multiple of 16).
        let sp = stack.top() - 72;
        let frame: [u64; 9] = [
            MXCSR_DEFAULT | (FCW_DEFAULT << 32),
            0,
            0,
            0,
            0,
            0,
            0,
            entry as usize as u64,
            0,
        ];
        // SAFETY: the nine words lie within the top 72 bytes of the fresh,
        // writable, 8-aligned stack mapping.
        unsafe { std::ptr::copy_nonoverlapping(frame.as_ptr(), sp as *mut u64, frame.len()) };
        Coroutine { stack, sp, home: 0 }
    }

    /// True when the calling thread may resume this coroutine: it is the
    /// coroutine's home thread, or the coroutine has never run.
    pub(crate) fn is_home(&self) -> bool {
        self.home == 0 || self.home == thread_tag()
    }

    /// Put the stack of a coroutine that ran to its end on this thread's
    /// free list, for the next [`Coroutine::new`] here. Past the end of the
    /// thread's life, when the list is gone, the stack is unmapped.
    ///
    /// # Safety
    ///
    /// The coroutine has switched away for good: nothing on its stack will
    /// run or be read again.
    pub(crate) unsafe fn finish(self) {
        let stack = self.stack;
        // When the list is gone, the closure, and the stack with it, is
        // dropped unrun.
        let _ = FREE.try_with(move |free| free.borrow_mut().push(stack));
    }

    /// Switch into the coroutine, handing it `arg`, and return the word it
    /// passes when it next switches back.
    ///
    /// Panics, before switching, when called on a thread other than the one
    /// that first resumed it; `name` names the process in the message.
    ///
    /// # Safety
    ///
    /// The coroutine must be suspended — not running, not finished — and
    /// must switch back to the stack pointer it receives, on this thread.
    #[inline]
    pub(crate) unsafe fn resume(&mut self, arg: usize, name: &str) -> usize {
        let here = thread_tag();
        if self.home == 0 {
            self.home = here;
        }
        assert!(
            self.home == here,
            "simulated process '{name}' was resumed on another OS thread than the \
             one that first ran it; a simulation must keep running on one thread"
        );
        // SAFETY: `sp` is where this suspended coroutine was saved (or its
        // initial frame), and the caller guarantees it switches back.
        let t = unsafe { switch(self.sp, arg) };
        self.sp = t.sp;
        // The stack pointer stays inside the coroutine's own stack.
        debug_assert!(
            self.sp > self.stack.top() - STACK_SIZE && self.sp < self.stack.top(),
            "coroutine switched back from a foreign stack"
        );
        t.arg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::arch::asm;

    /// MXCSR control bits (the low six are sticky exception flags).
    fn mxcsr_control() -> u32 {
        let mut v = 0u32;
        // SAFETY: stores the MXCSR into a local.
        unsafe { asm!("stmxcsr [{}]", in(reg) &mut v, options(nostack)) };
        v & !0x3F
    }

    /// Round toward zero, every exception masked.
    const MXCSR_TOWARD_ZERO: u32 = 0x7F80;

    /// Doubles every word it is resumed with, forever, with SSE rounding
    /// set toward zero on its own side of the switch. Passes back
    /// `usize::MAX` if its rounding mode or its resume count (a local)
    /// did not survive a switch.
    extern "C" fn doubler(mut t: Transfer) -> ! {
        let v = MXCSR_TOWARD_ZERO;
        // SAFETY: loads a valid MXCSR value from a local.
        unsafe { asm!("ldmxcsr [{}]", in(reg) &v, options(nostack, readonly)) };
        let mut resumes = 1;
        loop {
            let intact = mxcsr_control() == MXCSR_TOWARD_ZERO && t.arg == resumes;
            let word = if intact { 2 * t.arg } else { usize::MAX };
            // SAFETY: `t.sp` is the resumer, suspended in `resume`.
            t = unsafe { switch(t.sp, word) };
            resumes += 1;
        }
    }

    #[test]
    fn words_locals_and_rounding_modes_survive_switches() {
        let mine = mxcsr_control();
        let mut c = Coroutine::new(doubler);
        for i in 1..100usize {
            // SAFETY: `doubler` always switches back to its resumer.
            assert_eq!(unsafe { c.resume(i, "doubler") }, 2 * i);
            assert_eq!(mxcsr_control(), mine, "the resumer's MXCSR changed");
        }
    }

    #[test]
    fn thread_tags_are_distinct_per_thread() {
        let here = thread_tag();
        assert_eq!(here, thread_tag());
        let there = std::thread::spawn(thread_tag).join().unwrap();
        assert_ne!(here, there);
        assert_ne!(there, 0);
    }
}
