//! Stackful fibers: every rank of a run takes turns on the calling thread.
//!
//! A [`Fiber`] runs a closure on a stack of its own and gives the thread
//! back to whoever resumed it when the closure calls [`suspend`] or
//! returns. A switch pushes the state the x86_64 SysV ABI has a callee
//! preserve — rbx, rbp, r12–r15, MXCSR and the x87 control word — onto the
//! stack it leaves, stores that stack pointer, loads the other one and pops
//! the same state off it: a few instructions in user space, where a turn
//! handed between OS threads costs a futex wake, a futex wait and a kernel
//! context switch.
//!
//! Every `unsafe` line of the simulator is in this file. The few libc entry
//! points a stack needs are declared here (the workspace has no `libc`
//! crate), which is one reason it builds for x86_64 Linux only; the switch
//! itself is the other.
//!
//! Rules the rest of the crate keeps:
//!
//! * A fiber never suspends while its thread unwinds. Rust's panic count
//!   belongs to the OS thread, so a suspended unwind would make every
//!   other fiber's code run "while panicking" (`Shared::wait_turn` aborts
//!   instead). Nor does it suspend holding the engine's `RefCell` borrow:
//!   the next fiber's first engine call would panic "already borrowed".
//! * A fiber that has started is resumed until it finishes before it is
//!   dropped. Dropping one suspended halfway leaks its stack rather than
//!   hand memory that its frames may still be pointed into back to the
//!   allocator.
//! * A stack is [`STACK_BYTES`], what `std::thread::spawn` gives a thread,
//!   above a `PROT_NONE` guard page: an overflow faults (`SIGSEGV`; Rust's
//!   own "stack overflow" message covers thread stacks only), it does not
//!   corrupt the neighbouring mapping.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "crates/sim/src/fiber.rs: the simulator runs its ranks as fibers, \
     which are implemented for x86_64 Linux only"
);

use std::cell::{Cell, RefCell};
use std::ptr;

/// Usable stack per fiber.
const STACK_BYTES: usize = 2 << 20;

/// The page size of x86_64 Linux; the lowest page of a stack mapping is
/// its guard.
const PAGE: usize = 4096;

/// MXCSR and x87 control word a fiber starts with: the values the ABI
/// starts every thread with (all exceptions masked, round to nearest,
/// double-extended x87 precision). Stored as the switch lays them out:
/// MXCSR in the low four bytes, the control word in the next two.
const INITIAL_FP_CONTROL: u64 = 0x1f80 | (0x037f << 32);

mod sys {
    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_NORESERVE: i32 = 0x4000;
    pub const MAP_STACK: i32 = 0x20000;

    extern "C" {
        pub fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
            -> *mut u8;
        pub fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
}

// `dynmpi_sim_fiber_switch(save, load)`: pushes the callee-saved state,
// stores the stack pointer at `*save` (rdi), switches to the stack `load`
// (rsi) and pops the state saved there, returning into whatever context
// saved it. `dynmpi_sim_fiber_start` is where a new fiber's first switch
// "returns" to: it calls `entry` (r12) with its control block (r13) and
// marks itself the outermost frame, so a backtrace taken on a fiber stops
// there instead of walking off the top of the stack.
std::arch::global_asm!(
    ".pushsection .text.dynmpi_sim_fiber,\"ax\",@progbits",
    ".globl dynmpi_sim_fiber_switch",
    ".hidden dynmpi_sim_fiber_switch",
    ".type dynmpi_sim_fiber_switch,@function",
    ".p2align 4",
    "dynmpi_sim_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size dynmpi_sim_fiber_switch, . - dynmpi_sim_fiber_switch",
    ".globl dynmpi_sim_fiber_start",
    ".hidden dynmpi_sim_fiber_start",
    ".type dynmpi_sim_fiber_start,@function",
    ".p2align 4",
    "dynmpi_sim_fiber_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r13",
    "call r12",
    "ud2",
    ".cfi_endproc",
    ".size dynmpi_sim_fiber_start, . - dynmpi_sim_fiber_start",
    ".popsection",
);

extern "C" {
    fn dynmpi_sim_fiber_switch(save: *mut *mut u8, load: *mut u8);
    fn dynmpi_sim_fiber_start();
}

/// The switch state of one fiber, at a fixed address for the fiber's life.
struct Link {
    /// The fiber's saved stack pointer while it is suspended.
    fiber_sp: *mut u8,
    /// The resumer's saved stack pointer while the fiber runs.
    resumer_sp: *mut u8,
    finished: bool,
}

struct Control<F> {
    link: Link,
    /// The closure, until the fiber's first resume takes it.
    body: Option<F>,
}

thread_local! {
    /// The link of the fiber running on this thread; null on the thread's
    /// own stack.
    static CURRENT: Cell<*mut Link> = const { Cell::new(ptr::null_mut()) };
    /// Stacks of finished fibers, at most [`SPARE_STACKS`].
    static SPARE: RefCell<Spare> = const { RefCell::new(Spare(Vec::new())) };
}

/// A closure with a stack of its own, run in slices by [`Fiber::resume`].
pub(crate) struct Fiber<F: FnOnce()> {
    /// Lowest address of the stack mapping (the guard page).
    stack: *mut u8,
    /// Leaked from a `Box`: the fiber's own frames point into it.
    ctl: *mut Control<F>,
}

impl<F: FnOnce()> Fiber<F> {
    /// A suspended fiber that will run `body` when first resumed. `body`
    /// must not unwind: a panic that escapes it aborts the process.
    pub fn new(body: F) -> Self {
        let stack = SPARE
            .with_borrow_mut(|spare| spare.0.pop())
            .unwrap_or_else(map_stack);
        let ctl = Box::into_raw(Box::new(Control {
            link: Link {
                fiber_sp: ptr::null_mut(),
                resumer_sp: ptr::null_mut(),
                finished: false,
            },
            body: Some(body),
        }));
        // The frame the first switch pops: the FP control state, r15, r14,
        // r13 (the control block), r12 (`entry`), rbx, rbp, then the return
        // address. Ten words below the 16-aligned top, the start stub runs
        // with rsp 16-aligned, as its `call` needs.
        let entry: extern "C" fn(*mut Control<F>) -> ! = entry::<F>;
        let start: unsafe extern "C" fn() = dynmpi_sim_fiber_start;
        let frame: [u64; 10] = [
            INITIAL_FP_CONTROL,
            0,
            0,
            ctl as u64,
            entry as usize as u64,
            0,
            0,
            start as usize as u64,
            0,
            0,
        ];
        // SAFETY: the frame lies in the top 80 bytes of the writable part
        // of the mapping; `ctl` is a live, exclusively owned allocation.
        unsafe {
            let sp = stack
                .add(PAGE + STACK_BYTES - size_of_val(&frame))
                .cast::<u64>();
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            (*ctl).link.fiber_sp = sp.cast();
        }
        Fiber { stack, ctl }
    }

    /// Has the closure returned?
    pub fn is_finished(&self) -> bool {
        // SAFETY: `ctl` lives as long as `self`; nothing runs on the fiber
        // while its resumer holds `&self`.
        unsafe { (*self.ctl).link.finished }
    }

    /// Runs the fiber on the calling thread until its closure calls
    /// [`suspend`] or returns. Panics if the fiber has finished.
    pub fn resume(&mut self) {
        // SAFETY: `ctl` lives as long as `self`, and the fiber is not
        // running: that would take a second `&mut self`. The switch saves
        // this context in `resumer_sp` and runs the fiber, whose next
        // `suspend` (or return) switches back to exactly here.
        unsafe {
            let link = &raw mut (*self.ctl).link;
            assert!(!(*link).finished, "resumed a finished fiber");
            let outer = CURRENT.replace(link);
            dynmpi_sim_fiber_switch(&raw mut (*link).resumer_sp, (*link).fiber_sp);
            CURRENT.set(outer);
        }
    }
}

impl<F: FnOnce()> Drop for Fiber<F> {
    fn drop(&mut self) {
        // SAFETY: `ctl` came from `Box::into_raw` and is freed only here.
        // A fiber that finished, or never started, has no frames left on
        // its stack; one suspended halfway keeps both allocations.
        unsafe {
            let started = (*self.ctl).body.is_none();
            if started && !(*self.ctl).link.finished {
                return;
            }
            drop(Box::from_raw(self.ctl));
        }
        let stack = self.stack;
        let kept = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let keep = spare.0.len() < SPARE_STACKS;
            if keep {
                spare.0.push(stack);
            }
            keep
        });
        if kept != Ok(true) {
            unmap_stack(stack);
        }
    }
}

/// Maps a stack: a `PROT_NONE` guard page below [`STACK_BYTES`] of
/// read-write memory, which the kernel backs as it is touched. Returns its
/// lowest address.
fn map_stack() -> *mut u8 {
    let len = PAGE + STACK_BYTES;
    // SAFETY: a fresh private anonymous mapping aliases nothing.
    let stack = unsafe {
        sys::mmap(
            ptr::null_mut(),
            len,
            sys::PROT_READ | sys::PROT_WRITE,
            sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE | sys::MAP_STACK,
            -1,
            0,
        )
    };
    assert!(
        stack as usize != usize::MAX,
        "mmap of a fiber stack failed: {}",
        std::io::Error::last_os_error()
    );
    // SAFETY: the guard is the first page of the mapping just made.
    let rc = unsafe { sys::mprotect(stack, PAGE, sys::PROT_NONE) };
    assert_eq!(rc, 0, "mprotect of a fiber's guard page failed");
    stack
}

/// Unmaps a stack [`map_stack`] returned, which no frame uses any more.
fn unmap_stack(stack: *mut u8) {
    // SAFETY: `stack` is a whole mapping of ours that nothing points into.
    unsafe { sys::munmap(stack, PAGE + STACK_BYTES) };
}

/// How many stacks of finished fibers a thread keeps for its next ones.
/// A run of up to this many ranks then maps no stack after the thread's
/// first run: the mmap, mprotect and munmap and the first-touch page faults
/// were about a fifth of the wall time of a 64-rank ring.
const SPARE_STACKS: usize = 64;

/// The stacks a thread keeps; unmapped when the thread exits.
struct Spare(Vec<*mut u8>);

impl Drop for Spare {
    fn drop(&mut self) {
        self.0.drain(..).for_each(unmap_stack);
    }
}

/// A fiber's first code: runs the closure, marks the fiber finished and
/// switches back to its resumer for good.
extern "C" fn entry<F: FnOnce()>(ctl: *mut Control<F>) -> ! {
    // SAFETY: `ctl` is the control block of the fiber running this code,
    // alive until the fiber finishes; its resumer waits in `resume`.
    unsafe {
        let body = (*ctl).body.take().expect("a fiber starts once");
        body();
        let link = &raw mut (*ctl).link;
        (*link).finished = true;
        let mut dead_sp = ptr::null_mut();
        dynmpi_sim_fiber_switch(&raw mut dead_sp, (*link).resumer_sp);
    }
    unreachable!("a finished fiber was resumed");
}

/// Suspends the fiber running on this thread: its resumer's
/// [`Fiber::resume`] returns, and the next one continues from here.
/// Panics when called on a thread's own stack.
pub(crate) fn suspend() {
    let link = CURRENT.get();
    assert!(!link.is_null(), "fiber::suspend called outside a fiber");
    // SAFETY: `link` belongs to the fiber running this code, whose
    // resumer saved its context in `resumer_sp` and waits in `resume`.
    unsafe { dynmpi_sim_fiber_switch(&raw mut (*link).fiber_sp, (*link).resumer_sp) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibers_interleave_on_one_thread_and_finish() {
        let log = std::cell::RefCell::new(Vec::new());
        let caller = std::thread::current().id();
        let mut fibers: Vec<_> = (0..3)
            .map(|i| {
                let log = &log;
                Fiber::new(move || {
                    for step in 0..2 {
                        assert_eq!(std::thread::current().id(), caller);
                        log.borrow_mut().push((i, step));
                        suspend();
                    }
                })
            })
            .collect();
        while fibers.iter().any(|f| !f.is_finished()) {
            for f in fibers.iter_mut().rev().filter(|f| !f.is_finished()) {
                f.resume();
            }
        }
        let want = [(2, 0), (1, 0), (0, 0), (2, 1), (1, 1), (0, 1)];
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    fn fp_control_state_belongs_to_each_side() {
        fn mxcsr() -> u32 {
            let mut v = 0u32;
            // SAFETY: `stmxcsr` stores four bytes at a live local.
            unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &raw mut v) };
            v
        }
        fn set_mxcsr(v: u32) {
            // SAFETY: only the rounding-control bits differ from the
            // ABI default; the test restores them before returning.
            unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &raw const v) };
        }
        let default = mxcsr();
        let round_down = (default & !0x6000) | 0x2000;
        let seen = Cell::new(0);
        let mut f = Fiber::new(|| {
            seen.set(mxcsr());
            set_mxcsr(round_down);
            suspend();
            seen.set(mxcsr());
            set_mxcsr(default);
        });
        f.resume();
        assert_eq!(seen.get(), default, "a fiber starts at the ABI default");
        assert_eq!(mxcsr(), default, "the fiber's rounding mode stays its own");
        set_mxcsr(round_down ^ 0x6000);
        f.resume();
        assert_eq!(seen.get(), round_down, "restored on resume");
        assert_eq!(mxcsr(), round_down ^ 0x6000);
        set_mxcsr(default);
        assert!(f.is_finished());
    }

    #[test]
    fn a_thread_reuses_the_stacks_of_finished_fibers() {
        let stack_of = |f: &Fiber<fn()>| f.stack;
        let mut first = Fiber::new((|| suspend()) as fn());
        let never_started = Fiber::new((|| {}) as fn());
        let (a, b) = (stack_of(&first), stack_of(&never_started));
        first.resume();
        first.resume();
        drop(first);
        drop(never_started);
        let again: Vec<_> = (0..3).map(|_| Fiber::new((|| {}) as fn())).collect();
        let reused: Vec<_> = again.iter().map(stack_of).collect();
        assert_eq!(
            &reused[..2],
            &[b, a],
            "spare stacks come back last-in first-out"
        );
        assert!(
            reused[2] != a && reused[2] != b,
            "a fresh mapping once none is spare"
        );
    }

    #[test]
    fn nested_fibers_return_to_their_own_resumer() {
        let log = std::cell::RefCell::new(Vec::new());
        let mut outer = Fiber::new(|| {
            let mut inner = Fiber::new(|| {
                log.borrow_mut().push("inner 1");
                suspend();
                log.borrow_mut().push("inner 2");
            });
            inner.resume();
            log.borrow_mut().push("outer 1");
            suspend();
            inner.resume();
            log.borrow_mut().push("outer 2");
        });
        outer.resume();
        log.borrow_mut().push("main");
        outer.resume();
        assert!(outer.is_finished());
        let want = ["inner 1", "outer 1", "main", "inner 2", "outer 2"];
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    fn a_panic_caught_on_the_fiber_stack_unwinds_there() {
        let caught = Cell::new(false);
        let mut f = Fiber::new(|| {
            let r = std::panic::catch_unwind(|| {
                suspend();
                panic!("unwinds on the fiber stack");
            });
            caught.set(r.is_err());
        });
        f.resume();
        f.resume();
        assert!(f.is_finished() && caught.get());
    }
}
