//! Execution hooks — the attachment points for dynamic instrumentation.
//!
//! The machine calls into a [`Hook`] at well-defined points *before* state
//! mutation, so tools observe the pre-state (values about to be
//! overwritten, the stack before a `ret` pops it, and so on). The `dbi`
//! crate builds PIN-style tool multiplexing, mid-execution attach, and
//! overhead accounting on top of this trait; keeping the trait here lets
//! `svm` stay dependency-free.

use crate::alloc::FreeKind;
use crate::isa::{Op, Syscall};
use crate::machine::Machine;

/// Receiver for execution events.
///
/// All methods default to no-ops so tools implement only what they need.
/// The `&Machine` argument exposes the full pre-event architectural state.
pub trait Hook {
    /// Whether this hook ignores *every* event.
    ///
    /// Defaults to `false` (events are delivered). A hook returning
    /// `true` promises it observes nothing, allowing the machine to use
    /// the streamlined dispatch loop that skips event delivery
    /// entirely. The answer is re-checked on **every step**, so a hook
    /// whose liveness changes mid-execution (e.g. the `dbi`
    /// instrumenter when a tool attaches) transparently switches the
    /// machine between the fast path and the fully hooked path — this
    /// is what keeps mid-execution attach working with the predecoded
    /// instruction cache enabled.
    fn is_passive(&self) -> bool {
        false
    }

    /// Called before each instruction executes. `op` is already decoded.
    fn on_insn(&mut self, _m: &Machine, _pc: u32, _op: &Op) {}

    /// Called before a data read of `size` bytes at `addr` completes;
    /// `val` is the value being read (zero-extended).
    fn on_mem_read(&mut self, _m: &Machine, _pc: u32, _addr: u32, _size: u8, _val: u32) {}

    /// Called before a data write of `size` bytes at `addr`; `val` is the
    /// value about to be written (the old value is still readable).
    fn on_mem_write(&mut self, _m: &Machine, _pc: u32, _addr: u32, _size: u8, _val: u32) {}

    /// Called when a `call`/`callr` transfers control. `ret_addr` is the
    /// return address that was pushed; `sp` is the stack pointer *after*
    /// the push (i.e. the slot holding the return address).
    fn on_call(&mut self, _m: &Machine, _pc: u32, _target: u32, _ret_addr: u32, _sp: u32) {}

    /// Called when a `ret` is about to pop `ret_target` from slot `sp`.
    fn on_ret(&mut self, _m: &Machine, _pc: u32, _ret_target: u32, _sp: u32) {}

    /// Called after a successful guest `alloc` of `size` bytes at `ptr`.
    fn on_alloc(&mut self, _m: &Machine, _pc: u32, _size: u32, _ptr: u32) {}

    /// Called after a guest `free` of `ptr` (with its double-free verdict).
    fn on_free(&mut self, _m: &Machine, _pc: u32, _ptr: u32, _kind: FreeKind) {}

    /// Called after a syscall completes; `ret` is the value placed in r0.
    fn on_syscall(&mut self, _m: &Machine, _pc: u32, _sc: Syscall, _args: [u32; 4], _ret: u32) {}

    /// Called after a `read` syscall delivered input bytes: `stream_off`
    /// is the offset of `data[0]` within connection `conn`'s input stream,
    /// and `addr` is the guest buffer it was copied to. This is the taint
    /// source event.
    fn on_input(&mut self, _m: &Machine, _conn: u32, _stream_off: u32, _addr: u32, _data: &[u8]) {}
}

/// A hook that ignores everything (plain, uninstrumented execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NopHook;

impl Hook for NopHook {
    fn is_passive(&self) -> bool {
        true
    }
}

/// Chain two hooks, delivering every event to both (first, then second).
pub struct Pair<'a, A: Hook + ?Sized, B: Hook + ?Sized>(pub &'a mut A, pub &'a mut B);

impl<A: Hook + ?Sized, B: Hook + ?Sized> Hook for Pair<'_, A, B> {
    fn is_passive(&self) -> bool {
        self.0.is_passive() && self.1.is_passive()
    }
    fn on_insn(&mut self, m: &Machine, pc: u32, op: &Op) {
        self.0.on_insn(m, pc, op);
        self.1.on_insn(m, pc, op);
    }
    fn on_mem_read(&mut self, m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {
        self.0.on_mem_read(m, pc, addr, size, val);
        self.1.on_mem_read(m, pc, addr, size, val);
    }
    fn on_mem_write(&mut self, m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {
        self.0.on_mem_write(m, pc, addr, size, val);
        self.1.on_mem_write(m, pc, addr, size, val);
    }
    fn on_call(&mut self, m: &Machine, pc: u32, target: u32, ret_addr: u32, sp: u32) {
        self.0.on_call(m, pc, target, ret_addr, sp);
        self.1.on_call(m, pc, target, ret_addr, sp);
    }
    fn on_ret(&mut self, m: &Machine, pc: u32, ret_target: u32, sp: u32) {
        self.0.on_ret(m, pc, ret_target, sp);
        self.1.on_ret(m, pc, ret_target, sp);
    }
    fn on_alloc(&mut self, m: &Machine, pc: u32, size: u32, ptr: u32) {
        self.0.on_alloc(m, pc, size, ptr);
        self.1.on_alloc(m, pc, size, ptr);
    }
    fn on_free(&mut self, m: &Machine, pc: u32, ptr: u32, kind: FreeKind) {
        self.0.on_free(m, pc, ptr, kind);
        self.1.on_free(m, pc, ptr, kind);
    }
    fn on_syscall(&mut self, m: &Machine, pc: u32, sc: Syscall, args: [u32; 4], ret: u32) {
        self.0.on_syscall(m, pc, sc, args, ret);
        self.1.on_syscall(m, pc, sc, args, ret);
    }
    fn on_input(&mut self, m: &Machine, conn: u32, stream_off: u32, addr: u32, data: &[u8]) {
        self.0.on_input(m, conn, stream_off, addr, data);
        self.1.on_input(m, conn, stream_off, addr, data);
    }
}
