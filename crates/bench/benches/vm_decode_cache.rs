//! Decode-cache benchmarks: interpreter insns/sec with the predecoded
//! instruction cache off vs on, on a straight-line microbench and on the
//! branchy tight loop. The expectation (EXPERIMENTS.md): the cached
//! straight-line rate is at least 1.5x the uncached rate.
#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use svm::asm::{assemble, Program};
use svm::loader::Aslr;
use svm::{Machine, NopHook, Status};

/// A mostly-straight-line program: `iters` passes over a 64-insn unrolled
/// block (one branch per 67 retired instructions).
fn straight_line_program(iters: u32) -> (Program, u64) {
    let block = " addi r0, r0, 1\n".repeat(64);
    let src = format!(
        ".text\nmain:\n movi r1, {iters}\nloop:\n{block} subi r1, r1, 1\n cmpi r1, 0\n jnz loop\n halt\n"
    );
    (assemble(&src).expect("asm"), iters as u64 * 67 + 2)
}

fn tight_loop_program(iters: u32) -> (Program, u64) {
    let src = format!(
        ".text\nmain:\n movi r1, {iters}\nloop:\n subi r1, r1, 1\n cmpi r1, 0\n jnz loop\n halt\n"
    );
    (assemble(&src).expect("asm"), iters as u64 * 3 + 2)
}

fn run_to_halt(prog: &Program, cache: bool) -> u64 {
    let mut m = Machine::boot(prog, Aslr::off())
        .expect("boot")
        .with_decode_cache(cache);
    assert!(matches!(m.run(&mut NopHook, u64::MAX), Status::Halted(_)));
    m.insns_retired
}

fn bench_straight_line(c: &mut Criterion) {
    let (prog, insns) = straight_line_program(2_000);
    let mut g = c.benchmark_group("vm_decode_cache/straight_line");
    g.throughput(Throughput::Elements(insns));
    g.bench_function("uncached", |b| b.iter(|| run_to_halt(&prog, false)));
    g.bench_function("cached", |b| b.iter(|| run_to_halt(&prog, true)));
    g.finish();
}

fn bench_tight_loop(c: &mut Criterion) {
    let (prog, insns) = tight_loop_program(30_000);
    let mut g = c.benchmark_group("vm_decode_cache/tight_loop");
    g.throughput(Throughput::Elements(insns));
    g.bench_function("uncached", |b| b.iter(|| run_to_halt(&prog, false)));
    g.bench_function("cached", |b| b.iter(|| run_to_halt(&prog, true)));
    g.finish();
}

/// Worst case for the cache: every iteration rewrites an instruction in
/// the executed page, forcing an invalidation + page redecode per pass.
/// This pins the overhead of the invalidation path rather than hiding it.
fn bench_smc_invalidation(c: &mut Criterion) {
    // The guest copies a tiny function from .text into its (pre-NX,
    // executable) data segment, then on every pass rewrites one word of
    // it (same bytes — a write is a write) before calling it, forcing an
    // invalidation + page redecode per pass.
    let src = "
.text
main:
    movi r4, tmpl
    movi r5, buf
    movi r6, 4
copy:
    ld r7, [r4, 0]
    st [r5, 0], r7
    addi r4, r4, 4
    addi r5, r5, 4
    subi r6, r6, 1
    cmpi r6, 0
    jnz copy
    movi r1, 300
loop:
    movi r4, tmpl
    ld r7, [r4, 0]
    movi r5, buf
    st [r5, 0], r7
    call buf
    subi r1, r1, 1
    cmpi r1, 0
    jnz loop
    halt
tmpl:
    movi r2, 7
    ret
.data
buf: .space 16
";
    let prog = assemble(src).expect("asm");
    let mut g = c.benchmark_group("vm_decode_cache/smc_rewrite");
    g.bench_function("cached", |b| {
        b.iter(|| {
            let mut m = Machine::boot(&prog, Aslr::off())
                .expect("boot")
                .with_decode_cache(true);
            m.run(&mut NopHook, u64::MAX)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_straight_line,
    bench_tight_loop,
    bench_smc_invalidation
);
criterion_main!(benches);
