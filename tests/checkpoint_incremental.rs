//! Property tests for the incremental checkpoint engine (PR 7).
//!
//! A multi-page striding-writer guest is driven through random
//! interleavings of bounded `Machine::run` bursts, host page patches,
//! snapshot takes, pre-copy drains, ring evictions, and rollbacks,
//! under the **differential** engine — every snapshot keeps both the
//! base+delta representation and a full clone, and every materialize
//! rebuilds the former and compares it page-by-page against the
//! latter. After **every** operation, every retained checkpoint must
//! still materialize, twice, bit-identically, with zero parity
//! mismatches and zero materialize failures. Any divergence means the
//! delta chain dropped a dirty page, the dedupe store returned the
//! wrong content for a key, or the drain folded a stale generation.
//!
//! A capture folds the dedupe store's per-slot digests instead of
//! re-hashing the live machine; the four guests pin that this image
//! digest still equals `mem_digest` of the captured image (and that the
//! digest values themselves did not move).
//!
//! Two deterministic companions pin the fail-closed paths the chaos
//! harness relies on: a truncated delta chain and an evicted dedupe
//! slot must turn materialization into `None` (counted as a
//! materialize failure, degrading to a restart) — never into a
//! silently wrong machine.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

use sweeper_repro::apps::all_apps;
use sweeper_repro::checkpoint::{mem_digest, CheckpointManager, DedupeStore, DeltaRecord, Engine};
use sweeper_repro::svm::asm::assemble;
use sweeper_repro::svm::loader::Aslr;
use sweeper_repro::svm::{Machine, NopHook};

/// A writer that strides across eight 4 KiB pages forever, so every few
/// hundred cycles dirties a different page: checkpoints taken at random
/// points see genuinely different dirty sets, and a delta chain that
/// loses any one page changes the image digest.
const STRIDING_WRITER: &str = "
.text
main:
    movi r2, 0           ; monotonically changing value
outer:
    movi r1, buf         ; page cursor
    movi r5, 8           ; pages per sweep
sweep:
    st [r1, 0], r2       ; dirty the page under the cursor
    ld r6, [r1, 0]       ; read it back (keeps the page hot)
    movi r4, 4096
    add r1, r1, r4
    addi r2, r2, 1
    subi r5, r5, 1
    cmpi r5, 0
    jnz sweep
    jmp outer
.data
buf: .space 32768
";

/// One host-side action in the interleaving.
#[derive(Debug, Clone)]
enum HostOp {
    /// Run the guest for this many virtual cycles.
    Run(u32),
    /// Host-patch 8 bytes into one of the buffer's pages.
    Patch { page: u8, val: u8 },
    /// Take a snapshot (base + delta under the differential engine).
    Take,
    /// Pre-copy drain: fold dirty pages into the pending delta.
    Drain,
    /// Evict the oldest retained checkpoint (memory pressure).
    Evict,
    /// Roll back to a retained checkpoint selected by this value.
    Rollback(u64),
}

fn arb_op() -> impl Strategy<Value = HostOp> {
    prop_oneof![
        (50u32..2_000).prop_map(HostOp::Run),
        (0u8..8, any::<u8>()).prop_map(|(page, val)| HostOp::Patch { page, val }),
        Just(HostOp::Take),
        Just(HostOp::Drain),
        Just(HostOp::Evict),
        any::<u64>().prop_map(HostOp::Rollback),
    ]
}

/// The identity of a materialized machine, for round-trip comparison.
fn fingerprint(m: &Machine) -> (u64, u32, u64, u64) {
    (
        mem_digest(&m.mem),
        m.cpu.pc,
        m.insns_retired,
        m.clock.cycles(),
    )
}

struct Leg {
    m: Machine,
    mgr: CheckpointManager,
}

impl Leg {
    fn boot(engine: Engine) -> Leg {
        let prog = assemble(STRIDING_WRITER).expect("asm");
        let m = Machine::boot(&prog, Aslr::off()).expect("boot");
        Leg {
            m,
            // Interval u64::MAX: the schedule, not the clock, decides
            // when snapshots happen.
            mgr: CheckpointManager::new(u64::MAX, 4).with_engine(engine),
        }
    }

    fn apply(&mut self, op: &HostOp) {
        match op {
            HostOp::Run(cycles) => {
                self.m.run(&mut NopHook, u64::from(*cycles));
            }
            HostOp::Patch { page, val } => {
                let buf = self.m.symbols.addr_of("buf").expect("buf");
                let addr = buf + u32::from(*page) * 4096;
                self.m
                    .mem
                    .write_bytes_host(addr, &[*val; 8])
                    .expect("patch");
            }
            HostOp::Take => {
                self.mgr.take(&mut self.m);
            }
            HostOp::Drain => {
                self.mgr.drain(&self.m);
            }
            HostOp::Evict => {
                self.mgr.evict_oldest();
            }
            HostOp::Rollback(sel) => {
                let ids: Vec<_> = self.mgr.ids().collect();
                if ids.is_empty() {
                    return;
                }
                let id = ids[(*sel as usize) % ids.len()];
                if let Some(rolled) = self.mgr.rollback(id) {
                    self.m = rolled;
                    // Mirror the runtime (runtime.rs, recovery): the
                    // pre-rollback drain set is discarded — its pages
                    // were recorded under generations the rewound
                    // machine will re-reach with different bytes — and
                    // a fresh snapshot of the recovered state is taken
                    // before any new writes, rebuilding the cumulative
                    // table from the live image so later generations
                    // can never collide with pre-rollback entries.
                    self.mgr.discard_pending();
                    self.mgr.take(&mut self.m);
                }
            }
        }
    }

    /// The invariant checked after every operation: every retained
    /// snapshot materializes (twice, identically), and the differential
    /// engine saw no incremental/full divergence and no damage.
    fn check(&self) -> Result<(), TestCaseError> {
        for id in self.mgr.ids().collect::<Vec<_>>() {
            let a = self.mgr.materialize(id);
            prop_assert!(a.is_some(), "undamaged {id:?} failed to materialize");
            let b = self.mgr.materialize(id).expect("second rebuild");
            prop_assert_eq!(
                fingerprint(&a.expect("first rebuild")),
                fingerprint(&b),
                "double materialize of {:?} diverged",
                id
            );
        }
        prop_assert_eq!(
            self.mgr.parity_mismatches(),
            0,
            "incremental image diverged from the full-copy oracle"
        );
        prop_assert_eq!(
            self.mgr.materialize_failures(),
            0,
            "materialization failed without injected damage"
        );
        Ok(())
    }
}

proptest! {
    // 16 cases: the parity property checks every retained snapshot
    // (twice) after every op under the differential engine, so each
    // case already performs hundreds of oracle-compared rebuilds.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of runs, patches, takes, drains, evictions,
    /// and rollbacks keep the incremental engine bit-identical to the
    /// full-copy oracle after every single operation.
    #[test]
    fn interleaved_schedules_keep_engine_parity(
        ops in vec(arb_op(), 1..18),
    ) {
        let mut leg = Leg::boot(Engine::Differential);
        leg.mgr.take(&mut leg.m); // base snapshot, like the runtime
        for (i, op) in ops.iter().enumerate() {
            leg.apply(op);
            leg.check().map_err(|e| {
                TestCaseError::fail(format!("after op {i} = {op:?}: {e:?}"))
            })?;
        }
    }

    /// A snapshot taken at any point reproduces the live machine it
    /// captured, exactly — under the pure incremental engine, with no
    /// oracle to lean on.
    #[test]
    fn latest_snapshot_reproduces_the_live_machine(
        ops in vec(arb_op(), 1..18),
    ) {
        let mut leg = Leg::boot(Engine::Incremental);
        leg.mgr.take(&mut leg.m);
        for op in &ops {
            leg.apply(op);
            if matches!(op, HostOp::Take) {
                let id = leg.mgr.ids().last().expect("just taken");
                let rebuilt = leg.mgr.materialize(id).expect("materialize");
                prop_assert_eq!(
                    fingerprint(&rebuilt),
                    fingerprint(&leg.m),
                    "snapshot does not reproduce the machine it captured"
                );
            }
        }
        prop_assert_eq!(leg.mgr.materialize_failures(), 0);
    }
}

/// Regression (stale-delta leak across rollback): a pre-copy drain
/// taken *before* a rollback must not be folded into the delta captured
/// *after* it. The drain records `(page, generation)` pairs; rollback
/// rewinds `write_seq`, so the replayed execution re-reaches the very
/// same generation numbers with different bytes. Pre-fix, the next
/// `take` saw a matching generation in the pending set and reused the
/// stale pre-rollback page content, so the snapshot's image digest
/// (computed from the live machine) could never match what
/// materialization rebuilds — a spurious fail-closed materialize
/// failure that degraded perfectly good rollback-replay recoveries to
/// restarts. The runtime now calls `discard_pending` between rollback
/// and the post-recovery snapshot; this test drives that exact
/// sequence at the manager level.
#[test]
fn pending_drain_does_not_leak_across_rollback() {
    let mut leg = Leg::boot(Engine::Incremental);
    let buf = leg.m.symbols.addr_of("buf").expect("buf");
    let base = leg.mgr.take(&mut leg.m);
    // Dirty one page and drain it: the pending set now holds the page
    // under the current write generation, content [1; 8].
    leg.m.mem.write_bytes_host(buf, &[1u8; 8]).expect("patch");
    assert_eq!(leg.mgr.drain(&leg.m), 1, "the patched page drains");
    // Roll back to the base: write_seq rewinds past the drained
    // generation.
    let rolled = leg.mgr.rollback(base).expect("base materializes");
    leg.m = rolled;
    // The replayed execution re-reaches the drained generation — same
    // (page, generation) pair, different bytes.
    leg.m.mem.write_bytes_host(buf, &[2u8; 8]).expect("patch");
    // The runtime's post-recovery sequence: discard the stale drain
    // set, then snapshot the recovered state. (Pre-fix there was no
    // discard, the stale [1; 8] page was captured under the matching
    // generation, and the assertions below failed.)
    leg.mgr.discard_pending();
    let id = leg.mgr.take(&mut leg.m);
    let rebuilt = leg.mgr.materialize(id);
    assert!(
        rebuilt.is_some(),
        "post-rollback snapshot must materialize (stale drained page leaked into the delta)"
    );
    assert_eq!(
        fingerprint(&rebuilt.expect("checked")),
        fingerprint(&leg.m),
        "snapshot must reproduce the live post-rollback machine"
    );
    assert_eq!(leg.mgr.materialize_failures(), 0, "no fail-closed damage");
}

/// A truncated delta chain must fail closed: the damaged snapshot
/// refuses to materialize (degrading to a restart) rather than handing
/// back a machine missing a page — and the damage stays contained to
/// the truncated record; older snapshots still round-trip.
#[test]
fn truncated_delta_chain_fails_closed() {
    let mut leg = Leg::boot(Engine::Incremental);
    leg.m.run(&mut NopHook, 3_000); // dirty several pages
    let base = leg.mgr.take(&mut leg.m);
    leg.m.run(&mut NopHook, 3_000); // advance the dirty set
    let latest = leg.mgr.take(&mut leg.m);
    assert!(
        leg.mgr.chaos_truncate_latest_delta(2) > 0,
        "the delta chain had pages to drop"
    );
    assert!(
        leg.mgr.materialize(latest).is_none(),
        "truncated snapshot must not materialize"
    );
    assert!(leg.mgr.materialize_failures() > 0, "failure was counted");
    assert_eq!(leg.mgr.parity_mismatches(), 0, "fail closed, not wrong");
    assert!(
        leg.mgr.materialize(base).is_some(),
        "damage is contained to the truncated record"
    );
}

/// The dedupe-store eviction race must fail closed the same way: once
/// every slot a snapshot references is gone, materialization returns
/// `None` for every retained checkpoint — never a partial image.
#[test]
fn dedupe_store_eviction_fails_closed() {
    let mut leg = Leg::boot(Engine::Differential);
    leg.m.run(&mut NopHook, 3_000);
    leg.mgr.take(&mut leg.m);
    leg.m.run(&mut NopHook, 3_000);
    leg.mgr.take(&mut leg.m);
    assert!(leg.mgr.store_pages() > 0, "snapshots hold store pages");
    while leg.mgr.chaos_evict_store_page() {}
    for id in leg.mgr.ids().collect::<Vec<_>>() {
        assert!(
            leg.mgr.materialize(id).is_none(),
            "{id:?} materialized from an emptied store"
        );
    }
    assert!(leg.mgr.materialize_failures() > 0, "failures were counted");
    assert_eq!(
        leg.mgr.parity_mismatches(),
        0,
        "fail closed is not a parity mismatch"
    );
}

/// Host-write `salt` into every seventh mapped page (turning zero pages
/// non-zero), and zero the first non-zero page outright, so captures
/// cross the zero-page digest short cut in both directions.
fn scribble(m: &mut Machine, salt: u8) {
    let pages: Vec<u32> = m.mem.page_table().map(|(pno, _)| pno).collect();
    for &pno in pages.iter().skip(usize::from(salt)).step_by(7) {
        let addr = pno * 4096 + 64 * u32::from(salt);
        m.mem.write_bytes_host(addr, &[salt; 8]).expect("patch");
    }
    let busy = pages
        .iter()
        .copied()
        .find(|&pno| {
            m.mem
                .page_bytes(pno)
                .expect("mapped")
                .iter()
                .any(|&b| b != 0)
        })
        .expect("an image has a non-zero page");
    m.mem
        .write_bytes_host(busy * 4096, &[0u8; 4096])
        .expect("zero page");
}

/// The latest checkpoint rebuilds the live machine. `materialize`
/// returns `Some` only when `mem_digest` of the rebuilt image equals the
/// digest the capture recorded, so this pins the capture's digest to
/// `mem_digest` of the live image it was taken from.
fn assert_latest_reproduces(mgr: &CheckpointManager, m: &Machine, what: &str) {
    let id = mgr.latest().expect("a checkpoint was taken").id;
    let rebuilt = mgr
        .materialize(id)
        .unwrap_or_else(|| panic!("{what}: capture digest disagrees with its image"));
    assert_eq!(mem_digest(&rebuilt.mem), mem_digest(&m.mem), "{what}");
    assert_eq!(mgr.parity_mismatches(), 0, "{what}: full-copy oracle");
}

/// A capture's image digest equals `mem_digest` of the captured machine
/// for every guest: at boot, after a pre-copy drain, and after a domain
/// rollback (the runtime's post-recovery snapshot).
#[test]
fn capture_digest_equals_mem_digest_on_every_guest() {
    for app in all_apps().expect("apps") {
        let name = app.name;
        let mut m = Machine::boot(&app.program, Aslr::off()).expect("boot");
        let mut store = DedupeStore::new();
        let empty = BTreeMap::new();
        let boot = DeltaRecord::capture(&m, &mut store, &empty, &empty);
        assert_eq!(boot.image_digest(), mem_digest(&m.mem), "{name}: boot");

        let mut mgr = CheckpointManager::new(u64::MAX, 4).with_engine(Engine::Differential);
        let base = mgr.take(&mut m);
        assert_latest_reproduces(&mgr, &m, &format!("{name}: base"));

        // Benign connection 0 writes, completes and is drained; more
        // writes land after the drain, then a snapshot folds both.
        scribble(&mut m, 1);
        mgr.note_service(&m, 0);
        assert!(mgr.drain(&m) > 0, "{name}: the drain captured pages");
        scribble(&mut m, 2);
        mgr.take(&mut m);
        assert_latest_reproduces(&mgr, &m, &format!("{name}: after drain"));

        // A fresh window: benign service, drain, then an attack on
        // connection 1 rolled back on its own domain, then the
        // runtime's post-recovery sequence.
        let window = mgr.latest().expect("taken").id;
        assert_ne!(window, base);
        scribble(&mut m, 3);
        mgr.note_service(&m, 0);
        mgr.drain(&m);
        scribble(&mut m, 4);
        mgr.note_attack(&m, 1);
        let rec = mgr
            .rollback_domain(window, &mut m, &[1])
            .unwrap_or_else(|e| panic!("{name}: partial rollback refused: {e:?}"));
        assert!(rec.pages_restored > 0, "{name}: attack pages restored");
        mgr.discard_pending();
        mgr.take(&mut m);
        assert_latest_reproduces(&mgr, &m, &format!("{name}: after domain rollback"));
        assert_eq!(mgr.materialize_failures(), 0, "{name}");
    }
}

/// Store keys derive from page digests, so image and page digests are
/// pinned to the values recorded before capture switched to folding
/// slot digests.
#[test]
fn boot_image_digest_golden_value() {
    let app = sweeper_repro::apps::httpd1::app().expect("app");
    let m = Machine::boot(&app.program, Aslr::off()).expect("boot");
    assert_eq!(m.mem.mapped_pages(), 292);
    assert_eq!(mem_digest(&m.mem), 0x2998_c03b_92ca_0960);
}
