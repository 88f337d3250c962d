//! Integration: antibody distribution across hosts (paper §3.3/§6) —
//! piecemeal releases, consumer deployment, verification, and the
//! producer/consumer protection story with real exploits.

use sweeper_repro::antibody::{verify, Verification};
use sweeper_repro::apps::{cvs, httpd1, squid};
use sweeper_repro::svm::loader::{Aslr, Layout};
use sweeper_repro::sweeper::{Config, RequestOutcome, Sweeper};

fn produce_antibody(
    app: &sweeper_repro::apps::App,
    exploit: Vec<u8>,
    seed: u64,
) -> sweeper_repro::antibody::Antibody {
    let mut p = Sweeper::protect(app, Config::producer(seed)).expect("protect");
    match p.offer_request(exploit) {
        RequestOutcome::Attack(r) => r.analysis.expect("analysis").antibody,
        other => panic!("no attack: {other:?}"),
    }
}

#[test]
fn piecemeal_release_order_is_initial_vsef_first() {
    let app = squid::app().expect("app");
    let ab = produce_antibody(&app, squid::exploit_crash(&app).input, 1);
    let first = ab.first_vsef_ms().expect("vsef released");
    // The first VSEF precedes the signature and the exploit input.
    for r in &ab.releases {
        match &r.item {
            sweeper_repro::antibody::AntibodyItem::Signature(_)
            | sweeper_repro::antibody::AntibodyItem::ExploitInput(_) => {
                assert!(r.at_ms >= first, "VSEF races everything else");
            }
            _ => {}
        }
    }
    // The paper's headline: antibodies start flowing within ~60 ms.
    assert!(first <= 60.0, "first VSEF at {first:.1} ms");
}

#[test]
fn untrusting_hosts_can_verify_the_antibody_in_a_sandbox() {
    let app = squid::app().expect("app");
    let ab = produce_antibody(&app, squid::exploit_crash(&app).input, 2);
    for seed in [100u64, 200, 300] {
        let v = verify(&app.program, &ab, seed);
        assert!(
            !matches!(v, Verification::Failed),
            "verification failed under seed {seed}: {v:?}"
        );
    }
    // Without the signature releases, the sandbox must actually run the
    // exploit and catch it via the VSEFs.
    let vsef_only = sweeper_repro::antibody::Antibody {
        releases: ab
            .releases
            .iter()
            .filter(|r| !matches!(r.item, sweeper_repro::antibody::AntibodyItem::Signature(_)))
            .cloned()
            .collect(),
    };
    let v = verify(&app.program, &vsef_only, 400);
    assert!(
        matches!(
            v,
            Verification::VsefDetected { .. } | Verification::CrashOnly
        ),
        "sandboxed execution verdict: {v:?}"
    );
}

#[test]
fn early_partial_antibody_still_protects() {
    // A consumer that only received the first 60 ms of releases (the
    // initial VSEF, no signature) still stops the exploit.
    let app = httpd1::app().expect("app");
    let full = produce_antibody(&app, httpd1::exploit_crash(&app).input, 3);
    let early = full.available_at(60.0);
    assert!(early.signatures().is_empty(), "no signature yet at 60 ms");
    assert!(!early.vsefs().is_empty(), "initial VSEF available");
    let mut c = Sweeper::protect(&app, Config::consumer(999)).expect("protect");
    c.deploy_antibody(&early);
    match c.offer_request(httpd1::exploit_crash(&app).input) {
        RequestOutcome::Attack(r) => {
            assert!(r.cause.starts_with("vsef:") || r.cause.starts_with("fault:"));
        }
        other => panic!("{other:?}"),
    }
    // And benign traffic is unaffected.
    assert!(matches!(
        c.offer_request(httpd1::benign_request("fine.html")),
        RequestOutcome::Served { .. }
    ));
}

#[test]
fn antibodies_transfer_across_hosts_with_different_layouts() {
    // Producer and consumers all randomize independently; VSEF rebasing
    // must hold across every seed.
    let app = cvs::app().expect("app");
    let ab = produce_antibody(&app, cvs::exploit_crash(&app).input, 4);
    for seed in [7u64, 70, 700] {
        let mut c = Sweeper::protect(&app, Config::consumer(seed)).expect("protect");
        c.deploy_antibody(&ab);
        assert!(c.deployed_vsefs() > 0);
        // Benign sessions still work with the VSEFs armed.
        assert!(matches!(
            c.offer_request(cvs::benign_session(&["src"])),
            RequestOutcome::Served { .. }
        ));
        // The exploit does not get through silently.
        match c.offer_request(cvs::exploit_crash(&app).input) {
            RequestOutcome::Filtered { .. } | RequestOutcome::Attack(_) => {}
            other => panic!("seed {seed}: {other:?}"),
        }
    }

    // A worm's compromise exploit is built against the nominal layout:
    // it crashes a randomizing producer, but owns a consumer that does
    // not randomize (rho = 1) until the producer's antibody arrives.
    let worm = cvs::exploit_compromise(&app, &Layout::nominal()).input;
    let mut p = Sweeper::protect(&app, Config::producer(5000)).expect("protect");
    let analysis = match p.offer_request(worm.clone()) {
        RequestOutcome::Attack(r) if !r.compromised => r.analysis.expect("analysis"),
        other => panic!("randomizing producer not protected: {other:?}"),
    };
    let gamma1 = analysis.timings.initial_ms;
    assert!(gamma1 < 500.0, "gamma1 {gamma1:.1} ms");
    let unrandomized = || {
        let mut c = Config::consumer(5001);
        c.aslr = Aslr::off();
        Sweeper::protect(&app, c).expect("protect")
    };
    match unrandomized().offer_request(worm.clone()) {
        RequestOutcome::Attack(r) => assert!(r.compromised, "{}", r.cause),
        other => panic!("unprotected consumer not compromised: {other:?}"),
    }
    let mut c = unrandomized();
    c.deploy_antibody(&analysis.antibody);
    match c.offer_request(worm) {
        RequestOutcome::Filtered { .. } => {}
        RequestOutcome::Attack(r) => {
            assert!(
                !r.compromised && r.cause.starts_with("vsef:"),
                "{}",
                r.cause
            )
        }
        other => panic!("antibody missed the worm: {other:?}"),
    }
}

#[test]
fn malicious_vsefs_are_harmless_by_construction() {
    // Paper §3.3: "By their nature, then, VSEFs cannot be harmful;
    // incorrect or malicious VSEFs will result in unnecessary bounds
    // checking or taint tracking ... At worst they cause a performance
    // degradation." Deploy garbage VSEFs pointing at arbitrary benign
    // instructions and verify service is fully unaffected.
    use sweeper_repro::antibody::{Antibody, AntibodyItem, VsefSpec};
    let app = httpd1::app().expect("app");
    let mut hostile = Antibody::new();
    // Addresses picked across all segments, including ones that are real
    // benign instructions and ones that don't exist at all.
    let nominal = sweeper_repro::svm::loader::Layout::nominal();
    for (i, pc) in [
        nominal.code_base + 8,
        nominal.code_base + 64,
        nominal.lib_base + 16,
        nominal.data_base + 4,
        0xdead_bee8,
    ]
    .into_iter()
    .enumerate()
    {
        let spec = match i % 4 {
            0 => VsefSpec::HeapBoundsCheck {
                store_pc: pc,
                caller: None,
            },
            1 => VsefSpec::StoreSmashGuard { store_pc: pc },
            2 => VsefSpec::NullCheck { insn_pc: pc },
            _ => VsefSpec::HeapIntegrityGuard { sites: vec![pc] },
        };
        hostile.push(AntibodyItem::Vsef(spec), i as f64);
    }
    let mut s = Sweeper::protect(&app, Config::consumer(0xbad)).expect("protect");
    s.deploy_antibody(&hostile);
    assert_eq!(s.deployed_vsefs(), 5);
    let before = s.timeline.now();
    for i in 0..20 {
        assert!(
            matches!(
                s.offer_request(httpd1::benign_request(&format!("p{i}.html"))),
                RequestOutcome::Served { .. }
            ),
            "request {i} must be served despite garbage VSEFs"
        );
    }
    // The only permitted effect is (bounded) performance degradation.
    let with_garbage = s.timeline.now() - before;
    let mut clean = Sweeper::protect(&app, Config::consumer(0xbad)).expect("protect");
    let before = clean.timeline.now();
    for i in 0..20 {
        clean.offer_request(httpd1::benign_request(&format!("p{i}.html")));
    }
    let without = clean.timeline.now() - before;
    assert!(
        with_garbage < without * 2,
        "garbage VSEFs cost at most modest overhead: {with_garbage} vs {without}"
    );
}

#[test]
fn cross_app_antibodies_do_not_false_positive() {
    // Deploy the Squid antibody on an httpd host: nothing should fire.
    let squid_app = squid::app().expect("squid");
    let ab = produce_antibody(&squid_app, squid::exploit_crash(&squid_app).input, 5);
    let httpd = httpd1::app().expect("httpd");
    let mut c = Sweeper::protect(&httpd, Config::consumer(8)).expect("protect");
    c.deploy_antibody(&ab);
    for i in 0..10 {
        assert!(
            matches!(
                c.offer_request(httpd1::benign_request(&format!("p{i}.html"))),
                RequestOutcome::Served { .. }
            ),
            "foreign antibody must not break request {i}"
        );
    }
}
