//! Property tests for the derivation-count store backing counting-based
//! incremental maintenance.
//!
//! The oracle is differential, mirroring `prop_stats.rs`: replay a
//! random interleaving of signed count adjustments into a [`CountStore`]
//! and into a plain reference model, and require (a) every reported
//! presence transition to match the model's `0 → n` / `n → 0` crossings,
//! (b) the store's contents to equal the model at every step, and
//! (c) any adjustment the model would drive negative to report
//! [`CountChange::Underflow`] and saturate at zero — never a silently
//! wrong positive count.

// Sound map keys: see the identical allow in the crate root.
#![allow(clippy::mutable_key_type)]

use coral_rel::{CountChange, CountStore};
use coral_term::testutil::TestRng;
use coral_term::{FastMap, Term, Tuple};

fn random_tuple(rng: &mut TestRng, domain: usize) -> Tuple {
    Tuple::ground(vec![
        Term::int(rng.gen_range(0, domain) as i64),
        Term::int(rng.gen_range(0, domain) as i64),
    ])
}

fn model_equal(store: &CountStore, model: &FastMap<Tuple, u64>, ctx: &str) {
    let live: FastMap<Tuple, u64> = model
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|(t, n)| (t.clone(), *n))
        .collect();
    assert_eq!(store.len(), live.len(), "{ctx}: live-entry count diverged");
    for (t, n) in &live {
        assert_eq!(store.get(t), *n, "{ctx}: count for {t:?} diverged");
    }
    let mut seen = 0usize;
    for (t, n) in store.iter() {
        assert_eq!(live.get(t).copied(), Some(n), "{ctx}: stray entry {t:?}");
        seen += 1;
    }
    assert_eq!(seen, live.len(), "{ctx}: iterator length diverged");
}

/// Replay `ops` random adjustments (only ever decrementing what the
/// model says is available — the maintenance engine's protocol) and
/// check the model equivalence at every step.
fn run_valid_interleaving(seed: u64, domain: usize, ops: usize) {
    let mut rng = TestRng::new(seed);
    let mut store = CountStore::new();
    let mut model: FastMap<Tuple, u64> = FastMap::default();
    for step in 0..ops {
        let t = random_tuple(&mut rng, domain);
        let have = model.get(&t).copied().unwrap_or(0);
        let delta = if have > 0 && rng.gen_bool(0.45) {
            -(rng.gen_range(1, have as usize + 1) as i64)
        } else {
            rng.gen_range(1, 4) as i64
        };
        let before = have;
        let after = (before as i64 + delta) as u64;
        let expected = if before == 0 && after > 0 {
            CountChange::Appeared
        } else if before > 0 && after == 0 {
            CountChange::Disappeared
        } else {
            CountChange::Unchanged
        };
        let got = store.adjust(&t, delta);
        assert_eq!(
            got, expected,
            "seed {seed} step {step}: transition for delta {delta} on count {before}"
        );
        model.insert(t, after);
        model_equal(&store, &model, &format!("seed {seed} step {step}"));
    }
}

#[test]
fn adjustments_track_reference_model() {
    for seed in 0..40u64 {
        run_valid_interleaving(seed, 6, 300);
    }
}

#[test]
fn zero_adjustment_is_inert() {
    let mut store = CountStore::new();
    let t = Tuple::ground(vec![Term::int(1), Term::int(2)]);
    assert_eq!(store.adjust(&t, 0), CountChange::Unchanged);
    assert!(store.is_empty());
    store.adjust(&t, 2);
    assert_eq!(store.adjust(&t, 0), CountChange::Unchanged);
    assert_eq!(store.get(&t), 2);
}

/// Over-decrements must always report underflow and leave the tuple
/// absent, regardless of interleaving — a stale-marking signal, never a
/// wrapped or silently clamped count.
#[test]
fn overdecrement_always_underflows_and_saturates() {
    for seed in 0..20u64 {
        let mut rng = TestRng::new(0xBAD + seed);
        let mut store = CountStore::new();
        let mut model: FastMap<Tuple, u64> = FastMap::default();
        for step in 0..200 {
            let t = random_tuple(&mut rng, 5);
            let have = model.get(&t).copied().unwrap_or(0);
            if rng.gen_bool(0.3) {
                // Deliberate protocol violation: decrement more than held.
                let delta = -((have as usize + rng.gen_range(1, 4)) as i64);
                assert_eq!(
                    store.adjust(&t, delta),
                    CountChange::Underflow,
                    "seed {seed} step {step}: over-decrement must report underflow"
                );
                assert_eq!(store.get(&t), 0, "seed {seed} step {step}: must saturate");
                model.insert(t, 0);
            } else {
                let delta = rng.gen_range(1, 4) as i64;
                store.adjust(&t, delta);
                model.insert(t, have + delta as u64);
            }
        }
        model_equal(&store, &model, &format!("seed {seed} final"));
    }
}

/// Wire round-trip: encode/decode must reproduce the store exactly, and
/// equal stores built along different interleavings must encode to
/// identical bytes (the crash-recovery fingerprint depends on this).
#[test]
fn encode_decode_round_trips_and_is_canonical() {
    for seed in 0..20u64 {
        let mut rng = TestRng::new(0xEC0DE + seed);
        let mut store = CountStore::new();
        let n = rng.gen_range(1, 30);
        let mut entries: Vec<(Tuple, u64)> = Vec::new();
        for _ in 0..n {
            let t = random_tuple(&mut rng, 50);
            let c = rng.gen_range(1, 9) as u64;
            store.set(t.clone(), c);
            entries.retain(|(e, _)| *e != t);
            entries.push((t, c));
        }
        let bytes = store
            .encode()
            .unwrap_or_else(|| panic!("seed {seed}: encodable"));
        let back = CountStore::decode(&bytes).unwrap_or_else(|| panic!("seed {seed}: decodable"));
        assert_eq!(back.len(), store.len(), "seed {seed}");
        for (t, c) in &entries {
            assert_eq!(back.get(t), *c, "seed {seed}: {t:?}");
        }
        // Canonical: rebuilding the same contents in reverse insertion
        // order must produce byte-identical encoding.
        let mut other = CountStore::new();
        for (t, c) in entries.iter().rev() {
            other.set(t.clone(), *c);
        }
        assert_eq!(
            other.encode().unwrap(),
            bytes,
            "seed {seed}: encoding depends on insertion order"
        );
    }
}

/// Every strict prefix of an encoding must fail to decode — a torn
/// write can never be mistaken for a smaller valid store.
#[test]
fn truncated_encodings_never_decode() {
    let mut rng = TestRng::new(0x7EA2);
    let mut store = CountStore::new();
    for _ in 0..12 {
        store.set(random_tuple(&mut rng, 40), rng.gen_range(1, 6) as u64);
    }
    let bytes = store.encode().unwrap();
    for cut in 0..bytes.len() {
        assert!(
            CountStore::decode(&bytes[..cut]).is_none(),
            "prefix of length {cut} decoded"
        );
    }
    assert!(CountStore::decode(&bytes).is_some());
}
