//! The crash matrix: run a recorded workload, crash at *every* mutating
//! I/O operation, power-cycle, recover, and assert the oracle — no
//! committed tuple lost, no uncommitted tuple visible, all structures
//! structurally sound. Entirely in-memory and seed-deterministic; a
//! failure names the shape, seed and crash index for replay with
//! `coral_sim::run_crash_point(shape, seed, n)`.

use coral_sim::harness::{
    count_mutations, run_overload_matrix, run_overload_point, run_with_recovery_crashes,
};
use coral_sim::{count_ops, run_crash_matrix, run_crash_point, Shape};

/// Fixed seed set: small enough for CI (each seed's matrix is a few
/// hundred full runs), varied enough to hit different workload shapes
/// (index build position, checkpoint placement, delete mix).
const SEEDS: [u64; 4] = [1, 2026, 0xC04A1, 77];

#[test]
fn crash_matrix_holds_for_fixed_seeds() {
    for &seed in &SEEDS {
        let points = run_crash_matrix(Shape::Mixed, seed).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            points > 40,
            "seed={seed}: suspiciously small matrix ({points} ops)"
        );
    }
}

/// The `persistent_mix` shape: single-row transactions at 16 frames
/// with a checkpoint every six commits. Each page's first commit after a
/// checkpoint logs a full image and the later ones log deltas, so crash
/// points fall between the two and inside every checkpoint's flush.
#[test]
fn single_row_crash_matrix_holds_for_fixed_seeds() {
    for &seed in &SEEDS {
        let points = run_crash_matrix(Shape::SingleRow, seed).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            points > 100,
            "seed={seed}: suspiciously small matrix ({points} ops)"
        );
    }
}

/// Untransacted writes through a relation handle and a session share
/// the storage server's implicit transaction. A crash at any point must
/// recover the relation as of some prefix of the writes that holds
/// every write before the last implicit commit the workload saw, with
/// clean storage and relation checks.
#[test]
fn autocommit_crash_matrix_holds_for_fixed_seeds() {
    for &seed in &SEEDS {
        let points = run_crash_matrix(Shape::Autocommit, seed).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            points > 100,
            "seed={seed}: suspiciously small matrix ({points} ops)"
        );
    }
}

/// The overload scenario: at every tuple mutation in turn, the
/// resource governor (not the disk) kills the enclosing transaction
/// mid-flight — the abort path, then a power cycle. The PR-3 recovery
/// invariants must hold with the governor as the killer: no committed
/// tuple lost, nothing from the aborted transaction visible.
#[test]
fn governor_overload_matrix_holds_for_fixed_seeds() {
    for &seed in &SEEDS {
        let points = run_overload_matrix(seed).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            points > 10,
            "seed={seed}: suspiciously few kill points ({points} mutations)"
        );
    }
}

/// A kill index beyond the workload degenerates to a clean run: zero
/// kills, full committed state recovered.
#[test]
fn governor_kill_beyond_workload_is_a_clean_run() {
    let seed = SEEDS[0];
    let total = count_mutations(seed);
    let killed = run_overload_point(seed, total + 1000).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(killed, 0);
}

#[test]
fn crash_beyond_workload_is_a_clean_run() {
    let seed = SEEDS[0];
    let total = count_ops(Shape::Mixed, seed).unwrap();
    run_crash_point(Shape::Mixed, seed, total + 1000).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn recovery_survives_crashes_during_recovery() {
    // Crash the workload mid-flight, then crash recovery itself at every
    // point until it gets through: each aborted replay leaves a partial
    // prefix of replayed pages the next replay must converge over
    // (double-replay idempotence).
    let seed = SEEDS[0];
    let total = count_ops(Shape::Mixed, seed).unwrap();
    // A handful of workload crash points spread over the run, including
    // late ones (most WAL content to replay).
    for frac in [3, 5, 7, 9] {
        let crash_at = total * frac / 10;
        let aborted = run_with_recovery_crashes(seed, crash_at).unwrap_or_else(|e| panic!("{e}"));
        // At least the first recovery attempt (crash at its op 0) must
        // itself have been crashed for the test to mean anything.
        assert!(
            aborted >= 1,
            "seed={seed} crash_at={crash_at}: recovery did no I/O"
        );
    }
}
