//! An OSDB-IR-style database workload: PostgreSQL's information
//! retrieval test reduced to its kernel-facing behaviour — a resident
//! table file queried by random index lookups, each mixing small reads,
//! seeks, modest user-space compute, and result writes.

use crate::apps::AppResult;
use crate::configs::TestBed;
use faultgen::rng::SplitMix64;
use nimbus::kernel::ReadOutcome;
use simx86::costs::cycles_to_us;

/// Table size in 4 KiB blocks.
const TABLE_BLOCKS: u64 = 256;
/// Queries per scale unit.
const QUERIES_PER_SCALE: u32 = 40;
/// User-space compute per tuple (predicate evaluation, sort step).
const TUPLE_COMPUTE_CYCLES: u64 = 2_500;

/// Run the IR mix; returns queries/second of simulated time.
pub fn run(bed: &TestBed, scale: u32) -> AppResult {
    let sess = bed.session(0);
    sess.exec("postgres").expect("exec postgres");

    // Load phase: build the table (not timed, like OSDB's populate).
    let fd = sess.open("osdb_table.dat", true).expect("create table");
    let block = vec![0x5au8; 4096];
    for _ in 0..TABLE_BLOCKS {
        sess.write(fd, &block).expect("populate");
    }
    let results_fd = sess.open("osdb_results.dat", true).expect("results");
    // The populate phase ends with a sync (as OSDB's vacuum does), so
    // the timed query mix starts from a clean cache.
    sess.sync().expect("post-load sync");

    let mut rng = SplitMix64::new(0x05db);
    let queries = QUERIES_PER_SCALE * scale;
    let t0 = sess.cpu().cycles();
    for q in 0..queries {
        // Index lookup: a few random 4 KiB block reads.
        for _ in 0..4 {
            let blk = rng.below(TABLE_BLOCKS);
            sess.lseek(fd, blk * 4096).expect("seek");
            match sess.read(fd, 4096).expect("read") {
                ReadOutcome::Data(d) => assert_eq!(d.len(), 4096),
                other => panic!("{other:?}"),
            }
            // Evaluate tuples in user space.
            sess.compute(TUPLE_COMPUTE_CYCLES);
        }
        // Sort/aggregate and emit the result row.
        sess.compute(TUPLE_COMPUTE_CYCLES * 2);
        let row = format!("result {q}\n");
        sess.lseek(results_fd, (q as u64) * 32)
            .expect("seek results");
        sess.write(results_fd, row.as_bytes())
            .expect("result write");
    }
    let us = cycles_to_us(sess.cpu().cycles() - t0);
    AppResult {
        score: queries as f64 / (us / 1e6),
        unit: "queries/s",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::SysKind;

    #[test]
    fn runs_and_reports_queries_per_second() {
        let bed = TestBed::build(SysKind::NL, 1);
        let r = run(&bed, 1);
        assert!(r.score > 100.0, "{} queries/s implausible", r.score);
        assert_eq!(r.unit, "queries/s");
    }

    #[test]
    fn virtualization_costs_more_than_a_tenth() {
        // Fig. 3: OSDB-IR loses >20 % under Xen.
        let native = run(&TestBed::build(SysKind::NL, 1), 1).score;
        let virt = run(&TestBed::build(SysKind::X0, 1), 1).score;
        assert!(
            virt < native,
            "virtual {virt} must be below native {native}"
        );
    }
}
