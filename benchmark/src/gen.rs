//! Seeded inputs. Everything the program under test is asked to do — key
//! choice, operation mix, scan lengths, crash budgets, crash residue — is
//! derived from `--seed` here (and in `churn::Churner`, whose choices
//! depend on its own model); the program only ever sees the result.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{Request, Response};
use ycsb::ScrambledZipfian;

/// An independent stream of the run seed: `stream` names the consumer
/// (thread, round, purpose), so two consumers never share draws.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The loaded records of the read and service workloads: record `i` has
/// key `ycsb::key_of(i)`; `keys` holds them ascending so a scan's expected
/// answer is a slice.
pub struct KeyTable {
    pub keys: Vec<u64>,
    pub rank_of_record: Vec<u32>,
    pub record_of_rank: Vec<u32>,
}

impl KeyTable {
    pub fn new(records: u64) -> Self {
        let mut pairs: Vec<(u64, u32)> =
            (0..records).map(|i| (ycsb::key_of(i), i as u32)).collect();
        pairs.sort_unstable();
        let mut rank_of_record = vec![0u32; pairs.len()];
        for (rank, &(_, record)) in pairs.iter().enumerate() {
            rank_of_record[record as usize] = rank as u32;
        }
        Self {
            keys: pairs.iter().map(|p| p.0).collect(),
            record_of_rank: pairs.iter().map(|p| p.1).collect(),
            rank_of_record,
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }
}

/// One operation of the `list_read` trace, by record index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    Get { record: u32 },
    Scan { record: u32, len: u8 },
}

/// 95 % get on a scrambled-zipfian record, 5 % scan of uniform length
/// 1–100 from one (YCSB's scan shape).
pub fn read_trace(seed: u64, records: u64, ops: usize) -> Vec<ReadOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ScrambledZipfian::new(records);
    (0..ops)
        .map(|_| {
            let record = zipf.next(&mut rng) as u32;
            if rng.gen_range(0..100u32) < 5 {
                ReadOp::Scan {
                    record,
                    len: rng.gen_range(1..=100u8),
                }
            } else {
                ReadOp::Get { record }
            }
        })
        .collect()
}

/// What kind of request the service generator planned; `Get`, `Put` and
/// `Scan` feed the read, write and scan latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcClass {
    Get,
    Put,
    Scan,
    Multi,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    pub request: Request,
    /// The response a sequential execution gives.
    pub expect: Response,
    pub class: SvcClass,
}

/// A key is not written within this many requests of any other use of it,
/// so however the service batches or reorders what it has taken off a
/// queue, the sequential answer is the only correct one. A shard's one
/// worker takes its queue in order, at most 64 requests at a time, so two
/// requests can only swap when they are that close in the stream; the
/// guard is far above that (and above the closed-loop window of 32),
/// however deep an open loop's backlog grows.
const IN_FLIGHT_GUARD: u64 = 4096;

const MULTI_EVERY: u64 = 16;
const MULTI_KEYS: usize = 8;
const SCAN_LIMIT: usize = 20;

/// Values carry the key's rank in their high bits, so a scan racing an
/// update of a key inside its range can still be told from a wrong value.
const VERSION_BITS: u32 = 24;

pub fn initial_value(rank: usize) -> u64 {
    (rank as u64 + 1) << VERSION_BITS
}

fn same_key_tag(a: u64, b: u64) -> bool {
    a >> VERSION_BITS == b >> VERSION_BITS
}

/// The service workloads' request stream with its exact expected answers:
/// uniform keys, 94 % `Get` / 5 % `Put` / 1 % `Scan{limit: 20}`, every
/// 16th request an 8-key `MultiGet` (95 %) or `MultiPut` (5 %). Generated
/// on demand so a run of any length never wraps a stateful trace.
pub struct SvcGen {
    rng: StdRng,
    table: Arc<KeyTable>,
    /// Model: current value by rank.
    vals: Vec<u64>,
    /// Sequence number of the last write / last read by rank.
    last_write: Vec<u64>,
    last_read: Vec<u64>,
    /// Starts at the guard so that 0 in the tables above means "long ago".
    seq: u64,
}

impl SvcGen {
    pub fn new(seed: u64, table: Arc<KeyTable>) -> Self {
        let n = table.len();
        Self {
            rng: StdRng::seed_from_u64(seed),
            vals: (0..n).map(initial_value).collect(),
            last_write: vec![0; n],
            last_read: vec![0; n],
            seq: IN_FLIGHT_GUARD,
            table,
        }
    }

    pub fn issued(&self) -> u64 {
        self.seq - IN_FLIGHT_GUARD
    }

    /// The model's current `(key, value)` pairs, ascending by key.
    pub fn model(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.table
            .keys
            .iter()
            .copied()
            .zip(self.vals.iter().copied())
    }

    fn pick(&mut self, for_write: bool) -> usize {
        loop {
            let r = self.rng.gen_range(0..self.table.len());
            let quiet = |last: u64| self.seq >= last + IN_FLIGHT_GUARD;
            if quiet(self.last_write[r]) && (!for_write || quiet(self.last_read[r])) {
                if for_write {
                    self.last_write[r] = self.seq;
                } else {
                    self.last_read[r] = self.seq;
                }
                return r;
            }
        }
    }

    fn pick_distinct(&mut self, n: usize, for_write: bool) -> Vec<usize> {
        let mut ranks = Vec::with_capacity(n);
        while ranks.len() < n {
            let r = self.pick(for_write);
            // A repeat within this request fails `quiet` for writes; for
            // reads it is harmless but would make the request smaller.
            if !ranks.contains(&r) {
                ranks.push(r);
            }
        }
        ranks
    }

    fn write(&mut self, rank: usize) -> (u64, u64) {
        let old = self.vals[rank];
        self.vals[rank] = old + 1;
        (old, old + 1)
    }

    #[allow(clippy::should_implement_trait)] // an endless generator, not an Iterator: it never ends
    pub fn next(&mut self) -> Planned {
        self.seq += 1;
        let keys = Arc::clone(&self.table);
        let roll = self.rng.gen_range(0..100u32);
        if self.issued().is_multiple_of(MULTI_EVERY) {
            if roll < 5 {
                let ranks = self.pick_distinct(MULTI_KEYS, true);
                let (olds, pairs): (Vec<_>, Vec<_>) = ranks
                    .iter()
                    .map(|&r| {
                        let (old, new) = self.write(r);
                        (Some(old), (keys.keys[r], new))
                    })
                    .unzip();
                return Planned {
                    request: Request::MultiPut(pairs),
                    expect: Response::Values(olds),
                    class: SvcClass::Multi,
                };
            }
            let ranks = self.pick_distinct(MULTI_KEYS, false);
            return Planned {
                request: Request::MultiGet(ranks.iter().map(|&r| keys.keys[r]).collect()),
                expect: Response::Values(ranks.iter().map(|&r| Some(self.vals[r])).collect()),
                class: SvcClass::Multi,
            };
        }
        if roll < 1 {
            // Scans may overlap keys with writes in flight; `answers`
            // accepts either version of such a key, so they take no guard.
            let r = self.rng.gen_range(0..keys.len());
            let end = (r + SCAN_LIMIT).min(keys.len());
            Planned {
                request: Request::Scan {
                    from: keys.keys[r],
                    limit: SCAN_LIMIT,
                },
                expect: Response::Entries((r..end).map(|j| (keys.keys[j], self.vals[j])).collect()),
                class: SvcClass::Scan,
            }
        } else if roll < 6 {
            let r = self.pick(true);
            let (old, new) = self.write(r);
            Planned {
                request: Request::Put(keys.keys[r], new),
                expect: Response::Value(Some(old)),
                class: SvcClass::Put,
            }
        } else {
            let r = self.pick(false);
            Planned {
                request: Request::Get(keys.keys[r]),
                expect: Response::Value(Some(self.vals[r])),
                class: SvcClass::Get,
            }
        }
    }
}

/// Whether `got` is a correct answer where a sequential execution gives
/// `expect`. Exact, except that a scanned pair may carry another version
/// of the same key (an update of it was in flight).
pub fn answers(expect: &Response, got: &Response) -> bool {
    match (expect, got) {
        (Response::Entries(e), Response::Entries(g)) => {
            e.len() == g.len()
                && e.iter()
                    .zip(g)
                    .all(|(&(ek, ev), &(gk, gv))| ek == gk && same_key_tag(ev, gv))
        }
        _ => expect == got,
    }
}

/// Where and how trial `trial` of `crash_recover` loses power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Pmem operations (machine-wide) that complete before the crash.
    pub budget_ops: u64,
    /// Seed of `pmem::CrashPlan::Seeded`: which dirty lines survive.
    pub residue: u64,
}

pub fn crash_point(seed: u64, trial: u64, mean_budget_ops: u64) -> CrashPoint {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0xC4A5_0000 + trial));
    CrashPoint {
        budget_ops: rng.gen_range(mean_budget_ops * 9 / 10..=mean_budget_ops * 11 / 10),
        residue: rng.gen(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_read_trace_other_seed_other_trace() {
        let a = read_trace(7, 10_000, 5_000);
        assert_eq!(a, read_trace(7, 10_000, 5_000));
        assert_ne!(a, read_trace(8, 10_000, 5_000));
        let scans = a
            .iter()
            .filter(|op| matches!(op, ReadOp::Scan { .. }))
            .count();
        assert!(
            (150..350).contains(&scans),
            "5% of 5000 ops should scan, got {scans}"
        );
        assert!(a.iter().all(|op| match *op {
            ReadOp::Get { record } => record < 10_000,
            ReadOp::Scan { record, len } => record < 10_000 && (1..=100).contains(&len),
        }));
    }

    fn svc_prefix(seed: u64, n: usize) -> Vec<Planned> {
        let mut g = SvcGen::new(seed, Arc::new(KeyTable::new(20_000)));
        (0..n).map(|_| g.next()).collect()
    }

    #[test]
    fn same_seed_same_service_trace_other_seed_other_trace() {
        let a = svc_prefix(3, 4_000);
        assert_eq!(a, svc_prefix(3, 4_000));
        assert_ne!(a, svc_prefix(4, 4_000));
        let count = |c: SvcClass| a.iter().filter(|p| p.class == c).count();
        assert_eq!(count(SvcClass::Multi), 4_000 / 16);
        assert!(count(SvcClass::Put) > 100 && count(SvcClass::Scan) > 10);
        assert!(count(SvcClass::Get) > 3_000);
    }

    #[test]
    fn service_trace_expectations_follow_a_sequential_model() {
        // Replay the trace against a plain map; every expectation must
        // hold, and no key is written within the guard of another use.
        let table = Arc::new(KeyTable::new(20_000));
        let mut model: std::collections::BTreeMap<u64, u64> = table
            .keys
            .iter()
            .enumerate()
            .map(|(r, &k)| (k, initial_value(r)))
            .collect();
        let mut last_use: std::collections::HashMap<u64, (u64, bool)> = Default::default();
        let mut g = SvcGen::new(11, Arc::clone(&table));
        for seq in 0..20_000u64 {
            let p = g.next();
            let mut touch = |k: u64, write: bool| {
                if let Some(&(at, was_write)) = last_use.get(&k) {
                    assert!(
                        !(write || was_write) || seq - at >= IN_FLIGHT_GUARD,
                        "key {k} reused too soon"
                    );
                }
                last_use.insert(k, (seq, write));
            };
            let got = match &p.request {
                Request::Get(k) => {
                    touch(*k, false);
                    Response::Value(model.get(k).copied())
                }
                Request::Put(k, v) => {
                    touch(*k, true);
                    Response::Value(model.insert(*k, *v))
                }
                Request::MultiGet(ks) => Response::Values(
                    ks.iter()
                        .map(|k| {
                            touch(*k, false);
                            model.get(k).copied()
                        })
                        .collect(),
                ),
                Request::MultiPut(ps) => Response::Values(
                    ps.iter()
                        .map(|&(k, v)| {
                            touch(k, true);
                            model.insert(k, v)
                        })
                        .collect(),
                ),
                Request::Scan { from, limit } => Response::Entries(
                    model
                        .range(from..)
                        .take(*limit)
                        .map(|(&k, &v)| (k, v))
                        .collect(),
                ),
                Request::Delete(_) => unreachable!("the trace never deletes"),
            };
            assert_eq!(got, p.expect, "request {seq}: {:?}", p.request);
        }
        assert!(g.model().eq(model.into_iter()));
    }

    #[test]
    fn a_scan_tolerates_a_racing_update_but_not_a_wrong_key() {
        let expect = Response::Entries(vec![(10, initial_value(0) + 3), (20, initial_value(1))]);
        let racing = Response::Entries(vec![(10, initial_value(0) + 4), (20, initial_value(1))]);
        let wrong_value = Response::Entries(vec![(10, initial_value(5)), (20, initial_value(1))]);
        let wrong_key = Response::Entries(vec![(11, initial_value(0) + 3), (20, initial_value(1))]);
        let short = Response::Entries(vec![(10, initial_value(0) + 3)]);
        assert!(answers(&expect, &expect) && answers(&expect, &racing));
        assert!(
            !answers(&expect, &wrong_value)
                && !answers(&expect, &wrong_key)
                && !answers(&expect, &short)
        );
        assert!(!answers(
            &Response::Value(Some(1)),
            &Response::Value(Some(2))
        ));
    }

    #[test]
    fn crash_points_follow_the_seed() {
        assert_eq!(crash_point(1, 0, 100_000), crash_point(1, 0, 100_000));
        assert_ne!(crash_point(1, 0, 100_000), crash_point(1, 1, 100_000));
        assert_ne!(crash_point(1, 0, 100_000), crash_point(2, 0, 100_000));
        let p = crash_point(9, 3, 100_000);
        assert!((90_000..=110_000).contains(&p.budget_ops));
    }
}
