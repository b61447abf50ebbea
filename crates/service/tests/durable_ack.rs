//! A write is acknowledged only once it is durable: a shard worker makes a
//! drained batch's writes durable with one fence before it completes their
//! tickets, so a crash right after the ack cannot lose them.

use std::sync::Arc;

use pmem::{CrashPlan, PersistenceMode};
use service::{KvService, Request, Response, ServiceConfig, ShardSpec};
use upskiplist::{ListBuilder, ListConfig};

#[test]
fn an_acked_put_survives_a_crash_right_after_its_ack() {
    // One level: the put builds no tower, so none of its tower links can
    // fence the new node's link on the way; only the ack's sync can.
    let list = ListBuilder {
        list: ListConfig::new(1, 16),
        pool_words: 1 << 20,
        mode: PersistenceMode::Tracked,
        ..ListBuilder::default()
    }
    .create();
    list.insert(1000, 1);
    list.sync();

    let svc = KvService::start(
        vec![ShardSpec {
            list: Arc::clone(&list),
            node: 0,
        }],
        ServiceConfig::default(),
    );
    // Key 10 sorts before the only node, so the put links a new head
    // successor: a link whose flush the list leaves unfenced until the
    // writer's next operation or `sync`.
    let ack = svc.submit(Request::Put(10, 100)).wait();
    assert!(matches!(ack, Response::Value(None)), "{ack:?}");
    svc.shutdown();

    for pool in list.space().pools() {
        pool.simulate_crash_with(CrashPlan::DropAll);
    }
    pmem::discard_pending();
    list.recover();
    assert_eq!(list.get(10), Some(100), "an acked put was lost");
    assert_eq!(list.get(1000), Some(1));
    list.check_invariants();
}
