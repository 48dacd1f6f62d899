//! The TCP transport owns no threads: every receiver is read by the stage
//! that calls it. Building both channel families for an 8-worker /
//! 2-aggregator topology and pushing a message through each must leave the
//! process's thread count where it was.
//!
//! This file holds exactly one test on purpose — the count is read from
//! `/proc/self/status`, and a sibling test running on another harness
//! thread would move it.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::time::Instant;

use slb_engine::transport::{
    PartialReceiver, PartialSender, PartialWindow, SourceMessage, Transport, TupleReceiver,
    TupleSender,
};
use slb_net::TcpTransport;

type Partial = HashMap<u64, u64>;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[test]
fn building_and_using_every_channel_starts_no_thread() {
    let before = threads();
    let transport = TcpTransport::loopback();
    let (tuple_tx, tuple_rx) = Transport::<Partial>::tuple_channels(&transport, 8, 4);
    let (partial_tx, partial_rx) = Transport::<Partial>::partial_channels(&transport, 2, 8);

    for (worker, (tx, rx)) in tuple_tx.iter().zip(&tuple_rx).enumerate() {
        tx.send(SourceMessage::CloseWindow {
            window: 0,
            source: 0,
            seq: worker as u64,
        })
        .unwrap();
        let mut got = Vec::new();
        assert_eq!(rx.recv_batch(&mut got), Ok(1));
    }
    for (tx, rx) in partial_tx.iter().zip(&partial_rx) {
        tx.send(PartialWindow {
            window: 0,
            worker: 0,
            partial: Partial::from([(1, 1)]),
            closed_at: Instant::now(),
        })
        .unwrap();
        let mut got = Vec::new();
        assert_eq!(rx.recv_batch(&mut got), Ok(1));
    }
    assert_eq!(
        threads(),
        before,
        "10 channels built and used: the transport must not have started a thread"
    );
}
