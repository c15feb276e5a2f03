//! Probes of `nurd-runtime`'s public types: the cost of the primitives
//! the serving path is built on, outside any engine.

use std::sync::Arc;
use std::time::Instant;

use nurd_runtime::{Channel, Notifier, ThreadPool};

use crate::stats::median;

const REPEATS: usize = 5;

/// `Channel::send` + `recv_batch`, one producer, one consumer, through a
/// bounded channel shaped like a shard's ingress: ns per item.
pub fn channel_ns_per_item() -> f64 {
    const ITEMS: usize = 200_000;
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let channel = Arc::new(Channel::<u64>::bounded(4096));
            let consumer = {
                let channel = Arc::clone(&channel);
                std::thread::spawn(move || {
                    let mut batch = Vec::with_capacity(256);
                    let mut seen = 0usize;
                    loop {
                        let taken = channel.recv_batch(&mut batch, 256);
                        if taken == 0 && channel.is_drained() {
                            return seen;
                        }
                        seen += taken;
                        std::hint::black_box(&batch);
                        batch.clear();
                    }
                })
            };
            let start = Instant::now();
            for item in 0..ITEMS as u64 {
                channel.send(item).expect("open channel");
            }
            channel.close();
            let seen = consumer.join().expect("consumer");
            assert_eq!(seen, ITEMS, "channel lost items");
            start.elapsed().as_nanos() as f64 / ITEMS as f64
        })
        .collect();
    median(&samples)
}

/// `ThreadPool::scope` with one empty spawn per core: µs per scope.
pub fn pool_scope_us(threads: usize) -> f64 {
    const SCOPES: usize = 2_000;
    let pool = ThreadPool::new(threads);
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SCOPES {
                pool.scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| {
                            std::hint::black_box(());
                        });
                    }
                });
            }
            start.elapsed().as_secs_f64() * 1e6 / SCOPES as f64
        })
        .collect();
    median(&samples)
}

/// Two threads handing a turn back and forth through two `Notifier`s
/// (`park` on one, `unpark` the other): µs per round trip.
pub fn notifier_roundtrip_us() -> f64 {
    const TRIPS: u64 = 5_000;
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let ping = Arc::new(Notifier::new());
            let pong = Arc::new(Notifier::new());
            let echo = {
                let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
                std::thread::spawn(move || {
                    for turn in 0..TRIPS {
                        while ping.epoch() <= turn {
                            ping.park(turn);
                        }
                        pong.unpark();
                    }
                })
            };
            let start = Instant::now();
            for turn in 0..TRIPS {
                ping.unpark();
                while pong.epoch() <= turn {
                    pong.park(turn);
                }
            }
            let elapsed = start.elapsed();
            echo.join().expect("echo thread");
            elapsed.as_secs_f64() * 1e6 / TRIPS as f64
        })
        .collect();
    median(&samples)
}
