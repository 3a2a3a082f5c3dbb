//! A running router is one loop thread (plus its acceptor), however many
//! producers connect: the producer side and the backend links share one
//! `tad-net` event worker, and nothing else runs until a failover needs
//! a recovery driver. Its own test binary: the check reads this
//! process's thread list, which parallel tests in one binary would
//! pollute. Needs no trained model — the backend is a plain listener
//! that accepts the router's link and holds it open.

#![cfg(target_os = "linux")]

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use causaltad_suite::router::RouterServer;

/// Threads of this process whose `comm` starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("thread list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

#[test]
fn sixty_four_producer_connections_share_the_one_router_loop_thread() {
    let backend = TcpListener::bind("127.0.0.1:0").expect("bind backend");
    let backend_addr = backend.local_addr().expect("backend addr");
    let accepter = std::thread::spawn(move || backend.accept().expect("accept router link").0);
    let router =
        RouterServer::builder().backend(backend_addr).bind("127.0.0.1:0").expect("bind router");
    let _link = accepter.join().expect("router connected to the backend");

    let producers: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(router.local_addr()).expect("connect producer"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.stats().fronts_open != 64 {
        assert!(Instant::now() < deadline, "the router never adopted all 64 connections");
        std::thread::sleep(Duration::from_millis(5));
    }

    // `tadbench` groups the router's CPU by these two `comm` prefixes.
    assert_eq!(threads_named("tad-router-conn"), 1, "one loop thread for 64 connections");
    assert_eq!(threads_named("tad-router-back"), 0, "backend links have no thread");
    assert_eq!(router.stats().fronts_accepted, 64);

    drop(producers);
    router.shutdown();
}
