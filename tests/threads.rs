//! Thread census: a started server runs its one event loop and, only when
//! the aggregation runtime has work of its own (a write-ahead log to commit,
//! idle partial epochs to flush), one `crowd-agg` thread — no worker pool, no
//! completion pump. A test binary of its own, so `/proc/self/task` holds no
//! threads of parallel tests.

#![cfg(target_os = "linux")]

use crowd_ml::core::config::ServerConfig;
use crowd_ml::learning::MulticlassLogistic;
use crowd_ml::net::ReactorServer;
use crowd_ml::proto::auth::TokenRegistry;
use crowd_ml::store::testutil::temp_dir;
use std::time::Duration;

fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

fn count(names: &[String], prefix: &str) -> usize {
    names.iter().filter(|name| name.starts_with(prefix)).count()
}

/// Polls the thread names until `done` holds them, for at most ten seconds.
fn wait_for(done: impl Fn(&[String]) -> bool) -> Vec<String> {
    for _ in 0..10_000 {
        let names = thread_names();
        if done(&names) {
            return names;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    thread_names()
}

#[test]
fn a_started_server_runs_reactor_threads_and_crowd_agg_only_when_needed() {
    let dir = temp_dir("thread-census");
    let cases = [
        ("default volatile", ServerConfig::new(), 0),
        ("epoch_size 16", ServerConfig::new().with_epoch_size(16), 1),
        ("durable", ServerConfig::new().with_data_dir(&dir), 1),
    ];
    let baseline = thread_names().len();
    for (what, config, agg) in cases {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        // A new thread carries its spawner's name until it renames itself:
        // wait for the named threads, then give any other the same chance.
        wait_for(|names| count(names, "crowd-reactor") == 1 && count(names, "crowd-agg") == agg);
        std::thread::sleep(Duration::from_millis(50));
        let names = thread_names();
        assert_eq!(names.len(), baseline + 1 + agg, "{what}: {names:?}");
        assert_eq!(count(&names, "crowd-reactor"), 1, "{what}: {names:?}");
        assert_eq!(count(&names, "crowd-agg"), agg, "{what}: {names:?}");
        assert!(!names.iter().any(|name| name.contains("pump")), "{what}");
        handle.shutdown();
        let names = wait_for(|names| names.len() == baseline);
        assert_eq!(names.len(), baseline, "{what} after shutdown: {names:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
