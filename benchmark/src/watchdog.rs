//! Hang protection. At the commit that defined the benchmark the library
//! can deadlock (see the README's known limit), so no op may block the
//! benchmark for ever: a watchdog thread ends the process, naming the
//! workload, op and key, when one op outlives its deadline or the whole
//! workload its wall-clock cap.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit code of a run the watchdog ended.
pub const EXIT_HUNG: i32 = 3;

#[derive(Clone, Copy)]
struct Armed {
    op: u64,
    key: u64,
    expires: Instant,
    limit: Duration,
}

pub struct Watchdog {
    armed: Arc<Mutex<Option<Armed>>>,
    stop: Option<mpsc::Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Start watching `workload`, which must finish within `wall_cap`.
    pub fn start(workload: &str, wall_cap: Duration) -> Self {
        let armed: Arc<Mutex<Option<Armed>>> = Arc::new(Mutex::new(None));
        let (stop, stopped) = mpsc::channel::<()>();
        let name = workload.to_string();
        let shared = Arc::clone(&armed);
        let born = Instant::now();
        let thread = std::thread::spawn(move || loop {
            match stopped.recv_timeout(Duration::from_millis(50)) {
                Err(RecvTimeoutError::Timeout) => {}
                // stopped, or the owner is gone
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
            }
            // a rank that panicked while arming leaves nothing to protect
            let Ok(state) = shared.lock().map(|s| *s) else { return };
            if let Some(a) = state.filter(|a| Instant::now() >= a.expires) {
                eprintln!(
                    "HUNG: workload {name} op {} key {} exceeded its {:?} deadline; \
                     the op counts as failed",
                    a.op, a.key, a.limit
                );
                std::process::exit(EXIT_HUNG);
            }
            if born.elapsed() >= wall_cap {
                let at = state
                    .map_or("between ops".to_string(), |a| format!("in op {} key {}", a.op, a.key));
                eprintln!("HUNG: workload {name} exceeded its {wall_cap:?} wall-clock cap {at}");
                std::process::exit(EXIT_HUNG);
            }
        });
        Self { armed, stop: Some(stop), thread: Some(thread) }
    }

    /// Op `op` on `key` starts now and must return within `limit`.
    pub fn arm(&self, op: u64, key: u64, limit: Duration) {
        let a = Armed { op, key, expires: Instant::now() + limit, limit };
        *self.armed.lock().expect("watchdog state poisoned by a panicking rank") = Some(a);
    }

    pub fn disarm(&self) {
        *self.armed.lock().expect("watchdog state poisoned by a panicking rank") = None;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            // the thread only ever returns or exits the process
            let _ = t.join();
        }
    }
}
