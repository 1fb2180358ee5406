//! Fixture: `agmdp: allow(...)` comments with reasons, in both positions —
//! standalone line above and trailing the offending line — which silence
//! nothing (linted as crates/service/src/engine.rs).

pub fn drain(receiver: &Mutex<Receiver<Job>>) -> Job {
    // agmdp: allow(panic-freedom, reason = "fixture: the lock holder cannot panic")
    let guard = receiver.lock().unwrap();
    let job = guard.recv().unwrap(); // agmdp: allow(panic-freedom, reason = "fixture: the sender outlives the pool")
    job
}
