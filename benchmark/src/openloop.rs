//! Open-loop pacing: operations are due on a fixed schedule whatever the
//! system does, and each is timed from when it was *due*, so a stall is
//! charged to every operation it delays (no coordinated omission).

use std::time::{Duration, Instant};

/// A fixed-rate schedule anchored at its start instant.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
}

/// Timing of one open-loop operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// Completion minus due time: what a caller on the schedule waited.
    pub latency: Duration,
    /// Send time minus due time: how late the generator itself ran.
    pub lag: Duration,
}

impl Schedule {
    /// `rate` operations per second starting at `start`; operation `i` is
    /// due at `start + i / rate`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Self {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When operation `i` is due.
    pub fn due(&self, i: u32) -> Instant {
        self.start + self.period * i
    }

    /// Accounts one operation that was sent at `sent` and finished at
    /// `done`. An operation is never sent before it is due, so both
    /// durations are non-negative.
    pub fn account(&self, i: u32, sent: Instant, done: Instant) -> OpTiming {
        let due = self.due(i);
        OpTiming {
            latency: done.saturating_duration_since(due),
            lag: sent.saturating_duration_since(due),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 4.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(2), t0 + Duration::from_millis(500));
        // Operation 1 (due at 250 ms) could only be sent at 400 ms because
        // operation 0 stalled; it then took 30 ms.
        let sent = t0 + Duration::from_millis(400);
        let done = t0 + Duration::from_millis(430);
        let t = s.account(1, sent, done);
        assert_eq!(t.latency, Duration::from_millis(180));
        assert_eq!(t.lag, Duration::from_millis(150));
        // Sent on time: latency is the service time, lag is zero.
        let t = s.account(2, s.due(2), s.due(2) + Duration::from_millis(7));
        assert_eq!(
            (t.latency, t.lag),
            (Duration::from_millis(7), Duration::ZERO)
        );
    }
}
