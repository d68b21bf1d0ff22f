//! Load generators, one client thread each.  Open loop: the thread submits
//! on the schedule without waiting for replies.  Closed loop: it keeps a
//! fixed window of requests outstanding.  Latency is timed
//! from the *scheduled* send in the open loop, so a stalled server is charged
//! for every request that queued behind the stall, and from the actual send in
//! the closed loop.
//!
//! `Ticket` offers only a blocking `wait` and a non-blocking `is_ready`, so
//! completions are observed by sweeping the outstanding tickets every
//! [`POLL`]; a latency carries that resolution.  Waiting on tickets in send
//! order instead would charge a verdict for a slower verdict sent before it.

use std::time::Duration;

use ptolemy_obs::Clock;
use ptolemy_serve::{ServeError, Served, Server, Ticket};
use ptolemy_tensor::Tensor;

use crate::BoxResult;

/// The longest a client goes between two sweeps for completions.
pub const POLL: Duration = Duration::from_micros(50);

/// A phase fails if tickets are still unresolved this long after its last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    Served(Served),
    /// Refused at submission because the queue was full.
    QueueFull,
    /// Resolved without a verdict: engine error, cancellation, worker panic
    /// or overload shedding.
    Error,
}

/// One request as the client saw it.  Times are nanoseconds after the
/// phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Index of the request in its phase (the input stream's index).
    pub index: usize,
    /// When the request should have been sent: the schedule's time in the
    /// open loop, the actual send in the closed loop.
    pub due_ns: u64,
    pub sent_ns: u64,
    /// When the client saw the ticket resolve (equal to `sent_ns` for a
    /// request refused at submission).
    pub done_ns: u64,
    pub outcome: Outcome,
}

impl Record {
    /// Latency charged to the request: from its due time to its completion.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

fn refused(error: ServeError) -> BoxResult<Outcome> {
    match error {
        ServeError::QueueFull => Ok(Outcome::QueueFull),
        other => Err(format!("submission failed: {other}").into()),
    }
}

struct Pending {
    index: usize,
    due_ns: u64,
    sent_ns: u64,
    ticket: Ticket,
}

impl Pending {
    fn finish(self, done_ns: u64) -> Record {
        Record {
            index: self.index,
            due_ns: self.due_ns,
            sent_ns: self.sent_ns,
            done_ns,
            outcome: match self.ticket.wait() {
                Ok(served) => Outcome::Served(served),
                Err(_) => Outcome::Error,
            },
        }
    }
}

/// The client's in-flight requests and finished records, swept for
/// completions at least every [`POLL`].
struct Client<'a> {
    clock: Clock,
    origin_ns: u64,
    server: &'a Server,
    outstanding: Vec<Pending>,
    records: Vec<Record>,
    last_sweep_ns: u64,
}

impl<'a> Client<'a> {
    /// `expected` requests are reserved for up front, so the record buffer
    /// does not grow (and move) while the phase is measured.
    fn new(server: &'a Server, expected: usize) -> Client<'a> {
        let clock = Clock::monotonic();
        let origin_ns = clock.now_ns();
        Client {
            clock,
            origin_ns,
            server,
            outstanding: Vec::new(),
            records: Vec::with_capacity(expected),
            last_sweep_ns: 0,
        }
    }

    /// Nanoseconds since the phase started.
    fn now(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.origin_ns)
    }

    /// Records every resolved ticket; returns how many resolved.
    fn sweep(&mut self) -> usize {
        let before = self.records.len();
        let mut k = 0;
        while k < self.outstanding.len() {
            if self.outstanding[k].ticket.is_ready() {
                let done_ns = self.now();
                let pending = self.outstanding.swap_remove(k);
                self.records.push(pending.finish(done_ns));
            } else {
                k += 1;
            }
        }
        self.last_sweep_ns = self.now();
        self.records.len() - before
    }

    /// Sweeps until `target_ns`, sleeping between sweeps; with nothing in
    /// flight it sleeps straight to the target.
    fn wait_until(&mut self, target_ns: u64) {
        loop {
            let now = self.now();
            if now.saturating_sub(self.last_sweep_ns) >= POLL.as_nanos() as u64 {
                self.sweep();
            }
            let now = self.now();
            if now >= target_ns {
                return;
            }
            let nap = if self.outstanding.is_empty() {
                target_ns - now
            } else {
                (target_ns - now).min(POLL.as_nanos() as u64)
            };
            std::thread::sleep(Duration::from_nanos(nap));
        }
    }

    /// Sweeps until nothing is in flight; fails if tickets stay unresolved
    /// for [`DRAIN_LIMIT`].
    fn drain(mut self) -> BoxResult<Vec<Record>> {
        let start = self.now();
        while !self.outstanding.is_empty() {
            if self.sweep() == 0 {
                if self.now().saturating_sub(start) > DRAIN_LIMIT.as_nanos() as u64 {
                    return Err(format!(
                        "{} tickets never resolved after the last send",
                        self.outstanding.len()
                    )
                    .into());
                }
                std::thread::sleep(POLL);
            }
        }
        // Unstable: indices are unique, and the in-place sort allocates nothing.
        self.records.sort_unstable_by_key(|r| r.index);
        Ok(self.records)
    }
}

/// Sends requests open loop at the `schedule`d times (nanoseconds after the
/// phase starts) from one thread that also sweeps for completions while it
/// waits for the next send.  `input(i)` builds request `i`'s input before the
/// request falls due, so building it adds no send lag.  Returns the records
/// sorted by index.
pub fn open_loop(
    server: &Server,
    schedule: &[u64],
    input: &dyn Fn(usize) -> Tensor,
) -> BoxResult<Vec<Record>> {
    let mut client = Client::new(server, schedule.len());
    for (index, &due_ns) in schedule.iter().enumerate() {
        let request = input(index);
        client.wait_until(due_ns);
        let sent_ns = client.now();
        match client.server.try_submit(request) {
            Ok(ticket) => client.outstanding.push(Pending {
                index,
                due_ns,
                sent_ns,
                ticket,
            }),
            Err(error) => client.records.push(Record {
                index,
                due_ns,
                sent_ns,
                done_ns: sent_ns,
                outcome: refused(error)?,
            }),
        }
    }
    client.drain()
}

/// Runs a closed loop for `duration`, keeping `window` requests outstanding.
/// Requests are numbered in send order.  Returns the records sorted by index.
pub fn closed_loop(
    server: &Server,
    window: usize,
    duration: Duration,
    input: &dyn Fn(usize) -> Tensor,
) -> BoxResult<Vec<Record>> {
    let end_ns = u64::try_from(duration.as_nanos())?;
    // Room for 10k verdicts per second, above what the closed workload serves.
    let expected = usize::try_from(duration.as_secs().saturating_mul(10_000))?;
    let mut client = Client::new(server, expected);
    let mut next = 0usize;
    while client.now() < end_ns {
        while client.outstanding.len() < window {
            let request = input(next);
            let sent_ns = client.now();
            let ticket = client.server.submit(request)?;
            client.outstanding.push(Pending {
                index: next,
                due_ns: sent_ns,
                sent_ns,
                ticket,
            });
            next += 1;
        }
        if client.sweep() == 0 {
            std::thread::sleep(POLL);
        }
    }
    client.drain()
}
