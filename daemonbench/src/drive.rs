//! The load generator: one connection, a writer (the calling thread)
//! and a reader thread, a fixed number of operations in flight, every
//! reply checked byte for byte.
//!
//! An operation is one or more request lines written back to back; its
//! latency runs from the write that carries its first byte to reading
//! its last reply line. The reader drains replies as they arrive,
//! because the daemon's writer sleeps whenever the socket would block.
//! Operations are taken from a pool in order, in whole passes, until the
//! run has lasted at least the requested time and timed enough
//! operations; a pass is never cut short, so every run of a seed sees
//! the same mix. Between batches the writer also samples the host's CPU
//! counters, so wall-clock times can be corrected for stolen time; two
//! threads stay within the two-core machines this runs on.

use crate::procfs::{self, HostCpu};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the writer samples the host's CPU counters.
const HOST_SAMPLE_PERIOD: Duration = Duration::from_millis(250);

/// What one reply line must be.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Exactly these bytes (no newline).
    Exact(Arc<[u8]>),
    /// A watch answer: `head` (the envelope and the `RidResult` object
    /// without its closing brace), then the session's delta count, the
    /// daemon's own `dirty_components` count and `full_recompute` flag.
    WatchAnswer {
        /// Everything up to the session fields.
        head: Arc<[u8]>,
        /// The session's delta count at this answer.
        deltas: u64,
    },
}

impl Reply {
    /// Whether `line` satisfies this expectation.
    pub fn matches(&self, line: &[u8]) -> bool {
        match self {
            Reply::Exact(bytes) => line == &bytes[..],
            Reply::WatchAnswer { head, deltas } => line
                .strip_prefix(&head[..])
                .and_then(|rest| rest.strip_prefix(format!(",\"deltas\":{deltas}").as_bytes()))
                .and_then(|rest| rest.strip_prefix(b",\"dirty_components\":"))
                .map(|rest| {
                    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
                    let rest = &rest[digits..];
                    digits > 0
                        && (rest == b",\"full_recompute\":true}}"
                            || rest == b",\"full_recompute\":false}}")
                })
                .unwrap_or(false),
        }
    }
}

/// One operation of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    /// All request lines, each ending in a newline.
    pub request: Arc<[u8]>,
    /// One expectation per request line, in order.
    pub replies: Vec<Reply>,
    /// Untimed operations (a watch session reopen between outbreaks)
    /// are checked but neither timed nor counted as attempted.
    pub timed: bool,
}

/// When to stop issuing passes.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Run at least this long.
    pub min_wall: Duration,
    /// Time at least this many operations.
    pub min_ops: usize,
    /// Stop starting passes after this long, whatever else holds.
    pub max_wall: Duration,
}

/// Everything one drive observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency of every timed operation, in ns, in completion order.
    pub latencies_ns: Vec<u64>,
    /// When each of those operations completed, in ns since the start.
    pub ends_ns: Vec<u64>,
    /// Host CPU counters sampled through the drive: (ns since the start,
    /// counters), first and last included.
    pub host_samples: Vec<(u64, HostCpu)>,
    /// Timed operations issued.
    pub attempted: u64,
    /// Timed operations with any wrong, refused or missing reply.
    pub failed: u64,
    /// Replies (timed or not) whose bytes differ from the oracle's.
    pub wrong: u64,
    /// Replies refused with `overloaded` or `deadline_exceeded`.
    pub refused: u64,
    /// Untimed operations completed.
    pub untimed: u64,
    /// Request bytes of timed operations.
    pub bytes_sent: u64,
    /// Reply bytes of timed operations, newlines included.
    pub bytes_received: u64,
    /// Whole passes over the pool.
    pub passes: u64,
    /// Wall time from the first write to the last reply.
    pub wall: Duration,
    /// The first few mismatching replies, for the log.
    pub mismatches: Vec<String>,
    /// Set when the connection failed mid-run.
    pub transport_error: Option<String>,
}

fn is_refusal(line: &[u8]) -> bool {
    let text = String::from_utf8_lossy(line);
    text.contains("\"ok\":false")
        && (text.contains("\"overloaded\"") || text.contains("\"deadline_exceeded\""))
}

/// Drives `pool` over `stream` with up to `window` operations in flight.
pub fn drive(stream: &TcpStream, pool: &[Op], window: usize, budget: Budget) -> Outcome {
    assert!(window >= 1 && !pool.is_empty());
    assert!(
        pool.iter().any(|op| op.timed),
        "a pool needs timed operations"
    );
    let mut writer = stream
        .try_clone()
        .expect("clone the connection for writing");
    let reader_stream = stream
        .try_clone()
        .expect("clone the connection for reading");
    // A daemon that stops answering fails the run instead of hanging it.
    reader_stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set a read timeout");
    // Slots are refilled in batches of half the window, each batch in one
    // write and one message each way, so the generator's own cost per
    // request stays small next to the daemon's.
    let refill = (window / 2).max(1);
    // Batches issued: (first pool index, operations, time written).
    let (issued_tx, issued_rx) = mpsc::channel::<(usize, usize, Instant)>();
    // Operations completed since the last message, `refill` at a time.
    let (done_tx, done_rx) = mpsc::channel::<usize>();
    let started = Instant::now();
    std::thread::scope(|scope| {
        let reader = scope
            .spawn(move || read_replies(reader_stream, pool, started, refill, &issued_rx, done_tx));
        let mut in_flight = 0usize;
        let mut timed_issued = 0usize;
        let mut passes = 0u64;
        let mut write_error = None;
        let mut batch = Vec::new();
        let mut host_samples = Vec::new();
        'passes: loop {
            let mut next = 0;
            while next < pool.len() {
                while in_flight > window - refill {
                    match done_rx.recv() {
                        Ok(completed) => in_flight -= completed,
                        Err(_) => break 'passes, // the reader stopped
                    }
                }
                sample_host(started, &mut host_samples);
                let ops = &pool[next..pool.len().min(next + window - in_flight)];
                if issued_tx.send((next, ops.len(), Instant::now())).is_err() {
                    break 'passes;
                }
                let bytes = match ops {
                    [op] => &op.request[..],
                    _ => {
                        batch.clear();
                        for op in ops {
                            batch.extend_from_slice(&op.request);
                        }
                        &batch[..]
                    }
                };
                if let Err(e) = writer.write_all(bytes) {
                    write_error = Some(format!("write failed: {e}"));
                    break 'passes;
                }
                in_flight += ops.len();
                timed_issued += ops.iter().filter(|op| op.timed).count();
                next += ops.len();
            }
            passes += 1;
            let elapsed = started.elapsed();
            if (elapsed >= budget.min_wall && timed_issued >= budget.min_ops)
                || elapsed >= budget.max_wall
            {
                break;
            }
        }
        drop(issued_tx);
        let mut outcome = reader.join().expect("reader thread panicked");
        if let Ok(cpu) = procfs::host_cpu() {
            host_samples.push((ns_since(started, Instant::now()), cpu));
        }
        outcome.host_samples = host_samples;
        outcome.passes = passes;
        outcome.wall = started.elapsed();
        if outcome.transport_error.is_none() {
            outcome.transport_error = write_error;
        }
        outcome
    })
}

fn ns_since(start: Instant, at: Instant) -> u64 {
    u64::try_from((at - start).as_nanos()).expect("a drive lasts less than 584 years")
}

/// Appends a sample of the host's CPU counters when the last one is
/// older than `HOST_SAMPLE_PERIOD` (or there is none yet).
fn sample_host(started: Instant, samples: &mut Vec<(u64, HostCpu)>) {
    let now = ns_since(started, Instant::now());
    let due = samples
        .last()
        .is_none_or(|&(at, _)| now - at >= HOST_SAMPLE_PERIOD.as_nanos() as u64);
    if due {
        if let Ok(cpu) = procfs::host_cpu() {
            samples.push((now, cpu));
        }
    }
}

fn read_replies(
    stream: TcpStream,
    pool: &[Op],
    started: Instant,
    refill: usize,
    issued: &mpsc::Receiver<(usize, usize, Instant)>,
    done: mpsc::Sender<usize>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut reader = BufReader::with_capacity(1 << 20, stream);
    let mut line = Vec::with_capacity(1 << 16);
    let mut unreported = 0usize;
    'batches: while let Ok((first, count, sent)) = issued.recv() {
        for index in first..first + count {
            let op = &pool[index];
            let mut ok = true;
            let mut received = 0u64;
            let last = op.replies.len() - 1;
            let mut finished = None;
            for (i, expected) in op.replies.iter().enumerate() {
                line.clear();
                match reader.read_until(b'\n', &mut line) {
                    Ok(n) if n > 0 && line.last() == Some(&b'\n') => {}
                    Ok(_) => {
                        out.transport_error = Some("daemon closed the connection".to_owned());
                        break;
                    }
                    Err(e) => {
                        out.transport_error = Some(format!("read failed: {e}"));
                        break;
                    }
                }
                if i == last {
                    finished = Some(Instant::now());
                }
                received += line.len() as u64;
                line.pop();
                if !expected.matches(&line) {
                    ok = false;
                    if is_refusal(&line) {
                        out.refused += 1;
                    } else {
                        out.wrong += 1;
                        if out.mismatches.len() < 3 {
                            let shown = String::from_utf8_lossy(&line[..line.len().min(300)]);
                            out.mismatches
                                .push(format!("op {index} reply {i}: {shown}"));
                        }
                    }
                }
            }
            if op.timed {
                out.attempted += 1;
                out.bytes_sent += op.request.len() as u64;
                out.bytes_received += received;
                match finished {
                    Some(end) if ok => {
                        out.latencies_ns.push(ns_since(sent, end));
                        out.ends_ns.push(ns_since(started, end));
                    }
                    _ => out.failed += 1,
                }
            } else if finished.is_some() {
                out.untimed += 1;
            }
            if out.transport_error.is_some() {
                // Unblock the writer, then count everything still in
                // flight as missing.
                drop(done);
                let rest = (index + 1..first + count).map(|i| &pool[i]);
                let later = issued
                    .iter()
                    .flat_map(|(first, count, _)| pool[first..first + count].iter());
                for op in rest.chain(later) {
                    if op.timed {
                        out.attempted += 1;
                        out.failed += 1;
                    }
                }
                break 'batches;
            }
            unreported += 1;
            if unreported == refill {
                if done.send(unreported).is_err() {
                    break 'batches;
                }
                unreported = 0;
            }
        }
    }
    out
}

/// Reads one reply line per request line of `op` on a plain blocking
/// connection and checks them: used for set-up traffic outside the
/// timed phase.
pub fn run_untimed(stream: &TcpStream, op: &Op) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    writer.write_all(&op.request)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = Vec::new();
    for (i, expected) in op.replies.iter().enumerate() {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        line.pop();
        if !expected.matches(&line) {
            return Err(io::Error::other(format!(
                "set-up reply {i} differs from the oracle: {}",
                String::from_utf8_lossy(&line[..line.len().min(300)])
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_answers_check_every_byte_but_the_daemon_counters() {
        let reply = Reply::WatchAnswer {
            head: Arc::from(&b"{\"id\":5,\"ok\":true,\"result\":{\"config\":{}"[..]),
            deltas: 128,
        };
        let good = b"{\"id\":5,\"ok\":true,\"result\":{\"config\":{},\"deltas\":128,\
                     \"dirty_components\":3,\"full_recompute\":true}}";
        assert!(reply.matches(good));
        let good = b"{\"id\":5,\"ok\":true,\"result\":{\"config\":{},\"deltas\":128,\
                     \"dirty_components\":0,\"full_recompute\":false}}";
        assert!(reply.matches(good));
        for bad in [
            &b"{\"id\":5,\"ok\":true,\"result\":{\"config\":{},\"deltas\":127,\
               \"dirty_components\":3,\"full_recompute\":true}}"[..],
            b"{\"id\":5,\"ok\":true,\"result\":{\"config\":{},\"deltas\":128,\
               \"dirty_components\":,\"full_recompute\":true}}",
            b"{\"id\":5,\"ok\":true,\"result\":{\"config\":{},\"deltas\":128,\
               \"dirty_components\":3,\"full_recompute\":true}}x",
            b"{\"id\":6,\"ok\":true,\"result\":{\"config\":{},\"deltas\":128,\
               \"dirty_components\":3,\"full_recompute\":true}}",
        ] {
            assert!(!reply.matches(bad), "{}", String::from_utf8_lossy(bad));
        }
        assert!(Reply::Exact(Arc::from(&b"abc"[..])).matches(b"abc"));
        assert!(!Reply::Exact(Arc::from(&b"abc"[..])).matches(b"abd"));
    }

    #[test]
    fn refusals_are_told_apart_from_wrong_answers() {
        assert!(is_refusal(
            b"{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"overloaded\",\"message\":\"x\"}}"
        ));
        assert!(!is_refusal(
            b"{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"bad_request\",\"message\":\"x\"}}"
        ));
    }
}
