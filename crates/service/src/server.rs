//! The sharded, event-driven TCP daemon.
//!
//! Threading model (one thread per shard plus one io thread, no
//! thread-per-connection):
//!
//! * **the io thread** owns the nonblocking listener and every
//!   connection. It polls the listener and sweeps its connections for
//!   readable data, splits complete lines (resuming each newline search
//!   where the last sweep stopped), walks each line once
//!   ([`crate::framing`]), and routes. A full-form `rid` is only hashed
//!   and routed: its owned line and span offsets go to the owning
//!   shard, whose worker decodes it. Every other line is decoded from
//!   its spans. `health` / `stats` / `shutdown` are answered inline
//!   (they must stay responsive under load), and so are by-fingerprint
//!   `rid` requests that hit a shard's serialized-result cache; the
//!   other verbs are enqueued on their owning shard. Every job's clock
//!   starts when its line is complete, before any decode. There is no
//!   separate accept thread to poke at shutdown.
//!   When a full sweep makes no progress the thread backs off (50 µs
//!   doubling to 500 µs) instead of spinning — the workspace forbids
//!   `unsafe`, so there is no `poll(2)`/`epoll` registration; readiness
//!   is observed by attempting the reads.
//! * **replies** go into their connection's outbox in completion order,
//!   whichever thread made them, and are written without ever waiting
//!   on the socket. The io thread appends a connection's inline replies
//!   as it serves its lines and writes them in one flush at the end of
//!   that connection's sweep; a shard worker appends its reply and
//!   writes what the socket takes at once. Bytes the socket refuses
//!   wait for a later sweep. An outbox holding [`OUTBOX_CAP`] bytes
//!   stops the reading of its connection, and one whose backlog has not
//!   moved for the request timeout is closed.
//! * **reads** are bounded too: a connection is read only when every
//!   line it sent has been served, and an unfinished line past
//!   [`MAX_LINE_BYTES`] is answered once with `request_too_large` and
//!   its connection closed, so a client that never sends a newline
//!   cannot grow the daemon.
//! * **shards** are independent serving units: each owns a
//!   [`RidEngine`] sibling (shared network, private artifact cache,
//!   private registry), a bounded admission queue, a serialized-result
//!   cache, and exactly one worker thread. A `rid` request's snapshot
//!   is fingerprinted once, on the io thread (over the raw snapshot
//!   span, so no decode is needed); that one key picks the
//!   shard (rendezvous hashing), keys the shard's artifact cache and
//!   keys its result cache. One snapshot's traffic therefore always
//!   lands on the same shard — its caches stay hot and shards never
//!   contend on a lock. A full shard queue is answered immediately with
//!   a structured `overloaded` error while the other shards keep
//!   serving.
//! * **watch sessions** are pinned to the shard chosen at `watch_open`;
//!   the per-shard queue is FIFO and the worker is single-threaded, so
//!   the delta stream applies in order and the `IncrementalRid` state
//!   never migrates. Session deadlines are enforced on the io thread
//!   (which owns the connection and its `opened` clock) on every sweep,
//!   so an idle session's admission slot comes back at its deadline and
//!   an expired session can be reopened on the same connection
//!   immediately.
//!
//! Shutdown (via the protocol `shutdown` request or
//! [`Server::trigger_shutdown`]) closes every shard queue: queued work
//! drains, new work is refused with `shutting_down`, and the io thread
//! exits once the last worker finishes and every outbox is written or
//! its connection closed. There is no signal handler —
//! `unsafe` (and thus libc) is forbidden workspace-wide — so process
//! supervisors should send the protocol `shutdown` request; SIGTERM
//! still works, just without the drain.

use crate::cache::{CacheMetrics, LruCache};
use crate::engine::{EngineStats, RidEngine};
use crate::fingerprint::fingerprint_bytes;
use crate::framing::{self, Fields};
use crate::protocol::{
    decode_framed_rid, decode_request, error_line, invalid_json, ok_line, ok_line_raw,
    parse_request, ErrorKind, Request, RequestBody, RidParts, WireError, PROTOCOL_VERSION,
};
use crate::queue::{BoundedQueue, PushError, QueueMetrics};
use isomit_core::{IncrementalRid, RidConfig, RidDelta, RidError};
use isomit_diffusion::SeedSet;
use isomit_graph::json::Value;
use isomit_telemetry::{names, Counter, Gauge, Histogram, Registry, Stopwatch};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Independent engine shards, each with its own artifact cache,
    /// result cache, admission queue and worker thread. Requests route
    /// to shards by rendezvous hashing on the snapshot fingerprint.
    pub shards: usize,
    /// Bounded admission-queue capacity **per shard**; beyond it that
    /// shard's requests get `overloaded` while other shards keep
    /// serving.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from arrival; jobs still queued
    /// past it are answered with `deadline_exceeded` instead of
    /// computed. Also bounds a watch session's lifetime, measured from
    /// `watch_open`: an open session is ended at its deadline even when
    /// no further request arrives on its connection.
    pub request_timeout: Duration,
    /// Concurrent watch sessions admitted across all connections;
    /// beyond it `watch_open` is answered with `overloaded`.
    pub max_watch_sessions: usize,
    /// Serialized-result cache entries **per shard**, serving the
    /// by-fingerprint `rid` fast path.
    pub result_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(30),
            max_watch_sessions: 4,
            result_cache_capacity: 512,
        }
    }
}

/// Lines one connection may have processed per io sweep, bounding how
/// long a pipelining client can monopolize the io thread.
pub const MAX_LINES_PER_SWEEP: usize = 128;

/// Reply bytes a connection's outbox may hold before the io thread stops
/// reading that connection, so a client that does not read its replies
/// meets TCP backpressure instead of growing the daemon. The outbox can
/// pass it by one sweep's inline replies ([`MAX_LINES_PER_SWEEP`]) plus
/// the replies of that connection's jobs already queued.
pub const OUTBOX_CAP: usize = 1 << 20;

/// Bytes an unfinished request line may reach before the daemon answers
/// `request_too_large` and closes its connection. It sits far above the
/// snapshots clients send (the benchmark's cold `rid` lines are about
/// 170 KB) and bounds what one connection's read buffer holds: one
/// line plus one read.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Backoff window of an idle io sweep.
const MIN_BACKOFF: Duration = Duration::from_micros(50);
const MAX_BACKOFF: Duration = Duration::from_micros(500);

/// One accepted connection. The io thread is the only reader; every
/// reply, from the io thread or a shard worker, goes through `outbox`.
#[derive(Debug)]
struct Conn {
    id: u64,
    stream: TcpStream,
    outbox: Mutex<Outbox>,
}

/// A connection's replies the socket has not taken yet, in completion
/// order. Appending never writes and writing never waits, so no thread
/// sleeps on a client that does not read.
#[derive(Debug, Default)]
struct Outbox {
    bytes: Vec<u8>,
    /// Length of the prefix of `bytes` already written.
    written: usize,
    /// Started when the socket refused pending bytes, reset whenever it
    /// takes one: how long the backlog has not moved.
    stalled: Option<Stopwatch>,
    /// The peer is gone or the connection was closed: pending replies
    /// were dropped and later ones are too.
    closed: bool,
}

impl Outbox {
    fn pending(&self) -> &[u8] {
        self.bytes.get(self.written..).unwrap_or_default()
    }

    fn close(&mut self) {
        *self = Outbox {
            closed: true,
            ..Outbox::default()
        };
    }
}

impl Conn {
    fn outbox(&self) -> std::sync::MutexGuard<'_, Outbox> {
        self.outbox.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Reply bytes not yet written.
    fn backlog(&self) -> usize {
        self.outbox().pending().len()
    }

    /// Appends one reply line behind the connection's earlier replies;
    /// the next [`flush`](Conn::flush) writes it.
    fn push(&self, line: &str) {
        let mut outbox = self.outbox();
        if outbox.closed {
            return;
        }
        // Drop the written prefix once it is the larger half, so a
        // backlog written a little at a time is not moved on every push.
        let written = outbox.written;
        if written > 0 && written * 2 >= outbox.bytes.len() {
            outbox.bytes.drain(..written);
            outbox.written = 0;
        }
        outbox.bytes.extend_from_slice(line.as_bytes());
        outbox.bytes.push(b'\n');
    }

    /// Writes what the socket takes now of the outbox, without waiting,
    /// and raises `service.outbox_bytes_max` to the backlog it found.
    /// Closes the connection when the peer is gone or the backlog has
    /// not moved for the request timeout. Returns the bytes written, or
    /// `None` once the connection is closed.
    fn flush(&self, shared: &Shared) -> Option<usize> {
        let mut outbox = self.outbox();
        let backlog = outbox.pending().len();
        if backlog > 0 {
            let backlog = i64::try_from(backlog).unwrap_or(i64::MAX);
            shared.outbox_bytes_max.set_max(backlog);
        }
        let mut wrote = 0;
        while !outbox.closed && !outbox.pending().is_empty() {
            match (&self.stream).write(outbox.pending()) {
                Ok(0) => outbox.close(),
                Ok(n) => {
                    outbox.written += n;
                    outbox.stalled = None;
                    wrote += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let stalled = outbox.stalled.get_or_insert_with(Stopwatch::start);
                    if stalled.elapsed() > shared.timeout {
                        outbox.close();
                        let _ = self.stream.shutdown(Shutdown::Both);
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => outbox.close(),
            }
        }
        if outbox.pending().is_empty() && !outbox.closed {
            outbox.written = 0;
            // A backlog that outgrew the cap gives its memory back.
            if outbox.bytes.capacity() > OUTBOX_CAP {
                outbox.bytes = Vec::new();
            } else {
                outbox.bytes.clear();
            }
        }
        (!outbox.closed).then_some(wrote)
    }

    /// A shard worker's reply: appended, then written as far as the
    /// socket takes it now; the io sweep writes the rest.
    fn reply(&self, line: &str, shared: &Shared) {
        self.push(line);
        let _ = self.flush(shared);
    }
}

/// A queued unit of work plus everything needed to answer it.
struct Job {
    id: u64,
    received: Instant,
    conn: Arc<Conn>,
    work: Work,
}

enum Work {
    /// A full-form `rid`: the owned line and the spans the io thread's
    /// walk found in it, which the worker decodes.
    Rid {
        line: String,
        snapshot: Range<usize>,
        config: Option<Range<usize>>,
        detector: Option<Range<usize>>,
        /// The snapshot span's hash the io thread routed on; it also
        /// keys the shard's artifact and result caches.
        fingerprint: u64,
        /// Result-cache key half of the config and detector spans; the
        /// answer is filed under `(fingerprint, config_key)`.
        config_key: u64,
    },
    Simulate {
        seeds: SeedSet,
        runs: usize,
        seed: u64,
    },
    /// Install a pre-validated watch session for this job's connection.
    WatchOpen {
        session: Box<IncrementalRid>,
        answer_every: u64,
    },
    /// Apply one delta to this connection's pinned session.
    WatchDelta { delta: RidDelta },
    /// Close this connection's session and report its delta count.
    WatchClose,
    /// Drop this connection's session without replying (disconnect or
    /// io-side deadline expiry). Enqueued with `force_push`: cleanup is
    /// never shed.
    WatchCleanup,
}

/// Byte range of `span` within `line`, which it borrows from.
fn range_in(line: &str, span: &str) -> Range<usize> {
    let start = (span.as_ptr() as usize).saturating_sub(line.as_ptr() as usize);
    start..start + span.len()
}

/// One serving shard: a sibling engine (shared network, private
/// caches, and the registry its metrics plus per-shard aliases record
/// into), its bounded admission queue and its serialized-result cache.
struct Shard {
    engine: Arc<RidEngine>,
    queue: BoundedQueue<Job>,
    results: Mutex<LruCache<(u64, u64), Arc<str>>>,
    /// The shard's `service.rid_requests` handle, bumped by the io-side
    /// fast path so cached answers still count as served requests.
    rid_requests: Counter,
}

impl Shard {
    fn lock_results(&self) -> std::sync::MutexGuard<'_, LruCache<(u64, u64), Arc<str>>> {
        self.results.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// State shared by the io thread and shard workers.
struct Shared {
    /// At least one shard; shard 0's engine answers `health` and
    /// supplies the default watch config.
    shards: Vec<Arc<Shard>>,
    shutdown: AtomicBool,
    /// Shard workers still draining; the io thread exits at shutdown
    /// once this reaches zero.
    workers_alive: AtomicUsize,
    addr: SocketAddr,
    timeout: Duration,
    conn_seq: AtomicU64,
    /// End-to-end latency of data-plane jobs and inline cache hits, from
    /// receipt until the reply is in the connection's outbox (a worker
    /// has also written what the socket took).
    request_ns: Histogram,
    /// Time a job spent in its shard's queue before the worker took it.
    queue_wait_ns: Histogram,
    /// Jobs dropped at dequeue because their deadline had passed.
    deadline_exceeded: Counter,
    /// Watch sessions currently open across all connections.
    watch_active: AtomicUsize,
    /// Admission cap on concurrent watch sessions.
    max_watch: usize,
    /// Wall time to apply one watch delta (and answer it, when due).
    watch_delta_ns: Histogram,
    /// Components watch answers recomputed, summed across answers.
    watch_dirty_components: Counter,
    /// Watch answers in which every component was dirty.
    watch_full_recomputes: Counter,
    /// `watch_open` requests rejected by the admission cap.
    watch_shed: Counter,
    /// Largest-minus-smallest per-shard request share, in percent,
    /// refreshed on every `stats` request.
    imbalance_pct: Gauge,
    /// Largest backlog any outbox held when a flush began.
    outbox_bytes_max: Gauge,
    /// Largest read buffer any connection held after a read.
    buffer_bytes_max: Gauge,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("addr", &self.addr)
            .field("timeout", &self.timeout)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`shutdown`](Server::shutdown) (or send the protocol `shutdown`
/// request and then [`join`](Server::join)).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    io_thread: JoinHandle<()>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// io thread and one worker per shard.
    ///
    /// `engine` becomes shard 0 and its registry the primary registry
    /// carrying the server-level histograms; shards 1..N are
    /// [`RidEngine::shard_clone`] siblings with their own registries.
    ///
    /// # Errors
    ///
    /// Returns any [`std::io::Error`] from binding the listener.
    pub fn start(
        engine: Arc<RidEngine>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shard_count = config.shards.max(1);
        let shards: Vec<Arc<Shard>> = (0..shard_count)
            .map(|i| {
                let shard_engine = if i == 0 {
                    Arc::clone(&engine)
                } else {
                    Arc::new(engine.shard_clone(Arc::new(Registry::new())))
                };
                let registry = shard_engine.registry();
                // Per-shard aliases: the same atomics show up both under
                // the fleet-wide service.* names (summed across shards on
                // merge) and under shard.<i>.* for attribution.
                registry.alias_counter(
                    &names::shard_cache_hits(i),
                    &registry.counter(names::SERVICE_CACHE_HITS),
                );
                registry.alias_counter(
                    &names::shard_requests(i),
                    &registry.counter(names::SERVICE_RID_REQUESTS),
                );
                let queue = BoundedQueue::with_metrics(
                    config.queue_capacity,
                    QueueMetrics::registered_for_shard(registry, i),
                );
                let results = Mutex::new(LruCache::with_metrics(
                    config.result_cache_capacity,
                    CacheMetrics::registered_for_results(registry),
                ));
                let rid_requests = registry.counter(names::SERVICE_RID_REQUESTS);
                Arc::new(Shard {
                    engine: shard_engine,
                    queue,
                    results,
                    rid_requests,
                })
            })
            .collect();

        let primary = engine.registry();
        let shared = Arc::new(Shared {
            shards,
            shutdown: AtomicBool::new(false),
            workers_alive: AtomicUsize::new(shard_count),
            addr: local_addr,
            timeout: config.request_timeout,
            conn_seq: AtomicU64::new(0),
            request_ns: primary.histogram(names::SERVICE_REQUEST_NS),
            queue_wait_ns: primary.histogram(names::SERVICE_QUEUE_WAIT_NS),
            deadline_exceeded: primary.counter(names::SERVICE_DEADLINE_EXCEEDED),
            watch_active: AtomicUsize::new(0),
            max_watch: config.max_watch_sessions,
            watch_delta_ns: primary.histogram(names::WATCH_DELTA_NS),
            watch_dirty_components: primary.counter(names::WATCH_DIRTY_COMPONENTS),
            watch_full_recomputes: primary.counter(names::WATCH_FULL_RECOMPUTE_FALLBACKS),
            watch_shed: primary.counter(names::WATCH_SESSIONS_SHED),
            imbalance_pct: primary.gauge(names::SERVICE_SHARD_IMBALANCE_PCT),
            outbox_bytes_max: primary.gauge(names::SERVICE_OUTBOX_BYTES_MAX),
            buffer_bytes_max: primary.gauge(names::CONN_BUFFER_BYTES_MAX),
        });

        let worker_threads = shared
            .shards
            .iter()
            .map(|shard| {
                let shard = Arc::clone(shard);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shard, &shared))
            })
            .collect();

        let io_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || io_loop(&shared, &listener))
        };

        Ok(Server {
            shared,
            io_thread,
            worker_threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begins graceful shutdown: stop accepting, refuse new work, let
    /// queued and in-flight work finish. Idempotent; returns
    /// immediately — follow with [`join`](Server::join) to wait.
    pub fn trigger_shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Waits for the io thread and all shard workers to finish. Call
    /// after [`trigger_shutdown`](Server::trigger_shutdown) or once a
    /// client has sent the protocol `shutdown` request.
    pub fn join(self) {
        // A panicked thread already wrote its poison; nothing useful to
        // do beyond surfacing the panic payloads to the caller's logs.
        for worker in self.worker_threads {
            let _ = worker.join();
        }
        let _ = self.io_thread.join();
    }

    /// [`trigger_shutdown`](Server::trigger_shutdown) then
    /// [`join`](Server::join).
    pub fn shutdown(self) {
        self.trigger_shutdown();
        self.join();
    }
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    for shard in &shared.shards {
        shard.queue.close();
    }
    // The io thread polls the flag each sweep; no wake-up poke needed.
}

/// The shard index (out of `shards`) that requests for snapshot
/// fingerprint `fp` route to. This is exactly the io thread's routing
/// function, exposed so tests and capacity tooling can predict
/// placement.
pub fn shard_for_fingerprint(fp: u64, shards: usize) -> usize {
    rendezvous(fp, shards.max(1))
}

/// Rendezvous (highest-random-weight) shard choice: every key ranks all
/// shards by a mixed hash and takes the best, so keys spread evenly and
/// one key always lands on the same shard.
fn rendezvous(key: u64, shards: usize) -> usize {
    let mut best = 0usize;
    let mut best_score = 0u64;
    for i in 0..shards {
        let mut bytes = [0u8; 16];
        let (key_half, index_half) = bytes.split_at_mut(8);
        key_half.copy_from_slice(&key.to_le_bytes());
        index_half.copy_from_slice(&(i as u64).to_le_bytes());
        let score = fingerprint_bytes(&bytes);
        if i == 0 || score > best_score {
            best = i;
            best_score = score;
        }
    }
    best
}

/// Result-cache key half covering the request's `config` and `detector`
/// spans (raw bytes, `0xFF`-separated — a byte no JSON span contains
/// outside strings, and a fixed frame either way). Canonical clients
/// serialize a given config identically on every request, so the full
/// form primes exactly the key the by-fingerprint form looks up.
fn span_config_key(config: Option<&str>, detector: Option<&str>) -> u64 {
    let mut bytes = Vec::with_capacity(80);
    if let Some(config) = config {
        bytes.extend_from_slice(config.as_bytes());
    }
    bytes.push(0xFF);
    if let Some(detector) = detector {
        bytes.extend_from_slice(detector.as_bytes());
    }
    fingerprint_bytes(&bytes)
}

/// The io thread's record of a connection's watch session.
#[derive(Default)]
enum Watch {
    /// No session.
    #[default]
    Closed,
    /// An open session: the shard that owns its `IncrementalRid` state,
    /// and the deadline clock.
    Open { shard: usize, opened: Stopwatch },
    /// The session outlived the request deadline and its teardown went
    /// to its shard; the next `watch_delta` or `watch_close` is answered
    /// `deadline_exceeded`.
    Expired,
}

/// Per-connection io-thread state.
struct ConnState {
    conn: Arc<Conn>,
    lines: LineBuffer,
    watch: Watch,
    /// Cleared once no further line can be served (EOF, or an
    /// undecodable line): the connection is then released when every
    /// reply owed to it is written.
    open: bool,
}

/// A connection's bytes read but not yet framed into complete lines.
#[derive(Debug, Default)]
struct LineBuffer {
    bytes: Vec<u8>,
    /// Length of the prefix of `bytes` already searched for a newline
    /// without finding one, so a line arriving over many reads is
    /// searched once.
    searched: usize,
}

impl LineBuffer {
    /// The next complete line at or after `*cursor`, without its
    /// newline; moves the cursor past it.
    fn next_line(&mut self, cursor: &mut usize) -> Option<Range<usize>> {
        let from = (*cursor).max(self.searched);
        let rest = self.bytes.get(from..).unwrap_or_default();
        let Some(newline) = rest.iter().position(|&b| b == b'\n') else {
            self.searched = self.bytes.len();
            return None;
        };
        let line = *cursor..from + newline;
        *cursor = from + newline + 1;
        Some(line)
    }

    /// Drops the bytes before `cursor`, in place: a line still arriving
    /// is not copied again on every sweep.
    fn consume(&mut self, cursor: usize) {
        self.bytes.drain(..cursor);
        self.searched = self.searched.saturating_sub(cursor);
    }
}

enum Pump {
    /// Nothing read, served or written.
    Idle,
    /// Read bytes, served lines or wrote replies this sweep.
    Progress,
    /// Closed, or done with nothing left to write; release it.
    Closed,
}

fn io_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut conns: Vec<ConnState> = Vec::new();
    let mut backoff = MIN_BACKOFF;
    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        if draining
            && shared.workers_alive.load(Ordering::SeqCst) == 0
            && conns.iter().all(|state| state.conn.backlog() == 0)
        {
            break;
        }
        let mut progress = false;
        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progress = true;
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Replies are single small lines; without
                        // nodelay, Nagle + the client's delayed ACK put
                        // a ~40ms floor under every round trip.
                        let _ = stream.set_nodelay(true);
                        conns.push(ConnState {
                            conn: Arc::new(Conn {
                                id: shared.conn_seq.fetch_add(1, Ordering::Relaxed),
                                stream,
                                outbox: Mutex::default(),
                            }),
                            lines: LineBuffer::default(),
                            watch: Watch::Closed,
                            open: true,
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }
        let mut i = 0;
        while let Some(state) = conns.get_mut(i) {
            match pump_conn(state, shared) {
                Pump::Idle => i += 1,
                Pump::Progress => {
                    progress = true;
                    i += 1;
                }
                Pump::Closed => {
                    let state = conns.swap_remove(i);
                    release_watch(&state.conn, state.watch, shared);
                    progress = true;
                }
            }
        }
        if progress {
            backoff = MIN_BACKOFF;
        } else {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
    }
}

/// Frees a disconnected (or expired) connection's watch slot by handing
/// session teardown to the owning shard (cleanup jobs are never shed).
/// If the shard's queue already closed at shutdown, the session stays in
/// the worker's map and the drain-end sweep returns its slot instead.
fn release_watch(conn: &Arc<Conn>, watch: Watch, shared: &Arc<Shared>) {
    let Watch::Open { shard, .. } = watch else {
        return;
    };
    let job = Job {
        id: 0,
        // lint:allow(telemetry) arrival timestamp for deadline math; the derived latencies go through registry histograms
        received: Instant::now(),
        conn: Arc::clone(conn),
        work: Work::WatchCleanup,
    };
    if let Some(shard) = shared.shards.get(shard) {
        let _ = shard.queue.force_push(job);
    }
}

/// Ends the connection's watch session once it has been open longer
/// than the request deadline, whether or not the client is still
/// sending: its teardown goes to the owning shard, which frees its
/// admission slot, and the connection remembers the expiry for its next
/// watch request.
fn expire_watch(conn: &Arc<Conn>, watch: &mut Watch, shared: &Arc<Shared>) {
    if matches!(watch, Watch::Open { opened, .. } if opened.elapsed() > shared.timeout) {
        release_watch(conn, std::mem::replace(watch, Watch::Expired), shared);
    }
}

/// One sweep of a connection: one read and bounded line processing
/// while its outbox is under [`OUTBOX_CAP`], then one flush.
fn pump_conn(state: &mut ConnState, shared: &Arc<Shared>) -> Pump {
    expire_watch(&state.conn, &mut state.watch, shared);
    // A connection whose replies back up past the cap is not read, so
    // TCP backpressure reaches a client that does not read them.
    let mut progress = false;
    if state.open && state.conn.backlog() < OUTBOX_CAP {
        progress = serve_lines(state, shared);
    }
    if !state.open {
        release_watch(&state.conn, std::mem::take(&mut state.watch), shared);
    }
    match state.conn.flush(shared) {
        None => return Pump::Closed,
        Some(wrote) => progress |= wrote > 0,
    }
    // Done once nothing more can be read, no queued job holds the
    // connection (so no reply can still arrive) and every reply is out.
    if !state.open && Arc::strong_count(&state.conn) == 1 && state.conn.backlog() == 0 {
        return Pump::Closed;
    }
    if progress {
        Pump::Progress
    } else {
        Pump::Idle
    }
}

/// Reads once, unless earlier reads still hold unserved lines, and
/// serves up to [`MAX_LINES_PER_SWEEP`] complete lines; refuses an
/// unfinished line past [`MAX_LINE_BYTES`]. Returns whether it read or
/// served anything.
fn serve_lines(state: &mut ConnState, shared: &Arc<Shared>) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    let mut read_any = false;
    let mut eof = false;
    // Every byte already read was searched for a newline: no complete
    // line waits, so a read cannot pile up lines the sweeps are behind on.
    if state.lines.searched == state.lines.bytes.len() {
        match (&state.conn.stream).read(&mut chunk) {
            Ok(0) => eof = true,
            Ok(n) => {
                state
                    .lines
                    .bytes
                    .extend_from_slice(chunk.get(..n).unwrap_or_default());
                read_any = true;
                let held = i64::try_from(state.lines.bytes.len()).unwrap_or(i64::MAX);
                shared.buffer_bytes_max.set_max(held);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => eof = true,
        }
    }

    let mut cursor = 0usize;
    let mut processed = 0usize;
    while processed < MAX_LINES_PER_SWEEP {
        let Some(range) = state.lines.next_line(&mut cursor) else {
            break;
        };
        // The line is complete: its request's clock starts here, before
        // any decode.
        // lint:allow(telemetry) arrival timestamp for deadline math; the derived latencies go through registry histograms
        let received = Instant::now();
        let raw = state.lines.bytes.get(range).unwrap_or_default();
        let Ok(text) = std::str::from_utf8(raw) else {
            // Matches the old line-reader: undecodable input ends the
            // connection rather than guessing at a reply.
            state.open = false;
            break;
        };
        let line = text.trim();
        if line.is_empty() {
            continue;
        }
        processed += 1;
        handle_line(line, received, &state.conn, &mut state.watch, shared);
    }
    state.lines.consume(cursor);

    // What is left after a search that found no newline is one unfinished
    // line; past the cap it is refused, and the connection closes once
    // the reply is written.
    if state.open
        && state.lines.searched == state.lines.bytes.len()
        && state.lines.bytes.len() > MAX_LINE_BYTES
    {
        let error = WireError::new(
            ErrorKind::RequestTooLarge,
            format!("request line passed {MAX_LINE_BYTES} bytes without a newline"),
        );
        state.conn.push(&error_line(None, &error));
        state.lines = LineBuffer::default();
        state.open = false;
    }

    if eof && processed == 0 {
        // The peer is gone and no further line can complete (anything
        // left in the buffer has no trailing newline). Buffered complete
        // lines were served on earlier iterations of this sweep or on
        // previous sweeps, matching the old line-reader's EOF behavior.
        state.open = false;
    }
    read_any || processed > 0
}

/// Serves one request line.
fn handle_line(
    line: &str,
    received: Instant,
    conn: &Arc<Conn>,
    watch: &mut Watch,
    shared: &Arc<Shared>,
) {
    // The line's one walk leaves the snapshot span unchecked; when it
    // fails, the checked walk names the error the parser names.
    let fields = match framing::walk(line, false).or_else(|_| framing::walk(line, true)) {
        Ok(fields) => fields,
        Err(error) => {
            let (id, error) = invalid_json(&error);
            return conn.push(&error_line(id, &error));
        }
    };
    let request = match (fields.id, fields.fingerprint, fields.snapshot) {
        // Full form: hash the span, route, and leave the decode to the
        // shard worker.
        (Some(id), None, Some(snapshot)) if fields.verb.as_deref() == Some("rid") => {
            let fingerprint = fingerprint_bytes(snapshot.as_bytes());
            let job = Job {
                id,
                received,
                conn: Arc::clone(conn),
                work: Work::Rid {
                    line: line.to_owned(),
                    snapshot: range_in(line, snapshot),
                    config: fields.config.map(|span| range_in(line, span)),
                    detector: fields.detector.map(|span| range_in(line, span)),
                    fingerprint,
                    config_key: span_config_key(fields.config, fields.detector),
                },
            };
            return enqueue(
                rendezvous(fingerprint, shared.shards.len()),
                job,
                conn,
                shared,
            );
        }
        // The parser reads the snapshot span the walk left unchecked.
        (_, _, Some(_)) => parse_request(line),
        (_, _, None) => decode_request(&fields),
    };
    match request {
        Ok(request) => serve_request(request, &fields, received, conn, watch, shared),
        Err((id, error)) => conn.push(&error_line(id, &error)),
    }
}

/// Handles one decoded request.
fn serve_request(
    request: Request,
    fields: &Fields<'_>,
    received: Instant,
    conn: &Arc<Conn>,
    watch: &mut Watch,
    shared: &Arc<Shared>,
) {
    let Request { id, body } = request;
    match body {
        // Control-plane requests bypass the queues so they stay
        // responsive (and observable) even when the data plane is
        // saturated.
        RequestBody::Health => {
            let graph = shard_at(shared, 0).engine.graph();
            let result = Value::Object(vec![
                ("status".into(), Value::String("ok".into())),
                ("version".into(), Value::String(PROTOCOL_VERSION.into())),
                ("nodes".into(), Value::Number(graph.node_count() as f64)),
                ("edges".into(), Value::Number(graph.edge_count() as f64)),
            ]);
            conn.push(&ok_line(id, result));
        }
        RequestBody::Stats => conn.push(&ok_line(id, stats_payload(shared))),
        RequestBody::Shutdown => {
            conn.push(&ok_line(
                id,
                Value::Object(vec![("stopping".into(), Value::Bool(true))]),
            ));
            trigger_shutdown(shared);
        }
        RequestBody::Rid { .. } => {
            unreachable!("`handle_line` routes full-form rid lines undecoded")
        }
        RequestBody::RidByFingerprint { fingerprint, .. } => {
            // Answered inline from the owning shard's result cache,
            // keyed like the full form that primed it. A line that also
            // carries a snapshot is answered `unknown_snapshot`, as the
            // protocol documents for it.
            let shard = shard_at(shared, rendezvous(fingerprint, shared.shards.len()));
            let key = (fingerprint, span_config_key(fields.config, fields.detector));
            let hit = match fields.snapshot {
                None => shard.lock_results().get(&key),
                Some(_) => None,
            };
            if let Some(payload) = hit {
                shard.rid_requests.inc();
                conn.push(&ok_line_raw(id, &payload));
                shared.request_ns.record_duration(received.elapsed());
                return;
            }
            let error = WireError::new(
                ErrorKind::UnknownSnapshot,
                format!(
                    "no cached answer for snapshot fingerprint {fingerprint}; \
                     resend the full snapshot"
                ),
            );
            conn.push(&error_line(Some(id), &error));
        }
        RequestBody::Simulate { seeds, runs, seed } => {
            // A decoded `simulate` has a seeds span; its hash routes it.
            let fp = fingerprint_bytes(fields.seeds.unwrap_or_default().as_bytes());
            let shard = rendezvous(fp, shared.shards.len());
            enqueue(
                shard,
                Job {
                    id,
                    received,
                    conn: Arc::clone(conn),
                    work: Work::Simulate { seeds, runs, seed },
                },
                conn,
                shared,
            )
        }
        RequestBody::WatchOpen {
            config,
            answer_every,
        } => serve_watch_open(id, config, answer_every, received, conn, watch, shared),
        RequestBody::WatchDelta { delta } => {
            let Some(shard) = pinned_shard(id, conn, watch, shared) else {
                return;
            };
            forward_watch(
                shard,
                Job {
                    id,
                    received,
                    conn: Arc::clone(conn),
                    work: Work::WatchDelta { delta },
                },
                conn,
                shared,
            )
        }
        RequestBody::WatchClose => {
            let Some(shard) = pinned_shard(id, conn, watch, shared) else {
                return;
            };
            *watch = Watch::Closed;
            forward_watch(
                shard,
                Job {
                    id,
                    received,
                    conn: Arc::clone(conn),
                    work: Work::WatchClose,
                },
                conn,
                shared,
            )
        }
    }
}

/// The shard of the connection's open watch session, once
/// [`expire_watch`] has checked its deadline. Without an open session
/// the request is answered here: `deadline_exceeded` once after an
/// expiry (which clears it, so the connection can reopen), else
/// `bad_request`.
fn pinned_shard(
    id: u64,
    conn: &Arc<Conn>,
    watch: &mut Watch,
    shared: &Arc<Shared>,
) -> Option<usize> {
    expire_watch(conn, watch, shared);
    let error = match watch {
        Watch::Open { shard, .. } => return Some(*shard),
        Watch::Closed => WireError::new(
            ErrorKind::BadRequest,
            "no watch session open on this connection; send watch_open first",
        ),
        Watch::Expired => {
            *watch = Watch::Closed;
            WireError::new(
                ErrorKind::DeadlineExceeded,
                format!(
                    "watch session outlived its {:?} deadline; reopen to continue",
                    shared.timeout
                ),
            )
        }
    };
    conn.push(&error_line(Some(id), &error));
    None
}

/// The `stats` payload: shard-summed engine counters, queue occupancy,
/// and the merged telemetry registry (process-global + every shard's,
/// so `service.*` names aggregate and `shard.<i>.*` aliases stay
/// attributable).
fn stats_payload(shared: &Shared) -> Value {
    let mut total = EngineStats {
        rid_requests: 0,
        simulate_requests: 0,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        cache_superseded: 0,
        cache_entries: 0,
    };
    let mut per_shard_requests = Vec::with_capacity(shared.shards.len());
    let mut queue_depth = 0usize;
    let mut queue_capacity = 0usize;
    for shard in &shared.shards {
        let stats = shard.engine.stats();
        per_shard_requests.push(stats.rid_requests);
        total.rid_requests += stats.rid_requests;
        total.simulate_requests += stats.simulate_requests;
        total.cache_hits += stats.cache_hits;
        total.cache_misses += stats.cache_misses;
        total.cache_evictions += stats.cache_evictions;
        total.cache_superseded += stats.cache_superseded;
        total.cache_entries += stats.cache_entries;
        queue_depth += shard.queue.len();
        queue_capacity += shard.queue.capacity();
    }
    // Imbalance: spread of per-shard request shares, refreshed here so
    // the merged snapshot below carries a current value.
    let sum: u64 = per_shard_requests.iter().sum();
    let imbalance = if sum == 0 {
        0
    } else {
        let max = per_shard_requests.iter().max().copied().unwrap_or(0);
        let min = per_shard_requests.iter().min().copied().unwrap_or(0);
        (((max - min) as f64 / sum as f64) * 100.0).round() as i64
    };
    shared.imbalance_pct.set(imbalance);

    let mut telemetry = isomit_telemetry::global().snapshot();
    for shard in &shared.shards {
        telemetry = telemetry.merge(&shard.engine.registry().snapshot());
    }

    let mut stats = total.to_json_value();
    if let Value::Object(fields) = &mut stats {
        fields.push(("queue_depth".into(), Value::Number(queue_depth as f64)));
        fields.push((
            "queue_capacity".into(),
            Value::Number(queue_capacity as f64),
        ));
        fields.push(("shards".into(), Value::Number(shared.shards.len() as f64)));
        fields.push(("telemetry".into(), telemetry.to_json_value()));
    }
    stats
}

/// Opens a watch session on this connection, subject to the global
/// admission cap; the session itself is installed by the owning shard
/// (chosen by rendezvous on the connection id) so its state lives where
/// its deltas will be applied.
fn serve_watch_open(
    id: u64,
    config: Option<RidConfig>,
    answer_every: Option<u64>,
    received: Instant,
    conn: &Arc<Conn>,
    watch: &mut Watch,
    shared: &Arc<Shared>,
) {
    if shared.shutdown.load(Ordering::SeqCst) {
        let error = WireError::new(ErrorKind::ShuttingDown, "server is shutting down");
        return conn.push(&error_line(Some(id), &error));
    }
    expire_watch(conn, watch, shared);
    if matches!(watch, Watch::Open { .. }) {
        let error = WireError::new(
            ErrorKind::BadRequest,
            "a watch session is already open on this connection",
        );
        return conn.push(&error_line(Some(id), &error));
    }
    let admitted = shared
        .watch_active
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |active| {
            (active < shared.max_watch).then_some(active + 1)
        })
        .is_ok();
    if !admitted {
        shared.watch_shed.inc();
        let error = WireError::new(
            ErrorKind::Overloaded,
            format!(
                "watch session cap reached ({} active); retry later",
                shared.max_watch
            ),
        );
        return conn.push(&error_line(Some(id), &error));
    }
    let config = config.unwrap_or_else(|| shard_at(shared, 0).engine.default_config());
    let session = match IncrementalRid::new(config) {
        Ok(session) => session,
        Err(error) => {
            // The slot reserved above goes back unused.
            shared.watch_active.fetch_sub(1, Ordering::SeqCst);
            let error = WireError::new(ErrorKind::BadRequest, error.to_string());
            return conn.push(&error_line(Some(id), &error));
        }
    };
    let answer_every = answer_every.unwrap_or(1).max(1);
    let shard = rendezvous(conn.id, shared.shards.len());
    let job = Job {
        id,
        received,
        conn: Arc::clone(conn),
        work: Work::WatchOpen {
            session: Box::new(session),
            answer_every,
        },
    };
    let queue = &shard_at(shared, shard).queue;
    match queue.try_push(job) {
        Ok(()) => {
            *watch = Watch::Open {
                shard,
                opened: Stopwatch::start(),
            };
        }
        Err(PushError::Full(job)) => {
            shared.watch_active.fetch_sub(1, Ordering::SeqCst);
            let error = WireError::new(
                ErrorKind::Overloaded,
                format!("work queue full ({} queued); retry later", queue.capacity()),
            );
            conn.push(&error_line(Some(job.id), &error));
        }
        Err(PushError::Closed(job)) => {
            shared.watch_active.fetch_sub(1, Ordering::SeqCst);
            let error = WireError::new(ErrorKind::ShuttingDown, "server is shutting down");
            conn.push(&error_line(Some(job.id), &error));
        }
    }
}

/// The shard at `index`; every caller passes 0 (`start` creates at
/// least one shard) or derives the index from [`rendezvous`] over the
/// current shard count, so it is always in range.
fn shard_at(shared: &Shared, index: usize) -> &Shard {
    shared
        .shards
        .get(index)
        .expect("shard indices are below the shard count")
}

/// Forwards a watch verb to the session's pinned shard with
/// [`BoundedQueue::force_push`]: stateful session verbs are never shed
/// (shedding them would desynchronize the session bookkeeping), only
/// refused at shutdown.
fn forward_watch(shard: usize, job: Job, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    if let Err(PushError::Full(job) | PushError::Closed(job)) =
        shard_at(shared, shard).queue.force_push(job)
    {
        let error = WireError::new(ErrorKind::ShuttingDown, "server is shutting down");
        conn.push(&error_line(Some(job.id), &error));
    }
}

/// Admits a job to a shard's bounded queue or answers with structured
/// backpressure for that shard alone.
fn enqueue(shard: usize, job: Job, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    let queue = &shard_at(shared, shard).queue;
    match queue.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full(job)) => {
            let error = WireError::new(
                ErrorKind::Overloaded,
                format!("work queue full ({} queued); retry later", queue.capacity()),
            );
            conn.push(&error_line(Some(job.id), &error));
        }
        Err(PushError::Closed(job)) => {
            let error = WireError::new(ErrorKind::ShuttingDown, "server is shutting down");
            conn.push(&error_line(Some(job.id), &error));
        }
    }
}

/// One shard's open watch session, keyed by connection id in the
/// worker's local map.
struct WatchSession {
    session: IncrementalRid,
    /// Every N-th delta gets a full answer; the rest get acks.
    answer_every: u64,
}

fn worker_loop(shard: &Arc<Shard>, shared: &Arc<Shared>) {
    let mut sessions: HashMap<u64, WatchSession> = HashMap::new();
    while let Some(job) = shard.queue.pop() {
        let Job {
            id,
            received,
            conn,
            work,
        } = job;
        match work {
            Work::Rid { .. } | Work::Simulate { .. } => {
                let queue_wait = received.elapsed();
                shared.queue_wait_ns.record_duration(queue_wait);
                if queue_wait > shared.timeout {
                    shared.deadline_exceeded.inc();
                    let error = WireError::new(
                        ErrorKind::DeadlineExceeded,
                        format!(
                            "request spent more than {:?} queued; increase capacity or shed load",
                            shared.timeout
                        ),
                    );
                    conn.reply(&error_line(Some(id), &error), shared);
                    shared.request_ns.record_duration(received.elapsed());
                    continue;
                }
                let line = guarded(id, || match work {
                    Work::Rid {
                        line,
                        snapshot,
                        config,
                        detector,
                        fingerprint,
                        config_key,
                    } => {
                        let span = |range: Range<usize>| line.get(range).unwrap_or_default();
                        match decode_framed_rid(
                            &line,
                            span(snapshot),
                            config.map(span),
                            detector.map(span),
                        ) {
                            Ok(rid) => serve_rid(shard, id, rid, (fingerprint, config_key)),
                            Err((id, error)) => error_line(id, &error),
                        }
                    }
                    Work::Simulate { seeds, runs, seed } => {
                        match shard.engine.simulate(&seeds, runs, seed) {
                            Ok(estimate) => ok_line(id, estimate.to_json_value()),
                            Err(error) => error_line(Some(id), &WireError::from_diffusion(&error)),
                        }
                    }
                    _ => unreachable!("outer match narrowed to data-plane work"),
                })
                .unwrap_or_else(|internal| internal);
                conn.reply(&line, shared);
                shared.request_ns.record_duration(received.elapsed());
            }
            Work::WatchOpen {
                session,
                answer_every,
            } => {
                sessions.insert(
                    conn.id,
                    WatchSession {
                        session: *session,
                        answer_every,
                    },
                );
                let result = Value::Object(vec![
                    ("opened".into(), Value::Bool(true)),
                    ("answer_every".into(), Value::Number(answer_every as f64)),
                ]);
                conn.reply(&ok_line(id, result), shared);
            }
            Work::WatchDelta { delta } => {
                let line = guarded(id, || {
                    serve_watch_delta(id, &delta, conn.id, &mut sessions, shared)
                })
                .unwrap_or_else(|line| {
                    // The panic may have left the session half
                    // updated: drop it and its admission slot.
                    if sessions.remove(&conn.id).is_some() {
                        shared.watch_active.fetch_sub(1, Ordering::SeqCst);
                    }
                    line
                });
                conn.reply(&line, shared);
            }
            Work::WatchClose => {
                let line = match sessions.remove(&conn.id) {
                    Some(ws) => {
                        shared.watch_active.fetch_sub(1, Ordering::SeqCst);
                        ok_line(
                            id,
                            Value::Object(vec![
                                ("closed".into(), Value::Bool(true)),
                                (
                                    "deltas".into(),
                                    Value::Number(ws.session.deltas_applied() as f64),
                                ),
                            ]),
                        )
                    }
                    None => error_line(
                        Some(id),
                        &WireError::new(
                            ErrorKind::BadRequest,
                            "no watch session open on this connection",
                        ),
                    ),
                };
                conn.reply(&line, shared);
            }
            Work::WatchCleanup => {
                if sessions.remove(&conn.id).is_some() {
                    shared.watch_active.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }
    // Drain finished: any sessions still resident die with the shard;
    // return their admission slots for bookkeeping symmetry.
    if !sessions.is_empty() {
        shared
            .watch_active
            .fetch_sub(sessions.len(), Ordering::SeqCst);
    }
    shared.workers_alive.fetch_sub(1, Ordering::SeqCst);
}

/// Runs one job's computation behind the worker's panic guard. A panic
/// is answered `internal` under the request's id (the `Err` line), so
/// the worker lives on to serve the jobs queued behind it and to exit
/// at shutdown; the caller drops any state the panic may have left half
/// applied.
fn guarded(id: u64, compute: impl FnOnce() -> String) -> Result<String, String> {
    panic::catch_unwind(AssertUnwindSafe(compute)).map_err(|_| {
        let error = WireError::new(
            ErrorKind::Internal,
            "the request panicked in its shard worker",
        );
        error_line(Some(id), &error)
    })
}

/// Answers one decoded `rid` job on its shard's worker, filing the
/// answer in the result cache under `key`: the snapshot span's hash and
/// the config key.
fn serve_rid(
    shard: &Shard,
    id: u64,
    (snapshot, config, detector): RidParts,
    key: (u64, u64),
) -> String {
    match shard.engine.rid(&snapshot, key.0, config, detector) {
        Ok(result) => {
            let mut payload = result.to_json_value();
            // Echo the detector only when the request chose one, keeping
            // legacy responses byte-identical.
            if let (Some(kind), Value::Object(fields)) = (detector, &mut payload) {
                fields.push(("detector".into(), Value::String(kind.as_label().into())));
            }
            let serialized = payload.to_json();
            shard
                .lock_results()
                .insert(key, Arc::<str>::from(serialized.as_str()));
            ok_line_raw(id, &serialized)
        }
        Err(error) => {
            let kind = match &error {
                RidError::InvalidParameter { .. } => ErrorKind::BadRequest,
                // Engine cache keys include alpha, so a mismatch here is
                // a server bug.
                _ => ErrorKind::Internal,
            };
            error_line(Some(id), &WireError::new(kind, error.to_string()))
        }
    }
}

/// Applies one delta to connection `conn`'s pinned session and returns
/// its answer (full `RidResult` when due under the session's cadence,
/// cheap ack otherwise). Runs on the shard worker; the io thread has
/// already enforced the session deadline.
fn serve_watch_delta(
    id: u64,
    delta: &RidDelta,
    conn: u64,
    sessions: &mut HashMap<u64, WatchSession>,
    shared: &Arc<Shared>,
) -> String {
    let Some(ws) = sessions.get_mut(&conn) else {
        let error = WireError::new(
            ErrorKind::BadRequest,
            "no watch session open on this connection; send watch_open first",
        );
        return error_line(Some(id), &error);
    };
    let started = Stopwatch::start();
    if let Err(error) = ws.session.apply(delta) {
        // Validation rejected the delta before any mutation: the
        // session state is intact and the connection stays usable.
        let error = WireError::new(ErrorKind::InvalidDelta, error.to_string());
        return error_line(Some(id), &error);
    }
    let deltas = ws.session.deltas_applied();
    let line = if deltas % ws.answer_every == 0 {
        let (result, outcome) = ws.session.answer_detailed();
        shared
            .watch_dirty_components
            .add(outcome.dirty_components as u64);
        if outcome.full_recompute {
            shared.watch_full_recomputes.inc();
        }
        let mut payload = result.to_json_value();
        if let Value::Object(fields) = &mut payload {
            fields.push(("deltas".into(), Value::Number(deltas as f64)));
            fields.push((
                "dirty_components".into(),
                Value::Number(outcome.dirty_components as f64),
            ));
            fields.push(("full_recompute".into(), Value::Bool(outcome.full_recompute)));
        }
        ok_line(id, payload)
    } else {
        ok_line(
            id,
            Value::Object(vec![
                ("acked".into(), Value::Bool(true)),
                ("deltas".into(), Value::Number(deltas as f64)),
            ]),
        )
    };
    shared.watch_delta_ns.record_duration(started.elapsed());
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_is_answered_internal_under_its_id() {
        assert_eq!(guarded(7, || "served".to_owned()), Ok("served".to_owned()));
        let line = guarded(7, || panic!("injected fault")).unwrap_err();
        let reply = Value::parse(&line).unwrap();
        assert_eq!(reply.get("id").and_then(Value::as_f64), Some(7.0));
        assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
        let kind = reply.get("error").and_then(|e| e.get("kind"));
        assert_eq!(kind.and_then(Value::as_str), Some("internal"), "{line}");
    }

    #[test]
    fn rendezvous_is_stable_and_in_range() {
        for key in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            for shards in 1..=8 {
                let chosen = shard_for_fingerprint(key, shards);
                assert!(chosen < shards);
                assert_eq!(
                    chosen,
                    shard_for_fingerprint(key, shards),
                    "placement must be deterministic"
                );
            }
        }
        // Zero shards is clamped rather than a panic path.
        assert_eq!(shard_for_fingerprint(7, 0), 0);
    }

    #[test]
    fn rendezvous_spreads_keys_across_shards() {
        let shards = 4;
        let mut counts = vec![0u32; shards];
        for key in 0..4000u64 {
            counts[shard_for_fingerprint(key, shards)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            // Perfectly even would be 1000 per shard; a wide tolerance
            // still catches a broken mix (everything on one shard).
            assert!(
                (600..=1400).contains(&count),
                "shard {i} got {count} of 4000 keys"
            );
        }
    }

    #[test]
    fn rendezvous_moves_few_keys_when_a_shard_is_added() {
        // The property rendezvous hashing buys over `key % shards`:
        // growing the fleet relocates roughly 1/(n+1) of keys, not all
        // of them, so hot caches mostly survive a resize.
        let moved = (0..4000u64)
            .filter(|&key| shard_for_fingerprint(key, 4) != shard_for_fingerprint(key, 5))
            .count();
        assert!(
            (400..=1400).contains(&moved),
            "expected ~1/5 of 4000 keys to move, got {moved}"
        );
    }

    /// Feeds `chunks` as successive reads and returns the lines split
    /// off after each, as `pump_conn` does.
    fn split(chunks: &[&[u8]]) -> (Vec<Vec<String>>, LineBuffer) {
        let mut lines = LineBuffer::default();
        let mut per_read = Vec::new();
        for chunk in chunks {
            lines.bytes.extend_from_slice(chunk);
            let mut cursor = 0;
            let mut got = Vec::new();
            while let Some(range) = lines.next_line(&mut cursor) {
                got.push(String::from_utf8(lines.bytes[range].to_vec()).unwrap());
            }
            lines.consume(cursor);
            per_read.push(got);
        }
        (per_read, lines)
    }

    #[test]
    fn line_buffer_splits_lines_over_partial_reads() {
        let long = "x".repeat(40_000);
        let stream = format!("{long}\n{{\"id\":1}}\n\nlast\n");
        for size in [1, 16 * 1024] {
            let chunks: Vec<&[u8]> = stream.as_bytes().chunks(size).collect();
            let (per_read, rest) = split(&chunks);
            let lines: Vec<String> = per_read.into_iter().flatten().collect();
            assert_eq!(lines, [long.as_str(), "{\"id\":1}", "", "last"], "{size}");
            assert!(rest.bytes.is_empty() && rest.searched == 0);
        }

        // Two pipelined lines in one read, then a read that ends right
        // after a newline, then a line completed by the next read.
        let (per_read, rest) = split(&[b"a\nb\n", b"c\nd", b"d\n"]);
        assert_eq!(per_read, [vec!["a", "b"], vec!["c"], vec!["dd"]]);
        assert!(rest.bytes.is_empty());

        // A line still arriving is searched once: the search resumes
        // where the previous read's search stopped.
        let (_, rest) = split(&[b"done\npart", b"ial"]);
        assert_eq!(rest.bytes, b"partial");
        assert_eq!(rest.searched, rest.bytes.len());
    }

    #[test]
    fn config_keys_separate_config_and_detector_spans() {
        // The 0xFF frame keeps (config, detector) span pairs injective:
        // content sliding between the two fields must change the key.
        let a = span_config_key(Some("{\"alpha\":3}"), None);
        let b = span_config_key(None, Some("{\"alpha\":3}"));
        let c = span_config_key(Some("{\"alpha\":3}"), Some("\"rid_tree\""));
        let d = span_config_key(None, None);
        let keys = [a, b, c, d];
        for (i, x) in keys.iter().enumerate() {
            for (j, y) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y, "keys {i} and {j} collide");
                }
            }
        }
        assert_eq!(a, span_config_key(Some("{\"alpha\":3}"), None));
    }
}
