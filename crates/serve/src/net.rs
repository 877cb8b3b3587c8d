//! The fleet's TCP front-end: a length-prefixed, CRC-framed binary
//! protocol over `std::net`, plus a retrying producer client.
//!
//! # Wire format
//!
//! Every message rides the WAL's record frame (`wal.rs`):
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! The payload's first byte is the message type:
//!
//! | type | direction | body |
//! |---|---|---|
//! | `0x01` Hello | client → server | `[tenant: u32 LE]` |
//! | `0x02` Batch | client → server | `[seq: u64 LE][samples: PMB1 batch]` |
//! | `0x03` Bye   | client → server | empty |
//! | `0x81` HelloAck | server → client | `[last_acked_seq: u64 LE]` |
//! | `0x82` BatchAck | server → client | `[seq: u64 LE][level: u8][admitted: u64 LE][duplicate: u8]` |
//! | `0x7F` Err   | server → client | UTF-8 message |
//!
//! A Batch body is [`Sample::encode_batch`]'s binary layout of the
//! Profile Registers, at most [`MAX_BATCH_SAMPLES`] samples. Its
//! `PMB1` magic is the protocol's version tag: a body in any other
//! layout, such as the JSON of a 0.9.0 producer, gets an Err frame and
//! ingests nothing.
//!
//! # Exactly once within a server run
//!
//! Batch sequence numbers are per-tenant and strictly increasing. For
//! the lifetime of one server process the server keeps, per tenant,
//! the highest acknowledged sequence and the sequences whose ingest is
//! still running. A handler decodes a batch, then claims its sequence
//! under one lock:
//!
//! - at or below the high-water, it is acknowledged as a duplicate and
//!   not re-ingested (a retry after a lost ack);
//! - already claimed by another handler (a client that gave up waiting
//!   and resent on a new connection), it gets an Err frame, and the
//!   client retries until the first ingest settles;
//! - otherwise the handler ingests it, releases the claim, and on
//!   success raises the high-water to at least this sequence.
//!
//! Across a server restart the map is empty: the client resends only
//! batches that were never acknowledged, and acknowledged history is
//! recovered from the durable store — together, at-least-once delivery
//! with **no acknowledged-sample loss**.
//!
//! # Reads
//!
//! A server handler reads in `READ_SLICE` (50 ms) slices so that it
//! notices the stop flag. A slice that times out before a frame's
//! first byte is an idle tick; once a frame has begun, the handler
//! keeps reading through pauses until the frame completes or the stop
//! flag rises. The payload buffer grows as bytes arrive, so a length
//! prefix alone reserves at most `READ_CHUNK` (64 KiB). A client's
//! read is bounded by its `io_timeout` instead, mid-frame included.
//!
//! # Client
//!
//! [`FleetClient`] does deadline-bounded connects
//! ([`TcpStream::connect_timeout`]) and full-jitter exponential
//! backoff via [`RetryPolicy`], reconnecting and resending
//! unacknowledged batches across a server restart.

use crate::degrade::{DegradeLevel, RetryPolicy};
use crate::tenant::{FleetService, TenantId};
use crate::wal::{crc32, RECORD_HEADER_BYTES};
use profileme_core::{ProfileError, Sample, MAX_BATCH_SAMPLES};
use serde::Serialize;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

const MSG_HELLO: u8 = 0x01;
const MSG_BATCH: u8 = 0x02;
const MSG_BYE: u8 = 0x03;
const MSG_HELLO_ACK: u8 = 0x81;
const MSG_BATCH_ACK: u8 = 0x82;
const MSG_ERR: u8 = 0x7F;

/// Refuse frames past this size: a corrupt or hostile length prefix
/// must not drive an unbounded allocation.
const MAX_FRAME_BYTES: u32 = 64 << 20;

/// How long a connection handler blocks in one read before re-checking
/// the stop flag.
const READ_SLICE: Duration = Duration::from_millis(50);

/// The most payload bytes a frame reserves before they arrive.
const READ_CHUNK: usize = 64 << 10;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one `[len][crc][payload]` frame.
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(RECORD_HEADER_BYTES as usize + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads one frame, verifying length bound and CRC. `Ok(None)` on a
/// clean EOF at a frame boundary.
///
/// A read timeout before the frame's first byte is returned to the
/// caller. With a `stop` flag (the server), a timeout after it only
/// re-checks the flag and reads on; without one (the client), it ends
/// the read.
fn read_frame(
    stream: &mut TcpStream,
    stop: Option<&AtomicBool>,
) -> std::io::Result<Option<Vec<u8>>> {
    // Appends until `buf` holds `want` bytes; `Ok(false)` on EOF.
    let mut fill = |buf: &mut Vec<u8>, want: usize, begun: bool| loop {
        let missing = (want - buf.len()) as u64;
        match Read::by_ref(stream).take(missing).read_to_end(buf) {
            Ok(_) => return Ok(buf.len() == want),
            Err(e) if is_timeout(&e) && (begun || !buf.is_empty()) => {
                if stop.is_none_or(|stop| stop.load(Ordering::Acquire)) {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    };
    let mut header = Vec::with_capacity(RECORD_HEADER_BYTES as usize);
    if !fill(&mut header, RECORD_HEADER_BYTES as usize, false)? {
        return if header.is_empty() {
            Ok(None)
        } else {
            Err(ErrorKind::UnexpectedEof.into())
        };
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"),
        ));
    }
    let mut payload = Vec::with_capacity((len as usize).min(READ_CHUNK));
    if !fill(&mut payload, len as usize, true)? {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    if crc32(&payload) != crc {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "frame CRC mismatch",
        ));
    }
    Ok(Some(payload))
}

fn net_err(what: &str, e: &std::io::Error) -> ProfileError {
    ProfileError::net(format!("{what}: {e}"))
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// The TCP front-end of a [`FleetService`]: accepts producer
/// connections and feeds their batches through per-tenant admission.
///
/// `run` blocks until the stop flag is raised; each connection is
/// served by its own thread, and all of them are joined before `run`
/// returns — afterwards the service `Arc` is again uniquely held by
/// the caller, which can shut it down cleanly.
pub struct FleetServer {
    listener: TcpListener,
    local: SocketAddr,
    service: Arc<FleetService<profileme_core::ProfileDatabase>>,
    stop: Arc<AtomicBool>,
    /// Per-tenant batch sequences, for this server process's lifetime:
    /// the dedup window that makes same-run retries exactly-once.
    seqs: Arc<Mutex<HashMap<u32, TenantSeqs>>>,
}

/// One tenant's batch sequences in this server run.
#[derive(Debug, Default)]
struct TenantSeqs {
    /// The highest acknowledged sequence; it only rises.
    acked: u64,
    /// Sequences a handler has claimed and is still ingesting.
    inflight: Vec<u64>,
}

impl FleetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Net`] if the bind fails.
    pub fn bind(
        addr: &str,
        service: Arc<FleetService<profileme_core::ProfileDatabase>>,
    ) -> Result<FleetServer, ProfileError> {
        let listener = TcpListener::bind(addr).map_err(|e| net_err("bind", &e))?;
        let local = listener
            .local_addr()
            .map_err(|e| net_err("local_addr", &e))?;
        Ok(FleetServer {
            listener,
            local,
            service,
            stop: Arc::new(AtomicBool::new(false)),
            seqs: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A handle that stops [`run`](FleetServer::run) when set.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Accepts and serves connections until the stop flag is raised,
    /// then joins every connection handler. In-flight messages finish
    /// processing (including their acks) before handlers exit.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Net`] if the listener cannot be put
    /// into non-blocking accept mode.
    pub fn run(self) -> Result<(), ProfileError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| net_err("set_nonblocking", &e))?;
        let mut handlers = Vec::new();
        while !self.stop.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let service = Arc::clone(&self.service);
                    let stop = Arc::clone(&self.stop);
                    let seqs = Arc::clone(&self.seqs);
                    handlers.push(std::thread::spawn(move || {
                        serve_connection(stream, &service, &stop, &seqs);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        for handler in handlers {
            drop(handler.join());
        }
        Ok(())
    }
}

/// One connection: Hello names the tenant, then Batch frames stream
/// until Bye, EOF, or the stop flag.
fn serve_connection(
    mut stream: TcpStream,
    service: &FleetService<profileme_core::ProfileDatabase>,
    stop: &AtomicBool,
    seqs: &Mutex<HashMap<u32, TenantSeqs>>,
) {
    drop(stream.set_nodelay(true));
    drop(stream.set_read_timeout(Some(READ_SLICE)));
    let mut tenant: Option<TenantId> = None;
    loop {
        let payload = match read_frame(&mut stream, Some(stop)) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) if is_timeout(&e) => {
                // Idle between frames.
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let reply = handle_message(&payload, service, &mut tenant, seqs);
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
        if payload.first() == Some(&MSG_BYE) {
            return;
        }
        // Between messages (never between an ingest and its ack): a
        // raised stop flag closes the connection at the next frame
        // boundary.
        if stop.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Dispatches one client message and builds the reply frame payload.
fn handle_message(
    payload: &[u8],
    service: &FleetService<profileme_core::ProfileDatabase>,
    tenant: &mut Option<TenantId>,
    seqs: &Mutex<HashMap<u32, TenantSeqs>>,
) -> Vec<u8> {
    let err = |msg: &str| {
        let mut out = vec![MSG_ERR];
        out.extend_from_slice(msg.as_bytes());
        out
    };
    match payload.first() {
        Some(&MSG_HELLO) => {
            let Some(id) = payload
                .get(1..5)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
            else {
                return err("malformed Hello");
            };
            *tenant = Some(TenantId(id));
            let last = lock(seqs).get(&id).map_or(0, |t| t.acked);
            let mut out = vec![MSG_HELLO_ACK];
            out.extend_from_slice(&last.to_le_bytes());
            out
        }
        Some(&MSG_BATCH) => {
            let Some(id) = *tenant else {
                return err("Batch before Hello");
            };
            let Some(seq) = payload
                .get(1..9)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            else {
                return err("malformed Batch");
            };
            let samples = match Sample::decode_batch(&payload[9..]) {
                Ok(samples) => samples,
                Err(e) => return err(&format!("undecodable samples: {e}")),
            };
            {
                let mut seqs = lock(seqs);
                let t = seqs.entry(id.0).or_default();
                if seq <= t.acked {
                    // Same-run retry of an already-ingested batch: ack
                    // it again without re-ingesting.
                    return batch_ack(seq, DegradeLevel::Full, 0, true);
                }
                if t.inflight.contains(&seq) {
                    return err(&format!(
                        "batch {seq} is still being ingested by another connection; retry"
                    ));
                }
                t.inflight.push(seq);
            }
            let offered = samples.len() as u64;
            let ingested = service.ingest_batch(id, samples);
            {
                let mut seqs = lock(seqs);
                let t = seqs.entry(id.0).or_default();
                t.inflight.retain(|&s| s != seq);
                if ingested.is_ok() {
                    t.acked = t.acked.max(seq);
                }
            }
            match ingested {
                Ok(level) => {
                    let admitted = match level {
                        DegradeLevel::Full => offered,
                        // The tenant's 1-in-k thinning keeps stream
                        // positions 0, k, 2k, …
                        DegradeLevel::Sampled => offered.div_ceil(service.degrade().thin_k),
                        DegradeLevel::Shed => 0,
                    };
                    batch_ack(seq, level, admitted, false)
                }
                Err(e) => err(&e.to_string()),
            }
        }
        Some(&MSG_BYE) => vec![MSG_BYE],
        _ => err("unknown message type"),
    }
}

/// The sequence map stays valid at every step of every update, so a
/// handler that panicked while holding it left nothing half-written.
fn lock(seqs: &Mutex<HashMap<u32, TenantSeqs>>) -> MutexGuard<'_, HashMap<u32, TenantSeqs>> {
    seqs.lock().unwrap_or_else(PoisonError::into_inner)
}

fn batch_ack(seq: u64, level: DegradeLevel, admitted: u64, duplicate: bool) -> Vec<u8> {
    let mut out = vec![MSG_BATCH_ACK];
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(level.as_u8());
    out.extend_from_slice(&admitted.to_le_bytes());
    out.push(u8::from(duplicate));
    out
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Knobs of the producer client's connect/retry behavior.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Bound on each connect attempt.
    pub connect_timeout: Duration,
    /// Bound on each read (one ack) once connected.
    pub io_timeout: Duration,
    /// Full-jitter exponential backoff between attempts; its
    /// `max_retries` bounds the attempts **per send**, covering both
    /// reconnects and resends.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(2),
            retry: RetryPolicy {
                max_retries: 8,
                ..RetryPolicy::default()
            },
        }
    }
}

/// The server's acknowledgement of one batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchAck {
    /// The acknowledged sequence number.
    pub seq: u64,
    /// The fidelity the tenant's ladder applied to this batch.
    pub level: DegradeLevel,
    /// Samples admitted from this batch (after thinning/shedding).
    pub admitted: u64,
    /// Whether the server had already ingested this sequence (a retry
    /// after a lost ack, or a reconnect within one server run).
    pub duplicate: bool,
}

/// A fleet producer: connects on demand, frames sample batches, and
/// survives server restarts via deadline-bounded reconnects with
/// full-jitter backoff. Batches are resent until acknowledged; the
/// server's per-run dedup plus its durable store make the combination
/// lose no acknowledged sample.
pub struct FleetClient {
    addr: String,
    tenant: TenantId,
    cfg: ClientConfig,
    stream: Option<TcpStream>,
    /// Highest sequence the server acknowledged on the **current**
    /// connection's Hello — lets a reconnect skip resending batches
    /// the same server run already ingested.
    hello_acked: u64,
    next_seq: u64,
    /// Whether any connection was established yet: every later one is
    /// a reconnect.
    connected_once: bool,
    /// Cumulative accounting, exposed via [`stats`](FleetClient::stats).
    batches_acked: u64,
    samples_acked: u64,
    retries: u64,
    reconnects: u64,
}

/// A client's cumulative delivery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ClientStats {
    /// Batches acknowledged by the server.
    pub batches_acked: u64,
    /// Samples inside those batches.
    pub samples_acked: u64,
    /// Send attempts that failed and were retried with backoff.
    pub retries: u64,
    /// Connections established after the first.
    pub reconnects: u64,
}

impl FleetClient {
    /// A client for `tenant`, lazily connecting to `addr`.
    pub fn new(addr: impl Into<String>, tenant: TenantId, cfg: ClientConfig) -> FleetClient {
        FleetClient {
            addr: addr.into(),
            tenant,
            cfg,
            stream: None,
            hello_acked: 0,
            next_seq: 0,
            connected_once: false,
            batches_acked: 0,
            samples_acked: 0,
            retries: 0,
            reconnects: 0,
        }
    }

    /// Cumulative delivery accounting.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            batches_acked: self.batches_acked,
            samples_acked: self.samples_acked,
            retries: self.retries,
            reconnects: self.reconnects,
        }
    }

    /// Ensures a live connection with the Hello exchange done.
    fn ensure_connected(&mut self) -> Result<(), ProfileError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let addrs: Vec<SocketAddr> = self
            .addr
            .to_socket_addrs()
            .map_err(|e| net_err("resolve", &e))?
            .collect();
        let addr = addrs
            .first()
            .ok_or_else(|| ProfileError::net(format!("{} resolves to nothing", self.addr)))?;
        let mut stream = TcpStream::connect_timeout(addr, self.cfg.connect_timeout)
            .map_err(|e| net_err("connect", &e))?;
        drop(stream.set_nodelay(true));
        stream
            .set_read_timeout(Some(self.cfg.io_timeout))
            .map_err(|e| net_err("set_read_timeout", &e))?;
        let mut hello = vec![MSG_HELLO];
        hello.extend_from_slice(&self.tenant.0.to_le_bytes());
        write_frame(&mut stream, &hello).map_err(|e| net_err("send Hello", &e))?;
        let reply = read_frame(&mut stream, None)
            .map_err(|e| net_err("read HelloAck", &e))?
            .ok_or_else(|| ProfileError::net("connection closed during Hello"))?;
        if reply.first() != Some(&MSG_HELLO_ACK) || reply.len() != 9 {
            return Err(ProfileError::net("malformed HelloAck"));
        }
        self.hello_acked = u64::from_le_bytes(reply[1..9].try_into().expect("8 bytes"));
        if self.connected_once {
            self.reconnects += 1;
        }
        self.connected_once = true;
        self.stream = Some(stream);
        Ok(())
    }

    /// Sends one batch and waits for its acknowledgement, retrying
    /// (with reconnects and full-jitter backoff) up to the policy's
    /// budget. The batch owns the next sequence number until it is
    /// acknowledged.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Net`] for a batch of more than
    /// [`MAX_BATCH_SAMPLES`] samples, before anything is sent, or once
    /// the retry budget is exhausted. Either way the batch is **not**
    /// acknowledged, and the next `send` reuses its sequence number so
    /// the server's dedup stays correct.
    pub fn send(&mut self, samples: &[Sample]) -> Result<BatchAck, ProfileError> {
        if samples.len() > MAX_BATCH_SAMPLES {
            return Err(ProfileError::net(format!(
                "a batch of {} samples exceeds the {MAX_BATCH_SAMPLES}-sample bound",
                samples.len()
            )));
        }
        let seq = self.next_seq + 1;
        let body = Sample::encode_batch(samples);
        let mut payload = Vec::with_capacity(body.len() + 9);
        payload.push(MSG_BATCH);
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(&body);

        let mut last_err: Option<ProfileError> = None;
        for attempt in 0..=self.cfg.retry.max_retries {
            if attempt > 0 {
                self.retries += 1;
                std::thread::sleep(
                    self.cfg
                        .retry
                        .backoff(attempt - 1, u64::from(self.tenant.0) ^ seq),
                );
            }
            match self.try_send(seq, &payload, samples.len() as u64) {
                Ok(ack) => return Ok(ack),
                Err(e) => {
                    self.stream = None;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| ProfileError::net("send failed")))
    }

    fn try_send(
        &mut self,
        seq: u64,
        payload: &[u8],
        samples: u64,
    ) -> Result<BatchAck, ProfileError> {
        self.ensure_connected()?;
        if self.hello_acked >= seq {
            // This server run already ingested the batch (the ack was
            // lost in a connection drop): count it delivered.
            self.next_seq = seq;
            self.batches_acked += 1;
            self.samples_acked += samples;
            return Ok(BatchAck {
                seq,
                level: DegradeLevel::Full,
                admitted: 0,
                duplicate: true,
            });
        }
        let stream = self.stream.as_mut().expect("just connected");
        write_frame(stream, payload).map_err(|e| net_err("send Batch", &e))?;
        let reply = read_frame(stream, None)
            .map_err(|e| net_err("read BatchAck", &e))?
            .ok_or_else(|| ProfileError::net("connection closed awaiting BatchAck"))?;
        match reply.first() {
            Some(&MSG_BATCH_ACK) if reply.len() == 19 => {
                let acked_seq = u64::from_le_bytes(reply[1..9].try_into().expect("8 bytes"));
                if acked_seq != seq {
                    return Err(ProfileError::net(format!(
                        "ack for sequence {acked_seq}, expected {seq}"
                    )));
                }
                let level = match reply[9] {
                    0 => DegradeLevel::Full,
                    1 => DegradeLevel::Sampled,
                    _ => DegradeLevel::Shed,
                };
                let admitted = u64::from_le_bytes(reply[10..18].try_into().expect("8 bytes"));
                let duplicate = reply[18] != 0;
                self.next_seq = seq;
                self.batches_acked += 1;
                self.samples_acked += samples;
                Ok(BatchAck {
                    seq,
                    level,
                    admitted,
                    duplicate,
                })
            }
            Some(&MSG_ERR) => Err(ProfileError::net(format!(
                "server refused batch: {}",
                String::from_utf8_lossy(&reply[1..])
            ))),
            _ => Err(ProfileError::net("malformed BatchAck")),
        }
    }

    /// Sends a polite Bye; errors are ignored (the server handles an
    /// abrupt close identically).
    pub fn close(mut self) {
        if let Some(stream) = self.stream.as_mut() {
            drop(write_frame(stream, &[MSG_BYE]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetConfig, ServeConfig, TenantQuota};
    use profileme_core::{ProfileDatabase, ProfileMeConfig, Session};
    use std::sync::OnceLock;
    use std::thread::JoinHandle;

    struct Stream {
        program: profileme_isa::Program,
        interval: u64,
        samples: Vec<Sample>,
    }

    fn stream() -> &'static Stream {
        static STREAM: OnceLock<Stream> = OnceLock::new();
        STREAM.get_or_init(|| {
            let w = profileme_workloads::compress(200);
            let run = Session::builder(w.program.clone())
                .memory(w.memory.clone())
                .sampling(ProfileMeConfig {
                    mean_interval: 16,
                    ..Default::default()
                })
                .build()
                .expect("config is valid")
                .profile_single()
                .expect("workload completes");
            assert!(run.samples.len() >= 80, "stream too thin");
            Stream {
                program: w.program,
                interval: run.db.interval(),
                samples: run.samples,
            }
        })
    }

    fn fleet() -> FleetService<ProfileDatabase> {
        let s = stream();
        let quota = TenantQuota {
            rate_per_sec: u64::MAX / 4,
            burst: u64::MAX / 4,
            queue_share: u64::MAX / 4,
        };
        FleetService::start(
            ProfileDatabase::new(&s.program, s.interval),
            ServeConfig::builder().shards(1).build().expect("config"),
            FleetConfig::uniform(1, quota),
        )
        .expect("fleet starts")
    }

    fn batch_payload(seq: u64, body: &[u8]) -> Vec<u8> {
        let mut payload = vec![MSG_BATCH];
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(body);
        payload
    }

    fn offered(svc: &FleetService<ProfileDatabase>) -> u64 {
        svc.stats().tenants[0].offered
    }

    /// A server on an OS-assigned loopback port, its stop flag and its
    /// accept loop.
    fn serve(
        svc: &Arc<FleetService<ProfileDatabase>>,
    ) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
        let server = FleetServer::bind("127.0.0.1:0", Arc::clone(svc)).expect("bind");
        let addr = server.local_addr();
        let stop = server.stop_handle();
        (
            addr,
            stop,
            std::thread::spawn(move || server.run().expect("accept loop")),
        )
    }

    fn stop(svc: Arc<FleetService<ProfileDatabase>>, stop: &AtomicBool, server: JoinHandle<()>) {
        stop.store(true, Ordering::Release);
        server.join().expect("accept loop exits");
        let svc = Arc::into_inner(svc).expect("the server released the service");
        drop(svc.shutdown().expect("fleet drains"));
    }

    /// A frame that arrives in two parts, 120 ms apart (longer than one
    /// read slice), is read whole and acknowledged.
    #[test]
    fn a_pause_mid_frame_keeps_the_connection() {
        let svc = Arc::new(fleet());
        let (addr, flag, server) = serve(&svc);
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        write_frame(&mut raw, &[MSG_HELLO, 0, 0, 0, 0]).expect("Hello");
        let hello = read_frame(&mut raw, None).expect("HelloAck").expect("open");
        assert_eq!(hello.first(), Some(&MSG_HELLO_ACK));

        let batch = &stream().samples[..40];
        let payload = batch_payload(1, &Sample::encode_batch(batch));
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        raw.write_all(&frame[..20]).expect("first part");
        std::thread::sleep(READ_SLICE + Duration::from_millis(70));
        raw.write_all(&frame[20..]).expect("second part");
        let reply = read_frame(&mut raw, None)
            .expect("the server still answers")
            .expect("the connection stays open");
        assert_eq!(reply.first(), Some(&MSG_BATCH_ACK), "{reply:?}");
        assert_eq!(offered(&svc), 40);
        drop(raw);
        stop(svc, &flag, server);
    }

    /// Bodies that are not a PMB1 batch, a 0.9.0 producer's JSON among
    /// them, get an Err frame and offer the tenant nothing.
    #[test]
    fn hostile_batch_bodies_are_refused_and_ingest_nothing() {
        let svc = fleet();
        let seqs = Mutex::new(HashMap::new());
        let mut tenant = None;
        let hello = handle_message(&[MSG_HELLO, 0, 0, 0, 0], &svc, &mut tenant, &seqs);
        assert_eq!(hello.first(), Some(&MSG_HELLO_ACK));

        let real = Sample::encode_batch(&stream().samples[..40]);
        let mut bodies: Vec<Vec<u8>> = vec![
            serde_json::to_string(&stream().samples[..40].to_vec())
                .expect("JSON")
                .into_bytes(),
            Vec::new(),
            b"PMB1".to_vec(),
            real[..real.len() - 1].to_vec(),
            [real.as_slice(), &[0]].concat(),
        ];
        let mut state = 0x5EED_u64;
        for case in 0..512 {
            let len = (case * 7) % 300;
            let mut body = if case % 2 == 0 {
                b"PMB1".to_vec()
            } else {
                Vec::new()
            };
            body.extend((0..len).map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            }));
            bodies.push(body);
        }
        for (i, body) in bodies.iter().enumerate() {
            if Sample::decode_batch(body).is_ok() {
                continue;
            }
            let reply = handle_message(&batch_payload(1, body), &svc, &mut tenant, &seqs);
            assert_eq!(reply.first(), Some(&MSG_ERR), "body {i} was not refused");
        }
        assert_eq!(offered(&svc), 0, "a refused body reached admission");
        let reply = handle_message(&batch_payload(1, &real), &svc, &mut tenant, &seqs);
        assert_eq!(
            reply.first(),
            Some(&MSG_BATCH_ACK),
            "refusals consumed the seq"
        );
        assert_eq!(offered(&svc), 40);
        drop(svc.shutdown());
    }

    /// A sequence another handler is still ingesting is refused for a
    /// retry, never ingested twice; an acknowledged one is a duplicate.
    #[test]
    fn a_sequence_in_flight_is_refused_until_it_settles() {
        let svc = fleet();
        let seqs = Mutex::new(HashMap::new());
        let mut tenant = None;
        handle_message(&[MSG_HELLO, 0, 0, 0, 0], &svc, &mut tenant, &seqs);
        let body = Sample::encode_batch(&stream().samples[..40]);
        lock(&seqs).entry(0).or_default().inflight.push(1);
        let reply = handle_message(&batch_payload(1, &body), &svc, &mut tenant, &seqs);
        assert_eq!(reply.first(), Some(&MSG_ERR));
        assert_eq!(offered(&svc), 0);

        // Seq 2 settles first; the claim on 1 still refuses it, and
        // the high-water never moves back.
        let reply = handle_message(&batch_payload(2, &body), &svc, &mut tenant, &seqs);
        assert_eq!(reply.first(), Some(&MSG_BATCH_ACK));
        assert_eq!(lock(&seqs)[&0].acked, 2);
        assert!(lock(&seqs)[&0].inflight == [1]);
        lock(&seqs).get_mut(&0).expect("tenant").inflight.clear();
        let reply = handle_message(&batch_payload(1, &body), &svc, &mut tenant, &seqs);
        assert_eq!(reply.first(), Some(&MSG_BATCH_ACK));
        assert_eq!(reply[18], 1, "seq 1 is at or below the high-water");
        assert_eq!(offered(&svc), 40);
        drop(svc.shutdown());
    }

    /// An oversized batch is refused before it is sent, and the next
    /// batch still gets sequence 1.
    #[test]
    fn send_refuses_an_oversized_batch_without_consuming_a_seq() {
        let svc = Arc::new(fleet());
        let (addr, flag, server) = serve(&svc);
        let mut client = FleetClient::new(addr.to_string(), TenantId(0), ClientConfig::default());
        let sample = stream().samples[0].clone();
        let huge = vec![sample; MAX_BATCH_SAMPLES + 1];
        let err = client.send(&huge).expect_err("over the cap");
        assert!(err.to_string().contains("bound"), "{err}");
        drop(huge);
        let ack = client.send(&stream().samples[..10]).expect("a small batch");
        assert_eq!(ack.seq, 1);
        assert!(!ack.duplicate);
        let stats = client.stats();
        assert_eq!(
            (stats.batches_acked, stats.retries, stats.reconnects),
            (1, 0, 0)
        );
        assert_eq!(offered(&svc), 10);
        client.close();
        stop(svc, &flag, server);
    }
}
