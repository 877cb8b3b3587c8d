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
//! | `0x02` Batch | client → server | `[seq: u64 LE][samples: JSON]` |
//! | `0x03` Bye   | client → server | empty |
//! | `0x81` HelloAck | server → client | `[last_acked_seq: u64 LE]` |
//! | `0x82` BatchAck | server → client | `[seq: u64 LE][level: u8][admitted: u64 LE][duplicate: u8]` |
//! | `0x7F` Err   | server → client | UTF-8 message |
//!
//! Batch sequence numbers are per-tenant and strictly increasing; the
//! server remembers the highest acknowledged sequence per tenant **for
//! the lifetime of one server process** and acknowledges duplicates
//! without re-ingesting them, so client retries after a lost ack are
//! exactly-once within a server run. Across a server restart the map
//! is empty: the client resends only batches that were never
//! acknowledged, and acknowledged history is recovered from the
//! durable store — together, at-least-once delivery with **no
//! acknowledged-sample loss**.
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
use profileme_core::{ProfileError, Sample};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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

/// Reads one frame, verifying length bound and CRC. `Ok(None)` on a
/// clean EOF at a frame boundary.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; RECORD_HEADER_BYTES as usize];
    match stream.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
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
    /// Highest acknowledged batch sequence per tenant, for this server
    /// process's lifetime: the dedup window that makes same-run
    /// retries exactly-once.
    acked: Arc<Mutex<HashMap<u32, u64>>>,
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
            acked: Arc::new(Mutex::new(HashMap::new())),
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
                    let acked = Arc::clone(&self.acked);
                    handlers.push(std::thread::spawn(move || {
                        serve_connection(stream, &service, &stop, &acked);
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
    acked: &Mutex<HashMap<u32, u64>>,
) {
    drop(stream.set_nodelay(true));
    drop(stream.set_read_timeout(Some(READ_SLICE)));
    let mut tenant: Option<TenantId> = None;
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let reply = handle_message(&payload, service, &mut tenant, acked);
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
    acked: &Mutex<HashMap<u32, u64>>,
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
            let last = *acked
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(id)
                .or_insert(0);
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
            let last = *acked
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&id.0)
                .unwrap_or(&0);
            if seq <= last {
                // Same-run retry of an already-ingested batch: ack it
                // again without re-ingesting.
                return batch_ack(seq, DegradeLevel::Full, 0, true);
            }
            let samples: Vec<Sample> = match serde_json::from_slice(&payload[9..]) {
                Ok(samples) => samples,
                Err(e) => return err(&format!("undecodable samples: {e}")),
            };
            let offered = samples.len() as u64;
            match service.ingest_batch(id, samples) {
                Ok(level) => {
                    acked
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(id.0, seq);
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
    /// Reconnections established (beyond the first connect).
    pub reconnects: u64,
}

use serde::Serialize;

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
        let reply = read_frame(&mut stream)
            .map_err(|e| net_err("read HelloAck", &e))?
            .ok_or_else(|| ProfileError::net("connection closed during Hello"))?;
        if reply.first() != Some(&MSG_HELLO_ACK) || reply.len() != 9 {
            return Err(ProfileError::net("malformed HelloAck"));
        }
        self.hello_acked = u64::from_le_bytes(reply[1..9].try_into().expect("8 bytes"));
        if self.batches_acked > 0 || self.next_seq > 0 {
            self.reconnects += 1;
        }
        self.stream = Some(stream);
        Ok(())
    }

    /// Sends one batch and waits for its acknowledgement, retrying
    /// (with reconnects and full-jitter backoff) up to the policy's
    /// budget. The batch owns the next sequence number whether or not
    /// delivery eventually succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Net`] once the retry budget is
    /// exhausted — the batch is **not** acknowledged and the caller
    /// may re-offer it later (the sequence number is reused so the
    /// server's dedup stays correct).
    pub fn send(&mut self, samples: &[Sample]) -> Result<BatchAck, ProfileError> {
        let seq = self.next_seq + 1;
        let body = serde_json::to_string(&samples.to_vec())
            .map_err(|e| ProfileError::net(format!("samples failed to serialize: {e}")))?;
        let mut payload = Vec::with_capacity(body.len() + 9);
        payload.push(MSG_BATCH);
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(body.as_bytes());

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
        let reply = read_frame(stream)
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
