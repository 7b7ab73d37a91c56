//! A blocking client for the localization daemon.
//!
//! One [`Client`] wraps one TCP connection and speaks the newline-delimited
//! protocol synchronously: write a request line, read the matching response
//! line. The tests, the load generator and external callers all go through
//! this type, so the client-side encoding is exercised by the same suite
//! that exercises the server-side decoding.
//!
//! For concurrency, open one client per thread — the daemon handles any
//! number of connections, and its worker pool (not the connection count)
//! bounds the CPU actually used.
//!
//! # Robustness
//!
//! [`Client::connect_with`] takes a [`ClientConfig`] with a connect
//! timeout, a per-request timeout (applied as socket read/write timeouts)
//! and a retry budget. Every protocol operation is **idempotent** — the
//! solver is deterministic and the daemon's cache key ignores request
//! identity — so a transport failure (connection reset, timeout,
//! truncated response) or an `overloaded` shed is safely retried with
//! jittered exponential backoff: the connection is re-established and the
//! request re-sent. The jitter stream is seeded, so test runs stay
//! reproducible.

use crate::json::Json;
use crate::protocol::{encode_request, Envelope, Job, Request};
use prng::SplitMix64;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read or write).
    Io(std::io::Error),
    /// The response line was not valid protocol JSON.
    Protocol(String),
    /// The daemon answered `ok: false`.
    Server {
        /// Machine-readable error class (`overloaded`, `deadline_exceeded`,
        /// `parse_error`, `internal_error`, …); `"unknown"` for responses
        /// from daemons predating the field.
        kind: String,
        /// Human-readable message.
        message: String,
    },
    /// The retry loop ran out of the *job's own* `deadline_ms` budget:
    /// sleeping out the next backoff would blow past the deadline, so the
    /// client gives up early instead of delivering a late answer. Carries
    /// the last underlying failure for diagnosis.
    DeadlineExceeded {
        /// The last transport/shed error the retry loop was backing off
        /// from, rendered.
        last_error: String,
    },
}

impl ClientError {
    /// The machine-readable error kind, if one applies. Client-side
    /// deadline exhaustion reports the same `deadline_exceeded` kind the
    /// daemon uses for jobs that expired in its queue — callers classify
    /// both the same way.
    pub fn kind(&self) -> Option<&str> {
        match self {
            ClientError::Server { kind, .. } => Some(kind),
            ClientError::DeadlineExceeded { .. } => Some("deadline_exceeded"),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { kind, message } => write!(f, "server error ({kind}): {message}"),
            ClientError::DeadlineExceeded { last_error } => write!(
                f,
                "deadline exceeded: retry budget exhausted by the job's own \
                 deadline_ms (last error: {last_error})"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Transport knobs of a [`Client`]. The default has no timeouts and no
/// retries — exactly the pre-robustness behaviour.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Bound on each socket read/write while waiting for a response. A slow
    /// or wedged daemon surfaces as [`ClientError::Io`] with
    /// `WouldBlock`/`TimedOut` instead of hanging the caller forever.
    pub request_timeout: Option<Duration>,
    /// How many times a failed idempotent request is retried (0 = never).
    /// Transport errors reconnect first; `overloaded` sheds just back off.
    pub retries: u32,
    /// Base of the exponential backoff: attempt `n` sleeps
    /// `retry_base * 2^n` plus a uniform jitter of up to one `retry_base`.
    pub retry_base: Duration,
    /// Seed of the jitter stream (deterministic backoff in tests).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: None,
            request_timeout: None,
            retries: 0,
            retry_base: Duration::from_millis(50),
            seed: 0,
        }
    }
}

/// The result of a `localize` or `batch` call.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Whether the daemon served the job from its prepared-formula cache.
    pub cache_hit: bool,
    /// Which tier satisfied the preparation: `"memory"` (the in-memory
    /// cache), `"store"` (the persistent disk tier) or `"built"` (a cold
    /// build); `"unknown"` for daemons predating the field.
    pub tier: String,
    /// Milliseconds the daemon spent building the prepared localizer for
    /// this request (0 on a cache hit).
    pub build_ms: u64,
    /// Cache key of the prepared entry that served this request — pass it
    /// as `prev_key` to [`Client::revise`] after editing the program.
    pub key: u64,
    /// For a single-input report: `Some(false)` when the daemon answered
    /// from the report recorded for this program, options and input
    /// without running the MAX-SAT enumeration (its `stats.elapsed_ms` is
    /// then the original solve's), `Some(true)` when it solved. `None` for
    /// a batch.
    pub solved: Option<bool>,
    /// The `report` (localize) or `ranked` (batch) payload.
    pub body: Json,
}

/// The result of a `revise` call: an [`Outcome`] plus the delta-prepare
/// verdict.
#[derive(Clone, Debug)]
pub struct ReviseOutcome {
    /// The underlying localize outcome ([`Outcome::key`] is the *new*
    /// entry's key — chain it into the next revision).
    pub outcome: Outcome,
    /// The daemon's classification of the edit, e.g. `line_shift`,
    /// `dead_function`, `function_rebuild`, `global_rebuild`,
    /// `prev_missing`, `options_changed` or `cache_hit`.
    pub delta: String,
    /// `true` when the pre-edit bit-blasted preparation was reused (no
    /// function re-encoded).
    pub reused: bool,
    /// `false` when the daemon answered by remapping the pre-edit report or
    /// replaying a recorded one — no MAX-SAT enumeration ran at all
    /// ([`Outcome::solved`], unwrapped).
    pub solved: bool,
}

/// A blocking connection to the localization daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// The resolved address, kept for retry reconnects.
    addr: SocketAddr,
    config: ClientConfig,
    jitter: SplitMix64,
}

impl Client {
    /// Connects to a daemon with default transport knobs (no timeouts, no
    /// retries).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects to a daemon with explicit timeouts and retry policy.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (including connect timeout).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".to_string()))?;
        let (reader, writer) = Self::open(addr, &config)?;
        let jitter = SplitMix64::seed_from_u64(config.seed);
        Ok(Client {
            reader,
            writer,
            next_id: 1,
            addr,
            config,
            jitter,
        })
    }

    fn open(
        addr: SocketAddr,
        config: &ClientConfig,
    ) -> Result<(BufReader<TcpStream>, TcpStream), ClientError> {
        let stream = match config.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(&addr, timeout)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_read_timeout(config.request_timeout)?;
        stream.set_write_timeout(config.request_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok((reader, stream))
    }

    /// Drops the (possibly broken) connection and dials a fresh one.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let (reader, writer) = Self::open(self.addr, &self.config)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    /// Sends one request and reads the matching response object, without
    /// retrying.
    fn call_once(&mut self, request: &Request) -> Result<Json, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let line = encode_request(&Envelope {
            id,
            request: request.clone(),
        });
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            // A truncated exchange is a transport failure (the daemon died,
            // or a middlebox cut the connection) — classified as Io so the
            // retry loop treats it like any other broken pipe.
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a response arrived",
            )));
        }
        let value =
            Json::parse(response.trim_end()).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if value.get("id").and_then(Json::as_u64) != Some(id) {
            return Err(ClientError::Protocol(format!(
                "response id does not match request id {id}: {value}"
            )));
        }
        match value.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(value),
            Some(false) => Err(ClientError::Server {
                kind: value
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: value
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown server error")
                    .to_string(),
            }),
            None => Err(ClientError::Protocol(format!(
                "response has no ok field: {value}"
            ))),
        }
    }

    /// [`Client::call_once`] plus the retry loop for idempotent requests:
    /// transport failures reconnect and resend, `overloaded` sheds back
    /// off and resend, everything else (and an exhausted budget) returns
    /// the error.
    ///
    /// A job that carries its own `deadline_ms` additionally caps the
    /// retry loop's **total wall time**: when the next backoff sleep would
    /// land past the deadline, the loop stops with a client-side
    /// [`ClientError::DeadlineExceeded`] instead of retrying an answer the
    /// caller can no longer use. (Without the cap, `retries` exponential
    /// backoffs against a down daemon could block for far longer than the
    /// job's whole budget.)
    fn call(&mut self, request: Request) -> Result<Json, ClientError> {
        let budget = match &request {
            Request::Localize(job) | Request::Batch(job) | Request::Revise { job, .. } => {
                job.deadline_ms.map(Duration::from_millis)
            }
            _ => None,
        };
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            let result = self.call_once(&request);
            let (err, reconnect) = match result {
                Ok(value) => return Ok(value),
                Err(err @ ClientError::Io(_)) => (err, true),
                Err(err) if err.kind() == Some("overloaded") => (err, false),
                Err(err) => return Err(err),
            };
            if attempt >= self.config.retries {
                return Err(err);
            }
            let base = self.config.retry_base;
            let jitter_ms = if base.as_millis() == 0 {
                0
            } else {
                self.jitter.gen_range(0..=base.as_millis() as u64)
            };
            let backoff = base * 2u32.saturating_pow(attempt) + Duration::from_millis(jitter_ms);
            if let Some(budget) = budget {
                if started.elapsed() + backoff >= budget {
                    return Err(ClientError::DeadlineExceeded {
                        last_error: err.to_string(),
                    });
                }
            }
            std::thread::sleep(backoff);
            if reconnect {
                self.reconnect()?;
            }
            attempt += 1;
        }
    }

    fn outcome(value: Json, payload_key: &str) -> Result<Outcome, ClientError> {
        let cache_hit = match value.get("cache").and_then(Json::as_str) {
            Some("hit") => true,
            Some("miss") => false,
            _ => {
                return Err(ClientError::Protocol(format!(
                    "response has no cache field: {value}"
                )))
            }
        };
        let tier = value
            .get("tier")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let build_ms = value.get("build_ms").and_then(Json::as_u64).unwrap_or(0);
        let key = value
            .get("key")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol(format!("response has no key field: {value}")))?;
        let solved = value.get("solved").and_then(Json::as_bool);
        let body = value
            .get(payload_key)
            .cloned()
            .ok_or_else(|| ClientError::Protocol(format!("missing {payload_key}: {value}")))?;
        Ok(Outcome {
            cache_hit,
            tier,
            build_ms,
            key,
            solved,
            body,
        })
    }

    /// Localizes the single failing input of `job`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries daemon-side failures (parse, type,
    /// encode or localization errors) verbatim, with a machine-readable
    /// `kind`.
    pub fn localize(&mut self, job: Job) -> Result<Outcome, ClientError> {
        let value = self.call(Request::Localize(job))?;
        Self::outcome(value, "report")
    }

    /// Localizes every input of `job` and returns the merged ranking.
    ///
    /// # Errors
    ///
    /// See [`Client::localize`].
    pub fn batch(&mut self, job: Job) -> Result<Outcome, ClientError> {
        let value = self.call(Request::Batch(job))?;
        Self::outcome(value, "ranked")
    }

    /// Localizes the single failing input of `job` — an *edited* revision
    /// of a program previously served under `prev_key` — letting the daemon
    /// delta-prepare against the cached pre-edit entry. The report is
    /// byte-identical to what a plain [`Client::localize`] of the same
    /// source would return; only the preparation cost differs.
    ///
    /// # Errors
    ///
    /// See [`Client::localize`].
    pub fn revise(&mut self, job: Job, prev_key: u64) -> Result<ReviseOutcome, ClientError> {
        let value = self.call(Request::Revise { job, prev_key })?;
        let delta = value
            .get("delta")
            .and_then(Json::as_str)
            .ok_or_else(|| ClientError::Protocol(format!("revise without delta: {value}")))?
            .to_string();
        let reused = value
            .get("reused")
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError::Protocol(format!("revise without reused: {value}")))?;
        let outcome = Self::outcome(value, "report")?;
        let solved = outcome.solved.ok_or_else(|| {
            ClientError::Protocol(format!("revise without solved: {:?}", outcome.body))
        })?;
        Ok(ReviseOutcome {
            outcome,
            delta,
            reused,
            solved,
        })
    }

    /// Lints a program without encoding it: returns the daemon's
    /// structured diagnostics array (objects with `line`, `kind`,
    /// `severity`, `message`), sorted by line. `width` is the encoding
    /// width the truncation lint checks literals against.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with kind `parse_error` when the program
    /// does not parse; transport and protocol errors as usual.
    pub fn analyze(
        &mut self,
        program: impl Into<String>,
        width: usize,
    ) -> Result<Json, ClientError> {
        let value = self.call(Request::Analyze {
            program: program.into(),
            width,
        })?;
        value
            .get("diagnostics")
            .cloned()
            .ok_or_else(|| ClientError::Protocol(format!("analyze without diagnostics: {value}")))
    }

    /// Liveness probe; returns the daemon's uptime in milliseconds.
    ///
    /// # Errors
    ///
    /// Fails only on transport or protocol errors.
    pub fn health(&mut self) -> Result<u64, ClientError> {
        let value = self.call(Request::Health)?;
        value
            .get("uptime_ms")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol(format!("health without uptime_ms: {value}")))
    }

    /// The full `health` response object: liveness plus the load signals a
    /// load balancer or operator reads to spot a struggling daemon —
    /// `queue_depth`, `queue_capacity`, `active_lanes`, `shed`, `expired`,
    /// `shed_rate` and the `store` restore/write status.
    ///
    /// # Errors
    ///
    /// Fails only on transport or protocol errors.
    pub fn health_report(&mut self) -> Result<Json, ClientError> {
        self.call(Request::Health)
    }

    /// The daemon's cache/queue/solver counters, as raw JSON.
    ///
    /// # Errors
    ///
    /// Fails only on transport or protocol errors.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call(Request::Stats)
    }

    /// The same counters in Prometheus text exposition format, ready to
    /// relay to a scraper.
    ///
    /// # Errors
    ///
    /// Fails only on transport or protocol errors.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let value = self.call(Request::Metrics)?;
        value
            .get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol(format!("metrics without text: {value}")))
    }

    /// Asks the daemon to drain and exit. The daemon acknowledges, then
    /// closes this connection. Never retried (a retry would race the
    /// daemon's own teardown of this connection).
    ///
    /// # Errors
    ///
    /// Fails only on transport or protocol errors.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call_once(&Request::Shutdown).map(|_| ())
    }
}
