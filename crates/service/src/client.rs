//! A blocking client for the scoring service.
//!
//! [`ScoringClient`] supports two styles:
//!
//! * **call/response** — [`score`](ScoringClient::score) /
//!   [`score_text`](ScoringClient::score_text) send one request and wait for
//!   its response;
//! * **pipelined** — [`send`](ScoringClient::send) many requests back to
//!   back, then [`collect`](ScoringClient::collect) the responses. Responses
//!   may arrive in any order (the server's worker pool races); `collect`
//!   returns them sorted by request id.
//!
//! The client tracks which request ids are still **in flight** (sent, not
//! yet answered). When the server disconnects mid-read — an abrupt EOF or a
//! torn frame — [`recv`](ScoringClient::recv) surfaces a distinct
//! connection-lost error ([`std::io::ErrorKind::ConnectionAborted`]) whose
//! message carries those ids, so callers know exactly which requests to
//! retry; [`ResilientClient`](crate::ResilientClient) builds its reconnect
//! and retry logic on top of this.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    decode_line, encode_line, ScoreRequest, ScoreResponse, ServiceStats, TaskKind,
};

/// A connection to a running [`ScoringServer`](crate::ScoringServer).
pub struct ScoringClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    in_flight: BTreeSet<u64>,
}

impl ScoringClient {
    /// Connect to a scoring server. Nagle's algorithm is off, so a
    /// pipelined request is sent as soon as it is flushed.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ScoringClient {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
            in_flight: BTreeSet::new(),
        })
    }

    /// The next fresh request id (each call advances the counter).
    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Request ids sent on this connection and not yet answered, in
    /// ascending order. These are the requests a caller must re-issue after
    /// a connection-lost error.
    pub fn in_flight(&self) -> Vec<u64> {
        self.in_flight.iter().copied().collect()
    }

    /// Bound how long [`recv`](ScoringClient::recv) blocks waiting for a
    /// response line (`None` restores blocking reads). A timed-out read
    /// surfaces as [`std::io::ErrorKind::TimedOut`]; the connection itself
    /// stays usable.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one request without waiting for its response (pipelining).
    pub fn send(&mut self, request: &ScoreRequest) -> std::io::Result<()> {
        self.writer.write_all(encode_line(request).as_bytes())?;
        self.writer.flush()?;
        self.in_flight.insert(request.id);
        Ok(())
    }

    /// Receive the next response, whichever request it answers.
    pub fn recv(&mut self) -> std::io::Result<ScoreResponse> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err(self.connection_lost("server closed the connection")),
                Ok(_) if !line.ends_with('\n') => {
                    // Bytes arrived but the frame never finished before EOF:
                    // the connection died mid-response (a torn frame), which
                    // is a transport failure, not a protocol error.
                    return Err(self.connection_lost("connection lost mid-frame"));
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    // A reset is a lost connection too — surface it with
                    // the same retry-friendly shape as an abrupt EOF.
                    return Err(self.connection_lost("connection reset"));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!(
                            "timed out waiting for a response ({} request(s) in flight)",
                            self.in_flight.len()
                        ),
                    ));
                }
                Err(e) => return Err(e),
            }
            if line.trim().is_empty() {
                continue;
            }
            let response: ScoreResponse = decode_line(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            self.in_flight.remove(&response.id);
            return Ok(response);
        }
    }

    /// The typed connection-lost error: [`std::io::ErrorKind::ConnectionAborted`]
    /// carrying every request id still awaiting a response.
    fn connection_lost(&self, cause: &str) -> std::io::Error {
        let ids = self.in_flight();
        std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            format!("{cause} with {} request(s) in flight: {ids:?}", ids.len()),
        )
    }

    /// Receive `count` responses and return them sorted by request id.
    pub fn collect(&mut self, count: usize) -> std::io::Result<Vec<ScoreResponse>> {
        let mut responses: Vec<ScoreResponse> = (0..count)
            .map(|_| self.recv())
            .collect::<std::io::Result<_>>()?;
        responses.sort_by_key(|r| r.id);
        Ok(responses)
    }

    /// Receive `ids.len()` responses and return them keyed by request id.
    ///
    /// Fails if the server answers with an id outside `ids` — which would
    /// mean responses are being routed to the wrong client.
    pub fn collect_by_id(&mut self, ids: &[u64]) -> std::io::Result<HashMap<u64, ScoreResponse>> {
        let mut responses = HashMap::with_capacity(ids.len());
        for _ in ids {
            let response = self.recv()?;
            if !ids.contains(&response.id) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("response for unknown request id {}", response.id),
                ));
            }
            responses.insert(response.id, response);
        }
        Ok(responses)
    }

    /// Score a batch against a built-in reference (call/response).
    pub fn score(
        &mut self,
        task: TaskKind,
        system: &str,
        hypotheses: Vec<String>,
    ) -> std::io::Result<ScoreResponse> {
        let request = ScoreRequest::by_id(self.fresh_id(), task, system, hypotheses);
        self.roundtrip(&request)
    }

    /// Score a batch against an inline reference text (call/response).
    pub fn score_text(
        &mut self,
        reference_text: &str,
        hypotheses: Vec<String>,
    ) -> std::io::Result<ScoreResponse> {
        let request = ScoreRequest::by_text(self.fresh_id(), reference_text, hypotheses);
        self.roundtrip(&request)
    }

    /// Run raw model responses through the server's full evaluation
    /// pipeline (extraction → API-call comparison → BLEU/ChrF) against a
    /// built-in reference (call/response).
    pub fn evaluate(
        &mut self,
        task: TaskKind,
        system: &str,
        responses: Vec<String>,
    ) -> std::io::Result<ScoreResponse> {
        let request = ScoreRequest::evaluate(self.fresh_id(), task, system, responses);
        self.roundtrip(&request)
    }

    /// Full-pipeline evaluation against an inline reference text; `system`
    /// selects the API catalogue used for call comparison (call/response).
    pub fn evaluate_text(
        &mut self,
        reference_text: &str,
        system: &str,
        responses: Vec<String>,
    ) -> std::io::Result<ScoreResponse> {
        let request =
            ScoreRequest::evaluate_text(self.fresh_id(), reference_text, system, responses);
        self.roundtrip(&request)
    }

    /// Run raw model responses through the server's dynamic-execution
    /// pipeline (extract → parse → engine run → trace scoring) against the
    /// built-in configuration reference for `system` (call/response).
    pub fn execute(
        &mut self,
        system: &str,
        responses: Vec<String>,
    ) -> std::io::Result<ScoreResponse> {
        let request = ScoreRequest::execute(self.fresh_id(), system, responses);
        self.roundtrip(&request)
    }

    /// Dynamic execution against an inline reference configuration;
    /// `system` selects the configuration dialect (call/response).
    pub fn execute_text(
        &mut self,
        reference_text: &str,
        system: &str,
        responses: Vec<String>,
    ) -> std::io::Result<ScoreResponse> {
        let request =
            ScoreRequest::execute_text(self.fresh_id(), reference_text, system, responses);
        self.roundtrip(&request)
    }

    /// Fetch the server's lifetime counters.
    pub fn stats(&mut self) -> std::io::Result<ServiceStats> {
        let request = ScoreRequest::stats(self.fresh_id());
        let response = self.roundtrip(&request)?;
        response.stats.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stats response carried no stats",
            )
        })
    }

    fn roundtrip(&mut self, request: &ScoreRequest) -> std::io::Result<ScoreResponse> {
        self.send(request)?;
        let response = self.recv()?;
        if response.id != request.id {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "response id {} does not match request id {} (mixing pipelined \
                     `send` with call/response methods on one connection?)",
                    response.id, request.id
                ),
            ));
        }
        Ok(response)
    }

    /// Close the sending half so the server sees EOF and tears the
    /// connection down; dropping the client has the same effect.
    pub fn close(self) {
        let _ = self.writer.into_inner().map(|s| s.shutdown(Shutdown::Both));
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;
    use crate::server::prepare_accepted;

    #[test]
    fn both_ends_of_a_connection_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = ScoringClient::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(
            !accepted.nodelay().unwrap(),
            "accepted sockets start with Nagle on"
        );
        prepare_accepted(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        assert!(client.writer.get_ref().nodelay().unwrap());
    }
}
