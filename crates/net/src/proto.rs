//! The coral-net wire protocol.
//!
//! Every frame is a 4-byte big-endian payload length followed by the
//! payload; the first payload byte is the opcode. Strings are UTF-8
//! with a u32 BE length prefix; terms and tuples use the transport
//! encoding of [`coral_rel::encoding`] (`encode_term_wire` /
//! `encode_tuple_wire`), which round-trips bignums, variables and
//! nested functor terms in addition to the storage-layer primitives.
//!
//! Requests (client → server):
//!
//! | opcode | frame          | payload                         |
//! |--------|----------------|---------------------------------|
//! | 0x01   | Consult        | program text                    |
//! | 0x02   | Query          | query text (`?- p(X).`)         |
//! | 0x03   | NextAnswer     | u32 batch size                  |
//! | 0x04   | CancelQuery    | —                               |
//! | 0x05   | SetProfiling   | u8 on/off                       |
//! | 0x06   | GetProfile     | —                               |
//! | 0x07   | Checkpoint     | —                               |
//! | 0x08   | Ping           | —                               |
//! | 0x09   | Quit           | —                               |
//! | 0x0A   | Check          | —                               |
//!
//! Responses (server → client):
//!
//! | opcode | frame          | payload                         |
//! |--------|----------------|---------------------------------|
//! | 0x81   | Ok             | —                               |
//! | 0x82   | ConsultOk      | answers of embedded queries     |
//! | 0x83   | Batch          | u8 done, u8 marker, \[reason\], answers |
//! | 0x84   | Error          | u16 code, message               |
//! | 0x85   | Profile        | u8 present, JSON text           |
//! | 0x86   | Pong           | —                               |
//! | 0x87   | Report         | report text                     |
//! | 0x88   | Retry          | u32 suggested backoff (ms)      |
//!
//! A `Query` is acknowledged with `Ok`; answers are then pulled with
//! `NextAnswer`, preserving the engine's pipelined get-next-tuple
//! laziness (§5.6) across the connection: the server materialises only
//! the batch the client asked for.

use crate::error::{ErrorCode, NetError, NetResult};
use coral_core::Answer;
use coral_rel::encoding::{
    decode_term_wire, decode_tuple_wire, encode_term_wire, encode_tuple_wire,
};
use std::io::{Read, Write};
use std::sync::Arc;

/// Default cap on a single frame's payload (16 MiB). Guards the server
/// against a misbehaving client allocating unbounded memory; raise it
/// in [`crate::ServerConfig`] for bulk consults.
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// A request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Consult program text in the connection's session.
    Consult(String),
    /// Open a query; at most one query is open per connection.
    Query(String),
    /// Pull up to `k` answers from the open query.
    NextAnswer(u32),
    /// Close the open query without draining it.
    CancelQuery,
    /// Toggle session-wide profiling.
    SetProfiling(bool),
    /// Fetch the profile of the last profiled query as JSON.
    GetProfile,
    /// Checkpoint the server's storage (flush + truncate the WAL).
    Checkpoint,
    /// Integrity-check the server's storage and the session's
    /// persistent relations; answered with [`Response::Report`].
    Check,
    /// Liveness check.
    Ping,
    /// Close the connection after acknowledging.
    Quit,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Generic acknowledgement.
    Ok,
    /// Consult succeeded; answers of embedded queries in order.
    ConsultOk(Vec<Vec<Answer>>),
    /// A batch of answers; `done` means the query is exhausted and
    /// closed (a final empty batch carries `done = true`).
    Batch {
        /// The pulled answers (may be fewer than requested).
        answers: Vec<Answer>,
        /// Whether the query produced its last answer.
        done: bool,
        /// `Some(reason)` when the answer stream was cut short by the
        /// resource governor: the answers delivered so far are valid
        /// but the set is incomplete. Implies `done` (the query is
        /// closed).
        truncated: Option<String>,
    },
    /// The request failed.
    Error {
        /// Stable error code; see [`ErrorCode`].
        code: u16,
        /// Rendered message.
        msg: String,
    },
    /// Profile JSON, or absent if no profiled query has run.
    Profile(Option<String>),
    /// Reply to [`Request::Ping`].
    Pong,
    /// Rendered report text (reply to [`Request::Check`]).
    Report(String),
    /// The server shed this request under overload; retry after the
    /// suggested backoff. The session's state is untouched.
    Retry {
        /// Suggested client backoff in milliseconds.
        after_ms: u32,
    },
}

const OP_CONSULT: u8 = 0x01;
const OP_QUERY: u8 = 0x02;
const OP_NEXT_ANSWER: u8 = 0x03;
const OP_CANCEL_QUERY: u8 = 0x04;
const OP_SET_PROFILING: u8 = 0x05;
const OP_GET_PROFILE: u8 = 0x06;
const OP_CHECKPOINT: u8 = 0x07;
const OP_PING: u8 = 0x08;
const OP_QUIT: u8 = 0x09;
const OP_CHECK: u8 = 0x0A;

const OP_OK: u8 = 0x81;
const OP_CONSULT_OK: u8 = 0x82;
const OP_BATCH: u8 = 0x83;
const OP_ERROR: u8 = 0x84;
const OP_PROFILE: u8 = 0x85;
const OP_PONG: u8 = 0x86;
const OP_REPORT: u8 = 0x87;
const OP_RETRY: u8 = 0x88;

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over a payload; every read is bounds-checked so corrupt
/// frames surface as [`NetError::Protocol`], never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> NetResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| NetError::Protocol("truncated frame".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> NetResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> NetResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> NetResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn str(&mut self) -> NetResult<String> {
        self.str_ref().map(str::to_owned)
    }

    /// A string borrowed from the payload.
    fn str_ref(&mut self) -> NetResult<&'a str> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        std::str::from_utf8(b).map_err(|_| NetError::Protocol("invalid UTF-8".into()))
    }

    /// Decode one wire term starting at the cursor.
    fn term(&mut self) -> NetResult<coral_term::Term> {
        let (t, used) = decode_term_wire(&self.bytes[self.pos..])
            .map_err(|e| NetError::Protocol(format!("bad term encoding: {e}")))?;
        self.pos += used;
        Ok(t)
    }

    /// Decode one wire tuple starting at the cursor.
    fn tuple(&mut self) -> NetResult<coral_term::Tuple> {
        let (t, used) = decode_tuple_wire(&self.bytes[self.pos..])
            .map_err(|e| NetError::Protocol(format!("bad tuple encoding: {e}")))?;
        self.pos += used;
        Ok(t)
    }

    fn done(&self) -> NetResult<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(NetError::Protocol("trailing bytes in frame".into()))
        }
    }
}

fn push_answer(out: &mut Vec<u8>, a: &Answer) -> NetResult<()> {
    let enc = |e: coral_rel::RelError| NetError::Protocol(format!("unencodable answer: {e}"));
    out.extend_from_slice(&encode_tuple_wire(&a.tuple).map_err(enc)?);
    let bindings = a.bindings();
    push_u32(out, bindings.len() as u32);
    for (name, term) in bindings {
        push_str(out, name);
        encode_term_wire(out, term).map_err(enc)?;
    }
    Ok(())
}

fn push_answers(out: &mut Vec<u8>, answers: &[Answer]) -> NetResult<()> {
    push_u32(out, answers.len() as u32);
    for a in answers {
        push_answer(out, a)?;
    }
    Ok(())
}

fn read_answers(c: &mut Cursor<'_>) -> NetResult<Vec<Answer>> {
    let n = c.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    // Answers of one query repeat their names: the list is allocated
    // once and shared for as long as the wire repeats it.
    let mut names: Arc<[String]> = Arc::new([]);
    let mut wire_names = Vec::new();
    for _ in 0..n {
        let tuple = c.tuple()?;
        let k = c.u32()? as usize;
        let mut values = Vec::with_capacity(k.min(1024));
        wire_names.clear();
        for _ in 0..k {
            wire_names.push(c.str_ref()?);
            values.push(c.term()?);
        }
        if names.iter().ne(&wire_names) {
            names = wire_names.iter().map(|s| s.to_string()).collect();
        }
        out.push(Answer::new(tuple, Arc::clone(&names), values));
    }
    Ok(out)
}

impl Request {
    /// Serialise into a payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Consult(src) => {
                out.push(OP_CONSULT);
                push_str(&mut out, src);
            }
            Request::Query(src) => {
                out.push(OP_QUERY);
                push_str(&mut out, src);
            }
            Request::NextAnswer(k) => {
                out.push(OP_NEXT_ANSWER);
                push_u32(&mut out, *k);
            }
            Request::CancelQuery => out.push(OP_CANCEL_QUERY),
            Request::SetProfiling(on) => {
                out.push(OP_SET_PROFILING);
                out.push(*on as u8);
            }
            Request::GetProfile => out.push(OP_GET_PROFILE),
            Request::Checkpoint => out.push(OP_CHECKPOINT),
            Request::Ping => out.push(OP_PING),
            Request::Quit => out.push(OP_QUIT),
            Request::Check => out.push(OP_CHECK),
        }
        out
    }

    /// Parse a payload.
    pub fn decode(payload: &[u8]) -> NetResult<Request> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            OP_CONSULT => Request::Consult(c.str()?),
            OP_QUERY => Request::Query(c.str()?),
            OP_NEXT_ANSWER => Request::NextAnswer(c.u32()?),
            OP_CANCEL_QUERY => Request::CancelQuery,
            OP_SET_PROFILING => Request::SetProfiling(c.u8()? != 0),
            OP_GET_PROFILE => Request::GetProfile,
            OP_CHECKPOINT => Request::Checkpoint,
            OP_PING => Request::Ping,
            OP_QUIT => Request::Quit,
            OP_CHECK => Request::Check,
            op => {
                return Err(NetError::Protocol(format!(
                    "unknown request opcode {op:#04x}"
                )))
            }
        };
        c.done()?;
        Ok(req)
    }
}

impl Response {
    /// Serialise into a payload (no length prefix).
    pub fn encode(&self) -> NetResult<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Response::Ok => out.push(OP_OK),
            Response::ConsultOk(queries) => {
                out.push(OP_CONSULT_OK);
                push_u32(&mut out, queries.len() as u32);
                for answers in queries {
                    push_answers(&mut out, answers)?;
                }
            }
            Response::Batch {
                answers,
                done,
                truncated,
            } => {
                out.push(OP_BATCH);
                out.push(*done as u8);
                match truncated {
                    Some(reason) => {
                        out.push(1);
                        push_str(&mut out, reason);
                    }
                    None => out.push(0),
                }
                push_answers(&mut out, answers)?;
            }
            Response::Error { code, msg } => {
                out.push(OP_ERROR);
                out.extend_from_slice(&code.to_be_bytes());
                push_str(&mut out, msg);
            }
            Response::Profile(json) => {
                out.push(OP_PROFILE);
                match json {
                    Some(j) => {
                        out.push(1);
                        push_str(&mut out, j);
                    }
                    None => out.push(0),
                }
            }
            Response::Pong => out.push(OP_PONG),
            Response::Report(text) => {
                out.push(OP_REPORT);
                push_str(&mut out, text);
            }
            Response::Retry { after_ms } => {
                out.push(OP_RETRY);
                push_u32(&mut out, *after_ms);
            }
        }
        Ok(out)
    }

    /// Parse a payload.
    pub fn decode(payload: &[u8]) -> NetResult<Response> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            OP_OK => Response::Ok,
            OP_CONSULT_OK => {
                let n = c.u32()? as usize;
                let mut queries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    queries.push(read_answers(&mut c)?);
                }
                Response::ConsultOk(queries)
            }
            OP_BATCH => {
                let done = c.u8()? != 0;
                let truncated = if c.u8()? != 0 { Some(c.str()?) } else { None };
                let answers = read_answers(&mut c)?;
                Response::Batch {
                    answers,
                    done,
                    truncated,
                }
            }
            OP_ERROR => {
                let code = c.u16()?;
                let msg = c.str()?;
                Response::Error { code, msg }
            }
            OP_PROFILE => {
                let present = c.u8()? != 0;
                let json = if present { Some(c.str()?) } else { None };
                Response::Profile(json)
            }
            OP_PONG => Response::Pong,
            OP_REPORT => Response::Report(c.str()?),
            OP_RETRY => Response::Retry { after_ms: c.u32()? },
            op => {
                return Err(NetError::Protocol(format!(
                    "unknown response opcode {op:#04x}"
                )))
            }
        };
        c.done()?;
        Ok(resp)
    }

    /// Convert a remote `Error` frame into a [`NetError::Remote`];
    /// other responses pass through.
    pub fn into_result(self) -> NetResult<Response> {
        match self {
            Response::Error { code, msg } => Err(NetError::Remote {
                code: ErrorCode::from_u16(code).unwrap_or(ErrorCode::Protocol),
                msg,
            }),
            other => Ok(other),
        }
    }
}

/// Write one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> NetResult<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| NetError::Protocol("frame exceeds u32 length".into()))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame, enforcing `max_frame`. The length prefix is read
/// fully before the size check, so an oversized announcement is
/// rejected without allocating.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> NetResult<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > max_frame {
        return Err(NetError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_term::{Term, Tuple};

    fn rt_req(r: Request) {
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    fn rt_resp(r: Response) {
        assert_eq!(Response::decode(&r.encode().unwrap()).unwrap(), r);
    }

    #[test]
    fn requests_roundtrip() {
        rt_req(Request::Consult("p(1). p(2).".into()));
        rt_req(Request::Query("?- p(X).".into()));
        rt_req(Request::NextAnswer(64));
        rt_req(Request::CancelQuery);
        rt_req(Request::SetProfiling(true));
        rt_req(Request::SetProfiling(false));
        rt_req(Request::GetProfile);
        rt_req(Request::Checkpoint);
        rt_req(Request::Check);
        rt_req(Request::Ping);
        rt_req(Request::Quit);
    }

    #[test]
    fn responses_roundtrip() {
        rt_resp(Response::Ok);
        rt_resp(Response::Pong);
        rt_resp(Response::Profile(None));
        rt_resp(Response::Profile(Some("{\"a\":1}".into())));
        rt_resp(Response::Report(String::new()));
        rt_resp(Response::Report("ok: 3 files, no problems\n".into()));
        rt_resp(Response::Error {
            code: ErrorCode::UnknownPredicate as u16,
            msg: "unknown predicate q/1".into(),
        });
        let a = Answer::new(
            Tuple::new(vec![
                Term::int(1),
                Term::app("f".into(), vec![Term::var(0)]),
            ]),
            vec!["X".into(), "Y".into()].into(),
            vec![Term::int(1), Term::app("f".into(), vec![Term::var(0)])],
        );
        let b = Answer::new(Tuple::new(vec![]), Arc::new([]), vec![]);
        rt_resp(Response::Batch {
            answers: vec![a.clone(), b.clone()],
            done: false,
            truncated: None,
        });
        rt_resp(Response::Batch {
            answers: vec![],
            done: true,
            truncated: None,
        });
        rt_resp(Response::Batch {
            answers: vec![a.clone()],
            done: true,
            truncated: Some("budget exceeded: tuples limit 100 (used 100)".into()),
        });
        rt_resp(Response::Retry { after_ms: 0 });
        rt_resp(Response::Retry { after_ms: 250 });
        rt_resp(Response::ConsultOk(vec![vec![a], vec![], vec![b]]));
    }

    /// An answer read off its tuple by the query's binding plan and one
    /// that owns the same bindings are the same answer on the wire.
    #[test]
    fn positional_and_owned_answers_encode_alike() {
        let s = coral_core::Session::new();
        s.consult_str("e(1, 2, 2). e(1, 3, 3). e(2, 4, 4). e(1, 5, 6).")
            .unwrap();
        let positional = s.query_all("e(1, X, X)").unwrap();
        assert_eq!(positional.len(), 2);
        let owned: Vec<Answer> = positional
            .iter()
            .map(|a| {
                let (names, values): (Vec<String>, Vec<Term>) = a
                    .bindings()
                    .map(|(n, t)| (n.to_string(), t.clone()))
                    .unzip();
                Answer::new(a.tuple.clone(), names.into(), values)
            })
            .collect();
        let batch = |answers: &[Answer]| Response::Batch {
            answers: answers.to_vec(),
            done: false,
            truncated: None,
        };
        let bytes = batch(&positional).encode().unwrap();
        assert_eq!(bytes, batch(&owned).encode().unwrap());
        match Response::decode(&bytes).unwrap() {
            Response::Batch { answers, .. } => {
                assert_eq!(answers, positional);
                assert_eq!(answers, owned);
            }
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_payloads_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x7f]).is_err());
        assert!(Response::decode(&[0x01]).is_err());
        // Truncated string length.
        assert!(Request::decode(&[0x01, 0, 0]).is_err());
        // String length past the end.
        assert!(Request::decode(&[0x01, 0, 0, 0, 10, b'x']).is_err());
        // Trailing garbage.
        assert!(Request::decode(&[0x08, 0xff]).is_err());
        // Huge announced binding count must not pre-allocate or panic.
        let mut p = vec![OP_BATCH, 0];
        p.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(Response::decode(&p).is_err());
    }

    #[test]
    fn frames_roundtrip_and_enforce_limit() {
        let payload = Request::Ping.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(read_frame(&mut buf.as_slice(), 1024).unwrap(), payload);

        let big = vec![0u8; 100];
        let mut buf = Vec::new();
        write_frame(&mut buf, &big).unwrap();
        match read_frame(&mut buf.as_slice(), 10) {
            Err(NetError::FrameTooLarge { len: 100, max: 10 }) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }
}
