//! The `soccar serve` wire protocol.
//!
//! Transport: TCP (loopback by default). Every message is a **frame** —
//! a 4-byte big-endian payload length followed by that many bytes of
//! UTF-8 JSON. A request is one frame; a response is exactly **two**
//! frames:
//!
//! 1. the **envelope** — machine-readable outcome (`ok`, `kind`,
//!    `error`, health, violation count, per-request cache stats);
//! 2. the **body** — the deliverable, verbatim (possibly empty). For
//!    `analyze` it is the canonical report JSON, byte-identical to
//!    `soccar analyze --json`; for `lint` the lint report JSON,
//!    byte-identical to `soccar lint --json`; for `status` the server
//!    status JSON.
//!
//! Carrying the body out-of-band (instead of nesting it in the envelope)
//! is what makes the byte-equality guarantee trivial to state and test:
//! clients print the body as received, no re-encoding anywhere. Requests
//! are decoded with the strict, depth-limited [`soccar_obs::json::Json`]
//! reader; responses are encoded with [`soccar::json`]. Full field
//! reference in `docs/SERVER.md`.

use std::io::{Read, Write};

use serde::Serialize;
use soccar::RequestStats;

use soccar_obs::json::Json;

/// Upper bound on a frame payload (64 MiB) — larger lengths are treated
/// as protocol corruption, not allocation requests.
pub const MAX_FRAME: u32 = 64 << 20;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `None` on clean EOF at a
/// frame boundary (the peer closed the connection between messages).
///
/// # Errors
///
/// Propagates I/O failures; rejects lengths over [`MAX_FRAME`]; EOF in
/// the middle of a frame is [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// One request to the daemon. A single flat struct covers all four
/// commands; fields irrelevant to a command are ignored by the server.
#[derive(Debug, Clone, Serialize)]
pub struct Request {
    /// `analyze`, `lint`, `status`, or `shutdown`.
    pub cmd: String,
    /// Display name of the source (diagnostics cite it).
    pub file_name: String,
    /// Verilog source text (empty when `soc` names a bundled model).
    pub source: String,
    /// Bundled evaluation SoC (`clustersoc` / `autosoc`; empty = none).
    /// Brings the model's catalog properties and symbolic inputs along,
    /// exactly like `soccar analyze --soc`.
    pub soc: String,
    /// Bug-seeded variant of the bundled SoC.
    pub variant: Option<u32>,
    /// Top module (defaults to the bundled SoC's top when `soc` is set).
    pub top: String,
    /// Security property specs, in the CLI's colon syntax.
    pub properties: Vec<String>,
    /// Additional symbolic top-level inputs.
    pub symbolic: Vec<String>,
    /// Use the refined (implicit-governor) analysis.
    pub refined: bool,
    /// Simulation horizon per round (server default when absent).
    pub cycles: Option<u64>,
    /// Max concolic rounds (server default when absent).
    pub rounds: Option<u64>,
    /// Per-flip-solve SAT conflict budget (QoS).
    pub solver_budget: Option<u64>,
    /// Degrade instead of aborting on worker panics (QoS).
    pub keep_going: bool,
    /// Lint rules to disable (lint command).
    pub allow: Vec<String>,
    /// Lint rules to escalate to errors (lint command).
    pub deny: Vec<String>,
}

impl Request {
    /// An empty request scaffold for `cmd`.
    #[must_use]
    pub fn new(cmd: &str) -> Request {
        Request {
            cmd: cmd.to_owned(),
            file_name: String::new(),
            source: String::new(),
            soc: String::new(),
            variant: None,
            top: String::new(),
            properties: Vec::new(),
            symbolic: Vec::new(),
            refined: false,
            cycles: None,
            rounds: None,
            solver_budget: None,
            keep_going: false,
            allow: Vec::new(),
            deny: Vec::new(),
        }
    }

    /// Serializes for the wire.
    ///
    /// # Errors
    ///
    /// Only if serialization reports a custom error (it cannot here).
    pub fn to_json(&self) -> Result<String, soccar::json::JsonError> {
        soccar::json::to_json(self)
    }

    /// Decodes a request frame. An absent or `null` field takes its
    /// default; unknown fields are ignored.
    ///
    /// # Errors
    ///
    /// On malformed JSON, a missing/unknown `cmd`, a field of the wrong
    /// type, or an integer out of its field's range (`variant` is a
    /// `u32`, the other integers `u64`), naming the field.
    pub fn from_json(text: &str) -> Result<Request, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let v = Fields(&v);
        let cmd = v
            .string("cmd")?
            .ok_or_else(|| "request missing `cmd`".to_owned())?;
        if !matches!(cmd, "analyze" | "lint" | "status" | "shutdown") {
            return Err(format!("unknown command `{cmd}`"));
        }
        let mut req = Request::new(cmd);
        req.file_name = v.string("file_name")?.unwrap_or_default().to_owned();
        req.source = v.string("source")?.unwrap_or_default().to_owned();
        req.soc = v.string("soc")?.unwrap_or_default().to_owned();
        req.variant = v
            .integer("variant", u32::MAX.into())?
            .map(|n| u32::try_from(n).expect("within the range checked"));
        req.top = v.string("top")?.unwrap_or_default().to_owned();
        req.properties = v.strings("properties")?;
        req.symbolic = v.strings("symbolic")?;
        req.refined = v.flag("refined")?;
        req.cycles = v.integer("cycles", u64::MAX)?;
        req.rounds = v.integer("rounds", u64::MAX)?;
        req.solver_budget = v.integer("solver_budget", u64::MAX)?;
        req.keep_going = v.flag("keep_going")?;
        req.allow = v.strings("allow")?;
        req.deny = v.strings("deny")?;
        Ok(req)
    }
}

/// A request's fields, read by type: an absent or `null` field is
/// `None`, and a present field of another type is an error that names
/// it, never a silent default.
struct Fields<'a>(&'a Json);

impl<'a> Fields<'a> {
    /// Field `key` through `read`, which accepts what `want` describes.
    fn read<T>(
        &self,
        key: &str,
        want: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.0.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => read(value)
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be {want}")),
        }
    }

    fn string(&self, key: &str) -> Result<Option<&'a str>, String> {
        self.read(key, "a string", Json::as_str)
    }

    /// An integer from 0 to `max`, read exactly (see [`Json::Int`]).
    fn integer(&self, key: &str, max: u64) -> Result<Option<u64>, String> {
        let n = self.read(key, &format!("an integer from 0 to {max}"), Json::as_u64)?;
        match n {
            Some(n) if n > max => Err(format!("`{key}` {n} is out of range (max {max})")),
            n => Ok(n),
        }
    }

    /// A boolean, `false` when absent.
    fn flag(&self, key: &str) -> Result<bool, String> {
        Ok(self
            .read(key, "true or false", Json::as_bool)?
            .unwrap_or(false))
    }

    /// An array of strings, empty when absent.
    fn strings(&self, key: &str) -> Result<Vec<String>, String> {
        let strings = self.read(key, "an array of strings", |v| {
            let items = v.as_arr()?.iter();
            items.map(|item| item.as_str().map(str::to_owned)).collect()
        })?;
        Ok(strings.unwrap_or_default())
    }
}

/// The first response frame: outcome metadata for every command.
#[derive(Debug, Clone, Serialize)]
pub struct Envelope {
    /// The request was served without error.
    pub ok: bool,
    /// Echo of the request command (or `error`).
    pub kind: String,
    /// Error message (empty on success).
    pub error: String,
    /// Aggregated run health: `ok` or `degraded`.
    pub health: String,
    /// Degradation reasons (empty when healthy).
    pub degraded_reasons: Vec<String>,
    /// Detected violations (analyze) or error-level findings (lint).
    pub violations: u64,
    /// What the session reused vs recomputed for this request
    /// (analyze only).
    pub stats: Option<RequestStats>,
    /// How long a shed client should wait before retrying, ms
    /// (`busy` envelopes only; 0 otherwise).
    pub retry_after_ms: u64,
}

impl Envelope {
    /// A success envelope for `kind` with healthy defaults.
    #[must_use]
    pub fn ok(kind: &str) -> Envelope {
        Envelope {
            ok: true,
            kind: kind.to_owned(),
            error: String::new(),
            health: "ok".to_owned(),
            degraded_reasons: Vec::new(),
            violations: 0,
            stats: None,
            retry_after_ms: 0,
        }
    }

    /// An error envelope.
    #[must_use]
    pub fn error(message: &str) -> Envelope {
        Envelope {
            ok: false,
            kind: "error".to_owned(),
            error: message.to_owned(),
            health: "ok".to_owned(),
            degraded_reasons: Vec::new(),
            violations: 0,
            stats: None,
            retry_after_ms: 0,
        }
    }

    /// A load-shedding envelope: admission is saturated, retry after
    /// `retry_after_ms`. Structured (`kind: "busy"`) so clients back off
    /// instead of reading it as a hard failure.
    #[must_use]
    pub fn busy(retry_after_ms: u64) -> Envelope {
        Envelope {
            ok: false,
            kind: "busy".to_owned(),
            error: "server busy: admission saturated".to_owned(),
            health: "ok".to_owned(),
            degraded_reasons: Vec::new(),
            violations: 0,
            stats: None,
            retry_after_ms,
        }
    }

    /// `true` for a load-shedding envelope — the one failure a client
    /// should always treat as retryable.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        !self.ok && self.kind == "busy"
    }

    /// Serializes for the wire.
    ///
    /// # Errors
    ///
    /// Only if serialization reports a custom error (it cannot here).
    pub fn to_json(&self) -> Result<String, soccar::json::JsonError> {
        soccar::json::to_json(self)
    }

    /// Decodes an envelope frame (the client side).
    ///
    /// # Errors
    ///
    /// On malformed JSON or a missing `ok` field.
    pub fn from_json(text: &str) -> Result<Envelope, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| "envelope missing `ok`".to_owned())?;
        Ok(Envelope {
            ok,
            kind: v.str_field("kind").unwrap_or_default().to_owned(),
            error: v.str_field("error").unwrap_or_default().to_owned(),
            health: v.str_field("health").unwrap_or("ok").to_owned(),
            degraded_reasons: v.str_list_field("degraded_reasons"),
            violations: v.u64_field("violations").unwrap_or(0),
            // The client never needs the stats breakdown; tests that do
            // parse the envelope JSON directly.
            stats: None,
            retry_after_ms: v.u64_field("retry_after_ms").unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean eof");
    }

    #[test]
    fn truncated_frames_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // header + 2 payload bytes
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
        // EOF inside the header is also an error, not a clean close.
        let mut r = std::io::Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = (MAX_FRAME + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"x");
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn requests_round_trip_with_verilog_payload() {
        let mut req = Request::new("analyze");
        req.file_name = "t.v".into();
        req.source = "module top(input clk);\n  // \"tricky\"\\\nendmodule\n".into();
        req.top = "top".into();
        req.properties = vec!["cleared:k:ip:top.rst_n:top.u.key:8".into()];
        req.symbolic = vec!["top.magic".into()];
        req.refined = true;
        req.cycles = Some(8);
        req.rounds = Some(2);
        req.solver_budget = Some(100);
        req.keep_going = true;
        let decoded = Request::from_json(&req.to_json().unwrap()).unwrap();
        assert_eq!(decoded.cmd, "analyze");
        assert_eq!(decoded.source, req.source);
        assert_eq!(decoded.properties, req.properties);
        assert_eq!(decoded.cycles, Some(8));
        assert_eq!(decoded.solver_budget, Some(100));
        assert!(decoded.refined && decoded.keep_going);
    }

    #[test]
    fn out_of_range_variant_is_rejected_not_truncated() {
        let err =
            Request::from_json(r#"{"cmd":"analyze","soc":"clustersoc","variant":4294967299}"#)
                .expect_err("a variant past u32 must not wrap to 3");
        assert_eq!(err, "`variant` 4294967299 is out of range (max 4294967295)");
        let req =
            Request::from_json(r#"{"cmd":"analyze","variant":4294967295}"#).expect("u32::MAX");
        assert_eq!(req.variant, Some(u32::MAX));
    }

    /// A present field of the wrong type, or an integer that is not
    /// exactly a value of its field, is an error naming the field, not a
    /// default.
    #[test]
    fn invalid_fields_are_named_errors() {
        let u64_range = format!("an integer from 0 to {}", u64::MAX);
        for (fields, error) in [
            (
                r#""variant":-1"#,
                "`variant` must be an integer from 0 to 4294967295",
            ),
            (
                r#""variant":2.5"#,
                "`variant` must be an integer from 0 to 4294967295",
            ),
            (
                r#""variant":"1""#,
                "`variant` must be an integer from 0 to 4294967295",
            ),
            (r#""cycles":"12""#, &format!("`cycles` must be {u64_range}")),
            (
                r#""cycles":18446744073709551616"#,
                &format!("`cycles` must be {u64_range}"),
            ),
            (r#""rounds":1e3"#, &format!("`rounds` must be {u64_range}")),
            (
                r#""solver_budget":true"#,
                &format!("`solver_budget` must be {u64_range}"),
            ),
            (r#""refined":"yes""#, "`refined` must be true or false"),
            (r#""keep_going":1"#, "`keep_going` must be true or false"),
            (r#""top":7"#, "`top` must be a string"),
            (r#""source":["module"]"#, "`source` must be a string"),
            (
                r#""properties":"a:b""#,
                "`properties` must be an array of strings",
            ),
            (
                r#""symbolic":["top.a",3]"#,
                "`symbolic` must be an array of strings",
            ),
            (r#""deny":{}"#, "`deny` must be an array of strings"),
        ] {
            let text = format!(r#"{{"cmd":"analyze","soc":"clustersoc",{fields}}}"#);
            assert_eq!(Request::from_json(&text).expect_err(&text), error, "{text}");
        }
        let err = Request::from_json(r#"{"cmd":5}"#).expect_err("a numeric cmd");
        assert_eq!(err, "`cmd` must be a string");
    }

    /// Integers are read exactly, past the 2^53 an `f64` holds, and
    /// `null` is an absent field.
    #[test]
    fn integers_are_exact_and_null_is_absent() {
        let req = Request::from_json(
            r#"{"cmd":"analyze","solver_budget":9007199254740993,"cycles":18446744073709551615,"variant":null,"refined":null,"properties":null}"#,
        )
        .expect("decodes");
        assert_eq!(req.solver_budget, Some(9_007_199_254_740_993));
        assert_eq!(req.cycles, Some(u64::MAX));
        assert_eq!(req.variant, None);
        assert!(!req.refined);
        assert!(req.properties.is_empty());
    }

    #[test]
    fn unknown_commands_are_rejected() {
        let req = Request::new("reboot");
        assert!(Request::from_json(&req.to_json().unwrap()).is_err());
        assert!(Request::from_json("{}").is_err());
        assert!(Request::from_json("not json").is_err());
    }

    #[test]
    fn envelopes_round_trip() {
        let mut env = Envelope::ok("analyze");
        env.health = "degraded".into();
        env.degraded_reasons = vec!["concolic: lost a flip".into()];
        env.violations = 3;
        let decoded = Envelope::from_json(&env.to_json().unwrap()).unwrap();
        assert!(decoded.ok);
        assert_eq!(decoded.kind, "analyze");
        assert_eq!(decoded.health, "degraded");
        assert_eq!(decoded.degraded_reasons.len(), 1);
        assert_eq!(decoded.violations, 3);
        let err = Envelope::from_json(&Envelope::error("boom").to_json().unwrap()).unwrap();
        assert!(!err.ok);
        assert_eq!(err.error, "boom");
    }

    #[test]
    fn busy_envelopes_round_trip_with_retry_hint() {
        let busy = Envelope::busy(250);
        assert!(busy.is_busy());
        let decoded = Envelope::from_json(&busy.to_json().unwrap()).unwrap();
        assert!(decoded.is_busy());
        assert_eq!(decoded.retry_after_ms, 250);
        assert!(!Envelope::ok("analyze").is_busy());
        assert!(!Envelope::error("boom").is_busy());
    }

    #[test]
    fn unknown_request_fields_are_ignored() {
        // Older clients stamped an `attempt` number on every request, and
        // could ask for a wall-clock `round_deadline_ms` per round.
        for (with, without) in [
            (r#"{"cmd":"status","attempt":3}"#, r#"{"cmd":"status"}"#),
            (
                r#"{"cmd":"analyze","soc":"clustersoc","round_deadline_ms":5}"#,
                r#"{"cmd":"analyze","soc":"clustersoc"}"#,
            ),
        ] {
            let req = Request::from_json(with).expect("decodes");
            let plain = Request::from_json(without).expect("decodes");
            assert_eq!(req.to_json().unwrap(), plain.to_json().unwrap(), "{with}");
        }
    }
}
