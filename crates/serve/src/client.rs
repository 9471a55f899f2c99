//! Client side of the `soccar serve` protocol — what `soccar client`
//! and CI harnesses use to talk to a running daemon.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;

use crate::proto::{read_frame, write_frame, Envelope, Request};

/// A connection to a running `soccar serve` daemon. One connection can
/// pipeline any number of requests.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to `addr` (`host:port`, as printed by the daemon or
    /// written to its `--port-file`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request and reads the two response frames:
    /// `(envelope, body)`. The body is the deliverable verbatim —
    /// print it as-is for byte-identical parity with the batch CLI.
    ///
    /// # Errors
    ///
    /// On I/O failure, a server-closed connection, or an undecodable
    /// envelope.
    pub fn roundtrip(&mut self, request: &Request) -> Result<(Envelope, Vec<u8>), String> {
        let payload = request.to_json().map_err(|e| e.to_string())?;
        write_frame(&mut self.writer, payload.as_bytes()).map_err(|e| e.to_string())?;
        let envelope_frame = read_frame(&mut self.reader)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "server closed the connection before responding".to_owned())?;
        let envelope_text = String::from_utf8(envelope_frame)
            .map_err(|_| "envelope frame is not utf-8".to_owned())?;
        let envelope = Envelope::from_json(&envelope_text)?;
        let body = read_frame(&mut self.reader)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "server closed the connection before the body frame".to_owned())?;
        Ok((envelope, body))
    }
}
