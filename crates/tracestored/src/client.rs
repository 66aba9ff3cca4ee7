//! The client side of the protocol: [`Client`], one connection with a
//! method per op, and [`IngestSink`], the one ingest session, which
//! `mktrace --serve`, `tracestored client ingest` and `bench serve` all
//! stream through. Replies are read by the daemon's own frame reader.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use fstrace::codec::{get_varint, put_varint};
use fstrace::{IdOffsets, RecordSink, TraceRecord};

use crate::protocol::{self, Hello};

/// Records per batch frame the streaming adapter sends. Big enough to
/// amortize framing, small enough that backpressure stays responsive.
const BATCH: usize = 8192;

/// One protocol connection to a `tracestored`.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects; the socket stays open for the client's lifetime.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Declares this connection as merge input `index` of `total`.
    /// Acked: returns once the server accepted the attachment.
    pub fn hello(
        &mut self,
        total: u16,
        index: u16,
        offsets: IdOffsets,
        name: &str,
    ) -> io::Result<()> {
        let hello = Hello {
            total_inputs: total,
            input_index: index,
            offsets,
            name: name.to_string(),
        };
        protocol::write_frame(&mut self.stream, protocol::OP_HELLO, &hello.encode())?;
        protocol::read_reply(&mut self.stream).map(|_| ())
    }

    /// Streams one record batch. Unacked — errors surface on the next
    /// acked call (`fin`), which is what keeps ingest pipelined.
    pub fn send_records(&mut self, records: &[TraceRecord]) -> io::Result<()> {
        let mut payload = Vec::with_capacity(records.len() * 8 + 8);
        protocol::encode_records(&mut payload, records);
        protocol::write_frame(&mut self.stream, protocol::OP_RECORDS, &payload)
    }

    /// Advances this input's progress watermark. Unacked.
    pub fn progress(&mut self, up_to_ms: u64) -> io::Result<()> {
        let mut payload = Vec::new();
        put_varint(&mut payload, up_to_ms);
        protocol::write_frame(&mut self.stream, protocol::OP_PROGRESS, &payload)
    }

    /// Finishes this input; returns the server's accepted record count.
    pub fn fin(&mut self) -> io::Result<u64> {
        protocol::write_frame(&mut self.stream, protocol::OP_FIN, &[])?;
        let reply = protocol::read_reply(&mut self.stream)?;
        let mut pos = 0;
        get_varint(&reply, &mut pos)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    fn text_query(&mut self, op: u8, payload: &[u8]) -> io::Result<String> {
        protocol::write_frame(&mut self.stream, op, payload)?;
        let reply = protocol::read_reply(&mut self.stream)?;
        String::from_utf8(reply)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply is not utf-8"))
    }

    /// The Table-III summary of the served trace, as text.
    pub fn summary(&mut self) -> io::Result<String> {
        self.text_query(protocol::OP_SUMMARY, &[])
    }

    /// The full Section-5 analyzer suite, rendered server-side.
    pub fn analyze(&mut self) -> io::Result<String> {
        self.text_query(protocol::OP_ANALYZE, &[])
    }

    /// A cache sweep over the served trace, one row per size in KiB.
    /// A request naming more than [`protocol::MAX_SWEEP_SIZES`] sizes
    /// gets an error reply.
    pub fn sweep(&mut self, sizes_kb: &[u64]) -> io::Result<String> {
        let mut payload = Vec::new();
        put_varint(&mut payload, sizes_kb.len() as u64);
        for &kb in sizes_kb {
            put_varint(&mut payload, kb);
        }
        self.text_query(protocol::OP_SWEEP, &payload)
    }

    /// Records with `from_ms <= time < to_ms`.
    pub fn range(&mut self, from_ms: u64, to_ms: u64) -> io::Result<Vec<TraceRecord>> {
        let mut payload = Vec::new();
        put_varint(&mut payload, from_ms);
        put_varint(&mut payload, to_ms);
        protocol::write_frame(&mut self.stream, protocol::OP_RANGE, &payload)?;
        let reply = protocol::read_reply(&mut self.stream)?;
        protocol::decode_records(&reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Asks the daemon to seal, drain, and stop. Acked.
    pub fn shutdown(&mut self) -> io::Result<()> {
        protocol::write_frame(&mut self.stream, protocol::OP_SHUTDOWN, &[])?;
        protocol::read_reply(&mut self.stream).map(|_| ())
    }
}

/// Fetches the `/metrics` page over a plain HTTP GET on the daemon
/// port; returns the body.
pub fn fetch_metrics(addr: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_head, body)) => Ok(body.to_string()),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed http response",
        )),
    }
}

/// One ingest session: a connection that is one merge input of a
/// daemon, and a [`RecordSink`] over it, so any generator can stream
/// into a daemon as if it were writing a local file. Outside tests,
/// every ingest in this workspace runs through one.
///
/// Records are sent in batch frames of at most 8,192 records. A
/// full batch goes out with a progress mark at its last record's time,
/// which is sound for any sink fed in nondecreasing time order (every
/// generator path is): a record at time T promises nothing earlier
/// than T remains unsent. [`IngestSink::progress`] sends the pending
/// batch, then a mark of the caller's; [`IngestSink::finish`] ends the
/// input.
pub struct IngestSink {
    client: Client,
    /// The input's name in `hello`, for error messages.
    name: String,
    buf: Vec<TraceRecord>,
    sent: u64,
}

impl IngestSink {
    /// Connects to the daemon at `addr` and says `hello`: this
    /// connection is merge input `index` of `total`, its records
    /// shifted by `offsets`, named `name`.
    pub fn connect(
        addr: &str,
        total: u16,
        index: u16,
        offsets: IdOffsets,
        name: &str,
    ) -> io::Result<IngestSink> {
        let mut client = Client::connect(addr)?;
        client.hello(total, index, offsets, name)?;
        Ok(IngestSink {
            client,
            name: name.to_string(),
            buf: Vec::with_capacity(BATCH),
            sent: 0,
        })
    }

    /// Sends the pending batch, if any, then promises that no record
    /// earlier than `up_to_ms` remains unsent.
    pub fn progress(&mut self, up_to_ms: u64) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.client.send_records(&self.buf)?;
            self.sent += self.buf.len() as u64;
            self.buf.clear();
        }
        self.client.progress(up_to_ms)
    }

    /// Ends the input: sends the pending batch, `progress(MAX)` and
    /// `fin`. Returns the daemon's accepted count, and fails unless it
    /// equals the records sent.
    pub fn finish(mut self) -> io::Result<u64> {
        self.progress(u64::MAX)?;
        let accepted = self.client.fin()?;
        if accepted != self.sent {
            return Err(io::Error::other(format!(
                "{}: the daemon acknowledged {accepted} records, {} were sent",
                self.name, self.sent
            )));
        }
        Ok(accepted)
    }
}

impl RecordSink for IngestSink {
    fn write_record(&mut self, rec: &TraceRecord) -> io::Result<()> {
        self.buf.push(*rec);
        if self.buf.len() == BATCH {
            self.progress(rec.time.as_ms())?;
        }
        Ok(())
    }
}
