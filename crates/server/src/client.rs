//! A minimal blocking client for the wire protocol — enough for the
//! CLI, the load generator, and the integration tests.

use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use bindex::relation::query::SelectionQuery;

use crate::protocol::{FrameReader, FrameWriter, Request, Response, StatsSnapshot};

fn proto(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn not_connected() -> io::Error {
    io::Error::new(
        io::ErrorKind::NotConnected,
        "connection closed after an earlier request failed",
    )
}

/// One connection to a `bindex-server`; requests are serial
/// (request/response lockstep, like the wire protocol itself). A request
/// is encoded in place into the connection's send buffer and its reply
/// decoded from the receive buffer; both are kept for the connection's
/// life.
pub struct Client {
    /// `None` once a request failed in transport or decoding: the stream
    /// may still carry that request's late reply, which must never be read
    /// as the answer to a later one.
    stream: Option<TcpStream>,
    reader: FrameReader,
    writer: FrameWriter,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: Some(stream),
            reader: FrameReader::default(),
            writer: FrameWriter::default(),
        })
    }

    /// Caps how long any single reply is waited for; protects callers
    /// against a hung server. A request that times out closes the
    /// connection, and every later call on this client fails with
    /// [`io::ErrorKind::NotConnected`].
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream
            .as_ref()
            .ok_or_else(not_connected)?
            .set_read_timeout(timeout)
    }

    /// Sends one request and waits for its response. Any transport or
    /// decode error shuts the connection down.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.round_trip(req)
    }

    /// [`Client::request`] for a request that borrows its index name.
    fn round_trip(&mut self, req: &Request<impl AsRef<str>>) -> io::Result<Response> {
        self.writer.encode(|out| req.encode_into(out))?;
        let stream = self.stream.as_mut().ok_or_else(not_connected)?;
        let reply = self
            .writer
            .send(stream)
            .and_then(|()| self.reader.poll(stream))
            .and_then(|p| p.ok_or_else(|| proto("server closed the connection")))
            .and_then(Response::decode);
        if reply.is_err() {
            if let Some(stream) = self.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        reply
    }

    /// Evaluates `query` against the served index `index`.
    /// `deadline_ms = 0` uses the server's default deadline.
    pub fn query(
        &mut self,
        index: &str,
        query: SelectionQuery,
        want_bitmap: bool,
        deadline_ms: u64,
    ) -> io::Result<Response> {
        self.round_trip(&Request::Query {
            index,
            query,
            want_bitmap,
            deadline_ms,
        })
    }

    /// Evaluates "at least `k` of `predicates`" against the served index
    /// `index`. Predicate order does not matter; a duplicated predicate
    /// counts twice toward `k`. `deadline_ms = 0` uses the server's
    /// default deadline.
    pub fn threshold(
        &mut self,
        index: &str,
        k: u32,
        predicates: &[SelectionQuery],
        want_bitmap: bool,
        deadline_ms: u64,
    ) -> io::Result<Response> {
        self.round_trip(&Request::Threshold {
            index,
            k,
            predicates: predicates.to_vec(),
            want_bitmap,
            deadline_ms,
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(proto(&format!("expected Pong, got {other:?}"))),
        }
    }

    /// Fetches the server counters.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(proto(&format!("expected Stats, got {other:?}"))),
        }
    }

    /// Runs scrub-and-repair on `index`; returns `(repaired,
    /// unrepaired)` file counts.
    pub fn repair(&mut self, index: &str) -> io::Result<(u32, u32)> {
        match self.round_trip(&Request::Repair { index })? {
            Response::Repaired {
                repaired,
                unrepaired,
            } => Ok((repaired, unrepaired)),
            Response::Error { code, message } => {
                Err(proto(&format!("repair failed: {code:?}: {message}")))
            }
            other => Err(proto(&format!("expected Repaired, got {other:?}"))),
        }
    }

    /// Applies one ingest batch (appends with `None` = null, deletes by
    /// row id) to served index `index` and compacts it; returns `(seq,
    /// generation, n_rows)` from the server's acknowledgement.
    pub fn ingest(
        &mut self,
        index: &str,
        appends: &[Option<u32>],
        deletes: &[u64],
    ) -> io::Result<(u64, u64, u64)> {
        match self.round_trip(&Request::Ingest {
            index,
            appends: appends.to_vec(),
            deletes: deletes.to_vec(),
        })? {
            Response::Ingested {
                seq,
                generation,
                n_rows,
            } => Ok((seq, generation, n_rows)),
            Response::Error { code, message } => {
                Err(proto(&format!("ingest failed: {code:?}: {message}")))
            }
            other => Err(proto(&format!("expected Ingested, got {other:?}"))),
        }
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(proto(&format!("expected ShutdownAck, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread;

    use bindex::relation::query::Op;

    use super::*;
    use crate::protocol::{read_frame, write_frame};

    fn count(cardinality: u64) -> Vec<u8> {
        Response::Count {
            cardinality,
            degraded: false,
            cached: false,
        }
        .encode()
        .unwrap()
    }

    /// A stand-in server that reads each request, waits for a go from the
    /// test, answers with `replies[i]` and reports the answer sent. It
    /// stops at EOF, when the test hangs up, or when its replies run out.
    fn stand_in(
        replies: Vec<Vec<u8>>,
    ) -> (
        Client,
        mpsc::Sender<()>,
        mpsc::Receiver<()>,
        thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (go, go_rx) = mpsc::channel::<()>();
        let (sent_tx, sent) = mpsc::channel::<()>();
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            for reply in replies {
                if !matches!(read_frame(&mut conn), Ok(Some(_))) || go_rx.recv().is_err() {
                    return;
                }
                let _ = write_frame(&mut conn, &reply);
                let _ = sent_tx.send(());
            }
        });
        (Client::connect(addr).unwrap(), go, sent, server)
    }

    #[test]
    fn a_timed_out_request_never_hands_its_late_reply_to_the_next() {
        let (mut client, go, sent, server) = stand_in(vec![count(111), count(222)]);
        client.set_timeout(Some(Duration::from_millis(20))).unwrap();
        let q = SelectionQuery::new(Op::Le, 9);
        let err = client.query("t", q, false, 0).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        // The first query's reply is sent only now, after the client gave
        // up on it.
        go.send(()).unwrap();
        sent.recv().unwrap();
        match client.query("t", q, false, 0) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::NotConnected, "{e:?}"),
            Ok(reply) => panic!("the second query was answered with {reply:?}"),
        }
        let err = client.set_timeout(None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
        drop((go, client));
        server.join().unwrap();
    }

    #[test]
    fn a_reply_that_fails_to_decode_closes_the_connection() {
        let (mut client, go, _sent, server) = stand_in(vec![vec![0x42], count(222)]);
        go.send(()).unwrap();
        go.send(()).unwrap();
        let err = client.ping().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err:?}");
        let err = client.ping().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected, "{err:?}");
        drop((go, client));
        server.join().unwrap();
    }
}
