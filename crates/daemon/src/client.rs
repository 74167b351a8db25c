//! Client side of the daemon protocol: one blocking connection, one
//! request/response pair at a time.

use crate::protocol::{write_message, LineReader, Request, Response};
use llmt_ckpt::engine::{self, SaveOptions};
use llmt_ckpt::error::io_err;
use llmt_ckpt::{CheckpointPaths, CheckpointReport, SaveRequest};
use llmt_storage::vfs::Storage;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

/// A connection to a running `llmtailord`.
#[derive(Debug)]
pub struct DaemonClient {
    stream: UnixStream,
    reader: LineReader,
}

/// Flatten a daemon `Err`/`Busy` reply (or an unexpected variant) into
/// `io::Error`, passing every other reply through.
fn expect_reply(resp: Response) -> io::Result<Response> {
    match resp {
        Response::Err { message } => Err(io::Error::other(format!("daemon error: {message}"))),
        Response::Busy { message } => Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            format!("daemon busy: {message}"),
        )),
        other => Ok(other),
    }
}

fn unexpected(what: &str, resp: &Response) -> io::Error {
    io::Error::other(format!("daemon sent {resp:?} to {what}"))
}

impl DaemonClient {
    /// Connect to the daemon socket.
    pub fn connect(socket: &Path) -> io::Result<DaemonClient> {
        Ok(DaemonClient {
            stream: UnixStream::connect(socket)?,
            reader: LineReader::new(),
        })
    }

    /// Send one request and read its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_message(&mut self.stream, req)?;
        match self.reader.next_line(&mut self.stream, &|| false)? {
            Some(line) => serde_json::from_str(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match expect_reply(self.request(&Request::Ping)?)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("ping", &other)),
        }
    }

    /// Attach a run; returns its run root.
    pub fn attach(&mut self, run: &str) -> io::Result<PathBuf> {
        match expect_reply(self.request(&Request::Attach { run: run.into() })?)? {
            Response::Attached { run_root } => Ok(PathBuf::from(run_root)),
            other => Err(unexpected("attach", &other)),
        }
    }

    /// Open a publisher session; returns `(session_id, run_root)`.
    /// With `wait` the call blocks until the store admits the save.
    pub fn save_begin(
        &mut self,
        run: &str,
        declared_bytes: u64,
        wait: bool,
    ) -> io::Result<(u64, PathBuf)> {
        let req = Request::SaveBegin {
            run: run.into(),
            declared_bytes,
            wait,
        };
        match expect_reply(self.request(&req)?)? {
            Response::SaveStarted { session, run_root } => Ok((session, PathBuf::from(run_root))),
            other => Err(unexpected("save_begin", &other)),
        }
    }

    /// Commit a checkpoint written under the session's run root; returns
    /// the number of published object digests.
    pub fn save_commit(&mut self, session: u64, step: u64) -> io::Result<usize> {
        match expect_reply(self.request(&Request::SaveCommit { session, step })?)? {
            Response::Committed { published } => Ok(published),
            other => Err(unexpected("save_commit", &other)),
        }
    }

    /// Release a publisher session without publishing.
    pub fn save_abort(&mut self, session: u64) -> io::Result<()> {
        match expect_reply(self.request(&Request::SaveAbort { session })?)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("save_abort", &other)),
        }
    }

    /// Save one checkpoint of tenant `run` through the daemon: admit a
    /// publisher session declaring `declared_bytes` (blocking on the
    /// admission budget), save `req` under the granted run root — whose
    /// `CASROOT` redirect lands every object in the daemon's shared store,
    /// so dedup is forced on — then have the daemon publish the committed
    /// manifest. A failed save aborts the session so its budget frees at
    /// once. Returns the report and the number of published digests.
    pub fn save(
        &mut self,
        storage: &dyn Storage,
        run: &str,
        declared_bytes: u64,
        req: &SaveRequest,
        opts: &SaveOptions,
    ) -> llmt_ckpt::Result<(CheckpointReport, usize)> {
        let (session, run_root) = self
            .save_begin(run, declared_bytes, true)
            .map_err(io_err(req.dir))?;
        let req = SaveRequest {
            dir: &CheckpointPaths::under(&run_root, req.step).dir,
            ..*req
        };
        let opts = SaveOptions {
            dedup: true,
            ..*opts
        };
        match engine::save(&[storage], &req, &opts) {
            Ok(placed) => {
                let published = self
                    .save_commit(session, req.step)
                    .map_err(io_err(&run_root))?;
                Ok((placed.report, published))
            }
            Err(e) => {
                let _ = self.save_abort(session);
                Err(e)
            }
        }
    }

    /// Open a reader session; returns `(session_id, epoch, committed
    /// checkpoint dirs)`.
    pub fn read_begin(&mut self, run: &str) -> io::Result<(u64, u64, Vec<PathBuf>)> {
        match expect_reply(self.request(&Request::ReadBegin { run: run.into() })?)? {
            Response::ReadStarted {
                session,
                epoch,
                checkpoints,
            } => Ok((
                session,
                epoch,
                checkpoints.into_iter().map(PathBuf::from).collect(),
            )),
            other => Err(unexpected("read_begin", &other)),
        }
    }

    /// Verify a checkpoint directory through a reader session; returns
    /// `(ok, findings)`.
    pub fn verify(
        &mut self,
        session: u64,
        dir: &Path,
        deep: bool,
    ) -> io::Result<(bool, Vec<String>)> {
        let req = Request::Verify {
            session,
            dir: dir.display().to_string(),
            deep,
        };
        match expect_reply(self.request(&req)?)? {
            Response::Verified { ok, findings } => Ok((ok, findings)),
            other => Err(unexpected("verify", &other)),
        }
    }

    /// Release a reader session.
    pub fn read_end(&mut self, session: u64) -> io::Result<()> {
        match expect_reply(self.request(&Request::ReadEnd { session })?)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("read_end", &other)),
        }
    }

    /// Retire a checkpoint through a publisher session.
    pub fn retire(&mut self, session: u64, step: u64) -> io::Result<()> {
        match expect_reply(self.request(&Request::Retire { session, step })?)? {
            Response::Ok => Ok(()),
            other => Err(unexpected("retire", &other)),
        }
    }

    /// Ask for one guarded GC pass; returns the summary, or `None` when
    /// the daemon deferred because publishers were in flight.
    pub fn gc(&mut self) -> io::Result<Option<crate::protocol::GcSummary>> {
        match expect_reply(self.request(&Request::Gc)?)? {
            Response::Gc(summary) => Ok(Some(summary)),
            Response::GcDeferred { .. } => Ok(None),
            other => Err(unexpected("gc", &other)),
        }
    }

    /// Drain a run's pending tier hops; returns `(hops, bytes)`.
    pub fn drain(&mut self, run: &str) -> io::Result<(u64, u64)> {
        match expect_reply(self.request(&Request::Drain { run: run.into() })?)? {
            Response::Drained { hops, bytes } => Ok((hops, bytes)),
            other => Err(unexpected("drain", &other)),
        }
    }

    /// Daemon-wide status snapshot.
    pub fn status(&mut self) -> io::Result<crate::protocol::DaemonStatus> {
        match expect_reply(self.request(&Request::Status)?)? {
            Response::Status(status) => Ok(status),
            other => Err(unexpected("status", &other)),
        }
    }

    /// Request clean shutdown.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match expect_reply(self.request(&Request::Shutdown)?)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }
}
