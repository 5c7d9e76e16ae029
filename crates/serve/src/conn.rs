//! The one framed duplex connection of the serve tier, and the one
//! accept-and-serve front-end built on it.
//!
//! Every TCP connection this crate owns — a client session on a daemon
//! or on the pool front-end, a pool→worker link — is a [`Conn`]: a
//! **reader** that blocks in `read` and hands each `[len][crc][body]`
//! envelope body to a callback (the shared
//! [`read_loop`](mrbc_util::framing::read_loop), which the mesh's
//! sockets run too), and a **writer** thread that blocks on
//! an `mpsc` queue of sealed frames and alone writes the socket. Any
//! holder of a [`FrameTx`] clone can answer without touching the socket,
//! so no socket I/O happens under a lock, frames never interleave, and a
//! peer that stops reading stalls only its own connection: the writer
//! blocks (until [`WRITE_DEADLINE`]), and once [`MAX_UNSENT`] answers
//! wait behind it the session's reader stops taking requests.
//!
//! Nothing polls: readers wake on bytes, EOF or a socket `shutdown`,
//! writers on a frame or the last sender leaving, the listener on a
//! connection. Shutdown wakes each blocked thread explicitly.
//!
//! [`Front`] is the server side shared by [`crate::server`] and
//! [`crate::pool`]. It owns what does not depend on who answers —
//! handshake gating, the malformed-request reply, `Shutdown` → `Bye`,
//! the `hangup:session=N` fault clause; a [`Handler`] supplies the rest.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mrbc_obs as obs;
use mrbc_util::framing;

use crate::proto::{decode_request, encode_response, Request, Response, TraceCtx};

/// Queue of sealed frames into a connection's writer thread. Sending
/// never blocks and fails harmlessly once the writer is gone.
pub type FrameTx = mpsc::Sender<Vec<u8>>;

/// How long one socket write may block before the peer counts as dead
/// and the connection is severed.
const WRITE_DEADLINE: Duration = Duration::from_secs(10);

/// Answers one session may have waiting for its writer before its
/// reader stops taking requests: what a peer that never reads can hold.
const MAX_UNSENT: usize = 1024;

/// Pause after a failed `accept` (fd exhaustion), so a persistent error
/// cannot spin the listener.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// How long shutdown waits on one wake-up connection before the next.
const WAKE_RETRY: Duration = Duration::from_millis(250);

/// Seals `resp` as the answer to request `id`, ready for a [`FrameTx`].
pub fn response_frame(id: u64, resp: &Response) -> Vec<u8> {
    framing::seal(&encode_response(id, resp))
}

/// The shared half of a connection: any thread may queue frames on it
/// or sever it. The blocking half is the [`Reader`].
pub struct Conn {
    sock: TcpStream,
    /// `None` once closed, so the writer can run out of senders.
    tx: Mutex<Option<FrameTx>>,
}

/// The reading half, run on a thread of the owner's choosing; joins the
/// writer thread when the read side ends.
pub struct Reader {
    sock: TcpStream,
    tx: FrameTx,
    unsent: mpsc::SyncSender<()>,
    writer: JoinHandle<()>,
}

impl Conn {
    /// Takes over `stream` and starts its writer thread (named
    /// `<name>-tx`). The caller runs the returned [`Reader`].
    pub fn open(stream: TcpStream, name: &str) -> io::Result<(Conn, Reader)> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_DEADLINE))?;
        let read_side = stream.try_clone()?;
        let write_side = stream.try_clone()?;
        let (tx, rx) = mpsc::channel();
        let (unsent, sent) = mpsc::sync_channel(MAX_UNSENT);
        let writer = thread::Builder::new()
            .name(format!("{name}-tx"))
            .spawn(move || write_loop(write_side, &rx, &sent))?;
        let reader = Reader {
            sock: read_side,
            tx: tx.clone(),
            unsent,
            writer,
        };
        let conn = Conn {
            sock: stream,
            tx: Mutex::new(Some(tx)),
        };
        Ok((conn, reader))
    }

    /// Queues one sealed frame; `false` if the connection is closed.
    pub fn send(&self, frame: Vec<u8>) -> bool {
        let tx = self.tx.lock();
        tx.is_ok_and(|tx| tx.as_ref().is_some_and(|tx| tx.send(frame).is_ok()))
    }

    /// False once [`Conn::close`] has run.
    pub fn is_open(&self) -> bool {
        self.tx.lock().is_ok_and(|tx| tx.is_some())
    }

    /// Severs the connection: a blocked reader and a blocked writer
    /// both return at once and no further frame is accepted. Idempotent.
    pub fn close(&self) {
        if let Ok(mut tx) = self.tx.lock() {
            *tx = None;
        }
        drop(self.sock.shutdown(Shutdown::Both));
    }
}

impl Reader {
    /// Backpressure gate for an owner that answers every request with
    /// exactly one frame: `send(())` before handling one. The writer
    /// takes a token back per frame written, so the send blocks while
    /// [`MAX_UNSENT`] answers are unwritten and fails once it is gone.
    pub fn unsent(&self) -> mpsc::SyncSender<()> {
        self.unsent.clone()
    }

    /// Reads until EOF, a socket error, an unsyncable stream or a
    /// [`ControlFlow::Break`], handing each checksum-valid body (and the
    /// connection's queue, for replies) to `on_body`. Then calls
    /// `on_close`, which must close or drop the [`Conn`], and waits for
    /// the writer to drain what is still queued (frames queued before a
    /// `Break` are still written).
    pub fn run(
        mut self,
        mut on_body: impl FnMut(Vec<u8>, &FrameTx) -> ControlFlow<()>,
        on_close: impl FnOnce(),
    ) {
        let tx = &self.tx;
        framing::read_loop(&mut self.sock, 1, |body| on_body(body, tx));
        on_close();
        drop((self.tx, self.unsent));
        drop(self.writer.join());
    }
}

/// The writer loop: queued frames → socket, until every sender is gone
/// or a write fails (peer reset, [`WRITE_DEADLINE`]). Either way the
/// connection is over; shutting the socket down also wakes a reader
/// still blocked on it. Each frame written returns one token of
/// [`Reader::unsent`], if any were taken.
fn write_loop(mut sock: TcpStream, rx: &mpsc::Receiver<Vec<u8>>, sent: &mpsc::Receiver<()>) {
    while let Ok(frame) = rx.recv() {
        if sock.write_all(&frame).is_err() {
            break;
        }
        let _ = sent.try_recv();
    }
    drop(sock.shutdown(Shutdown::Both));
}

/// What a [`Handler`] wants done with one request.
pub enum Reply {
    /// Send this response.
    Now(Response),
    /// Send this response, then close the session.
    Refuse(Response),
    /// The handler kept a [`FrameTx`] clone and queues the answer later.
    Queued,
}

/// What gives requests their meaning. One handler serves every session
/// of a [`Front`], concurrently.
pub trait Handler: Send + Sync + 'static {
    /// A connection was accepted; returns its 1-based accept index.
    fn session_opened(&self) -> u64;

    /// Answers one request. Never sees `Shutdown`, and sees only
    /// `Hello` until one was answered with [`Reply::Now`]. Runs on the
    /// session's reader thread, so one session's requests are handled
    /// in arrival order; `tx` is that session's writer queue.
    fn handle(&self, session: u64, id: u64, ctx: TraceCtx, req: Request, tx: &FrameTx) -> Reply;

    /// Shutdown began. Called once, before any session is severed;
    /// must not block.
    fn shutdown(&self);
}

struct FrontShared {
    handler: Arc<dyn Handler>,
    /// Thread-name prefix (`serve`, `pool`).
    name: &'static str,
    /// Accept indices the fault plan severs after their first response.
    hangups: Vec<u32>,
    /// Where a throwaway connection wakes the blocked `accept`.
    wake_addr: SocketAddr,
    /// Disconnects when the listener has left its accept loop.
    accepting: Mutex<mpsc::Receiver<()>>,
    stop: AtomicBool,
    /// Every session still reading, by accept index.
    live: Mutex<HashMap<u64, Conn>>,
}

impl FrontShared {
    fn live(&self) -> MutexGuard<'_, HashMap<u64, Conn>> {
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn trigger_shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.handler.shutdown();
        // `stop` is set before this lock is taken and `session` checks
        // it under the same lock: each session is swept or sees `stop`.
        for (_, conn) in self.live().drain() {
            conn.close();
        }
        // One connection normally does it; a full backlog or a dropped
        // SYN must not leave the listener blocked for good.
        let accepting = self.accepting.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            drop(TcpStream::connect_timeout(&self.wake_addr, WAKE_RETRY));
            if accepting.recv_timeout(WAKE_RETRY) != Err(mpsc::RecvTimeoutError::Timeout) {
                return;
            }
        }
    }
}

/// A listening socket plus its sessions. Dropping it shuts everything
/// down and joins every thread.
pub struct Front {
    local_addr: SocketAddr,
    shared: Arc<FrontShared>,
    listener: Option<JoinHandle<()>>,
}

impl Front {
    /// Starts accepting on `listener`; `name` prefixes thread names and
    /// `hangups` holds the `hangup:session=N` accept indices.
    pub fn start(
        listener: TcpListener,
        name: &'static str,
        hangups: Vec<u32>,
        handler: Arc<dyn Handler>,
    ) -> io::Result<Front> {
        let local_addr = listener.local_addr()?;
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let (in_accept, accepting) = mpsc::channel();
        let shared = Arc::new(FrontShared {
            handler,
            name,
            hangups,
            wake_addr,
            accepting: Mutex::new(accepting),
            stop: AtomicBool::new(false),
            live: Mutex::new(HashMap::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("{name}-listen"))
                .spawn(move || accept_loop(&listener, &shared, in_accept))?
        };
        Ok(Front {
            local_addr,
            shared,
            listener: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begins shutdown without waiting: tells the handler, severs every
    /// session and wakes the blocked `accept`. Idempotent.
    pub fn trigger_shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// A handle that begins shutdown from any thread, e.g. one watching
    /// stdin while the owner blocks in [`Front::wait`].
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared))
    }

    /// Blocks until the listener and every session thread have exited.
    pub fn wait(&mut self) {
        if let Some(h) = self.listener.take() {
            drop(h.join());
        }
    }
}

/// Begins a [`Front`]'s shutdown; see [`Front::shutdown_handle`].
#[derive(Clone)]
pub struct ShutdownHandle(Arc<FrontShared>);

impl ShutdownHandle {
    /// [`Front::trigger_shutdown`], from wherever the handle went.
    pub fn trigger(&self) {
        self.0.trigger_shutdown();
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        self.trigger_shutdown();
        self.wait();
    }
}

/// The accept loop: one session thread per connection, joined once it
/// has ended (checked at each accept) or else at exit, so a long-lived
/// listener holds the stacks of its live sessions only. Dropping
/// `in_accept` tells shutdown that no `accept` is left to wake.
fn accept_loop(listener: &TcpListener, shared: &Arc<FrontShared>, in_accept: mpsc::Sender<()>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break; // `accepted` is the wake-up connection, or moot
        }
        match accepted {
            Ok((stream, _peer)) => {
                let (ended, live): (Vec<_>, _) = std::mem::take(&mut sessions)
                    .into_iter()
                    .partition(JoinHandle::is_finished);
                sessions = live;
                for h in ended {
                    drop(h.join());
                }
                let index = shared.handler.session_opened();
                let shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name(format!("{}-sess-{index}", shared.name))
                    .spawn(move || session(stream, &shared, index));
                // Thread exhaustion sheds the connection: the client
                // sees a closed stream and can retry.
                if let Ok(h) = spawned {
                    sessions.push(h);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(ACCEPT_ERROR_PAUSE),
        }
    }
    drop(in_accept);
    for h in sessions {
        drop(h.join());
    }
}

/// One client session, start to finish, on its own thread.
fn session(stream: TcpStream, shared: &Arc<FrontShared>, index: u64) {
    let Ok((conn, reader)) = Conn::open(stream, &format!("{}-sess-{index}", shared.name)) else {
        return;
    };
    let _span = obs::span("serve.session", "serve").arg("session", index);
    {
        let mut live = shared.live();
        if shared.stop.load(Ordering::SeqCst) {
            conn.close();
        } else {
            live.insert(index, conn);
        }
    }
    let sever = u32::try_from(index).is_ok_and(|i| shared.hangups.contains(&i));
    let mut greeted = false;
    let unsent = reader.unsent();
    reader.run(
        |body, tx| {
            // Every request is answered by exactly one frame, so this
            // waits while the peer is `MAX_UNSENT` answers behind.
            if unsent.send(()).is_err() {
                return ControlFlow::Break(());
            }
            // An injected hangup severs it after its first response.
            match serve_request(shared, index, &mut greeted, &body, tx) {
                ControlFlow::Continue(()) if !sever => ControlFlow::Continue(()),
                _ => ControlFlow::Break(()),
            }
        },
        || drop(shared.live().remove(&index)),
    );
}

/// Decodes and answers one request body of session `index`.
fn serve_request(
    shared: &FrontShared,
    index: u64,
    greeted: &mut bool,
    body: &[u8],
    tx: &FrameTx,
) -> ControlFlow<()> {
    // A failed send means the writer is gone; the next read notices.
    let send = |id: u64, resp: &Response| drop(tx.send(response_frame(id, resp)));
    let refuse = |id: u64, message: String| {
        send(id, &Response::Error { message });
        ControlFlow::Break(())
    };
    let (id, ctx, req) = match decode_request(body) {
        Ok(triple) => triple,
        // id 0: the request's own id could not be parsed.
        Err(e) => return refuse(0, format!("malformed request: {e}")),
    };
    let is_hello = matches!(req, Request::Hello { .. });
    if !*greeted && !is_hello {
        return refuse(id, "handshake required before queries".to_string());
    }
    if matches!(req, Request::Shutdown) {
        send(id, &Response::Bye);
        // Leave the registry first, so the sweep cannot sever this
        // session before its writer has sent the `Bye`.
        drop(shared.live().remove(&index));
        shared.trigger_shutdown();
        return ControlFlow::Break(());
    }
    match shared.handler.handle(index, id, ctx, req, tx) {
        Reply::Now(resp) => {
            send(id, &resp);
            *greeted |= is_hello;
            ControlFlow::Continue(())
        }
        Reply::Refuse(resp) => {
            send(id, &resp);
            ControlFlow::Break(())
        }
        Reply::Queued => ControlFlow::Continue(()),
    }
}
