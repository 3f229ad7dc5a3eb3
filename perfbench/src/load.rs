//! The open-loop load generator.
//!
//! Requests go out on a precomputed schedule whatever the server does:
//! a send that runs late is still sent (its lateness is kept as debt,
//! not dropped), and every latency is measured from the instant the
//! request was *due*, so a stall is charged to every request queued
//! behind it. One thread sends on all connections; one thread receives
//! on all of them through epoll, so replies are timestamped when they
//! land rather than when the sender gets round to them.

use crate::check::Digest;
use crate::workload::{Op, CONNS};
use mio::{Events, Interest, Poll, Token};
use secemb_serve::protocol::{decode_server, ServerMsg};
use secemb_serve::{RejectReason, TraceCtx};
use secemb_wire::frame::{encode_frame_into, FrameDecoder};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Time between starting a window and its first due instant, so
/// thread start-up is not charged to the first request.
const LEAD: Duration = Duration::from_millis(5);

/// How often the receiver re-checks whether the sender is done.
const POLL_TICK: Duration = Duration::from_millis(10);

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Due instant, as an offset from the window's start.
    pub due: Duration,
    /// Connection it is sent on.
    pub conn: usize,
    pub op: Op,
    /// Trace id to stamp on the frame, if traced.
    pub trace: Option<u64>,
}

/// How a request ended.
#[derive(Clone, Debug)]
pub enum Reply {
    /// Embeddings, kept as a digest for the correctness check.
    Rows(Digest),
    Refused(RejectReason),
    /// A frame that is neither embeddings nor a rejection.
    Garbled,
}

/// What happened to one planned request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Sent minus due; `None` when the send failed.
    pub lag: Option<Duration>,
    /// Reply arrival minus due; `None` when no reply came.
    pub latency: Option<Duration>,
    pub reply: Option<Reply>,
}

/// Drives `plan` (sorted by due time) against `addr` and waits up to
/// `drain` after the last send for outstanding replies.
///
/// # Errors
///
/// Returns connect and poll-setup errors; per-request transport
/// failures are recorded in the outcomes instead.
pub fn drive(addr: SocketAddr, plan: &[Planned], drain: Duration) -> io::Result<Vec<Outcome>> {
    let frames: Vec<Vec<u8>> = plan
        .iter()
        .enumerate()
        .map(|(id, p)| {
            let mut frame = Vec::new();
            encode_frame_into(
                &mut frame,
                &p.op.encode(id as u64, p.trace.map(TraceCtx::new)),
            );
            frame
        })
        .collect();
    let mut writers = Vec::with_capacity(CONNS);
    let mut readers = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        readers.push(s.try_clone()?);
        writers.push(s);
    }
    let mut poll = Poll::new()?;
    for (c, r) in readers.iter().enumerate() {
        poll.registry().register(r, Token(c), Interest::READABLE)?;
    }
    let sent = AtomicUsize::new(0);
    let done_sending = AtomicBool::new(false);
    let last_send = Mutex::new(Instant::now());
    let t0 = Instant::now() + LEAD;
    let mut outcomes: Vec<Outcome> = vec![Outcome::default(); plan.len()];
    let arrivals = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            receive(
                &mut poll,
                &mut readers,
                plan,
                &sent,
                &done_sending,
                &last_send,
                drain,
            )
        });
        for (i, p) in plan.iter().enumerate() {
            let due = t0 + p.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            if writers[p.conn].write_all(&frames[i]).is_ok() {
                outcomes[i].lag = Some(at.saturating_duration_since(due));
                sent.fetch_add(1, Ordering::SeqCst);
            }
        }
        *last_send.lock().expect("last-send lock poisoned") = Instant::now();
        done_sending.store(true, Ordering::SeqCst);
        let arrivals = receiver.join().expect("receiver thread panicked");
        for w in &writers {
            let _ = w.shutdown(Shutdown::Both);
        }
        arrivals
    });
    for ((o, p), arrival) in outcomes.iter_mut().zip(plan).zip(arrivals) {
        if let Some((at, reply)) = arrival {
            o.latency = Some(at.saturating_duration_since(t0 + p.due));
            o.reply = Some(reply);
        }
    }
    Ok(outcomes)
}

/// Receives replies on every connection until all sent requests are
/// answered, or the drain window after the last send runs out.
fn receive(
    poll: &mut Poll,
    readers: &mut [TcpStream],
    plan: &[Planned],
    sent: &AtomicUsize,
    done_sending: &AtomicBool,
    last_send: &Mutex<Instant>,
    drain: Duration,
) -> Vec<Option<(Instant, Reply)>> {
    let mut got: Vec<Option<(Instant, Reply)>> = plan.iter().map(|_| None).collect();
    let mut decoders: Vec<FrameDecoder> = readers.iter().map(|_| FrameDecoder::new()).collect();
    let mut open = vec![true; readers.len()];
    let mut received = 0usize;
    let mut events = Events::with_capacity(16);
    let mut buf = vec![0u8; 1 << 16];
    loop {
        if done_sending.load(Ordering::SeqCst) {
            let all_answered = received >= sent.load(Ordering::SeqCst);
            let drained = last_send.lock().expect("last-send lock poisoned").elapsed() > drain;
            if all_answered || drained || !open.contains(&true) {
                return got;
            }
        }
        if poll.poll(&mut events, Some(POLL_TICK)).is_err() {
            continue;
        }
        for event in events.iter() {
            let c = event.token().0;
            if c >= readers.len() || !open[c] {
                continue;
            }
            let k = match readers[c].read(&mut buf) {
                Ok(0) => 0,
                Ok(k) => k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => 0,
            };
            if k == 0 {
                open[c] = false;
                let _ = poll.registry().deregister(&readers[c]);
                continue;
            }
            let at = Instant::now();
            decoders[c].extend(&buf[..k]);
            while let Ok(Some(payload)) = decoders[c].next_frame() {
                let Ok((id, msg)) = decode_server(&payload) else {
                    continue;
                };
                let (Some(slot), Some(p)) = (got.get_mut(id as usize), plan.get(id as usize))
                else {
                    continue;
                };
                if slot.is_some() {
                    continue;
                }
                let reply = match msg {
                    ServerMsg::Embeddings(m, _) => Reply::Rows(Digest::of(&p.op, &m)),
                    ServerMsg::Rejected(r) => Reply::Refused(r),
                    _ => Reply::Garbled,
                };
                *slot = Some((at, reply));
                received += 1;
            }
        }
    }
}
