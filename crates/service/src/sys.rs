//! Raw readiness-notification syscall shim for the event-driven reactor.
//!
//! The container has no crates.io access, so there is no `libc` or `mio`
//! crate to lean on: this module declares the handful of syscalls it needs
//! (`epoll_create1`/`epoll_ctl`/`epoll_wait`, plus `setsockopt` for the
//! deterministic write-stall tests) as `extern "C"` bindings against the
//! platform libc that `std` already links. It is the only module in the
//! crate allowed to use `unsafe` (`lib.rs` scopes an `#[allow(unsafe_code)]`
//! to it), and it exposes a fully safe [`Poller`] API upward.
//!
//! epoll is the one readiness backend, so the service serves on Linux only:
//! elsewhere [`Poller::new`] fails with [`std::io::ErrorKind::Unsupported`]
//! and `server::start` returns that as a typed error. Level-triggered mode
//! is used throughout: the reactor re-arms interest every tick anyway
//! (interest reconciliation).

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readiness interest for a registered file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable (or the peer half-closes).
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Self = Self {
        readable: true,
        writable: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Self = Self {
        readable: true,
        writable: true,
    };
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollerEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data can be read without blocking.
    pub readable: bool,
    /// Data can be written without blocking.
    pub writable: bool,
    /// The peer closed or the fd errored; the connection is finished.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{io, Duration, Interest, PollerEvent, RawFd};

    /// Upper bound on events drained per [`Poller::wait`] call.
    const MAX_EVENTS: usize = 256;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Mirror of glibc's `struct epoll_event`; packed on x86_64 only
    /// (`__EPOLL_PACKED` in the kernel/glibc headers).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// epoll-backed readiness poller.
    pub struct Poller {
        epfd: i32,
    }

    impl Poller {
        /// A fresh epoll instance (close-on-exec).
        pub fn new() -> io::Result<Self> {
            // SAFETY: plain syscall, no pointers involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it out.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Adds `fd` under `token` with the given interest.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        /// Replaces an already-registered fd's interest set.
        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        /// Removes `fd` from the interest set.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: pre-2.6.9 kernels require a non-null event for DEL;
            // passing one is harmless everywhere.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Blocks until readiness (or `timeout`), filling `out` with up to
        /// `MAX_EVENTS` events. EINTR is swallowed (returns empty).
        pub fn wait(
            &self,
            out: &mut Vec<PollerEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            out.clear();
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => i32::try_from(d.as_millis().min(i32::MAX as u128)).unwrap_or(i32::MAX),
            };
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            // SAFETY: `events` is a valid writable buffer of MAX_EVENTS
            // entries for the duration of the call.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    MAX_EVENTS as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in events.iter().take(n.max(0) as usize) {
                let bits = ev.events;
                out.push(PollerEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd is owned by this Poller and closed exactly once.
            unsafe {
                close(self.epfd);
            }
        }
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

#[cfg(target_os = "linux")]
pub use epoll::Poller;

/// Stand-in on targets without epoll: construction fails, so the reactor
/// (and with it `server::start`) refuses to start with a typed error.
#[cfg(not(target_os = "linux"))]
pub struct Poller(std::convert::Infallible);

#[cfg(not(target_os = "linux"))]
impl Poller {
    /// Always fails with [`io::ErrorKind::Unsupported`].
    pub fn new() -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the event reactor needs epoll (Linux)",
        ))
    }

    /// Unreachable: no `Poller` exists on this target.
    pub fn register(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        match self.0 {}
    }

    /// Unreachable: no `Poller` exists on this target.
    pub fn reregister(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        match self.0 {}
    }

    /// Unreachable: no `Poller` exists on this target.
    pub fn deregister(&self, _fd: RawFd) -> io::Result<()> {
        match self.0 {}
    }

    /// Unreachable: no `Poller` exists on this target.
    pub fn wait(&self, _out: &mut Vec<PollerEvent>, _timeout: Option<Duration>) -> io::Result<()> {
        match self.0 {}
    }
}

// Linux values of the socket-option constants.
const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;

extern "C" {
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
}

/// Shrinks (or grows) a socket's kernel send buffer. Used by the
/// fault-injection tests to make write-stalls deterministic.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    let val: i32 = i32::try_from(bytes).unwrap_or(i32::MAX);
    // SAFETY: `val` is a valid i32 for the duration of the call and optlen
    // matches its size.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_SNDBUF,
            &val,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    #[test]
    fn poller_reports_readable_after_write() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing written yet: a zero-timeout wait returns no events.
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        a.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("event for b");
        assert!(ev.readable);

        let mut byte = [0u8; 1];
        b.set_nonblocking(false).unwrap();
        (&b).read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn poller_reports_writable_and_hangup() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller
            .register(b.as_raw_fd(), 3, Interest::READ_WRITE)
            .unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 3).expect("event for b");
        assert!(ev.writable, "fresh socket should be writable");

        drop(a);
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 3).expect("event for b");
        assert!(
            ev.hangup || ev.readable,
            "peer close must surface as hangup or readable-EOF"
        );
    }

    #[test]
    fn reregister_switches_interest() {
        let poller = Poller::new().unwrap();
        let (_a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        // No data: not readable, and write interest is off.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 1 || !e.writable));
        poller
            .reregister(b.as_raw_fd(), 1, Interest::READ_WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 1).expect("event");
        assert!(ev.writable);
    }

    #[test]
    fn send_buffer_can_be_shrunk() {
        let (a, _b) = UnixStream::pair().unwrap();
        set_send_buffer(a.as_raw_fd(), 16 * 1024).unwrap();
    }
}
