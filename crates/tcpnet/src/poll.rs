//! A minimal std-only readiness poller: epoll on Linux, `poll(2)` on
//! other unix systems. No external crates — the handful of syscalls the
//! shard event loops need are declared directly.
//!
//! Semantics are level-triggered on both backends: an event for a token
//! keeps firing while the condition holds, so a reader may stop after a
//! short read and only registers write interest while an output queue
//! is nonempty.
//!
//! An epoll poller can itself be watched by another ([`Poller::nest`]):
//! the inner poller reads as readable while it holds ready events. That is
//! how one driver thread blocks on several shards at once. `poll(2)` has
//! no pollable handle, so the fallback backend cannot nest
//! ([`Poller::CAN_NEST`] is false) and each of its shards keeps a thread.

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// One readiness event delivered by [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: usize,
    /// Readable (or a pending accept on a listener).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup: the owner should try the I/O and observe the
    /// failure — both backends fold `ERR`/`HUP` in here.
    pub hangup: bool,
}

/// Interest to (re)register an fd with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable / acceptable.
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of every connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read plus write — an outbound link parked on write readiness,
    /// still watching for peer close.
    pub const RW: Interest = Interest {
        readable: true,
        writable: true,
    };
}

#[cfg(target_os = "linux")]
mod imp {
    use super::*;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    const EPOLL_CLOEXEC: c_int = 0o2000000;

    // The kernel's struct epoll_event is packed on x86_64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// The epoll backend: O(ready) wait, no per-call fd scan.
    pub struct Poller {
        epfd: c_int,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        /// An epoll instance is itself pollable.
        pub const CAN_NEST: bool = true;

        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(
            &mut self,
            op: c_int,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            let mut events = EPOLLRDHUP;
            if interest.readable {
                events |= EPOLLIN;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token as u64,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        /// Watches `inner` under `token`: this poller reports `token`
        /// readable while `inner` has ready events (level-triggered).
        pub fn nest(&mut self, inner: &Poller, token: usize) -> io::Result<()> {
            self.register(inner.epfd, token, Interest::READ)
        }

        pub fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<PollEvent>,
        ) -> io::Result<()> {
            let ms: c_int = match timeout {
                // Round up so a 1µs timer does not spin at timeout 0.
                Some(t) => {
                    t.as_millis().min(c_int::MAX as u128) as c_int
                        + if t.subsec_micros() % 1000 != 0 { 1 } else { 0 }
                }
                None => -1,
            };
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data as usize,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::*;
    use std::os::raw::{c_short, c_ulong};

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// The portable `poll(2)` backend: O(fds) per wait, which is fine at
    /// the loopback scales this runtime hosts.
    pub struct Poller {
        fds: Vec<PollFd>,
        tokens: Vec<usize>,
    }

    impl Poller {
        /// `poll(2)` has no pollable handle to wait on.
        pub const CAN_NEST: bool = false;

        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        pub fn nest(&mut self, _inner: &Poller, _token: usize) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        fn events_of(interest: Interest) -> c_short {
            let mut e = 0;
            if interest.readable {
                e |= POLLIN;
            }
            if interest.writable {
                e |= POLLOUT;
            }
            e
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.fds.push(PollFd {
                fd,
                events: Self::events_of(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            for (slot, tok) in self.fds.iter_mut().zip(self.tokens.iter_mut()) {
                if slot.fd == fd {
                    slot.events = Self::events_of(interest);
                    *tok = token;
                    return Ok(());
                }
            }
            Err(io::Error::from(io::ErrorKind::NotFound))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            if let Some(i) = self.fds.iter().position(|s| s.fd == fd) {
                self.fds.swap_remove(i);
                self.tokens.swap_remove(i);
                Ok(())
            } else {
                Err(io::Error::from(io::ErrorKind::NotFound))
            }
        }

        pub fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<PollEvent>,
        ) -> io::Result<()> {
            let ms: c_int = match timeout {
                Some(t) => {
                    t.as_millis().min(c_int::MAX as u128) as c_int
                        + if t.subsec_micros() % 1000 != 0 { 1 } else { 0 }
                }
                None => -1,
            };
            for slot in self.fds.iter_mut() {
                slot.revents = 0;
            }
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (slot, &token) in self.fds.iter().zip(self.tokens.iter()) {
                if slot.revents != 0 {
                    out.push(PollEvent {
                        token,
                        readable: slot.revents & POLLIN != 0,
                        writable: slot.revents & POLLOUT != 0,
                        hangup: slot.revents & (POLLERR | POLLHUP) != 0,
                    });
                }
            }
            Ok(())
        }
    }
}

pub use imp::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_event_fires_and_clears() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "no data yet");

        a.write_all(b"x").unwrap();
        poller
            .wait(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Level-triggered: still readable until drained.
        events.clear();
        poller
            .wait(Some(Duration::from_millis(100)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 8];
        let mut b2 = &b;
        assert_eq!(b2.read(&mut buf).unwrap(), 1);

        events.clear();
        poller
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "drained fd must go quiet");
    }

    #[test]
    fn write_interest_tracks_modify_and_deregister() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), 1, Interest::RW).unwrap();
        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        poller.modify(a.as_raw_fd(), 1, Interest::READ).unwrap();
        events.clear();
        poller
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "write interest withdrawn");

        poller.deregister(a.as_raw_fd()).unwrap();
        events.clear();
        poller
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty());
    }

    /// A nested poller reports its token while the inner one has ready
    /// events, and goes quiet once they are drained.
    #[test]
    #[cfg(target_os = "linux")]
    fn nested_poller_reports_inner_readiness() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut inner = Poller::new().unwrap();
        inner.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
        let mut outer = Poller::new().unwrap();
        outer.nest(&inner, 9).unwrap();

        let mut events = Vec::new();
        outer
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "inner has nothing ready");

        a.write_all(b"x").unwrap();
        outer
            .wait(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
        events.clear();
        inner.wait(Some(Duration::ZERO), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));

        let mut buf = [0u8; 8];
        assert_eq!((&b).read(&mut buf).unwrap(), 1);
        events.clear();
        outer
            .wait(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert!(events.is_empty(), "drained inner must go quiet");
    }
}
