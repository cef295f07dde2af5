//! A minimal `epoll` readiness facade built on raw Linux syscalls —
//! no `libc`, just `std::os::fd` ownership types and inline-assembly
//! syscall stubs for x86_64 and aarch64 — plus [`listen`] for the
//! accept backlog `std` does not expose. Level-triggered only: the
//! event loop re-arms nothing and simply reads/writes until
//! `WouldBlock`, which keeps the state machine in `server.rs` honest
//! (a missed edge cannot wedge a connection).
//!
//! On non-Linux (or unsupported-architecture) builds every call
//! returns [`std::io::ErrorKind::Unsupported`], so the event loop
//! reports a clean error instead of failing to compile.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// What the caller wants to be told about a file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Readable-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Writable-only interest.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
    /// Neither direction: stay registered but silent (hangup/error
    /// events are still delivered — the kernel never masks those).
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };

    fn bits(self) -> u32 {
        let mut bits = sys::EPOLLRDHUP;
        if self.read {
            bits |= sys::EPOLLIN;
        }
        if self.write {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// One readiness event, translated out of the raw `epoll_event`.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data can be read (or EOF is pending — a read will tell).
    pub readable: bool,
    /// The send buffer has room.
    pub writable: bool,
    /// The peer closed or the fd errored; the next read/write
    /// surfaces the detail.
    pub hangup: bool,
}

/// An owned `epoll` instance.
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates a new epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Propagates the kernel error; `Unsupported` on non-Linux builds.
    pub fn new() -> io::Result<Self> {
        let fd = sys::epoll_create1(sys::EPOLL_CLOEXEC)?;
        // SAFETY: epoll_create1 returned a fresh fd we now own.
        Ok(Self {
            epfd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    /// Registers `fd` with a caller-chosen `token` (returned verbatim in
    /// events) and an initial interest set.
    ///
    /// # Errors
    ///
    /// Propagates `EPOLL_CTL_ADD` failures (e.g. already registered).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest set for an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `EPOLL_CTL_MOD` failures (e.g. not registered).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`. Harmless if the fd is about to be closed anyway
    /// (closing an fd removes it from every epoll set), but explicit
    /// removal keeps the kernel-side set in step with the slab.
    ///
    /// # Errors
    ///
    /// Propagates `EPOLL_CTL_DEL` failures.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest.bits(),
            data: token,
        };
        sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev)?;
        Ok(())
    }

    /// Blocks for up to `timeout_ms` (−1 = forever) and appends ready
    /// events to `out` (cleared first). Returns the event count.
    /// `EINTR` is retried internally.
    ///
    /// # Errors
    ///
    /// Propagates non-`EINTR` kernel failures.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        out.clear();
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            match sys::epoll_pwait(self.epfd.as_raw_fd(), &mut raw, timeout_ms) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in raw.iter().take(n) {
            // Copy out of the (possibly packed) struct before use.
            let bits = ev.events;
            let token = ev.data;
            out.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

/// Sets the accept backlog of a bound stream socket with `listen(2)`.
/// Calling it on a socket that already listens (every `std`
/// `TcpListener`, which asks for 128) replaces that backlog; the kernel
/// clamps the value to `net.core.somaxconn`.
///
/// # Errors
///
/// Propagates the kernel error; `Unsupported` on non-Linux builds.
pub fn listen(fd: RawFd, backlog: i32) -> io::Result<()> {
    sys::listen(fd, backlog)?;
    Ok(())
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    //! Raw syscall stubs. Numbers from the kernel's per-arch tables;
    //! `epoll_pwait` is used on both architectures because aarch64
    //! never had plain `epoll_wait`.
    use std::io;
    use std::os::fd::RawFd;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    // x86_64 packs epoll_event to 12 bytes; aarch64 keeps natural
    // alignment (16 bytes). Getting this wrong corrupts every token.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 291;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const LISTEN: usize = 50;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const LISTEN: usize = 201;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    pub fn epoll_create1(flags: i32) -> io::Result<usize> {
        // SAFETY: no pointers involved; a plain fd-returning syscall.
        check(unsafe { syscall6(nr::EPOLL_CREATE1, flags as usize, 0, 0, 0, 0, 0) })
    }

    pub fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, ev: &mut EpollEvent) -> io::Result<usize> {
        // SAFETY: `ev` outlives the call; the kernel reads it only
        // during the syscall.
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op as usize,
                fd as usize,
                ev as *mut EpollEvent as usize,
                0,
                0,
            )
        })
    }

    pub fn epoll_pwait(
        epfd: RawFd,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        // SAFETY: the buffer pointer/len pair describes owned memory
        // valid for the duration of the call; sigmask is null (no
        // signal-mask swap), for which the size argument is ignored.
        check(unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                8,
            )
        })
    }

    pub fn listen(fd: RawFd, backlog: i32) -> io::Result<usize> {
        // SAFETY: no pointers involved; plain integer arguments.
        check(unsafe { syscall6(nr::LISTEN, fd as usize, backlog as usize, 0, 0, 0, 0) })
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    //! Stubs for unsupported targets: everything reports `Unsupported`.
    use std::io;
    use std::os::fd::RawFd;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll is only available on linux x86_64/aarch64 builds",
        )
    }

    pub fn epoll_create1(_flags: i32) -> io::Result<usize> {
        Err(unsupported())
    }

    pub fn epoll_ctl(
        _epfd: RawFd,
        _op: i32,
        _fd: RawFd,
        _ev: &mut EpollEvent,
    ) -> io::Result<usize> {
        Err(unsupported())
    }

    pub fn epoll_pwait(
        _epfd: RawFd,
        _events: &mut [EpollEvent],
        _timeout_ms: i32,
    ) -> io::Result<usize> {
        Err(unsupported())
    }

    pub fn listen(_fd: RawFd, _backlog: i32) -> io::Result<usize> {
        Err(unsupported())
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn wait_times_out_on_silence() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, 10).unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "no events yet");
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller.wait(&mut events, 2_000).unwrap();
        assert!(n >= 1, "connect must wake the poller");
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn interest_modification_gates_events() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 1, Interest::NONE).unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 50).unwrap();
        assert!(
            events.iter().all(|e| !e.readable),
            "NONE interest must suppress readable events, got {events:?}"
        );
        poller
            .modify(server.as_raw_fd(), 1, Interest::BOTH)
            .unwrap();
        poller.wait(&mut events, 2_000).unwrap();
        let ev = events.iter().find(|e| e.token == 1).expect("event");
        assert!(ev.readable, "pending byte must surface after modify");
        assert!(ev.writable, "fresh socket has send-buffer room");
        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn listen_queues_more_connects_than_the_std_backlog() {
        // Nothing accepts, so every connect must fit in the accept queue
        // (capped by the kernel at somaxconn). Under std's backlog of 128
        // the 130th SYN is dropped and its connect times out.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listen(listener.as_raw_fd(), 4096).unwrap();
        let somaxconn = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .map_or(128, |s| s.trim().parse().unwrap_or(128));
        let addr = listener.local_addr().unwrap();
        let timeout = std::time::Duration::from_secs(5);
        let _herd: Vec<TcpStream> = (0..somaxconn.min(512))
            .map(|_| TcpStream::connect_timeout(&addr, timeout).expect("connect is queued"))
            .collect();
    }
}
