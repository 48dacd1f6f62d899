//! `poll(2)`, declared directly against the libc the standard library
//! already links, so no new dependency is needed. The workspace's only FFI
//! and the only `unsafe` in this crate.

use std::ffi::{c_int, c_short, c_ulong};
use std::time::Instant;

/// One descriptor to wait on, and the kernel's verdict about it.
#[repr(C)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// "Readable"; the kernel also reports `POLLHUP`/`POLLERR` unasked.
const POLLIN: c_short = 0x001;

impl PollFd {
    /// An entry asking whether `fd` is readable.
    pub fn readable(fd: c_int) -> Self {
        Self {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last wait found the descriptor readable, hung up or in
    /// error — all of which a `read` then tells apart.
    pub fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    /// Linux's `nfds_t` is `unsigned long`; Linux is what this workspace
    /// builds and tests on.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits until a descriptor in `fds` is readable or broken — forever
/// for a negative `timeout_ms`, not at all for zero — leaving the
/// verdicts in `revents`. `EINTR` retries.
pub fn wait_readable(fds: &mut [PollFd], timeout_ms: c_int) -> std::io::Result<()> {
    loop {
        // SAFETY: the pointer and length describe `fds`, a live slice
        // this call borrows exclusively; the kernel writes nothing but
        // each entry's `revents`.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(());
        }
        let error = std::io::Error::last_os_error();
        if error.kind() != std::io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

/// The `timeout_ms` that ends a wait at `deadline` (forever for `None`),
/// rounded up to a whole millisecond: a wait that ended just short of its
/// deadline would only go round again.
pub fn timeout_until(deadline: Option<Instant>, now: Instant) -> c_int {
    deadline.map_or(-1, |at| {
        let micros = at.saturating_duration_since(now).as_micros();
        c_int::try_from(micros.div_ceil(1000)).unwrap_or(c_int::MAX)
    })
}
