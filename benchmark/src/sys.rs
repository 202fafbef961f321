//! The two Linux calls the benchmark needs that `std` does not expose. The
//! symbols come from the libc `std` already links.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;

const SOL_SOCKET: i32 = 1;
const SO_LINGER: i32 = 13;

/// `struct linger`.
#[repr(C)]
struct Linger {
    l_onoff: i32,
    l_linger: i32,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
}

/// Pins the calling thread to `cpu`.
pub fn pin_to_cpu(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other("cpu index beyond 1024"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte bitmask, a valid `cpu_set_t` of the
    // size passed, for the duration of the call; pid 0 names the calling
    // thread; the call only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Makes closing `stream` reset the connection (`SO_LINGER` with a zero
/// timeout), so the close leaves no `TIME_WAIT` socket behind.
pub fn reset_on_close(stream: &TcpStream) -> io::Result<()> {
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is open for the lifetime of `stream`; `linger`
    // is a live `struct linger` of exactly the length passed; the call only
    // reads it.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn reset_on_close_resets_instead_of_lingering() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        reset_on_close(&client).unwrap();
        drop(client);
        // The peer sees a reset, not an orderly end of stream.
        let err = served.read(&mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn pinning_beyond_the_mask_is_an_error() {
        assert!(pin_to_cpu(16 * 64).is_err());
    }
}
