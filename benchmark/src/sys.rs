//! The two libc calls the benchmark needs, declared directly (std already
//! links libc; no new crate): `wait4` for a child's exit status and
//! resource usage, `getrusage` for this process's CPU time. Linux layout.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// `ru_maxrss` (KiB on Linux) followed by the 13 fields we do not read.
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn cpu_of(ru: &Rusage) -> Duration {
    let us = |t: Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(us(ru.ru_utime) + us(ru.ru_stime))
}

/// User + system CPU time of this process so far, all threads included.
pub fn process_cpu() -> Duration {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    cpu_of(&ru)
}

/// One finished child process.
pub struct Finished {
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
    /// Spawn to `wait4` return.
    pub wall: Duration,
    /// Child user + system CPU.
    pub cpu: Duration,
    /// Child peak resident set, KiB.
    pub maxrss_kib: u64,
    pub stdout: Vec<u8>,
}

/// Run `cmd` to completion with stdout captured and stderr sent to
/// `stderr_to`, timing it from spawn to the `wait4` return.
pub fn run_child(cmd: &mut Command, stderr_to: std::fs::File) -> std::io::Result<Finished> {
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(stderr_to))
        .spawn()?;
    let mut stdout = Vec::new();
    // Drain stdout before reaping, so a child that fills the pipe cannot
    // block forever; EOF arrives when the child exits.
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `pid` is our own unreaped child (std never waited on it), and
    // `status`/`ru` are valid, writable locals for the call.
    let rc = loop {
        let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if rc != -1 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            break rc;
        }
    };
    let wall = t0.elapsed();
    if rc != pid {
        return Err(std::io::Error::last_os_error());
    }
    read?;
    // WIFEXITED / WEXITSTATUS from <sys/wait.h>.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Finished {
        code,
        wall,
        cpu: cpu_of(&ru),
        maxrss_kib: ru.rest[0] as u64,
        stdout,
    })
}
