//! CPU clocks read from `/proc`, so that the gated timing does not move
//! with whatever else the machine is running.

use std::fs::File;
use std::os::unix::fs::FileExt;

/// On-CPU time of the thread that called [`ThreadCpu::open`].
///
/// `/proc/thread-self` resolves when the file is opened, so the handle
/// stays on that thread's `schedstat` whichever thread reads it later.
#[derive(Debug)]
pub struct ThreadCpu {
    schedstat: File,
}

impl ThreadCpu {
    /// Opens the calling thread's `schedstat`.
    pub fn open() -> Result<Self, String> {
        let path = "/proc/thread-self/schedstat";
        let schedstat = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let clock = ThreadCpu { schedstat };
        clock.try_ns()?;
        Ok(clock)
    }

    fn try_ns(&self) -> Result<u64, String> {
        // "<on-cpu ns> <run-queue ns> <timeslices>"; read without touching
        // the heap, because ops are bracketed by allocator snapshots.
        let mut buf = [0u8; 96];
        let n = self
            .schedstat
            .read_at(&mut buf, 0)
            .map_err(|e| format!("schedstat: {e}"))?;
        let digits = buf[..n].iter().take_while(|b| b.is_ascii_digit());
        let (count, ns) = digits.fold((0, 0u64), |(c, acc), b| {
            (
                c + 1,
                acc.wrapping_mul(10).wrapping_add(u64::from(b - b'0')),
            )
        });
        if count == 0 {
            return Err("schedstat: no on-cpu field".into());
        }
        Ok(ns)
    }

    /// Nanoseconds the thread has spent on a CPU.
    ///
    /// # Panics
    ///
    /// Panics if the file that [`ThreadCpu::open`] read once can no longer
    /// be read.
    pub fn ns(&self) -> u64 {
        self.try_ns().expect("schedstat was readable at open")
    }
}

/// User plus system CPU seconds of the whole process, every thread
/// included, from `/proc/self/stat`.
pub fn process_cpu_s() -> Result<f64, String> {
    /// `USER_HZ`: the unit of `utime` and `stime`, fixed at 100 by the
    /// Linux user-space ABI.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    // The command name may hold spaces; fields are counted after its ")".
    let rest = stat.rsplit_once(')').ok_or("stat: no command field")?.1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> Result<f64, String> {
        let field = fields.next().ok_or("stat: too few fields")?;
        field.parse::<f64>().map_err(|e| format!("stat: {e}"))
    };
    Ok((ticks()? + ticks()?) / TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let clock = ThreadCpu::open().unwrap();
        let (t0, p0) = (clock.ns(), process_cpu_s().unwrap());
        let mut x = 0u64;
        while clock.ns() - t0 < 30_000_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(clock.ns() - t0 >= 30_000_000);
        assert!(process_cpu_s().unwrap() >= p0);
    }
}
