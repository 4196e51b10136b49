//! What the host contributes to a number: peak memory, process CPU
//! time, and a fixed memory-bound loop that shows how noisy the
//! neighbours were around the timed section.

use std::time::Instant;

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// User + system CPU seconds of the whole process so far. Kernel ticks
/// are 10 ms, fine against a multi-second timed section.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    match (
        fields.get(11).and_then(|f| f.parse::<f64>().ok()),
        fields.get(12).and_then(|f| f.parse::<f64>().ok()),
    ) {
        (Some(utime), Some(stime)) => (utime + stime) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

/// Threads the host lets this process run at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A fixed xorshift walk over 8 MiB: twice the L2 of the sizing host,
/// so its time moves with whatever else is using the memory system.
/// Returns milliseconds.
pub fn calibration_ms() -> f64 {
    const WORDS: usize = 1 << 20;
    const STEPS: usize = 1 << 22;
    let mut table = vec![0u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for slot in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = x;
    }
    let started = Instant::now();
    let mut at = 0usize;
    let mut sum = 0u64;
    for _ in 0..STEPS {
        let v = table[at];
        sum = sum.wrapping_add(v);
        at = (v ^ sum) as usize & (WORDS - 1);
    }
    std::hint::black_box(sum);
    started.elapsed().as_secs_f64() * 1e3
}
