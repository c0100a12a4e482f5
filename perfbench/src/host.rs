//! Host calibration: the denominators for kernel rates, measured in the
//! same run as the kernels.

use fftx_fft::Complex64;
use std::hint::black_box;
use std::time::Instant;

/// Size of the highest-level CPU cache sysfs reports for cpu0, in bytes.
pub fn llc_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, usize)> = None;
    for entry in dir.flatten() {
        let path = entry.path();
        let level = std::fs::read_to_string(path.join("level")).ok();
        let size = std::fs::read_to_string(path.join("size")).ok();
        if let (Some(level), Some(size)) = (level, size) {
            if let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
            {
                if best.is_none_or(|(l, _)| level > l) {
                    best = Some((level, bytes));
                }
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Parses sysfs cache sizes such as `48K`, `2048K` or `32M`.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// Copy bandwidth in GB/s (bytes copied per second, 1e9) between two
/// arrays of `bytes` each: the median of three copies after one that
/// faults the pages in.
pub fn memcpy_gbps(bytes: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    dst.copy_from_slice(&src);
    let mut secs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        secs.push(t.elapsed().as_secs_f64());
    }
    bytes as f64 / crate::stats::median(&secs) / 1e9
}

/// Scalar complex multiply-add rate in GFLOP/s (8 flops per `acc*z + w`),
/// over eight independent accumulator chains.
pub fn fma_gflops() -> f64 {
    const ITERS: usize = 4_000_000;
    let z = black_box(Complex64::new(0.999_999, 1e-6));
    let w = black_box(Complex64::new(1e-7, -1e-7));
    let mut secs = Vec::new();
    for _ in 0..3 {
        let mut acc = [Complex64::new(1.0, 0.0); 8];
        let t = Instant::now();
        for _ in 0..ITERS {
            for a in acc.iter_mut() {
                *a = *a * z + w;
            }
        }
        black_box(&acc);
        secs.push(t.elapsed().as_secs_f64());
    }
    (ITERS * 8 * 8) as f64 / crate::stats::median(&secs) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_sizes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
    }
}
