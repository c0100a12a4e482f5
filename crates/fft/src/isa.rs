//! The instruction sets the lane kernel is compiled for, and the run-time
//! choice between them.
//!
//! The workspace builds for the portable default target (SSE2 on x86-64:
//! two f64 per register). The mixed-radix recursion in [`crate::kernel`]
//! is additionally compiled for AVX2 and AVX-512F, and every plan picks
//! the widest instance the running CPU supports ([`Isa::detect`]). The
//! instances differ only in register width: `fma` is not enabled by name,
//! and although `avx512f` implies it in the compiler's feature set, Rust
//! never contracts `a * b + c` into a fused multiply-add by itself. Every
//! instance therefore rounds every operation exactly as the baseline does,
//! and every result bit is the same whichever instance ran.

/// One compiled instance of the lane kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Isa {
    /// The build's default target (SSE2 on x86-64); runs everywhere.
    Baseline,
    /// AVX2: four f64 per `ymm` register.
    Avx2,
    /// AVX-512F: eight f64 per `zmm` register.
    Avx512f,
}

impl Isa {
    /// Every instance, narrowest first.
    const ALL: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512f];

    /// The widest instance this CPU supports: what [`crate::Fft::new`]
    /// and every cached plan use.
    pub fn detect() -> Isa {
        Isa::ALL
            .into_iter()
            .rfind(|isa| isa.is_supported())
            .unwrap_or(Isa::Baseline)
    }

    /// The instances this CPU supports, narrowest first; always starts
    /// with [`Isa::Baseline`].
    pub fn available() -> Vec<Isa> {
        Isa::ALL
            .into_iter()
            .filter(|isa| isa.is_supported())
            .collect()
    }

    /// Whether this CPU can run the instance. Only x86-64 builds compile
    /// the wider instances; elsewhere only [`Isa::Baseline`] is supported.
    pub fn is_supported(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Short lowercase name (`baseline`, `avx2`, `avx512f`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512f => "avx512f",
        }
    }
}

/// Reports which instances a cross-instance test compared and which it
/// skipped. It writes to stderr directly, past the test harness's output
/// capture, so a CPU without an instance shows the skip instead of
/// passing silently.
#[cfg(test)]
pub(crate) fn report_instances(test: &str) {
    use std::io::Write;
    let names = |supported: bool| {
        let list: Vec<_> = Isa::ALL
            .into_iter()
            .filter(|isa| isa.is_supported() == supported)
            .map(Isa::name)
            .collect();
        if list.is_empty() {
            String::from("none")
        } else {
            list.join(", ")
        }
    };
    let line = format!(
        "{test}: ran {}; skipped (unsupported): {}\n",
        names(true),
        names(false)
    );
    let _ = std::io::stderr().write_all(line.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_the_widest_available_instance() {
        let available = Isa::available();
        assert_eq!(available[0], Isa::Baseline);
        assert_eq!(available.last(), Some(&Isa::detect()));
        assert!(available.iter().all(|isa| isa.is_supported()));
        let names: Vec<_> = Isa::ALL.iter().map(|isa| isa.name()).collect();
        assert_eq!(names, ["baseline", "avx2", "avx512f"]);
    }

    #[test]
    fn plans_refuse_an_instance_the_cpu_lacks() {
        for isa in Isa::ALL.into_iter().filter(|isa| !isa.is_supported()) {
            let built = std::panic::catch_unwind(|| crate::Fft::with_isa(8, isa));
            assert!(built.is_err(), "{} must be refused", isa.name());
        }
    }
}
