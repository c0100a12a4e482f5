//! # fftx-fft
//!
//! From-scratch FFT engine for the FFTXlib-on-KNL reproduction: complex
//! arithmetic, a mixed-radix Cooley–Tukey kernel with specialised 2/3/4
//! butterflies that transforms several sequences per pass bit-identically
//! to one, Bluestein for arbitrary lengths, the batched strided entry
//! points FFTXlib's `fft_scalar` module exposes (`cft_1z`, `cft_2xy`), a
//! dense 3-D reference transform, and an operation-count model feeding the
//! KNL simulator.
//!
//! The lane kernel is compiled once per instruction set — the portable
//! baseline, AVX2 and AVX-512F — and every plan runs the widest instance
//! the CPU supports, picked at run time ([`Isa`]). Every instance runs the
//! same operations in the same order, so every result bit is the same
//! whichever one ran; [`Fft::with_isa`] builds a plan on a given instance
//! for tests and benchmarks that compare them.
//!
//! The crate is a leaf: it depends on no other workspace crate.
//!
//! Conventions (matching Quantum ESPRESSO):
//! * `Direction::Forward` = negative exponent = r-space → G-space, and the
//!   batched/3-D wrappers scale it by `1/N`;
//! * `Direction::Inverse` = positive exponent = G-space → r-space,
//!   unnormalised.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod batch;
pub mod bluestein;
pub mod cache;
pub mod complex;
pub mod dft;
pub mod fft1d;
pub mod fft3d;
pub mod isa;
pub mod kernel;
pub mod opcount;
pub mod planner;

pub use batch::{cft_1z, cft_2xy, cft_2xy_buf, cft_2xy_masked, XyLines};
pub use cache::cached_plan;
pub use complex::{c64, max_dist, Complex64};
pub use dft::{compensated_dft, naive_dft, naive_dft_3d, Direction};
pub use fft1d::{scale_in_place, Fft};
pub use fft3d::Fft3;
pub use isa::Isa;
pub use planner::{good_fft_order, is_good_size};
