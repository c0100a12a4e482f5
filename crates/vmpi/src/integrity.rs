//! The checksummed-exchange substrate: a wire-hashable element trait and
//! the chunk checksum the alltoall family carries per peer.
//!
//! Every `alltoall_into` / `alltoallv_into` / `ialltoall` chunk is hashed
//! at *pack* time (when the transport stages its one owned copy — the
//! NIC-buffer stand-in) and verified at *unpack* (when the receiving rank
//! lifts its segment out of the completed collective). Anything that
//! mangles the staged bytes in between — the seeded
//! [`PayloadCorrupt`](fftx_fault::PayloadCorrupt) profile, or a real
//! memory error in a production transport — surfaces as a typed
//! [`VmpiError::Integrity`](crate::VmpiError) naming the peer, the tag,
//! and both checksums, *before* the corrupted data reaches the caller's
//! receive buffer.
//!
//! The hash is an FNV/splitmix-style fold over each element's canonical
//! 64-bit image. It is not cryptographic and does not need to be: the
//! adversary is a bit flip, not an attacker, and any single-bit change of
//! the image changes the fold with overwhelming probability (the tests pin
//! single-bit sensitivity explicitly).

use fftx_fft::Complex64;

/// An element that can travel through a checksummed exchange: it exposes a
/// canonical 64-bit image for hashing, and a bit-flip primitive so the
/// seeded corruption profiles can strike payloads of any element type.
pub trait Checksum {
    /// The element's canonical 64-bit image (e.g. `f64::to_bits`). Two
    /// elements with equal images are indistinguishable on the wire.
    fn image(&self) -> u64;

    /// Flips one bit of the element's representation (`bit` taken modulo
    /// the representation width). Fault injection only.
    fn flip_bit(&mut self, bit: u32);
}

macro_rules! impl_checksum_int {
    ($($t:ty),*) => {$(
        impl Checksum for $t {
            #[inline]
            fn image(&self) -> u64 {
                *self as u64
            }
            #[inline]
            fn flip_bit(&mut self, bit: u32) {
                *self ^= (1 as $t).rotate_left(bit % <$t>::BITS);
            }
        }
    )*};
}

impl_checksum_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Checksum for f64 {
    #[inline]
    fn image(&self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn flip_bit(&mut self, bit: u32) {
        *self = f64::from_bits(self.to_bits() ^ (1u64 << (bit % 64)));
    }
}

impl Checksum for f32 {
    #[inline]
    fn image(&self) -> u64 {
        u64::from(self.to_bits())
    }
    #[inline]
    fn flip_bit(&mut self, bit: u32) {
        *self = f32::from_bits(self.to_bits() ^ (1u32 << (bit % 32)));
    }
}

/// splitmix64 finalizer — the per-element mixing step of the chunk fold.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lets `Complex64` buffers travel through the checksummed alltoall
/// family. The element is 128 bits, so the 64-bit wire image folds the
/// two halves through the splitmix finalizer with distinct salts — a
/// single-bit flip in either component (or a re/im swap) changes the image
/// with overwhelming probability.
impl Checksum for Complex64 {
    fn image(&self) -> u64 {
        mix(self.re.to_bits() ^ 0xA076_1D64_78BD_642F)
            .wrapping_add(mix(self.im.to_bits() ^ 0xE703_7ED1_A0B4_28DB))
    }

    fn flip_bit(&mut self, bit: u32) {
        // Bits 0–63 strike the real part, 64–127 the imaginary part.
        let b = bit % 128;
        if b < 64 {
            self.re.flip_bit(b);
        } else {
            self.im.flip_bit(b - 64);
        }
    }
}

/// The chunk checksum: a positional fold of each element's image. Position
/// matters (a swap of two unequal elements changes the sum) and every
/// single-bit change of any image changes the result with overwhelming
/// probability.
pub fn checksum_slice<T: Checksum>(chunk: &[T]) -> u64 {
    let mut acc = 0x1620_43B8_D6F0_5E91u64 ^ chunk.len() as u64;
    for x in chunk {
        acc = mix(acc ^ x.image());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_pure_and_length_sensitive() {
        let a = vec![1.0f64, 2.0, 3.0];
        assert_eq!(checksum_slice(&a), checksum_slice(&a));
        assert_ne!(checksum_slice(&a), checksum_slice(&a[..2]));
        assert_ne!(checksum_slice::<f64>(&[]), checksum_slice(&[0.0]));
    }

    #[test]
    fn checksum_is_position_sensitive() {
        assert_ne!(
            checksum_slice(&[1.0f64, 2.0]),
            checksum_slice(&[2.0f64, 1.0])
        );
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        let base = vec![0.5f64, -3.25, 1e-300, 7.0];
        let sum = checksum_slice(&base);
        for i in 0..base.len() {
            for bit in 0..64 {
                let mut mutated = base.clone();
                mutated[i].flip_bit(bit);
                assert_ne!(
                    checksum_slice(&mutated),
                    sum,
                    "flip of bit {bit} in element {i} must change the checksum"
                );
            }
        }
    }

    #[test]
    fn flip_bit_is_an_involution_across_types() {
        let mut x = 42u32;
        x.flip_bit(70); // reduced modulo width
        x.flip_bit(70);
        assert_eq!(x, 42);
        let mut y = -1.5f64;
        y.flip_bit(63);
        assert!(y > 0.0, "sign bit flipped");
        y.flip_bit(63);
        assert_eq!(y, -1.5);
        let mut z = 7i16;
        z.flip_bit(3);
        assert_eq!(z, 15);
    }

    #[test]
    fn integer_images_are_value_stable() {
        assert_eq!(3u8.image(), 3u64);
        assert_eq!(3u64.image(), 3u64);
        assert_eq!(checksum_slice(&[1u8, 2, 3]), checksum_slice(&[1u64, 2, 3]));
    }

    #[test]
    fn checksum_image_separates_components_and_flips_both_halves() {
        use fftx_fft::c64;
        let a = c64(1.0, 2.0);
        assert_eq!(a.image(), c64(1.0, 2.0).image(), "image is pure");
        assert_ne!(a.image(), c64(2.0, 1.0).image(), "re/im swap must differ");
        // Every bit of either component changes the image, and flips are
        // involutions.
        for bit in 0..128 {
            let mut z = c64(0.5, -3.25);
            z.flip_bit(bit);
            assert_ne!(z.image(), c64(0.5, -3.25).image(), "bit {bit}");
            assert_ne!(z, c64(0.5, -3.25));
            z.flip_bit(bit);
            assert_eq!(z, c64(0.5, -3.25));
        }
        // Bit 64 strikes the imaginary part, bit 0 the real part.
        let mut z = Complex64::ZERO;
        z.flip_bit(64);
        assert_eq!(z.re, 0.0);
        assert_ne!(z.im.to_bits(), 0);
    }
}
