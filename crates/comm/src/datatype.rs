//! Plain-old-data element types and byte conversion.
//!
//! Message payloads travel as byte vectors; typed sends and receives cast
//! element slices to and from bytes. The `Pod` trait marks types for which
//! this is sound: no padding, no invalid bit patterns, no pointers.
//!
//! Every conversion in this module charges the [`BYTES_COPIED`] counter
//! with the number of payload bytes it memcpy'd (when an obs recorder is
//! installed), so the collectives' copy discipline is measurable: the
//! cross-transport tests pin a broadcast's copies by exactly this
//! counter. The `*_into` variants reuse a caller-owned buffer so
//! steady-state collectives allocate once and stay one-copy per hop.

use dynmpi_obs as obs;

/// Metric charged (in bytes) by every payload memcpy in the comm crate:
/// serialization, deserialization, and relay clones alike.
pub const BYTES_COPIED: &str = "comm.bytes_copied";

/// Records `n` payload bytes copied. Exposed so `ops.rs` can charge relay
/// clones through the same counter.
#[inline]
pub(crate) fn count_copied(n: usize) {
    obs::count(BYTES_COPIED, n as u64);
}

/// Marker for types that can be safely reinterpreted as raw bytes.
///
/// # Safety
///
/// Implementors must be `Copy`, have no padding bytes, and admit every bit
/// pattern as a valid value. All implementations live in this module; the
/// trait is sealed by convention (do not implement it downstream unless the
/// same guarantees hold).
pub unsafe trait Pod: Copy + Send + 'static {}

macro_rules! impl_pod {
    ($($t:ty),* $(,)?) => {
        $(unsafe impl Pod for $t {})*
    };
}

impl_pod!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Appends the byte image of `data` to `out` without clearing it — the
/// primitive under [`to_bytes_into`] and the broadcast frame builder in
/// `ops.rs`.
pub(crate) fn append_bytes<P: Pod>(data: &[P], out: &mut Vec<u8>) {
    extend_bytes(data, out);
    count_copied(std::mem::size_of_val(data));
}

/// [`append_bytes`] without the charge, for callers that charge a whole
/// payload at once.
fn extend_bytes<P: Pod>(data: &[P], out: &mut Vec<u8>) {
    let len = std::mem::size_of_val(data);
    let old = out.len();
    out.reserve(len);
    // SAFETY: `P: Pod` has no padding, so reading its bytes is defined;
    // the destination was reserved for `len` additional bytes.
    unsafe {
        std::ptr::copy_nonoverlapping(data.as_ptr().cast::<u8>(), out.as_mut_ptr().add(old), len);
        out.set_len(old + len);
    }
}

/// Packs `parts` end to end into one payload of exactly `elems` elements'
/// bytes: one allocation of the final size, one copy of each part, one
/// charge of [`BYTES_COPIED`] for the whole payload. Panics if the parts
/// hold a different number of elements.
pub fn concat_to_bytes<'a, P: Pod>(
    parts: impl IntoIterator<Item = &'a [P]>,
    elems: usize,
) -> Vec<u8> {
    let len = elems * std::mem::size_of::<P>();
    let mut out = Vec::with_capacity(len);
    for part in parts {
        extend_bytes(part, &mut out);
    }
    assert_eq!(
        out.len(),
        len,
        "parts do not hold the {elems} elements declared"
    );
    count_copied(len);
    out
}

/// Copies consecutive slices of `bytes` into `parts`, each taking as many
/// bytes as it has elements: the inverse of [`concat_to_bytes`], with no
/// intermediate buffer, charging [`BYTES_COPIED`] once. Panics unless the
/// parts cover `bytes` exactly.
pub fn scatter_from_bytes<'a, P: Pod>(bytes: &[u8], parts: impl IntoIterator<Item = &'a mut [P]>) {
    let mut off = 0;
    for part in parts {
        let n = std::mem::size_of_val(part);
        assert!(
            off + n <= bytes.len(),
            "parts exceed the {}-byte payload",
            bytes.len()
        );
        // SAFETY: `P: Pod` accepts any bit pattern, so writing arbitrary
        // bytes over `part` leaves valid elements; `bytes[off..off + n]`
        // is in bounds (checked above) and cannot overlap `part`, which is
        // borrowed mutably.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr().add(off),
                part.as_mut_ptr().cast::<u8>(),
                n,
            );
        }
        off += n;
    }
    assert_eq!(
        off,
        bytes.len(),
        "parts do not cover the {}-byte payload",
        bytes.len()
    );
    count_copied(off);
}

/// Typed clone that charges [`BYTES_COPIED`], so `data.to_vec()` on hot
/// paths stays visible to the copy accounting.
pub(crate) fn counted_to_vec<P: Pod>(data: &[P]) -> Vec<P> {
    count_copied(std::mem::size_of_val(data));
    data.to_vec()
}

/// Serializes a slice of POD elements to bytes (native endianness; both
/// transports stay within one process, so this is lossless).
pub fn to_bytes<P: Pod>(data: &[P]) -> Vec<u8> {
    let mut out = Vec::new();
    to_bytes_into(data, &mut out);
    out
}

/// Serializes into a reusable buffer: clears `out`, then appends the byte
/// image of `data`. Capacity is retained across calls, so a loop that
/// serializes into the same buffer allocates only on growth.
pub fn to_bytes_into<P: Pod>(data: &[P], out: &mut Vec<u8>) {
    out.clear();
    append_bytes(data, out);
}

/// Serializes `items` straight into one payload, with no slice of them
/// in between: [`to_bytes`] of what they would collect into. One
/// allocation of the final size when the iterator's length is exact, and
/// one charge of [`BYTES_COPIED`].
pub fn iter_to_bytes<P: Pod>(items: impl IntoIterator<Item = P>) -> Vec<u8> {
    let items = items.into_iter();
    let mut out = Vec::with_capacity(items.size_hint().0 * std::mem::size_of::<P>());
    for item in items {
        extend_bytes(std::slice::from_ref(&item), &mut out);
    }
    count_copied(out.len());
    out
}

/// Deserializes bytes produced by [`to_bytes`] back into elements.
///
/// Panics if the byte length is not a multiple of the element size.
pub fn from_bytes<P: Pod>(bytes: &[u8]) -> Vec<P> {
    let mut out = Vec::new();
    from_bytes_into(bytes, &mut out);
    out
}

/// Deserializes into a reusable buffer: clears `out`, then appends the
/// decoded elements. Panics if the byte length is not a multiple of the
/// element size.
pub fn from_bytes_into<P: Pod>(bytes: &[u8], out: &mut Vec<P>) {
    let esz = std::mem::size_of::<P>();
    assert!(esz > 0, "zero-sized POD elements are not supported");
    assert!(
        bytes.len().is_multiple_of(esz),
        "byte length {} is not a multiple of element size {}",
        bytes.len(),
        esz
    );
    let n = bytes.len() / esz;
    out.clear();
    out.reserve(n);
    // SAFETY: `P: Pod` accepts any bit pattern; the destination has
    // capacity for `n` elements and is properly aligned by Vec; lengths
    // match.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    count_copied(bytes.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip() {
        let v = vec![1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(from_bytes::<f64>(&to_bytes(&v)), v);
    }

    #[test]
    fn u32_round_trip() {
        let v: Vec<u32> = (0..100u32).map(|i| i.wrapping_mul(2654435761)).collect();
        assert_eq!(from_bytes::<u32>(&to_bytes(&v)), v);
    }

    #[test]
    fn empty_round_trip() {
        let v: Vec<i64> = vec![];
        let b = to_bytes(&v);
        assert!(b.is_empty());
        assert!(from_bytes::<i64>(&b).is_empty());
    }

    #[test]
    fn nan_bits_preserved() {
        let v = vec![f64::NAN];
        let r = from_bytes::<f64>(&to_bytes(&v));
        assert_eq!(r[0].to_bits(), v[0].to_bits());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_length_panics() {
        let _ = from_bytes::<f64>(&[0u8; 7]);
    }

    #[test]
    fn byte_length_is_exact() {
        let v = vec![0u16; 7];
        assert_eq!(to_bytes(&v).len(), 14);
    }

    #[test]
    fn concat_and_scatter_round_trip_in_one_buffer() {
        let (a, b) = ([1u32, 2], [3u32, 4, 5]);
        let bytes = concat_to_bytes([&a[..], &b[..]], 5);
        assert_eq!(bytes, to_bytes(&[1u32, 2, 3, 4, 5]));
        assert_eq!(bytes.capacity(), 20, "allocated at its final size");
        let (mut x, mut y) = ([0u32; 3], [0u32; 2]);
        scatter_from_bytes(&bytes, [&mut x[..], &mut y[..]]);
        assert_eq!((x, y), ([1, 2, 3], [4, 5]));
    }

    #[test]
    #[should_panic(expected = "do not hold")]
    fn concat_checks_the_declared_length() {
        let _ = concat_to_bytes([&[1u8][..]], 2);
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn scatter_checks_the_payload_is_used_up() {
        let mut x = [0u16; 1];
        scatter_from_bytes(&[0u8; 4], [&mut x[..]]);
    }

    #[test]
    fn into_variants_reuse_capacity() {
        let mut bytes = Vec::new();
        let mut elems: Vec<u32> = Vec::new();
        to_bytes_into(&[1u32, 2, 3, 4], &mut bytes);
        let cap = bytes.capacity();
        from_bytes_into(&bytes, &mut elems);
        assert_eq!(elems, vec![1, 2, 3, 4]);
        // A smaller payload must not reallocate the byte buffer.
        to_bytes_into(&[9u32], &mut bytes);
        assert_eq!(bytes.capacity(), cap);
        assert_eq!(from_bytes::<u32>(&bytes), vec![9]);
    }
}
