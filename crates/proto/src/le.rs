//! The little-endian reader and writer under both of Crowd-ML's byte formats:
//! the wire codec ([`crate::codec`]) and `crowd-store`'s WAL and snapshot
//! codec. Integers are little-endian, `f64` travels as its IEEE-754 bit
//! pattern, and a vector is a `u32` element count followed by its elements.
//!
//! Readers take a `&mut &[u8]` cursor and advance it past what they read.
//! A count is checked once, before anything is sized by it: against the
//! calling codec's cap, and — every element being at least some width —
//! against the bytes left. A numeric run is then split off the cursor and
//! converted in one `as_chunks` + `from_le_bytes` pass into an exactly sized
//! `Vec`. Writers append to a `Vec<u8>`; a numeric run costs one `reserve`
//! and one pass. Failures are a [`LeError`], which each codec maps into its
//! own error type. The non-generic functions are `#[inline]`: `crowd-store`
//! calls them from another crate, on the durable write path.

/// Why a read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeError {
    /// The bytes ran out while reading the named field.
    Truncated(&'static str),
    /// A count prefix declared more elements than the codec's cap.
    OverCap {
        /// The field whose count it was.
        what: &'static str,
        /// The declared count.
        len: usize,
        /// The cap it exceeded.
        cap: usize,
    },
}

/// Result alias for the readers.
pub type Result<T> = std::result::Result<T, LeError>;

/// A fixed-width number and its `N` little-endian bytes (bit patterns for
/// `f64`, so NaN payloads and signed zeros survive both ways).
pub trait Le<const N: usize>: Copy {
    /// The little-endian bytes of `self`.
    fn to_le(self) -> [u8; N];
    /// The value whose little-endian bytes are `bytes`.
    fn from_le(bytes: [u8; N]) -> Self;
}

/// Implements [`Le`] for each type and defines its scalar reader and writer.
macro_rules! scalars {
    ($($t:ty, $n:literal, $get:ident, $put:ident;)*) => {$(
        impl Le<$n> for $t {
            fn to_le(self) -> [u8; $n] {
                self.to_le_bytes()
            }
            fn from_le(bytes: [u8; $n]) -> Self {
                <$t>::from_le_bytes(bytes)
            }
        }

        #[doc = concat!("Reads a `", stringify!($t), "`.")]
        #[inline]
        pub fn $get(buf: &mut &[u8], what: &'static str) -> Result<$t> {
            get_array(buf, what).map(<$t>::from_le_bytes)
        }

        #[doc = concat!("Appends a `", stringify!($t), "`.")]
        #[inline]
        pub fn $put(buf: &mut Vec<u8>, v: $t) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    )*};
}

scalars! {
    u8, 1, get_u8, put_u8;
    u16, 2, get_u16, put_u16;
    u32, 4, get_u32, put_u32;
    u64, 8, get_u64, put_u64;
    i64, 8, get_i64, put_i64;
    f64, 8, get_f64, put_f64;
}

/// Quantized gradient levels travel only as runs, never as scalars.
impl Le<2> for i16 {
    fn to_le(self) -> [u8; 2] {
        self.to_le_bytes()
    }
    fn from_le(bytes: [u8; 2]) -> Self {
        i16::from_le_bytes(bytes)
    }
}

/// Splits `n` bytes off the cursor.
#[inline]
pub fn get_bytes<'a>(buf: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(n).ok_or(LeError::Truncated(what))?;
    *buf = rest;
    Ok(head)
}

/// Splits `N` bytes off the cursor as an array.
pub fn get_array<const N: usize>(buf: &mut &[u8], what: &'static str) -> Result<[u8; N]> {
    let (head, rest) = buf.split_first_chunk().ok_or(LeError::Truncated(what))?;
    *buf = rest;
    Ok(*head)
}

/// Reads a `u32` element count and checks it before anything is sized by
/// it: against `cap`, then — every element taking at least `min_width`
/// bytes — against what is left of the cursor. A forged count is an error,
/// never a reservation.
#[inline]
pub fn get_count(
    buf: &mut &[u8],
    cap: usize,
    min_width: usize,
    what: &'static str,
) -> Result<usize> {
    let len = get_u32(buf, what)? as usize;
    if len > cap {
        return Err(LeError::OverCap { what, len, cap });
    }
    if buf.len() < len.saturating_mul(min_width) {
        return Err(LeError::Truncated(what));
    }
    Ok(len)
}

/// Splits `count` values off the cursor after one bounds check and converts
/// them in one pass into an exactly sized `Vec`.
pub fn get_run<T: Le<N>, const N: usize>(
    buf: &mut &[u8],
    count: usize,
    what: &'static str,
) -> Result<Vec<T>> {
    let run = get_bytes(buf, count.saturating_mul(N), what)?;
    Ok(run
        .as_chunks()
        .0
        .iter()
        .map(|raw| T::from_le(*raw))
        .collect())
}

/// Reads a count-prefixed vector of at most `cap` values.
pub fn get_vec<T: Le<N>, const N: usize>(
    buf: &mut &[u8],
    cap: usize,
    what: &'static str,
) -> Result<Vec<T>> {
    let count = get_count(buf, cap, N, what)?;
    get_run(buf, count, what)
}

/// Appends a run of values, without a count: one `reserve`, then the values
/// serialized block by block through a stack buffer, so the capacity check
/// runs once per 256 values rather than once per value.
pub fn put_run<T: Le<N>, const N: usize>(buf: &mut Vec<u8>, values: &[T]) {
    buf.reserve(N * values.len());
    let mut block = [[0u8; N]; 256];
    for chunk in values.chunks(256) {
        for (slot, &v) in block.iter_mut().zip(chunk) {
            *slot = v.to_le();
        }
        buf.extend_from_slice(block[..chunk.len()].as_flattened());
    }
}

/// Appends a count-prefixed vector.
pub fn put_vec<T: Le<N>, const N: usize>(buf: &mut Vec<u8>, values: &[T]) {
    put_u32(buf, values.len() as u32);
    put_run(buf, values);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runs are covered through both codecs' layouts (crowd-store's
    /// block-write test, the wire's differential proptest, the golden
    /// bytes). This pins the reader's own contract: a short read leaves the
    /// cursor alone, and a count is refused over the cap, then over the
    /// bytes behind it, without `count × width` wrapping.
    #[test]
    fn short_reads_and_forged_counts_are_errors() {
        let mut cursor: &[u8] = &[1, 2, 3];
        assert_eq!(get_u32(&mut cursor, "x"), Err(LeError::Truncated("x")));
        assert_eq!(get_u16(&mut cursor, "x"), Ok(0x0201));
        assert_eq!(get_u8(&mut cursor, "x"), Ok(3));
        assert_eq!(get_u8(&mut cursor, "x"), Err(LeError::Truncated("x")));

        let mut buf = Vec::new();
        put_vec(&mut buf, &[5u64; 5]);
        buf.pop();
        let over = get_count(&mut &buf[..], 4, 8, "v");
        assert_eq!(
            over,
            Err(LeError::OverCap {
                what: "v",
                len: 5,
                cap: 4
            })
        );
        let short = get_vec::<u64, 8>(&mut &buf[..], 5, "v");
        assert_eq!(short, Err(LeError::Truncated("v")));
        assert_eq!(get_count(&mut &buf[..], 5, 7, "v"), Ok(5));
        let huge = get_run::<u64, 8>(&mut &buf[..], usize::MAX, "w");
        assert_eq!(huge, Err(LeError::Truncated("w")));
    }
}
