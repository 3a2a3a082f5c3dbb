//! The one bounds-checked cursor every decoder in the workspace reads
//! through.
//!
//! A [`Reader`] walks a payload front to back. Each read names the field it
//! is after and either yields the value or fails with a [`ReadError`]
//! carrying that name — the comparison of a wanted length against what is
//! left happens here and nowhere else, so a decoder written against this
//! type has no unchecked read to get wrong, and no input can make it panic
//! or reserve memory the input does not pay for.

/// Why a [`Reader`] refused a read. Codecs map the two variants onto the
/// `Truncated` / `Malformed` variants of their own error type (see
/// [`crate::codec_error_from!`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The named field held a value its format forbids.
    Malformed(&'static str),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Truncated(what) => write!(f, "truncated input at {what}"),
            ReadError::Malformed(what) => write!(f, "malformed input: {what}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A forward-only cursor over a byte payload with checked little-endian
/// reads. `what` names the field in the error a failed read returns.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

macro_rules! scalar_reads {
    ($($name:ident: $ty:ty),*) => {$(
        #[doc = concat!("Reads one little-endian `", stringify!($ty), "`.")]
        ///
        /// # Errors
        /// [`ReadError::Truncated`] when too few bytes are left.
        #[inline]
        pub fn $name(&mut self, what: &'static str) -> Result<$ty, ReadError> {
            let (head, tail) =
                self.buf.split_first_chunk().ok_or(ReadError::Truncated(what))?;
            self.buf = tail;
            Ok(<$ty>::from_le_bytes(*head))
        }
    )*};
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    scalar_reads!(u8: u8, u16: u16, u32: u32, u64: u64, f32: f32, f64: f64);

    /// Reads the next `n` bytes.
    ///
    /// # Errors
    /// [`ReadError::Truncated`] when fewer than `n` bytes are left.
    #[inline]
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ReadError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(ReadError::Truncated(what))?;
        self.buf = tail;
        Ok(head)
    }

    /// Reads a `u32` length and that many bytes — a nested blob.
    ///
    /// # Errors
    /// [`ReadError::Truncated`] when the length or the bytes are cut short.
    #[inline]
    pub fn blob(&mut self, what: &'static str) -> Result<&'a [u8], ReadError> {
        let len = self.u32(what)? as usize;
        self.bytes(len, what)
    }

    /// Takes everything that is left — for a blob the enclosing envelope's
    /// length prefix already delimits.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// Reads a one-byte boolean.
    ///
    /// # Errors
    /// [`ReadError::Malformed`] for any byte but 0 or 1, so a decoded flag
    /// re-encodes to the byte it came from.
    #[inline]
    pub fn flag(&mut self, what: &'static str) -> Result<bool, ReadError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ReadError::Malformed(what)),
        }
    }

    /// Reads a flag-then-value option: a [`Reader::flag`], followed by
    /// whatever `read` reads when it is set.
    ///
    /// # Errors
    /// The flag's or `read`'s.
    #[inline]
    pub fn opt<T>(
        &mut self,
        what: &'static str,
        read: impl FnOnce(&mut Self) -> Result<T, ReadError>,
    ) -> Result<Option<T>, ReadError> {
        self.flag(what)?.then(|| read(self)).transpose()
    }

    /// Checks that `n` records of at least `min_record_len` bytes each can
    /// still follow, and returns `n` — a capacity reserved for `n` records
    /// is then bounded by the input's own length.
    ///
    /// # Errors
    /// [`ReadError::Truncated`] when `n * min_record_len` overflows or
    /// exceeds what is left.
    #[inline]
    pub fn bound(
        &self,
        n: usize,
        min_record_len: usize,
        what: &'static str,
    ) -> Result<usize, ReadError> {
        match n.checked_mul(min_record_len) {
            Some(need) if need <= self.buf.len() => Ok(n),
            _ => Err(ReadError::Truncated(what)),
        }
    }

    /// Reads a `u32` record count and [`Reader::bound`]s it.
    ///
    /// # Errors
    /// [`ReadError::Truncated`] when the count itself is cut short or
    /// announces more records than the remaining bytes could hold.
    #[inline]
    pub fn count(&mut self, min_record_len: usize, what: &'static str) -> Result<usize, ReadError> {
        let n = self.u32(what)? as usize;
        self.bound(n, min_record_len, what)
    }

    /// Reads a [`Reader::count`]-prefixed list, calling `read` with the
    /// cursor and the record's index for each record.
    ///
    /// # Errors
    /// The count's or the first failing record's.
    #[inline]
    pub fn seq<T, E: From<ReadError>>(
        &mut self,
        min_record_len: usize,
        what: &'static str,
        mut read: impl FnMut(&mut Self, usize) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.count(min_record_len, what)?;
        let mut out = Vec::with_capacity(n);
        for index in 0..n {
            out.push(read(self, index)?);
        }
        Ok(out)
    }

    /// Ends the decode: the whole payload must have been consumed.
    ///
    /// # Errors
    /// [`ReadError::Malformed`]`("trailing payload bytes")` when bytes are
    /// left over.
    pub fn finish(self) -> Result<(), ReadError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ReadError::Malformed("trailing payload bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_read_little_endian_and_advance() {
        let mut raw = vec![7u8];
        raw.extend_from_slice(&0x1234u16.to_le_bytes());
        raw.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        raw.extend_from_slice(&u64::MAX.to_le_bytes());
        raw.extend_from_slice(&1.5f32.to_le_bytes());
        raw.extend_from_slice(&(-2.25f64).to_le_bytes());
        let mut r = Reader::new(&raw);
        assert_eq!(r.u8("a"), Ok(7));
        assert_eq!(r.u16("b"), Ok(0x1234));
        assert_eq!(r.u32("c"), Ok(0xdead_beef));
        assert_eq!(r.u64("d"), Ok(u64::MAX));
        assert_eq!(r.f32("e"), Ok(1.5));
        assert_eq!(r.f64("f"), Ok(-2.25));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn short_reads_name_their_field_and_consume_nothing() {
        let raw = [1u8, 2, 3];
        let mut r = Reader::new(&raw);
        assert_eq!(r.u32("width"), Err(ReadError::Truncated("width")));
        assert_eq!(r.bytes(4, "blob"), Err(ReadError::Truncated("blob")));
        assert_eq!(r.bytes(3, "blob"), Ok(&raw[..]));
        assert_eq!(r.u8("tag"), Err(ReadError::Truncated("tag")));
        // A length-prefixed blob: two bytes announced, then three, of two.
        let raw = [2u8, 0, 0, 0, 8, 9, 3, 0, 0, 0, 8, 9];
        let mut r = Reader::new(&raw);
        assert_eq!(r.blob("name"), Ok(&[8u8, 9][..]));
        assert_eq!(r.blob("name"), Err(ReadError::Truncated("name")));
    }

    #[test]
    fn flags_and_options_accept_only_zero_and_one() {
        let raw = [0u8, 1, 9, 0, 0, 0, 2];
        let mut r = Reader::new(&raw);
        assert_eq!(r.opt("seg flag", |r| r.u32("seg")), Ok(None));
        assert_eq!(r.opt("seg flag", |r| r.u32("seg")), Ok(Some(9)));
        assert_eq!(r.flag("ending"), Err(ReadError::Malformed("ending")));
        // A set flag with nothing behind it is the value's truncation.
        assert_eq!(Reader::new(&[1]).opt("f", |r| r.u64("v")), Err(ReadError::Truncated("v")));
    }

    #[test]
    fn counts_are_bounded_by_what_is_left() {
        // Three 4-byte records announced, bytes for two behind the count.
        let mut raw = 3u32.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0; 8]);
        assert_eq!(Reader::new(&raw).count(4, "rows"), Err(ReadError::Truncated("rows")));
        assert_eq!(Reader::new(&raw).count(2, "rows"), Ok(3));
        // A count whose byte length overflows fails the bound, not the math.
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(Reader::new(&huge).count(usize::MAX, "x"), Err(ReadError::Truncated("x")));
        assert_eq!(Reader::new(&[]).bound(usize::MAX, 2, "y"), Err(ReadError::Truncated("y")));
        assert_eq!(Reader::new(&[]).bound(usize::MAX, 0, "y"), Ok(usize::MAX));
    }

    #[test]
    fn seq_reads_indexed_records_and_stops_at_the_first_error() {
        let mut raw = 2u32.to_le_bytes().to_vec();
        raw.extend_from_slice(&[5, 6, 7]);
        let mut r = Reader::new(&raw);
        let got: Result<Vec<(usize, u8)>, ReadError> =
            r.seq(1, "items", |r, i| Ok((i, r.u8("item")?)));
        assert_eq!(got, Ok(vec![(0, 5), (1, 6)]));
        assert_eq!(r.clone().finish(), Err(ReadError::Malformed("trailing payload bytes")));
        assert_eq!(r.rest(), &[7]);
        assert_eq!(r.finish(), Ok(()));
        let short: Result<Vec<u16>, ReadError> =
            Reader::new(&raw).seq(1, "items", |r, _| r.u16("item"));
        assert_eq!(short, Err(ReadError::Truncated("item")));
    }
}
