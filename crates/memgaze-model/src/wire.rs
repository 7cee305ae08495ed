//! The one wire layer under every MemGaze binary format.
//!
//! Every format — MGZT v1/v2, MGZX, MGZP, MGZS, MGZQ/MGZW, MGZB, the LZ
//! stream and MGZC (format table and bound rules in DESIGN.md §19) — is
//! written with a [`Writer`] and read with a [`Reader`], which hold the
//! only copy of each primitive: minimal LEB128 varints (decoded with a
//! single bounds check whenever ten bytes remain — the MGZT and MGZP hot
//! loops live on that path), zigzag, fixed-width little-endian integers,
//! `f64` as bits, length-prefixed bytes and UTF-8, checked narrowing and
//! delta accumulation, length/count reads checked against the remaining
//! input before anything is reserved, and the shared
//! `magic | u16 version | body | FNV-1a-64 LE` framing
//! ([`Writer::framed`], [`Writer::seal`], [`open`]). Decode failures are
//! one [`WireError`], which each crate converts into its own variants.

use crate::hash::fnv1a64;

/// What was wrong with the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireErrorKind {
    /// Input ended inside the field, or a declared length exceeds what
    /// the remaining input can hold.
    Truncated,
    /// A varint longer than ten bytes, past 64 bits, or not minimal.
    BadVarint,
    /// A value too large for its type or for the format's limit.
    Oversize { value: u64 },
    /// A delta accumulation overflowed `u64`.
    Overflow,
    /// A value outside its field's domain (unknown tag, misordered entry).
    Invalid { value: u64 },
    /// A string that is not UTF-8.
    BadUtf8,
    /// A frame that does not start with the expected magic.
    BadMagic { found: [u8; 4] },
    /// A frame version this build does not read.
    BadVersion { found: u16, expected: u16 },
    /// A frame whose FNV-1a-64 trailer does not match its bytes.
    Checksum { computed: u64, stored: u64 },
    /// Bytes left over after the value ends.
    TrailingBytes { count: usize },
}

/// A decode failure: the byte offset where decoding stopped, the field
/// being decoded, and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub offset: usize,
    pub field: &'static str,
    pub kind: WireErrorKind,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (field, at) = (self.field, self.offset);
        match &self.kind {
            WireErrorKind::Truncated => write!(f, "truncated {field} at byte {at}"),
            WireErrorKind::BadVarint => {
                write!(f, "varint overflow or padding in {field} at byte {at}")
            }
            WireErrorKind::Oversize { value } => {
                write!(f, "{field} {value} at byte {at} is too large")
            }
            WireErrorKind::Overflow => write!(f, "{field} at byte {at} overflows u64"),
            WireErrorKind::Invalid { value } => write!(f, "invalid {field} {value} at byte {at}"),
            WireErrorKind::BadUtf8 => write!(f, "non-utf8 string in {field} at byte {at}"),
            WireErrorKind::BadMagic { found } => write!(f, "{field} magic {found:?}"),
            WireErrorKind::BadVersion { found, expected } => {
                write!(f, "{field} version {found}, expected {expected}")
            }
            WireErrorKind::Checksum { computed, stored } => {
                write!(
                    f,
                    "{field} checksum {computed:#018x} != stored {stored:#018x}"
                )
            }
            WireErrorKind::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after {field}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Zigzag-encode a signed value so small magnitudes stay small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Appends primitives to a byte vector. [`seal`](Self::seal) checksums
/// only what this writer wrote, so a frame encoded into a pooled buffer
/// with earlier content is byte-identical to one in a fresh buffer.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
    start: usize,
}

impl<'a> Writer<'a> {
    pub fn new(buf: &'a mut Vec<u8>) -> Writer<'a> {
        let start = buf.len();
        Writer { buf, start }
    }

    /// A writer that has already written `magic` and `version` (`u16`
    /// LE); finish the frame with [`seal`](Self::seal).
    pub fn framed(buf: &'a mut Vec<u8>, magic: &[u8; 4], version: u16) -> Writer<'a> {
        let mut w = Writer::new(buf);
        w.bytes(magic);
        w.u16_le(version);
        w
    }

    #[inline]
    pub fn bytes(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16_le(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn u32_le(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn u64_le(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64` as its IEEE-754 bits: a bit-exact round trip.
    pub fn f64(&mut self, v: f64) {
        self.u64_le(v.to_bits());
    }

    /// An unsigned LEB128 varint.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    #[inline]
    pub fn zigzag(&mut self, v: i64) {
        self.varint(zigzag(v));
    }

    /// A varint length, then the bytes.
    pub fn len_bytes(&mut self, data: &[u8]) {
        self.varint(data.len() as u64);
        self.bytes(data);
    }

    pub fn str(&mut self, s: &str) {
        self.len_bytes(s.as_bytes());
    }

    /// Close a frame: append the FNV-1a-64 (LE) of everything written.
    pub fn seal(self) {
        let sum = fnv1a64(&self.buf[self.start..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
    }
}

/// Reads primitives off a byte slice, tracking the offset so every error
/// names where it happened. No method panics or allocates beyond what it
/// returns.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
    /// Offset of the end of `rest` within the decoded input.
    end: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader {
            rest: data,
            end: data.len(),
        }
    }

    /// Offset of the next unread byte.
    #[inline]
    pub fn offset(&self) -> usize {
        self.end - self.rest.len()
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The unread input, without consuming it.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// An error of `kind` in `field` at the current offset.
    #[cold]
    pub fn error(&self, field: &'static str, kind: WireErrorKind) -> WireError {
        WireError {
            offset: self.offset(),
            field,
            kind,
        }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        if n > self.rest.len() {
            return Err(self.error(field, WireErrorKind::Truncated));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], WireError> {
        Ok(self
            .bytes(N, field)?
            .try_into()
            .expect("bytes gave N bytes"))
    }

    #[inline]
    pub fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.array::<1>(field)?[0])
    }

    pub fn u16_le(&mut self, field: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array(field)?))
    }

    pub fn u32_le(&mut self, field: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array(field)?))
    }

    #[inline]
    pub fn u64_le(&mut self, field: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array(field)?))
    }

    #[inline]
    pub fn f64(&mut self, field: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64_le(field)?))
    }

    /// An unsigned LEB128 varint, which must be minimally encoded. A
    /// `u64` spans at most ten bytes, so when ten remain the value
    /// decodes off the slice with one bounds decision, not one per byte.
    #[inline]
    pub fn varint(&mut self, field: &'static str) -> Result<u64, WireError> {
        let s = self.rest;
        if s.len() < 10 {
            return self.varint_short(field);
        }
        let mut v: u64 = 0;
        for (i, &byte) in s[..10].iter().enumerate() {
            v |= u64::from(byte & 0x7f) << (7 * i as u32);
            if byte & 0x80 == 0 {
                // A zero last byte is padding; a tenth byte above 1
                // carries bits past 64.
                if i > 0 && (byte == 0 || (i == 9 && byte > 1)) {
                    break;
                }
                self.rest = &s[i + 1..];
                return Ok(v);
            }
        }
        Err(self.error(field, WireErrorKind::BadVarint))
    }

    /// [`varint`](Self::varint) with fewer than ten bytes left.
    #[cold]
    fn varint_short(&mut self, field: &'static str) -> Result<u64, WireError> {
        let s = self.rest;
        let mut v: u64 = 0;
        for (i, &byte) in s.iter().enumerate() {
            v |= u64::from(byte & 0x7f) << (7 * i as u32);
            if byte & 0x80 == 0 {
                if i > 0 && byte == 0 {
                    return Err(self.error(field, WireErrorKind::BadVarint));
                }
                self.rest = &s[i + 1..];
                return Ok(v);
            }
        }
        Err(self.error(field, WireErrorKind::Truncated))
    }

    #[inline]
    pub fn zigzag(&mut self, field: &'static str) -> Result<i64, WireError> {
        Ok(unzigzag(self.varint(field)?))
    }

    /// Narrow a decoded `u64` to `T`: a value that does not fit is
    /// [`WireErrorKind::Oversize`], never a wrapped one.
    pub fn narrow<T: TryFrom<u64>>(&self, v: u64, field: &'static str) -> Result<T, WireError> {
        T::try_from(v).map_err(|_| self.error(field, WireErrorKind::Oversize { value: v }))
    }

    pub fn usize(&mut self, field: &'static str) -> Result<usize, WireError> {
        let v = self.varint(field)?;
        self.narrow(v, field)
    }

    pub fn u32(&mut self, field: &'static str) -> Result<u32, WireError> {
        let v = self.varint(field)?;
        self.narrow(v, field)
    }

    /// The length of a list whose entries take at least `min_entry_bytes`
    /// each. A length the remaining input cannot hold is
    /// [`WireErrorKind::Truncated`], so the caller may reserve it.
    pub fn len(&mut self, min_entry_bytes: usize, field: &'static str) -> Result<usize, WireError> {
        let n = self.usize(field)?;
        if n.saturating_mul(min_entry_bytes.max(1)) > self.rest.len() {
            return Err(self.error(field, WireErrorKind::Truncated));
        }
        Ok(n)
    }

    /// The entry count of a run-length-encoded list, which the remaining
    /// input does not bound; above `limit` it is
    /// [`WireErrorKind::Oversize`]. Do not reserve more than
    /// [`capacity`](Self::capacity) before the list has been validated.
    pub fn count(&mut self, limit: usize, field: &'static str) -> Result<usize, WireError> {
        let n = self.usize(field)?;
        if n > limit {
            return Err(self.error(field, WireErrorKind::Oversize { value: n as u64 }));
        }
        Ok(n)
    }

    /// How many of `n` declared entries to reserve: at most one per
    /// remaining byte. Vectors grow past this only as entries decode.
    #[inline]
    pub fn capacity(&self, n: usize) -> usize {
        n.min(self.rest.len())
    }

    /// Length-prefixed bytes.
    pub fn len_bytes(&mut self, field: &'static str) -> Result<&'a [u8], WireError> {
        let n = self.len(1, field)?;
        self.bytes(n, field)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, field: &'static str) -> Result<&'a str, WireError> {
        let raw = self.len_bytes(field)?;
        std::str::from_utf8(raw).map_err(|_| self.error(field, WireErrorKind::BadUtf8))
    }

    pub fn string(&mut self, field: &'static str) -> Result<String, WireError> {
        self.str(field).map(str::to_owned)
    }

    /// `acc + delta`, checked: the one way decoders accumulate deltas.
    #[inline]
    pub fn accumulate(&self, acc: u64, delta: u64, field: &'static str) -> Result<u64, WireError> {
        acc.checked_add(delta)
            .ok_or_else(|| self.error(field, WireErrorKind::Overflow))
    }

    /// Read a varint delta and add it to `acc`, checked.
    #[inline]
    pub fn delta(&mut self, acc: u64, field: &'static str) -> Result<u64, WireError> {
        let d = self.varint(field)?;
        self.accumulate(acc, d, field)
    }

    /// Check a `magic | u16 version` header.
    pub fn header(
        &mut self,
        magic: &[u8; 4],
        version: u16,
        field: &'static str,
    ) -> Result<(), WireError> {
        let found: [u8; 4] = self.array(field)?;
        if &found != magic {
            return Err(self.error(field, WireErrorKind::BadMagic { found }));
        }
        let found = self.u16_le(field)?;
        if found != version {
            let expected = version;
            return Err(self.error(field, WireErrorKind::BadVersion { found, expected }));
        }
        Ok(())
    }

    /// Require that the value named `field` ended exactly here.
    pub fn finish(&self, field: &'static str) -> Result<(), WireError> {
        match self.rest.len() {
            0 => Ok(()),
            count => Err(self.error(field, WireErrorKind::TrailingBytes { count })),
        }
    }
}

/// Open a frame written by [`Writer::framed`] + [`Writer::seal`]: check
/// the length, then the checksum, then magic and version, and return a
/// reader over the body. Error offsets count from the start of `data`.
pub fn open<'a>(
    data: &'a [u8],
    magic: &[u8; 4],
    version: u16,
    what: &'static str,
) -> Result<Reader<'a>, WireError> {
    // 4-byte magic + u16 version + 8-byte trailer.
    if data.len() < 14 {
        return Err(Reader::new(data).error(what, WireErrorKind::Truncated));
    }
    let (body, sum) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(sum.try_into().expect("split_at gave 8 bytes"));
    let computed = fnv1a64(body);
    if computed != stored {
        return Err(Reader::new(data).error(what, WireErrorKind::Checksum { computed, stored }));
    }
    let mut r = Reader::new(body);
    r.header(magic, version, what)?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(v: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        Writer::new(&mut buf).varint(v);
        buf
    }

    #[test]
    fn varint_roundtrips_on_both_paths() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            1 << 35,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let bytes = encoded(v);
            // Short path: exactly the varint's bytes.
            assert_eq!(Reader::new(&bytes).varint("v").unwrap(), v);
            // Fast path: ten or more bytes available.
            let mut padded = bytes.clone();
            padded.extend_from_slice(&[0xAA; 10]);
            let mut r = Reader::new(&padded);
            assert_eq!(r.varint("v").unwrap(), v);
            assert_eq!(r.offset(), bytes.len());
        }
    }

    #[test]
    fn non_minimal_and_overlong_varints_are_rejected() {
        let cases: [&[u8]; 4] = [
            &[0x80, 0x00],
            &[0xff; 11],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            &[0x81, 0x80, 0x00],
        ];
        for bytes in cases {
            for pad in [0usize, 12] {
                let mut data = bytes.to_vec();
                data.extend(std::iter::repeat_n(0u8, pad));
                let err = Reader::new(&data).varint("v").unwrap_err();
                assert_eq!(err.kind, WireErrorKind::BadVarint, "{bytes:?} pad {pad}");
            }
        }
        let err = Reader::new(&[0x80, 0x80]).varint("v").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Truncated);
    }

    #[test]
    fn zigzag_inverts() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn primitives_roundtrip_and_track_offsets() {
        let mut buf = vec![0xEE]; // earlier content the writer must skip
        let mut w = Writer::new(&mut buf);
        w.u8(7);
        w.u16_le(0xBEEF);
        w.u32_le(0xDEAD_BEEF);
        w.u64_le(u64::MAX - 3);
        w.f64(-0.0);
        w.zigzag(-300);
        w.str("héllo");
        w.len_bytes(&[1, 2, 3]);
        let mut r = Reader::new(&buf[1..]);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16_le("b").unwrap(), 0xBEEF);
        assert_eq!(r.u32_le("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64_le("d").unwrap(), u64::MAX - 3);
        assert_eq!(r.f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.zigzag("f").unwrap(), -300);
        assert_eq!(r.str("g").unwrap(), "héllo");
        assert_eq!(r.len_bytes("h").unwrap(), &[1, 2, 3]);
        r.finish("end").unwrap();
        let err = r.u8("past").unwrap_err();
        assert_eq!((err.offset, err.field), (buf.len() - 1, "past"));
    }

    #[test]
    fn lengths_and_counts_are_bounded_before_reserving() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.varint(u64::MAX >> 1);
        w.varint(5);
        w.bytes(&[0; 9]);
        let mut r = Reader::new(&buf);
        let err = r.len(3, "entries").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Truncated);
        // Five 1-byte entries fit in the nine remaining bytes; five
        // 2-byte ones do not.
        assert_eq!(r.clone().len(1, "entries").unwrap(), 5);
        assert!(r.clone().len(2, "entries").is_err());
        assert_eq!(r.clone().count(5, "runs").unwrap(), 5);
        assert!(matches!(
            r.count(4, "runs").unwrap_err().kind,
            WireErrorKind::Oversize { value: 5 }
        ));
        assert_eq!(r.capacity(1 << 40), 9);
    }

    #[test]
    fn narrowing_and_accumulation_are_checked() {
        let bytes = encoded(u64::from(u32::MAX) + 1);
        assert!(matches!(
            Reader::new(&bytes).u32("id").unwrap_err().kind,
            WireErrorKind::Oversize { .. }
        ));
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.varint(u64::MAX);
        w.varint(5);
        let mut r = Reader::new(&buf);
        let acc = r.delta(0, "block").unwrap();
        let err = r.delta(acc, "block").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Overflow);
    }

    #[test]
    fn frames_seal_and_open() {
        let mut buf = b"prefix".to_vec();
        let mut w = Writer::framed(&mut buf, b"MGZT", 3);
        w.str("body");
        w.seal();
        let frame = &buf[6..];
        let mut r = open(frame, b"MGZT", 3, "test frame").unwrap();
        assert_eq!(r.offset(), 6);
        assert_eq!(r.str("s").unwrap(), "body");
        r.finish("test frame").unwrap();

        let kind = |data: &[u8], magic: &[u8; 4], version| {
            open(data, magic, version, "test frame").unwrap_err().kind
        };
        assert_eq!(kind(&frame[..13], b"MGZT", 3), WireErrorKind::Truncated);
        assert!(matches!(
            kind(frame, b"MGZX", 3),
            WireErrorKind::BadMagic { found } if &found == b"MGZT"
        ));
        assert!(matches!(
            kind(frame, b"MGZT", 4),
            WireErrorKind::BadVersion {
                found: 3,
                expected: 4
            }
        ));
        let mut flipped = frame.to_vec();
        flipped[7] ^= 1;
        assert!(matches!(
            kind(&flipped, b"MGZT", 3),
            WireErrorKind::Checksum { .. }
        ));
    }
}
