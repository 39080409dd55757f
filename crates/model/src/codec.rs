//! Minimal versioned binary codec.
//!
//! MoniLog components are trained online (templates discovered, models
//! fitted) and must survive process restarts: a parser that forgets its
//! templates renumbers every log key and invalidates the detector. The
//! workspace has no serialization dependency, so this module provides a
//! deliberately small, explicit binary encoding — little-endian
//! fixed-width scalars, length-prefixed strings and sequences, a
//! magic/version header per top-level object — used by
//! [`crate::TemplateStore`] persistence and the detector checkpoints in
//! `monilog-detect`.

use bytes::{Buf, BufMut};
use std::fmt;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Truncated,
    /// Magic bytes did not match the expected object kind.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// Unsupported object version.
    BadVersion { expected: u16, found: u16 },
    /// A length or enum tag was out of the valid range.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("input truncated"),
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                std::str::from_utf8(expected).unwrap_or("????"),
                std::str::from_utf8(found).unwrap_or("????"),
            ),
            CodecError::BadVersion { expected, found } => {
                write!(f, "unsupported version {found} (expected {expected})")
            }
            CodecError::Corrupt(what) => write!(f, "corrupt field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup table,
/// built at compile time. The workspace has no checksum crate; the durable
/// journal and checkpoint files frame every payload with this CRC so torn
/// or bit-flipped state is detected instead of decoded.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the checksum framing durable journal records
/// and checkpoint snapshots.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a top-level object: 4-byte magic + u16 version.
    pub fn with_header(magic: [u8; 4], version: u16) -> Self {
        let mut e = Self::new();
        e.buf.put_slice(&magic);
        e.buf.put_u16_le(version);
        e
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(u8::from(v));
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }

    /// Sequence length prefix (callers then encode each element).
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(n as u32);
    }

    /// Length-prefixed opaque byte blob (nested encodings, e.g. a detector
    /// checkpoint embedded in a pipeline snapshot).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_len(bytes.len());
        self.buf.put_slice(bytes);
    }

    /// A whole f64 slice with length prefix.
    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_len(xs.len());
        for &x in xs {
            self.put_f64(x);
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential binary reader.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf }
    }

    /// Validate and consume a top-level header.
    pub fn expect_header(&mut self, magic: [u8; 4], version: u16) -> Result<(), CodecError> {
        if self.buf.remaining() < 6 {
            return Err(CodecError::Truncated);
        }
        let mut found = [0u8; 4];
        self.buf.copy_to_slice(&mut found);
        if found != magic {
            return Err(CodecError::BadMagic {
                expected: magic,
                found,
            });
        }
        let v = self.buf.get_u16_le();
        if v != version {
            return Err(CodecError::BadVersion {
                expected: version,
                found: v,
            });
        }
        Ok(())
    }

    fn need(&self, n: usize) -> Result<(), CodecError> {
        if self.buf.remaining() < n {
            Err(CodecError::Truncated)
        } else {
            Ok(())
        }
    }

    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool")),
        }
    }

    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let mut bytes = vec![0u8; len];
        self.buf.copy_to_slice(&mut bytes);
        String::from_utf8(bytes).map_err(|_| CodecError::Corrupt("utf8 string"))
    }

    /// Sequence length prefix, sanity-bounded against the remaining input
    /// (each element needs ≥ 1 byte) so corrupt lengths fail fast instead
    /// of attempting huge allocations.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let n = self.get_u32()? as usize;
        if n > self.buf.remaining() {
            return Err(CodecError::Corrupt("sequence length exceeds input"));
        }
        Ok(n)
    }

    /// Length-prefixed opaque byte blob (inverse of [`Encoder::put_bytes`]).
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let mut bytes = vec![0u8; len];
        self.buf.copy_to_slice(&mut bytes);
        Ok(bytes)
    }

    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.get_u32()? as usize;
        self.need(n.saturating_mul(8))?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.buf.get_f64_le());
        }
        Ok(out)
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        !self.buf.has_remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let payload = b"2020-03-19 15:38:55,977 - serviceManager - INFO - ok";
        let base = crc32(payload);
        let mut copy = payload.to_vec();
        for i in 0..copy.len() {
            copy[i] ^= 0x10;
            assert_ne!(crc32(&copy), base, "flip at byte {i} undetected");
            copy[i] ^= 0x10;
        }
    }

    #[test]
    fn scalar_round_trips() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u16(65_000);
        e.put_u32(4_000_000_000);
        e.put_u64(u64::MAX - 1);
        e.put_f64(-3.25);
        e.put_bool(true);
        e.put_str("hello log");
        let bytes = e.finish();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u16().unwrap(), 65_000);
        assert_eq!(d.get_u32().unwrap(), 4_000_000_000);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_f64().unwrap(), -3.25);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "hello log");
        assert!(d.is_exhausted());
    }

    #[test]
    fn header_checks() {
        let e = Encoder::with_header(*b"TPLS", 1);
        let bytes = e.finish();
        let mut ok = Decoder::new(&bytes);
        assert!(ok.expect_header(*b"TPLS", 1).is_ok());

        let mut wrong_magic = Decoder::new(&bytes);
        assert!(matches!(
            wrong_magic.expect_header(*b"MODL", 1),
            Err(CodecError::BadMagic { .. })
        ));
        let mut wrong_version = Decoder::new(&bytes);
        assert!(matches!(
            wrong_version.expect_header(*b"TPLS", 2),
            Err(CodecError::BadVersion {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let mut e = Encoder::new();
        e.put_u64(42);
        e.put_str("abcdef");
        let bytes = e.finish();
        for cut in 0..bytes.len() - 1 {
            let mut d = Decoder::new(&bytes[..cut]);
            let r = d.get_u64().and_then(|_| d.get_str());
            assert!(r.is_err(), "cut at {cut} still decoded");
        }
    }

    #[test]
    fn corrupt_bool_and_length_rejected() {
        let mut d = Decoder::new(&[9]);
        assert_eq!(d.get_bool(), Err(CodecError::Corrupt("bool")));
        // A length claiming more elements than remaining bytes.
        let mut e = Encoder::new();
        e.put_u32(1_000_000);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_len().is_err());
    }

    #[test]
    fn f64_slice_round_trip() {
        let xs = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE];
        let mut e = Encoder::new();
        e.put_f64_slice(&xs);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_f64_slice().unwrap(), xs);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary scalar sequences survive a round trip.
        #[test]
        fn mixed_round_trip(u8s in proptest::collection::vec(any::<u8>(), 0..8),
                            u64s in proptest::collection::vec(any::<u64>(), 0..8),
                            f64s in proptest::collection::vec(any::<f64>(), 0..8),
                            strings in proptest::collection::vec(".{0,20}", 0..6)) {
            let mut e = Encoder::new();
            e.put_len(u8s.len());
            for &v in &u8s { e.put_u8(v); }
            e.put_len(u64s.len());
            for &v in &u64s { e.put_u64(v); }
            e.put_f64_slice(&f64s);
            e.put_len(strings.len());
            for s in &strings { e.put_str(s); }
            let bytes = e.finish();

            let mut d = Decoder::new(&bytes);
            let n = d.get_len().unwrap();
            let r8: Vec<u8> = (0..n).map(|_| d.get_u8().unwrap()).collect();
            prop_assert_eq!(r8, u8s);
            let n = d.get_len().unwrap();
            let r64: Vec<u64> = (0..n).map(|_| d.get_u64().unwrap()).collect();
            prop_assert_eq!(r64, u64s);
            let rf = d.get_f64_slice().unwrap();
            prop_assert_eq!(rf.len(), f64s.len());
            for (a, b) in rf.iter().zip(&f64s) {
                prop_assert!(a == b || (a.is_nan() && b.is_nan()));
            }
            let n = d.get_len().unwrap();
            let rs: Vec<String> = (0..n).map(|_| d.get_str().unwrap()).collect();
            prop_assert_eq!(rs, strings);
            prop_assert!(d.is_exhausted());
        }

        /// Random garbage never panics the decoder — it errors.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut d = Decoder::new(&bytes);
            let _ = d.expect_header(*b"TPLS", 1);
            let mut d = Decoder::new(&bytes);
            let _ = d.get_str();
            let mut d = Decoder::new(&bytes);
            let _ = d.get_f64_slice();
        }
    }
}
