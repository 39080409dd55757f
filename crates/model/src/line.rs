//! Arena-backed log lines: UTF-8 text views over refcounted arrival buffers.
//!
//! The hot path's dominant cost at scale is not parsing but copying: every
//! `String` hop between ingest, header parsing, and the parser re-allocates
//! and memcpys the line. [`ByteLine`] replaces those hops with a cheap
//! handle — a [`bytes::Bytes`] view (refcounted buffer + range) that is
//! *guaranteed valid UTF-8*, so the rest of the pipeline can treat it as
//! `&str` without re-validating.
//!
//! Lifetime rules (see DESIGN.md "Zero-copy hot path"):
//! - A line read from a socket, file, or WAL segment wraps its arrival
//!   buffer once; header parsing and sub-slicing (`slice_of`) share that
//!   buffer instead of copying.
//! - `String` materializes only at the pipeline's edges: template install,
//!   quarantine / dead-letter capture, and report emission
//!   ([`ByteLine::into_string`] / `to_string`).
//! - Invalid UTF-8 is repaired (lossily) exactly once, at construction —
//!   downstream output is byte-identical to the old `String` path, which
//!   performed the same lossy conversion at read time.

use bytes::Bytes;
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// A log line (or message suffix of one) backed by a shared arrival buffer.
///
/// Invariant: the underlying bytes are valid UTF-8. All constructors
/// enforce this, so `as_str` is free.
#[derive(Clone, Default)]
pub struct ByteLine {
    bytes: Bytes,
}

impl ByteLine {
    /// Wrap an owned `String`. Zero-copy (the allocation is moved into the
    /// refcounted buffer) and no validation needed.
    pub fn from_string(s: String) -> ByteLine {
        ByteLine {
            bytes: Bytes::from(s),
        }
    }

    /// Wrap a shared buffer, repairing invalid UTF-8 lossily.
    ///
    /// The common case (valid UTF-8) is zero-copy: the view is kept as-is.
    /// Invalid input materializes a repaired copy once, here — the same
    /// text the old `String` path produced via `from_utf8_lossy` at read
    /// time, so downstream output is unchanged.
    pub fn from_bytes(bytes: Bytes) -> ByteLine {
        match std::str::from_utf8(&bytes) {
            Ok(_) => ByteLine { bytes },
            Err(_) => ByteLine::from_string(String::from_utf8_lossy(&bytes).into_owned()),
        }
    }

    /// The line as text. Free: UTF-8 validity is a type invariant.
    pub fn as_str(&self) -> &str {
        // SAFETY: every constructor validates or repairs the bytes, and
        // `slice_of` only carves on `&str` boundaries.
        unsafe { std::str::from_utf8_unchecked(&self.bytes) }
    }

    /// The underlying shared buffer view.
    pub fn as_bytes(&self) -> &Bytes {
        &self.bytes
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The sub-line corresponding to `sub`, which must borrow from this
    /// line (e.g. the remainder of a `split_once`). Shares the arrival
    /// buffer — this is how header parsing peels the message off a line
    /// without copying it.
    pub fn slice_of(&self, sub: &str) -> ByteLine {
        ByteLine {
            bytes: self.bytes.slice_ref(sub.as_bytes()),
        }
    }

    /// Materialize an owned `String` (report emission / DLQ edge).
    pub fn into_string(self) -> String {
        self.as_str().to_string()
    }
}

impl Deref for ByteLine {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for ByteLine {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for ByteLine {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<String> for ByteLine {
    fn from(s: String) -> ByteLine {
        ByteLine::from_string(s)
    }
}

impl From<&str> for ByteLine {
    fn from(s: &str) -> ByteLine {
        ByteLine::from_string(s.to_string())
    }
}

impl From<&String> for ByteLine {
    fn from(s: &String) -> ByteLine {
        ByteLine::from_string(s.clone())
    }
}

impl From<ByteLine> for String {
    fn from(l: ByteLine) -> String {
        l.into_string()
    }
}

impl PartialEq for ByteLine {
    fn eq(&self, other: &ByteLine) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for ByteLine {}

impl PartialEq<str> for ByteLine {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for ByteLine {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for ByteLine {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Hash for ByteLine {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for ByteLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for ByteLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_string_round_trips() {
        let l = ByteLine::from_string("hello world".to_string());
        assert_eq!(l.as_str(), "hello world");
        assert_eq!(l, "hello world");
        assert_eq!(l.clone().into_string(), "hello world");
        assert_eq!(l.len(), 11);
        assert!(!l.is_empty());
    }

    #[test]
    fn from_bytes_keeps_valid_utf8_zero_copy() {
        let buf = Bytes::from(b"one line".to_vec());
        let ptr = buf.as_ref().as_ptr();
        let l = ByteLine::from_bytes(buf);
        assert_eq!(l.as_str(), "one line");
        assert!(std::ptr::eq(l.as_bytes().as_ref().as_ptr(), ptr));
    }

    #[test]
    fn from_bytes_repairs_invalid_utf8_like_lossy() {
        let raw = vec![b'o', b'k', b' ', 0xFF, 0xFE, b'!'];
        let expect = String::from_utf8_lossy(&raw).into_owned();
        let l = ByteLine::from_bytes(Bytes::from(raw));
        assert_eq!(l.as_str(), expect);
    }

    #[test]
    fn slice_of_shares_the_arrival_buffer() {
        let l = ByteLine::from_string("header - body text".to_string());
        let (_, msg) = l.as_str().split_once(" - ").unwrap();
        let sub = l.slice_of(msg);
        assert_eq!(sub.as_str(), "body text");
        assert!(std::ptr::eq(
            sub.as_bytes().as_ref().as_ptr(),
            l.as_str()[9..].as_ptr()
        ));
    }

    #[test]
    fn multibyte_utf8_slices_safely() {
        let l = ByteLine::from_string("tête: à côté".to_string());
        let (_, rest) = l.as_str().split_once(": ").unwrap();
        assert_eq!(l.slice_of(rest).as_str(), "à côté");
    }

    #[test]
    fn eq_and_hash_follow_text() {
        use std::collections::HashSet;
        let a = ByteLine::from("same");
        let b = ByteLine::from_string("__same".to_string());
        let b = b.slice_of(&b.as_str()[2..]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains("same"));
    }
}
