//! Minimal little-endian binary (de)serialization helpers.
//!
//! The persistent prepared-formula store (`crates/store` + the service's
//! cache tier) needs a compact, versioned, deterministic byte encoding for
//! the artifacts produced by this workspace — CNF formulas, simplifier
//! counters, symbolic traces, prepared templates. (The simplifier's
//! reconstruction map has an encoder only, as a pinned fingerprint; no
//! record carries it.) The workspace is
//! std-only, so rather than pulling in a serde framework each crate exposes
//! hand-rolled `encode`/`decode` pairs built on the two cursor types here:
//!
//! * [`ByteWriter`] appends fixed-width little-endian integers and
//!   length-prefixed byte strings to a growable buffer;
//! * [`ByteReader`] reads them back, returning [`DecodeError`] (never
//!   panicking) on truncated or malformed input — a corrupt on-disk record
//!   must degrade to a cache miss, not a crash.
//!
//! All integers are encoded little-endian; `usize` values are written as
//! `u64` so the format is identical across platforms. Decoding validates
//! every length against the remaining input before allocating, so a
//! maliciously huge length prefix cannot trigger an out-of-memory abort.
//!
//! # Examples
//!
//! ```
//! use sat::bytes::{ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.write_u32(7);
//! w.write_str("hello");
//! let buf = w.into_bytes();
//!
//! let mut r = ByteReader::new(&buf);
//! assert_eq!(r.read_u32().unwrap(), 7);
//! assert_eq!(r.read_str().unwrap(), "hello");
//! assert!(r.is_empty());
//! ```

use crate::cnf::CnfFormula;
use crate::types::Lit;
use std::fmt;

/// A decoding failure: truncated input, an implausible length prefix, or a
/// value outside its domain. Carries a short human-readable reason; decoders
/// in higher layers wrap it into their own error reporting (typically a
/// `corrupt_records` counter bump and a cache miss).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl DecodeError {
    /// Builds an error with the given reason.
    pub fn new(reason: impl Into<String>) -> DecodeError {
        DecodeError(reason.into())
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Growable little-endian byte sink.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64` (platform-independent).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.write_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn write_str(&mut self, v: &str) {
        self.write_bytes(v.as_bytes());
    }

    /// Consumes the writer and returns the accumulated buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The accumulated buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Non-panicking cursor over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::new(format!(
                "truncated input: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn read_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn read_usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.read_u64()?).map_err(|_| DecodeError::new("usize overflow"))
    }

    /// Reads a `u64` length prefix destined to size an allocation, rejecting
    /// values larger than the remaining input (each element needs at least
    /// `min_elem_bytes` bytes, which must be ≥ 1).
    pub fn read_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.read_usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::new(format!(
                "implausible length {n} with {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.read_len(1)?;
        self.take(n)
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.read_bytes()?).map_err(|_| DecodeError::new("invalid UTF-8"))
    }
}

impl CnfFormula {
    /// Appends this formula to `w`: variable count, clause count, then each
    /// clause as a length-prefixed run of [`Lit::code`]s.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.write_usize(self.num_vars());
        w.write_usize(self.num_clauses());
        for clause in self.iter() {
            w.write_usize(clause.len());
            for lit in clause {
                w.write_usize(lit.code());
            }
        }
    }

    /// Reads back a formula written by [`CnfFormula::encode`], validating
    /// that every literal refers to a declared variable.
    ///
    /// A first pass over the clause lengths sizes the formula's two buffers
    /// exactly, so decoding allocates the same twice whatever the formula's
    /// size.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<CnfFormula, DecodeError> {
        let num_vars = r.read_usize()?;
        let num_clauses = r.read_len(8)?;
        let mut scan = ByteReader {
            buf: r.buf,
            pos: r.pos,
        };
        let mut num_literals = 0usize;
        for _ in 0..num_clauses {
            let len = scan.read_len(8)?;
            scan.take(8 * len)?;
            num_literals += len;
        }
        let mut cnf = CnfFormula::with_capacity(num_vars, num_clauses, num_literals);
        for _ in 0..num_clauses {
            let len = r.read_len(8)?;
            let codes = r
                .take(8 * len)?
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("chunks of 8 bytes")));
            if let Some(code) = codes.clone().find(|&code| code / 2 >= num_vars as u64) {
                return Err(DecodeError::new(format!(
                    "literal code {code} out of range for {num_vars} vars"
                )));
            }
            cnf.add_clause(codes.map(|code| Lit::from_code(code as usize)));
        }
        Ok(cnf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = ByteWriter::new();
        w.write_u8(0xab);
        w.write_u32(0xdead_beef);
        w.write_u64(u64::MAX);
        w.write_usize(42);
        w.write_bytes(b"raw");
        w.write_str("text");
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_u8().unwrap(), 0xab);
        assert_eq!(r.read_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.read_usize().unwrap(), 42);
        assert_eq!(r.read_bytes().unwrap(), b"raw");
        assert_eq!(r.read_str().unwrap(), "text");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(r.read_u64().is_err());
        let mut r = ByteReader::new(&[]);
        assert!(r.read_u8().is_err());
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = ByteWriter::new();
        w.write_u64(u64::MAX); // length prefix far beyond the buffer
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert!(r.read_bytes().is_err());
    }

    #[test]
    fn cnf_roundtrip() {
        let mut cnf = CnfFormula::with_vars(4);
        let l = |d: i64| Lit::from_dimacs(d);
        cnf.add_clause(vec![l(1), l(-2)]);
        cnf.add_clause(vec![l(3), l(4), l(-1)]);
        cnf.add_clause(Vec::<Lit>::new());
        let mut w = ByteWriter::new();
        cnf.encode(&mut w);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        let back = CnfFormula::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.num_vars(), cnf.num_vars());
        assert_eq!(back.num_clauses(), cnf.num_clauses());
        assert!(back.iter().eq(cnf.iter()));
    }

    /// The store's record format: the flat in-memory layout must not leak
    /// into the bytes a `PAYLOAD_VERSION` 9 record holds.
    #[test]
    fn cnf_encoding_is_pinned() {
        let mut cnf = CnfFormula::with_vars(3);
        cnf.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(-3)]);
        cnf.add_unit(Lit::from_dimacs(2));
        cnf.add_clause(Vec::new());
        let mut w = ByteWriter::new();
        cnf.encode(&mut w);
        let words: Vec<u64> = w
            .as_bytes()
            .chunks(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        // num_vars, num_clauses, then (len, codes...) per clause; a literal's
        // code is 2 * var + (1 if negative).
        assert_eq!(words, [3, 3, 2, 0, 5, 1, 2, 0]);
        assert_eq!(w.len(), 8 * words.len());
        assert_eq!(
            &w.as_bytes()[..24],
            &[3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]
        );
        let back = CnfFormula::decode(&mut ByteReader::new(w.as_bytes())).unwrap();
        assert_eq!(back, cnf);
    }

    #[test]
    fn cnf_out_of_range_literal_rejected() {
        let mut w = ByteWriter::new();
        w.write_usize(1); // num_vars
        w.write_usize(1); // num_clauses
        w.write_usize(1); // clause len
        w.write_usize(9); // literal code for var 4 — out of range
        let buf = w.into_bytes();
        assert!(CnfFormula::decode(&mut ByteReader::new(&buf)).is_err());
    }
}
