//! `nurd-codec` — a dependency-free binary codec for checkpointable state.
//!
//! The serving engine persists its in-memory state (predictor ensembles,
//! per-job replay bookkeeping, shard counters) across process restarts.
//! This container is offline — no `serde`, no `bincode` — so the repo
//! carries its own codec: a deliberately small, versioned, little-endian
//! byte format with three layers:
//!
//! 1. **Primitives** — [`Encoder`] / [`Decoder`] read and write fixed-
//!    width little-endian integers, `f64` via [`f64::to_bits`] (bit-exact
//!    round-trips, NaN payloads included — the engine's determinism
//!    contract is bit-for-bit, so the codec must be too), and
//!    length-prefixed byte strings.
//! 2. **Structures** — the [`Checkpointable`] trait, implemented by every
//!    persistable type in `nurd-data`, `nurd-ml`, `nurd-core`, and
//!    `nurd-serve`, with blanket impls for `Option<T>`, `Vec<T>`, and
//!    `BTreeMap<K, V>` so implementations compose mechanically.
//! 3. **Records** — [`write_frame`] / [`read_frame`] wrap a payload in
//!    `[len: u32][crc32: u32][payload]` framing for append-only files.
//!    A torn tail (the write was cut mid-record by a crash) and a
//!    bit-flipped record (checksum mismatch) are *distinguishable*,
//!    typed conditions — never a panic, never silent garbage.
//!
//! File-level magic numbers and format versions belong to the file
//! formats themselves (`nurd-serve`'s snapshot and WAL modules); this
//! crate only promises that a value encoded by version `N` of a
//! `Checkpointable` impl decodes bit-identically under the same impl.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Why a decode failed. Decoding never panics on malformed input — a
/// truncated or corrupted buffer surfaces as one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value did.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// An enum tag byte had no defined meaning.
    InvalidTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix exceeded the bytes remaining (corrupt or hostile
    /// input — honoring it would over-allocate).
    LengthOverrun {
        /// The declared element count.
        declared: u64,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of buffer: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag} while decoding {what}")
            }
            CodecError::LengthOverrun {
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "declared length {declared} exceeds {remaining} remaining bytes"
                )
            }
            CodecError::InvalidUtf8 => write!(f, "length-prefixed string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte sink for encoding. All integers are little-endian;
/// `usize` travels as `u64` so 32- and 64-bit builds interoperate.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The bytes encoded so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning its buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Empties the encoder, keeping its allocation, so one encoder can
    /// serve record after record.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by its IEEE-754 bit pattern (bit-exact, NaN
    /// payloads preserved).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over an encoded buffer for decoding. Every `take_*` is bounds-
/// checked and returns [`CodecError::UnexpectedEof`] instead of panicking.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize` (encoded as `u64`).
    pub fn take_usize(&mut self) -> Result<usize, CodecError> {
        Ok(self.take_u64()? as usize)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `bool` (any nonzero byte is `true`).
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.take_u8()? != 0)
    }

    /// Reads a length prefix that will gate `per_item`-byte reads,
    /// guarding against corrupt lengths that would over-allocate: the
    /// declared count must fit the remaining bytes at `per_item` bytes
    /// (or more) each.
    pub fn take_len(&mut self, per_item: usize) -> Result<usize, CodecError> {
        let declared = self.take_u64()?;
        let min_bytes = declared.saturating_mul(per_item.max(1) as u64);
        if min_bytes > self.remaining() as u64 {
            return Err(CodecError::LengthOverrun {
                declared,
                remaining: self.remaining(),
            });
        }
        Ok(declared as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.take_len(1)?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    fn take_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.take_bytes()?).map_err(|_| CodecError::InvalidUtf8)
    }
}

/// A type that round-trips through the binary codec, bit-for-bit.
///
/// Implementations live next to the types they serialize (private fields
/// stay private); format evolution is handled at the *file* level
/// (magic and version headers in `nurd-serve`), so an impl only ever
/// has to read what it wrote.
pub trait Checkpointable: Sized {
    /// Appends this value's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Decodes one value from `dec`, consuming exactly the bytes
    /// [`Checkpointable::encode`] produced.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or malformed input — never a panic.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

macro_rules! primitive_checkpointable {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Checkpointable for $ty {
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                dec.$take()
            }
        }
    };
}

primitive_checkpointable!(u8, put_u8, take_u8);
primitive_checkpointable!(u32, put_u32, take_u32);
primitive_checkpointable!(u64, put_u64, take_u64);
primitive_checkpointable!(usize, put_usize, take_usize);
primitive_checkpointable!(f64, put_f64, take_f64);
primitive_checkpointable!(bool, put_bool, take_bool);

impl Checkpointable for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(dec.take_str()?.to_owned())
    }
}

impl<T: Checkpointable> Checkpointable for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            tag => Err(CodecError::InvalidTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Checkpointable> Checkpointable for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        // Every element costs at least one byte, so a corrupt length errs
        // unless that many bytes follow; the reservation is bounded by
        // those bytes, not by `size_of::<T>()` times them.
        let len = dec.take_len(1)?;
        let mut out = Vec::with_capacity(capacity_for::<T>(len, dec.remaining()));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

/// The elements to reserve for `len` decoded `T`s with `remaining` bytes
/// behind their count: no more than those bytes hold as `T`s in memory.
fn capacity_for<T>(len: usize, remaining: usize) -> usize {
    len.min(remaining / std::mem::size_of::<T>().max(1))
}

impl<K: Checkpointable + Ord, V: Checkpointable> Checkpointable for BTreeMap<K, V> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for (k, v) in self {
            k.encode(enc);
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = dec.take_len(2)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(dec)?;
            let v = V::decode(dec)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Bytes one step of [`crc32`] folds, and so the tables it reads.
const CRC_SLICES: usize = 16;

/// `tables[0]` is the classic byte-at-a-time table; `tables[s]` is
/// `tables[s - 1]` advanced one zero byte, so `tables[s][b]` is what byte
/// `b` contributes to the checksum `s` bytes further on.
const fn build_crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        s += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; CRC_SLICES] = build_crc_tables();

/// CRC-32 (IEEE 802.3 polynomial, the `zlib`/`gzip` checksum) of `bytes`,
/// sliced: [`CRC_SLICES`] bytes a step, each through its own table, so the
/// loads of one step do not wait on each other. The running checksum
/// enters a step through its first four bytes.
#[must_use]
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    let mut chunks = bytes.chunks_exact(CRC_SLICES);
    for chunk in &mut chunks {
        let mut word = [0u8; CRC_SLICES];
        word.copy_from_slice(chunk);
        for (b, carried) in word.iter_mut().zip(c.to_le_bytes()) {
            *b ^= carried;
        }
        c = word
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][usize::from(c.to_le_bytes()[0] ^ b)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Why a framed record could not be read back.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The file ended mid-record — the classic *torn write* left by a
    /// crash between a record's first byte and its last. Everything
    /// before this record is intact; the tail is discarded.
    Torn,
    /// The record is complete but its checksum does not match — a bit
    /// flip or an overwrite, not a clean truncation.
    Corrupt,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Torn => write!(f, "torn record: file ended mid-frame"),
            FrameError::Corrupt => write!(f, "corrupt record: checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Upper bound on a single framed record (a length prefix beyond this is
/// treated as corruption rather than honored with a giant allocation).
const MAX_FRAME_LEN: u32 = 1 << 30;

/// The most [`read_frame`] allocates on a header's word alone (a WAL
/// record is ≈ 170 B, a live job's snapshot frame tens of kB).
const FRAME_RESERVE: usize = 64 << 10;

/// Writes one `[len: u32][crc32: u32][payload]` record.
///
/// # Errors
///
/// Propagates the writer's I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() as u64 <= u64::from(MAX_FRAME_LEN));
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads back one framed record. `Ok(None)` is a *clean* end of file
/// (the reader produced zero bytes exactly at a record boundary) —
/// anything else that falls short is [`FrameError::Torn`], and a
/// complete record whose checksum disagrees is [`FrameError::Corrupt`].
///
/// # Errors
///
/// [`FrameError`] as described above.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 8];
    match read_exact_or_eof(r, &mut header)? {
        Fill::CleanEof => return Ok(None),
        Fill::Short => return Err(FrameError::Torn),
        Fill::Full => {}
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Corrupt);
    }
    // Nothing has checked the header yet: reserve at most `FRAME_RESERVE`
    // on its word and let the buffer grow with the bytes actually there.
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(FRAME_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(FrameError::Torn);
    }
    if crc32(&payload) != crc {
        return Err(FrameError::Corrupt);
    }
    Ok(Some(payload))
}

enum Fill {
    Full,
    CleanEof,
    Short,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<Fill, std::io::Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 if filled == 0 => return Ok(Fill::CleanEof),
            0 => return Ok(Fill::Short),
            n => filled += n,
        }
    }
    Ok(Fill::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX);
        enc.put_usize(42);
        enc.put_f64(-0.0);
        enc.put_f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        enc.put_bool(true);
        enc.put_str("straggler");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_u8().unwrap(), 7);
        assert_eq!(dec.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.take_u64().unwrap(), u64::MAX);
        assert_eq!(dec.take_usize().unwrap(), 42);
        assert_eq!(dec.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.take_f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert!(dec.take_bool().unwrap());
        assert_eq!(dec.take_str().unwrap(), "straggler");
        assert!(dec.is_empty());
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<f64>> = vec![Some(1.5), None, Some(f64::INFINITY)];
        let mut m = BTreeMap::new();
        m.insert(3u64, vec![true, false]);
        m.insert(9u64, vec![]);
        let mut enc = Encoder::new();
        v.encode(&mut enc);
        m.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Vec::<Option<f64>>::decode(&mut dec).unwrap(), v);
        assert_eq!(BTreeMap::<u64, Vec<bool>>::decode(&mut dec).unwrap(), m);
        assert!(dec.is_empty());
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut enc = Encoder::new();
        enc.put_u64(123);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..5]);
        assert!(matches!(
            dec.take_u64(),
            Err(CodecError::UnexpectedEof {
                needed: 8,
                remaining: 5
            })
        ));
        let mut dec = Decoder::new(&[2u8]);
        assert!(matches!(
            Option::<u64>::decode(&mut dec),
            Err(CodecError::InvalidTag {
                what: "Option",
                tag: 2
            })
        ));
        // A corrupt Vec length larger than the buffer must not allocate.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            Vec::<u8>::decode(&mut dec),
            Err(CodecError::LengthOverrun { .. })
        ));
    }

    /// The byte-at-a-time loop [`crc32`] ran before it was sliced,
    /// verbatim — one dependent table load per byte — kept as the oracle
    /// of `prop_sliced_crc_equals_bytewise`.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFF_u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_zlib_vectors() {
        // `zlib.crc32` of each input: the empty string, the standard check
        // value (all remainder loop), two whole steps of each constant
        // byte, and every byte value at every position of a step.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
        let ramp: Vec<u8> = (0..16).flat_map(|_| 0..=255u8).collect();
        assert_eq!(crc32(&ramp), 0xA291_2082);
    }

    /// **Sliced ≡ bytewise**: every length 0..=130 at every start offset
    /// 0..16 of a patterned buffer — each remainder length against each
    /// alignment, zero to eight whole steps — then seeded random buffers
    /// up to 64 KiB. Checked against a kernel whose tables 3 and 4 stand
    /// in each other's place: this fails at the first 16-byte input
    /// (`start 0, len 16`), and of the `zlib` vectors only the ramp does —
    /// a step of one repeated byte reads the same entry of both.
    #[test]
    fn prop_sliced_crc_equals_bytewise() {
        let patterned: Vec<u8> = (0..160u32).map(|i| (i * 37 + i / 5 + 11) as u8).collect();
        for start in 0..16 {
            for len in 0..=130 {
                let bytes = &patterned[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
        // SplitMix64: lengths and contents from one seeded stream.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..200 {
            let len = (next() % (64 << 10) + 1) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(
                crc32(&bytes),
                crc32_bytewise(&bytes),
                "case {case}, len {len}"
            );
        }
    }

    /// Serves `bytes` and then end of file, recording the largest buffer
    /// it was ever handed to fill.
    struct ShortReader {
        bytes: Vec<u8>,
        pos: usize,
        largest_buffer: usize,
    }

    impl Read for ShortReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_buffer = self.largest_buffer.max(buf.len());
            let n = buf.len().min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn a_vec_count_reserves_no_more_than_the_bytes_behind_it() {
        // Counts equal to the bytes behind them, as a hostile one that
        // passes `take_len(1)` is.
        for n in [0, 1, 7, 8, 1000, 1 << 20] {
            assert_eq!(capacity_for::<u8>(n, n), n);
            assert!(capacity_for::<f64>(n, n) * 8 <= n, "{n} f64s");
            assert!(
                capacity_for::<[u64; 16]>(n, n) * 128 <= n,
                "{n} wide values"
            );
            assert_eq!(capacity_for::<()>(n, n), n);
        }
        // A count the bytes can hold is reserved whole.
        assert_eq!(capacity_for::<f64>(3, 1000), 3);
    }

    #[test]
    fn a_header_cannot_reserve_more_than_the_bytes_behind_it() {
        // [len = MAX_FRAME_LEN − 1][crc][4 payload bytes]: torn, and torn
        // without a buffer of the declared gigabyte ever existing.
        let mut bytes = (MAX_FRAME_LEN - 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xAB; 8]);
        let mut reader = ShortReader {
            bytes,
            pos: 0,
            largest_buffer: 0,
        };
        assert!(matches!(read_frame(&mut reader), Err(FrameError::Torn)));
        assert!(
            reader.largest_buffer <= FRAME_RESERVE,
            "read_frame offered a {}-byte buffer for 4 bytes of payload",
            reader.largest_buffer
        );
        // One past the bound is corruption, whatever follows.
        let mut over = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        over.extend_from_slice(&[0; 4]);
        assert!(matches!(
            read_frame(&mut &over[..]),
            Err(FrameError::Corrupt)
        ));
    }

    /// A frame reads back whole at the two sizes the serving engine
    /// frames: a WAL record (a `Progress` event of a 17-feature job) and
    /// a live job's snapshot frame (a late-life warm predictor blob).
    #[test]
    fn frames_read_back_at_a_wal_record_and_a_snapshot_frame_size() {
        for len in [167usize, 56_000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + i / 7) as u8).collect();
            let mut framed = Vec::new();
            write_frame(&mut framed, &payload).expect("Vec never fails a write");
            assert_eq!(
                read_frame(&mut &framed[..]).expect("frame just written"),
                Some(payload.clone())
            );
        }
    }

    #[test]
    fn frames_round_trip_and_detect_torn_and_corrupt_tails() {
        let mut file = Vec::new();
        write_frame(&mut file, b"alpha").unwrap();
        write_frame(&mut file, b"").unwrap();
        write_frame(&mut file, b"gamma-record").unwrap();

        let mut r = &file[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"gamma-record");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // Torn tail: cut the last record mid-payload.
        let torn = &file[..file.len() - 3];
        let mut r = torn;
        assert!(read_frame(&mut r).unwrap().is_some());
        assert!(read_frame(&mut r).unwrap().is_some());
        assert!(matches!(read_frame(&mut r), Err(FrameError::Torn)));

        // Bit flip in the last payload byte: checksum mismatch.
        let mut flipped = file.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let mut r = &flipped[..];
        assert!(read_frame(&mut r).unwrap().is_some());
        assert!(read_frame(&mut r).unwrap().is_some());
        assert!(matches!(read_frame(&mut r), Err(FrameError::Corrupt)));
    }
}
