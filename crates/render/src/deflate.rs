//! From-scratch DEFLATE (RFC 1951) and zlib (RFC 1950) encoding, plus a
//! matching inflater for round-trip verification.
//!
//! The encoder supports two modes:
//!
//! * **Stored** — uncompressed blocks (fast, ratio 1.0);
//! * **Fixed** — LZ77 (greedy, 3-byte hash chains, 32 KiB window) with
//!   the fixed Huffman code of RFC 1951 §3.2.6.
//!
//! The PHASTA study (Table 2) traced its per-step in situ cost to this
//! exact computation — serial zlib compression of the rendered PNG on
//! rank 0 — so the reproduction needs a real, measurable compressor.
//!
//! `Fixed` is one streaming pass: the matcher emits each literal or
//! match straight into a bit writer that flushes 32 bits at a time, with
//! no token buffer. Hash chains live in a 32 Ki-entry ring indexed by
//! `pos & (WINDOW - 1)` instead of a per-position array, match lengths
//! are compared 8 bytes at a time, and the fixed Huffman codes come from
//! compile-time tables already bit-reversed for LSB-first output. The
//! matcher's choices (hash, chain order and depth, window, tie-breaking,
//! insertion of every position) are fixed by contract, so the output is
//! byte-identical to the plain token-buffer encoder kept as the test
//! oracle below.

/// Compression mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Uncompressed stored blocks.
    Stored,
    /// LZ77 + fixed Huffman coding.
    Fixed,
}

// --------------------------------------------------------------------
// Bit I/O (LSB-first, per RFC 1951)
// --------------------------------------------------------------------

/// LSB-first bit writer appending to `out`, flushing 32 bits at a time.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    bitbuf: u64,
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter {
            out,
            bitbuf: 0,
            nbits: 0,
        }
    }

    /// Write the low `n` bits of `value` (higher bits must be zero),
    /// LSB-first.
    #[inline]
    fn bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32 && (n == 32 || value >> n == 0));
        self.bitbuf |= (value as u64) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out
                .extend_from_slice(&(self.bitbuf as u32).to_le_bytes());
            self.bitbuf >>= 32;
            self.nbits -= 32;
        }
    }

    /// Flush every pending bit, zero-padding to a byte boundary.
    fn align(&mut self) {
        while self.nbits > 0 {
            self.out.push((self.bitbuf & 0xFF) as u8);
            self.bitbuf >>= 8;
            self.nbits = self.nbits.saturating_sub(8);
        }
        self.bitbuf = 0;
    }

    fn finish(mut self) {
        self.align();
    }
}

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bitbuf: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            bitbuf: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.bitbuf |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    fn bits(&mut self, n: u32) -> Result<u32, InflateError> {
        self.refill();
        if self.nbits < n {
            return Err(InflateError::UnexpectedEof);
        }
        let v = (self.bitbuf & ((1u64 << n) - 1)) as u32;
        self.bitbuf >>= n;
        self.nbits -= n;
        Ok(v)
    }

    fn align(&mut self) {
        let drop = self.nbits % 8;
        self.bitbuf >>= drop;
        self.nbits -= drop;
    }

    fn byte(&mut self) -> Result<u8, InflateError> {
        Ok(self.bits(8)? as u8)
    }
}

// --------------------------------------------------------------------
// Fixed Huffman tables
// --------------------------------------------------------------------

/// `(code, length)` for literal/length symbol `s` under the fixed code.
const fn fixed_litlen_code(s: usize) -> (u32, u32) {
    match s {
        0..=143 => (0x30 + s as u32, 8),
        144..=255 => (0x190 + (s - 144) as u32, 9),
        256..=279 => ((s - 256) as u32, 7),
        280..=287 => (0xC0 + (s - 280) as u32, 8),
        _ => panic!("symbol out of range"),
    }
}

/// Length symbol table: `(symbol, extra_bits, base_length)`.
const LENGTH_TABLE: [(u32, u32, u32); 29] = [
    (257, 0, 3),
    (258, 0, 4),
    (259, 0, 5),
    (260, 0, 6),
    (261, 0, 7),
    (262, 0, 8),
    (263, 0, 9),
    (264, 0, 10),
    (265, 1, 11),
    (266, 1, 13),
    (267, 1, 15),
    (268, 1, 17),
    (269, 2, 19),
    (270, 2, 23),
    (271, 2, 27),
    (272, 2, 31),
    (273, 3, 35),
    (274, 3, 43),
    (275, 3, 51),
    (276, 3, 59),
    (277, 4, 67),
    (278, 4, 83),
    (279, 4, 99),
    (280, 4, 115),
    (281, 5, 131),
    (282, 5, 163),
    (283, 5, 195),
    (284, 5, 227),
    (285, 0, 258),
];

/// Distance symbol table: `(symbol, extra_bits, base_distance)`.
const DIST_TABLE: [(u32, u32, u32); 30] = [
    (0, 0, 1),
    (1, 0, 2),
    (2, 0, 3),
    (3, 0, 4),
    (4, 1, 5),
    (5, 1, 7),
    (6, 2, 9),
    (7, 2, 13),
    (8, 3, 17),
    (9, 3, 25),
    (10, 4, 33),
    (11, 4, 49),
    (12, 5, 65),
    (13, 5, 97),
    (14, 6, 129),
    (15, 6, 193),
    (16, 7, 257),
    (17, 7, 385),
    (18, 8, 513),
    (19, 8, 769),
    (20, 9, 1025),
    (21, 9, 1537),
    (22, 10, 2049),
    (23, 10, 3073),
    (24, 11, 4097),
    (25, 11, 6145),
    (26, 12, 8193),
    (27, 12, 12289),
    (28, 13, 16385),
    (29, 13, 24577),
];

/// `code` (`len` bits, MSB-first as Huffman codes are defined) with its
/// bits reversed, ready for the LSB-first bit writer.
const fn reverse_bits(code: u32, len: u32) -> u32 {
    let mut rev = 0;
    let mut i = 0;
    while i < len {
        rev |= ((code >> i) & 1) << (len - 1 - i);
        i += 1;
    }
    rev
}

/// Bit-reversed fixed code `(bits, count)` of each literal/length symbol.
static LITLEN_CODES: [(u32, u32); 288] = {
    let mut t = [(0, 0); 288];
    let mut s = 0;
    while s < 288 {
        let (code, len) = fixed_litlen_code(s);
        t[s] = (reverse_bits(code, len), len);
        s += 1;
    }
    t
};

/// Index into [`LENGTH_TABLE`] of match length `len` (3..=258). Later
/// rows win, so 258 takes symbol 285 rather than 284's top extra value.
const fn length_index(len: usize) -> usize {
    let mut i = LENGTH_TABLE.len() - 1;
    loop {
        let (_, extra, base) = LENGTH_TABLE[i];
        if len >= base as usize && len - (base as usize) < (1 << extra) {
            return i;
        }
        i -= 1;
    }
}

/// Match length `len` (3..=258) → `(bits, count)`: the bit-reversed
/// length code followed by its extra bits, as one LSB-first field.
static LEN_CODES: [(u32, u32); MAX_MATCH + 1] = {
    let mut t = [(0, 0); MAX_MATCH + 1];
    let mut len = MIN_MATCH;
    while len <= MAX_MATCH {
        let (sym, extra, base) = LENGTH_TABLE[length_index(len)];
        let (code, clen) = LITLEN_CODES[sym as usize];
        t[len] = (code | ((len as u32 - base) << clen), clen + extra);
        len += 1;
    }
    t
};

/// zlib-style distance-symbol lookup: entry `d - 1` for distances up to
/// 256, entry `256 + ((d - 1) >> 7)` above (every symbol from 16 up
/// spans a multiple of 128 distances).
static DIST_SYM: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut sym = 0;
    while sym < DIST_TABLE.len() {
        let (_, extra, base) = DIST_TABLE[sym];
        let mut d = base as usize;
        while d < base as usize + (1 << extra) {
            if d <= 256 {
                t[d - 1] = sym as u8;
            } else {
                t[256 + ((d - 1) >> 7)] = sym as u8;
            }
            d += 1;
        }
        sym += 1;
    }
    t
};

/// Symbol of match distance `dist` (1..=32768), via [`DIST_SYM`].
#[inline]
fn dist_index(dist: usize) -> usize {
    let d = dist - 1;
    DIST_SYM[if d < 256 { d } else { 256 + (d >> 7) }] as usize
}

/// Per distance symbol: `(bit-reversed 5-bit code, extra bits, base)`.
static DIST_CODES: [(u32, u32, u32); 30] = {
    let mut t = [(0, 0, 0); 30];
    let mut sym = 0;
    while sym < 30 {
        let (_, extra, base) = DIST_TABLE[sym];
        t[sym] = (reverse_bits(sym as u32, 5), extra, base);
        sym += 1;
    }
    t
};

// --------------------------------------------------------------------
// LZ77
// --------------------------------------------------------------------

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 32;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Empty hash-chain slot.
const NIL: u32 = u32::MAX;

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max` (both ranges must hold `max` bytes): 8 bytes per step, then a
/// byte loop for the tail.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let (x, y) = (&data[a..a + max], &data[b..b + max]);
    let mut l = 0;
    while l + 8 <= max {
        let wx = u64::from_le_bytes(x[l..l + 8].try_into().expect("8-byte window"));
        let wy = u64::from_le_bytes(y[l..l + 8].try_into().expect("8-byte window"));
        let diff = wx ^ wy;
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && x[l] == y[l] {
        l += 1;
    }
    l
}

// --------------------------------------------------------------------
// Public encode API
// --------------------------------------------------------------------

/// Raw DEFLATE-compress `data`.
pub fn deflate(data: &[u8], mode: Mode) -> Vec<u8> {
    let mut out = Vec::new();
    deflate_into(&mut out, data, mode);
    out
}

/// Append the raw DEFLATE stream of `data` to `out`.
fn deflate_into(out: &mut Vec<u8>, data: &[u8], mode: Mode) {
    match mode {
        Mode::Stored => deflate_stored(out, data),
        Mode::Fixed => deflate_fixed(out, data),
    }
}

fn deflate_stored(out: &mut Vec<u8>, data: &[u8]) {
    // The output size is exact: 5 header bytes per block of up to 65535.
    out.reserve(data.len() + 5 * data.len().div_ceil(65535).max(1));
    let mut w = BitWriter::new(out);
    let chunks: Vec<&[u8]> = if data.is_empty() {
        vec![&[]]
    } else {
        data.chunks(65535).collect()
    };
    let last = chunks.len() - 1;
    for (i, chunk) in chunks.iter().enumerate() {
        w.bits(u32::from(i == last), 1); // BFINAL
        w.bits(0b00, 2); // BTYPE = stored
        w.align();
        let len = chunk.len() as u16;
        w.out.extend_from_slice(&len.to_le_bytes());
        w.out.extend_from_slice(&(!len).to_le_bytes());
        w.out.extend_from_slice(chunk);
    }
    w.finish();
}

/// LZ77 + fixed Huffman in one pass. Greedy: at each position take the
/// longest match among the newest [`MAX_CHAIN`] hash-chain candidates
/// within [`WINDOW`] (a strictly longer match wins; 258 stops the walk),
/// and insert every position into the chains, including those a match
/// covers.
///
/// `prev` is a ring over the window, which is exact: a candidate `c`
/// reached at position `i` has `c + WINDOW >= i`, and positions are
/// inserted only after their own search, so `c`'s slot still holds `c`'s
/// link when the walk reads it.
fn deflate_fixed(out: &mut Vec<u8>, data: &[u8]) {
    assert!(
        data.len() < NIL as usize,
        "input too large for u32 positions"
    );
    let mut w = BitWriter::new(out);
    w.bits(1, 1); // BFINAL
    w.bits(0b01, 2); // BTYPE = fixed Huffman
    let mut head = vec![NIL; 1 << HASH_BITS];
    let mut prev = vec![NIL; WINDOW];
    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            let max_len = (data.len() - i).min(MAX_MATCH);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != NIL && chain < MAX_CHAIN {
                let c = cand as usize;
                if i - c > WINDOW {
                    break;
                }
                // Only a candidate that also matches at `best_len` can be
                // strictly longer.
                if best_len < max_len && data[c + best_len] == data[i + best_len] {
                    let l = match_len(data, c, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l >= MAX_MATCH {
                            break;
                        }
                    }
                }
                cand = prev[c & (WINDOW - 1)];
                chain += 1;
            }
            prev[i & (WINDOW - 1)] = head[h];
            head[h] = i as u32;
        }
        if best_len >= MIN_MATCH {
            let (lbits, lcount) = LEN_CODES[best_len];
            let (dcode, dextra, dbase) = DIST_CODES[dist_index(best_dist)];
            let dbits = dcode | ((best_dist as u32 - dbase) << 5);
            // At most 13 + 18 bits: one write.
            w.bits(lbits | (dbits << lcount), lcount + 5 + dextra);
            // Insert the skipped positions so later matches can find them.
            let stop = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            for j in i + 1..stop {
                let h = hash3(data, j);
                prev[j & (WINDOW - 1)] = head[h];
                head[h] = j as u32;
            }
            i += best_len;
        } else {
            let (bits, count) = LITLEN_CODES[data[i] as usize];
            w.bits(bits, count);
            i += 1;
        }
    }
    let (eob, eob_len) = LITLEN_CODES[256];
    w.bits(eob, eob_len);
    w.finish();
}

/// Adler-32 checksum (RFC 1950).
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// zlib-wrap (RFC 1950): header + DEFLATE stream + Adler-32.
pub fn zlib_compress(data: &[u8], mode: Mode) -> Vec<u8> {
    let mut out = Vec::new();
    zlib_compress_into(&mut out, data, mode);
    out
}

/// Append the zlib stream of `data` to `out` (a PNG appends it straight
/// into its IDAT chunk).
pub(crate) fn zlib_compress_into(out: &mut Vec<u8>, data: &[u8], mode: Mode) {
    out.extend_from_slice(&[0x78, 0x01]); // 32K window, fastest-compression hint
    deflate_into(out, data, mode);
    out.extend_from_slice(&adler32(data).to_be_bytes());
}

// --------------------------------------------------------------------
// Inflate (stored + fixed blocks; enough to verify our own output)
// --------------------------------------------------------------------

/// Decompression errors.
#[derive(Debug, PartialEq, Eq)]
pub enum InflateError {
    /// Ran out of input bits.
    UnexpectedEof,
    /// A stored block's length check failed.
    StoredLengthMismatch,
    /// Dynamic-Huffman blocks are not supported by this inflater.
    DynamicUnsupported,
    /// Reserved block type.
    BadBlockType,
    /// Invalid symbol or distance.
    BadSymbol,
    /// zlib header or checksum invalid.
    BadZlib,
}

/// Decode a raw DEFLATE stream produced by [`deflate`].
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let bfinal = r.bits(1)?;
        let btype = r.bits(2)?;
        match btype {
            0b00 => {
                r.align();
                let len = r.byte()? as u16 | ((r.byte()? as u16) << 8);
                let nlen = r.byte()? as u16 | ((r.byte()? as u16) << 8);
                if len != !nlen {
                    return Err(InflateError::StoredLengthMismatch);
                }
                for _ in 0..len {
                    out.push(r.byte()?);
                }
            }
            0b01 => inflate_fixed_block(&mut r, &mut out)?,
            0b10 => return Err(InflateError::DynamicUnsupported),
            _ => return Err(InflateError::BadBlockType),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

fn read_fixed_litlen(r: &mut BitReader) -> Result<u32, InflateError> {
    // Fixed code lengths are 7–9 bits; decode by successive widening.
    let mut code = 0u32;
    for len in 1..=9u32 {
        code = (code << 1) | r.bits(1)?;
        let (lo, hi, base) = match len {
            7 => (0b000_0000, 0b001_0111, 256),
            8 if (0x30..=0xBF).contains(&code) => (0x30, 0xBF, 0),
            8 if (0xC0..=0xC7).contains(&code) => (0xC0, 0xC7, 280),
            9 => (0x190, 0x1FF, 144),
            _ => continue,
        };
        if (lo..=hi).contains(&code) {
            return Ok(base + (code - lo));
        }
    }
    Err(InflateError::BadSymbol)
}

fn inflate_fixed_block(r: &mut BitReader, out: &mut Vec<u8>) -> Result<(), InflateError> {
    loop {
        let sym = read_fixed_litlen(r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let (_, extra, base) = LENGTH_TABLE[(sym - 257) as usize];
                let len = base + r.bits(extra)?;
                // 5-bit distance code, MSB-first.
                let mut dcode = 0u32;
                for _ in 0..5 {
                    dcode = (dcode << 1) | r.bits(1)?;
                }
                if dcode >= 30 {
                    return Err(InflateError::BadSymbol);
                }
                let (_, dextra, dbase) = DIST_TABLE[dcode as usize];
                let dist = (dbase + r.bits(dextra)?) as usize;
                if dist == 0 || dist > out.len() {
                    return Err(InflateError::BadSymbol);
                }
                let start = out.len() - dist;
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
}

/// Decode a zlib stream (header + DEFLATE + Adler-32 check).
pub fn zlib_decompress(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    if data.len() < 6 || data[0] & 0x0F != 8 {
        return Err(InflateError::BadZlib);
    }
    if !((data[0] as u16) << 8 | data[1] as u16).is_multiple_of(31) {
        return Err(InflateError::BadZlib);
    }
    let body = &data[2..data.len() - 4];
    let out = inflate(body)?;
    let want = u32::from_be_bytes([
        data[data.len() - 4],
        data[data.len() - 3],
        data[data.len() - 2],
        data[data.len() - 1],
    ]);
    if adler32(&out) != want {
        return Err(InflateError::BadZlib);
    }
    Ok(out)
}

/// The plain greedy encoder the streaming `deflate_fixed` replaced: a
/// token vector from `lz77` (per-position `prev` chain, byte-at-a-time
/// match compare), then a bit-by-bit Huffman writer over linear-scan
/// symbol lookups. Test-only: it is the byte-for-byte reference the
/// streaming encoder must reproduce.
#[cfg(test)]
mod oracle {
    use super::{
        fixed_litlen_code, hash3, DIST_TABLE, HASH_BITS, LENGTH_TABLE, MAX_CHAIN, MAX_MATCH,
        MIN_MATCH, WINDOW,
    };

    struct BitWriter {
        out: Vec<u8>,
        bitbuf: u64,
        nbits: u32,
    }

    impl BitWriter {
        fn new() -> Self {
            BitWriter {
                out: Vec::new(),
                bitbuf: 0,
                nbits: 0,
            }
        }

        /// Write `n` bits, LSB-first.
        fn bits(&mut self, value: u32, n: u32) {
            debug_assert!(n <= 32);
            self.bitbuf |= (value as u64) << self.nbits;
            self.nbits += n;
            while self.nbits >= 8 {
                self.out.push((self.bitbuf & 0xFF) as u8);
                self.bitbuf >>= 8;
                self.nbits -= 8;
            }
        }

        /// Write a Huffman code: codes are emitted MSB-first.
        fn code(&mut self, code: u32, len: u32) {
            let mut rev = 0u32;
            for i in 0..len {
                rev |= ((code >> i) & 1) << (len - 1 - i);
            }
            self.bits(rev, len);
        }

        /// Pad to a byte boundary.
        fn align(&mut self) {
            if self.nbits > 0 {
                self.out.push((self.bitbuf & 0xFF) as u8);
                self.bitbuf = 0;
                self.nbits = 0;
            }
        }

        fn finish(mut self) -> Vec<u8> {
            self.align();
            self.out
        }
    }

    pub(super) fn length_symbol(len: u32) -> (u32, u32, u32) {
        debug_assert!((3..=258).contains(&len));
        for i in (0..LENGTH_TABLE.len()).rev() {
            let (sym, extra, base) = LENGTH_TABLE[i];
            if len >= base && (len - base) < (1 << extra) || (sym == 285 && len == 258) {
                return (sym, extra, len - base);
            }
        }
        unreachable!("length {len} not in table")
    }

    pub(super) fn dist_symbol(dist: u32) -> (u32, u32, u32) {
        debug_assert!((1..=32768).contains(&dist));
        for i in (0..DIST_TABLE.len()).rev() {
            let (sym, extra, base) = DIST_TABLE[i];
            if dist >= base {
                return (sym, extra, dist - base);
            }
        }
        unreachable!("distance {dist} not in table")
    }

    /// One LZ77 token.
    enum Token {
        Literal(u8),
        Match { len: u32, dist: u32 },
    }

    fn lz77(data: &[u8]) -> Vec<Token> {
        let mut tokens = Vec::new();
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; data.len()];
        let mut i = 0;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                let mut cand = head[h];
                let mut chain = 0;
                while cand != usize::MAX && chain < MAX_CHAIN {
                    if i - cand <= WINDOW {
                        let max_len = (data.len() - i).min(MAX_MATCH);
                        let mut l = 0;
                        while l < max_len && data[cand + l] == data[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_dist = i - cand;
                            if l >= MAX_MATCH {
                                break;
                            }
                        }
                    } else {
                        break;
                    }
                    cand = prev[cand];
                    chain += 1;
                }
                // Insert current position into the chain.
                prev[i] = head[h];
                head[h] = i;
            }
            if best_len >= MIN_MATCH {
                tokens.push(Token::Match {
                    len: best_len as u32,
                    dist: best_dist as u32,
                });
                // Insert the skipped positions so later matches can find them.
                let stop = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
                for (j, p) in prev.iter_mut().enumerate().take(stop).skip(i + 1) {
                    let h = hash3(data, j);
                    *p = head[h];
                    head[h] = j;
                }
                i += best_len;
            } else {
                tokens.push(Token::Literal(data[i]));
                i += 1;
            }
        }
        tokens
    }

    pub(super) fn deflate_fixed(data: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.bits(1, 1); // BFINAL
        w.bits(0b01, 2); // BTYPE = fixed Huffman
        for token in lz77(data) {
            match token {
                Token::Literal(b) => {
                    let (code, len) = fixed_litlen_code(b as usize);
                    w.code(code, len);
                }
                Token::Match { len, dist } => {
                    let (sym, extra, rest) = length_symbol(len);
                    let (code, clen) = fixed_litlen_code(sym as usize);
                    w.code(code, clen);
                    if extra > 0 {
                        w.bits(rest, extra);
                    }
                    let (dsym, dextra, drest) = dist_symbol(dist);
                    w.code(dsym, 5); // fixed distance codes are 5 bits
                    if dextra > 0 {
                        w.bits(drest, dextra);
                    }
                }
            }
        }
        let (eob, eob_len) = fixed_litlen_code(256);
        w.code(eob, eob_len);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8], mode: Mode) {
        let comp = deflate(data, mode);
        let back = inflate(&comp).expect("inflate");
        assert_eq!(
            back,
            data,
            "roundtrip failed for {mode:?}, {} bytes",
            data.len()
        );
    }

    #[test]
    fn empty_input() {
        roundtrip(b"", Mode::Stored);
        roundtrip(b"", Mode::Fixed);
    }

    #[test]
    fn short_literals() {
        roundtrip(b"hello world", Mode::Stored);
        roundtrip(b"hello world", Mode::Fixed);
    }

    #[test]
    fn repetitive_data_roundtrips_and_compresses() {
        let data: Vec<u8> = b"abcabcabcabc"
            .iter()
            .cycle()
            .take(10_000)
            .cloned()
            .collect();
        roundtrip(&data, Mode::Fixed);
        let comp = deflate(&data, Mode::Fixed);
        assert!(
            comp.len() < data.len() / 4,
            "LZ77 should compress repeats well: {} vs {}",
            comp.len(),
            data.len()
        );
    }

    #[test]
    fn random_bytes_roundtrip() {
        // Pseudo-random: xorshift so no rand dependency needed here.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..70_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        roundtrip(&data, Mode::Stored); // crosses the 65535 block boundary
        roundtrip(&data, Mode::Fixed);
    }

    #[test]
    fn all_byte_values_roundtrip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        roundtrip(&data, Mode::Fixed);
    }

    #[test]
    fn image_like_data_compresses() {
        // Smooth gradient rows, like a rendered pseudocolor image.
        let mut data = Vec::new();
        for y in 0..200u32 {
            for x in 0..300u32 {
                data.push((x / 4) as u8);
                data.push((y / 2) as u8);
                data.push(128);
            }
        }
        let comp = deflate(&data, Mode::Fixed);
        assert!(
            comp.len() < data.len() / 3,
            "{} vs {}",
            comp.len(),
            data.len()
        );
        roundtrip(&data, Mode::Fixed);
    }

    #[test]
    fn zlib_wrapper_roundtrip_and_checksum() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let z = zlib_compress(data, Mode::Fixed);
        assert_eq!(zlib_decompress(&z).unwrap(), data);
        // Corrupt the checksum → rejected.
        let mut bad = z.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert_eq!(zlib_decompress(&bad), Err(InflateError::BadZlib));
    }

    #[test]
    fn zlib_header_is_valid() {
        let z = zlib_compress(b"x", Mode::Stored);
        assert_eq!(z[0] & 0x0F, 8, "deflate method");
        assert_eq!(((z[0] as u16) << 8 | z[1] as u16) % 31, 0, "FCHECK");
    }

    #[test]
    fn adler32_known_values() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E60398);
    }

    /// `(symbol, extra bits, extra value)` of a match length, read
    /// through the compile-time tables.
    fn length_symbol(len: u32) -> (u32, u32, u32) {
        let (sym, extra, base) = LENGTH_TABLE[length_index(len as usize)];
        (sym, extra, len - base)
    }

    /// `(symbol, extra bits, extra value)` of a match distance, read
    /// through the zlib-style [`DIST_SYM`] table.
    fn dist_symbol(dist: u32) -> (u32, u32, u32) {
        let (sym, extra, base) = DIST_TABLE[dist_index(dist as usize)];
        (sym, extra, dist - base)
    }

    #[test]
    fn length_and_distance_symbols_cover_bounds() {
        assert_eq!(length_symbol(3), (257, 0, 0));
        assert_eq!(length_symbol(258), (285, 0, 0));
        assert_eq!(length_symbol(10), (264, 0, 0));
        assert_eq!(dist_symbol(1), (0, 0, 0));
        assert_eq!(dist_symbol(32768), (29, 13, 32768 - 24577));
    }

    #[test]
    fn tables_agree_with_linear_scan_symbols() {
        for len in MIN_MATCH as u32..=MAX_MATCH as u32 {
            let (sym, extra, rest) = oracle::length_symbol(len);
            assert_eq!(length_symbol(len), (sym, extra, rest), "length {len}");
            let (code, clen) = fixed_litlen_code(sym as usize);
            let want = (reverse_bits(code, clen) | (rest << clen), clen + extra);
            assert_eq!(LEN_CODES[len as usize], want, "length {len}");
        }
        for dist in 1..=WINDOW as u32 {
            let (sym, extra, rest) = oracle::dist_symbol(dist);
            assert_eq!(dist_symbol(dist), (sym, extra, rest), "distance {dist}");
            assert_eq!(DIST_CODES[sym as usize].0, reverse_bits(sym, 5));
        }
        for (s, &entry) in LITLEN_CODES.iter().enumerate() {
            let (code, len) = fixed_litlen_code(s);
            assert_eq!(entry, (reverse_bits(code, len), len), "symbol {s}");
        }
    }

    /// Deterministic filler bytes for the structured oracle inputs.
    fn xorshift_bytes(mut x: u64, n: usize) -> Vec<u8> {
        x |= 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    fn assert_matches_oracle(data: &[u8]) {
        let got = deflate(data, Mode::Fixed);
        let want = oracle::deflate_fixed(data);
        assert!(
            got == want,
            "streaming encoder diverged from the oracle on {} bytes \
             ({} vs {} output bytes, first difference at byte {:?})",
            data.len(),
            got.len(),
            want.len(),
            got.iter().zip(&want).position(|(a, b)| a != b)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Arbitrary bytes, up to past one 64 KiB frame.
        #[test]
        fn fixed_matches_oracle_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..70_000),
        ) {
            assert_matches_oracle(&data);
        }

        /// Few-symbol, run-heavy input: long hash chains, many ties
        /// between equal-length candidates.
        #[test]
        fn fixed_matches_oracle_on_few_symbol_runs(
            runs in proptest::collection::vec((0u8..3, 1usize..300), 0..400),
        ) {
            let data: Vec<u8> = runs
                .iter()
                .flat_map(|&(b, n)| std::iter::repeat_n(b, n))
                .collect();
            assert_matches_oracle(&data);
        }

        /// Over 64 KiB of a block repeated with a period at or just
        /// around the window size, with scattered edits: matches sit at
        /// distance exactly 32768 and the `prev` ring wraps repeatedly.
        #[test]
        fn fixed_matches_oracle_across_ring_wraparound(
            seed in any::<u64>(),
            period in (WINDOW - 2)..(WINDOW + 3),
            len in (64 * 1024 + 1)..110_000usize,
            edits in proptest::collection::vec((0usize..110_000, any::<u8>()), 0..64),
        ) {
            let block = xorshift_bytes(seed, period);
            let mut data: Vec<u8> = (0..len).map(|i| block[i % period]).collect();
            for (at, b) in edits {
                if at < len {
                    data[at] = b;
                }
            }
            assert_matches_oracle(&data);
        }

        /// Runs longer than 258 bytes between random separators: every
        /// run emits maximal matches and stops the chain walk early.
        #[test]
        fn fixed_matches_oracle_on_max_length_runs(
            runs in proptest::collection::vec((any::<u8>(), 259usize..1500, any::<u64>()), 1..16),
        ) {
            let mut data = Vec::new();
            for (b, n, seed) in runs {
                data.extend(std::iter::repeat_n(b, n));
                data.extend(xorshift_bytes(seed, (seed % 7) as usize));
            }
            assert_matches_oracle(&data);
        }
    }

    #[test]
    fn max_length_match_roundtrips() {
        let data = vec![7u8; 600]; // forces 258-length matches
        roundtrip(&data, Mode::Fixed);
    }

    #[test]
    fn truncated_stream_errors() {
        let comp = deflate(b"some data to compress", Mode::Fixed);
        let cut = &comp[..comp.len() / 2];
        assert!(inflate(cut).is_err());
    }
}
