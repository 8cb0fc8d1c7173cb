//! Minimal PNG encoding (and decoding of our own files) over the
//! from-scratch zlib. 8-bit RGB, filter type 0 per scanline — the same
//! "render, compress on rank 0, write" path the paper's slice pipelines
//! take.

use crate::color::Color;
use crate::deflate::{self, Mode};
use crate::framebuffer::Framebuffer;

/// CRC-32 (ISO 3309), as required by the PNG chunk format.
/// Table-driven, eight bytes per step ("slicing-by-8").
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// `CRC_TABLES[0]` is zlib's byte table; `CRC_TABLES[k][n]` is the CRC
/// state of byte `n` followed by `k` zero bytes, so one step folds in
/// eight bytes at once. Built at compile time.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (c & 1).wrapping_neg();
            c = (c >> 1) ^ (0xEDB8_8320 & mask);
            k += 1;
        }
        t[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = t[k - 1][n];
            t[k][n] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    t
};

/// Append one chunk: length, `kind`, the payload `write` appends in
/// place, then the CRC of type and payload, read where they were written.
fn chunk(out: &mut Vec<u8>, kind: &[u8; 4], write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(kind);
    write(out);
    let len = u32::try_from(out.len() - start - 8).expect("PNG chunk payload exceeds 4 GiB");
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Encode 8-bit RGB pixels (`width*height*3` bytes, top row first) to a
/// PNG file image. `mode` selects the zlib strategy — the knob the
/// PHASTA discussion turns when it "skips the compression portion".
pub fn encode_rgb(width: usize, height: usize, rgb: &[u8], mode: Mode) -> Vec<u8> {
    assert_eq!(rgb.len(), width * height * 3, "pixel buffer size mismatch");
    assert!(width > 0 && height > 0, "degenerate image");
    let raw = scanlines(width, height, |y, line| {
        line.copy_from_slice(&rgb[y * width * 3..(y + 1) * width * 3]);
    });
    encode_scanlines(width, height, &raw, mode)
}

/// Encode a framebuffer flattened over `background`. Each scanline is
/// written straight from the framebuffer's RGBA pixels, with no
/// intermediate RGB image.
pub fn encode_framebuffer(fb: &Framebuffer, background: Color, mode: Mode) -> Vec<u8> {
    let raw = scanlines(fb.width(), fb.height(), |y, line| {
        fb.rgb_row_into(y, background, line);
    });
    encode_scanlines(fb.width(), fb.height(), &raw, mode)
}

/// The raw image stream: per scanline one filter byte (0 = None), then
/// the row's `width * 3` RGB bytes, filled in by `row(y, line)`.
fn scanlines(width: usize, height: usize, mut row: impl FnMut(usize, &mut [u8])) -> Vec<u8> {
    let stride = 1 + width * 3;
    let mut raw = vec![0u8; height * stride];
    for (y, line) in raw.chunks_exact_mut(stride).enumerate() {
        row(y, &mut line[1..]);
    }
    raw
}

/// Signature, IHDR, the zlib-compressed scanlines as one IDAT, IEND.
fn encode_scanlines(width: usize, height: usize, raw: &[u8], mode: Mode) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);

    chunk(&mut out, b"IHDR", |ihdr| {
        ihdr.extend_from_slice(&(width as u32).to_be_bytes());
        ihdr.extend_from_slice(&(height as u32).to_be_bytes());
        ihdr.extend_from_slice(&[8, 2, 0, 0, 0]); // 8-bit, RGB, deflate, adaptive, no interlace
    });
    chunk(&mut out, b"IDAT", |idat| {
        deflate::zlib_compress_into(idat, raw, mode)
    });
    chunk(&mut out, b"IEND", |_| {});
    out
}

/// PNG decode errors.
#[derive(Debug, PartialEq, Eq)]
pub enum PngError {
    /// Missing or wrong signature.
    BadSignature,
    /// Chunk structure invalid or CRC mismatch.
    BadChunk,
    /// Unsupported format (we only decode our own 8-bit RGB output).
    Unsupported,
    /// zlib/deflate decode failure.
    BadData,
}

/// Decode a PNG produced by [`encode_rgb`] back to
/// `(width, height, rgb)`. Verifies signature, chunk CRCs, and the zlib
/// checksum — a real structural validation of the writer.
pub fn decode_rgb(png: &[u8]) -> Result<(usize, usize, Vec<u8>), PngError> {
    if png.len() < 8 || png[..8] != [0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A] {
        return Err(PngError::BadSignature);
    }
    let mut pos = 8;
    let mut width = 0usize;
    let mut height = 0usize;
    let mut idat = Vec::new();
    while pos + 12 <= png.len() {
        let len = u32::from_be_bytes(png[pos..pos + 4].try_into().unwrap()) as usize;
        let kind = &png[pos + 4..pos + 8];
        if pos + 12 + len > png.len() {
            return Err(PngError::BadChunk);
        }
        let payload = &png[pos + 8..pos + 8 + len];
        let want_crc = u32::from_be_bytes(png[pos + 8 + len..pos + 12 + len].try_into().unwrap());
        if crc32(&png[pos + 4..pos + 8 + len]) != want_crc {
            return Err(PngError::BadChunk);
        }
        match kind {
            b"IHDR" => {
                if len != 13 || payload[8] != 8 || payload[9] != 2 {
                    return Err(PngError::Unsupported);
                }
                width = u32::from_be_bytes(payload[0..4].try_into().unwrap()) as usize;
                height = u32::from_be_bytes(payload[4..8].try_into().unwrap()) as usize;
            }
            b"IDAT" => idat.extend_from_slice(payload),
            b"IEND" => break,
            _ => {} // ancillary chunks ignored
        }
        pos += 12 + len;
    }
    if width == 0 || height == 0 {
        return Err(PngError::BadChunk);
    }
    let raw = deflate::zlib_decompress(&idat).map_err(|_| PngError::BadData)?;
    let stride = 1 + width * 3;
    if raw.len() != height * stride {
        return Err(PngError::BadData);
    }
    let mut rgb = Vec::with_capacity(width * height * 3);
    for row in raw.chunks(stride) {
        if row[0] != 0 {
            return Err(PngError::Unsupported); // we only write filter 0
        }
        rgb.extend_from_slice(&row[1..]);
    }
    Ok((width, height, rgb))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> Vec<u8> {
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                rgb.push((x * 255 / w.max(1)) as u8);
                rgb.push((y * 255 / h.max(1)) as u8);
                rgb.push(60);
            }
        }
        rgb
    }

    #[test]
    fn crc32_known_value() {
        // The canonical test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC-32: the definition the sliced tables implement.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_bitwise_definition_at_every_length_and_offset() {
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), crc32_bitwise(&data[start..end]));
            }
        }
    }

    #[test]
    fn roundtrip_stored_and_fixed() {
        for mode in [Mode::Stored, Mode::Fixed] {
            let rgb = gradient(37, 23);
            let png = encode_rgb(37, 23, &rgb, mode);
            let (w, h, back) = decode_rgb(&png).unwrap();
            assert_eq!((w, h), (37, 23));
            assert_eq!(back, rgb, "{mode:?}");
        }
    }

    #[test]
    fn compression_shrinks_pseudocolor_like_images() {
        // Pseudocolor slices have large constant-color regions (discrete
        // colormap bands), which LZ77 compresses well.
        let (w, h) = (320usize, 200usize);
        let mut rgb = Vec::with_capacity(w * h * 3);
        for y in 0..h {
            for x in 0..w {
                let band = (((x / 20) + (y / 25)) % 16) as u8;
                rgb.extend_from_slice(&[band * 16, 255 - band * 16, 40]);
            }
        }
        let stored = encode_rgb(w, h, &rgb, Mode::Stored);
        let fixed = encode_rgb(w, h, &rgb, Mode::Fixed);
        assert!(
            fixed.len() < stored.len() / 4,
            "fixed {} vs stored {}",
            fixed.len(),
            stored.len()
        );
        // Smooth per-pixel gradients (the worst case for filter-0 rows)
        // still never expand beyond stored size plus framing.
        let grad = gradient(w, h);
        let g_fixed = encode_rgb(w, h, &grad, Mode::Fixed);
        let g_stored = encode_rgb(w, h, &grad, Mode::Stored);
        assert!(g_fixed.len() < g_stored.len());
    }

    #[test]
    fn framebuffer_encode_uses_background() {
        let mut fb = Framebuffer::new(2, 1);
        fb.set_pixel(0, 0, 0.0, Color::rgb(1, 2, 3));
        let png = encode_framebuffer(&fb, Color::rgb(9, 9, 9), Mode::Stored);
        let (_, _, rgb) = decode_rgb(&png).unwrap();
        assert_eq!(rgb, vec![1, 2, 3, 9, 9, 9]);
    }

    #[test]
    fn signature_and_structure_validated() {
        let rgb = gradient(4, 4);
        let mut png = encode_rgb(4, 4, &rgb, Mode::Fixed);
        assert_eq!(decode_rgb(&png[1..]), Err(PngError::BadSignature));
        // Corrupt a payload byte inside IHDR → CRC failure.
        png[16] ^= 0xFF;
        assert_eq!(decode_rgb(&png), Err(PngError::BadChunk));
    }

    #[test]
    fn single_pixel_image() {
        let png = encode_rgb(1, 1, &[255, 0, 127], Mode::Fixed);
        let (w, h, rgb) = decode_rgb(&png).unwrap();
        assert_eq!((w, h, rgb), (1, 1, vec![255, 0, 127]));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_buffer_size_panics() {
        let _ = encode_rgb(4, 4, &[0; 10], Mode::Stored);
    }
}
