//! Dependency-free SHA-256 — the content/cache hash of the result
//! store.
//!
//! The build environment has no crates.io access, so the store brings
//! its own hash. SHA-256 is chosen over a faster non-cryptographic
//! hash deliberately: cache keys address *results that are trusted
//! byte-for-byte* (golden fixtures are reproduced from them), so
//! accidental collisions must be out of the question, and the
//! implementation must be verifiable against universal test vectors
//! (FIPS 180-4; pinned in the tests below).

/// Rotate-right constants per FIPS 180-4 §4.1.2 are inlined at the use
/// sites; these are the 64 round constants K (fractional parts of the
/// cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state H(0): fractional parts of the square roots of
/// the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Computes the SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = H0;
    let bit_len = (data.len() as u64).wrapping_mul(8);

    // Process all whole blocks of the message, then the padded tail.
    let mut chunks = data.chunks_exact(64);
    for block in &mut chunks {
        compress(&mut h, block.try_into().expect("64-byte block"));
    }
    let rem = chunks.remainder();
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    // One padded block if the length fits, two otherwise.
    let blocks = if rem.len() < 56 { 1 } else { 2 };
    tail[blocks * 64 - 8..blocks * 64].copy_from_slice(&bit_len.to_be_bytes());
    for i in 0..blocks {
        compress(
            &mut h,
            tail[i * 64..(i + 1) * 64].try_into().expect("block"),
        );
    }

    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-256 compression function: folds one 64-byte block into the
/// running state.
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes(block[i * 4..(i + 1) * 4].try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *slot = slot.wrapping_add(v);
    }
}

/// The SHA-256 digest of `data` as a 64-character lowercase hex string
/// — the store's canonical key/content-digest form.
pub fn sha256_hex(data: &[u8]) -> String {
    to_hex(&sha256(data))
}

/// A digest in the store's canonical form: 64 lowercase hex characters.
pub(crate) fn to_hex(digest: &[u8; 32]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(64);
    for &byte in digest {
        out.push(HEX[usize::from(byte >> 4)] as char);
        out.push(HEX[usize::from(byte & 0xf)] as char);
    }
    out
}

/// The digest a canonical hex form spells; `None` for anything that is
/// not 64 lowercase hex characters — no SHA-256 the store computes
/// prints as that. Every `put` line a store folds decodes its key and
/// content digest here, so it is one table lookup per character.
pub(crate) fn from_hex(hex: &str) -> Option<[u8; 32]> {
    const NOT_HEX: u8 = 0xff;
    const NIBBLES: [u8; 256] = {
        let mut table = [NOT_HEX; 256];
        let mut c = 0;
        while c < 16 {
            table[b"0123456789abcdef"[c] as usize] = c as u8;
            c += 1;
        }
        table
    };
    let hex: &[u8; 64] = hex.as_bytes().try_into().ok()?;
    let (mut out, mut seen) = ([0u8; 32], 0u8);
    for (byte, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
        let (hi, lo) = (NIBBLES[usize::from(pair[0])], NIBBLES[usize::from(pair[1])]);
        seen |= hi | lo;
        *byte = (hi << 4) | lo;
    }
    // A character that is no hex digit set the high bits.
    (seen < 16).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 / RFC 6234 test vectors. If these pass, every block
    /// path (empty input, short input, exactly-one-pad-block boundary,
    /// multi-block) is exercised.
    #[test]
    fn fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// The padding boundary (55/56/64-byte messages) is where SHA-256
    /// implementations break; pin all three against the reference
    /// one-block/two-block split.
    #[test]
    fn padding_boundaries() {
        // 55 bytes: longest message fitting one padded block.
        assert_eq!(
            sha256_hex(&[b'a'; 55]),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"
        );
        // 56 bytes: first length that needs a second block.
        assert_eq!(
            sha256_hex(&[b'a'; 56]),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
        );
        // One full block exactly.
        assert_eq!(
            sha256_hex(&[b'a'; 64]),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    #[test]
    fn million_a() {
        // RFC 6234 vector: one million 'a's (multi-block stress).
        assert_eq!(
            sha256_hex(&vec![b'a'; 1_000_000]),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hex_parses_back_only_from_the_canonical_form() {
        let digest = sha256(b"mocc");
        let hex = sha256_hex(b"mocc");
        assert_eq!(from_hex(&hex), Some(digest));
        assert_eq!(to_hex(&digest), hex);
        for other in [
            String::new(),
            hex[1..].to_string(),
            format!("{hex}0"),
            hex.to_uppercase(),
            format!("g{}", &hex[1..]),
        ] {
            assert_eq!(from_hex(&other), None, "{other:?}");
        }
    }

    #[test]
    fn hex_form_is_64_lowercase_chars() {
        let hex = sha256_hex(b"mocc");
        assert_eq!(hex.len(), 64);
        assert!(hex
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    }
}
