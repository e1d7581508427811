//! Hex encoding/decoding, used for the SHA-256 test vectors and for
//! printing digests.

/// Encodes bytes as lowercase hex. Whitespace-free.
pub fn encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

/// Decoding error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HexError {
    /// The input length (after stripping whitespace) was odd.
    OddLength,
    /// A character was not a hex digit; carries its byte offset.
    InvalidDigit(usize),
}

impl std::fmt::Display for HexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HexError::OddLength => write!(f, "hex string has odd length"),
            HexError::InvalidDigit(at) => write!(f, "invalid hex digit at offset {at}"),
        }
    }
}

impl std::error::Error for HexError {}

/// Decodes a hex string, ignoring ASCII whitespace (so test vectors can be
/// wrapped across lines).
pub fn decode(s: &str) -> Result<Vec<u8>, HexError> {
    let digits: Vec<(usize, u8)> = s
        .bytes()
        .enumerate()
        .filter(|(_, b)| !b.is_ascii_whitespace())
        .collect();
    if !digits.len().is_multiple_of(2) {
        return Err(HexError::OddLength);
    }
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks(2) {
        let hi = (pair[0].1 as char)
            .to_digit(16)
            .ok_or(HexError::InvalidDigit(pair[0].0))? as u8;
        let lo = (pair[1].1 as char)
            .to_digit(16)
            .ok_or(HexError::InvalidDigit(pair[1].0))? as u8;
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let data = [0x00, 0x01, 0xab, 0xff];
        assert_eq!(encode(&data), "0001abff");
        assert_eq!(decode("0001abff").unwrap(), data);
    }

    #[test]
    fn decode_ignores_whitespace() {
        assert_eq!(decode("de ad\nbe\tef").unwrap(), [0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn decode_rejects_odd_length() {
        assert_eq!(decode("abc"), Err(HexError::OddLength));
    }

    #[test]
    fn decode_rejects_bad_digit() {
        assert_eq!(decode("zz"), Err(HexError::InvalidDigit(0)));
        assert_eq!(decode("aaxg"), Err(HexError::InvalidDigit(2)));
    }

    #[test]
    fn empty_round_trip() {
        assert_eq!(encode(&[]), "");
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }
}
