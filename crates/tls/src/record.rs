//! TLS record framing: headers, content types, fragmentation limits.

/// Length of the cleartext record header that precedes every record.
pub const RECORD_HEADER_LEN: usize = 5;

/// Maximum plaintext fragment length (RFC 5246 §6.2.1): 2^14 bytes.
/// Payloads larger than this are split across multiple records.
pub const MAX_FRAGMENT: usize = 1 << 14;

/// Maximum ciphertext length a conforming implementation will accept
/// (2^14 + 2048, RFC 5246 §6.2.3).
pub const MAX_CIPHERTEXT: usize = MAX_FRAGMENT + 2048;

/// TLS record content types (the subset that appears on a streaming
/// connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContentType {
    /// change_cipher_spec(20)
    ChangeCipherSpec,
    /// alert(21)
    Alert,
    /// handshake(22)
    Handshake,
    /// application_data(23)
    ApplicationData,
}

impl ContentType {
    /// Wire value.
    pub fn to_byte(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }

    /// Parse a wire value.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            20 => Some(ContentType::ChangeCipherSpec),
            21 => Some(ContentType::Alert),
            22 => Some(ContentType::Handshake),
            23 => Some(ContentType::ApplicationData),
            _ => None,
        }
    }
}

/// The cleartext 5-byte header carried before every TLS record.
///
/// This header is what the White Mirror eavesdropper reads: `length` is
/// the ciphertext length and is *not* encrypted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    pub content_type: ContentType,
    /// Protocol version on the wire; TLS 1.2 is (3, 3). TLS 1.3 also
    /// writes (3, 3) for middlebox compatibility.
    pub version: (u8, u8),
    /// Ciphertext length in bytes.
    pub length: u16,
}

impl RecordHeader {
    /// Serialize into the 5 wire bytes.
    pub fn to_bytes(&self) -> [u8; RECORD_HEADER_LEN] {
        [
            self.content_type.to_byte(),
            self.version.0,
            self.version.1,
            (self.length >> 8) as u8,
            (self.length & 0xff) as u8,
        ]
    }

    /// Parse the 5 wire bytes.
    ///
    /// Returns `None` for unknown content types or absurd versions —
    /// the observer uses this to detect desynchronization.
    pub fn parse(bytes: &[u8; RECORD_HEADER_LEN]) -> Option<Self> {
        let [content_type, major, minor, l0, l1] = *bytes;
        let content_type = ContentType::from_byte(content_type)?;
        let version = (major, minor);
        if version.0 != 3 || version.1 > 4 {
            return None;
        }
        let length = u16::from_be_bytes([l0, l1]);
        if length as usize > MAX_CIPHERTEXT {
            return None;
        }
        Some(RecordHeader {
            content_type,
            version,
            length,
        })
    }
}

/// Iterator over a payload's [`MAX_FRAGMENT`]-sized plaintext
/// fragments (see [`fragments`]).
#[derive(Debug, Clone)]
pub struct Fragments<'a> {
    rest: &'a [u8],
    emitted_any: bool,
}

impl<'a> Iterator for Fragments<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            if self.emitted_any {
                return None;
            }
            self.emitted_any = true;
            return Some(self.rest);
        }
        let n = self.rest.len().min(MAX_FRAGMENT);
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        self.emitted_any = true;
        Some(head)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = if self.rest.is_empty() {
            usize::from(!self.emitted_any)
        } else {
            self.rest.len().div_ceil(MAX_FRAGMENT)
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Fragments<'_> {}

/// Split a plaintext payload into fragments no longer than
/// [`MAX_FRAGMENT`], without allocating. An empty payload yields one
/// empty fragment (TLS permits zero-length application-data records).
pub fn fragments(payload: &[u8]) -> Fragments<'_> {
    Fragments {
        rest: payload,
        emitted_any: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = RecordHeader {
            content_type: ContentType::ApplicationData,
            version: (3, 3),
            length: 2212,
        };
        assert_eq!(RecordHeader::parse(&h.to_bytes()), Some(h));
    }

    #[test]
    fn header_length_big_endian() {
        let h = RecordHeader {
            content_type: ContentType::Handshake,
            version: (3, 3),
            length: 0x0102,
        };
        assert_eq!(h.to_bytes(), [22, 3, 3, 1, 2]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RecordHeader::parse(&[0, 3, 3, 0, 1]).is_none()); // bad type
        assert!(RecordHeader::parse(&[23, 2, 0, 0, 1]).is_none()); // SSLv2-ish
        assert!(RecordHeader::parse(&[23, 3, 9, 0, 1]).is_none()); // bad minor
                                                                   // Length over the ciphertext bound.
        let over = (MAX_CIPHERTEXT + 1) as u16;
        assert!(RecordHeader::parse(&[23, 3, 3, (over >> 8) as u8, over as u8]).is_none());
    }

    #[test]
    fn all_content_types_roundtrip() {
        for ct in [
            ContentType::ChangeCipherSpec,
            ContentType::Alert,
            ContentType::Handshake,
            ContentType::ApplicationData,
        ] {
            assert_eq!(ContentType::from_byte(ct.to_byte()), Some(ct));
        }
        assert_eq!(ContentType::from_byte(0), None);
        assert_eq!(ContentType::from_byte(24), None);
    }

    #[test]
    fn fragmentation() {
        let small = vec![0u8; 100];
        assert_eq!(fragments(&small).count(), 1);
        let exact = vec![0u8; MAX_FRAGMENT];
        assert_eq!(fragments(&exact).count(), 1);
        let big = vec![0u8; MAX_FRAGMENT + 1];
        let frags: Vec<&[u8]> = fragments(&big).collect();
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].len(), MAX_FRAGMENT);
        assert_eq!(frags[1].len(), 1);
        let empty: Vec<u8> = vec![];
        assert_eq!(fragments(&empty).collect::<Vec<_>>(), vec![&[] as &[u8]]);
    }
}
