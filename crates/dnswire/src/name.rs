//! Domain names: one flat wire-form buffer per name, textual parsing,
//! compression against the bytes already written, and loop-safe decoding.

use crate::error::WireError;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Maximum length of a single label on the wire (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a whole name on the wire, including length octets and
/// the root terminator (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Budget of compression pointer hops tolerated during decode before we
/// declare a loop. A valid name can never need more hops than labels.
const MAX_POINTER_HOPS: usize = 128;
/// Highest buffer offset a 14-bit compression pointer can name.
const MAX_POINTER_TARGET: usize = 0x3FFF;

/// A fully-qualified domain name.
///
/// A name is one immutable, shared buffer holding its **uncompressed wire
/// form**: a length octet before each label, the label's raw bytes (DNS
/// labels are arbitrary octets, not just ASCII), and the terminating zero
/// octet — `\x0aodns-study\x07example\x00`. The root is the single byte
/// `\x00`, shared by every root name in the process. Length octets are at
/// most 63 and therefore never ASCII letters, so the case-insensitive
/// operations (`==`, hashing, ordering, [`is_subdomain_of`]) work on the
/// flat bytes directly, and none of them allocates.
///
/// Comparison and hashing are case-insensitive for ASCII, matching resolver
/// behaviour (RFC 1035 §2.3.3) — this matters for the study because caches
/// key on names and some CPE devices randomize query-name case (the "0x20"
/// hack). The original casing is kept and re-emitted on encode.
///
/// Cloning a name — which resolvers do on every cache lookup, pending-query
/// record, and response build — is a refcount bump. Building one (parse,
/// decode, [`prepend`], [`parent`]) assembles it on the stack and
/// allocates exactly once.
///
/// [`is_subdomain_of`]: DnsName::is_subdomain_of
/// [`prepend`]: DnsName::prepend
/// [`parent`]: DnsName::parent
#[derive(Clone)]
pub struct DnsName {
    /// Invariant: well-formed uncompressed wire form, 1..=255 bytes.
    wire: Arc<[u8]>,
}

/// Stack scratch a name is assembled in before its one allocation.
struct NameBuf {
    bytes: [u8; MAX_NAME_LEN],
    /// Wire bytes pushed so far, terminator excluded. Keeps counting past
    /// the capacity so the overflow error can report the full length.
    len: usize,
}

impl NameBuf {
    fn new() -> Self {
        NameBuf {
            bytes: [0; MAX_NAME_LEN],
            len: 0,
        }
    }

    /// Wire length of the name if it ended here.
    fn wire_len(&self) -> usize {
        self.len + 1
    }

    fn push(&mut self, label: &[u8]) -> Result<(), WireError> {
        if label.is_empty() {
            return Err(WireError::InvalidLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        let end = self.len + 1 + label.len();
        if end < MAX_NAME_LEN {
            self.bytes[self.len] = label.len() as u8;
            self.bytes[self.len + 1..end].copy_from_slice(label);
        }
        self.len = end;
        Ok(())
    }

    fn finish(&self) -> Result<DnsName, WireError> {
        let wire = self.wire_len();
        if wire > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(wire));
        }
        // `bytes[len]` is still the zero it was initialised to.
        Ok(DnsName::from_wire(&self.bytes[..wire]))
    }
}

impl DnsName {
    /// The root name (`.`).
    pub fn root() -> Self {
        static ROOT: OnceLock<Arc<[u8]>> = OnceLock::new();
        DnsName {
            wire: ROOT.get_or_init(|| Arc::from(&[0u8][..])).clone(),
        }
    }

    /// Wrap bytes already known to be a well-formed uncompressed name.
    pub(crate) fn from_wire(wire: &[u8]) -> Self {
        if wire.len() == 1 {
            Self::root()
        } else {
            DnsName {
                wire: Arc::from(wire),
            }
        }
    }

    /// Parse a textual name such as `"odns-study.example."`.
    ///
    /// A single trailing dot is accepted and ignored; empty interior labels
    /// (`"a..b"`) are rejected. The empty string and `"."` denote the root.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        if s.is_empty() || s == "." {
            return Ok(Self::root());
        }
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        let mut buf = NameBuf::new();
        for part in trimmed.split('.') {
            if part.is_empty() {
                return Err(WireError::BadNameSyntax(s.to_string()));
            }
            buf.push(part.as_bytes())?;
        }
        buf.finish()
    }

    /// Construct from raw labels. Rejects empty or oversized labels.
    pub fn from_labels<I, L>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut buf = NameBuf::new();
        for l in labels {
            buf.push(l.as_ref())?;
        }
        buf.finish()
    }

    /// The labels of this name, leftmost (most specific) first, borrowed
    /// from the name's buffer.
    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: &self.wire }
    }

    /// The uncompressed wire form: length-prefixed labels and the
    /// terminating zero octet, original casing. Comparing two of these is
    /// the *case-sensitive* equality that `==` deliberately is not.
    pub fn as_wire(&self) -> &[u8] {
        &self.wire
    }

    /// Number of labels; the root has zero.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire.len() == 1
    }

    /// Length this name occupies on the wire when encoded without
    /// compression: one length octet per label plus the label bytes, plus the
    /// terminating zero octet.
    pub fn wire_len(&self) -> usize {
        self.wire.len()
    }

    /// Returns the parent name (this name minus its leftmost label), or
    /// `None` for the root.
    pub fn parent(&self) -> Option<DnsName> {
        let first = self.labels().next()?;
        Some(Self::from_wire(&self.wire[1 + first.len()..]))
    }

    /// `child.is_subdomain_of(parent)` — true when `self` ends with all of
    /// `other`'s labels (every name is a subdomain of the root and of
    /// itself). Used for zone cut / delegation decisions in the resolver.
    pub fn is_subdomain_of(&self, other: &DnsName) -> bool {
        // Drop labels until what is left is no longer than `other`: only a
        // tail that starts on one of our label boundaries may match, or a
        // label byte that equals a length octet would pass for one.
        let mut tail = self.labels();
        while tail.rest.len() > other.wire.len() {
            tail.next();
        }
        tail.rest.eq_ignore_ascii_case(&other.wire)
    }

    /// Offsets of this name's label length octets, leftmost first, and how
    /// many there are: a 255-byte name holds at most 127 labels.
    fn label_starts(&self) -> ([u8; MAX_NAME_LEN / 2], usize) {
        let mut starts = [0u8; MAX_NAME_LEN / 2];
        let (mut n, mut at) = (0, 0);
        while self.wire[at] != 0 {
            starts[n] = at as u8;
            n += 1;
            at += 1 + self.wire[at] as usize;
        }
        (starts, n)
    }

    /// The label whose length octet sits at `start`.
    fn label_at(&self, start: u8) -> &[u8] {
        let start = start as usize;
        &self.wire[start + 1..start + 1 + self.wire[start] as usize]
    }

    /// Prepend a label, producing `label.self`.
    pub fn prepend(&self, label: &[u8]) -> Result<DnsName, WireError> {
        let mut buf = NameBuf::new();
        buf.push(label)?;
        for l in self.labels() {
            buf.push(l)?;
        }
        buf.finish()
    }

    /// Encode without compression, appending to `buf`.
    pub fn encode_uncompressed(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.wire);
    }

    /// Encode with RFC 1035 §4.1.4 compression.
    ///
    /// `offsets` lists where in `buf` (which must hold the message from its
    /// first byte) earlier names' suffixes start. The longest suffix of
    /// this name already present is replaced by a two-octet pointer to its
    /// first occurrence; new suffixes that start at or below offset 0x3FFF
    /// are recorded for later reuse.
    pub fn encode_compressed(&self, buf: &mut Vec<u8>, offsets: &mut NameOffsets) {
        let mut labels = self.labels();
        loop {
            let suffix = labels.rest;
            let Some(label) = labels.next() else {
                break;
            };
            if let Some(off) = offsets.find(buf, suffix) {
                buf.extend_from_slice(&(0xC000 | off).to_be_bytes());
                return;
            }
            let here = buf.len();
            if here <= MAX_POINTER_TARGET {
                offsets.push(here as u16, suffix.len() as u8);
            }
            buf.extend_from_slice(&suffix[..1 + label.len()]);
        }
        buf.push(0);
    }

    /// Decode a name from `msg` starting at `*pos`, following compression
    /// pointers. `*pos` is advanced past the name *in the original stream*
    /// (pointers do not move it further). Pointer loops and forward pointers
    /// are rejected.
    pub fn decode(msg: &[u8], pos: &mut usize) -> Result<Self, WireError> {
        Self::decode_shared(msg, pos, &mut DecodedNames::default())
    }

    /// [`DnsName::decode`] for a name that is one of several in `msg`:
    /// `names` remembers what this message's earlier names decoded to, so a
    /// name that is nothing but a pointer to one of them (every answer
    /// owner of the study's responses) is a refcount bump on the same
    /// buffer instead of a second copy. Results and errors are identical to
    /// decoding each name on its own.
    pub fn decode_shared(
        msg: &[u8],
        pos: &mut usize,
        names: &mut DecodedNames,
    ) -> Result<Self, WireError> {
        let mut buf = NameBuf::new();
        let mut cursor = *pos;
        let mut followed_pointer = false;
        let mut hops = 0usize;
        // Offset of the first label, for as long as the labels after it
        // run on without a pointer: where a later pointer to this whole
        // name will point, at no further hops.
        let mut origin = None;

        loop {
            let len_byte = *msg.get(cursor).ok_or(WireError::Truncated {
                context: "name length octet",
            })?;
            match len_byte & 0xC0 {
                0x00 => {
                    if len_byte == 0 {
                        if !followed_pointer {
                            *pos = cursor + 1;
                        }
                        let name = buf.finish()?;
                        if let Some(at) = origin {
                            names.remember(at, &name);
                        }
                        return Ok(name);
                    }
                    let start = cursor + 1;
                    let end = start + len_byte as usize;
                    let label = msg.get(start..end).ok_or(WireError::Truncated {
                        context: "name label",
                    })?;
                    if buf.len == 0 {
                        origin = Some(cursor);
                    }
                    buf.push(label)?;
                    if buf.wire_len() > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(buf.wire_len()));
                    }
                    cursor = end;
                }
                0xC0 => {
                    let second = *msg.get(cursor + 1).ok_or(WireError::Truncated {
                        context: "pointer low byte",
                    })?;
                    let target = (((len_byte & 0x3F) as usize) << 8) | second as usize;
                    if target >= cursor {
                        // Forward (or self) pointers are malformed; real
                        // resolvers reject them, and accepting them would
                        // allow loops.
                        return Err(WireError::BadCompressionPointer { at: cursor, target });
                    }
                    if !followed_pointer {
                        *pos = cursor + 2;
                        followed_pointer = true;
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::CompressionLoop);
                    }
                    if buf.len > 0 {
                        origin = None;
                    } else if let Some(name) = names.at(target) {
                        // Walking on from `target` would read the same
                        // pointer-free bytes to the same result.
                        return Ok(name.clone());
                    }
                    cursor = target;
                }
                other => return Err(WireError::ReservedLabelType(other)),
            }
        }
    }
}

/// Borrowing iterator over a name's labels; see [`DnsName::labels`].
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    /// Unvisited tail of the wire form, starting at a length octet.
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        if len == 0 {
            return None;
        }
        let (label, rest) = tail.split_at(len as usize);
        self.rest = rest;
        Some(label)
    }
}

/// How many [`NameOffsets`] entries live inline before the table spills to
/// the heap. The study's messages register 2–6 suffixes.
const INLINE_OFFSETS: usize = 8;

/// The compression state of one message being encoded: where each name
/// suffix written so far starts in the output buffer.
///
/// The buffer itself is the dictionary — a candidate suffix is matched by
/// walking the bytes already written at a recorded offset (following the
/// pointers the encoder put there), case-insensitively and label by label.
/// Nothing is keyed on a textual rendering, so labels containing `.` or any
/// other byte cannot collide, and recording a suffix costs three bytes.
#[derive(Debug, Clone, Default)]
pub struct NameOffsets {
    /// `(buffer offset, uncompressed wire length of the suffix there)`, in
    /// the order written; the first [`INLINE_OFFSETS`] entries.
    inline: [(u16, u8); INLINE_OFFSETS],
    /// Entries beyond the inline ones.
    spill: Vec<(u16, u8)>,
    len: usize,
}

impl NameOffsets {
    fn push(&mut self, offset: u16, suffix_len: u8) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = (offset, suffix_len),
            None => self.spill.push((offset, suffix_len)),
        }
        self.len += 1;
    }

    /// Offset of the first-written suffix equal to `suffix` (uncompressed
    /// wire form), if any. The length filter also keeps the walk off the
    /// half-written suffixes of the name currently being encoded, which
    /// are always longer than the one being looked up.
    fn find(&self, buf: &[u8], suffix: &[u8]) -> Option<u16> {
        self.inline[..self.len.min(INLINE_OFFSETS)]
            .iter()
            .chain(&self.spill)
            .find(|&&(off, len)| len as usize == suffix.len() && written_name_eq(buf, off, suffix))
            .map(|&(off, _)| off)
    }
}

/// Does the (possibly compressed) name written at `buf[at..]` equal
/// `name`, an uncompressed wire form, ignoring ASCII case?
fn written_name_eq(buf: &[u8], at: u16, mut name: &[u8]) -> bool {
    let mut cursor = at as usize;
    loop {
        let Some(&len_byte) = buf.get(cursor) else {
            return false;
        };
        if len_byte & 0xC0 == 0xC0 {
            let Some(&second) = buf.get(cursor + 1) else {
                return false;
            };
            let target = (((len_byte & 0x3F) as usize) << 8) | second as usize;
            if target >= cursor {
                return false;
            }
            cursor = target;
            continue;
        }
        let end = 1 + len_byte as usize;
        let (Some(written), Some(wanted)) = (buf.get(cursor..cursor + end), name.get(..end)) else {
            return false;
        };
        if !written.eq_ignore_ascii_case(wanted) {
            return false;
        }
        if len_byte == 0 {
            return true;
        }
        cursor += end;
        name = &name[end..];
    }
}

/// How many names [`DecodedNames`] remembers; later ones are decoded
/// afresh, which costs an allocation and changes no result.
const REMEMBERED_NAMES: usize = 8;

/// The pointer-free names one message has yielded so far, by the offset
/// of their first label; see [`DnsName::decode_shared`].
#[derive(Debug, Default)]
pub struct DecodedNames {
    seen: [Option<(usize, DnsName)>; REMEMBERED_NAMES],
}

impl DecodedNames {
    fn remember(&mut self, at: usize, name: &DnsName) {
        if let Some(slot) = self.seen.iter_mut().find(|slot| slot.is_none()) {
            *slot = Some((at, name.clone()));
        }
    }

    fn at(&self, target: usize) -> Option<&DnsName> {
        self.seen
            .iter()
            .flatten()
            .find(|(at, _)| *at == target)
            .map(|(_, name)| name)
    }
}

impl fmt::Debug for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DnsName({self})")
    }
}

impl PartialEq for DnsName {
    fn eq(&self, other: &Self) -> bool {
        // Length octets are ≤ 63, so never letters: equal-ignoring-case
        // flat bytes imply identical label boundaries.
        Arc::ptr_eq(&self.wire, &other.wire) || self.wire.eq_ignore_ascii_case(&other.wire)
    }
}

impl Eq for DnsName {}

impl Hash for DnsName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut lower = [0u8; MAX_NAME_LEN];
        let lower = &mut lower[..self.wire.len()];
        lower.copy_from_slice(&self.wire);
        lower.make_ascii_lowercase();
        // Self-delimiting (length octets, terminator): no length prefix.
        state.write(lower);
    }
}

impl PartialOrd for DnsName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DnsName {
    /// Canonical DNS ordering: compare label sequences right-to-left,
    /// case-insensitively (RFC 4034 §6.1 style, simplified).
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.wire, &other.wire) {
            return Ordering::Equal;
        }
        let (ours, n) = self.label_starts();
        let (theirs, m) = other.label_starts();
        for from_right in 1..=n.min(m) {
            let a = self.label_at(ours[n - from_right]).iter();
            let b = other.label_at(theirs[m - from_right]).iter();
            match a
                .map(u8::to_ascii_lowercase)
                .cmp(b.map(u8::to_ascii_lowercase))
            {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        n.cmp(&m)
    }
}

impl fmt::Display for DnsName {
    /// Canonical dotted representation with a trailing dot; non-printable
    /// bytes, dots, and backslashes inside labels are escaped as `\DDD`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for label in self.labels() {
            for &b in label {
                if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
            write!(f, ".")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let n = DnsName::parse("odns-study.example.").unwrap();
        assert_eq!(n.to_string(), "odns-study.example.");
        assert_eq!(n.label_count(), 2);
        let n2 = DnsName::parse("odns-study.example").unwrap();
        assert_eq!(n, n2, "trailing dot must not matter");
    }

    #[test]
    fn root_parses_from_dot_and_empty() {
        assert!(DnsName::parse(".").unwrap().is_root());
        assert!(DnsName::parse("").unwrap().is_root());
        assert_eq!(DnsName::root().to_string(), ".");
        assert_eq!(DnsName::root().wire_len(), 1);
    }

    #[test]
    fn empty_interior_label_rejected() {
        assert!(matches!(
            DnsName::parse("a..b"),
            Err(WireError::BadNameSyntax(_))
        ));
    }

    #[test]
    fn oversized_label_rejected() {
        let long = "x".repeat(64);
        assert!(matches!(
            DnsName::parse(&long),
            Err(WireError::LabelTooLong(64))
        ));
        let ok = "x".repeat(63);
        assert!(DnsName::parse(&ok).is_ok());
    }

    #[test]
    fn oversized_name_rejected() {
        // Four 63-byte labels = 4*64 + 1 = 257 > 255.
        let l = "x".repeat(63);
        let s = format!("{l}.{l}.{l}.{l}");
        assert!(matches!(DnsName::parse(&s), Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        let a = DnsName::parse("ODNS-Study.Example.").unwrap();
        let b = DnsName::parse("odns-study.example.").unwrap();
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn subdomain_relation() {
        let parent = DnsName::parse("example.").unwrap();
        let child = DnsName::parse("odns-study.example.").unwrap();
        let other = DnsName::parse("odns-study.test.").unwrap();
        assert!(child.is_subdomain_of(&parent));
        assert!(child.is_subdomain_of(&child));
        assert!(child.is_subdomain_of(&DnsName::root()));
        assert!(!parent.is_subdomain_of(&child));
        assert!(!other.is_subdomain_of(&parent));
    }

    #[test]
    fn parent_walks_to_root() {
        let n = DnsName::parse("a.b.c.").unwrap();
        let p1 = n.parent().unwrap();
        assert_eq!(p1.to_string(), "b.c.");
        let p2 = p1.parent().unwrap();
        assert_eq!(p2.to_string(), "c.");
        let p3 = p2.parent().unwrap();
        assert!(p3.is_root());
        assert!(p3.parent().is_none());
    }

    #[test]
    fn prepend_builds_child() {
        let base = DnsName::parse("example.").unwrap();
        let child = base.prepend(b"203-0-113-7").unwrap();
        assert_eq!(child.to_string(), "203-0-113-7.example.");
    }

    #[test]
    fn uncompressed_encode_decode_roundtrip() {
        let n = DnsName::parse("a.bc.def.").unwrap();
        let mut buf = Vec::new();
        n.encode_uncompressed(&mut buf);
        assert_eq!(buf, b"\x01a\x02bc\x03def\x00");
        let mut pos = 0;
        let back = DnsName::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, n);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compression_reuses_suffixes() {
        let mut buf = Vec::new();
        let mut offsets = NameOffsets::default();
        let n1 = DnsName::parse("ns1.example.").unwrap();
        let n2 = DnsName::parse("ns2.example.").unwrap();
        n1.encode_compressed(&mut buf, &mut offsets);
        let after_first = buf.len();
        n2.encode_compressed(&mut buf, &mut offsets);
        // Second encoding: "ns2" label (4 bytes) + 2-byte pointer.
        assert_eq!(buf.len() - after_first, 4 + 2);
        let mut pos = 0;
        let d1 = DnsName::decode(&buf, &mut pos).unwrap();
        assert_eq!(d1, n1);
        let mut pos2 = pos;
        let d2 = DnsName::decode(&buf, &mut pos2).unwrap();
        assert_eq!(d2, n2);
        assert_eq!(pos2, buf.len());
    }

    #[test]
    fn whole_name_pointer() {
        let mut buf = Vec::new();
        let mut offsets = NameOffsets::default();
        let n = DnsName::parse("cache.example.").unwrap();
        n.encode_compressed(&mut buf, &mut offsets);
        let first_len = buf.len();
        n.encode_compressed(&mut buf, &mut offsets);
        assert_eq!(
            buf.len() - first_len,
            2,
            "identical name must become a bare pointer"
        );
        let mut pos = first_len;
        let back = DnsName::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at offset 0 targeting offset 4 (forward).
        let buf = [0xC0, 0x04, 0x00, 0x00, 0x00];
        let mut pos = 0;
        assert!(matches!(
            DnsName::decode(&buf, &mut pos),
            Err(WireError::BadCompressionPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_self_pointer_loop() {
        // Label "a", then pointer back to offset 2 which is the pointer itself.
        let buf = [0x01, b'a', 0xC0, 0x02];
        let mut pos = 2;
        assert!(matches!(
            DnsName::decode(&buf, &mut pos),
            Err(WireError::BadCompressionPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_reserved_label_bits() {
        let buf = [0x80, 0x01, 0x00];
        let mut pos = 0;
        assert!(matches!(
            DnsName::decode(&buf, &mut pos),
            Err(WireError::ReservedLabelType(_))
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = [0x05, b'a', b'b'];
        let mut pos = 0;
        assert!(matches!(
            DnsName::decode(&buf, &mut pos),
            Err(WireError::Truncated { .. })
        ));
        let empty: [u8; 0] = [];
        let mut pos = 0;
        assert!(matches!(
            DnsName::decode(&empty, &mut pos),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_advances_pos_past_pointer_not_target() {
        let mut buf = Vec::new();
        let mut offsets = NameOffsets::default();
        DnsName::parse("example.")
            .unwrap()
            .encode_compressed(&mut buf, &mut offsets);
        let start_second = buf.len();
        DnsName::parse("www.example.")
            .unwrap()
            .encode_compressed(&mut buf, &mut offsets);
        let mut pos = start_second;
        let n = DnsName::decode(&buf, &mut pos).unwrap();
        assert_eq!(n.to_string(), "www.example.");
        assert_eq!(
            pos,
            buf.len(),
            "pos must advance in the original stream only"
        );
    }

    #[test]
    fn decode_shared_agrees_with_standalone_decode() {
        // "b.c." at 0; "a" + pointer to it at 5; bare pointers to each; a
        // pointer to a pointer; and a pointer into the middle ("c.").
        let buf = [
            1, b'b', 1, b'c', 0, // 0
            1, b'a', 0xC0, 0, // 5
            0xC0, 0, // 9
            0xC0, 5, // 11
            0xC0, 9, // 13
            0xC0, 2, // 15
            0xC0, 15, // 17
        ];
        let mut names = DecodedNames::default();
        for start in [0, 5, 9, 11, 13, 15, 17] {
            let (mut shared_pos, mut alone_pos) = (start, start);
            let shared = DnsName::decode_shared(&buf, &mut shared_pos, &mut names).unwrap();
            let alone = DnsName::decode(&buf, &mut alone_pos).unwrap();
            assert_eq!(shared.as_wire(), alone.as_wire(), "name at {start}");
            assert_eq!(shared_pos, alone_pos, "pos after {start}");
        }
        // The pointer-free names were decoded once and handed out again.
        let mut at = |start| {
            let mut pos = start;
            DnsName::decode_shared(&buf, &mut pos, &mut names).unwrap()
        };
        assert!(Arc::ptr_eq(&at(9).wire, &at(13).wire));
        assert!(Arc::ptr_eq(&at(15).wire, &at(17).wire));
        assert!(
            !Arc::ptr_eq(&at(5).wire, &at(11).wire),
            "has a pointer inside"
        );
    }

    #[test]
    fn display_escapes_non_printable() {
        let n = DnsName::from_labels([&[0x01u8, b'.', b'z'][..]]).unwrap();
        assert_eq!(n.to_string(), "\\001\\046z.");
    }

    #[test]
    fn canonical_ordering_is_suffix_first() {
        let a = DnsName::parse("a.example.").unwrap();
        let b = DnsName::parse("b.example.").unwrap();
        let e = DnsName::parse("example.").unwrap();
        assert!(e < a, "parent sorts before child");
        assert!(a < b);
    }
}
