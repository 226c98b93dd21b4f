//! Minimal libpcap-format writer and reader (LINKTYPE_RAW: raw IPv4).
//!
//! The paper's scan server runs `dumpcap` alongside `zmap` and all analysis
//! happens offline on the pcap (§A.2, `dns-scan-server`). We reproduce that
//! pipeline: the scanner's capture tap produces real pcap bytes, and the
//! analysis crate re-parses them — so the correlation step works on exactly
//! the information a real capture would contain.

use crate::time::SimTime;

/// libpcap global-header magic, little-endian, microsecond timestamps.
const MAGIC_LE_US: u32 = 0xA1B2_C3D4;
/// LINKTYPE_RAW: packets begin directly with an IPv4/IPv6 header.
const LINKTYPE_RAW: u32 = 101;
/// Snapshot length declared in the global header; records never include
/// more than this many bytes (`incl_len <= SNAPLEN`), exactly like a real
/// `dumpcap -s 65535` capture.
pub const SNAPLEN: u32 = 65_535;

/// A single captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    /// Capture timestamp.
    pub ts: SimTime,
    /// Raw IPv4 bytes (starting at the IP header), truncated to [`SNAPLEN`].
    pub data: Vec<u8>,
    /// Original on-the-wire length; exceeds `data.len()` only for packets
    /// the snapshot length truncated.
    pub orig_len: u32,
}

/// Errors from the pcap reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// Stream shorter than a global header.
    TooShort,
    /// Unknown magic number.
    BadMagic(u32),
    /// Unsupported link type.
    BadLinkType(u32),
    /// A record header claimed more bytes than remain.
    TruncatedRecord,
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::TooShort => write!(f, "pcap stream shorter than global header"),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic 0x{m:08x}"),
            PcapError::BadLinkType(l) => write!(f, "unsupported pcap linktype {l}"),
            PcapError::TruncatedRecord => write!(f, "truncated pcap record"),
        }
    }
}

impl std::error::Error for PcapError {}

/// Streaming pcap writer producing bytes in memory.
#[derive(Debug)]
pub struct PcapWriter {
    buf: Vec<u8>,
}

impl Default for PcapWriter {
    /// Same as [`PcapWriter::new`]: the global header is always emitted.
    fn default() -> Self {
        Self::new()
    }
}

impl PcapWriter {
    /// Create a writer with the global header already emitted.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC_LE_US.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes()); // version major
        buf.extend_from_slice(&4u16.to_le_bytes()); // version minor
        buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        buf.extend_from_slice(&SNAPLEN.to_le_bytes()); // snaplen
        buf.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());
        PcapWriter { buf }
    }

    /// Append one packet record. Packets beyond [`SNAPLEN`] are truncated
    /// to the declared snapshot length with `orig_len` recording the full
    /// size, as the global header promises readers.
    pub fn write(&mut self, ts: SimTime, data: &[u8]) {
        self.write_record(ts, data, data.len() as u32);
    }

    /// Append a record whose bytes may already be snaplen-truncated, with
    /// an explicit original length (the merge path re-emitting records a
    /// previous writer truncated).
    fn write_record(&mut self, ts: SimTime, data: &[u8], orig_len: u32) {
        let incl = data.len().min(SNAPLEN as usize);
        let us = ts.as_micros();
        let secs = (us / 1_000_000) as u32;
        let micros = (us % 1_000_000) as u32;
        self.buf.extend_from_slice(&secs.to_le_bytes());
        self.buf.extend_from_slice(&micros.to_le_bytes());
        self.buf.extend_from_slice(&(incl as u32).to_le_bytes());
        self.buf.extend_from_slice(&orig_len.to_le_bytes());
        self.buf.extend_from_slice(&data[..incl]);
    }

    /// Append one packet record whose bytes are produced *in place*: `f`
    /// appends the packet directly onto the capture buffer (no per-record
    /// staging Vec — the zero-copy tap path), and the record header is
    /// back-patched with the resulting length, snaplen-truncated like
    /// [`PcapWriter::write`].
    pub fn record_with<F: FnOnce(&mut Vec<u8>)>(&mut self, ts: SimTime, f: F) {
        let us = ts.as_micros();
        let secs = (us / 1_000_000) as u32;
        let micros = (us % 1_000_000) as u32;
        self.buf.extend_from_slice(&secs.to_le_bytes());
        self.buf.extend_from_slice(&micros.to_le_bytes());
        let len_pos = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 8]); // incl_len + orig_len, patched below
        let data_start = self.buf.len();
        f(&mut self.buf);
        let orig = (self.buf.len() - data_start) as u32;
        let incl = orig.min(SNAPLEN);
        self.buf.truncate(data_start + incl as usize);
        self.buf[len_pos..len_pos + 4].copy_from_slice(&incl.to_le_bytes());
        self.buf[len_pos + 4..len_pos + 8].copy_from_slice(&orig.to_le_bytes());
    }

    /// Finish, yielding the full pcap byte stream.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far without consuming the writer.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Merge several pcap streams into one, records interleaved by capture
/// timestamp (stable: ties keep the input-stream order). The per-shard
/// taps of a sharded experiment each produce their own capture on their
/// own simulated clock; this joins them into a single stream that real
/// tools (wireshark/tshark) open directly. Note that *analysis* merges at
/// the record-stream level instead — `(port, txid)` tuples restart per
/// shard, so correlation must stay per-capture (see `analysis`'s shard
/// ingestion) even though inspection wants one file.
pub fn merge_captures<S: AsRef<[u8]>>(parts: &[S]) -> Result<Vec<u8>, PcapError> {
    let mut records: Vec<CapturedPacket> = Vec::new();
    for part in parts {
        records.extend(read_pcap(part.as_ref())?);
    }
    records.sort_by_key(|r| r.ts); // stable: equal stamps keep input order
    let mut w = PcapWriter::new();
    for r in &records {
        w.write_record(r.ts, &r.data, r.orig_len);
    }
    Ok(w.finish())
}

/// Parse a pcap byte stream produced by [`PcapWriter`] (or any LE,
/// microsecond, LINKTYPE_RAW pcap).
pub fn read_pcap(bytes: &[u8]) -> Result<Vec<CapturedPacket>, PcapError> {
    if bytes.len() < 24 {
        return Err(PcapError::TooShort);
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if magic != MAGIC_LE_US {
        return Err(PcapError::BadMagic(magic));
    }
    let linktype = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    if linktype != LINKTYPE_RAW {
        return Err(PcapError::BadLinkType(linktype));
    }
    let mut out = Vec::new();
    let mut pos = 24usize;
    while pos < bytes.len() {
        if pos + 16 > bytes.len() {
            return Err(PcapError::TruncatedRecord);
        }
        let secs = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let micros = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let incl = u32::from_le_bytes([
            bytes[pos + 8],
            bytes[pos + 9],
            bytes[pos + 10],
            bytes[pos + 11],
        ]) as usize;
        let orig_len = u32::from_le_bytes([
            bytes[pos + 12],
            bytes[pos + 13],
            bytes[pos + 14],
            bytes[pos + 15],
        ]);
        pos += 16;
        if pos + incl > bytes.len() {
            return Err(PcapError::TruncatedRecord);
        }
        out.push(CapturedPacket {
            ts: SimTime(u64::from(secs) * 1_000_000 + u64::from(micros)),
            data: bytes[pos..pos + incl].to_vec(),
            orig_len,
        });
        pos += incl;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_capture_roundtrip() {
        let bytes = PcapWriter::new().finish();
        assert_eq!(bytes.len(), 24);
        assert_eq!(read_pcap(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn packets_roundtrip_with_timestamps() {
        let mut w = PcapWriter::new();
        w.write(SimTime(1_500_042), &[1, 2, 3]);
        w.write(SimTime(2_000_000), &[4, 5, 6, 7]);
        let recs = read_pcap(&w.finish()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, SimTime(1_500_042));
        assert_eq!(recs[0].data, vec![1, 2, 3]);
        assert_eq!(recs[1].ts, SimTime(2_000_000));
        assert_eq!(recs[1].data, vec![4, 5, 6, 7]);
    }

    #[test]
    fn oversized_packet_truncates_to_snaplen_with_correct_orig_len() {
        // A packet over the declared 65535-byte snapshot length must be
        // cut to the snaplen with orig_len holding the wire size — a
        // record claiming more bytes than the global header promised
        // would be inconsistent and trips real pcap readers.
        let big = vec![0x5A; SNAPLEN as usize + 1000];
        let mut w = PcapWriter::new();
        w.write(SimTime(7), &big);
        let bytes = w.finish();
        // Record header math: 24 global + 16 record + exactly SNAPLEN.
        assert_eq!(bytes.len(), 24 + 16 + SNAPLEN as usize);
        let recs = read_pcap(&bytes).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].data.len(), SNAPLEN as usize);
        assert_eq!(recs[0].orig_len, big.len() as u32);
        assert!(recs[0].data.iter().all(|&b| b == 0x5A));
        // And the same through the in-place record path.
        let mut w = PcapWriter::new();
        w.record_with(SimTime(7), |buf| buf.extend_from_slice(&big));
        let recs2 = read_pcap(&w.finish()).unwrap();
        assert_eq!(recs, recs2);
        // Truncation survives a merge: orig_len is carried through.
        let mut w = PcapWriter::new();
        w.write(SimTime(7), &big);
        let merged = merge_captures(&[w.finish()]).unwrap();
        assert_eq!(read_pcap(&merged).unwrap(), recs);
    }

    #[test]
    fn record_with_matches_write_byte_for_byte() {
        let payloads: [&[u8]; 3] = [&[1, 2, 3], &[], &[9; 40]];
        let mut a = PcapWriter::new();
        let mut b = PcapWriter::new();
        for (i, p) in payloads.iter().enumerate() {
            a.write(SimTime(i as u64 * 1000), p);
            b.record_with(SimTime(i as u64 * 1000), |buf| buf.extend_from_slice(p));
        }
        let (a, b) = (a.finish(), b.finish());
        assert_eq!(read_pcap(&a).unwrap().len(), payloads.len());
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = PcapWriter::new().finish();
        bytes[0] = 0x00;
        assert!(matches!(read_pcap(&bytes), Err(PcapError::BadMagic(_))));
    }

    #[test]
    fn truncated_record_rejected() {
        let mut w = PcapWriter::new();
        w.write(SimTime(1), &[0xAA; 10]);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 3);
        assert_eq!(read_pcap(&bytes), Err(PcapError::TruncatedRecord));
    }

    #[test]
    fn merge_interleaves_by_timestamp_stably() {
        let mut a = PcapWriter::new();
        a.write(SimTime(10), &[1]);
        a.write(SimTime(30), &[3]);
        let mut b = PcapWriter::new();
        b.write(SimTime(10), &[2]); // tie with a's first: a wins (input order)
        b.write(SimTime(20), &[4]);
        let merged = merge_captures(&[a.finish(), b.finish()]).unwrap();
        let recs = read_pcap(&merged).unwrap();
        assert_eq!(
            recs.iter().map(|r| r.data[0]).collect::<Vec<u8>>(),
            vec![1, 2, 4, 3]
        );
        assert_eq!(
            recs.iter().map(|r| r.ts.0).collect::<Vec<u64>>(),
            vec![10, 10, 20, 30]
        );
    }

    #[test]
    fn merge_rejects_bad_part() {
        let good = PcapWriter::new().finish();
        assert!(matches!(
            merge_captures(&[good.as_slice(), &[0u8; 8]]),
            Err(PcapError::TooShort)
        ));
        assert_eq!(
            read_pcap(&merge_captures::<&[u8]>(&[]).unwrap()).unwrap(),
            vec![]
        );
    }

    #[test]
    fn wire_packets_survive_pcap() {
        use crate::packet::Datagram;
        use std::net::Ipv4Addr;
        let d = Datagram {
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(203, 0, 113, 9),
            src_port: 40000,
            dst_port: 53,
            ttl: 61,
            payload: vec![9; 12].into(),
        };
        let wire = crate::wire::encode_udp(&d, 77);
        let mut w = PcapWriter::new();
        w.write(SimTime(5), &wire);
        let recs = read_pcap(&w.finish()).unwrap();
        match crate::wire::decode(&recs[0].data).unwrap() {
            crate::wire::DecodedPacket::Udp(back) => assert_eq!(back, d),
            other => panic!("expected UDP, got {other:?}"),
        }
    }
}
