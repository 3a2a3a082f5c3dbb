//! Versioned binary codec for [`MetricsSnapshot`]: the `TADM` format.
//!
//! Like every binary format in the workspace, a metrics blob is one
//! [`tad_codec::envelope`] (magic `TADM`, version, length-prefixed
//! payload, FNV-1a 64 checksum), so it inherits the envelope's totality
//! guarantees against truncated or bit-flipped input. The payload encodes
//! histograms sparsely — only non-zero buckets travel — and the decoder
//! enforces the canonical form (entries strictly ordered by
//! `(name, kind)`, bucket indices strictly increasing, counts non-zero),
//! which makes encoding a bijection on valid snapshots: re-encoding a
//! decoded blob reproduces it byte for byte.

use bytes::{BufMut, Bytes, BytesMut};
use tad_codec::{envelope_payload, seal_envelope, EnvelopeError, ReadError, Reader};

use crate::hist::BUCKETS;
use crate::registry::{MetricEntry, MetricValue, MetricsSnapshot};
use crate::HistogramSnapshot;

/// Envelope magic for metrics snapshots.
pub const METRICS_MAGIC: &[u8; 4] = b"TADM";

/// Current `TADM` format version.
pub const METRICS_VERSION: u16 = 1;

/// Failures decoding a `TADM` blob. Total: hostile bytes produce one of
/// these, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricsCodecError {
    /// The outer envelope was rejected (magic, version, checksum, ...).
    Envelope(EnvelopeError),
    /// The payload ended before the named field.
    Truncated(&'static str),
    /// A payload field held an invalid value.
    Malformed(&'static str),
}

impl std::fmt::Display for MetricsCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsCodecError::Envelope(e) => write!(f, "metrics envelope: {e}"),
            MetricsCodecError::Truncated(what) => write!(f, "truncated metrics payload at {what}"),
            MetricsCodecError::Malformed(what) => write!(f, "malformed metrics payload: {what}"),
        }
    }
}

impl std::error::Error for MetricsCodecError {}

impl From<EnvelopeError> for MetricsCodecError {
    fn from(e: EnvelopeError) -> Self {
        MetricsCodecError::Envelope(e)
    }
}

impl From<ReadError> for MetricsCodecError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated(what) => MetricsCodecError::Truncated(what),
            ReadError::Malformed(what) => MetricsCodecError::Malformed(what),
        }
    }
}

const KIND_COUNTER: u8 = 0;
const KIND_GAUGE: u8 = 1;
const KIND_HISTOGRAM: u8 = 2;

/// Serializes a snapshot into one sealed `TADM` envelope.
pub fn snapshot_to_bytes(snapshot: &MetricsSnapshot) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(snapshot.entries.len() as u32);
    for entry in &snapshot.entries {
        buf.put_u16_le(entry.name.len() as u16);
        buf.put_slice(entry.name.as_bytes());
        match &entry.value {
            MetricValue::Counter(v) => {
                buf.put_u8(KIND_COUNTER);
                buf.put_u64_le(*v);
            }
            MetricValue::Gauge(v) => {
                buf.put_u8(KIND_GAUGE);
                // Two's-complement through u64: the vendored `bytes`
                // exposes unsigned putters only.
                buf.put_u64_le(*v as u64);
            }
            MetricValue::Histogram(h) => {
                buf.put_u8(KIND_HISTOGRAM);
                buf.put_u64_le(h.sum);
                buf.put_u64_le(h.min);
                buf.put_u64_le(h.max);
                let nonzero: u32 = h.counts.iter().filter(|&&c| c != 0).count() as u32;
                buf.put_u32_le(nonzero);
                for (i, &c) in h.counts.iter().enumerate() {
                    if c != 0 {
                        buf.put_u16_le(i as u16);
                        buf.put_u64_le(c);
                    }
                }
            }
        }
    }
    seal_envelope(METRICS_MAGIC, METRICS_VERSION, buf.freeze())
}

/// Decodes a sealed `TADM` envelope back into a snapshot.
///
/// # Errors
/// Any envelope failure, truncation, non-UTF-8 name, out-of-order entry
/// or bucket, zero sparse count, or out-of-range bucket index is reported
/// as a typed [`MetricsCodecError`].
pub fn snapshot_from_bytes(bytes: Bytes) -> Result<MetricsSnapshot, MetricsCodecError> {
    let payload = envelope_payload(METRICS_MAGIC, METRICS_VERSION, &bytes)?;
    let mut r = Reader::new(payload);
    let mut last_key: Option<(String, u8)> = None;
    // Smallest entry: empty name, kind tag, counter value.
    let entries = r.seq(2 + 1 + 8, "entries", |r, _| {
        let name_len = r.u16("name length")? as usize;
        let name = String::from_utf8(r.bytes(name_len, "name bytes")?.to_vec())
            .map_err(|_| MetricsCodecError::Malformed("metric name is not UTF-8"))?;
        let kind = r.u8("kind tag")?;
        let value = match kind {
            KIND_COUNTER => MetricValue::Counter(r.u64("counter value")?),
            KIND_GAUGE => MetricValue::Gauge(r.u64("gauge value")? as i64),
            KIND_HISTOGRAM => MetricValue::Histogram(read_histogram(r)?),
            _ => return Err(MetricsCodecError::Malformed("unknown metric kind")),
        };
        let key = (name.clone(), kind);
        if last_key.as_ref().is_some_and(|last| *last >= key) {
            return Err(MetricsCodecError::Malformed("entries out of (name, kind) order"));
        }
        last_key = Some(key);
        Ok(MetricEntry { name, value })
    })?;
    r.finish()?;
    Ok(MetricsSnapshot { entries })
}

fn read_histogram(r: &mut Reader) -> Result<HistogramSnapshot, MetricsCodecError> {
    let sum = r.u64("histogram header")?;
    let min = r.u64("histogram header")?;
    let max = r.u64("histogram header")?;
    let mut counts = vec![0u64; BUCKETS];
    let mut count = 0u64;
    let mut last_idx: Option<usize> = None;
    for _ in 0..r.count(2 + 8, "sparse buckets")? {
        let idx = r.u16("sparse bucket")? as usize;
        let c = r.u64("sparse bucket")?;
        if idx >= BUCKETS {
            return Err(MetricsCodecError::Malformed("bucket index out of range"));
        }
        if last_idx.is_some_and(|last| idx <= last) {
            return Err(MetricsCodecError::Malformed("bucket indices out of order"));
        }
        if c == 0 {
            return Err(MetricsCodecError::Malformed("zero count in sparse bucket"));
        }
        last_idx = Some(idx);
        counts[idx] = c;
        count = count.wrapping_add(c);
    }
    if count == 0 && (min != u64::MAX || max != 0 || sum != 0) {
        return Err(MetricsCodecError::Malformed("non-canonical empty histogram"));
    }
    Ok(HistogramSnapshot { counts, count, sum, min, max })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = Registry::new();
        reg.counter("net.backpressure_replies").add(7);
        reg.gauge("serve.queue_depth").add(-3);
        let h = reg.histogram("serve.score_latency_ns");
        h.record(1);
        h.record_n(1_000, 40);
        h.record(123_456_789);
        reg.histogram("router.forward_ns"); // empty histogram travels too
        reg.snapshot()
    }

    #[test]
    fn roundtrip_is_identity_and_canonical() {
        let snap = sample_snapshot();
        let bytes = snapshot_to_bytes(&snap);
        let back = snapshot_from_bytes(bytes.clone()).expect("valid blob decodes");
        assert_eq!(back, snap);
        // Canonical: re-encoding the decode reproduces the bytes.
        assert_eq!(snapshot_to_bytes(&back), bytes);
        // Empty snapshot is valid too.
        let empty = MetricsSnapshot::default();
        assert_eq!(snapshot_from_bytes(snapshot_to_bytes(&empty)).unwrap(), empty);
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = snapshot_to_bytes(&sample_snapshot()).to_vec();
        for cut in 0..bytes.len() {
            assert!(
                snapshot_from_bytes(Bytes::from(bytes[..cut].to_vec())).is_err(),
                "cut={cut} decoded"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_or_reencodes_differently() {
        // A flipped bit either fails the decode outright (checksum catches
        // almost everything) or — never — silently yields the original.
        let original = sample_snapshot();
        let bytes = snapshot_to_bytes(&original).to_vec();
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x10;
            if let Ok(decoded) = snapshot_from_bytes(Bytes::from(corrupt)) {
                assert_ne!(decoded, original, "flip at byte {byte} went unnoticed");
            }
        }
    }

    #[test]
    fn non_canonical_payloads_are_rejected() {
        // Hand-build a payload with out-of-order entries.
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        for name in ["b", "a"] {
            buf.put_u16_le(1);
            buf.put_slice(name.as_bytes());
            buf.put_u8(KIND_COUNTER);
            buf.put_u64_le(1);
        }
        let sealed = seal_envelope(METRICS_MAGIC, METRICS_VERSION, buf.freeze());
        assert_eq!(
            snapshot_from_bytes(sealed),
            Err(MetricsCodecError::Malformed("entries out of (name, kind) order"))
        );
        // And one with an out-of-range bucket.
        let mut buf = BytesMut::new();
        buf.put_u32_le(1);
        buf.put_u16_le(1);
        buf.put_slice(b"h");
        buf.put_u8(KIND_HISTOGRAM);
        buf.put_u64_le(5); // sum
        buf.put_u64_le(5); // min
        buf.put_u64_le(5); // max
        buf.put_u32_le(1);
        buf.put_u16_le(BUCKETS as u16); // first invalid index
        buf.put_u64_le(1);
        let sealed = seal_envelope(METRICS_MAGIC, METRICS_VERSION, buf.freeze());
        assert_eq!(
            snapshot_from_bytes(sealed),
            Err(MetricsCodecError::Malformed("bucket index out of range"))
        );
    }
}
