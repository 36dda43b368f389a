//! Checkpoint file format and serialization primitives.
//!
//! The shard engine quiesces every region at a committed horizon on each
//! epoch barrier; that barrier is a globally consistent cut, and this module
//! defines how the engine persists it. A checkpoint file is:
//!
//! ```text
//! magic      8 bytes  b"WMNCKPT1"
//! version    u32 LE   bumped on any layout change
//! scenario   u64 LE   fingerprint of the scenario that produced the file
//! epoch      u64 LE   barrier index the cut was taken at
//! committed  u64 LE   global minimum pending-event time at the cut, ns
//! regions    u32 LE   number of per-region blocks in the payload
//! events     u64 LE   events processed so far (for `wmn-trace ckpt`)
//! payload    len-prefixed opaque bytes (engine + world state)
//! checksum   u64 LE   FNV-1a over everything above
//! ```
//!
//! All integers are little-endian. Floats are stored as raw IEEE-754 bits —
//! never decimal round-tripped — so restored state is bit-identical.
//! Corrupt, truncated, or version-mismatched files are refused with a
//! structured [`CheckpointError`]; nothing in this module panics on bad
//! input.

use std::fmt;
use std::path::Path;

/// On-disk magic for checkpoint files.
pub const MAGIC: [u8; 8] = *b"WMNCKPT1";
/// Current checkpoint layout version.
pub const VERSION: u32 = 2;
/// Conventional file extension for checkpoint files.
pub const EXTENSION: &str = "wmnckpt";

/// Why a checkpoint could not be read or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem-level failure (open, read, write, rename).
    Io(String),
    /// The bytes are not a well-formed checkpoint (bad magic, truncation,
    /// checksum mismatch, or an inconsistent payload).
    Corrupt(String),
    /// The file was written by a different layout version.
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The file belongs to a different scenario (seed/topology/config).
    ScenarioMismatch {
        /// Fingerprint found in the file header.
        found: u64,
        /// Fingerprint of the scenario being resumed.
        expected: u64,
    },
    /// No checkpoint exists at the requested location.
    NotFound(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version mismatch: file is v{found}, this build reads v{expected}"
            ),
            CheckpointError::ScenarioMismatch { found, expected } => write!(
                f,
                "checkpoint scenario mismatch: file fingerprint {found:#018x}, \
                 run fingerprint {expected:#018x}"
            ),
            CheckpointError::NotFound(msg) => write!(f, "checkpoint not found: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit hash — the integrity checksum and scenario-fingerprint
/// primitive (dependency-free, stable across platforms).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Growable little-endian byte sink for checkpoint payloads.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as raw IEEE-754 bits.
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append raw bytes with a `u64` length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer and return the accumulated bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over checkpoint payload bytes.
/// Every method returns [`CheckpointError::Corrupt`] on truncation instead
/// of panicking.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CheckpointError::Corrupt("length overflow in payload".to_string()))?;
        if end > self.buf.len() {
            return Err(CheckpointError::Corrupt(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` stored as raw IEEE-754 bits.
    pub fn f64_bits(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u64`-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.u64()?;
        if n > self.buf.len() as u64 {
            return Err(CheckpointError::Corrupt(format!(
                "declared slice length {n} exceeds payload size {}",
                self.buf.len()
            )));
        }
        self.take(n as usize)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless every byte has been consumed (catches layout drift).
    pub fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.remaining() != 0 {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Header fields of a checkpoint file, as reported by [`open`]/[`inspect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Layout version the file was written with.
    pub version: u32,
    /// Scenario fingerprint the file belongs to.
    pub scenario: u64,
    /// Epoch-barrier index of the cut.
    pub epoch: u64,
    /// Global minimum pending-event time at the cut, nanoseconds.
    pub committed_ns: u64,
    /// Number of per-region blocks in the payload.
    pub regions: u32,
    /// Events processed up to the cut.
    pub events: u64,
    /// Payload size in bytes.
    pub payload_len: u64,
}

/// Assemble a complete checkpoint file image: header, payload, checksum.
pub fn seal(
    scenario: u64,
    epoch: u64,
    committed_ns: u64,
    regions: u32,
    events: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 48 + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&scenario.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&committed_ns.to_le_bytes());
    out.extend_from_slice(&regions.to_le_bytes());
    out.extend_from_slice(&events.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validate a checkpoint image and return its header plus the payload slice.
///
/// Checks, in order: magic, version, checksum, declared payload length.
/// Scenario matching is the caller's concern (it needs the expected
/// fingerprint); [`CheckpointMeta::scenario`] carries the stored value.
pub fn open(bytes: &[u8]) -> Result<(CheckpointMeta, &[u8]), CheckpointError> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err(CheckpointError::Corrupt(format!(
            "file too short ({} bytes) to hold a header",
            bytes.len()
        )));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::Corrupt(
            "bad magic: not a checkpoint file".to_string(),
        ));
    }
    let mut r = ByteReader::new(&bytes[MAGIC.len()..]);
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            expected: VERSION,
        });
    }
    if bytes.len() < 8 {
        return Err(CheckpointError::Corrupt("missing checksum".to_string()));
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = {
        let tail = &bytes[bytes.len() - 8..];
        u64::from_le_bytes([
            tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
        ])
    };
    let computed = fnv1a(body);
    if stored != computed {
        return Err(CheckpointError::Corrupt(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let scenario = r.u64()?;
    let epoch = r.u64()?;
    let committed_ns = r.u64()?;
    let regions = r.u32()?;
    let events = r.u64()?;
    let payload_len = r.u64()?;
    let header_len = MAGIC.len() + 4 + 8 + 8 + 8 + 4 + 8 + 8;
    let expected_total = header_len as u64 + payload_len + 8;
    if bytes.len() as u64 != expected_total {
        return Err(CheckpointError::Corrupt(format!(
            "size mismatch: header declares {expected_total} bytes, file has {}",
            bytes.len()
        )));
    }
    let meta = CheckpointMeta {
        version,
        scenario,
        epoch,
        committed_ns,
        regions,
        events,
        payload_len,
    };
    Ok((meta, &bytes[header_len..header_len + payload_len as usize]))
}

/// Validate a checkpoint image and return only its header.
pub fn inspect(bytes: &[u8]) -> Result<CheckpointMeta, CheckpointError> {
    open(bytes).map(|(meta, _)| meta)
}

/// Read a checkpoint file into memory, mapping missing files to
/// [`CheckpointError::NotFound`].
pub fn read_file(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    std::fs::read(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckpointError::NotFound(path.display().to_string())
        } else {
            CheckpointError::Io(format!("{}: {e}", path.display()))
        }
    })
}

/// Write `bytes` to `path` atomically: write a sibling temp file, rename
/// over the target. Against *process* death — worker panic, OOM kill,
/// `kill -9`, Ctrl-C, the checkpoint threat model — a crash mid-write
/// leaves either the old file or no file, never a torn one, because the
/// page cache outlives the process. There is deliberately no fsync: it
/// costs ~1 ms per checkpoint on a real filesystem (blowing the ≤5%
/// overhead budget at the default cadence) and only buys protection
/// against kernel crash / power loss — where a torn file is still *detected*
/// (checksum) and refused with a structured error rather than silently
/// resumed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
    }
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(bytes).map_err(io)?;
    }
    std::fs::rename(&tmp, path).map_err(io)
}

/// List `.wmnckpt` files under `dir`, sorted by epoch ascending (epoch read
/// from the filename `ckpt_epoch_<N>.wmnckpt`; files that do not match the
/// pattern sort last, by name). Returns `(epoch, path)` pairs.
pub fn list_dir(dir: &Path) -> Result<Vec<(Option<u64>, std::path::PathBuf)>, CheckpointError> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", dir.display())))?;
    let mut out: Vec<(Option<u64>, std::path::PathBuf)> = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| CheckpointError::Io(format!("{}: {e}", dir.display())))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some(EXTENSION) {
            continue;
        }
        let epoch = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.strip_prefix("ckpt_epoch_"))
            .and_then(|s| s.parse::<u64>().ok());
        out.push((epoch, path));
    }
    out.sort_by(|a, b| match (a.0, b.0) {
        (Some(x), Some(y)) => x.cmp(&y).then_with(|| a.1.cmp(&b.1)),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.1.cmp(&b.1),
    });
    Ok(out)
}

/// Conventional filename for the checkpoint taken at `epoch`.
pub fn file_name(epoch: u64) -> String {
    format!("ckpt_epoch_{epoch}.{EXTENSION}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64_bits(-0.000_123_456_789);
        w.bytes(b"hello");
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(
            r.f64_bits().unwrap().to_bits(),
            (-0.000_123_456_789f64).to_bits()
        );
        assert_eq!(r.bytes().unwrap(), b"hello");
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_truncation_is_structured_error() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(CheckpointError::Corrupt(_))));
        // A huge declared slice length must not be trusted.
        let mut w = ByteWriter::new();
        w.u64(u64::MAX);
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.bytes(), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn seal_open_round_trip() {
        let payload = b"region state bytes".to_vec();
        let img = seal(0xABCD, 12, 3_000_000_000, 4, 987_654, &payload);
        let (meta, body) = open(&img).expect("open");
        assert_eq!(meta.version, VERSION);
        assert_eq!(meta.scenario, 0xABCD);
        assert_eq!(meta.epoch, 12);
        assert_eq!(meta.committed_ns, 3_000_000_000);
        assert_eq!(meta.regions, 4);
        assert_eq!(meta.events, 987_654);
        assert_eq!(body, payload.as_slice());
        assert_eq!(inspect(&img).unwrap(), meta);
    }

    #[test]
    fn open_rejects_bad_magic_and_truncation() {
        assert!(matches!(open(b"short"), Err(CheckpointError::Corrupt(_))));
        let mut img = seal(1, 1, 1, 1, 1, b"x");
        img[0] ^= 0xFF;
        assert!(matches!(open(&img), Err(CheckpointError::Corrupt(_))));
        let img = seal(1, 1, 1, 1, 1, b"payload");
        let truncated = &img[..img.len() - 3];
        assert!(matches!(open(truncated), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn open_rejects_flipped_bit_anywhere() {
        let img = seal(7, 3, 999, 2, 42, b"some payload to protect");
        for i in 12..img.len() {
            let mut bad = img.clone();
            bad[i] ^= 0x01;
            assert!(open(&bad).is_err(), "bit flip at byte {i} went undetected");
        }
    }

    #[test]
    fn open_rejects_version_mismatch() {
        // Version 1 carried a second queue counter per region.
        for found in [1u32, 99] {
            let mut img = seal(1, 1, 1, 1, 1, b"x");
            // Patch version field (bytes 8..12) and re-seal the checksum.
            img[8..12].copy_from_slice(&found.to_le_bytes());
            let body_len = img.len() - 8;
            let sum = fnv1a(&img[..body_len]);
            img[body_len..].copy_from_slice(&sum.to_le_bytes());
            let expected = 2;
            assert_eq!(
                open(&img).err(),
                Some(CheckpointError::VersionMismatch { found, expected })
            );
        }
    }

    #[test]
    fn write_atomic_then_read_file() {
        let dir = std::env::temp_dir().join("wmn_ckpt_atomic_test");
        let path = dir.join(file_name(5));
        let img = seal(11, 5, 123, 1, 9, b"abc");
        write_atomic(&path, &img).expect("write");
        assert!(!path.with_extension("tmp").exists());
        let back = read_file(&path).expect("read");
        assert_eq!(back, img);
        let missing = dir.join("nope.wmnckpt");
        assert!(matches!(
            read_file(&missing),
            Err(CheckpointError::NotFound(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_dir_sorts_by_epoch() {
        let dir = std::env::temp_dir().join("wmn_ckpt_list_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for epoch in [10u64, 2, 7] {
            let img = seal(1, epoch, epoch * 100, 1, 0, b"");
            write_atomic(&dir.join(file_name(epoch)), &img).unwrap();
        }
        std::fs::write(dir.join("stray.txt"), b"ignored").unwrap();
        let listed = list_dir(&dir).expect("list");
        let epochs: Vec<Option<u64>> = listed.iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![Some(2), Some(7), Some(10)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
