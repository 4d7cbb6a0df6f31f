//! Versioned binary snapshots for kill-and-resume.
//!
//! A [`Snapshot`] captures everything the round loop needs to continue a
//! run as if it had never stopped: the run seed (all RNG streams are
//! derived, so no generator state needs saving), a hash of the config (to
//! refuse resuming under different hyper-parameters), the index of the
//! next round to execute, the global model parameters, and any per-client
//! personalization state.
//!
//! ## Wire format (version 1, all integers little-endian)
//!
//! ```text
//! magic      8  b"CPOISNAP"
//! version    1  0x01
//! run_seed   8  u64
//! cfg_hash   8  u64
//! round      4  u32       (next round to execute)
//! global     4+4n         u32 count, then n f32 params
//! clients    4            u32 count, then per client:
//!   tag      1            0 = no state, 1 = state follows
//!   state    4+4m         (tag 1 only) u32 count, then m f32 params
//! checksum   8  u64       FNV-1a over every preceding byte
//! ```
//!
//! Decoding is defensive: bad magic, unknown version, truncation, a length
//! prefix pointing past the end, trailing garbage, and checksum mismatch
//! all return [`CheckpointError`] — never a panic.

use crate::digest::fnv1a;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"CPOISNAP";
/// Current snapshot wire-format version.
pub const FORMAT_VERSION: u8 = 1;

/// Hashes a config's `Debug` representation. `Debug` output for the plain
/// structs used as configs is deterministic, so equal configs hash equal
/// and any field change shows up as a mismatch.
pub fn config_hash(debug_repr: &str) -> u64 {
    fnv1a(debug_repr.as_bytes())
}

/// Complete resumable state of a run between rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The run seed all RNG streams derive from.
    pub run_seed: u64,
    /// Hash of the run config (see [`config_hash`]).
    pub config_hash: u64,
    /// Index of the next round to execute (rounds `0..round` are done).
    pub round: u32,
    /// Global model parameters.
    pub global: Vec<f32>,
    /// Per-client personalization state (`None` for untouched clients).
    pub client_states: Vec<Option<Vec<f32>>>,
}

/// Why a snapshot failed to load or store.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The version byte is newer than this build understands.
    UnsupportedVersion(u8),
    /// The file ended before the encoded structure did.
    Truncated,
    /// Structurally invalid content (bad length prefix, trailing bytes,
    /// checksum mismatch).
    Corrupt(String),
    /// The snapshot was taken under a different config.
    ConfigMismatch {
        /// Hash the caller expected.
        expected: u64,
        /// Hash stored in the snapshot.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            Self::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (max {FORMAT_VERSION})")
            }
            Self::Truncated => write!(f, "checkpoint file is truncated"),
            Self::Corrupt(why) => write!(f, "checkpoint file is corrupt: {why}"),
            Self::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint config hash {found:#018x} does not match current config {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Bounded little-endian reader over the snapshot payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CheckpointError::Truncated)?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32_vec(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let n = self.u32()? as usize;
        // Reject length prefixes that point past the file before
        // allocating n elements.
        let bytes = self.take(n.checked_mul(4).ok_or(CheckpointError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

impl Snapshot {
    /// Serializes to the version-1 wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 4 * self.global.len());
        out.extend_from_slice(MAGIC);
        out.push(FORMAT_VERSION);
        out.extend_from_slice(&self.run_seed.to_le_bytes());
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        push_f32_vec(&mut out, &self.global);
        out.extend_from_slice(&(self.client_states.len() as u32).to_le_bytes());
        for state in &self.client_states {
            match state {
                None => out.push(0),
                Some(params) => {
                    out.push(1);
                    push_f32_vec(&mut out, params);
                }
            }
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses the wire format, validating structure and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < MAGIC.len() {
            return Err(CheckpointError::Truncated);
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < MAGIC.len() + 1 + 8 {
            return Err(CheckpointError::Truncated);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        let computed = fnv1a(payload);
        if stored != computed {
            return Err(CheckpointError::Corrupt(format!(
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            )));
        }

        let mut r = Reader {
            buf: payload,
            pos: MAGIC.len(),
        };
        let version = r.u8()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let run_seed = r.u64()?;
        let config_hash = r.u64()?;
        let round = r.u32()?;
        let global = r.f32_vec()?;
        let num_clients = r.u32()? as usize;
        let mut client_states = Vec::with_capacity(num_clients.min(1 << 20));
        for _ in 0..num_clients {
            match r.u8()? {
                0 => client_states.push(None),
                1 => client_states.push(Some(r.f32_vec()?)),
                tag => {
                    return Err(CheckpointError::Corrupt(format!(
                        "invalid client-state tag {tag}"
                    )))
                }
            }
        }
        if r.pos != payload.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after snapshot",
                payload.len() - r.pos
            )));
        }
        Ok(Self {
            run_seed,
            config_hash,
            round,
            global,
            client_states,
        })
    }

    /// Writes the snapshot atomically: encode to a `.ckpt.tmp` sibling,
    /// fsync it, rename over the final name, then fsync the directory so
    /// the rename itself survives a crash. An interrupted save can only
    /// leave a stray temp file behind — which the `round-NNNNNN.ckpt`
    /// naming filters ignore — never a torn checkpoint under the real
    /// name.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(parent) = parent {
            fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(parent) = parent {
            // Persist the rename's directory entry. Opening a directory
            // read-only works on the unix targets we run on; elsewhere the
            // data fsync above is the best available guarantee.
            if let Ok(d) = fs::File::open(parent) {
                d.sync_all()?;
            }
        }
        Ok(())
    }

    /// Loads and validates a snapshot from disk.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::decode(&fs::read(path)?)
    }

    /// Checks this snapshot was taken under the given config hash.
    pub fn require_config(&self, expected: u64) -> Result<(), CheckpointError> {
        if self.config_hash == expected {
            Ok(())
        } else {
            Err(CheckpointError::ConfigMismatch {
                expected,
                found: self.config_hash,
            })
        }
    }
}

fn push_f32_vec(out: &mut Vec<u8>, values: &[f32]) {
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Conventional checkpoint file name for a round.
pub fn checkpoint_path(dir: &Path, round: u32) -> PathBuf {
    dir.join(format!("round-{round:06}.ckpt"))
}

/// Lists every checkpoint in `dir` as `(round, path)`, ascending by round.
///
/// Only files matching the `round-NNNNNN.ckpt` naming convention are
/// considered — in particular, stray `.ckpt.tmp` files from an interrupted
/// atomic save are ignored. An unreadable directory yields an empty list.
pub fn checkpoints_by_round(dir: &Path) -> Vec<(u32, PathBuf)> {
    let mut found: Vec<(u32, PathBuf)> = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return found,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        let round = match name
            .strip_prefix("round-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .and_then(|digits| digits.parse::<u32>().ok())
        {
            Some(r) => r,
            None => continue,
        };
        found.push((round, path));
    }
    found.sort_by_key(|(round, _)| *round);
    found
}

/// Finds the checkpoint for the highest round in `dir`, if any.
pub fn latest_checkpoint(dir: &Path) -> Option<PathBuf> {
    checkpoints_by_round(dir).pop().map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            run_seed: 0xDEAD_BEEF_1234_5678,
            config_hash: config_hash("FlConfig { rounds: 20 }"),
            round: 7,
            global: vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE],
            client_states: vec![None, Some(vec![0.25, -0.75]), None],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn bad_magic_is_an_error() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn unknown_version_is_an_error() {
        let mut bytes = sample().encode();
        bytes[8] = 99;
        // Fix the checksum so the version check is what fires.
        let n = bytes.len();
        let sum = fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_at_every_length_errors_not_panics() {
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..n]).is_err(),
                "decode of {n}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x10;
            assert!(
                Snapshot::decode(&corrupted).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn config_mismatch_is_reported() {
        let snap = sample();
        assert!(snap.require_config(snap.config_hash).is_ok());
        assert!(matches!(
            snap.require_config(snap.config_hash ^ 1),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn save_load_and_latest() {
        let dir = std::env::temp_dir().join(format!("collapois-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut snap = sample();
        for round in [3u32, 10, 5] {
            snap.round = round;
            snap.save(&checkpoint_path(&dir, round)).unwrap();
        }
        let latest = latest_checkpoint(&dir).unwrap();
        assert!(latest.ends_with("round-000010.ckpt"));
        let loaded = Snapshot::load(&latest).unwrap();
        assert_eq!(loaded.round, 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_on_missing_dir_is_none() {
        assert!(latest_checkpoint(Path::new("/nonexistent/collapois")).is_none());
        assert!(checkpoints_by_round(Path::new("/nonexistent/collapois")).is_empty());
    }

    #[test]
    fn listing_is_round_ordered_and_ignores_stray_temp_files() {
        let dir = std::env::temp_dir().join(format!("collapois-ckpt-list-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut snap = sample();
        for round in [8u32, 2, 4] {
            snap.round = round;
            snap.save(&checkpoint_path(&dir, round)).unwrap();
        }
        // A leftover temp file from a crashed atomic save, plus unrelated
        // noise, must both be invisible to the listing.
        fs::write(dir.join("round-000009.ckpt.tmp"), b"torn write").unwrap();
        fs::write(dir.join("notes.txt"), b"not a checkpoint").unwrap();
        let listed = checkpoints_by_round(&dir);
        let rounds: Vec<u32> = listed.iter().map(|(r, _)| *r).collect();
        assert_eq!(rounds, vec![2, 4, 8]);
        assert!(latest_checkpoint(&dir)
            .unwrap()
            .ends_with("round-000008.ckpt"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
