//! Model persistence: train once, serve clustering requests forever —
//! and survive dying in the middle of the training investment.
//!
//! This is the only module that knows the on-disk format, and a file
//! holds only what its reader uses. Every file carries configuration,
//! grid, vocabulary and parameter values — never gradients. A plain save
//! ([`E2dtc::save`]) is what serving reads: the encoder half (token table
//! and encoder GRU) and the centroids, with `weights`, `opt` and
//! `training` written as `null`. A training checkpoint
//! ([`E2dtc::save_checkpoint`]) adds what [`E2dtc::resume`] needs: the
//! decoder half and projection, the Eq. 8 weight table, the Adam moments
//! and the [`TrainingState`] cursor. [`FrozenEncoder::from_checkpoint`]
//! serves either kind of file.
//!
//! ## Checkpoint format v5 (DESIGN.md §10)
//!
//! ```text
//! E2DTC-CKPT v5 fnv1a64=<16 hex digits> len=<payload bytes>\n
//! { ...SavedModel JSON... }
//! ```
//!
//! The header's FNV-1a 64 checksum and payload length catch torn writes
//! and bit rot before JSON parsing runs. Writes are atomic: payload to a
//! `.tmp` sibling, `fsync`, then `rename` over the final path.
//!
//! One rule reads every file: the store holds the encoder half, then the
//! decoder half and projection if the file has them, then the centroids.
//! v4 files follow it too (a v4 plain save kept the decoder half, which
//! serving skips), so they load with no version branch; v3 and older, or
//! a file without the header, is a typed error. Before anything is built,
//! loading checks the tensor count against `config.layers`, each
//! tensor's value count against its shape, each tensor's name and shape
//! against the ones the saved configuration implies
//! (`seq2seq::param_shapes`, pinned by a unit test to what
//! [`crate::seq2seq::Seq2Seq::new`] registers), and the finiteness of
//! every weight. A load therefore allocates only what the file holds.

use crate::config::E2dtcConfig;
use crate::encoder::FrozenEncoder;
use crate::model::{E2dtc, TrainingState};
use crate::seq2seq::{param_shapes, Encoder, Seq2Seq};
use crate::spatial_loss::WeightTable;
use crate::trainer::rng_state_from;
use crate::vocab::Vocab;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use traj_data::Grid;
use traj_nn::optim::Adam;
use traj_nn::{ParamStore, Tensor};

/// Magic prefix of every checkpoint file.
const MAGIC: &str = "E2DTC-CKPT";

/// Everything that can go wrong saving or loading a model/checkpoint.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The JSON payload does not parse or does not match the schema.
    Json(String),
    /// The `E2DTC-CKPT` header line is missing or malformed, or lies
    /// about the payload length (e.g. a truncated file).
    BadHeader(String),
    /// The payload does not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload actually on disk.
        actual: u64,
    },
    /// The file's format version is not one this build reads (v4 or v5).
    UnsupportedVersion(u32),
    /// The saved parameter count does not match the architecture the
    /// saved configuration describes.
    ParamCountMismatch {
        /// Parameters in the file.
        saved: usize,
        /// Parameters the architecture registers.
        expected: usize,
    },
    /// A saved tensor's registration name or shape disagrees with the
    /// architecture.
    ShapeMismatch {
        /// Parameter registration name.
        name: String,
        /// `(rows, cols)` in the file.
        saved: (usize, usize),
        /// `(rows, cols)` the architecture expects.
        expected: (usize, usize),
    },
    /// A saved parameter holds NaN or infinity.
    NonFiniteParam(String),
    /// The checkpoint's serialized RNG state has the wrong word count.
    BadRngState(usize),
    /// [`E2dtc::resume`] needs the decoder half, weight table, optimizer
    /// state and training cursor, but the file is a plain model save.
    NotATrainingCheckpoint,
    /// A checkpoint directory holds no usable checkpoint.
    NoCheckpointFound(PathBuf),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Json(e) => write!(f, "malformed checkpoint JSON: {e}"),
            PersistError::BadHeader(e) => write!(f, "bad checkpoint header: {e}"),
            PersistError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:016x}, \
                 payload hashes to {actual:016x} (file is corrupt or torn)"
            ),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            PersistError::ParamCountMismatch { saved, expected } => write!(
                f,
                "saved parameter count {saved} does not match architecture ({expected})"
            ),
            PersistError::ShapeMismatch { name, saved, expected } => write!(
                f,
                "parameter `{name}` has shape {}x{}, architecture expects {}x{}",
                saved.0, saved.1, expected.0, expected.1
            ),
            PersistError::NonFiniteParam(name) => {
                write!(f, "parameter `{name}` holds NaN/Inf values")
            }
            PersistError::BadRngState(n) => {
                write!(f, "serialized RNG state has {n} words (expected 4)")
            }
            PersistError::NotATrainingCheckpoint => {
                write!(f, "file carries no training state (plain model save?); \
                       serve it with FrozenEncoder::from_checkpoint or `e2dtc embed`")
            }
            PersistError::NoCheckpointFound(dir) => {
                write!(f, "no usable checkpoint found in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// On-disk representation of a trained model / training checkpoint.
#[derive(Serialize, Deserialize)]
struct SavedModel {
    /// Mirrors the header's version; loading requires the two to agree.
    format_version: u32,
    config: E2dtcConfig,
    grid: Grid,
    vocab: Vocab,
    /// The Eq. 8 weight table; `None` for plain model saves.
    weights: Option<WeightTable>,
    store: SavedParams,
    /// Whether the store's final parameter is the centroid matrix.
    has_centroids: bool,
    /// Adam moments; `None` for plain model saves.
    opt: Option<Adam>,
    /// Mid-training cursor; `None` for plain model saves.
    training: Option<TrainingState>,
}

/// Parameter values and registration names, in registration order: the
/// encoder half, the decoder half and projection (training checkpoints
/// only), then the centroids.
#[derive(Serialize, Deserialize)]
struct SavedParams {
    params: Vec<Tensor>,
    names: Vec<String>,
}

/// Version 5 keeps only the encoder half and centroids in plain saves.
/// Version 4, which dropped gradient buffers from every file and
/// optimizer state from plain saves, is the oldest version still read.
const FORMAT_VERSION: u32 = 5;

/// FNV-1a 64-bit hash — tiny, dependency-free, and plenty to catch torn
/// writes and bit rot (this is integrity checking, not cryptography).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// File name of the periodic checkpoint written after `epochs_done`
/// completed epochs (zero-padded so lexicographic order = epoch order).
pub fn checkpoint_file_name(epochs_done: usize) -> String {
    format!("ckpt-{epochs_done:06}.json")
}

/// All periodic checkpoints in `dir`, sorted oldest → newest.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if name.starts_with("ckpt-") && name.ends_with(".json") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Deletes the oldest periodic checkpoints in `dir`, keeping the newest
/// `keep` (`0` keeps everything).
pub fn rotate_checkpoints(dir: &Path, keep: usize) -> io::Result<()> {
    if keep == 0 {
        return Ok(());
    }
    let files = list_checkpoints(dir)?;
    for stale in files.iter().rev().skip(keep) {
        std::fs::remove_file(stale)?;
    }
    Ok(())
}

/// Serializes to the on-disk form: checksummed header + JSON payload.
fn encode(saved: &SavedModel) -> Result<Vec<u8>, PersistError> {
    let payload = serde_json::to_string(saved).map_err(|e| PersistError::Json(e.to_string()))?;
    let payload = payload.into_bytes();
    let mut out = format!("{MAGIC} v{FORMAT_VERSION} fnv1a64={:016x} len={}\n",
        fnv1a64(&payload),
        payload.len())
    .into_bytes();
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Validates the header + checksum of raw file bytes and returns the
/// format version and the JSON payload. A file without the [`MAGIC`]
/// header is rejected before any JSON parsing.
fn verify_and_strip_header(bytes: &[u8]) -> Result<(u32, &[u8]), PersistError> {
    if !bytes.starts_with(MAGIC.as_bytes()) {
        return Err(PersistError::BadHeader(format!("missing `{MAGIC}` header")));
    }
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| PersistError::BadHeader("missing header terminator".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| PersistError::BadHeader("header is not UTF-8".into()))?;
    let payload = &bytes[newline + 1..];

    let mut fields = header.split_whitespace();
    let _magic = fields.next();
    let version = fields
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| PersistError::BadHeader(format!("unparseable version in `{header}`")))?;
    if !(4..=FORMAT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion(version));
    }
    // Exactly the 16 lowercase digits the writer emits: a bit flip that
    // turns `a` into `A` must not leave a header that still verifies.
    let checksum = fields
        .next()
        .and_then(|v| v.strip_prefix("fnv1a64="))
        .filter(|v| v.len() == 16 && v.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| PersistError::BadHeader(format!("unparseable checksum in `{header}`")))?;
    let len = fields
        .next()
        .and_then(|v| v.strip_prefix("len="))
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| PersistError::BadHeader(format!("unparseable length in `{header}`")))?;
    if payload.len() != len {
        return Err(PersistError::BadHeader(format!(
            "payload is {} bytes, header says {len} (truncated write?)",
            payload.len()
        )));
    }
    let actual = fnv1a64(payload);
    if actual != checksum {
        return Err(PersistError::ChecksumMismatch { expected: checksum, actual });
    }
    Ok((version, payload))
}

/// Atomic durable write: full contents to a `.tmp` sibling, `fsync`, then
/// `rename` over `path`. A crash at any point leaves either the previous
/// file or the complete new one.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Best-effort directory fsync so the rename itself is durable.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fully-validated checkpoint contents, ready to assemble into either a
/// trainable [`E2dtc`] or an inference-only [`FrozenEncoder`].
struct LoadedParts {
    cfg: E2dtcConfig,
    grid: Grid,
    vocab: Vocab,
    weights: Option<WeightTable>,
    /// The encoder half's tensors, then the decoder half's and the
    /// projection's when `decoder` is set, in registration order.
    params: Vec<Tensor>,
    decoder: bool,
    centroids: Option<Tensor>,
    opt: Option<Adam>,
    training: Option<TrainingState>,
}

/// Reads, verifies, and validates a checkpoint file — the shared loading
/// path behind [`FrozenEncoder::from_checkpoint`] and [`E2dtc::resume`].
fn load_parts(path: &Path) -> Result<LoadedParts, PersistError> {
    parse_parts(&std::fs::read(path)?)
}

/// [`load_parts`] on the file's bytes.
fn parse_parts(bytes: &[u8]) -> Result<LoadedParts, PersistError> {
    let (version, payload) = verify_and_strip_header(bytes)?;
    let payload = std::str::from_utf8(payload)
        .map_err(|_| PersistError::Json("payload is not UTF-8".into()))?;
    let saved: SavedModel =
        serde_json::from_str(payload).map_err(|e| PersistError::Json(e.to_string()))?;
    // The checksum does not cover the header, so a flipped version digit
    // must disagree with the payload's copy.
    if saved.format_version != version {
        let payload = saved.format_version;
        return Err(PersistError::BadHeader(format!("header says v{version}, payload v{payload}")));
    }
    let SavedModel { config: cfg, store: SavedParams { mut params, names }, .. } = saved;

    // The tensor count is checked before `config.layers` sizes anything:
    // the encoder half, optionally the decoder half and projection, then
    // optionally the centroids.
    if cfg.layers == 0 {
        return Err(PersistError::Json("config.layers is 0".into()));
    }
    let centroids = usize::from(saved.has_centroids);
    let encoder_only = Encoder::param_count(cfg.layers).saturating_add(centroids);
    let full = Seq2Seq::param_count(cfg.layers).saturating_add(centroids);
    let decoder = match params.len() {
        n if n == encoder_only => false,
        n if n == full => true,
        n => {
            let expected = if n < full { encoder_only } else { full };
            return Err(PersistError::ParamCountMismatch { saved: n, expected });
        }
    };
    if names.len() != params.len() {
        let (names, tensors) = (names.len(), params.len());
        return Err(PersistError::Json(format!("store has {names} names for {tensors} tensors")));
    }
    if let Some((name, t)) =
        names.iter().zip(&params).find(|(_, t)| t.rows().checked_mul(t.cols()) != Some(t.len()))
    {
        return Err(PersistError::Json(format!(
            "parameter `{name}` holds {} values for shape {}x{}",
            t.len(),
            t.rows(),
            t.cols()
        )));
    }

    // Every saved name and shape must be the one the configuration
    // implies, so nothing below allocates more than the file holds.
    let mut expected =
        param_shapes(saved.vocab.size(), cfg.embed_dim, cfg.hidden_dim, cfg.layers, decoder);
    if saved.has_centroids {
        expected.push(("centroids".into(), (cfg.k_clusters, cfg.hidden_dim)));
    }
    for ((name, want), (saved_name, t)) in expected.into_iter().zip(names.iter().zip(&params)) {
        if *saved_name != name || t.shape() != want {
            return Err(PersistError::ShapeMismatch { name, saved: t.shape(), expected: want });
        }
    }
    if let Some((name, _)) = names.iter().zip(&params).find(|(_, t)| t.has_non_finite()) {
        return Err(PersistError::NonFiniteParam(name.clone()));
    }

    let centroids = if saved.has_centroids { params.pop() } else { None };
    Ok(LoadedParts {
        cfg,
        grid: saved.grid,
        vocab: saved.vocab,
        weights: saved.weights,
        params,
        decoder,
        centroids,
        opt: saved.opt,
        training: saved.training,
    })
}

/// Builds an architecture into a fresh store from the saved token table,
/// then swaps each later slot's seeded initial value for the saved
/// tensor. `build` registers the slots in file order, whose names and
/// shapes `parse_parts` checked.
fn install<T>(
    params: Vec<Tensor>,
    seed: u64,
    build: impl FnOnce(&mut ParamStore, Tensor, &mut StdRng) -> T,
) -> (ParamStore, T) {
    let mut params = params.into_iter();
    let mut store = ParamStore::new();
    let table = params.next().expect("the token table");
    let arch = build(&mut store, table, &mut StdRng::seed_from_u64(seed));
    for (id, tensor) in store.ids().skip(1).zip(params) {
        *store.get_mut(id) = tensor;
    }
    (store, arch)
}

impl FrozenEncoder {
    /// Loads an inference-only encoder from a model save or a training
    /// checkpoint (format v4 or v5). Only the encoder half and the
    /// centroids are kept: a decoder half, weight table, optimizer state
    /// or training cursor in the file is dropped, and nothing a query
    /// path needs is mutable, so the result is `Send + Sync` without
    /// further ceremony.
    pub fn from_checkpoint(path: impl AsRef<Path>) -> Result<FrozenEncoder, PersistError> {
        Ok(load_parts(path.as_ref())?.into_frozen())
    }
}

impl LoadedParts {
    fn into_frozen(mut self) -> FrozenEncoder {
        let (hidden, layers) = (self.cfg.hidden_dim, self.cfg.layers);
        self.params.truncate(Encoder::param_count(layers));
        let (store, encoder) = install(self.params, self.cfg.seed, |store, table, rng| {
            Encoder::new(store, table, hidden, layers, rng)
        });
        FrozenEncoder::from_parts(self.cfg, self.grid, self.vocab, store, encoder, self.centroids)
    }

    /// The trainable model with its cursor, for [`E2dtc::resume`].
    fn into_trainer(self) -> Result<E2dtc, PersistError> {
        let (Some(st), Some(opt), Some(weights), true) =
            (self.training, self.opt, self.weights, self.decoder)
        else {
            return Err(PersistError::NotATrainingCheckpoint);
        };
        if st.rng.len() != 4 {
            return Err(PersistError::BadRngState(st.rng.len()));
        }
        let (hidden, layers) = (self.cfg.hidden_dim, self.cfg.layers);
        let (mut store, model) = install(self.params, self.cfg.seed, |store, table, rng| {
            Seq2Seq::new(store, table, hidden, layers, rng)
        });
        let centroids = self.centroids.map(|t| store.add("centroids", t));
        Ok(E2dtc {
            rng: StdRng::restore(rng_state_from(&st.rng)),
            pending: Some(st),
            recorder: traj_obs::global(),
            cfg: self.cfg,
            grid: self.grid,
            vocab: self.vocab,
            weights,
            store,
            model,
            centroids,
            opt,
            sequences: Vec::new(),
            #[cfg(feature = "fault-injection")]
            fault: None,
        })
    }
}

impl E2dtc {
    /// Serializes the trained model for serving: the encoder half and
    /// the centroids — no decoder half, weight table, optimizer state or
    /// training cursor. Checksummed header + JSON payload, written
    /// atomically.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let saved = self.to_saved(None);
        write_atomic(path.as_ref(), &encode(&saved)?)?;
        Ok(())
    }

    /// Writes a training checkpoint: the whole model and weight table plus
    /// the Adam moments and the mid-training cursor `st`, so
    /// [`E2dtc::resume`] can continue the run. Atomic and checksummed like
    /// [`E2dtc::save`].
    pub fn save_checkpoint(
        &mut self,
        path: impl AsRef<Path>,
        st: &TrainingState,
    ) -> Result<(), PersistError> {
        let path = path.as_ref();
        let saved = self.to_saved(Some(st.clone()));
        let bytes = encode(&saved)?;

        #[cfg(feature = "fault-injection")]
        if let Some(fault) = self.fault.as_mut().and_then(crate::fault::FaultPlan::next_save_fault)
        {
            use crate::fault::SaveFault;
            return match fault {
                SaveFault::Torn(keep) => {
                    // A non-atomic writer crashed mid-flush: truncated
                    // bytes sit at the final path.
                    std::fs::write(path, &bytes[..keep.min(bytes.len())])?;
                    Ok(())
                }
                SaveFault::Kill => {
                    // The atomic protocol crashed mid-tmp-write: partial
                    // tmp file, final path untouched.
                    std::fs::write(tmp_path(path), &bytes[..bytes.len() / 2])?;
                    Err(PersistError::Io(io::Error::other(
                        "fault injection: save killed mid-write",
                    )))
                }
            };
        }

        write_atomic(path, &bytes)?;
        Ok(())
    }

    /// The on-disk form. Without a training cursor it is what serving
    /// reads: the encoder half and the centroids. With one it is the
    /// whole store, the weight table and the optimizer state.
    fn to_saved(&self, training: Option<TrainingState>) -> SavedModel {
        let full = training.is_some();
        let ids: Vec<_> = if full {
            self.store.ids().collect()
        } else {
            self.encoder_ids().chain(self.centroids).collect()
        };
        SavedModel {
            format_version: FORMAT_VERSION,
            config: self.cfg.clone(),
            grid: self.grid.clone(),
            vocab: self.vocab.clone(),
            weights: full.then(|| self.weights.clone()),
            store: SavedParams {
                params: ids.iter().map(|&id| self.store.get(id).clone()).collect(),
                names: ids.iter().map(|&id| self.store.name(id).to_string()).collect(),
            },
            has_centroids: self.centroids.is_some(),
            opt: full.then(|| self.opt.clone()),
            training,
        }
    }

    /// Resumes an interrupted training run from a checkpoint file, or
    /// from the newest *usable* checkpoint in a directory: corrupt or
    /// torn files (bad checksum, truncated payload, failed validation)
    /// are skipped with a warning and the scan falls back to the previous
    /// one.
    ///
    /// The returned model carries the training cursor; the next
    /// [`E2dtc::fit`] call continues the run and — for the same seed and
    /// data — reproduces the uninterrupted run's final assignments.
    pub fn resume(path: impl AsRef<Path>) -> Result<E2dtc, PersistError> {
        let path = path.as_ref();
        if !path.is_dir() {
            return Self::resume_file(path);
        }
        let mut candidates = list_checkpoints(path)?;
        if candidates.is_empty() {
            return Err(PersistError::NoCheckpointFound(path.to_path_buf()));
        }
        let mut last_err = None;
        while let Some(file) = candidates.pop() {
            match Self::resume_file(&file) {
                Ok(model) => return Ok(model),
                Err(e) => {
                    traj_obs::global()
                        .warn(format!("e2dtc: skipping checkpoint {}: {e}", file.display()));
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| PersistError::NoCheckpointFound(path.to_path_buf())))
    }

    fn resume_file(path: &Path) -> Result<E2dtc, PersistError> {
        load_parts(path)?.into_trainer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::E2dtcConfig;
    use crate::model::Phase;
    use crate::test_util::tiny_city;
    use rand::Rng;
    use serde::Value;

    fn trained_model() -> (E2dtc, traj_data::Dataset) {
        let dataset = tiny_city(40, 3).dataset;
        let mut model = E2dtc::new(&dataset, E2dtcConfig::tiny(3));
        let _ = model.fit(&dataset);
        (model, dataset)
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("e2dtc_persist_test").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn expect_err<T>(r: Result<T, PersistError>) -> PersistError {
        match r {
            Ok(_) => panic!("expected load/resume to fail"),
            Err(e) => e,
        }
    }

    fn cursor() -> TrainingState {
        TrainingState {
            phase: Phase::SelfTrain,
            next_epoch: 1,
            epochs_done: 4,
            history: Vec::new(),
            prev_assign: Some(vec![0, 1, 2]),
            rng: vec![1, 2, 3, 4],
        }
    }

    /// The JSON payload of a checkpoint file, as a raw value tree.
    fn payload_value(path: &Path) -> Value {
        let bytes = std::fs::read(path).expect("read");
        let (_, payload) = verify_and_strip_header(&bytes).expect("valid header");
        serde_json::parse_value_str(std::str::from_utf8(payload).expect("utf8")).expect("json")
    }

    /// `payload` under a verifying header that claims format `version`.
    fn frame(version: u32, payload: &[u8]) -> Vec<u8> {
        let hash = fnv1a64(payload);
        let header = format!("{MAGIC} v{version} fnv1a64={hash:016x} len={}\n", payload.len());
        [header.as_bytes(), payload].concat()
    }

    /// Writes `payload` under a header claiming format `version`.
    fn write_framed(path: &Path, version: u32, payload: &str) {
        std::fs::write(path, frame(version, payload.as_bytes())).expect("write");
    }

    /// Rewrites the payload of the file at `path` with `edit`, under a
    /// header claiming format `version`.
    fn edit_payload(path: &Path, version: u32, edit: impl FnOnce(&mut Vec<(String, Value)>)) {
        let Value::Object(mut fields) = payload_value(path) else { panic!("payload is an object") };
        edit(&mut fields);
        write_framed(path, version, &serde_json::to_string(&Value::Object(fields)).expect("json"));
    }

    /// Rewrites a v5 training checkpoint in the layout v4 writers
    /// produced: `format_version: 4`, the guard keys v4 configs carried,
    /// and a `v4` header. With `plain`, `opt` and `training` become
    /// `null`, as in a v4 plain save, which kept the decoder half and the
    /// weight table.
    fn rewrite_as_v4(path: &Path, plain: bool) {
        edit_payload(path, 4, |fields| {
            for (key, value) in fields.iter_mut() {
                match key.as_str() {
                    "format_version" => *value = Value::UInt(4),
                    "opt" | "training" if plain => *value = Value::Null,
                    "config" => {
                        let Value::Object(cfg) = value else { panic!("config is an object") };
                        cfg.push(("guard_patience".into(), Value::UInt(3)));
                        cfg.push(("guard_lr_backoff".into(), Value::Float(0.5)));
                    }
                    _ => {}
                }
            }
        });
    }

    /// `(names, weights)` of a saved payload.
    fn names_and_weights(v: &Value) -> (Vec<String>, &Value) {
        let names = v.get_field("store").and_then(|s| s.get_field("names")).expect("names");
        (Deserialize::from_value(names).expect("names"), v.get_field("weights").expect("weights"))
    }

    #[test]
    fn save_load_roundtrip_preserves_inference() {
        let (model, dataset) = trained_model();
        let dir = test_dir("roundtrip");
        let path = dir.join("model.json");
        model.save(&path).expect("save");

        let frozen = FrozenEncoder::from_checkpoint(&path).expect("load");
        let emb = frozen.embed_dataset(&dataset);
        assert_eq!(model.embed_dataset(&dataset), emb, "embeddings diverge after reload");
        assert_eq!(model.assign(&dataset), frozen.hard_assign(&emb));
    }

    #[test]
    fn file_has_v5_header_and_checksum() {
        let (model, _) = trained_model();
        let dir = test_dir("header");
        let path = dir.join("model.json");
        model.save(&path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("newline");
        let header = std::str::from_utf8(&bytes[..header_end]).expect("utf8");
        assert!(header.starts_with("E2DTC-CKPT v5 fnv1a64="), "header: {header}");
        assert_eq!(fnv1a64(&bytes[header_end + 1..]), {
            let hex = header.split("fnv1a64=").nth(1).unwrap().split(' ').next().unwrap();
            u64::from_str_radix(hex, 16).unwrap()
        });
    }

    #[test]
    fn plain_save_has_no_grads_or_optimizer_but_checkpoint_has_optimizer() {
        let (mut model, _) = trained_model();
        let dir = test_dir("layout");
        let plain = dir.join("model.json");
        model.save(&plain).expect("save");
        let v = payload_value(&plain);
        let store = v.get_field("store").expect("store");
        assert!(store.get_field("params").is_some());
        assert!(store.get_field("grads").is_none(), "gradients are never written");
        assert_eq!(v.get_field("opt"), Some(&Value::Null));
        assert_eq!(v.get_field("training"), Some(&Value::Null));
        // Serving reads the encoder half and the centroids, nothing else.
        let (names, weights) = names_and_weights(&v);
        assert_eq!(weights, &Value::Null);
        let serving = [
            "token.table",
            "encoder.layer0.w_x",
            "encoder.layer0.w_h",
            "encoder.layer0.b_x",
            "encoder.layer0.b_h",
            "centroids",
        ];
        assert_eq!(names, serving);

        let ckpt = dir.join(checkpoint_file_name(4));
        model.save_checkpoint(&ckpt, &cursor()).expect("save_checkpoint");
        let v = payload_value(&ckpt);
        assert!(v.get_field("store").expect("store").get_field("grads").is_none());
        assert!(matches!(v.get_field("opt"), Some(Value::Object(_))), "checkpoint keeps Adam");
        assert!(matches!(v.get_field("training"), Some(Value::Object(_))));
        let (names, weights) = names_and_weights(&v);
        assert!(matches!(weights, Value::Object(_)), "checkpoint keeps the weight table");
        let all: Vec<&str> = model.store.ids().map(|id| model.store.name(id)).collect();
        assert_eq!(names, all, "checkpoint keeps the whole store");
    }

    #[test]
    fn v4_plain_save_and_v4_checkpoint_still_load() {
        let dataset = tiny_city(40, 3).dataset;
        let dir = test_dir("v4");
        let mut cfg = E2dtcConfig::tiny(3).with_checkpointing(dir.to_string_lossy(), 1);
        cfg.checkpoint_keep_last = 0;
        cfg.delta = -1.0; // fixed epoch count, so the resumed run is comparable
        let mut model = E2dtc::new(&dataset, cfg);
        let base = model.fit(&dataset);

        // A v4 plain save held the whole store and the weight table: it
        // serves the same embeddings, and resuming from it is refused.
        let plain = dir.join("model.json");
        std::fs::copy(dir.join(checkpoint_file_name(6)), &plain).expect("copy");
        rewrite_as_v4(&plain, true);
        assert!(names_and_weights(&payload_value(&plain)).0.contains(&"proj.bias".to_string()));
        let frozen = FrozenEncoder::from_checkpoint(&plain).expect("v4 plain save loads");
        assert_eq!(frozen.embed_dataset(&dataset), model.embed_dataset(&dataset));
        assert_eq!(frozen.centroids(), model.freeze().centroids());
        assert!(matches!(
            expect_err(E2dtc::resume(&plain)),
            PersistError::NotATrainingCheckpoint
        ));

        // Training checkpoint in the v4 layout (mid-self-training):
        // resuming reproduces the uninterrupted run.
        let ckpt = dir.join(checkpoint_file_name(5));
        rewrite_as_v4(&ckpt, false);
        let mut resumed = E2dtc::resume(&ckpt).expect("v4 checkpoint resumes");
        assert_eq!(resumed.pending.as_ref().expect("cursor").phase, Phase::SelfTrain);
        let fit = resumed.fit(&dataset);
        assert_eq!(fit.assignments, base.assignments, "v4 resume diverged");
        assert_eq!(fit.embeddings, base.embeddings);
    }

    #[test]
    fn headerless_and_pre_v3_files_are_typed_errors() {
        let (model, _) = trained_model();
        let dir = test_dir("prev3");
        let path = dir.join("model.json");
        model.save(&path).expect("save");
        let payload = serde_json::to_string(&payload_value(&path)).expect("json");

        // Raw JSON, as v1/v2 wrote it: rejected before any parse.
        let headerless = dir.join("headerless.json");
        std::fs::write(&headerless, &payload).expect("write");
        match expect_err(FrozenEncoder::from_checkpoint(&headerless)) {
            PersistError::BadHeader(msg) => assert!(msg.contains("E2DTC-CKPT"), "msg: {msg}"),
            other => panic!("expected BadHeader, got {other:?}"),
        }
        for version in [2, 3, FORMAT_VERSION + 1] {
            let framed = dir.join(format!("v{version}.json"));
            write_framed(&framed, version, &payload);
            match expect_err(FrozenEncoder::from_checkpoint(&framed)) {
                PersistError::UnsupportedVersion(v) => assert_eq!(v, version),
                other => panic!("expected UnsupportedVersion({version}), got {other:?}"),
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_cursor() {
        let (mut model, _) = trained_model();
        let dir = test_dir("cursor");
        let path = dir.join(checkpoint_file_name(4));
        model.save_checkpoint(&path, &cursor()).expect("save_checkpoint");
        let resumed = E2dtc::resume(&path).expect("resume");
        let st = resumed.pending.as_ref().expect("cursor");
        assert_eq!(st.phase, Phase::SelfTrain);
        assert_eq!(st.next_epoch, 1);
        assert_eq!(st.epochs_done, 4);
        assert_eq!(st.prev_assign.as_deref(), Some(&[0usize, 1, 2][..]));
        assert_eq!(st.rng, vec![1, 2, 3, 4]);
        assert!(resumed.centroids.is_some());
    }

    #[test]
    fn resume_rejects_plain_model_save() {
        let (model, _) = trained_model();
        let dir = test_dir("notackpt");
        let path = dir.join("model.json");
        model.save(&path).expect("save");
        match expect_err(E2dtc::resume(&path)) {
            PersistError::NotATrainingCheckpoint => {}
            other => panic!("expected NotATrainingCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_truncated_payload() {
        let (mut model, _) = trained_model();
        let dir = test_dir("truncated");
        let path = dir.join(checkpoint_file_name(1));
        model.save_checkpoint(&path, &cursor()).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 200]).expect("truncate");
        match expect_err(FrozenEncoder::from_checkpoint(&path)) {
            PersistError::BadHeader(msg) => {
                assert!(msg.contains("truncated"), "msg: {msg}")
            }
            other => panic!("expected BadHeader, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_flipped_payload_byte() {
        let (mut model, _) = trained_model();
        let dir = test_dir("bitrot");
        let path = dir.join(checkpoint_file_name(1));
        model.save_checkpoint(&path, &cursor()).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("newline");
        // Flip a digit deep in the payload without changing its length.
        let target = header_end + 600;
        bytes[target] = if bytes[target] == b'1' { b'2' } else { b'1' };
        std::fs::write(&path, &bytes).expect("write");
        match expect_err(FrozenEncoder::from_checkpoint(&path)) {
            PersistError::ChecksumMismatch { .. } => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_wrong_shape_tensor() {
        let (model, _) = trained_model();
        let dir = test_dir("badshape");
        let path = dir.join("model.json");
        let mut saved = model.to_saved(None);
        saved.store.params[1] = Tensor::zeros(1, 1);
        write_atomic(&path, &encode(&saved).expect("encode")).expect("write");
        match expect_err(FrozenEncoder::from_checkpoint(&path)) {
            PersistError::ShapeMismatch { saved: got, .. } => assert_eq!(got, (1, 1)),
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_non_finite_parameter() {
        let (model, _) = trained_model();
        let dir = test_dir("nonfinite");
        let path = dir.join("model.json");
        let mut saved = model.to_saved(None);
        saved.store.params[0].set(0, 0, f32::NAN);
        write_atomic(&path, &encode(&saved).expect("encode")).expect("write");
        match expect_err(FrozenEncoder::from_checkpoint(&path)) {
            PersistError::NonFiniteParam(_) => {}
            other => panic!("expected NonFiniteParam, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_bad_rng_state() {
        let (mut model, _) = trained_model();
        let dir = test_dir("badrng");
        let path = dir.join(checkpoint_file_name(1));
        let mut st = cursor();
        st.rng = vec![1, 2]; // wrong word count
        model.save_checkpoint(&path, &st).expect("save");
        match expect_err(E2dtc::resume(&path)) {
            PersistError::BadRngState(2) => {}
            other => panic!("expected BadRngState(2), got {other:?}"),
        }
    }

    #[test]
    fn resume_directory_falls_back_past_corrupt_newest() {
        let (mut model, _) = trained_model();
        let dir = test_dir("fallback");
        model
            .save_checkpoint(dir.join(checkpoint_file_name(2)), &cursor())
            .expect("good checkpoint");
        // Newest checkpoint is torn garbage (e.g. non-atomic writer died).
        std::fs::write(dir.join(checkpoint_file_name(3)), b"E2DTC-CKPT v5 fnv1a64=dead")
            .expect("write corrupt");
        let resumed = E2dtc::resume(&dir).expect("resume must fall back");
        assert_eq!(resumed.pending.as_ref().expect("cursor").epochs_done, 4);
    }

    #[test]
    fn resume_empty_directory_is_a_typed_error() {
        let dir = test_dir("empty");
        match expect_err(E2dtc::resume(&dir)) {
            PersistError::NoCheckpointFound(_) => {}
            other => panic!("expected NoCheckpointFound, got {other:?}"),
        }
    }

    #[test]
    fn rotation_keeps_newest_n() {
        let (mut model, _) = trained_model();
        let dir = test_dir("rotation");
        for e in 1..=4 {
            model
                .save_checkpoint(dir.join(checkpoint_file_name(e)), &cursor())
                .expect("save");
        }
        rotate_checkpoints(&dir, 2).expect("rotate");
        let left: Vec<String> = list_checkpoints(&dir)
            .expect("list")
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(left, vec![checkpoint_file_name(3), checkpoint_file_name(4)]);
        // keep = 0 disables deletion.
        rotate_checkpoints(&dir, 0).expect("rotate");
        assert_eq!(list_checkpoints(&dir).expect("list").len(), 2);
    }

    #[test]
    fn loaded_model_reports_centroids() {
        let (model, _) = trained_model();
        assert!(model.centroids.is_some());
        let dir = test_dir("centroids");
        let path = dir.join("model2.json");
        model.save(&path).expect("save");
        let frozen = FrozenEncoder::from_checkpoint(&path).expect("load");
        assert!(frozen.centroids().is_some());
    }

    #[test]
    fn load_rejects_missing_file() {
        assert!(FrozenEncoder::from_checkpoint("/nonexistent/model.json").is_err());
    }

    /// A small training checkpoint, with optimizer state, cursor and
    /// centroids all present, as file bytes.
    fn small_checkpoint(dir: &Path) -> Vec<u8> {
        let dataset = tiny_city(10, 2).dataset;
        let mut cfg = E2dtcConfig::tiny(2);
        (cfg.embed_dim, cfg.hidden_dim) = (4, 4);
        let mut model = E2dtc::new(&dataset, cfg);
        model.init_centroids(&model.embed_dataset(&dataset));
        let path = dir.join(checkpoint_file_name(1));
        model.save_checkpoint(&path, &cursor()).expect("save");
        std::fs::read(&path).expect("read")
    }

    fn header_len(bytes: &[u8]) -> usize {
        bytes.iter().position(|&b| b == b'\n').expect("header line") + 1
    }

    /// What `from_checkpoint` and `resume` run on a file's bytes must
    /// return `Err` for `bytes`, and must not panic.
    fn assert_both_reject(bytes: &[u8], case: &str) {
        let outcome = std::panic::catch_unwind(|| {
            (
                parse_parts(bytes).map(LoadedParts::into_frozen).is_err(),
                parse_parts(bytes).and_then(LoadedParts::into_trainer).is_err(),
            )
        });
        match outcome {
            Ok((true, true)) => {}
            Ok((frozen, resume)) => {
                panic!("{case}: accepted (frozen rejected: {frozen}, resume rejected: {resume})")
            }
            Err(_) => panic!("{case}: the loader panicked"),
        }
    }

    #[test]
    fn truncated_flipped_and_random_bytes_are_typed_errors() {
        let dir = test_dir("hostile_bytes");
        let good = small_checkpoint(&dir);
        assert!(parse_parts(&good).map(LoadedParts::into_frozen).is_ok());
        assert!(parse_parts(&good).and_then(LoadedParts::into_trainer).is_ok());
        // The public entry points, on files.
        let path = dir.join("torn.json");
        std::fs::write(&path, &good[..good.len() / 2]).expect("write");
        assert!(FrozenEncoder::from_checkpoint(&path).is_err());
        assert!(E2dtc::resume(&path).is_err());

        for len in 0..good.len() {
            assert_both_reject(&good[..len], &format!("truncated to {len} bytes"));
        }
        // Every header bit, and payload bits spread over the whole payload
        // (each payload flip costs a checksum pass).
        let header = header_len(&good);
        let stride = (good.len() - header) / 200 + 1;
        let payload_bytes = (header..good.len()).step_by(stride).chain([good.len() - 1]);
        for pos in (0..header).chain(payload_bytes) {
            for bit in 0..8 {
                let mut flipped = good.clone();
                flipped[pos] ^= 1 << bit;
                assert_both_reject(&flipped, &format!("bit {bit} of byte {pos} flipped"));
            }
        }
        let mut rng = StdRng::seed_from_u64(11);
        for len in [0, 1, 7, 64, 4096] {
            for _ in 0..8 {
                let noise: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                assert_both_reject(&noise, &format!("{len} random bytes"));
                let behind_magic = [MAGIC.as_bytes(), &noise].concat();
                assert_both_reject(&behind_magic, &format!("magic + {len} random bytes"));
                let framed = frame(FORMAT_VERSION, &noise);
                assert_both_reject(&framed, &format!("{len} random payload bytes"));
            }
        }
    }

    #[test]
    fn malformed_payloads_under_a_valid_header_are_typed_errors() {
        let dir = test_dir("hostile_json");
        let good = small_checkpoint(&dir);
        let payload = std::str::from_utf8(&good[header_len(&good)..]).expect("utf8");
        let Value::Object(fields) = serde_json::parse_value_str(payload).expect("json") else {
            panic!("payload is an object")
        };
        let reject = |v: &Value, case: &str| {
            let payload = serde_json::to_string(v).expect("json");
            assert_both_reject(&frame(FORMAT_VERSION, payload.as_bytes()), case)
        };

        let deep = "[".repeat(10_000);
        for raw in ["", "{", "null", "[]", "0", "\"model\"", "{}", deep.as_str()] {
            let framed = frame(FORMAT_VERSION, raw.as_bytes());
            assert_both_reject(&framed, &format!("payload `{:.20}`", raw));
        }
        let kinds = [
            Value::Null,
            Value::Bool(true),
            Value::UInt(0),
            Value::Str("x".into()),
            Value::Array(Vec::new()),
            Value::Object(Vec::new()),
        ];
        for (i, (key, original)) in fields.iter().enumerate() {
            let mut dropped = fields.clone();
            dropped.remove(i);
            reject(&Value::Object(dropped), &format!("without `{key}`"));
            for kind in &kinds {
                // A `null` weight table, optimizer or cursor is a plain
                // save, which is valid.
                let plain =
                    *kind == Value::Null && matches!(key.as_str(), "weights" | "opt" | "training");
                if std::mem::discriminant(kind) == std::mem::discriminant(original) || plain {
                    continue;
                }
                let mut retyped = fields.clone();
                retyped[i].1 = kind.clone();
                reject(&Value::Object(retyped), &format!("`{key}` as {kind:?}"));
            }
        }

        // A tensor whose data disagrees with its shape.
        let mut short = fields.clone();
        let (_, Value::Object(store)) = short.iter_mut().find(|(k, _)| k == "store").unwrap() else {
            panic!("store is an object")
        };
        let Value::Array(params) = &mut store[0].1 else { panic!("store.params is an array") };
        let Value::Object(tensor) = &mut params[0] else { panic!("a tensor is an object") };
        let Value::Array(data) = &mut tensor[2].1 else { panic!("tensor data is an array") };
        data.pop();
        reject(&Value::Object(short), "tensor one value short of its shape");

        // Config dimensions the file's tensors do not have: no GRU layers,
        // or widths that would overflow or exhaust memory if anything were
        // built from them before the shapes are compared.
        for (dim, value) in [("layers", 0), ("embed_dim", 1 << 62), ("hidden_dim", 1 << 40)] {
            let mut edited = fields.clone();
            for (key, v) in config_of(&mut edited) {
                if key == dim {
                    *v = Value::UInt(value);
                }
            }
            reject(&Value::Object(edited), &format!("config.{dim} = {value}"));
        }
    }

    fn config_of(fields: &mut [(String, Value)]) -> &mut Vec<(String, Value)> {
        match fields.iter_mut().find(|(k, _)| k == "config") {
            Some((_, Value::Object(cfg))) => cfg,
            _ => panic!("config is an object"),
        }
    }

    /// The config key v4 files of older builds carry for their optional
    /// decoder layer, which this build no longer has.
    const REMOVED_DECODER_KEY: &str = "attention";

    /// A v4 plain save of `model` at `path`, edited by `edit`.
    fn edited_v4_plain_save(
        model: &mut E2dtc,
        path: &Path,
        edit: impl FnOnce(&mut Vec<(String, Value)>),
    ) -> PathBuf {
        model.save_checkpoint(path, &cursor()).expect("save_checkpoint");
        rewrite_as_v4(path, true);
        edit_payload(path, 4, edit);
        path.to_path_buf()
    }

    #[test]
    fn v4_files_with_the_removed_decoder_option() {
        let (mut model, dataset) = trained_model();
        let dir = test_dir("removed_decoder_key");

        // Option off: the stale config key is ignored.
        let off = edited_v4_plain_save(&mut model, &dir.join("off.json"), |fields| {
            config_of(fields).push((REMOVED_DECODER_KEY.into(), Value::Bool(false)));
        });
        let frozen = FrozenEncoder::from_checkpoint(&off).expect("stale key loads");
        assert_eq!(frozen.embed_dataset(&dataset), model.embed_dataset(&dataset));

        // Option on: the decoder registered `attn.combine.weight` after the
        // projection, before the centroids. No architecture here has it.
        let hidden = model.cfg.hidden_dim;
        let at = model.store.len() - 1;
        let on = edited_v4_plain_save(&mut model, &dir.join("on.json"), |fields| {
            config_of(fields).push((REMOVED_DECODER_KEY.into(), Value::Bool(true)));
            let Some((_, Value::Object(store))) = fields.iter_mut().find(|(k, _)| k == "store")
            else {
                panic!("store is an object")
            };
            let Value::Array(params) = &mut store[0].1 else { panic!("params") };
            params.insert(at, Tensor::zeros(2 * hidden, hidden).to_value());
            let Value::Array(names) = &mut store[1].1 else { panic!("names") };
            names.insert(at, Value::Str("attn.combine.weight".into()));
        });
        match expect_err(FrozenEncoder::from_checkpoint(&on)) {
            PersistError::ParamCountMismatch { saved, expected } => {
                assert_eq!((saved, expected), (model.store.len() + 1, model.store.len()))
            }
            other => panic!("expected ParamCountMismatch, got {other:?}"),
        }
    }

    #[test]
    fn registration_order_is_deterministic() {
        // The invariant save/load depends on: two identically-configured
        // constructions register identical parameter names in order.
        let build = || {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(0);
            let _ = Seq2Seq::new(&mut store, Tensor::zeros(10, 8), 12, 2, &mut rng);
            store.ids().map(|id| store.name(id).to_string()).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
