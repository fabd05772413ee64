//! Model persistence: train once, serve clustering requests forever —
//! and survive dying in the middle of the training investment.
//!
//! This is the only module that knows the on-disk format, and a file
//! holds only what its reader uses. Every file carries configuration,
//! grid, vocabulary, spatial weight table and parameter values — never
//! gradients. A training checkpoint ([`E2dtc::save_checkpoint`]) adds the
//! Adam moments and the [`TrainingState`] cursor; a plain save
//! ([`E2dtc::save`]) writes both as `null`. [`FrozenEncoder::from_checkpoint`]
//! loads either for inference; [`E2dtc::resume`] continues training
//! from a checkpoint.
//!
//! ## Checkpoint format v4 (DESIGN.md §10)
//!
//! ```text
//! E2DTC-CKPT v4 fnv1a64=<16 hex digits> len=<payload bytes>\n
//! { ...SavedModel JSON... }
//! ```
//!
//! The header's FNV-1a 64 checksum and payload length catch torn writes
//! and bit rot before JSON parsing runs. Writes are atomic: payload to a
//! `.tmp` sibling, `fsync`, then `rename` over the final path.
//!
//! v3 files still load (their `store.grads` is ignored, as are the Adam
//! moments of a v3 plain save when serving); a file without the header
//! or with an older version is a typed error. Loading then validates
//! the parameter count, each tensor's value count against its shape,
//! each parameter's registration name and shape against a freshly-built
//! architecture, and the finiteness of every weight. That relies on [`crate::seq2seq::Seq2Seq::new`] registering
//! the same tensors in the same order for a given architecture (a unit
//! test pins this invariant).

use crate::config::E2dtcConfig;
use crate::encoder::FrozenEncoder;
use crate::model::{E2dtc, TrainingState};
use crate::seq2seq::Seq2Seq;
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
use traj_nn::{ParamId, ParamStore, Tensor};

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
    /// The file's format version is not one this build reads (v3 or v4).
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
    /// [`E2dtc::resume`] needs a training cursor and optimizer state, but
    /// the file is a plain model save.
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
    /// Mirrors the header's version, which is what loading checks.
    format_version: u32,
    config: E2dtcConfig,
    grid: Grid,
    vocab: Vocab,
    weights: WeightTable,
    store: SavedParams,
    /// Whether the store's final parameter is the centroid matrix.
    has_centroids: bool,
    /// Adam moments; `None` for plain model saves.
    opt: Option<Adam>,
    /// Mid-training cursor; `None` for plain model saves.
    training: Option<TrainingState>,
}

/// Parameter values and registration names, in registration order. A
/// v3 `store` object also carries a `grads` array, which deserialization
/// ignores.
#[derive(Serialize, Deserialize)]
struct SavedParams {
    params: Vec<Tensor>,
    names: Vec<String>,
}

/// Version 4 drops gradient buffers from every file and optimizer state
/// from plain saves. Version 3 added the checksummed header, the
/// optional [`TrainingState`] cursor, and load-time validation; it is
/// the oldest version still read.
const FORMAT_VERSION: u32 = 4;

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

/// Validates the header + checksum of raw file bytes and returns the JSON
/// payload. A file without the [`MAGIC`] header is rejected before any
/// JSON parsing.
fn verify_and_strip_header(bytes: &[u8]) -> Result<&[u8], PersistError> {
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
    if !(3..=FORMAT_VERSION).contains(&version) {
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
    Ok(payload)
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
    weights: WeightTable,
    store: ParamStore,
    model: Seq2Seq,
    centroids: Option<ParamId>,
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
    let payload = verify_and_strip_header(bytes)?;
    let payload = std::str::from_utf8(payload)
        .map_err(|_| PersistError::Json("payload is not UTF-8".into()))?;
    let saved: SavedModel =
        serde_json::from_str(payload).map_err(|e| PersistError::Json(e.to_string()))?;

    // The tensor count is checked before `config.layers` builds anything.
    let SavedParams { params, names } = saved.store;
    let expected = Seq2Seq::param_count(saved.config.layers) + usize::from(saved.has_centroids);
    if params.len() != expected || names.len() != expected {
        return Err(PersistError::ParamCountMismatch { saved: params.len(), expected });
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

    // Rebuild the architecture in a fresh store: parameter ids are
    // assigned in deterministic registration order, so the layer handles
    // line up with the saved tensors — and the fresh names/shapes are the
    // authority the file is validated against. Each saved tensor then
    // replaces its freshly-initialized slot; gradient buffers come from
    // construction.
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(saved.config.seed);
    let placeholder = Tensor::zeros(saved.vocab.size(), saved.config.embed_dim);
    let model =
        Seq2Seq::new(&mut store, placeholder, saved.config.hidden_dim, saved.config.layers, &mut rng);
    let mut saved_params = names.into_iter().zip(params);
    for (id, (name, tensor)) in store.ids().zip(&mut saved_params) {
        let want = store.get(id).shape();
        if name != store.name(id) || tensor.shape() != want {
            return Err(PersistError::ShapeMismatch {
                name: store.name(id).to_string(),
                saved: tensor.shape(),
                expected: want,
            });
        }
        *store.get_mut(id) = tensor;
    }
    let centroids = match saved_params.next() {
        Some((name, tensor)) => {
            let want = (saved.config.k_clusters, saved.config.hidden_dim);
            if tensor.shape() != want {
                let saved = tensor.shape();
                return Err(PersistError::ShapeMismatch { name, saved, expected: want });
            }
            Some(store.add(name, tensor))
        }
        None => None,
    };
    if let Some(name) = store.first_non_finite_param() {
        return Err(PersistError::NonFiniteParam(name.to_string()));
    }

    Ok(LoadedParts {
        cfg: saved.config,
        grid: saved.grid,
        vocab: saved.vocab,
        weights: saved.weights,
        store,
        model,
        centroids,
        opt: saved.opt,
        training: saved.training,
    })
}

impl FrozenEncoder {
    /// Loads an inference-only encoder from a model save or a training
    /// checkpoint (format v3 or v4). Optimizer state, the spatial weight
    /// table, and any training cursor in the file are dropped — nothing a
    /// query path needs is kept mutable, so the result is `Send + Sync`
    /// without further ceremony.
    pub fn from_checkpoint(path: impl AsRef<Path>) -> Result<FrozenEncoder, PersistError> {
        Ok(load_parts(path.as_ref())?.into_frozen())
    }
}

impl LoadedParts {
    fn into_frozen(self) -> FrozenEncoder {
        let centroids = self.centroids.map(|id| self.store.get(id).clone());
        FrozenEncoder::from_parts(self.cfg, self.grid, self.vocab, self.store, self.model, centroids)
    }

    /// The trainable model with its cursor, for [`E2dtc::resume`].
    fn into_trainer(self) -> Result<E2dtc, PersistError> {
        let (Some(st), Some(opt)) = (self.training, self.opt) else {
            return Err(PersistError::NotATrainingCheckpoint);
        };
        if st.rng.len() != 4 {
            return Err(PersistError::BadRngState(st.rng.len()));
        }
        Ok(E2dtc {
            rng: StdRng::restore(rng_state_from(&st.rng)),
            pending: Some(st),
            recorder: traj_obs::global(),
            cfg: self.cfg,
            grid: self.grid,
            vocab: self.vocab,
            weights: self.weights,
            store: self.store,
            model: self.model,
            centroids: self.centroids,
            opt,
            sequences: Vec::new(),
            #[cfg(feature = "fault-injection")]
            fault: None,
        })
    }
}

impl E2dtc {
    /// Serializes the trained model for serving: parameter values only,
    /// no optimizer state and no training cursor. Checksummed header +
    /// JSON payload, written atomically.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let saved = self.to_saved(None);
        write_atomic(path.as_ref(), &encode(&saved)?)?;
        Ok(())
    }

    /// Writes a training checkpoint: the model plus the Adam moments and
    /// the mid-training cursor `st`, so [`E2dtc::resume`] can continue the
    /// run. Atomic and checksummed like [`E2dtc::save`].
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

    /// The on-disk form; optimizer state rides along only with a
    /// training cursor.
    fn to_saved(&self, training: Option<TrainingState>) -> SavedModel {
        SavedModel {
            format_version: FORMAT_VERSION,
            config: self.cfg.clone(),
            grid: self.grid.clone(),
            vocab: self.vocab.clone(),
            weights: self.weights.clone(),
            store: SavedParams {
                params: self.store.ids().map(|id| self.store.get(id).clone()).collect(),
                names: self.store.ids().map(|id| self.store.name(id).to_string()).collect(),
            },
            has_centroids: self.centroids.is_some(),
            opt: training.is_some().then(|| self.opt.clone()),
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
        let payload = verify_and_strip_header(&bytes).expect("valid header");
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

    /// Rewrites a v4 file in the layout v3 writers produced: zero
    /// `store.grads`, Adam moments even in plain saves (`opt` fills a
    /// `null`), `format_version: 3`, and a `v3` header.
    fn rewrite_as_v3(path: &Path, opt: &Adam) {
        let Value::Object(mut fields) = payload_value(path) else { panic!("payload is an object") };
        for (key, value) in &mut fields {
            match key.as_str() {
                "format_version" => *value = Value::UInt(3),
                "opt" if *value == Value::Null => *value = opt.to_value(),
                "store" => {
                    let Value::Object(store) = value else { panic!("store is an object") };
                    let params: Vec<Tensor> =
                        Deserialize::from_value(&store[0].1).expect("store.params");
                    let grads: Vec<Tensor> =
                        params.iter().map(|t| Tensor::zeros(t.rows(), t.cols())).collect();
                    store.insert(1, ("grads".to_string(), grads.to_value()));
                }
                _ => {}
            }
        }
        let payload = serde_json::to_string(&Value::Object(fields)).expect("json");
        write_framed(path, 3, &payload);
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
    fn file_has_v4_header_and_checksum() {
        let (model, _) = trained_model();
        let dir = test_dir("header");
        let path = dir.join("model.json");
        model.save(&path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("newline");
        let header = std::str::from_utf8(&bytes[..header_end]).expect("utf8");
        assert!(header.starts_with("E2DTC-CKPT v4 fnv1a64="), "header: {header}");
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

        let ckpt = dir.join(checkpoint_file_name(4));
        model.save_checkpoint(&ckpt, &cursor()).expect("save_checkpoint");
        let v = payload_value(&ckpt);
        assert!(v.get_field("store").expect("store").get_field("grads").is_none());
        assert!(matches!(v.get_field("opt"), Some(Value::Object(_))), "checkpoint keeps Adam");
        assert!(matches!(v.get_field("training"), Some(Value::Object(_))));
    }

    #[test]
    fn v3_plain_save_and_v3_checkpoint_still_load() {
        let dataset = tiny_city(40, 3).dataset;
        let dir = test_dir("v3");
        let mut cfg = E2dtcConfig::tiny(3).with_checkpointing(dir.to_string_lossy(), 1);
        cfg.checkpoint_keep_last = 0;
        cfg.delta = -1.0; // fixed epoch count, so the resumed run is comparable
        let mut model = E2dtc::new(&dataset, cfg);
        let base = model.fit(&dataset);

        // Plain save in the v3 layout: serves the same embeddings.
        let plain = dir.join("model.json");
        model.save(&plain).expect("save");
        rewrite_as_v3(&plain, &model.opt);
        assert!(payload_value(&plain).get_field("store").unwrap().get_field("grads").is_some());
        let frozen = FrozenEncoder::from_checkpoint(&plain).expect("v3 plain save loads");
        assert_eq!(frozen.embed_dataset(&dataset), model.embed_dataset(&dataset));
        assert!(matches!(
            expect_err(E2dtc::resume(&plain)),
            PersistError::NotATrainingCheckpoint
        ));

        // Training checkpoint in the v3 layout (mid-self-training):
        // resuming reproduces the uninterrupted run.
        let ckpt = dir.join(checkpoint_file_name(5));
        rewrite_as_v3(&ckpt, &model.opt);
        let mut resumed = E2dtc::resume(&ckpt).expect("v3 checkpoint resumes");
        assert_eq!(resumed.pending.as_ref().expect("cursor").phase, Phase::SelfTrain);
        let fit = resumed.fit(&dataset);
        assert_eq!(fit.assignments, base.assignments, "v3 resume diverged");
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
        for version in [2, 5] {
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
        std::fs::write(dir.join(checkpoint_file_name(3)), b"E2DTC-CKPT v4 fnv1a64=dead")
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
                assert_both_reject(&frame(4, &noise), &format!("{len} random payload bytes"));
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
            assert_both_reject(&frame(4, serde_json::to_string(v).expect("json").as_bytes()), case)
        };

        let deep = "[".repeat(10_000);
        for raw in ["", "{", "null", "[]", "0", "\"model\"", "{}", deep.as_str()] {
            assert_both_reject(&frame(4, raw.as_bytes()), &format!("payload `{:.20}`", raw));
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
                // A `null` optimizer or cursor is a plain save, which is valid.
                let plain = *kind == Value::Null && matches!(key.as_str(), "opt" | "training");
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

        // No GRU layers: the architecture cannot be built at all.
        let mut no_layers = fields.clone();
        for (key, value) in config_of(&mut no_layers) {
            if key == "layers" {
                *value = Value::UInt(0);
            }
        }
        reject(&Value::Object(no_layers), "config.layers = 0");
    }

    /// A plain save's payload, edited by `edit` and re-framed as v4.
    fn edited_plain_save(
        model: &E2dtc,
        path: &Path,
        edit: impl FnOnce(&mut Vec<(String, Value)>),
    ) -> PathBuf {
        model.save(path).expect("save");
        let Value::Object(mut fields) = payload_value(path) else { panic!("payload is an object") };
        edit(&mut fields);
        write_framed(path, 4, &serde_json::to_string(&Value::Object(fields)).expect("json"));
        path.to_path_buf()
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

    #[test]
    fn v4_files_with_the_removed_decoder_option() {
        let (model, dataset) = trained_model();
        let dir = test_dir("removed_decoder_key");

        // Option off: the stale config key is ignored.
        let off = edited_plain_save(&model, &dir.join("off.json"), |fields| {
            config_of(fields).push((REMOVED_DECODER_KEY.into(), Value::Bool(false)));
        });
        let frozen = FrozenEncoder::from_checkpoint(&off).expect("stale key loads");
        assert_eq!(frozen.embed_dataset(&dataset), model.embed_dataset(&dataset));

        // Option on: the decoder registered `attn.combine.weight` after the
        // projection, before the centroids. No architecture here has it.
        let hidden = model.cfg.hidden_dim;
        let on = edited_plain_save(&model, &dir.join("on.json"), |fields| {
            config_of(fields).push((REMOVED_DECODER_KEY.into(), Value::Bool(true)));
            let Some((_, Value::Object(store))) = fields.iter_mut().find(|(k, _)| k == "store")
            else {
                panic!("store is an object")
            };
            let at = model.store.len() - 1;
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
