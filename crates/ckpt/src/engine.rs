//! The unified checkpoint save engine.
//!
//! Every save in the repo — sync or async, conventional or deduplicated,
//! from the trainer, the merge driver, or a bench — goes through one
//! pipeline: **enumerate units → snapshot → encode → place → commit**.
//!
//! * *Enumerate*: validate and canonicalize the unit selection, map it to
//!   the optimizer groups it covers (paper §4.1 layer-wise layout).
//! * *Snapshot*: where state comes from is abstracted behind
//!   [`StateSource`] — sync saves borrow live trainer state
//!   ([`LiveState`]); async saves hand the engine a copy-on-write
//!   snapshot captured by the trainer. The engine itself never clones
//!   model or optimizer state.
//! * *Encode*: tensor payloads are traversed in bounded chunks — there is
//!   no whole-checkpoint `Vec<u8>` anywhere on this path, and the streamed
//!   bytes are guaranteed identical to what the whole-buffer
//!   [`crate::safetensors::encode`] would produce (they share header
//!   construction). A SHA-256 ([`llmt_cas::Hasher`]) is computed exactly
//!   when it names or checks a store object; a conventional
//!   `model.safetensors` or shard file, whose digest no manifest records,
//!   is written unhashed.
//! * *Place*: conventional saves stream into staging files; dedup saves
//!   hash first (zero storage ops) and only stream payloads the
//!   content-addressed store does not already hold, hard-linking objects
//!   into the checkpoint directory. A payload the source already knows as
//!   a stored object ([`StateSource::stored_object`] — a merge whose
//!   donor checkpoint shares the store) is linked without being read.
//!   A compressing or delta save splits each store miss into *resolve*
//!   (every read), a pure *encode* step and *commit* (the put and the
//!   link): the calling thread issues every storage call in key order
//!   and only the encode steps of a bounded window of misses run on
//!   worker threads, so the op schedule is the same with and without
//!   them.
//! * *Commit*: metadata, the `COMMIT` marker sealing the manifest, the
//!   atomic rename, and the run-root fsync — unchanged from the
//!   two-phase protocol documented in [`crate::writer`].
//!
//! [`save`] is the one entry point: a [`SaveRequest`] (what, from which
//! [`StateSource`], into which registry and store), [`SaveOptions`] (how
//! to encode) and an ordered placement list (which storages may take
//! it). Tier, coordinator and daemon fronts are one call to it each.
//!
//! The engine also owns the **single failure path**: any error *or panic*
//! inside the staged phase removes the `<destination>.tmp` staging
//! directory best-effort before surfacing, so no caller — in particular
//! not the async writer thread — can leak `.tmp` debris on a live
//! filesystem. (If the storage handle itself is dead, removal fails too;
//! that torn state is exactly what recovery quarantines.)
//!
//! Per-stage wall-clock timings (snapshot/encode/place/commit) are
//! reported in [`CheckpointReport::timings`] and accumulated into
//! [`llmt_storage::IoTally`] by the trainer.

use crate::error::{io_err, CkptError, Result};
use crate::layout::{commit_marker_contents, read_seal, CheckpointPaths};
use crate::manifest::{CasRefs, ObjectRef, PartialManifest};
use crate::safetensors;
use crate::writer::{CheckpointReport, SaveRequest};
use crate::zero_meta::{shard_tensor_names, GroupMeta, ZeroMeta};
use llmt_cas::codec::{self, Codec};
use llmt_cas::{BaseCache, Digest, ObjectStore, PutOutcome};
use llmt_model::naming::unit_param_specs;
use llmt_model::{LayerUnit, ModelConfig, ParamSet};
use llmt_optim::GroupSpec;
use llmt_storage::vfs::Storage;
use llmt_storage::StageTimings;
use llmt_tensor::{DType, RawTensor, Shape};
use llmt_zero::{ShardState, Topology, ZeroEngine};
use rayon::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Default streaming chunk size for tensor payloads. Large enough that
/// chunking cost is noise, small enough to bound buffer residency; the
/// chaos suite shrinks it to force multi-chunk files and mid-file tears.
pub const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// Where a save's parallelisable work runs. Every [`Storage`] call of a
/// dedup save is issued by the calling thread, in key order, under
/// either value, so the op schedule a fault injector sees, the dedup
/// counters, the manifests and every object byte are the same with and
/// without workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Conventional saves write the per-rank shard files in parallel on
    /// the rayon pool (the paper parallelizes shard I/O with a process
    /// pool); compressing or delta dedup saves run the pure encode step
    /// of a store miss (XOR diff and the LZSS candidates, no storage
    /// access) on a scoped worker thread, at most
    /// `rayon::current_num_threads()` misses waiting at once — the
    /// window that bounds what a save stages to cores × one unit.
    #[default]
    Rayon,
    /// Everything inline on the calling thread: shard files one after
    /// the other, which also makes a conventional save's op schedule
    /// deterministic.
    Sequential,
}

/// Knobs shared by every save path. `SaveRequest` says *what* to save;
/// `SaveOptions` says *how*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveOptions {
    /// Route payloads through the content-addressed store at
    /// `<root>/objects/` instead of writing them in place.
    pub dedup: bool,
    /// LZ-compress store objects when that shrinks them (dedup saves
    /// only). Manifests keep the digest and length of the *decoded*
    /// bytes, so readers, verify-on-read, and resharding are unaffected.
    pub compress: bool,
    /// Maximum delta-chain depth for store objects; 0 disables delta
    /// encoding. When a previous committed checkpoint holds the same
    /// logical key at equal length, the payload is stored as a
    /// compressed XOR diff against it — the every-step-checkpointing
    /// mode (dedup saves only).
    pub delta_chain: usize,
    /// Streaming chunk size in bytes (clamped to at least 1).
    pub chunk_bytes: usize,
    /// Whether shard-file writes (conventional saves) and the encode
    /// step (compressing or delta dedup saves) may use worker threads.
    pub parallelism: Parallelism,
}

impl Default for SaveOptions {
    fn default() -> Self {
        SaveOptions {
            dedup: false,
            compress: false,
            delta_chain: 0,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            parallelism: Parallelism::Rayon,
        }
    }
}

impl SaveOptions {
    /// Default options with dedup toggled.
    pub fn dedup(dedup: bool) -> Self {
        SaveOptions {
            dedup,
            ..SaveOptions::default()
        }
    }
}

/// Where checkpoint state comes from. Sync saves borrow the live model
/// and optimizer ([`LiveState`]); async saves present a copy-on-write
/// snapshot; a merge presents the checkpoints it assembles from. The
/// engine is written against this trait, which is what collapses the
/// sync/async/merge split into one code path.
pub trait StateSource: Sync {
    /// Model configuration.
    fn model_config(&self) -> &ModelConfig;
    /// Optimizer group specs, indexed by group id.
    fn group_specs(&self) -> &[GroupSpec];
    /// Simulated data-parallel world size.
    fn world_size(&self) -> usize;
    /// dp×tp topology the shards were produced at. The default treats the
    /// world as pure data-parallel, which is correct for every pre-topology
    /// source; topology-aware sources override it.
    fn topology(&self) -> Topology {
        Topology::dp_only(self.world_size())
    }
    /// Per-tp-slice dp-shard lengths of group `gid` (`tp` entries), or
    /// `None` when the topology is pure data-parallel and the uniform
    /// `ceil(numel / world)` formula applies.
    fn tp_shard_lens(&self, gid: usize) -> Option<Vec<usize>> {
        let _ = gid;
        None
    }
    /// Elements per rank shard of group `gid`.
    fn shard_len(&self, gid: usize) -> usize;
    /// 1-based count of completed optimizer steps.
    fn optimizer_step(&self) -> u64;
    /// One unit's BF16 weight tensors in canonical spec order.
    fn unit_weight_tensors(&self, unit: LayerUnit) -> Result<Vec<(String, RawTensor)>>;
    /// The three Adam state vectors of the `(rank, gid)` shard.
    fn shard_tensors(&self, rank: usize, gid: usize) -> Result<Vec<(String, RawTensor)>>;
    /// Asked once per logical key of a dedup save (`unit.as_string()` for
    /// a unit's weights, [`CasRefs::optim_key`] for a `(rank, gid)` shard)
    /// before its tensors are fetched: is there an object the target store
    /// already holds whose image is exactly this payload? An answer is
    /// linked as is and the tensors are never requested, so a source must
    /// only name objects it has checked the store contains; for a weight
    /// unit the answer carries the per-tensor FNV digests the manifest
    /// records. The default — live state knows no stored objects — is no.
    fn stored_object(&self, key: &str) -> Option<(ObjectRef, BTreeMap<String, u64>)> {
        let _ = key;
        None
    }
}

/// [`StateSource`] over borrowed live trainer state (sync saves).
pub struct LiveState<'a> {
    /// Model config.
    pub config: &'a ModelConfig,
    /// Model weights (the BF16 training copy).
    pub params: &'a ParamSet,
    /// Sharded optimizer engine.
    pub engine: &'a ZeroEngine,
}

impl StateSource for LiveState<'_> {
    fn model_config(&self) -> &ModelConfig {
        self.config
    }

    fn group_specs(&self) -> &[GroupSpec] {
        self.engine.groups()
    }

    fn world_size(&self) -> usize {
        self.engine.world_size
    }

    fn topology(&self) -> Topology {
        self.engine.topology()
    }

    fn tp_shard_lens(&self, gid: usize) -> Option<Vec<usize>> {
        let topo = self.engine.topology();
        (topo.tp > 1).then(|| self.engine.shard_lens(gid)[..topo.tp].to_vec())
    }

    fn shard_len(&self, gid: usize) -> usize {
        self.engine.shard_len(gid)
    }

    fn optimizer_step(&self) -> u64 {
        self.engine.step_count
    }

    fn unit_weight_tensors(&self, unit: LayerUnit) -> Result<Vec<(String, RawTensor)>> {
        unit_weight_tensors(self.config, self.params, unit)
    }

    fn shard_tensors(&self, rank: usize, gid: usize) -> Result<Vec<(String, RawTensor)>> {
        Ok(shard_state_tensors(
            &self.engine.ranks[rank].shards[gid],
            gid,
        ))
    }
}

/// One unit's BF16 weight tensors pulled out of a [`ParamSet`], in
/// canonical spec order. Shared by [`LiveState`] and the trainer's
/// copy-on-write snapshot capture.
pub fn unit_weight_tensors(
    config: &ModelConfig,
    params: &ParamSet,
    unit: LayerUnit,
) -> Result<Vec<(String, RawTensor)>> {
    let specs = unit_param_specs(config, unit);
    let mut tensors = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = params
            .get(&spec.name)
            .ok_or_else(|| CkptError::Missing(spec.name.clone()))?;
        tensors.push((spec.name.clone(), t.to_raw(DType::BF16)));
    }
    Ok(tensors)
}

/// The three Adam state vectors of one `(rank, group)` shard, named for
/// safetensors storage. Shared by the engine, snapshots, and the merge
/// driver.
pub fn shard_state_tensors(shard: &ShardState, gid: usize) -> Vec<(String, RawTensor)> {
    let names = shard_tensor_names(gid);
    let len = shard.master.len();
    let [master, exp_avg, exp_avg_sq] = names;
    vec![
        (
            master,
            RawTensor::from_f32s(&shard.master, Shape::new(vec![len]), DType::F32),
        ),
        (
            exp_avg,
            RawTensor::from_f32s(&shard.exp_avg, Shape::new(vec![len]), DType::F32),
        ),
        (
            exp_avg_sq,
            RawTensor::from_f32s(&shard.exp_avg_sq, Shape::new(vec![len]), DType::F32),
        ),
    ]
}

/// How the place stage encodes store objects, derived from
/// [`SaveOptions`] plus the previous committed checkpoint's object refs
/// (the delta bases).
struct PlacePolicy<'a> {
    compress: bool,
    delta_chain: usize,
    prev: Option<&'a CasRefs>,
}

impl PlacePolicy<'_> {
    fn encoding(&self) -> bool {
        self.compress || self.delta_chain > 0
    }

    /// The previous checkpoint's object for logical key `key`, parsed —
    /// only if it is a *different* object of the *same decoded length*
    /// (XOR deltas require equal-length images; an identical digest is a
    /// dedup hit, not a delta).
    fn base_for(&self, key: &str, digest: Digest, len: u64) -> Option<(Digest, u64)> {
        let r = self.prev?.weights.get(key).or(self.prev?.optim.get(key))?;
        let base = Digest::parse_hex(&r.digest).ok()?;
        (base != digest && r.bytes == len).then_some((base, r.bytes))
    }
}

/// Object refs of the newest committed checkpoint strictly below `step`
/// under `root`, read through `storage`. This is what the delta place
/// policy bases XOR diffs on; `None` when there is no committed
/// predecessor or it was not deduplicated.
pub fn previous_refs_on(storage: &dyn Storage, root: &Path, step: u64) -> Option<CasRefs> {
    // Pick the predecessor by *name* and read only its seal: a save must
    // not scan every checkpoint already on disk.
    let numbered = |p: &PathBuf| -> Option<u64> {
        p.file_name()?
            .to_str()?
            .strip_prefix("checkpoint-")?
            .parse()
            .ok()
    };
    let dirs = storage.list_dir(root).ok()?;
    let prev = dirs
        .iter()
        .filter_map(numbered)
        .filter(|n| *n < step)
        .max()?;
    let seal = read_seal(storage, &CheckpointPaths::under(root, prev));
    if !seal.status.is_committed() {
        return None;
    }
    seal.manifest.ok()?.objects
}

/// A store miss of an encoding save between its resolve and commit
/// steps: the decoded image (units are the bounded dedup granule, so
/// this is a per-unit, not per-model, cost) and, when the delta policy
/// found a usable base, that base's decoded image.
struct Staged {
    digest: Digest,
    image: Vec<u8>,
    base: Option<(Digest, Vec<u8>)>,
}

/// How the encode step decided an image is stored.
enum Encoded {
    /// Compressed XOR diff against the staged base.
    Delta(Codec, Vec<u8>),
    /// Self-contained compressed payload.
    Full(Codec, Vec<u8>),
    /// Nothing shrinks it: the image itself.
    Raw,
}

/// Resolve step of an encoding save's store miss — every read the key
/// needs. Builds the decoded image and, when the previous checkpoint
/// holds a different object of equal length for `key` whose chain has
/// headroom, that object's decoded image as the delta base: taken from
/// `bases` when the run's previous save left it there, materialized from
/// the store otherwise (fresh process, resumed trainer, a base some other
/// writer placed). Headroom is read from the object headers either way,
/// so which objects re-root does not depend on the cache. Any store-side
/// failure (base swept mid-save, chain walk error) leaves the base out —
/// deltas are an optimization, never a correctness dependency.
fn stage_miss(
    storage: &dyn Storage,
    store: &ObjectStore,
    bases: Option<&BaseCache>,
    key: &str,
    policy: &PlacePolicy,
    (prefix, len, digest): (Vec<u8>, u64, Digest),
    tensors: &[(String, RawTensor)],
) -> Staged {
    let mut image = prefix;
    image.reserve_exact((len as usize).saturating_sub(image.len()));
    for (_, t) in tensors {
        image.extend_from_slice(t.bytes());
    }
    let base = policy
        .base_for(key, digest, len)
        .filter(|(base, _)| {
            store
                .chain_len(storage, *base)
                .is_ok_and(|depth| depth < policy.delta_chain)
        })
        .and_then(|(base, _)| {
            let cached = bases.and_then(|bases| bases.take(base));
            Some((
                base,
                cached.or_else(|| store.materialize(storage, base).ok())?,
            ))
        })
        .filter(|(_, base_image)| base_image.len() == image.len());
    Staged {
        digest,
        image,
        base,
    }
}

/// Encode step: pure CPU work on bytes the resolve step fetched, so it
/// can run on any thread without touching the save's op schedule. Tries,
/// in order, an XOR delta against `base_image` (same length as `image`)
/// and, under `compress`, a self-contained compressed object — each
/// taken only when it actually shrinks the stored bytes.
fn encode_image(image: &[u8], base_image: Option<&[u8]>, compress: bool) -> Encoded {
    if let Some(base_image) = base_image {
        debug_assert_eq!(image.len(), base_image.len());
        let diff: Vec<u8> = image.iter().zip(base_image).map(|(a, b)| a ^ b).collect();
        let (codec, payload) = codec::smallest_encoding(&diff);
        if codec::DELTA_HEADER_LEN + payload.len() < image.len() {
            return Encoded::Delta(codec, payload);
        }
    }
    if compress {
        let (codec, payload) = codec::smallest_encoding(image);
        if codec::FULL_HEADER_LEN + payload.len() < image.len() {
            return Encoded::Full(codec, payload);
        }
    }
    Encoded::Raw
}

/// Commit step of a store miss: one put in the form the encode step
/// chose. The manifest-facing outcome (logical digest + length) is
/// identical across all three forms; only `stored_len` differs.
fn commit_staged(
    storage: &dyn Storage,
    store: &ObjectStore,
    staged: &Staged,
    mut encoded: Encoded,
    policy: &PlacePolicy,
    chunk_bytes: usize,
) -> Result<PutOutcome> {
    let store_err = io_err(store.root_dir());
    if let (Encoded::Delta(codec, payload), Some((base, base_image))) = (&encoded, &staged.base) {
        match store.put_delta(storage, staged.digest, *base, base_image, *codec, payload) {
            // Base swept between materialize and put: fall back to a
            // self-contained object.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                encoded = encode_image(&staged.image, None, policy.compress);
            }
            done => return done.map_err(store_err),
        }
    }
    let len = staged.image.len() as u64;
    match encoded {
        Encoded::Full(codec, payload) => {
            store.put_full_encoded(storage, staged.digest, codec, &payload, len)
        }
        _ => store.put_stream(
            storage,
            staged.digest,
            len,
            staged.image.chunks(chunk_bytes),
        ),
    }
    .map_err(store_err)
}

/// One logical key of a dedup save.
struct KeySpec {
    /// `unit.as_string()` for a unit's weights, [`CasRefs::optim_key`]
    /// for a `(rank, gid)` shard.
    key: String,
    /// The checkpoint file the object is hard-linked at.
    dest: PathBuf,
    payload: KeyPayload,
}

/// What a key's object holds: a unit's weights (stamped with the
/// safetensors metadata, per-tensor digests recorded in the manifest) or
/// one optimizer shard (neither).
#[derive(Clone, Copy)]
enum KeyPayload {
    Weights(LayerUnit),
    Shard { rank: usize, gid: usize },
}

/// A resolved key waiting for its commit turn.
enum Pending<'scope> {
    /// The store holds the object: only the link is left.
    Held(PutOutcome),
    /// A miss of an encoding save: its image digest and its encode step.
    Miss(Digest, Encoding<'scope>),
}

/// The encode step of a staged miss: on a worker thread, or already run
/// inline.
enum Encoding<'scope> {
    Worker(std::thread::ScopedJoinHandle<'scope, (Staged, Encoded)>),
    Done(Staged, Encoded),
}

/// What the place stage of a dedup save produced.
#[derive(Default)]
struct PlacedObjects {
    refs: CasRefs,
    model_bytes: u64,
    optim_bytes: u64,
    /// Payload bytes actually written vs. satisfied by objects the store
    /// already held.
    physical_payload: u64,
    dedup_bytes: u64,
    /// Delta/compression accounting across placed objects.
    delta_objects: u64,
    delta_saved_bytes: u64,
    delta_max_chain: u64,
}

impl PlacedObjects {
    /// Book one committed key.
    fn record(&mut self, spec: KeySpec, out: &PutOutcome) {
        if out.written {
            self.physical_payload += out.stored_len;
            self.delta_saved_bytes += out.len.saturating_sub(out.stored_len);
            if out.chain_depth > 0 {
                self.delta_objects += 1;
                self.delta_max_chain = self.delta_max_chain.max(out.chain_depth as u64);
            }
        } else {
            self.dedup_bytes += out.len;
        }
        let object = ObjectRef {
            digest: out.digest.to_hex(),
            bytes: out.len,
        };
        if matches!(spec.payload, KeyPayload::Weights(_)) {
            self.model_bytes += out.len;
            self.refs.weights.insert(spec.key, object);
        } else {
            self.optim_bytes += out.len;
            self.refs.optim.insert(spec.key, object);
        }
    }
}

/// Place stage of a dedup save: one store object per logical key — one
/// per unit (the layer-wise dedup granule, hard-linked under `units/`)
/// and one per (rank, group) — linked unread when the source already
/// names a stored object for it, otherwise fetched, encoded under the
/// policy and put.
///
/// Each key goes through *resolve* (tensor fetch, image digest, hit
/// peek, delta-base read), *encode* ([`encode_image`]) and *commit* (the
/// put and the link). Resolve and commit run on the calling thread, each
/// in key order, so identical payloads dedup instead of racing and the
/// op schedule does not depend on [`Parallelism`]. A key with nothing to
/// encode — a hit, a source-named object, any key of a save that neither
/// compresses nor deltas (hash-first zero-copy streaming put) — commits
/// as soon as every key before it has. The encode step of a miss starts
/// the moment the key is resolved — on a scoped worker thread under
/// [`Parallelism::Rayon`] — and the caller goes on resolving later keys
/// until a window of `rayon::current_num_threads()` misses is waiting;
/// then it commits the oldest. Staged memory is therefore bounded by
/// worker count × (image + base + encode candidates) of one unit, never
/// by the checkpoint.
fn place_objects(
    storage: &dyn Storage,
    plan: &StagePlan,
    weights_meta: &BTreeMap<String, String>,
    weight_digests: &mut BTreeMap<String, u64>,
    timings: &mut StageTimings,
) -> Result<PlacedObjects> {
    let (req, store, staging) = (plan.req, plan.store, plan.staging);
    let chunk = plan.opts.chunk_bytes.max(1);
    // Delta bases come from the newest committed predecessor's manifest;
    // resolving it is one read pair, done once per save.
    let prev_refs = (plan.opts.delta_chain > 0)
        .then(|| previous_refs_on(storage, plan.root, req.step))
        .flatten();
    let policy = PlacePolicy {
        compress: plan.opts.compress,
        delta_chain: plan.opts.delta_chain,
        prev: prev_refs.as_ref(),
    };
    let window = rayon::current_num_threads().max(1);
    let no_meta = BTreeMap::new();

    let unit_keys = plan.units.iter().map(|unit| {
        let key = unit.as_string();
        KeySpec {
            dest: staging.unit_weights(&key),
            key,
            payload: KeyPayload::Weights(*unit),
        }
    });
    let world = req.source.world_size();
    let shard_keys = (0..world).flat_map(|rank| {
        plan.present.iter().map(move |gid| KeySpec {
            key: CasRefs::optim_key(rank, *gid),
            dest: staging.optim_group(rank, *gid),
            payload: KeyPayload::Shard { rank, gid: *gid },
        })
    });

    let mut placed = PlacedObjects::default();
    std::thread::scope(|workers| -> Result<()> {
        let mut queue: VecDeque<(KeySpec, Pending)> = VecDeque::new();
        let misses = |queue: &VecDeque<(KeySpec, Pending)>| {
            queue
                .iter()
                .filter(|(_, p)| matches!(p, Pending::Miss(..)))
                .count()
        };
        // Commit the oldest resolved key.
        let mut commit_front =
            |queue: &mut VecDeque<(KeySpec, Pending)>, timings: &mut StageTimings| -> Result<()> {
                let Some((spec, resolved)) = queue.pop_front() else {
                    return Ok(());
                };
                let sp = req.metrics.span("ckpt.save.place");
                let out = match resolved {
                    Pending::Held(out) => out,
                    Pending::Miss(_, encoding) => {
                        let (staged, encoded) = match encoding {
                            Encoding::Done(staged, encoded) => (staged, encoded),
                            // A worker's panic is the save's panic.
                            Encoding::Worker(worker) => {
                                worker.join().unwrap_or_else(|p| resume_unwind(p))
                            }
                        };
                        let out = commit_staged(storage, store, &staged, encoded, &policy, chunk)?;
                        // The next save's delta base for this key, already
                        // decoded and hashed.
                        if let Some(bases) = req.bases.filter(|_| policy.delta_chain > 0) {
                            bases.insert(staged.digest, staged.image);
                        }
                        out
                    }
                };
                store
                    .link(storage, out.digest, &spec.dest)
                    .map_err(io_err(&spec.dest))?;
                placed.record(spec, &out);
                timings.place_ns += sp.finish();
                Ok(())
            };

        for spec in unit_keys.chain(shard_keys) {
            let resolved = if let Some((object, fnv)) = req.source.stored_object(&spec.key) {
                let digest = Digest::parse_hex(&object.digest).map_err(|e| {
                    CkptError::Format(format!("stored object for {}: {e}", spec.key))
                })?;
                weight_digests.extend(fnv);
                Pending::Held(PutOutcome {
                    digest,
                    len: object.bytes,
                    stored_len: 0,
                    written: false,
                    chain_depth: 0,
                })
            } else {
                let sp = req.metrics.span("ckpt.save.encode");
                let (tensors, metadata) = match spec.payload {
                    KeyPayload::Weights(unit) => {
                        let tensors = req.source.unit_weight_tensors(unit)?;
                        for (name, t) in &tensors {
                            weight_digests.insert(name.clone(), t.digest());
                        }
                        (tensors, weights_meta)
                    }
                    KeyPayload::Shard { rank, gid } => {
                        (req.source.shard_tensors(rank, gid)?, &no_meta)
                    }
                };
                timings.encode_ns += sp.finish();

                // Hash-first: the image is digested in one bounded-memory
                // pass (zero storage ops), so a dedup hit costs exactly
                // one counted op (the link).
                let sp = req.metrics.span("ckpt.save.place");
                let (prefix, len, digest) = safetensors::image_digest(&tensors, metadata)?;
                timings.place_ns += sp.finish();
                // The same content is already waiting as a miss: commit
                // it first, so this key is the dedup hit it would be
                // without a window.
                if queue
                    .iter()
                    .any(|(_, p)| matches!(p, Pending::Miss(waiting, _) if *waiting == digest))
                {
                    while !queue.is_empty() {
                        commit_front(&mut queue, timings)?;
                    }
                }
                let sp = req.metrics.span("ckpt.save.place");
                let resolved = if !policy.encoding() {
                    // Only a store miss streams the payload, straight
                    // from the tensors.
                    let chunks = std::iter::once(prefix.as_slice())
                        .chain(tensors.iter().flat_map(|(_, t)| t.bytes().chunks(chunk)));
                    let out = store
                        .put_stream(storage, digest, len, chunks)
                        .map_err(io_err(store.root_dir()))?;
                    Pending::Held(out)
                } else if let Some(hit) = store.note_hit(storage, digest, len) {
                    // A hit re-dates the base chain and short-circuits
                    // everything else.
                    Pending::Held(hit)
                } else {
                    let staged = stage_miss(
                        storage,
                        store,
                        req.bases,
                        &spec.key,
                        &policy,
                        (prefix, len, digest),
                        &tensors,
                    );
                    let compress = policy.compress;
                    let encode = move || {
                        let base_image = staged.base.as_ref().map(|(_, image)| image.as_slice());
                        let encoded = encode_image(&staged.image, base_image, compress);
                        (staged, encoded)
                    };
                    Pending::Miss(
                        digest,
                        match plan.opts.parallelism {
                            Parallelism::Rayon => Encoding::Worker(workers.spawn(encode)),
                            Parallelism::Sequential => {
                                let (staged, encoded) = encode();
                                Encoding::Done(staged, encoded)
                            }
                        },
                    )
                };
                timings.place_ns += sp.finish();
                resolved
            };
            queue.push_back((spec, resolved));
            while matches!(queue.front(), Some((_, Pending::Held(_)))) || misses(&queue) >= window {
                commit_front(&mut queue, timings)?;
            }
        }
        while !queue.is_empty() {
            commit_front(&mut queue, timings)?;
        }
        Ok(())
    })?;
    Ok(placed)
}

/// A committed save: the report plus which placement (index into the
/// candidate list) admitted it.
#[derive(Debug)]
pub struct PlacedSave {
    /// The committed save's report.
    pub report: CheckpointReport,
    /// Index of the storage that admitted the save.
    pub placement: usize,
}

/// Whether a save failure is an *admission* failure — the target tier
/// refused the bytes for capacity reasons (ENOSPC) — as opposed to a
/// hard I/O or format error. Admission failures are the only failures a
/// placement policy may fall through on: anything else means the save
/// itself is suspect and must surface.
pub fn is_admission_error(e: &CkptError) -> bool {
    matches!(e, CkptError::Io(_, io) if io.kind() == std::io::ErrorKind::StorageFull)
}

/// Stage and commit one checkpoint — the only function in this crate
/// that does. `placements` is an ordered list of candidate storages
/// (fastest first; a one-element slice for a plain directory or CAS
/// save): the save is durable-committed at the first that admits it,
/// falling through on [`is_admission_error`] failures only, after the
/// refused tier's staging leftovers are cleaned up.
///
/// Validates and canonicalizes the unit selection once, then runs the
/// staged pipeline per placement under the single failure path: on error
/// *or panic* the staging directory is removed best-effort before the
/// failure surfaces (the async writer thread relies on this). Stage
/// spans (`ckpt.save.encode` / `.place` / `.commit`) are recorded into
/// `req.metrics` in addition to the report's [`StageTimings`].
///
/// The checkpoint lands in `req.dir`; its parent is the run root, where
/// the staging directory (`<dir>.tmp`), the object store and the run-root
/// sync live. Unless `req.store` names one, the place stage's object
/// store is resolved from the run root on each placement
/// ([`ObjectStore::resolve`]): a root carrying a `CASROOT` redirect
/// places objects into the shared store, a standalone root into its own
/// `<root>/objects`. Conventional (non-dedup) saves never touch it.
pub fn save(
    placements: &[&dyn Storage],
    req: &SaveRequest,
    opts: &SaveOptions,
) -> Result<PlacedSave> {
    let Some(last) = placements.len().checked_sub(1) else {
        return Err(CkptError::Incompatible(
            "engine::save needs at least one placement storage".into(),
        ));
    };
    let config = req.source.model_config();
    for u in req.units {
        if !u.exists_in(config) {
            return Err(CkptError::Incompatible(format!(
                "unit {u} does not exist in model {}",
                config.model_name
            )));
        }
    }
    let mut units: Vec<LayerUnit> = req.units.to_vec();
    units.sort();
    units.dedup();
    let full = units.len() == LayerUnit::all(config).len();

    // Which optimizer groups are covered by the selection?
    let groups = req.source.group_specs();
    let layerwise = groups.iter().all(|g| g.unit.is_some());
    if !layerwise && !full {
        return Err(CkptError::Incompatible(
            "partial checkpointing requires the layer-wise (2L+x) group layout; \
             the stock 2-group optimizer file is inseparable (paper §4.1)"
                .into(),
        ));
    }
    let present: Vec<usize> = groups
        .iter()
        .filter(|g| match g.unit {
            Some(u) => units.contains(&u),
            None => true, // stock layout, full save
        })
        .map(|g| g.id)
        .collect();

    let (Some(root), Some(name)) = (req.dir.parent(), req.dir.file_name()) else {
        return Err(CkptError::Incompatible(format!(
            "{} cannot hold a checkpoint: it has no parent directory to stage in",
            req.dir.display()
        )));
    };
    // A bare relative destination (`output: merged`) lives in the
    // working directory.
    let root = if root.as_os_str().is_empty() {
        Path::new(".")
    } else {
        root
    };
    let mut staging_name = name.to_os_string();
    staging_name.push(".tmp");
    let staging = CheckpointPaths {
        dir: req.dir.with_file_name(staging_name),
        step: req.step,
    };
    for (i, storage) in placements.iter().enumerate() {
        let resolved;
        let store = match req.store {
            Some(store) => store,
            None => {
                resolved = ObjectStore::resolve(*storage, root).with_metrics(req.metrics);
                &resolved
            }
        };
        let plan = StagePlan {
            req,
            opts,
            root,
            staging: &staging,
            units: &units,
            present: &present,
            full,
            store,
        };
        let staged = catch_unwind(AssertUnwindSafe(|| {
            write_staged_and_commit(*storage, &plan)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(CkptError::Format(format!(
                "checkpoint writer panicked: {msg}"
            )))
        });
        // What the place stage left for the next save's deltas counts only
        // if this checkpoint is the one that save will find.
        if let Some(bases) = req.bases {
            match &staged {
                Ok(_) => bases.commit(),
                Err(_) => bases.abort(),
            }
        }
        match staged {
            Ok(report) => {
                req.metrics.counter(&format!("ckpt.place.tier{i}")).incr();
                return Ok(PlacedSave {
                    report,
                    placement: i,
                });
            }
            Err(e) => {
                cleanup_staging(*storage, &staging);
                if i == last || !is_admission_error(&e) {
                    return Err(e);
                }
                req.metrics.counter("ckpt.place.fallthrough").incr();
            }
        }
    }
    unreachable!("the loop returns on the last placement")
}

/// Best-effort staging removal. If the storage is dead (simulated crash)
/// this fails silently — exactly the torn state the scanner quarantines.
fn cleanup_staging(storage: &dyn Storage, staging: &CheckpointPaths) {
    if storage.exists(&staging.dir) {
        let _ = storage.remove_dir_all(&staging.dir);
    }
}

/// The request plus what [`save`] derived from it for the staged phase.
struct StagePlan<'a> {
    req: &'a SaveRequest<'a>,
    opts: &'a SaveOptions,
    /// The run root: parent of the destination and of `staging`.
    root: &'a Path,
    staging: &'a CheckpointPaths,
    /// Canonical (sorted, deduplicated) unit selection.
    units: &'a [LayerUnit],
    /// Optimizer group ids the selection covers.
    present: &'a [usize],
    full: bool,
    /// Object store the place stage targets (dedup saves only).
    store: &'a ObjectStore,
}

/// Phase 1 + 2 + 3 of the commit protocol, against the staging directory.
fn write_staged_and_commit(storage: &dyn Storage, plan: &StagePlan) -> Result<CheckpointReport> {
    let req = plan.req;
    let config = req.source.model_config();
    let staging = plan.staging;
    let dedup = plan.opts.dedup;
    let chunk = plan.opts.chunk_bytes.max(1);
    let world = req.source.world_size();
    let mut timings = StageTimings::default();

    // A leftover staging dir from a previously crashed save must not leak
    // stale files into this one.
    if storage.exists(&staging.dir) {
        storage
            .remove_dir_all(&staging.dir)
            .map_err(io_err(&staging.dir))?;
    }
    storage
        .create_dir_all(&staging.global_step_dir())
        .map_err(io_err(staging.global_step_dir()))?;
    if dedup {
        storage
            .create_dir_all(&staging.units_dir())
            .map_err(io_err(staging.units_dir()))?;
    }

    let mut files_written = 0usize;
    let mut meta_bytes = 0u64;

    let mut st_meta = BTreeMap::new();
    st_meta.insert("format".to_string(), "pt".to_string());

    // 1 + 2. Payload. Conventional: one consolidated `model.safetensors`
    //    (BF16, selected units only) and per-rank shard files, streamed,
    //    the shard files optionally in parallel. Dedup: one store object
    //    per logical key ([`place_objects`]).
    let mut digests = BTreeMap::new();
    let mut placed = PlacedObjects::default();
    let (model_bytes, optim_bytes): (u64, u64) = if dedup {
        placed = place_objects(storage, plan, &st_meta, &mut digests, &mut timings)?;
        files_written += plan.units.len() + world * plan.present.len();
        (placed.model_bytes, placed.optim_bytes)
    } else {
        let sp = req.metrics.span("ckpt.save.encode");
        let mut weight_tensors: Vec<(String, RawTensor)> = Vec::new();
        for unit in plan.units {
            let tensors = req.source.unit_weight_tensors(*unit)?;
            for (name, t) in &tensors {
                digests.insert(name.clone(), t.digest());
            }
            weight_tensors.extend(tensors);
        }
        timings.encode_ns += sp.finish();

        let sp = req.metrics.span("ckpt.save.place");
        let model = safetensors::stream_file_on(
            storage,
            &staging.model(),
            &weight_tensors,
            &st_meta,
            chunk,
        )?;
        timings.place_ns += sp.finish();
        // The consolidated weights are on disk; do not hold them through
        // the shard phase.
        drop(weight_tensors);

        let sp = req.metrics.span("ckpt.save.place");
        let write_rank = |rank: usize| -> Result<u64> {
            let mut tensors: Vec<(String, RawTensor)> = Vec::with_capacity(plan.present.len() * 3);
            for gid in plan.present {
                tensors.extend(req.source.shard_tensors(rank, *gid)?);
            }
            safetensors::stream_file_on(
                storage,
                &staging.optim_shard(rank),
                &tensors,
                &BTreeMap::new(),
                chunk,
            )
        };
        let totals: Vec<u64> = match plan.opts.parallelism {
            Parallelism::Rayon => (0..world)
                .into_par_iter()
                .map(write_rank)
                .collect::<Result<Vec<u64>>>()?,
            Parallelism::Sequential => (0..world).map(write_rank).collect::<Result<Vec<u64>>>()?,
        };
        timings.place_ns += sp.finish();
        files_written += 1 + world;
        (model, totals.into_iter().sum())
    };

    let sp_commit = req.metrics.span("ckpt.save.commit");

    // Small JSON files are written inline (and synced) so their exact byte
    // counts are known without re-reading.
    let put = |path: &Path, bytes: &[u8]| -> Result<u64> {
        storage.write(path, bytes).map_err(io_err(path))?;
        storage.sync(path).map_err(io_err(path))?;
        Ok(bytes.len() as u64)
    };

    // 3. ZeRO metadata. The topology is recorded only when it actually
    //    has a tensor-parallel dimension: a pure-dp save stays
    //    byte-identical to pre-topology checkpoints.
    let topo = req.source.topology();
    let zero_meta = ZeroMeta {
        world_size: world,
        saved_topology: (topo.tp > 1).then_some(topo),
        num_layers: config.num_hidden_layers,
        tied: config.tie_word_embeddings,
        optimizer_step: req.source.optimizer_step(),
        groups_present: plan.present.to_vec(),
        groups: req
            .source
            .group_specs()
            .iter()
            .map(|g| GroupMeta {
                id: g.id,
                numel: g.numel,
                shard_len: req.source.shard_len(g.id),
                weight_decay: g.weight_decay,
                tp_shard_lens: req.source.tp_shard_lens(g.id),
            })
            .collect(),
    };
    meta_bytes += put(
        &staging.zero_meta(),
        serde_json::to_string_pretty(&zero_meta)?.as_bytes(),
    )?;
    files_written += 1;

    // 4. Config + trainer state + latest marker + manifest (paper §4.4).
    let config_json = serde_json::to_string_pretty(config)?;
    meta_bytes += put(&staging.config(), config_json.as_bytes())?;
    let state_json = serde_json::to_string_pretty(req.trainer_state)?;
    meta_bytes += put(&staging.trainer_state(), state_json.as_bytes())?;
    meta_bytes += put(
        &staging.latest(),
        format!("global_step{}\n", req.step).as_bytes(),
    )?;
    let manifest = PartialManifest {
        step: req.step,
        units: plan.units.to_vec(),
        weight_digests: digests,
        full: plan.full,
        objects: dedup.then_some(placed.refs),
        topology: (topo.tp > 1).then_some(topo),
    };
    let manifest_json = serde_json::to_string_pretty(&manifest)?;
    meta_bytes += put(&staging.manifest(), manifest_json.as_bytes())?;
    files_written += 4;

    // 5. Seal: the COMMIT marker goes in only after every payload byte is
    //    durable, so its presence certifies the whole directory.
    let marker = commit_marker_contents(req.step, manifest_json.as_bytes());
    meta_bytes += put(&staging.commit_marker(), marker.as_bytes())?;
    files_written += 1;

    // 6. Swap into place atomically and persist the rename.
    let paths = CheckpointPaths {
        dir: req.dir.to_path_buf(),
        step: req.step,
    };
    if storage.exists(&paths.dir) {
        storage
            .remove_dir_all(&paths.dir)
            .map_err(io_err(&paths.dir))?;
    }
    storage
        .rename(&staging.dir, &paths.dir)
        .map_err(io_err(&staging.dir))?;
    storage.sync(plan.root).map_err(io_err(plan.root))?;
    timings.commit_ns += sp_commit.finish();

    let total_bytes = model_bytes + optim_bytes + meta_bytes;
    Ok(CheckpointReport {
        paths,
        total_bytes,
        model_bytes,
        optim_bytes,
        files_written,
        units: plan.units.to_vec(),
        physical_bytes: if dedup {
            placed.physical_payload + meta_bytes
        } else {
            total_bytes
        },
        dedup_bytes: placed.dedup_bytes,
        delta_objects: placed.delta_objects,
        delta_saved_bytes: placed.delta_saved_bytes,
        delta_max_chain: placed.delta_max_chain,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer_state::TrainerState;
    use llmt_model::Model;
    use llmt_obs::MetricsRegistry;
    use llmt_optim::{build_groups, AdamWHyper, GroupLayout, LrSchedule};
    use llmt_storage::vfs::LocalFs;
    use llmt_tensor::rng::Prng;

    fn make_state(cfg: &ModelConfig, world: usize) -> (Model, ZeroEngine, TrainerState) {
        let mut model = Model::new(cfg.clone(), 13);
        let mut engine = ZeroEngine::new(
            &model.params,
            build_groups(cfg, GroupLayout::LayerWise),
            world,
            AdamWHyper::default(),
        );
        let mut rng = Prng::seed_from_u64(4);
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let batch = llmt_model::Batch::new(tokens, 2, 8);
        let mut grads = ParamSet::zeros(cfg);
        model.loss_and_grad(&batch, &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let ts = TrainerState {
            global_step: 1,
            ckpt_event: 0,
            lr_schedule: LrSchedule::Constant { lr: 1e-3 },
            last_lr: 1e-3,
            loss_history: vec![(1, 3.0)],
            data_rng: Prng::seed_from_u64(1),
            task: "test".into(),
            model_name: cfg.model_name.clone(),
            micro_batch: 2,
            grad_accum: 1,
            seq_len: 8,
        };
        (model, engine, ts)
    }

    /// [`save`] on `root`'s local filesystem from any source.
    fn save_at(
        root: &Path,
        step: u64,
        source: &dyn StateSource,
        ts: &TrainerState,
        opts: &SaveOptions,
    ) -> Result<CheckpointReport> {
        save_at_with(root, step, source, ts, opts, None)
    }

    /// [`save_at`] with the run's decoded-base cache.
    fn save_at_with(
        root: &Path,
        step: u64,
        source: &dyn StateSource,
        ts: &TrainerState,
        opts: &SaveOptions,
        bases: Option<&BaseCache>,
    ) -> Result<CheckpointReport> {
        let req = SaveRequest {
            dir: &CheckpointPaths::under(root, step).dir,
            step,
            source,
            trainer_state: ts,
            units: &LayerUnit::all(source.model_config()),
            metrics: &MetricsRegistry::new(),
            store: None,
            bases,
        };
        save(&[&LocalFs], &req, opts).map(|p| p.report)
    }

    /// A [`StateSource`] that panics while producing shard tensors —
    /// drives the writer-panic arm of the single failure path.
    struct PanickingSource<'a>(LiveState<'a>);

    impl StateSource for PanickingSource<'_> {
        fn model_config(&self) -> &ModelConfig {
            self.0.model_config()
        }
        fn group_specs(&self) -> &[GroupSpec] {
            self.0.group_specs()
        }
        fn world_size(&self) -> usize {
            self.0.world_size()
        }
        fn shard_len(&self, gid: usize) -> usize {
            self.0.shard_len(gid)
        }
        fn optimizer_step(&self) -> u64 {
            self.0.optimizer_step()
        }
        fn unit_weight_tensors(&self, unit: LayerUnit) -> Result<Vec<(String, RawTensor)>> {
            self.0.unit_weight_tensors(unit)
        }
        fn shard_tensors(&self, _rank: usize, _gid: usize) -> Result<Vec<(String, RawTensor)>> {
            panic!("injected writer panic");
        }
    }

    #[test]
    fn panicking_writer_is_reported_as_error_and_cleans_staging() {
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2);
        let source = PanickingSource(LiveState {
            config: &cfg,
            params: &model.params,
            engine: &engine,
        });
        // The panic fires on a rayon worker writing a shard file, on the
        // caller, and on the caller of an encoding dedup save while the
        // weight units' encode workers are still in flight.
        for opts in [
            SaveOptions::default(),
            SaveOptions {
                parallelism: Parallelism::Sequential,
                ..SaveOptions::default()
            },
            encoding_opts(Parallelism::Rayon),
            encoding_opts(Parallelism::Sequential),
        ] {
            let dir = tempfile::tempdir().unwrap();
            let err = save_at(dir.path(), 5, &source, &ts, &opts).unwrap_err();
            match err {
                CkptError::Format(msg) => {
                    assert!(msg.contains("checkpoint writer panicked"), "{msg}");
                    assert!(msg.contains("injected writer panic"), "{msg}");
                }
                other => panic!("expected Format error, got {other}"),
            }
            // The single failure path removed the staging dir despite the
            // panic — previously only the async worker's catch_unwind
            // fired, *after* skipping the writer's own cleanup.
            let leftovers: Vec<String> = std::fs::read_dir(dir.path())
                .unwrap()
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect();
            assert!(
                leftovers.iter().all(|n| !n.ends_with(".tmp")),
                "{opts:?}: tmp debris left behind: {leftovers:?}"
            );
        }
    }

    #[test]
    fn failed_save_leaves_the_base_cache_bounded_and_the_next_save_correct() {
        let cfg = ModelConfig::tiny_test();
        let (mut model, mut engine, ts) = make_state(&cfg, 2);
        let dir = tempfile::tempdir().unwrap();
        let bases = BaseCache::default();
        let opts = encoding_opts(Parallelism::Rayon);
        fn live<'a>(model: &'a Model, engine: &'a ZeroEngine) -> LiveState<'a> {
            LiveState {
                config: &model.config,
                params: &model.params,
                engine,
            }
        }

        let first = save_at_with(
            dir.path(),
            1,
            &live(&model, &engine),
            &ts,
            &opts,
            Some(&bases),
        )
        .unwrap();
        let one_save = first.model_bytes + first.optim_bytes;
        assert_eq!(bases.resident_bytes(), one_save, "every key was a miss");

        // The second save stages (and takes the bases of) the weight units,
        // then panics on the first optimizer shard.
        let mut rng = Prng::seed_from_u64(11);
        let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
        let mut grads = ParamSet::zeros(&cfg);
        model.loss_and_grad(&llmt_model::Batch::new(tokens, 2, 8), &mut grads);
        engine.step(&mut model.params, &grads, 1e-3, true);
        let err = save_at_with(
            dir.path(),
            2,
            &PanickingSource(live(&model, &engine)),
            &ts,
            &opts,
            Some(&bases),
        )
        .unwrap_err();
        assert!(err.to_string().contains("injected writer panic"), "{err}");
        assert!(bases.resident_bytes() <= one_save);
        assert!(
            bases.resident_bytes() >= first.optim_bytes,
            "untouched bases kept"
        );

        // The retry finds the weight bases cold and the shard bases warm,
        // and stores a checkpoint that verifies hop by hop.
        let retried = save_at_with(
            dir.path(),
            2,
            &live(&model, &engine),
            &ts,
            &opts,
            Some(&bases),
        )
        .unwrap();
        assert!(retried.delta_objects > 0);
        assert!(bases.resident_bytes() <= one_save);
        for step in [1, 2] {
            let report = crate::verify::verify_checkpoint_on(
                std::sync::Arc::new(LocalFs),
                &CheckpointPaths::under(dir.path(), step).dir,
                true,
            )
            .unwrap();
            assert!(report.ok(), "checkpoint-{step}: {:?}", report.findings);
        }
    }

    /// Dedup + compress + delta-chain options, the every-step mode.
    fn encoding_opts(parallelism: Parallelism) -> SaveOptions {
        SaveOptions {
            dedup: true,
            compress: true,
            delta_chain: 8,
            parallelism,
            ..SaveOptions::default()
        }
    }

    /// Every regular file under `dir`, by path relative to it.
    fn files_under(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fn walk(dir: &Path, base: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
            for entry in std::fs::read_dir(dir).unwrap().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, base, out);
                } else {
                    let name = path.strip_prefix(base).unwrap().display().to_string();
                    out.insert(name, std::fs::read(&path).unwrap());
                }
            }
        }
        let mut out = BTreeMap::new();
        walk(dir, dir, &mut out);
        out
    }

    /// Everything a run of saves leaves behind that must not depend on
    /// [`Parallelism`] or on where the delta bases came from.
    #[derive(Debug, PartialEq)]
    struct RunRecord {
        /// Every storage call in order: method and root-relative path.
        calls: Vec<(&'static str, String)>,
        objects: BTreeMap<String, Vec<u8>>,
        /// `partial_manifest.json` and `COMMIT` of every checkpoint.
        seals: Vec<(Vec<u8>, Vec<u8>)>,
        counters: Vec<(&'static str, u64)>,
        /// total, model, optim, physical, dedup, delta objects, delta
        /// saved bytes, deepest chain, files — per save.
        reports: Vec<[u64; 9]>,
        /// Bytes the decoded-base cache held after each save.
        resident: Vec<u64>,
    }

    /// Ten every-step saves of one deterministic training run: the
    /// embedding unit's weights never change (a dedup hit in every save
    /// after the first), nothing changes before save 6 (all hits), and
    /// everything else drifts by one optimizer step per save. `warm`
    /// hands every save one decoded-base cache, as a trainer does; without
    /// it each save materializes its bases from the store.
    fn ten_encoding_saves(parallelism: Parallelism, warm: bool) -> RunRecord {
        use crate::verify::recording_fs::RecordingFs;
        let cfg = ModelConfig::tiny_test();
        let (mut model, mut engine, ts) = make_state(&cfg, 2);
        let frozen = model.params.clone();
        let embedding = frozen.unit_positions(LayerUnit::all(&cfg)[0]);
        let mut rng = Prng::seed_from_u64(9);
        let dir = tempfile::tempdir().unwrap();
        let fs = RecordingFs::new(LocalFs);
        let metrics = MetricsRegistry::new();
        let opts = encoding_opts(parallelism);
        let bases = BaseCache::default();
        let mut reports = Vec::new();
        let mut seals = Vec::new();
        let mut resident = Vec::new();
        for step in 1..=10u64 {
            if step != 6 {
                let tokens: Vec<u32> = (0..16).map(|_| rng.below(cfg.vocab_size) as u32).collect();
                let mut grads = ParamSet::zeros(&cfg);
                model.loss_and_grad(&llmt_model::Batch::new(tokens, 2, 8), &mut grads);
                engine.step(&mut model.params, &grads, 1e-3, true);
                for i in &embedding {
                    *model.params.at_mut(*i) = frozen.at(*i).clone();
                }
            }
            let paths = CheckpointPaths::under(dir.path(), step);
            let req = SaveRequest {
                dir: &paths.dir,
                step,
                source: &LiveState {
                    config: &cfg,
                    params: &model.params,
                    engine: &engine,
                },
                trainer_state: &ts,
                units: &LayerUnit::all(&cfg),
                metrics: &metrics,
                store: None,
                bases: warm.then_some(&bases),
            };
            let r = save(&[&fs], &req, &opts).unwrap().report;
            resident.push(bases.resident_bytes());
            reports.push([
                r.total_bytes,
                r.model_bytes,
                r.optim_bytes,
                r.physical_bytes,
                r.dedup_bytes,
                r.delta_objects,
                r.delta_saved_bytes,
                r.delta_max_chain,
                r.files_written as u64,
            ]);
            seals.push((
                std::fs::read(paths.manifest()).unwrap(),
                std::fs::read(paths.commit_marker()).unwrap(),
            ));
        }
        let calls = fs
            .calls()
            .into_iter()
            .map(|(op, path)| {
                let mut rel = path
                    .strip_prefix(dir.path())
                    .unwrap_or(&path)
                    .display()
                    .to_string();
                // `<hex>.<pid>-<nonce>.part`: the nonce is a process-wide
                // counter, not part of the schedule.
                if let Some(stem) = rel.strip_suffix(".part") {
                    rel = format!("{}.part", &stem[..stem.rfind('.').unwrap()]);
                }
                (op, rel)
            })
            .collect();
        let counters = [
            "cas.dedup.hits",
            "cas.dedup.misses",
            "cas.dedup.saved_bytes",
            "cas.delta.puts",
            "cas.delta.bytes_saved",
        ]
        .map(|name| (name, metrics.counter_value(name)))
        .to_vec();
        RunRecord {
            calls,
            objects: files_under(&dir.path().join("objects")),
            seals,
            counters,
            reports,
            resident,
        }
    }

    /// Field-by-field comparison of two runs that must have left the same
    /// store behind (a whole-struct diff of megabytes helps no one).
    fn assert_same_stored_bytes(a: &RunRecord, b: &RunRecord) {
        assert_eq!(
            a.objects.keys().collect::<Vec<_>>(),
            b.objects.keys().collect::<Vec<_>>()
        );
        assert!(a.objects == b.objects, "object bytes differ");
        assert!(a.seals == b.seals, "manifest or COMMIT differs");
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.reports, b.reports);
    }

    #[test]
    fn encoding_saves_do_not_depend_on_parallelism() {
        let workers = ten_encoding_saves(Parallelism::Rayon, true);
        let inline = ten_encoding_saves(Parallelism::Sequential, true);
        assert_eq!(workers.calls.len(), inline.calls.len());
        for (i, (w, s)) in workers.calls.iter().zip(&inline.calls).enumerate() {
            assert_eq!(w, s, "storage call {i} differs");
        }
        assert_same_stored_bytes(&workers, &inline);
        assert_eq!(workers.resident, inline.resident);
        // The run exercised what it claims to: hits, deltas, deep chains.
        let counter = |name: &str| workers.counters.iter().find(|c| c.0 == name).unwrap().1;
        assert!(counter("cas.dedup.hits") > 0);
        assert!(counter("cas.delta.puts") > 0);
        assert!(workers.reports.iter().any(|r| r[7] >= 2), "no chain grew");
        let all_hits = workers.reports[5];
        assert_eq!(
            all_hits[4],
            all_hits[1] + all_hits[2],
            "save 6 wrote payload"
        );
    }

    #[test]
    fn cached_bases_change_reads_only() {
        let warm = ten_encoding_saves(Parallelism::Rayon, true);
        let cold = ten_encoding_saves(Parallelism::Rayon, false);
        assert_same_stored_bytes(&warm, &cold);

        // Everything that changes the store or a fault schedule's
        // write-side view of it happens in the same order.
        let writes = |run: &RunRecord| -> Vec<(&'static str, String)> {
            let reads = [
                "read",
                "read_range",
                "exists",
                "file_len",
                "list_dir",
                "mtime",
            ];
            let mut calls = run.calls.clone();
            calls.retain(|(op, _)| !reads.contains(op));
            calls
        };
        let (warm_writes, cold_writes) = (writes(&warm), writes(&cold));
        assert_eq!(warm_writes.len(), cold_writes.len());
        for (i, (w, c)) in warm_writes.iter().zip(&cold_writes).enumerate() {
            assert_eq!(w, c, "write-side call {i} differs");
        }

        // Whole-file reads per save (a save ends with the rename of its
        // staging directory): of objects, and of anything else but chain
        // markers and the predecessor's seal.
        let whole_reads = |run: &RunRecord| -> Vec<(usize, usize)> {
            let mut per_save = vec![(0, 0)];
            for (op, path) in &run.calls {
                let save = per_save.last_mut().expect("seeded");
                if *op == "read" && path.ends_with(".obj") {
                    save.0 += 1;
                } else if *op == "read"
                    && ![".delta", "COMMIT", "partial_manifest.json"]
                        .iter()
                        .any(|name| path.ends_with(name))
                {
                    save.1 += 1;
                } else if *op == "rename" && path.ends_with(".tmp") {
                    per_save.push((0, 0));
                }
            }
            per_save.truncate(10);
            per_save
        };
        let (warm_reads, cold_reads) = (whole_reads(&warm), whole_reads(&cold));
        assert!(warm_reads.iter().chain(&cold_reads).all(|r| r.1 == 0));
        // A cold save reads every hop of every base chain. A warm one reads
        // headers (`read_range`) and markers only — except save 7: save 6
        // re-staged nothing (all hits), so it left nothing behind.
        for (i, (warm, cold)) in warm_reads.iter().zip(&cold_reads).enumerate() {
            let has_bases = i != 0 && i != 5;
            assert_eq!(cold.0 > 0, has_bases, "cold save {}", i + 1);
            assert_eq!(
                warm.0,
                if i == 6 { cold.0 } else { 0 },
                "warm save {}",
                i + 1
            );
        }

        // The cache never holds more than what the save that just
        // committed missed: all of it, and nothing after the all-hits save.
        for (held, report) in warm.resident.iter().zip(&warm.reports) {
            assert_eq!(*held, report[1] + report[2] - report[4]);
        }
        assert_eq!(warm.resident[5], 0);
        assert!(warm.resident[9] > 0);
        assert!(cold.resident.iter().all(|held| *held == 0));
    }

    #[test]
    fn compressing_save_stores_what_the_one_selection_rule_picks() {
        // The engine's `Full` object for an image is the header plus
        // `codec::smallest_encoding` of it — the bytes a compaction of the
        // same image writes (`llmt_cas` checks that side).
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2);
        let live = LiveState {
            config: &cfg,
            params: &model.params,
            engine: &engine,
        };
        let dir = tempfile::tempdir().unwrap();
        let opts = SaveOptions {
            delta_chain: 0,
            ..encoding_opts(Parallelism::Rayon)
        };
        save_at(dir.path(), 1, &live, &ts, &opts).unwrap();
        let store = ObjectStore::for_run_root(dir.path());
        let mut encoded = 0;
        for (digest, _) in store.list(&LocalFs).unwrap() {
            let file = store.get(&LocalFs, digest).unwrap();
            if !codec::is_encoded(&file) {
                continue;
            }
            let image = store.materialize(&LocalFs, digest).unwrap();
            let (picked, payload) = codec::smallest_encoding(&image);
            let mut expected = codec::full_header(picked, image.len() as u64);
            expected.extend_from_slice(&payload);
            assert!(
                file == expected,
                "object {digest} was not encoded by the rule"
            );
            encoded += 1;
        }
        assert!(encoded > 0, "nothing was compressed");
    }

    /// [`LiveState`] whose rank-1 shards are rank 0's: every optimizer
    /// object appears under two keys of one save.
    struct MirroredRanks<'a>(LiveState<'a>);

    impl StateSource for MirroredRanks<'_> {
        fn model_config(&self) -> &ModelConfig {
            self.0.model_config()
        }
        fn group_specs(&self) -> &[GroupSpec] {
            self.0.group_specs()
        }
        fn world_size(&self) -> usize {
            self.0.world_size()
        }
        fn shard_len(&self, gid: usize) -> usize {
            self.0.shard_len(gid)
        }
        fn optimizer_step(&self) -> u64 {
            self.0.optimizer_step()
        }
        fn unit_weight_tensors(&self, unit: LayerUnit) -> Result<Vec<(String, RawTensor)>> {
            self.0.unit_weight_tensors(unit)
        }
        fn shard_tensors(&self, _rank: usize, gid: usize) -> Result<Vec<(String, RawTensor)>> {
            self.0.shard_tensors(0, gid)
        }
    }

    #[test]
    fn identical_content_under_two_keys_is_one_miss_and_one_hit() {
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2);
        let source = MirroredRanks(LiveState {
            config: &cfg,
            params: &model.params,
            engine: &engine,
        });
        // One unit with a single optimizer group puts the two copies on
        // consecutive keys (inside any window); the full selection puts
        // them a whole rank apart.
        for units in [vec![LayerUnit::EmbedTokens], LayerUnit::all(&cfg)] {
            let groups = source
                .group_specs()
                .iter()
                .filter(|g| g.unit.is_some_and(|u| units.contains(&u)))
                .count() as u64;
            for parallelism in [Parallelism::Rayon, Parallelism::Sequential] {
                let dir = tempfile::tempdir().unwrap();
                let metrics = MetricsRegistry::new();
                let paths = CheckpointPaths::under(dir.path(), 1);
                let req = SaveRequest {
                    dir: &paths.dir,
                    step: 1,
                    source: &source,
                    trainer_state: &ts,
                    units: &units,
                    metrics: &metrics,
                    store: None,
                    bases: None,
                };
                let report = save(&[&LocalFs], &req, &encoding_opts(parallelism))
                    .unwrap()
                    .report;
                assert_eq!(metrics.counter_value("cas.dedup.hits"), groups);
                assert_eq!(
                    metrics.counter_value("cas.dedup.misses"),
                    units.len() as u64 + groups
                );
                assert_eq!(report.dedup_bytes * 2, report.optim_bytes);
                let store = ObjectStore::for_run_root(dir.path());
                assert_eq!(
                    store.list(&LocalFs).unwrap().len() as u64,
                    units.len() as u64 + groups
                );
            }
        }
    }

    #[test]
    fn sequential_and_rayon_saves_are_byte_identical() {
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2);
        let live = LiveState {
            config: &cfg,
            params: &model.params,
            engine: &engine,
        };
        let mk_req = |parallelism: Parallelism| -> tempfile::TempDir {
            let dir = tempfile::tempdir().unwrap();
            let opts = SaveOptions {
                parallelism,
                chunk_bytes: 512,
                ..SaveOptions::default()
            };
            save_at(dir.path(), 7, &live, &ts, &opts).unwrap();
            dir
        };
        let da = mk_req(Parallelism::Sequential);
        let db = mk_req(Parallelism::Rayon);
        let pa = CheckpointPaths::under(da.path(), 7);
        let pb = CheckpointPaths::under(db.path(), 7);
        for f in [
            (pa.model(), pb.model()),
            (pa.optim_shard(0), pb.optim_shard(0)),
            (pa.optim_shard(1), pb.optim_shard(1)),
        ] {
            assert_eq!(std::fs::read(f.0).unwrap(), std::fs::read(f.1).unwrap());
        }
    }

    #[test]
    fn streamed_save_matches_seed_writer_bytes_and_report() {
        // The engine with a tiny chunk size must produce the exact same
        // payload files and accounting as the default configuration.
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 2);
        let live = LiveState {
            config: &cfg,
            params: &model.params,
            engine: &engine,
        };
        let mk = |opts: &SaveOptions| {
            let dir = tempfile::tempdir().unwrap();
            let report = save_at(dir.path(), 3, &live, &ts, opts).unwrap();
            (dir, report)
        };
        let (da, ra) = mk(&SaveOptions::default());
        let (db, rb) = mk(&SaveOptions {
            chunk_bytes: 64,
            ..SaveOptions::default()
        });
        assert_eq!(ra.total_bytes, rb.total_bytes);
        assert_eq!(ra.model_bytes, rb.model_bytes);
        assert_eq!(ra.optim_bytes, rb.optim_bytes);
        assert_eq!(ra.files_written, rb.files_written);
        let pa = CheckpointPaths::under(da.path(), 3);
        let pb = CheckpointPaths::under(db.path(), 3);
        assert_eq!(
            std::fs::read(pa.model()).unwrap(),
            std::fs::read(pb.model()).unwrap()
        );
    }

    #[test]
    fn timings_are_populated() {
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 1);
        let live = LiveState {
            config: &cfg,
            params: &model.params,
            engine: &engine,
        };
        let dir = tempfile::tempdir().unwrap();
        let report = save_at(dir.path(), 1, &live, &ts, &SaveOptions::default()).unwrap();
        // Sync saves never snapshot; the other stages all did real work.
        assert_eq!(report.timings.snapshot_ns, 0);
        assert!(report.timings.encode_ns > 0);
        assert!(report.timings.place_ns > 0);
        assert!(report.timings.commit_ns > 0);
        assert!(report.timings.total_secs() > 0.0);
    }

    #[test]
    fn empty_placement_list_is_a_typed_error() {
        let cfg = ModelConfig::tiny_test();
        let (model, engine, ts) = make_state(&cfg, 1);
        let dir = tempfile::tempdir().unwrap();
        let req = SaveRequest {
            dir: &dir.path().join("checkpoint-1"),
            step: 1,
            source: &LiveState {
                config: &cfg,
                params: &model.params,
                engine: &engine,
            },
            trainer_state: &ts,
            units: &LayerUnit::all(&cfg),
            metrics: &MetricsRegistry::new(),
            store: None,
            bases: None,
        };
        let err = save(&[], &req, &SaveOptions::default()).unwrap_err();
        assert!(matches!(err, CkptError::Incompatible(_)), "{err}");
        assert!(std::fs::read_dir(dir.path()).unwrap().next().is_none());
    }
}
