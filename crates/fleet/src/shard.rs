//! One decoder shard: a set of per-victim [`OnlineDecoder`]s plus the
//! shard-scoped checkpoint codec.
//!
//! A shard owns every victim the ring routes to it. Each victim gets
//! its own decoder (sessions are independent; the engine's internal
//! flow demux handles one victim's reconnect flows), created lazily on
//! the victim's first packet and evicted once the victim has been
//! idle past the configured horizon — so shard memory is bounded by
//! victim *concurrency* × the per-decoder bound, never by how many
//! victims ever streamed through.
//!
//! The resident table is one sorted victim-id index beside one entry
//! per victim (its boxed decoder and last-seen time), kept in the same
//! order: a packet costs one binary search over dense ids, a
//! first-contact insert shifts ids and pointers but never a decoder,
//! and every walk — blob records, eviction, `finish_all` — runs in
//! ascending victim order.
//!
//! A shard checkpoint is one streaming-decoder checkpoint blob (see
//! [`wm_core::online::checkpoint`]): the header — graph fingerprint,
//! decoder config, classifier — once, then one length-prefixed record
//! per live decoder in victim-id order, sealed by a CRC-32. It is
//! byte-deterministic and restorable as a unit. A [`ShardEnvelope`]
//! borrows the records straight from the blob, so a resize can split
//! or splice victims by copying byte ranges and re-sealing. Restore
//! errors name the shard slot, and the victim when one record fails,
//! so supervisor logs are actionable.

use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_core::online::{
    graph_fingerprint, restore_record, split_records, Blob, BlobHeader, BlobWriter,
    CheckpointError, OnlineConfig, OnlineDecoder, OnlineVerdict, RecordRef,
};
use wm_core::IntervalClassifier;
use wm_story::StoryGraph;
use wm_telemetry::Registry;

/// How a process-shard worker failed, as seen from the supervisor.
/// Folded into [`ShardRestoreErrorKind::Worker`] when the failure
/// happened on the restore path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker binary could not be spawned.
    Spawn,
    /// A pipe to the worker broke mid-exchange (the child died).
    Io,
    /// The worker sent bytes that do not decode as a protocol frame.
    Protocol,
    /// The worker replied with an internal error it could not type.
    Remote,
}

impl WorkerFault {
    pub fn label(self) -> &'static str {
        match self {
            WorkerFault::Spawn => "spawn",
            WorkerFault::Io => "io",
            WorkerFault::Protocol => "protocol",
            WorkerFault::Remote => "remote",
        }
    }

    /// Stable numeric code for trace instants.
    pub fn code(self) -> u64 {
        match self {
            WorkerFault::Spawn => 0,
            WorkerFault::Io => 1,
            WorkerFault::Protocol => 2,
            WorkerFault::Remote => 3,
        }
    }
}

/// Why a shard checkpoint failed to restore. Always names the shard
/// slot the failure happened on, so a supervisor retrying during
/// backoff — and the recovery bench attributing latency — can charge
/// the failure to the right shard without re-deriving it from call
/// context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRestoreError {
    /// The shard slot whose restore failed.
    pub shard: u32,
    pub kind: ShardRestoreErrorKind,
}

/// What went wrong inside a failed shard restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRestoreErrorKind {
    /// The shard blob itself is damaged (torn, bad magic or version,
    /// CRC mismatch, wrong film). Carries the underlying checkpoint
    /// error, which names the offending field or byte offset.
    Envelope(CheckpointError),
    /// One embedded victim checkpoint failed to restore.
    Victim(u32, CheckpointError),
    /// The process-shard worker hosting the restore died or answered
    /// garbage before the blob's own validity was established.
    Worker(WorkerFault),
}

impl std::fmt::Display for ShardRestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shard = self.shard;
        match &self.kind {
            ShardRestoreErrorKind::Envelope(e) => write!(f, "shard {shard} envelope: {e}"),
            ShardRestoreErrorKind::Victim(v, e) => {
                write!(f, "shard {shard} victim {v} checkpoint: {e}")
            }
            ShardRestoreErrorKind::Worker(w) => {
                write!(f, "shard {shard} worker fault: {}", w.label())
            }
        }
    }
}

impl std::error::Error for ShardRestoreError {}

/// One resident victim: its decoder and when its last packet arrived.
struct Resident {
    seen: SimTime,
    decoder: Box<OnlineDecoder>,
}

/// The live state of one shard.
pub struct ShardState {
    shard: u32,
    classifier: IntervalClassifier,
    graph: Arc<StoryGraph>,
    graph_fp: u64,
    cfg: OnlineConfig,
    /// Resident victim ids, ascending.
    ids: Vec<u32>,
    /// `residents[i]` belongs to `ids[i]`.
    residents: Vec<Resident>,
    /// Shard-scoped registry the observability plane aggregates;
    /// attached to every decoder, current and future. Not part of the
    /// checkpoint (observation never feeds simulated state), so the
    /// supervisor re-attaches after a restore.
    registry: Option<Arc<Registry>>,
    /// Length of the last blob this shard wrote: the next one's
    /// record reserve (its header and CRC included, a few bytes over).
    blob_len: usize,
}

impl ShardState {
    pub fn new(
        shard: u32,
        classifier: IntervalClassifier,
        graph: Arc<StoryGraph>,
        cfg: OnlineConfig,
    ) -> Self {
        ShardState {
            shard,
            classifier,
            graph_fp: graph_fingerprint(&graph),
            graph,
            cfg,
            ids: Vec::new(),
            residents: Vec::new(),
            registry: None,
            blob_len: 0,
        }
    }

    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Attach a shard-scoped telemetry registry: every live decoder
    /// gets its `online.*` metrics pointed at it, and decoders created
    /// later (first contact or restore) inherit it.
    pub fn set_registry(&mut self, registry: Arc<Registry>) {
        for r in &mut self.residents {
            r.decoder.attach_telemetry(&registry);
        }
        self.registry = Some(registry);
    }

    /// Publish every live decoder's accumulated event counts into the
    /// shard registry. The supervisor calls this right before each
    /// observer snapshot so tick values are exact without the decoders
    /// paying per-event atomic updates on the decode path.
    pub fn flush_telemetry(&mut self) {
        for r in &mut self.residents {
            r.decoder.flush_telemetry();
        }
    }

    /// Victims with a live decoder.
    pub fn live_victims(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.iter().copied()
    }

    pub fn live_victim_count(&self) -> usize {
        self.ids.len()
    }

    /// Sum of every live decoder's resident state.
    pub fn state_bytes(&self) -> usize {
        self.residents.iter().map(|r| r.decoder.state_bytes()).sum()
    }

    /// Where `victim` sits in the resident table: `Ok(i)` when it is
    /// resident, else `Err(i)` with the index that keeps ids sorted.
    // wm-lint: hotpath
    fn resident(&self, victim: u32) -> Result<usize, usize> {
        self.ids.binary_search(&victim)
    }

    /// Feed one packet for `victim`, creating its decoder on first
    /// contact. If the shard is at `max_victims`, the stalest victim
    /// is evicted first (finished through `out` so its tail verdicts
    /// are not lost). Emitted verdicts are appended to `out` tagged
    /// with their victim.
    pub fn feed(
        &mut self,
        victim: u32,
        time: SimTime,
        frame: &[u8],
        max_victims: usize,
        out: &mut Vec<(u32, OnlineVerdict)>,
    ) {
        let i = match self.resident(victim) {
            Ok(i) => i,
            Err(_) => self.admit(victim, max_victims, out),
        };
        let Some(r) = self.residents.get_mut(i) else {
            return;
        };
        r.seen = time;
        for v in r.decoder.push_packet(time, frame) {
            out.push((victim, v));
        }
    }

    /// First contact: evict the stalest victims (earliest last-seen,
    /// lowest id on ties) until there is room, then install a fresh
    /// decoder for `victim`. Returns its table index.
    fn admit(
        &mut self,
        victim: u32,
        max_victims: usize,
        out: &mut Vec<(u32, OnlineVerdict)>,
    ) -> usize {
        while self.ids.len() >= max_victims.max(1) {
            let Some((stalest, _)) = self
                .residents
                .iter()
                .zip(&self.ids)
                .enumerate()
                .min_by_key(|(_, (r, &id))| (r.seen, id))
            else {
                break;
            };
            self.evict_at(stalest, out);
        }
        let mut dec = OnlineDecoder::new(
            self.classifier.clone(),
            self.graph.clone(),
            self.cfg.clone(),
        );
        if let Some(reg) = &self.registry {
            dec.attach_telemetry(reg);
        }
        self.install(victim, SimTime::ZERO, dec)
    }

    /// Put `dec` in the table as `victim`'s decoder, replacing any
    /// decoder it already has. Returns its table index.
    fn install(&mut self, victim: u32, seen: SimTime, dec: OnlineDecoder) -> usize {
        let resident = Resident {
            seen,
            decoder: Box::new(dec),
        };
        match self.resident(victim) {
            Ok(i) => {
                if let Some(slot) = self.residents.get_mut(i) {
                    *slot = resident;
                }
                i
            }
            Err(i) => {
                self.ids.insert(i, victim);
                self.residents.insert(i, resident);
                i
            }
        }
    }

    /// Evict every victim idle since before `now - idle`, finishing
    /// its decoder through `out`. Returns the evicted victims.
    pub fn evict_idle(
        &mut self,
        now: SimTime,
        idle: Duration,
        out: &mut Vec<(u32, OnlineVerdict)>,
    ) -> Vec<u32> {
        let cutoff = now.micros().saturating_sub(idle.micros());
        let mut stale = Vec::new();
        let mut i = 0;
        while let (Some(r), Some(&id)) = (self.residents.get(i), self.ids.get(i)) {
            if r.seen.micros() < cutoff {
                stale.push(id);
                self.evict_at(i, out);
            } else {
                i += 1;
            }
        }
        stale
    }

    /// Finish and drop every decoder (end of input).
    pub fn finish_all(&mut self, out: &mut Vec<(u32, OnlineVerdict)>) -> Vec<u32> {
        let all = std::mem::take(&mut self.ids);
        for (&victim, mut r) in all.iter().zip(std::mem::take(&mut self.residents)) {
            for v in r.decoder.finish() {
                out.push((victim, v));
            }
        }
        all
    }

    /// Take table entry `i` out: its victim id and resident.
    fn remove_at(&mut self, i: usize) -> (u32, Resident) {
        (self.ids.remove(i), self.residents.remove(i))
    }

    /// Finish and drop the decoder at table index `i`.
    fn evict_at(&mut self, i: usize, out: &mut Vec<(u32, OnlineVerdict)>) {
        let (victim, mut r) = self.remove_at(i);
        for v in r.decoder.finish() {
            out.push((victim, v));
        }
    }

    // -- shard-scoped checkpointing -----------------------------------

    /// The header every blob this shard writes carries.
    pub fn header(&self, taken: SimTime) -> BlobHeader {
        BlobHeader {
            shard: self.shard,
            taken,
            graph_fp: self.graph_fp,
            cfg: self.cfg.clone(),
            classifier: self.classifier.clone(),
        }
    }

    /// Serialize the whole shard into one checkpoint blob. Resets each
    /// decoder's cadence clock, like the per-decoder API.
    pub fn checkpoint(&mut self, taken: SimTime) -> Vec<u8> {
        let mut blob = BlobWriter::new(&self.header(taken), self.blob_len);
        for (&id, r) in self.ids.iter().zip(&mut self.residents) {
            blob.push_decoder(id, r.seen, &mut r.decoder);
        }
        let sealed = blob.finish();
        self.blob_len = sealed.len();
        sealed
    }

    /// Replace this shard's victims with a blob written by
    /// [`ShardState::checkpoint`], rebuilding them on this shard's own
    /// graph and keeping its classifier, config and telemetry registry;
    /// the shard takes the blob's shard id. Errors are attributed to
    /// `slot`, and leave the shard as it was.
    pub fn reload(&mut self, slot: u32, bytes: &[u8]) -> Result<(), ShardRestoreError> {
        let envelope = parse_envelope(slot, bytes)?;
        let header = &envelope.header;
        if header.graph_fp != self.graph_fp {
            return Err(ShardRestoreError {
                shard: slot,
                kind: ShardRestoreErrorKind::Envelope(CheckpointError::GraphMismatch),
            });
        }
        let mut decoders = Vec::with_capacity(envelope.records.len());
        for rec in &envelope.records {
            let mut dec = restore_record(rec, &header.classifier, &header.cfg, self.graph.clone())
                .map_err(|e| ShardRestoreError {
                    shard: slot,
                    kind: ShardRestoreErrorKind::Victim(rec.victim, e),
                })?;
            if let Some(reg) = &self.registry {
                dec.attach_telemetry(reg);
            }
            decoders.push((rec.victim, rec.seen, dec));
        }
        self.shard = header.shard;
        self.ids.clear();
        self.residents.clear();
        for (victim, seen, dec) in decoders {
            self.install(victim, seen, dec);
        }
        Ok(())
    }

    // -- live resharding ----------------------------------------------

    /// Pull the listed victims out of this shard as migration units:
    /// each entry is `(victim, last_seen, record)`, the exact framed
    /// record a shard blob carries, taken *live* (no rollback — the
    /// decoder's full state moves, so a fault-free drain is lossless).
    /// Victims without a live decoder are skipped: they hold no state
    /// to move and will simply start cold on their new owner at their
    /// next packet.
    pub fn drain_victims(&mut self, victims: &[u32]) -> Vec<(u32, SimTime, Vec<u8>)> {
        let mut out = Vec::with_capacity(victims.len());
        for &victim in victims {
            let Ok(i) = self.resident(victim) else {
                continue;
            };
            let (_, Resident { seen, mut decoder }) = self.remove_at(i);
            // The checkpoint publishes buffered event counts to the
            // shard the events happened on, before the decoder's
            // registry attachment is dropped with it.
            let mut record = Vec::new();
            decoder.checkpoint_record(victim, seen, &mut record);
            out.push((victim, seen, record));
        }
        out
    }

    /// Install a migrated victim from its record (the inverse of
    /// [`ShardState::drain_victims`]). The record's decoder takes this
    /// shard's config and classifier, which its fleet shares; it
    /// inherits this shard's telemetry registry.
    pub fn adopt_victim(&mut self, rec: &RecordRef<'_>) -> Result<(), CheckpointError> {
        let mut dec = restore_record(rec, &self.classifier, &self.cfg, self.graph.clone())?;
        if let Some(reg) = &self.registry {
            dec.attach_telemetry(reg);
        }
        self.install(rec.victim, rec.seen, dec);
        Ok(())
    }
}

/// A parsed shard checkpoint: the blob header plus every victim's
/// record, borrowed from the blob bytes and not yet decoded. The unit
/// the resize protocol splits ([`Blob::reseal`]) when it migrates
/// victims out of a *dead* shard's stored blob.
pub type ShardEnvelope<'a> = Blob<'a>;

/// Parse a shard checkpoint blob into its envelope, attributing any
/// damage to supervisor slot `slot`.
// wm-lint: parse-root
pub fn parse_envelope(slot: u32, bytes: &[u8]) -> Result<ShardEnvelope<'_>, ShardRestoreError> {
    Blob::parse(bytes).map_err(|e| ShardRestoreError {
        shard: slot,
        kind: ShardRestoreErrorKind::Envelope(e),
    })
}

/// Frame exactly one migrated record (a `Drained`/`Adopt` unit).
// wm-lint: parse-root
pub fn one_record(bytes: &[u8]) -> Result<RecordRef<'_>, CheckpointError> {
    match split_records(bytes, 0)?.as_slice() {
        [rec] => Ok(*rec),
        _ => Err(CheckpointError::Malformed("records")),
    }
}
