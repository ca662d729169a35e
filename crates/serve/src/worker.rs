//! Worker node: a thread owning live containers.
//!
//! Work arrives on two channels. The *inference* channel is bounded
//! ([`crate::ServingConfig::queue_depth`]) — the gateway's admission
//! control rejects with a `429` instead of growing it — and is drained in
//! per-model batches: after the first request the worker waits up to
//! `max_batch_wait_us` for the batch to fill, then serves each model's
//! group with one container acquisition (warm match, donor scan,
//! transformation or cold start, store accounting) amortised across the
//! group. Each request still runs its own forward pass, so responses are
//! byte-identical whether or not they were batched. The *control*
//! channel (crashes, kills, warm transfers) is unbounded and checked
//! before every batch so fleet events are never dropped or stuck behind
//! queued inference work.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use optimus_core::{execute_plan, ModelRepository, PlanChunks, TransformDecision};
use optimus_model::tensor::Tensor;
use optimus_model::{infer, InternKey, ModelGraph, ModelId};
use optimus_predict::SpecCandidate;
use optimus_store::{model_chunks, ChunkRef, NodeStore, StoreConfig, StoreStats, Tier};
use optimus_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, Phase, Span, TelemetrySink};
use parking_lot::Mutex;

use crate::api::{GatewayConfig, InferenceResponse, ServeError, ServedStart};
use crate::predict::PredictShared;

/// An inference request as delivered to a worker. Models are addressed by
/// their interned [`ModelId`] — the gateway resolves the client-facing
/// name exactly once; the worker's warm/donor matching is integer
/// comparison, not string comparison.
pub(crate) struct InferItem {
    pub model_id: ModelId,
    pub input: Tensor,
    /// When the gateway accepted the request (queue-wait measurement).
    pub enqueued: Instant,
    /// Injected transform failure (`optimus-faults`): the first attempted
    /// in-place transformation for this request aborts and the safeguard
    /// escalates to a cold start.
    pub fail_transform: bool,
    pub reply: Sender<Result<InferenceResponse, ServeError>>,
}

/// A fleet/fault event for a worker thread, delivered on the unbounded
/// control channel so it can never be rejected by admission control.
pub(crate) enum ControlItem {
    /// Node crash: all live containers die and the weight store loses its
    /// volatile tiers ([`NodeStore::crash`]); durable disk state survives.
    Crash,
    /// Kill the least-recently-used container (OOM-killer analogue).
    Kill,
    /// Fleet scale-out shipped these chunks to the joining node ahead of
    /// traffic: place them at node memory ([`NodeStore::warm`]) so its
    /// first requests hit locally instead of fetching from the origin.
    Warm(Vec<ChunkRef>),
}

/// A live container: a real model graph plus usage timestamps.
struct LiveContainer {
    model: ModelGraph,
    model_id: ModelId,
    last_used: Instant,
    /// The container was produced by a speculative transform and has not
    /// served a request since: its first warm hit is a prediction hit
    /// (flag cleared); dying with the flag set is a misprediction.
    /// Always `false` with prediction off.
    speculated: bool,
}

/// Per-node weight-store accounting plus its telemetry handles.
///
/// The live engine measures real wall-clock, so the store never injects
/// latency here; it tracks which chunks each container lifecycle event
/// would move between tiers and exports residency/dedup metrics.
pub(crate) struct WorkerStore {
    node_id: usize,
    store: NodeStore,
    chunk_bytes: u64,
    /// Chunk lists and plan splits are deterministic per registered
    /// model (pair): computed once, keyed by interned id, and dropped when
    /// the repository installs a new registration batch
    /// ([`ModelRepository::catalog_epoch`] moves) — a re-registered name
    /// keeps its id but may carry different tensors.
    model_chunks: HashMap<ModelId, Arc<[ChunkRef]>>,
    plan_chunks: HashMap<(ModelId, ModelId), Arc<PlanChunks>>,
    cached_epoch: u64,
    /// Resident-byte gauges for the three local tiers, warmest first:
    /// container, node memory, node disk.
    resident: [Gauge; 3],
    dedup: Gauge,
    hits: Counter,
    misses: Counter,
    reported_hits: u64,
    reported_misses: u64,
    shared: Arc<Mutex<HashMap<usize, StoreStats>>>,
}

impl WorkerStore {
    fn new(
        node_id: usize,
        config: StoreConfig,
        repo: &ModelRepository,
        metrics: &MetricsRegistry,
        shared: Arc<Mutex<HashMap<usize, StoreStats>>>,
    ) -> WorkerStore {
        let mut store = NodeStore::new(config);
        // Pin every cached plan's payload so LRU pressure cannot evict
        // the transformation working set (§4.4's cached plans stay hot).
        store.pin(&repo.plan_referenced_chunks(config.chunk_bytes));
        let node = node_id.to_string();
        let resident = [Tier::Container, Tier::NodeMemory, Tier::NodeDisk].map(|tier| {
            metrics.gauge(
                "optimus_store_resident_bytes",
                &[("node", &node), ("tier", tier.name())],
            )
        });
        WorkerStore {
            node_id,
            store,
            chunk_bytes: config.chunk_bytes,
            model_chunks: HashMap::new(),
            plan_chunks: HashMap::new(),
            cached_epoch: repo.catalog_epoch(),
            resident,
            dedup: metrics.gauge("optimus_store_dedup_ratio", &[("node", &node)]),
            hits: metrics.counter("optimus_store_chunk_hits_total", &[("node", &node)]),
            misses: metrics.counter("optimus_store_chunk_misses_total", &[("node", &node)]),
            reported_hits: 0,
            reported_misses: 0,
            shared,
        }
    }

    /// Forget every cached chunking if the catalog changed under it.
    fn revalidate(&mut self, repo: &ModelRepository) {
        let epoch = repo.catalog_epoch();
        if epoch != self.cached_epoch {
            self.model_chunks.clear();
            self.plan_chunks.clear();
            self.cached_epoch = epoch;
        }
    }

    fn chunks_of(&mut self, repo: &ModelRepository, id: ModelId) -> Arc<[ChunkRef]> {
        self.revalidate(repo);
        let chunk_bytes = self.chunk_bytes;
        self.model_chunks
            .entry(id)
            .or_insert_with(|| {
                repo.model_by_id(id)
                    .map(|m| model_chunks(&m, chunk_bytes))
                    .unwrap_or_default()
                    .into()
            })
            .clone()
    }

    /// The cached `src → dst` plan's chunk split; `None` when the
    /// repository holds no such plan (never cached, so a later install
    /// that adds it is seen without waiting for the epoch).
    fn plan_chunks_of(
        &mut self,
        repo: &ModelRepository,
        src: ModelId,
        dst: ModelId,
    ) -> Option<Arc<PlanChunks>> {
        self.revalidate(repo);
        if let Some(pc) = self.plan_chunks.get(&(src, dst)) {
            return Some(pc.clone());
        }
        let pc = Arc::new(repo.plan_chunks_by_id(src, dst, self.chunk_bytes)?);
        self.plan_chunks.insert((src, dst), pc.clone());
        Some(pc)
    }

    /// A cold start admits the full model.
    fn admit_model(&mut self, repo: &ModelRepository, id: ModelId) {
        let chunks = self.chunks_of(repo, id);
        self.store.admit(&chunks);
    }

    /// A transformation fetches only the cached plan's payload delta; the
    /// rest of the destination is synthesized in place from the donor.
    fn transform(&mut self, repo: &ModelRepository, src: ModelId, dst: ModelId) {
        match self.plan_chunks_of(repo, src, dst) {
            Some(pc) => {
                self.store.admit(&pc.fetched);
                self.store.produce(&pc.reused);
            }
            // No cached plan chunks (shouldn't happen when a plan was just
            // applied): account a full admission.
            None => self.admit_model(repo, dst),
        }
        let src_chunks = self.chunks_of(repo, src);
        self.store.release(&src_chunks);
    }

    /// Container eviction demotes its chunks instead of forgetting them.
    fn release_model(&mut self, repo: &ModelRepository, id: ModelId) {
        let chunks = self.chunks_of(repo, id);
        self.store.release(&chunks);
    }

    /// Node crash: volatile tiers are lost wholesale (refcounts zeroed,
    /// container/memory-resident chunks forgotten, pinned chunks demoted
    /// to remote placeholders); disk state survives the reboot.
    fn crash(&mut self) {
        self.store.crash();
    }

    /// A scale-out shipped `chunks` to this node: place them at node
    /// memory without touching hit/miss accounting (the transfer is
    /// proactive fleet traffic, not a request-driven fetch).
    fn warm(&mut self, chunks: &[ChunkRef]) {
        self.store.warm(chunks);
    }

    /// Push current stats into the metrics registry and the shared
    /// per-node snapshot map read by `Gateway::store_stats`.
    fn publish(&mut self) {
        let stats = self.store.stats();
        self.resident[0].set(stats.container_bytes as f64);
        self.resident[1].set(stats.memory_bytes as f64);
        self.resident[2].set(stats.disk_bytes as f64);
        self.dedup.set(stats.dedup_ratio);
        self.hits.add(stats.hits - self.reported_hits);
        self.misses.add(stats.misses - self.reported_misses);
        self.reported_hits = stats.hits;
        self.reported_misses = stats.misses;
        self.shared.lock().insert(self.node_id, stats);
    }
}

/// Counters a worker bumps when the resilience machinery engages.
struct FaultCounters {
    /// Transformations that failed (injected or real) and escalated to a
    /// cold start instead of surfacing an error to the client.
    escalations: Counter,
    /// Transform executions that blew their cost-model budget
    /// ([`ModelRepository::note_transform_seconds`] demoted the pair).
    overruns: Counter,
    /// Containers destroyed by injected crash/kill events.
    evictions: Counter,
}

/// Everything a worker turn needs besides the containers themselves.
struct WorkerState {
    node_id: usize,
    config: GatewayConfig,
    repo: Arc<ModelRepository>,
    sink: Arc<dyn TelemetrySink>,
    containers_gauge: Gauge,
    /// Live depth of this node's bounded admission queue
    /// (`optimus_serve_queue_depth`): the gateway adds on enqueue, the
    /// worker subtracts on dequeue.
    depth_gauge: Gauge,
    /// Size of every same-model group served (`optimus_serve_batch_size`).
    batch_hist: Histogram,
    counters: FaultCounters,
    store: Option<WorkerStore>,
    /// Arrival predictor shared with the gateway (`None`: prediction
    /// off): adaptive keep-alive windows + speculation outcome counters.
    predict: Option<Arc<PredictShared>>,
    /// Node per model (by `ModelId::index()`): which models this node
    /// would serve, hence which it may speculate on.
    placement: Arc<Vec<usize>>,
}

impl WorkerState {
    /// The keep-alive window for one container: the predictor's learned
    /// per-model window, or the global config value with prediction off.
    fn keep_alive_window(&self, id: ModelId) -> f64 {
        match self.predict.as_ref() {
            Some(ps) => ps.window(id.index()),
            None => self.config.keep_alive,
        }
    }

    /// Count a container dying with its speculation unconsumed.
    fn note_dead_speculation(&self, speculated: bool) {
        note_dead_spec(self.predict.as_deref(), speculated);
    }

    fn handle_control(&mut self, item: ControlItem, containers: &mut Vec<LiveContainer>) {
        match item {
            ControlItem::Crash => {
                self.counters.evictions.add(containers.len() as u64);
                for c in containers.iter() {
                    self.note_dead_speculation(c.speculated);
                }
                containers.clear();
                if let Some(ws) = self.store.as_mut() {
                    ws.crash();
                    ws.publish();
                }
                self.containers_gauge.set(0.0);
            }
            ControlItem::Warm(chunks) => {
                if let Some(ws) = self.store.as_mut() {
                    ws.warm(&chunks);
                    ws.publish();
                }
            }
            ControlItem::Kill => {
                if let Some(victim) = containers
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| c.last_used)
                    .map(|(i, _)| i)
                {
                    let dead = containers.swap_remove(victim);
                    self.counters.evictions.inc();
                    self.note_dead_speculation(dead.speculated);
                    if let Some(ws) = self.store.as_mut() {
                        ws.release_model(&self.repo, dead.model_id);
                        ws.publish();
                    }
                }
                self.containers_gauge.set(containers.len() as f64);
            }
        }
    }
}

/// Worker main loop: owns its containers; batches the bounded inference
/// queue per model until it closes. Every served request is measured by a
/// telemetry [`Span`] and exported through `sink`; an
/// `optimus_containers` gauge tracks pool occupancy,
/// `optimus_serve_queue_depth`/`optimus_serve_batch_size` track admission
/// and batching, and, when the store is enabled, per-tier residency
/// gauges plus chunk hit/miss counters track the weight store.
/// `Crash`/`Kill` control items from the gateway's fault plan destroy
/// container state (and volatile store tiers) in between batches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_worker(
    node_id: usize,
    config: GatewayConfig,
    repo: Arc<ModelRepository>,
    infer_rx: Receiver<InferItem>,
    ctrl_rx: Receiver<ControlItem>,
    sink: Arc<dyn TelemetrySink>,
    metrics: Arc<MetricsRegistry>,
    store_stats: Arc<Mutex<HashMap<usize, StoreStats>>>,
    predict: Option<Arc<PredictShared>>,
    placement: Arc<Vec<usize>>,
) {
    let node = node_id.to_string();
    let mut state = WorkerState {
        node_id,
        config,
        repo: repo.clone(),
        sink,
        containers_gauge: metrics.gauge("optimus_containers", &[("node", &node)]),
        depth_gauge: metrics.gauge("optimus_serve_queue_depth", &[("node", &node)]),
        batch_hist: metrics.histogram_with_bounds(
            "optimus_serve_batch_size",
            &[("node", &node)],
            || vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        ),
        counters: FaultCounters {
            escalations: metrics.counter("optimus_safeguard_escalations_total", &[("node", &node)]),
            overruns: metrics.counter("optimus_transform_overruns_total", &[("node", &node)]),
            evictions: metrics.counter("optimus_fault_evictions_total", &[("node", &node)]),
        },
        store: config
            .store
            .map(|sc| WorkerStore::new(node_id, sc, &repo, &metrics, store_stats)),
        predict,
        placement,
    };
    // Publish the empty-store baseline so `/store` reports every node
    // from the first request onward.
    if let Some(ws) = state.store.as_mut() {
        ws.publish();
    }
    let mut containers: Vec<LiveContainer> = Vec::new();
    let max_batch = config.serving.max_batch.max(1);
    let window = Duration::from_micros(config.serving.max_batch_wait_us);
    loop {
        // Control events do not wait behind queued inference work.
        while let Some(ev) = ctrl_rx.try_recv() {
            state.handle_control(ev, &mut containers);
        }
        // Idle tick: wake periodically so control events (and shutdown)
        // are noticed even when no requests arrive. With prediction on,
        // an idle tick also runs maintenance: adaptive keep-alive sweeps
        // and — because the inference queue is empty right now — any due
        // speculative transforms, so speculation never delays a real
        // request.
        let first = match infer_rx.recv_timeout(Duration::from_millis(20)) {
            Ok(item) => item,
            Err(RecvTimeoutError::Timeout) => {
                if state.predict.is_some() {
                    idle_maintenance(&mut state, &mut containers);
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut batch = vec![first];
        if max_batch > 1 {
            let deadline = Instant::now() + window;
            while batch.len() < max_batch {
                // Drain what is already queued, then wait out the window.
                if let Some(item) = infer_rx.try_recv() {
                    batch.push(item);
                    continue;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match infer_rx.recv_timeout(deadline - now) {
                    Ok(item) => batch.push(item),
                    Err(_) => break,
                }
            }
        }
        state.depth_gauge.add(-(batch.len() as f64));
        // A fault event drawn alongside a request in this batch must land
        // before the batch is served (single-channel FIFO equivalence).
        while let Some(ev) = ctrl_rx.try_recv() {
            state.handle_control(ev, &mut containers);
        }
        // Partition into per-model groups, preserving arrival order;
        // different models arriving in one window are never co-batched.
        let mut groups: Vec<(ModelId, Vec<InferItem>)> = Vec::new();
        for item in batch {
            match groups.iter_mut().find(|(id, _)| *id == item.model_id) {
                Some((_, g)) => g.push(item),
                None => groups.push((item.model_id, vec![item])),
            }
        }
        for (model_id, group) in groups {
            serve_group(&mut state, &mut containers, model_id, group);
        }
    }
    // Late control events (e.g. a crash racing a drain) are dropped with
    // the node.
}

/// Serve one same-model group: acquire the container once, then run each
/// request's own forward pass. The first request pays (and reports) the
/// acquisition — cold, transformed or warm — and the rest are warm hits
/// on the container it produced, exactly as if they had arrived
/// sequentially.
fn serve_group(
    state: &mut WorkerState,
    containers: &mut Vec<LiveContainer>,
    model_id: ModelId,
    group: Vec<InferItem>,
) {
    let batch_size = group.len();
    state.batch_hist.observe(batch_size as f64);
    // Telemetry labels resolve the interned id back to its name once per
    // group, here at the edge.
    let name = state
        .repo
        .model_name_of(model_id)
        .unwrap_or_else(|| format!("model#{}", model_id.0));
    // Keep-alive eviction: expired containers release their chunks, which
    // demotes them to node memory rather than forgetting them.
    sweep_expired(state, containers);
    let mut acquired: Option<Obtained> = None;
    for item in group {
        let wait = item.enqueued.elapsed().as_secs_f64();
        let mut span = Span::begin(name.clone(), state.node_id);
        span.add(Phase::Wait, wait);
        let obtained = match acquired.take() {
            // Followers hit the container the group leader acquired.
            Some(prev) => Ok(Obtained {
                slot: prev.slot,
                start: ServedStart::Warm,
                startup_seconds: 0.0,
                transform_steps: 0,
                plan_cache_hit: None,
            }),
            None => obtain_container(
                &state.config,
                &state.repo,
                containers,
                state.store.as_mut(),
                &item,
                &name,
                &state.counters,
                state.predict.as_deref(),
            ),
        };
        let result = obtained.and_then(|obtained| {
            span.set_kind(obtained.start.into());
            span.add(Phase::Load, obtained.startup_seconds);
            span.set_transform_steps(obtained.transform_steps);
            if let Some(hit) = obtained.plan_cache_hit {
                span.set_plan_cache_hit(hit);
            }
            let slot = obtained.slot;
            let t0 = Instant::now();
            let output = infer::run(&containers[slot].model, item.input.clone())
                .map_err(|e| ServeError::Inference(e.to_string()))?;
            let compute_seconds = t0.elapsed().as_secs_f64();
            span.add(Phase::Compute, compute_seconds);
            containers[slot].last_used = Instant::now();
            let response = InferenceResponse {
                model: name.clone(),
                output,
                start: obtained.start,
                wait_seconds: wait,
                startup_seconds: obtained.startup_seconds,
                compute_seconds,
                node: state.node_id,
                transform_steps: obtained.transform_steps,
                batch_size,
            };
            acquired = Some(obtained);
            Ok(response)
        });
        if result.is_ok() {
            state.sink.record(&span.finish());
        }
        // The client may have given up; a dead reply channel is fine.
        let _ = item.reply.send(result);
    }
    state.containers_gauge.set(containers.len() as f64);
    if let Some(ws) = state.store.as_mut() {
        ws.publish();
    }
}

/// Count a container dying with its speculation unconsumed (no-op with
/// prediction off or an unspeculated container).
fn note_dead_spec(predict: Option<&PredictShared>, speculated: bool) {
    if speculated {
        if let Some(ps) = predict {
            ps.spec_mispredictions.inc();
        }
    }
}

/// Keep-alive sweep: evict containers idle past their window (the
/// predictor's per-model window when prediction is on, the global
/// `keep_alive` otherwise). Expired chunks are released (demoted, not
/// forgotten); a speculated container expiring unconsumed counts as a
/// misprediction.
fn sweep_expired(state: &mut WorkerState, containers: &mut Vec<LiveContainer>) {
    let now = Instant::now();
    let mut expired = Vec::new();
    containers.retain(|c| {
        let keep =
            now.duration_since(c.last_used).as_secs_f64() <= state.keep_alive_window(c.model_id);
        if !keep {
            expired.push((c.model_id, c.speculated));
        }
        keep
    });
    for &(id, speculated) in &expired {
        state.note_dead_speculation(speculated);
        if let Some(ws) = state.store.as_mut() {
            ws.release_model(&state.repo, id);
        }
    }
}

/// Idle-tick maintenance with prediction on: sweep adaptive keep-alive
/// windows, then execute any due speculative transforms. Runs only when
/// the inference queue has been empty for a full tick, so speculation
/// work never preempts a real request.
fn idle_maintenance(state: &mut WorkerState, containers: &mut Vec<LiveContainer>) {
    let before = containers.len();
    sweep_expired(state, containers);
    if containers.len() != before {
        state.containers_gauge.set(containers.len() as f64);
        if let Some(ws) = state.store.as_mut() {
            ws.publish();
        }
    }
    let Some(ps) = state.predict.clone() else {
        return;
    };
    if ps.speculation().is_none() {
        return;
    }
    // Models placed on this node, not currently warm here, whose forecast
    // arrival band is due — accepted only when an idle donor is actually
    // available right now. Rejected candidates stay armed, so a later
    // tick (or a model's own node) can still claim them.
    let now = Instant::now();
    let have_donor = containers.iter().any(|c| {
        !c.speculated
            && now.duration_since(c.last_used).as_secs_f64() >= state.config.idle_threshold
    });
    let due = ps.due(|idx| {
        have_donor
            && state.placement.get(idx) == Some(&state.node_id)
            && !containers.iter().any(|c| c.model_id.index() == idx)
    });
    for idx in due {
        speculate_one(state, containers, &ps, ModelId::from_index(idx));
    }
}

/// Try to convert one idle donor into `dst` ahead of its predicted
/// arrival. Mirrors the reactive transform path (donor scan, cached
/// plan, store accounting) but is admitted by the [`SpecCandidate`]
/// cost gate: the plan's estimated cost must undercut `dst`'s scratch
/// load, so even a misprediction wastes less than one cold start.
fn speculate_one(
    state: &mut WorkerState,
    containers: &mut Vec<LiveContainer>,
    ps: &PredictShared,
    dst: ModelId,
) {
    let Some(spec) = ps.speculation() else {
        return;
    };
    let target_info = state.repo.model_name_of(dst).and_then(|name| {
        let cold = state.repo.load_cost(&name)?;
        let target = state.repo.model_by_id(dst)?;
        Some((cold, target))
    });
    let (Some((cold_cost, target)), Some(confidence)) = (target_info, ps.confidence(dst.index()))
    else {
        ps.spec_skipped.inc();
        return;
    };
    // Idle donors, longest-idle first — the same order the reactive
    // path scans (§4.2). Containers already speculated for another model
    // are reserved, not cannibalized.
    let now = Instant::now();
    let mut donors: Vec<usize> = containers
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            !c.speculated
                && now.duration_since(c.last_used).as_secs_f64() >= state.config.idle_threshold
        })
        .map(|(i, _)| i)
        .collect();
    donors.sort_by(|&a, &b| containers[a].last_used.cmp(&containers[b].last_used));
    for i in donors {
        let src_id = containers[i].model_id;
        let Some(TransformDecision::Transform(plan)) = state.repo.decide_by_id(src_id, dst) else {
            continue;
        };
        let candidate = SpecCandidate {
            spec_cost: plan.cost.total(),
            cold_cost,
            confidence,
        };
        if !candidate.admit(spec.aggressiveness) {
            ps.spec_skipped.inc();
            return;
        }
        // Repurposing a donor that was itself speculated consumes that
        // earlier (wrong) guess.
        state.note_dead_speculation(containers[i].speculated);
        containers[i].speculated = false;
        let t0 = Instant::now();
        match execute_plan(&mut containers[i].model, &plan, &target) {
            Ok(_) => {
                containers[i].model = (*target).clone();
                containers[i].model_id = dst;
                containers[i].speculated = true;
                // A fresh keep-alive lease, like any newly provisioned
                // container: the guess must survive until the predicted
                // arrival. A wrong guess is reserved (never donated) and
                // dies at the keep-alive sweep as a misprediction.
                containers[i].last_used = Instant::now();
                let seconds = t0.elapsed().as_secs_f64();
                if let Some(ws) = state.store.as_mut() {
                    ws.transform(&state.repo, src_id, dst);
                    ws.publish();
                }
                if state.repo.note_transform_seconds(src_id, dst, seconds) {
                    state.counters.overruns.inc();
                }
                ps.speculations.inc();
            }
            Err(_) => {
                // The plan failed partway: the donor is in an undefined
                // state, destroy it (same safeguard as the reactive
                // path). No cold-start escalation — nobody is waiting.
                let dead = containers.swap_remove(i);
                state.counters.escalations.inc();
                state.note_dead_speculation(dead.speculated);
                if let Some(ws) = state.store.as_mut() {
                    ws.release_model(&state.repo, src_id);
                    ws.publish();
                }
                state.containers_gauge.set(containers.len() as f64);
                ps.spec_skipped.inc();
            }
        }
        return;
    }
    // No idle donor with an applicable plan.
    ps.spec_skipped.inc();
}

/// How a container was obtained for one request.
struct Obtained {
    /// Index into the worker's container pool.
    slot: usize,
    start: ServedStart,
    /// Wall-clock spent transforming or instantiating (0 for warm).
    startup_seconds: f64,
    /// Meta-operator steps executed (0 unless transformed).
    transform_steps: usize,
    /// `Some(true)` when a cached plan was applied, `Some(false)` when
    /// donors existed but every decision fell back to loading, `None`
    /// when no donor was consulted (warm hit or empty node).
    plan_cache_hit: Option<bool>,
}

/// Get a container holding the model, preferring warm, then
/// transformation of an idle donor, then cold instantiation.
///
/// Safeguard under failure: when a transformation aborts — injected via
/// [`InferItem::fail_transform`] or a real [`execute_plan`] error — the
/// corrupt donor is destroyed (its chunks released) and the request
/// escalates to a cold start instead of erroring back to the client.
#[allow(clippy::too_many_arguments)]
fn obtain_container(
    config: &GatewayConfig,
    repo: &ModelRepository,
    containers: &mut Vec<LiveContainer>,
    mut store: Option<&mut WorkerStore>,
    item: &InferItem,
    name: &str,
    counters: &FaultCounters,
    predict: Option<&PredictShared>,
) -> Result<Obtained, ServeError> {
    let model_id = item.model_id;
    // Warm hit: integer comparison on interned ids. A speculated
    // container serving its first request is a prediction hit — this is
    // the cold start speculation avoided.
    if let Some(i) = containers.iter().position(|c| c.model_id == model_id) {
        if containers[i].speculated {
            containers[i].speculated = false;
            if let Some(ps) = predict {
                ps.spec_hits.inc();
            }
        }
        return Ok(Obtained {
            slot: i,
            start: ServedStart::Warm,
            startup_seconds: 0.0,
            transform_steps: 0,
            plan_cache_hit: None,
        });
    }
    let target = repo
        .model_by_id(model_id)
        .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
    let now = Instant::now();
    // Idle donors, longest-idle first (§4.2). Speculated containers are
    // reserved for their predicted arrival and skipped — they can still
    // be evicted under capacity pressure, so real work never starves.
    let mut donors: Vec<usize> = containers
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            !c.speculated && now.duration_since(c.last_used).as_secs_f64() >= config.idle_threshold
        })
        .map(|(i, _)| i)
        .collect();
    donors.sort_by(|&a, &b| containers[a].last_used.cmp(&containers[b].last_used));
    let consulted_donors = !donors.is_empty();
    for i in donors {
        let src_id = containers[i].model_id;
        match repo.decide_by_id(src_id, model_id) {
            Some(TransformDecision::Transform(plan)) => {
                if item.fail_transform {
                    // Injected transform failure: the donor is corrupt
                    // mid-plan. Destroy it, release its chunks, escalate
                    // to a cold start (§6.3's safeguard under failure).
                    let dead = containers.swap_remove(i);
                    note_dead_spec(predict, dead.speculated);
                    counters.escalations.inc();
                    if let Some(ws) = store.as_deref_mut() {
                        ws.release_model(repo, src_id);
                    }
                    break;
                }
                let t0 = Instant::now();
                // Repurposing a speculated donor consumes that earlier
                // (wrong) guess.
                note_dead_spec(predict, containers[i].speculated);
                containers[i].speculated = false;
                match execute_plan(&mut containers[i].model, &plan, &target) {
                    Ok(report) => {
                        // Cached plans reference the op-id space of the
                        // *registered* graphs (see `execute_plan`'s
                        // contract). The transformed graph is verified
                        // structurally identical to the target, so
                        // canonicalise its id space by adopting the
                        // registered graph — this keeps future cached
                        // plans applicable to this container.
                        containers[i].model = (*target).clone();
                        containers[i].model_id = model_id;
                        let startup = t0.elapsed().as_secs_f64();
                        containers[i].last_used = Instant::now();
                        if let Some(ws) = store.as_deref_mut() {
                            // Admit the plan's fetched payload (only the
                            // delta crosses a tier), synthesize the reused
                            // remainder in place, release the donor's
                            // chunks.
                            ws.transform(repo, src_id, model_id);
                        }
                        if repo.note_transform_seconds(src_id, model_id, startup) {
                            counters.overruns.inc();
                        }
                        return Ok(Obtained {
                            slot: i,
                            start: ServedStart::Transformed,
                            startup_seconds: startup,
                            transform_steps: report.steps_applied,
                            plan_cache_hit: Some(true),
                        });
                    }
                    Err(_) => {
                        // The plan failed partway, leaving the donor in an
                        // undefined state: destroy it and escalate to cold.
                        containers.swap_remove(i);
                        counters.escalations.inc();
                        // (Its speculation, if any, was already consumed
                        // above.)
                        if let Some(ws) = store.as_deref_mut() {
                            ws.release_model(repo, src_id);
                        }
                        break;
                    }
                }
            }
            // Safeguard picked loading, or the pair is unknown: try the
            // next donor — a cold start may still be cheaper overall.
            _ => continue,
        }
    }
    // Cold start: instantiate the model; evict LRU if at capacity.
    let t0 = Instant::now();
    if containers.len() >= config.capacity_per_node {
        if let Some(victim) = containers
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.last_used)
            .map(|(i, _)| i)
        {
            let evicted = containers.swap_remove(victim);
            note_dead_spec(predict, evicted.speculated);
            if let Some(ws) = store.as_deref_mut() {
                ws.release_model(repo, evicted.model_id);
            }
        }
    }
    containers.push(LiveContainer {
        model: (*target).clone(),
        model_id,
        last_used: Instant::now(),
        speculated: false,
    });
    if let Some(ws) = store {
        ws.admit_model(repo, model_id);
    }
    let startup = t0.elapsed().as_secs_f64();
    repo.note_load_seconds(model_id, startup);
    Ok(Obtained {
        slot: containers.len() - 1,
        start: ServedStart::Cold,
        startup_seconds: startup,
        transform_steps: 0,
        plan_cache_hit: if consulted_donors { Some(false) } else { None },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_core::GroupPlanner;
    use optimus_model::{Activation, GraphBuilder};
    use optimus_profile::CostModel;

    /// A two-layer CNN named `name`; `seed_group` picks the tensor content.
    fn cnn(name: &str, seed_group: &str) -> ModelGraph {
        let mut b = GraphBuilder::new(name).seed_group(seed_group);
        let x = b.input([1, 3, 8, 8]);
        let x = b.conv2d_after(x, 3, 8, (3, 3), (1, 1), 1);
        let x = b.activation_after(x, Activation::Relu);
        let x = b.global_avg_pool_after(x);
        let x = b.flatten_after(x);
        let _ = b.dense_after(x, 8, 4);
        b.finish().expect("valid CNN")
    }

    #[test]
    fn cached_chunkings_are_shared_and_dropped_on_reregistration() {
        let cost = CostModel::default();
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        repo.register(cnn("a", "one"), &cost);
        repo.register(cnn("b", "one"), &cost);
        let (a, b) = (repo.model_id("a").unwrap(), repo.model_id("b").unwrap());
        let mut ws = WorkerStore::new(
            0,
            StoreConfig::default(),
            &repo,
            &MetricsRegistry::new(),
            Arc::new(Mutex::new(HashMap::new())),
        );

        let chunks = ws.chunks_of(&repo, a);
        assert!(!chunks.is_empty());
        assert!(
            Arc::ptr_eq(&chunks, &ws.chunks_of(&repo, a)),
            "second lookup is the cached list, not a re-chunking"
        );
        let split = ws.plan_chunks_of(&repo, a, b).expect("a → b is planned");
        assert!(Arc::ptr_eq(
            &split,
            &ws.plan_chunks_of(&repo, a, b).unwrap()
        ));
        assert_eq!(
            Some(&*split),
            repo.plan_chunks_by_id(a, b, ws.chunk_bytes).as_ref()
        );

        // Same name and id, different tensors: the cache must not keep
        // accounting the old content.
        repo.register(cnn("a", "two"), &cost);
        assert_eq!(repo.model_id("a"), Some(a));
        let rechunked = ws.chunks_of(&repo, a);
        assert_ne!(chunks, rechunked, "re-registered content is re-chunked");
        assert_eq!(
            &*rechunked,
            model_chunks(&repo.model("a").unwrap(), ws.chunk_bytes).as_slice()
        );
        assert!(!Arc::ptr_eq(
            &split,
            &ws.plan_chunks_of(&repo, a, b).unwrap()
        ));
    }
}
