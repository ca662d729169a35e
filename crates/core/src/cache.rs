//! Plan cache, model repository, and the safeguard (§4.4 Module 3).
//!
//! When a model registers in the global repository, Optimus computes and
//! caches transformation plans against the already-registered models
//! offline. At request time the scheduler *reads* the cache — no online
//! planning — and the safeguard compares the cached plan's cost with the
//! scratch-load cost, falling back to a plain load whenever transformation
//! would not help, so worst-case performance equals a traditional platform.
//!
//! # One store, sharded
//!
//! The catalog lives once, in **lock-striped shards** selected by
//! `id.index() & (shards - 1)`. A model's slot holds everything known
//! about it — its graph, scratch-load cost and content hash — plus the
//! map of plans *into* it keyed by source [`ModelId`], so a
//! [`ModelRepository::decide_by_id`] is one shard read lock. A
//! registration installing into other shards contends with none of it,
//! and even installs into the *same* shard hold its write lock only for
//! the final flush (planning runs lock-free). Memory is proportional to
//! the number of cached plans (per-destination hash maps), not to N² —
//! a dense id×id plan matrix would be 800 MB of `Option` pointers at a
//! 10k-model catalog.
//!
//! Every name-keyed getter ([`ModelRepository::decide`], `model`,
//! `load_cost`, `plan`, `transform_latency`) resolves ids through the
//! interner and then takes that same slot read, so there is exactly one
//! lookup implementation; whole-catalog views (`model_names`,
//! `export_plan_artifact`, …) walk the shards.
//!
//! # Registration concurrency
//!
//! The pairwise planning sweep never runs under a repository lock. Every
//! registration — single [`ModelRepository::register`] or bulk
//! [`ModelRepository::register_all`] — follows a snapshot → fan-out →
//! install pipeline:
//!
//! 1. **Snapshot**: under the installer mutex (so no install is half
//!    flushed), the published models are captured as Arc clones together
//!    with the catalog epoch.
//! 2. **Fan-out**: all pairwise plans are computed lock-free, optionally
//!    across a scoped worker pool (`crossbeam::thread::scope`). When a
//!    persisted [`PlanArtifactView`] is supplied, each pair first probes
//!    its index by `(src content hash, dst content hash)` — a hit decodes
//!    that one entry and skips the planner (the warm-load path), so a
//!    registration reads only the entries it uses.
//! 3. **Install**: the installer mutex serializes installs. If the epoch
//!    moved since the snapshot, another registration changed the catalog
//!    while this one planned: the batch is discarded and re-planned from
//!    a fresh snapshot, so a stale plan is never published. Otherwise
//!    the install runs in two phases — intern the new names and flush
//!    every plan, one shard write lock at a time, *then* publish the new
//!    models' slots, then bump the epoch — so a request that can see a
//!    new model can also see every plan into and out of it.
//!
//! # Catalog-scale registration
//!
//! All-pairs planning is O(N²) — the right default for product catalogs,
//! infeasible at 10k+ models. [`PlanScope::Window`] bounds the sweep to
//! each batch model's `w` nearest neighbours in batch order (O(N·w)),
//! which is how the `exp_catalog_scale` experiment registers the full
//! NASBench-201 slice; pairs outside the window simply have no cached
//! plan, so the safeguard serves them with a scratch load, exactly like
//! any other unplanned pair.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use optimus_model::{InternKey, Interner, ModelGraph, ModelId};
use optimus_profile::CostProvider;
use optimus_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use parking_lot::{Mutex, RwLock};

use crate::artifact::{PlanArtifact, PlanArtifactEntry, PlanArtifactView, PLAN_ARTIFACT_VERSION};
use crate::metaop::TransformPlan;
use crate::planner::Planner;

/// Source id the name path uses when the source model is unknown: no plan
/// map contains it, so the decision is an honest cache miss.
const UNKNOWN_SRC: ModelId = ModelId(u32::MAX);

/// Pre-resolved telemetry handles of one repository.
///
/// `optimus_plan_cache_total{result=...}` counts the §4.4 Module 3
/// outcomes (`hit` = cached plan applied, `reject` = plan exists but the
/// safeguard chose loading, `miss` = no plan cached);
/// `optimus_plan_cache_warm_total{result=...}` counts artifact warm-load
/// probes during registration (`hit` = persisted plan reused, `miss` =
/// pair re-planned); `optimus_planning_seconds` is the per-plan planning
/// latency; `optimus_plan_warmup_seconds` is the wall-clock of one whole
/// registration batch (snapshot → fan-out → install);
/// `optimus_plan_warmup_threads` is the worker-pool width of the most
/// recent batch.
struct RepoTelemetry {
    plan_hit: Counter,
    plan_reject: Counter,
    plan_miss: Counter,
    warm_hit: Counter,
    warm_miss: Counter,
    planning: Histogram,
    warmup: Histogram,
    warmup_threads: Gauge,
}

impl RepoTelemetry {
    fn resolve(registry: &MetricsRegistry) -> RepoTelemetry {
        let outcome =
            |result: &str| registry.counter("optimus_plan_cache_total", &[("result", result)]);
        let warm =
            |result: &str| registry.counter("optimus_plan_cache_warm_total", &[("result", result)]);
        RepoTelemetry {
            plan_hit: outcome("hit"),
            plan_reject: outcome("reject"),
            plan_miss: outcome("miss"),
            warm_hit: warm("hit"),
            warm_miss: warm("miss"),
            planning: registry.histogram("optimus_planning_seconds", &[]),
            warmup: registry.histogram("optimus_plan_warmup_seconds", &[]),
            warmup_threads: registry.gauge("optimus_plan_warmup_threads", &[]),
        }
    }
}

/// The scheduler's verdict for serving a model from a given container.
#[derive(Debug, Clone)]
pub enum TransformDecision {
    /// Transform the container's current model via the cached plan.
    Transform(Arc<TransformPlan>),
    /// Load the destination model from scratch (safeguard, §4.4).
    LoadScratch {
        /// Scratch-load latency (s).
        cost: f64,
    },
}

impl TransformDecision {
    /// Latency of taking this decision (plan cost or scratch load cost).
    pub fn latency(&self) -> f64 {
        match self {
            TransformDecision::Transform(plan) => plan.cost.total(),
            TransformDecision::LoadScratch { cost } => *cost,
        }
    }

    /// Whether the decision is a transformation.
    pub fn is_transform(&self) -> bool {
        matches!(self, TransformDecision::Transform(_))
    }
}

/// How far a registration batch's pairwise planning sweep reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanScope {
    /// Plan every directed same-paradigm pair — new↔existing and new↔new
    /// (the paper's O(N²) registration-time sweep).
    AllPairs,
    /// Plan each batch model only against its `w` predecessors in batch
    /// order (both directions): O(N·w) work, the catalog-scale bulk-load
    /// mode. Pairs outside the window (including every pair against the
    /// pre-existing catalog) stay unplanned and fall back to the
    /// safeguard's scratch load.
    Window(usize),
}

/// Mutable state behind the [`OverrunGuard`] lock.
#[derive(Default)]
struct OverrunState {
    /// EWMA of observed from-scratch load seconds per destination model —
    /// the live baseline a transform's wall-clock is judged against.
    load_ewma: HashMap<ModelId, f64>,
    /// Consecutive budget overruns observed per `(src, dst)` plan.
    overruns: HashMap<(ModelId, ModelId), u32>,
    /// Plans demoted to scratch loading after too many overruns.
    demoted: HashSet<(ModelId, ModelId)>,
}

/// Runtime escalation of the §6.3 safeguard: the *planned* cost model can
/// be wrong under faults (stragglers, retries, contention), so the
/// repository also watches the *measured* wall-clock of each applied
/// plan. A plan whose execution repeatedly overruns `factor ×` the
/// destination's observed scratch-load time is **demoted**: `decide`
/// answers `LoadScratch` for that pair from then on (counted as a plan
/// rejection), exactly as if the offline safeguard had rejected it.
struct OverrunGuard {
    /// A transform execution overruns when it takes longer than
    /// `factor ×` the destination's observed scratch-load EWMA.
    factor: f64,
    /// Consecutive overruns tolerated before the pair is demoted.
    max_overruns: u32,
    state: RwLock<OverrunState>,
    /// Fast-path flag: `false` means no pair was ever demoted, so
    /// `decide` can skip the demotion probe entirely.
    any_demoted: AtomicBool,
}

impl OverrunGuard {
    fn new(factor: f64, max_overruns: u32) -> Self {
        OverrunGuard {
            factor,
            max_overruns,
            state: RwLock::new(OverrunState::default()),
            any_demoted: AtomicBool::new(false),
        }
    }

    /// Fold one observed scratch-load wall-clock into the baseline EWMA.
    fn note_load(&self, dst: ModelId, seconds: f64) {
        if !seconds.is_finite() || seconds <= 0.0 {
            return;
        }
        let mut state = self.state.write();
        state
            .load_ewma
            .entry(dst)
            .and_modify(|ewma| *ewma = 0.7 * *ewma + 0.3 * seconds)
            .or_insert(seconds);
    }

    /// Judge one observed transform wall-clock; returns `true` when the
    /// observation demoted (or had already demoted) the pair. Without a
    /// load baseline for `dst` the observation is a no-op — the guard
    /// never demotes on guesswork.
    fn note_transform(&self, src: ModelId, dst: ModelId, seconds: f64) -> bool {
        if !seconds.is_finite() || seconds < 0.0 {
            return false;
        }
        let mut state = self.state.write();
        if state.demoted.contains(&(src, dst)) {
            return true;
        }
        let Some(&baseline) = state.load_ewma.get(&dst) else {
            return false;
        };
        if seconds <= self.factor * baseline {
            state.overruns.remove(&(src, dst));
            return false;
        }
        let overruns = state.overruns.entry((src, dst)).or_insert(0);
        *overruns += 1;
        if *overruns >= self.max_overruns {
            state.demoted.insert((src, dst));
            self.any_demoted.store(true, Ordering::Release);
            return true;
        }
        false
    }

    /// Whether `src → dst` has been demoted. The common no-demotions case
    /// is a single relaxed atomic load.
    fn is_demoted(&self, src: ModelId, dst: ModelId) -> bool {
        self.any_demoted.load(Ordering::Acquire) && self.state.read().demoted.contains(&(src, dst))
    }
}

/// A registered model as requests see it.
struct Registered {
    graph: Arc<ModelGraph>,
    /// Profiled scratch-load cost (s).
    load: f64,
    /// [`ModelGraph::content_hash`] — one half of a plan-artifact key.
    hash: u64,
}

/// Everything the repository holds about one [`ModelId`]: the only
/// resident owner of the model's graph and of the plans into it.
#[derive(Default)]
struct Slot {
    /// `None` until the model's registration publishes it; its id may
    /// already be interned and its plans flushed by then.
    model: Option<Registered>,
    /// Plans *into* this model, keyed by source [`ModelId`]. Memory is
    /// proportional to cached plans, never to catalog².
    plans_in: HashMap<ModelId, Arc<TransformPlan>>,
}

/// One lock stripe, owning every id whose index maps to it
/// (`id.index() & (shards - 1)`) at slot `id.index() >> shard_bits`.
#[derive(Default)]
struct Shard {
    slots: Vec<Slot>,
}

impl Shard {
    fn slot_mut(&mut self, slot: usize) -> &mut Slot {
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, Slot::default);
        }
        &mut self.slots[slot]
    }
}

/// Global model repository with an offline-computed plan cache.
///
/// Thread-safe: the simulator's gateway registers models once and many
/// simulated nodes read plans concurrently.
pub struct ModelRepository {
    planner: Box<dyn Planner + Send + Sync>,
    /// Name ↔ id table, in its own lock so id resolution never contends
    /// with catalog installs.
    ids: RwLock<Interner<ModelId>>,
    /// The catalog, lock-striped; length is a power of two.
    shards: Box<[RwLock<Shard>]>,
    /// `log2(shards.len())` — slot within a shard is `index >> shard_bits`.
    shard_bits: u32,
    /// Serializes installs, and is held by every reader that needs one
    /// consistent view of the whole catalog: while it is held no install
    /// is half flushed (planning still runs concurrently).
    install: Mutex<()>,
    /// Times the planner was actually invoked (artifact warm-load hits
    /// don't count) — the "restarted node never re-plans" machine check.
    planner_calls: AtomicU64,
    /// Completed installs (see [`ModelRepository::catalog_epoch`]).
    epoch: AtomicU64,
    /// Plans whose transformation latency exceeds `safeguard_ratio` × the
    /// scratch-load cost are rejected in favour of loading (1.0 = paper's
    /// behaviour; lower values make the safeguard more conservative).
    safeguard_ratio: f64,
    /// Measured-wall-clock escalation of the safeguard (see
    /// [`OverrunGuard`]): plans that repeatedly overrun their budget at
    /// execution time are demoted to scratch loading.
    overrun: OverrunGuard,
    telemetry: RwLock<RepoTelemetry>,
}

/// A model being installed by the current batch.
struct NewModel {
    name: Arc<str>,
    model: Arc<ModelGraph>,
    hash: u64,
    load: f64,
}

/// A pre-existing model snapshotted for planning.
struct ExistingModel {
    model: Arc<ModelGraph>,
    hash: u64,
}

/// One directed planning job of a registration batch.
struct PlanTask {
    src: Arc<ModelGraph>,
    dst: Arc<ModelGraph>,
    src_hash: u64,
    dst_hash: u64,
}

/// Shard count sized to the machine: enough stripes that concurrent
/// decide readers rarely collide, small enough that an install's flush
/// stays cheap.
fn default_shard_count() -> usize {
    let cores = std::thread::available_parallelism().map_or(8, std::num::NonZero::get);
    (cores * 2).next_power_of_two().clamp(8, 128)
}

/// Bind a freshly decoded plan to a task's endpoints: the exporting
/// repository may have known the same graphs under other names.
fn rebind(mut hit: TransformPlan, src: &ModelGraph, dst: &ModelGraph) -> Arc<TransformPlan> {
    if hit.src_model != src.name() {
        hit.src_model = src.name().to_string();
    }
    if hit.dst_model != dst.name() {
        hit.dst_model = dst.name().to_string();
    }
    Arc::new(hit)
}

impl ModelRepository {
    /// Repository using the given planner (production: [`crate::GroupPlanner`]),
    /// with a machine-sized shard count.
    pub fn new(planner: Box<dyn Planner + Send + Sync>) -> Self {
        let count = default_shard_count();
        ModelRepository {
            planner,
            ids: RwLock::new(Interner::new()),
            shards: (0..count).map(|_| RwLock::new(Shard::default())).collect(),
            shard_bits: count.trailing_zeros(),
            install: Mutex::new(()),
            planner_calls: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            safeguard_ratio: 1.0,
            overrun: OverrunGuard::new(3.0, 2),
            telemetry: RwLock::new(RepoTelemetry::resolve(&optimus_telemetry::global())),
        }
    }

    /// Re-resolve telemetry handles against `registry` (the default is the
    /// process-wide [`optimus_telemetry::global`] registry). The live
    /// gateway points its repository at the registry backing its
    /// `/metrics` endpoint; hermetic tests use a private one.
    pub fn set_metrics_registry(&self, registry: &MetricsRegistry) {
        *self.telemetry.write() = RepoTelemetry::resolve(registry);
    }

    /// Override the safeguard threshold (ablation experiments; `f64::MAX`
    /// effectively disables the safeguard).
    pub fn with_safeguard_ratio(mut self, ratio: f64) -> Self {
        self.safeguard_ratio = ratio;
        self
    }

    /// Override the stripe count (rounded up to a power of two; `1` =
    /// the single-map baseline). Moves every slot to its stripe in the
    /// new layout, so it is safe after registrations too — but it takes
    /// `self` by value, so only before the repository is shared.
    pub fn with_shards(mut self, shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let bits = count.trailing_zeros();
        let mut striped: Vec<Shard> = (0..count).map(|_| Shard::default()).collect();
        let old = std::mem::take(&mut self.shards).into_vec();
        for (stripe, shard) in old.into_iter().enumerate() {
            for (i, slot) in shard.into_inner().slots.into_iter().enumerate() {
                let index = (i << self.shard_bits) | stripe;
                *striped[index & (count - 1)].slot_mut(index >> bits) = slot;
            }
        }
        self.shard_bits = bits;
        self.shards = striped.into_iter().map(RwLock::new).collect();
        self
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The stripe owning `id` and the id's slot index within it.
    fn locate(&self, id: ModelId) -> (&RwLock<Shard>, usize) {
        let index = id.index();
        (
            &self.shards[index & (self.shards.len() - 1)],
            index >> self.shard_bits,
        )
    }

    /// The one lookup implementation: `read` runs on `id`'s slot under
    /// its shard's read lock (`None` when the id has no slot yet).
    fn read_slot<R>(&self, id: ModelId, read: impl FnOnce(&Slot) -> Option<R>) -> Option<R> {
        let (shard, slot) = self.locate(id);
        read(shard.read().slots.get(slot)?)
    }

    /// Visit every slot, one shard read lock at a time. A caller that
    /// needs the slots to be mutually consistent holds `install`.
    fn for_each_slot(&self, mut visit: impl FnMut(ModelId, &Slot)) {
        for (stripe, shard) in self.shards.iter().enumerate() {
            for (i, slot) in shard.read().slots.iter().enumerate() {
                visit(ModelId::from_index((i << self.shard_bits) | stripe), slot);
            }
        }
    }

    /// Number of registration batches installed so far. A model's graph,
    /// and with it its chunking and its plans, can only change across an
    /// install, so anything derived from the catalog may be cached for as
    /// long as this value stands still (the serving workers' per-model
    /// chunk lists are). Pairs with the `Release` increment that follows
    /// an install's shard flush.
    pub fn catalog_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Times the planner has actually been invoked by this repository.
    /// Artifact warm-load hits bypass the planner and do not count — a
    /// node restarted against a complete artifact reports 0.
    pub fn planner_invocations(&self) -> u64 {
        self.planner_calls.load(Ordering::Relaxed)
    }

    /// Override the runtime overrun policy: a plan whose measured
    /// execution exceeds `factor ×` the destination's observed
    /// scratch-load time `max_overruns` consecutive times is demoted to
    /// scratch loading (default: 3.0×, 2 overruns).
    pub fn with_overrun_policy(mut self, factor: f64, max_overruns: u32) -> Self {
        self.overrun = OverrunGuard::new(factor, max_overruns.max(1));
        self
    }

    /// Report the measured wall-clock of a from-scratch load of `dst`,
    /// feeding the baseline the overrun guard judges transforms against.
    pub fn note_load_seconds(&self, dst: ModelId, seconds: f64) {
        self.overrun.note_load(dst, seconds);
    }

    /// Report the measured wall-clock of an applied `src → dst`
    /// transform. Returns `true` when the observation demoted (or the
    /// guard had already demoted) the pair — the caller's signal to count
    /// an overrun and expect `decide` to answer `LoadScratch` from now on.
    pub fn note_transform_seconds(&self, src: ModelId, dst: ModelId, seconds: f64) -> bool {
        self.overrun.note_transform(src, dst, seconds)
    }

    /// Whether the overrun guard has demoted `src → dst` to scratch
    /// loading.
    pub fn is_demoted(&self, src: ModelId, dst: ModelId) -> bool {
        self.overrun.is_demoted(src, dst)
    }

    /// Register a model: stores it, profiles its scratch-load cost, and
    /// computes + caches plans to and from every existing model (the
    /// paper's "planning strategy caching" — registration-time work).
    ///
    /// Planning runs outside the repository lock (see the module docs);
    /// `decide()` readers are never blocked for the duration of the sweep.
    ///
    /// Registering the same name twice replaces the model and recomputes
    /// its plans.
    pub fn register(&self, model: ModelGraph, cost: &(dyn CostProvider + Sync)) {
        self.register_batch(vec![model], cost, 1, PlanScope::AllPairs, None);
    }

    /// [`ModelRepository::register`] warm-loading from a persisted
    /// [`PlanArtifactView`]: pairs touching the new model whose
    /// content-hash key hits the artifact reuse the persisted plan
    /// without invoking the planner. The incremental-catalog-growth
    /// path — a gateway that registers models one at a time replays
    /// plans exactly like the bulk restart path does.
    pub fn register_with_artifact(
        &self,
        model: ModelGraph,
        cost: &(dyn CostProvider + Sync),
        artifact: &PlanArtifactView,
    ) {
        self.register_batch(vec![model], cost, 1, PlanScope::AllPairs, Some(artifact));
    }

    /// Bulk-register a whole catalog, fanning the O(N²) pairwise planning
    /// sweep across a scoped worker pool sized to the machine
    /// ([`std::thread::available_parallelism`]).
    ///
    /// The resulting plan set is identical to registering the models one
    /// by one with [`ModelRepository::register`]; only the wall-clock (and
    /// the lock-hold time) differs. When `models` contains duplicates of a
    /// name the last one wins, matching sequential re-registration.
    pub fn register_all(&self, models: Vec<ModelGraph>, cost: &(dyn CostProvider + Sync)) {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        self.register_batch(models, cost, threads, PlanScope::AllPairs, None);
    }

    /// [`ModelRepository::register_all`] with an explicit worker count
    /// (`1` = plan inline on the calling thread; used by the warmup
    /// scaling experiment).
    pub fn register_all_with_threads(
        &self,
        models: Vec<ModelGraph>,
        cost: &(dyn CostProvider + Sync),
        threads: usize,
    ) {
        self.register_batch(models, cost, threads.max(1), PlanScope::AllPairs, None);
    }

    /// [`ModelRepository::register_all`] warm-loading from a persisted
    /// [`PlanArtifactView`]: pairs whose `(src content hash, dst content
    /// hash)` key hits the artifact's index decode that entry and reuse
    /// the persisted plan without invoking the planner. The
    /// restart/fleet-join path.
    pub fn register_all_with_artifact(
        &self,
        models: Vec<ModelGraph>,
        cost: &(dyn CostProvider + Sync),
        artifact: &PlanArtifactView,
    ) {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        self.register_batch(models, cost, threads, PlanScope::AllPairs, Some(artifact));
    }

    /// Fully explicit bulk registration: worker count, planning scope
    /// (see [`PlanScope`]), and an optional warm-load artifact. The
    /// catalog-scale entry point — `exp_catalog_scale` registers 10k+
    /// models with `PlanScope::Window`.
    pub fn register_all_scoped(
        &self,
        models: Vec<ModelGraph>,
        cost: &(dyn CostProvider + Sync),
        threads: usize,
        scope: PlanScope,
        artifact: Option<&PlanArtifactView>,
    ) {
        self.register_batch(models, cost, threads.max(1), scope, artifact);
    }

    /// The snapshot → fan-out → install pipeline shared by all
    /// registration entry points.
    fn register_batch(
        &self,
        models: Vec<ModelGraph>,
        cost: &(dyn CostProvider + Sync),
        threads: usize,
        scope: PlanScope,
        artifact: Option<&PlanArtifactView>,
    ) {
        if models.is_empty() {
            return;
        }
        let t0 = Instant::now();
        // Dedupe by name, last occurrence wins (sequential semantics);
        // first-seen position defines the Window neighbourhood order.
        let mut order: Vec<Arc<str>> = Vec::with_capacity(models.len());
        let mut by_name: HashMap<Arc<str>, Arc<ModelGraph>> = HashMap::with_capacity(models.len());
        for model in models {
            let name: Arc<str> = Arc::from(model.name());
            if by_name.insert(name.clone(), Arc::new(model)).is_none() {
                order.push(name);
            }
        }
        let new: Vec<NewModel> = order
            .into_iter()
            .map(|name| {
                let model = by_name[&name].clone();
                NewModel {
                    hash: model.content_hash(),
                    load: cost.model_load_cost(&model),
                    name,
                    model,
                }
            })
            .collect();
        loop {
            // 1. Snapshot the published catalog between installs.
            let (seen_epoch, existing) = {
                let _installer = self.install.lock();
                let mut existing: Vec<ExistingModel> = Vec::new();
                self.for_each_slot(|_, slot| {
                    if let Some(m) = &slot.model {
                        if !by_name.contains_key(m.graph.name()) {
                            existing.push(ExistingModel {
                                model: m.graph.clone(),
                                hash: m.hash,
                            });
                        }
                    }
                });
                (self.catalog_epoch(), existing)
            };
            // 2. Fan the pairwise sweep out, lock-free.
            let tasks = self.build_tasks(&new, &existing, scope);
            let planned = self.execute_tasks(&tasks, cost, threads, artifact);
            // 3. Install, serialized against every other install.
            let _installer = self.install.lock();
            if self.catalog_epoch() != seen_epoch {
                // A concurrent registration changed the catalog while we
                // planned; our batch may reference stale graphs or miss
                // pairs. Discard and re-plan against a fresh snapshot.
                continue;
            }
            // Intern new names in sorted order so id assignment is
            // deterministic regardless of batch order.
            {
                let mut ids = self.ids.write();
                let mut sorted_new: Vec<&NewModel> = new.iter().collect();
                sorted_new.sort_by(|a, b| a.name.cmp(&b.name));
                for m in sorted_new {
                    ids.resolve(&m.name);
                }
            }
            let mask = self.shards.len() - 1;
            let mut plans_per_shard: Vec<Vec<(usize, ModelId, Arc<TransformPlan>)>> =
                (0..self.shards.len()).map(|_| Vec::new()).collect();
            let new_ids: Vec<ModelId> = {
                let ids = self.ids.read();
                let id_of = |name: &str| ids.get(name).expect("task endpoints are interned");
                for (task, plan) in tasks.iter().zip(planned) {
                    let dst = id_of(task.dst.name());
                    plans_per_shard[dst.index() & mask].push((
                        dst.index() >> self.shard_bits,
                        id_of(task.src.name()),
                        plan,
                    ));
                }
                new.iter().map(|m| id_of(&m.name)).collect()
            };
            // Phase one: every plan of the batch, one shard write lock at
            // a time — a concurrent decide contends with at most one
            // stripe's flush, never with the whole install.
            for (shard, plans) in self.shards.iter().zip(plans_per_shard) {
                if plans.is_empty() {
                    continue;
                }
                let mut shard = shard.write();
                for (slot, src, plan) in plans {
                    shard.slot_mut(slot).plans_in.insert(src, plan);
                }
            }
            // Phase two: only now publish the models, so whoever can see
            // one of them also sees its complete plan set.
            for (m, id) in new.iter().zip(new_ids) {
                let (shard, slot) = self.locate(id);
                shard.write().slot_mut(slot).model = Some(Registered {
                    graph: m.model.clone(),
                    load: m.load,
                    hash: m.hash,
                });
            }
            // After the flush, so a reader that sees the new epoch also
            // sees every shard of this install.
            self.epoch.fetch_add(1, Ordering::Release);
            break;
        }
        let telemetry = self.telemetry.read();
        telemetry.warmup.observe(t0.elapsed().as_secs_f64());
        telemetry.warmup_threads.set(threads as f64);
    }

    /// All directed planning jobs of a batch under `scope`, skipping
    /// cross-paradigm pairs (CNN↔transformer plans always lose to scratch
    /// loading, §8.2 — the safeguard picks loading without a cached plan).
    fn build_tasks(
        &self,
        new: &[NewModel],
        existing: &[ExistingModel],
        scope: PlanScope,
    ) -> Vec<PlanTask> {
        let mut tasks = Vec::new();
        let mut push_pair = |a: (&Arc<ModelGraph>, u64), b: (&Arc<ModelGraph>, u64)| {
            if a.0.family().is_transformer() != b.0.family().is_transformer() {
                return;
            }
            tasks.push(PlanTask {
                src: a.0.clone(),
                dst: b.0.clone(),
                src_hash: a.1,
                dst_hash: b.1,
            });
            tasks.push(PlanTask {
                src: b.0.clone(),
                dst: a.0.clone(),
                src_hash: b.1,
                dst_hash: a.1,
            });
        };
        match scope {
            PlanScope::AllPairs => {
                for m in new {
                    for e in existing {
                        push_pair((&e.model, e.hash), (&m.model, m.hash));
                    }
                }
                for (i, a) in new.iter().enumerate() {
                    for b in new.iter().skip(i + 1) {
                        push_pair((&a.model, a.hash), (&b.model, b.hash));
                    }
                }
            }
            PlanScope::Window(w) => {
                for (i, b) in new.iter().enumerate() {
                    for a in new.iter().take(i).skip(i.saturating_sub(w)) {
                        push_pair((&a.model, a.hash), (&b.model, b.hash));
                    }
                }
            }
        }
        tasks
    }

    /// Compute every task's plan: inline for a single worker, otherwise on
    /// a scoped pool pulling tasks off a shared atomic cursor (dynamic
    /// load balancing — plan sizes vary wildly across model pairs). With a
    /// warm artifact, each task first probes its index by content-hash
    /// key; a hit is decoded in place of planning (an entry that fails to
    /// decode is a miss).
    fn execute_tasks(
        &self,
        tasks: &[PlanTask],
        cost: &(dyn CostProvider + Sync),
        threads: usize,
        warm: Option<&PlanArtifactView>,
    ) -> Vec<Arc<TransformPlan>> {
        let (planning, warm_hit, warm_miss) = {
            let telemetry = self.telemetry.read();
            (
                telemetry.planning.clone(),
                telemetry.warm_hit.clone(),
                telemetry.warm_miss.clone(),
            )
        };
        let plan_one = |task: &PlanTask| -> Arc<TransformPlan> {
            if let Some(artifact) = warm {
                if let Ok(Some(hit)) = artifact.get(task.src_hash, task.dst_hash) {
                    warm_hit.inc();
                    return rebind(hit, &task.src, &task.dst);
                }
                warm_miss.inc();
            }
            let t = Instant::now();
            let plan = self.planner.plan(&task.src, &task.dst, cost);
            self.planner_calls.fetch_add(1, Ordering::Relaxed);
            planning.observe(t.elapsed().as_secs_f64());
            Arc::new(plan)
        };
        let workers = threads.min(tasks.len());
        if workers <= 1 {
            return tasks.iter().map(plan_one).collect();
        }
        let cursor = AtomicUsize::new(0);
        let results: Vec<std::sync::Mutex<Option<Arc<TransformPlan>>>> =
            tasks.iter().map(|_| std::sync::Mutex::new(None)).collect();
        crossbeam::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|_| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    *results[i].lock().expect("unshared slot") = Some(plan_one(task));
                });
            }
        })
        .expect("planning worker panicked");
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot lock").expect("slot filled"))
            .collect()
    }

    /// Number of registered models.
    pub fn model_count(&self) -> usize {
        let mut count = 0;
        self.for_each_slot(|_, slot| count += usize::from(slot.model.is_some()));
        count
    }

    /// Look up a registered model.
    pub fn model(&self, name: &str) -> Option<Arc<ModelGraph>> {
        self.model_by_id(self.model_id(name)?)
    }

    /// Id-keyed [`ModelRepository::model`].
    pub fn model_by_id(&self, id: ModelId) -> Option<Arc<ModelGraph>> {
        self.read_slot(id, |slot| Some(slot.model.as_ref()?.graph.clone()))
    }

    /// Profiled scratch-load cost of a registered model.
    pub fn load_cost(&self, name: &str) -> Option<f64> {
        self.read_slot(self.model_id(name)?, |slot| Some(slot.model.as_ref()?.load))
    }

    /// Cached plan from `src` to `dst`, if both are registered and the pair
    /// is plannable.
    pub fn plan(&self, src: &str, dst: &str) -> Option<Arc<TransformPlan>> {
        let (si, di) = self.resolve_pair(src, dst)?;
        self.read_slot(di, |slot| slot.plans_in.get(&si).cloned())
    }

    /// Resolve a `(src, dst)` name pair to ids: `None` when the
    /// destination is unregistered, the [`UNKNOWN_SRC`] sentinel when
    /// only the source is (an honest plan miss downstream).
    fn resolve_pair(&self, src: &str, dst: &str) -> Option<(ModelId, ModelId)> {
        let ids = self.ids.read();
        let di = ids.get(dst)?;
        Some((ids.get(src).unwrap_or(UNKNOWN_SRC), di))
    }

    /// The §4.4 Module 3 decision: serve `dst` from a container currently
    /// holding `src` — transform if the cached plan beats the scratch load
    /// (safeguard), otherwise load from scratch.
    ///
    /// Returns `None` when `dst` is not registered. Delegates to
    /// [`ModelRepository::decide_by_id`] — the name path is id resolution
    /// plus the one sharded lookup implementation.
    pub fn decide(&self, src: &str, dst: &str) -> Option<TransformDecision> {
        let (si, di) = self.resolve_pair(src, dst)?;
        self.decide_by_id(si, di)
    }

    /// Interned id of a registered model (`None` if the name is unknown).
    ///
    /// Ids are dense, stable across re-registrations, and valid only
    /// against this repository instance; they feed the `*_by_id` fast
    /// paths the simulator's per-event loop runs on.
    pub fn model_id(&self, name: &str) -> Option<ModelId> {
        self.ids.read().get(name)
    }

    /// Name behind an interned id (`None` for an id this repository never
    /// handed out).
    pub fn model_name_of(&self, id: ModelId) -> Option<String> {
        let ids = self.ids.read();
        (id.index() < ids.len()).then(|| ids.name(id).to_string())
    }

    /// Id-keyed [`ModelRepository::decide`]: same decision and the same
    /// plan-cache telemetry, but the lookup is one shard read lock and
    /// two slot probes — the per-donor cost of the simulator's donor scan.
    pub fn decide_by_id(&self, src: ModelId, dst: ModelId) -> Option<TransformDecision> {
        let (decision, cached) = self.decide_uncounted_by_id(src, dst)?;
        let telemetry = self.telemetry.read();
        match (&decision, cached) {
            (TransformDecision::Transform(_), _) => telemetry.plan_hit.inc(),
            (TransformDecision::LoadScratch { .. }, true) => telemetry.plan_reject.inc(),
            (TransformDecision::LoadScratch { .. }, false) => telemetry.plan_miss.inc(),
        }
        Some(decision)
    }

    /// Id-keyed [`ModelRepository::transform_latency`] (placement probes;
    /// bypasses the plan-cache counters).
    pub fn transform_latency_by_id(&self, src: ModelId, dst: ModelId) -> Option<f64> {
        self.decide_uncounted_by_id(src, dst)
            .map(|(d, _)| d.latency())
    }

    fn decide_uncounted_by_id(
        &self,
        src: ModelId,
        dst: ModelId,
    ) -> Option<(TransformDecision, bool)> {
        self.read_slot(dst, |slot| {
            let load = slot.model.as_ref()?.load;
            Some(match slot.plans_in.get(&src) {
                Some(p) if p.cost.total() <= load * self.safeguard_ratio => {
                    if self.overrun.is_demoted(src, dst) {
                        (TransformDecision::LoadScratch { cost: load }, true)
                    } else {
                        (TransformDecision::Transform(p.clone()), true)
                    }
                }
                Some(_) => (TransformDecision::LoadScratch { cost: load }, true),
                None => (TransformDecision::LoadScratch { cost: load }, false),
            })
        })
    }

    /// Transformation latency that `decide` would report, ignoring which
    /// branch is taken (used by load balancers as an edit-distance metric).
    /// Deliberately bypasses the plan-cache hit/miss counters — placement
    /// probes are not request-time cache lookups.
    pub fn transform_latency(&self, src: &str, dst: &str) -> Option<f64> {
        let (si, di) = self.resolve_pair(src, dst)?;
        self.transform_latency_by_id(si, di)
    }

    /// Chunk split of the cached `src → dst` plan (see
    /// [`crate::plan_chunks`]): the payload chunks a store must fetch vs.
    /// the destination chunks reused from the source in place. `None`
    /// when either model is unregistered or no plan is cached. Re-walks
    /// the plan and re-fingerprints the destination's tensors on every
    /// call: per-event callers cache the result (the simulator's store
    /// state and the serving workers do).
    pub fn plan_chunks_by_id(
        &self,
        src: ModelId,
        dst: ModelId,
        chunk_bytes: u64,
    ) -> Option<crate::chunks::PlanChunks> {
        let (plan, model) = self.read_slot(dst, |slot| {
            let plan = slot.plans_in.get(&src)?.clone();
            Some((plan, slot.model.as_ref()?.graph.clone()))
        })?;
        Some(crate::chunks::plan_chunks(&plan, &model, chunk_bytes))
    }

    /// Deduplicated union of every cached plan's payload chunks, sorted
    /// by id. Nodes pin this working set in their weight store so LRU
    /// pressure never evicts bytes a cached transformation is about to
    /// write.
    pub fn plan_referenced_chunks(&self, chunk_bytes: u64) -> Vec<optimus_store::ChunkRef> {
        let mut plans: Vec<Arc<TransformPlan>> = Vec::new();
        {
            let _installer = self.install.lock();
            self.for_each_slot(|_, slot| plans.extend(slot.plans_in.values().cloned()));
        }
        crate::chunks::plans_referenced_chunks(plans.iter().map(|p| p.as_ref()), chunk_bytes)
    }

    /// Export the plan cache as a content-addressed, version-stamped
    /// [`PlanArtifact`]: every cached plan keyed by its endpoints'
    /// [`ModelGraph::content_hash`], sorted for byte-determinism. Plans
    /// are shared with the cache, not copied. [`PlanArtifact::to_bytes`]
    /// of the result is what
    /// [`ModelRepository::register_all_with_artifact`] loads back.
    pub fn export_plan_artifact(&self) -> PlanArtifact {
        // One walk: a plan's source may live in a shard not visited yet,
        // so its hash is looked up once every slot has been seen.
        let mut hashes: HashMap<ModelId, u64> = HashMap::new();
        let mut found: Vec<(ModelId, u64, Arc<TransformPlan>)> = Vec::new();
        {
            let _installer = self.install.lock();
            self.for_each_slot(|id, slot| {
                let Some(m) = &slot.model else {
                    return;
                };
                hashes.insert(id, m.hash);
                for (src, plan) in &slot.plans_in {
                    found.push((*src, m.hash, plan.clone()));
                }
            });
        }
        let mut entries: Vec<PlanArtifactEntry> = found
            .into_iter()
            .filter_map(|(src, dst_hash, plan)| {
                Some(PlanArtifactEntry {
                    src_hash: *hashes.get(&src)?,
                    dst_hash,
                    plan,
                })
            })
            .collect();
        entries.sort_by(|a, b| {
            (a.src_hash, a.dst_hash, &a.plan.src_model, &a.plan.dst_model).cmp(&(
                b.src_hash,
                b.dst_hash,
                &b.plan.src_model,
                &b.plan.dst_model,
            ))
        });
        PlanArtifact {
            version: PLAN_ARTIFACT_VERSION,
            cost_model: optimus_profile::COST_MODEL_VERSION,
            entries,
        }
    }

    /// Content hashes of every registered model — the liveness set for
    /// [`PlanArtifactView::rewrite`]: an artifact entry whose endpoints
    /// are both in this set belongs to the current catalog.
    pub fn catalog_hashes(&self) -> HashSet<u64> {
        let mut hashes = HashSet::new();
        self.for_each_slot(|_, slot| hashes.extend(slot.model.as_ref().map(|m| m.hash)));
        hashes
    }

    /// Names of all registered models, sorted.
    pub fn model_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.for_each_slot(|_, slot| {
            names.extend(slot.model.as_ref().map(|m| m.graph.name().to_string()));
        });
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::GroupPlanner;
    use optimus_profile::CostModel;

    fn repo_with(models: Vec<ModelGraph>) -> ModelRepository {
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        let cost = CostModel::default();
        for m in models {
            repo.register(m, &cost);
        }
        repo
    }

    #[test]
    fn registration_precomputes_bidirectional_plans() {
        let repo = repo_with(vec![optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()]);
        assert_eq!(repo.model_count(), 2);
        assert!(repo.plan("vgg16", "vgg19").is_some());
        assert!(repo.plan("vgg19", "vgg16").is_some());
        assert!(repo.plan("vgg16", "vgg16").is_none());
    }

    #[test]
    fn decide_transforms_within_family() {
        let repo = repo_with(vec![optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()]);
        let d = repo.decide("vgg16", "vgg19").unwrap();
        assert!(d.is_transform(), "vgg16→vgg19 should transform");
        assert!(d.latency() < repo.load_cost("vgg19").unwrap());
    }

    #[test]
    fn safeguard_rejects_cnn_to_transformer() {
        let repo = repo_with(vec![
            optimus_zoo::resnet::resnet50(),
            optimus_zoo::bert::bert(optimus_zoo::BertConfig::new(optimus_zoo::BertSize::Mini)),
        ]);
        let d = repo.decide("resnet50", "bert-mini-uncased").unwrap();
        assert!(!d.is_transform(), "CNN→transformer must load from scratch");
        assert_eq!(d.latency(), repo.load_cost("bert-mini-uncased").unwrap());
    }

    #[test]
    fn unknown_destination_yields_none() {
        let repo = repo_with(vec![optimus_zoo::vgg::vgg16()]);
        assert!(repo.decide("vgg16", "missing").is_none());
        assert!(repo.load_cost("missing").is_none());
        assert!(repo.model("missing").is_none());
    }

    #[test]
    fn overrun_guard_demotes_after_repeated_overruns() {
        let repo = repo_with(vec![optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()])
            .with_overrun_policy(3.0, 2);
        let src = repo.model_id("vgg16").unwrap();
        let dst = repo.model_id("vgg19").unwrap();
        assert!(repo.decide_by_id(src, dst).unwrap().is_transform());

        // No load baseline yet: overrun observations are a no-op.
        assert!(!repo.note_transform_seconds(src, dst, 100.0));
        assert!(!repo.is_demoted(src, dst));

        repo.note_load_seconds(dst, 1.0);
        // Within budget: nothing happens, even repeatedly.
        assert!(!repo.note_transform_seconds(src, dst, 2.0));
        // First overrun tolerated, second demotes.
        assert!(!repo.note_transform_seconds(src, dst, 10.0));
        assert!(repo.decide_by_id(src, dst).unwrap().is_transform());
        assert!(repo.note_transform_seconds(src, dst, 10.0));
        assert!(repo.is_demoted(src, dst));

        // Both decide paths now answer LoadScratch for the demoted pair
        // (counted as a plan rejection), while the reverse direction is
        // untouched.
        assert!(!repo.decide_by_id(src, dst).unwrap().is_transform());
        assert!(!repo.decide("vgg16", "vgg19").unwrap().is_transform());
        assert!(repo.decide_by_id(dst, src).unwrap().is_transform());
        assert!(repo.decide("vgg19", "vgg16").unwrap().is_transform());
    }

    #[test]
    fn overrun_guard_resets_streak_on_in_budget_execution() {
        let repo = repo_with(vec![optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()])
            .with_overrun_policy(3.0, 2);
        let src = repo.model_id("vgg16").unwrap();
        let dst = repo.model_id("vgg19").unwrap();
        repo.note_load_seconds(dst, 1.0);
        // overrun, in-budget (streak resets), overrun: still not demoted.
        assert!(!repo.note_transform_seconds(src, dst, 10.0));
        assert!(!repo.note_transform_seconds(src, dst, 1.0));
        assert!(!repo.note_transform_seconds(src, dst, 10.0));
        assert!(!repo.is_demoted(src, dst));
        assert!(repo.decide_by_id(src, dst).unwrap().is_transform());
    }

    #[test]
    fn safeguard_ratio_zero_disables_transformation() {
        let repo = ModelRepository::new(Box::new(GroupPlanner)).with_safeguard_ratio(0.0);
        let cost = CostModel::default();
        repo.register(optimus_zoo::vgg::vgg16(), &cost);
        repo.register(optimus_zoo::vgg::vgg19(), &cost);
        let d = repo.decide("vgg16", "vgg19").unwrap();
        assert!(!d.is_transform());
    }

    #[test]
    fn decide_counts_plan_cache_outcomes() {
        let registry = optimus_telemetry::MetricsRegistry::new();
        let repo = repo_with(vec![
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
            optimus_zoo::bert::bert(optimus_zoo::BertConfig::new(optimus_zoo::BertSize::Mini)),
        ]);
        repo.set_metrics_registry(&registry);
        let hit = registry.counter("optimus_plan_cache_total", &[("result", "hit")]);
        let miss = registry.counter("optimus_plan_cache_total", &[("result", "miss")]);
        repo.decide("vgg16", "vgg19").unwrap(); // cached plan applies
        repo.decide("vgg16", "vgg19").unwrap();
        repo.decide("vgg16", "bert-mini-uncased").unwrap(); // never planned
        assert_eq!(hit.get(), 2);
        assert_eq!(miss.get(), 1);
        // Placement probes must not count as request-time lookups.
        repo.transform_latency("vgg16", "vgg19").unwrap();
        assert_eq!(hit.get(), 2);
        // Registration in `repo_with` ran before the registry swap, so its
        // planning latency landed in the global registry: vgg16↔vgg19 is
        // the one planned pair (both BERT directions are family-skipped).
        let planning = optimus_telemetry::global().histogram("optimus_planning_seconds", &[]);
        assert!(planning.count() >= 2, "two plan directions observed");
    }

    #[test]
    fn model_names_sorted() {
        let repo = repo_with(vec![optimus_zoo::vgg::vgg19(), optimus_zoo::vgg::vgg11()]);
        assert_eq!(repo.model_names(), vec!["vgg11", "vgg19"]);
    }

    #[test]
    fn register_all_matches_sequential_registration() {
        let models = || {
            vec![
                optimus_zoo::vgg::vgg11(),
                optimus_zoo::vgg::vgg16(),
                optimus_zoo::resnet::resnet18(),
                optimus_zoo::bert::bert(optimus_zoo::BertConfig::new(optimus_zoo::BertSize::Tiny)),
            ]
        };
        let cost = CostModel::default();
        let sequential = repo_with(models());
        let bulk = ModelRepository::new(Box::new(GroupPlanner));
        bulk.register_all_with_threads(models(), &cost, 4);
        assert_eq!(bulk.model_names(), sequential.model_names());
        for name in bulk.model_names() {
            assert_eq!(bulk.load_cost(&name), sequential.load_cost(&name));
        }
        assert_eq!(
            bulk.export_plan_artifact().to_bytes(),
            sequential.export_plan_artifact().to_bytes(),
            "bulk and sequential registration must agree"
        );
        // Each model and each plan has one resident owner: the store's
        // reference plus the handle just looked up.
        for repo in [&bulk, &sequential] {
            assert_eq!(Arc::strong_count(&repo.model("vgg11").unwrap()), 2);
            assert_eq!(Arc::strong_count(&repo.plan("vgg11", "vgg16").unwrap()), 2);
        }
    }

    #[test]
    fn register_all_records_warmup_telemetry() {
        let registry = optimus_telemetry::MetricsRegistry::new();
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        repo.set_metrics_registry(&registry);
        let cost = CostModel::default();
        repo.register_all_with_threads(
            vec![optimus_zoo::vgg::vgg11(), optimus_zoo::vgg::vgg16()],
            &cost,
            2,
        );
        let warmup = registry.histogram("optimus_plan_warmup_seconds", &[]);
        assert_eq!(warmup.count(), 1, "one batch observed");
        let threads = registry.gauge("optimus_plan_warmup_threads", &[]);
        assert_eq!(threads.get(), 2.0);
    }

    #[test]
    fn register_all_dedupes_names_last_wins() {
        let cost = CostModel::default();
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        // Same name twice in one batch: the later graph must win, exactly
        // like sequential re-registration.
        let first = optimus_zoo::vgg::vgg11();
        let second = optimus_zoo::vgg::vgg11();
        repo.register_all_with_threads(vec![first, second, optimus_zoo::vgg::vgg16()], &cost, 2);
        assert_eq!(repo.model_count(), 2);
        assert!(repo.plan("vgg11", "vgg16").is_some());
        assert!(repo.plan("vgg16", "vgg11").is_some());
    }

    #[test]
    fn id_fast_path_agrees_with_string_path() {
        let repo = repo_with(vec![
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
            optimus_zoo::resnet::resnet50(),
            optimus_zoo::bert::bert(optimus_zoo::BertConfig::new(optimus_zoo::BertSize::Tiny)),
        ]);
        let names = repo.model_names();
        for src in &names {
            let si = repo.model_id(src).expect("registered");
            assert_eq!(repo.model_name_of(si).as_deref(), Some(src.as_str()));
            for dst in &names {
                let di = repo.model_id(dst).expect("registered");
                let by_name = repo
                    .decide(src, dst)
                    .map(|d| (d.is_transform(), d.latency()));
                let by_id = repo
                    .decide_by_id(si, di)
                    .map(|d| (d.is_transform(), d.latency()));
                assert_eq!(by_name, by_id, "{src} -> {dst}");
                assert_eq!(
                    repo.transform_latency(src, dst),
                    repo.transform_latency_by_id(si, di)
                );
                // The id-keyed chunk split is the split of the plan and
                // destination graph the name-keyed getters return.
                let chunk = 1 << 20;
                let by_name = repo.plan(src, dst).map(|plan| {
                    let model = repo.model(dst).expect("registered");
                    crate::chunks::plan_chunks(&plan, &model, chunk)
                });
                assert_eq!(by_name, repo.plan_chunks_by_id(si, di, chunk));
            }
        }
        assert!(repo.model_id("missing").is_none());
        assert!(repo.model_name_of(ModelId(999)).is_none());
        assert!(repo.decide_by_id(ModelId(0), ModelId(999)).is_none());
    }

    #[test]
    fn ids_stable_across_reregistration() {
        let cost = CostModel::default();
        let repo = repo_with(vec![optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()]);
        let before = repo.model_id("vgg16").unwrap();
        repo.register(optimus_zoo::vgg::vgg16(), &cost);
        assert_eq!(repo.model_id("vgg16"), Some(before));
        repo.register(optimus_zoo::vgg::vgg11(), &cost);
        assert_eq!(
            repo.model_id("vgg16"),
            Some(before),
            "old ids survive growth"
        );
        let d = repo
            .decide_by_id(before, repo.model_id("vgg11").unwrap())
            .unwrap();
        assert!(d.is_transform());
    }

    #[test]
    fn reregistration_replaces_plans() {
        let cost = CostModel::default();
        let repo = repo_with(vec![optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()]);
        let before = repo.plan("vgg16", "vgg19").unwrap();
        repo.register(optimus_zoo::vgg::vgg16(), &cost);
        let after = repo.plan("vgg16", "vgg19").unwrap();
        assert_eq!(before.cost, after.cost, "same graph, same plan");
        assert_eq!(repo.model_count(), 2);
    }

    #[test]
    fn shard_count_is_configurable_and_decisions_agree() {
        let models = || {
            vec![
                optimus_zoo::vgg::vgg11(),
                optimus_zoo::vgg::vgg16(),
                optimus_zoo::vgg::vgg19(),
                optimus_zoo::resnet::resnet18(),
            ]
        };
        let cost = CostModel::default();
        let baseline = ModelRepository::new(Box::new(GroupPlanner)).with_shards(1);
        assert_eq!(baseline.shard_count(), 1);
        baseline.register_all_with_threads(models(), &cost, 2);
        for shards in [2, 8, 64] {
            let repo = ModelRepository::new(Box::new(GroupPlanner)).with_shards(shards);
            assert_eq!(repo.shard_count(), shards);
            repo.register_all_with_threads(models(), &cost, 2);
            for src in baseline.model_names() {
                for dst in baseline.model_names() {
                    let a = baseline
                        .decide(&src, &dst)
                        .map(|d| (d.is_transform(), d.latency().to_bits()));
                    let b = repo
                        .decide(&src, &dst)
                        .map(|d| (d.is_transform(), d.latency().to_bits()));
                    assert_eq!(a, b, "{src} -> {dst} at {shards} shards");
                }
            }
        }
        // Re-sharding after registration rebuilds the stripes correctly.
        let reshard = {
            let repo = ModelRepository::new(Box::new(GroupPlanner)).with_shards(1);
            repo.register_all_with_threads(models(), &cost, 2);
            repo.with_shards(16)
        };
        assert!(reshard.decide("vgg11", "vgg16").unwrap().is_transform());
    }

    #[test]
    fn window_scope_bounds_planning() {
        let cost = CostModel::default();
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        let models = vec![
            optimus_zoo::vgg::vgg11(),
            optimus_zoo::vgg::vgg13(),
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
        ];
        repo.register_all_scoped(models, &cost, 2, PlanScope::Window(1), None);
        assert_eq!(repo.model_count(), 4);
        // Adjacent pairs (batch order) are planned, both directions…
        assert!(repo.plan("vgg11", "vgg13").is_some());
        assert!(repo.plan("vgg13", "vgg11").is_some());
        assert!(repo.plan("vgg16", "vgg19").is_some());
        // …pairs outside the window are not, and decide still serves them
        // (scratch load).
        assert!(repo.plan("vgg11", "vgg19").is_none());
        let d = repo.decide("vgg11", "vgg19").unwrap();
        assert!(!d.is_transform());
    }

    #[test]
    fn artifact_roundtrip_skips_the_planner() {
        let models = || vec![optimus_zoo::vgg::vgg11(), optimus_zoo::vgg::vgg16()];
        let cost = CostModel::default();
        let cold = ModelRepository::new(Box::new(GroupPlanner));
        cold.register_all_with_threads(models(), &cost, 2);
        assert_eq!(cold.planner_invocations(), 2, "two directed pairs planned");
        let artifact = cold.export_plan_artifact();
        assert_eq!(artifact.len(), 2);
        let artifact = PlanArtifactView::from_bytes(artifact.to_bytes()).unwrap();

        // A "restarted node": fresh repository, same catalog, warm-loaded
        // plans — the planner is never invoked.
        let warm = ModelRepository::new(Box::new(GroupPlanner));
        warm.register_all_with_artifact(models(), &cost, &artifact);
        assert_eq!(warm.planner_invocations(), 0, "artifact covered all pairs");
        let d = warm.decide("vgg11", "vgg16").unwrap();
        assert!(d.is_transform(), "warm-loaded plan serves transforms");
        assert_eq!(
            d.latency(),
            cold.decide("vgg11", "vgg16").unwrap().latency(),
            "persisted plan is the plan"
        );
    }

    #[test]
    fn artifact_warm_load_counts_hits_and_misses() {
        let registry = optimus_telemetry::MetricsRegistry::new();
        let cost = CostModel::default();
        let cold = ModelRepository::new(Box::new(GroupPlanner));
        cold.register_all_with_threads(
            vec![optimus_zoo::vgg::vgg11(), optimus_zoo::vgg::vgg16()],
            &cost,
            2,
        );
        let artifact =
            PlanArtifactView::from_bytes(cold.export_plan_artifact().to_bytes()).unwrap();

        // Warm-load a catalog with one extra model: the persisted pairs
        // hit, the four directions touching vgg19 miss and re-plan.
        let warm = ModelRepository::new(Box::new(GroupPlanner));
        warm.set_metrics_registry(&registry);
        warm.register_all_with_artifact(
            vec![
                optimus_zoo::vgg::vgg11(),
                optimus_zoo::vgg::vgg16(),
                optimus_zoo::vgg::vgg19(),
            ],
            &cost,
            &artifact,
        );
        let hits = registry.counter("optimus_plan_cache_warm_total", &[("result", "hit")]);
        let misses = registry.counter("optimus_plan_cache_warm_total", &[("result", "miss")]);
        assert_eq!(hits.get(), 2);
        assert_eq!(misses.get(), 4);
        assert_eq!(warm.planner_invocations(), 4);
        assert!(warm.decide("vgg11", "vgg19").unwrap().is_transform());
    }

    #[test]
    fn artifact_rebinds_names_by_content() {
        // The same graph registered under a different name still hits the
        // content-addressed cache; the reused plan carries local names.
        let cost = CostModel::default();
        let cold = ModelRepository::new(Box::new(GroupPlanner));
        cold.register_all_with_threads(
            vec![optimus_zoo::vgg::vgg11(), optimus_zoo::vgg::vgg16()],
            &cost,
            2,
        );
        let artifact =
            PlanArtifactView::from_bytes(cold.export_plan_artifact().to_bytes()).unwrap();

        let mut renamed_a = optimus_zoo::vgg::vgg11();
        renamed_a.set_name("model-a");
        let mut renamed_b = optimus_zoo::vgg::vgg16();
        renamed_b.set_name("model-b");
        let warm = ModelRepository::new(Box::new(GroupPlanner));
        warm.register_all_with_artifact(vec![renamed_a, renamed_b], &cost, &artifact);
        assert_eq!(warm.planner_invocations(), 0);
        let plan = warm.plan("model-a", "model-b").unwrap();
        assert_eq!(plan.src_model, "model-a");
        assert_eq!(plan.dst_model, "model-b");
        assert!(warm.decide("model-a", "model-b").unwrap().is_transform());
    }
}
