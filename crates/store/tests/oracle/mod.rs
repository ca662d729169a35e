//! Test-only reference model: the `NodeStore` body as it stood at commit
//! a0b7c66, verbatim apart from its imports (the unit tests stayed with the
//! production store). Every operation rescans all resident entries
//! (`enforce_capacity` sums each tier, `uniq` builds a `HashSet` + `Vec`),
//! which is exactly why it is easy to believe — and why the production
//! store is checked against it step by step instead of replacing it.

use std::collections::{HashMap, HashSet};

use optimus_store::{ChunkId, ChunkRef, FetchCost, StoreConfig, StoreStats, Tier};

struct ChunkEntry {
    bytes: u64,
    tier: Tier,
    /// Live containers referencing this chunk (only meaningful at
    /// [`Tier::Container`]).
    refs: u32,
    /// Pinned chunks are never demoted or forgotten by capacity pressure.
    pinned: bool,
    /// Logical LRU clock value of the last touch.
    touch: u64,
}

/// The per-node content-addressed chunk store.
pub struct NodeStore {
    config: StoreConfig,
    chunks: HashMap<ChunkId, ChunkEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
    admitted_bytes: u64,
    fetched_bytes: u64,
}

impl NodeStore {
    /// An empty store under `config`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration violates the tier ordering invariant
    /// ([`StoreConfig::validate`]).
    pub fn new(config: StoreConfig) -> Self {
        config.validate().expect("store config must be valid");
        NodeStore {
            config,
            chunks: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            admitted_bytes: 0,
            fetched_bytes: 0,
        }
    }

    /// The configuration this store runs under.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Deduplicate a chunk list by id, keeping first occurrences: a
    /// container holding the same content twice still references (and
    /// transports) it once.
    fn uniq(chunks: &[ChunkRef]) -> Vec<ChunkRef> {
        let mut seen = HashSet::with_capacity(chunks.len());
        chunks
            .iter()
            .copied()
            .filter(|c| seen.insert(c.id))
            .collect()
    }

    fn cost_of(&self, container: u64, memory: u64, disk: u64, remote: u64) -> FetchCost {
        FetchCost {
            container_bytes: container,
            memory_bytes: memory,
            disk_bytes: disk,
            remote_bytes: remote,
            seconds: self.config.transport_seconds(Tier::NodeMemory, memory)
                + self.config.transport_seconds(Tier::NodeDisk, disk)
                + self.config.transport_seconds(Tier::Remote, remote),
        }
    }

    /// Read-only estimate of what admitting `chunks` would cost right now.
    pub fn estimate(&self, chunks: &[ChunkRef]) -> FetchCost {
        let (mut con, mut mem, mut disk, mut rem) = (0u64, 0u64, 0u64, 0u64);
        for c in Self::uniq(chunks) {
            match self.chunks.get(&c.id).map(|e| e.tier) {
                Some(Tier::Container) => con += c.bytes,
                Some(Tier::NodeMemory) => mem += c.bytes,
                Some(Tier::NodeDisk) => disk += c.bytes,
                Some(Tier::Remote) | None => rem += c.bytes,
            }
        }
        self.cost_of(con, mem, disk, rem)
    }

    /// A container starts holding `chunks`: promote them to
    /// [`Tier::Container`], add one reference each, and return the
    /// transport cost by source tier.
    pub fn admit(&mut self, chunks: &[ChunkRef]) -> FetchCost {
        let (mut con, mut mem, mut disk, mut rem) = (0u64, 0u64, 0u64, 0u64);
        for c in Self::uniq(chunks) {
            self.clock += 1;
            self.admitted_bytes += c.bytes;
            match self.chunks.get_mut(&c.id) {
                Some(e) if e.tier != Tier::Remote => {
                    self.hits += 1;
                    match e.tier {
                        Tier::Container => con += c.bytes,
                        Tier::NodeMemory => mem += c.bytes,
                        Tier::NodeDisk => disk += c.bytes,
                        Tier::Remote => unreachable!("guarded above"),
                    }
                    e.tier = Tier::Container;
                    e.refs += 1;
                    e.touch = self.clock;
                }
                Some(e) => {
                    // Known (pinned placeholder) but not resident.
                    self.misses += 1;
                    rem += c.bytes;
                    e.tier = Tier::Container;
                    e.refs += 1;
                    e.touch = self.clock;
                }
                None => {
                    self.misses += 1;
                    rem += c.bytes;
                    self.chunks.insert(
                        c.id,
                        ChunkEntry {
                            bytes: c.bytes,
                            tier: Tier::Container,
                            refs: 1,
                            pinned: false,
                            touch: self.clock,
                        },
                    );
                }
            }
        }
        self.fetched_bytes += rem;
        self.enforce_capacity();
        self.cost_of(con, mem, disk, rem)
    }

    /// A transformation synthesized `chunks` inside a live container
    /// (reshaped/reduced weights computed from source content already in
    /// place): register them at [`Tier::Container`] with a reference each,
    /// free of transport. Not an admission — the hit/miss and fetch
    /// counters are untouched, because no lookup against the tiers
    /// happened; the bytes were *written*, not read.
    pub fn produce(&mut self, chunks: &[ChunkRef]) {
        for c in Self::uniq(chunks) {
            self.clock += 1;
            let clock = self.clock;
            self.chunks
                .entry(c.id)
                .and_modify(|e| {
                    e.tier = Tier::Container;
                    e.refs += 1;
                    e.touch = clock;
                })
                .or_insert(ChunkEntry {
                    bytes: c.bytes,
                    tier: Tier::Container,
                    refs: 1,
                    pinned: false,
                    touch: clock,
                });
        }
        self.enforce_capacity();
    }

    /// A multicast (or prefetch) delivered `chunks` into the node's page
    /// cache: place them at [`Tier::NodeMemory`] with no references — the
    /// first container to admit them pays memory transport instead of the
    /// remote fetch. Chunks already resident at a warmer-or-equal tier are
    /// untouched (warming never demotes). Returns the bytes newly made
    /// resident. Like [`NodeStore::produce`], this is not an admission:
    /// the hit/miss and fetch counters track container loads only; the
    /// transfer itself is priced by the caller's multicast plan.
    pub fn warm(&mut self, chunks: &[ChunkRef]) -> u64 {
        let mut delivered = 0;
        for c in Self::uniq(chunks) {
            self.clock += 1;
            let clock = self.clock;
            match self.chunks.get_mut(&c.id) {
                Some(e) if e.tier >= Tier::NodeMemory => {}
                Some(e) => {
                    delivered += c.bytes;
                    e.tier = Tier::NodeMemory;
                    e.touch = clock;
                }
                None => {
                    delivered += c.bytes;
                    self.chunks.insert(
                        c.id,
                        ChunkEntry {
                            bytes: c.bytes,
                            tier: Tier::NodeMemory,
                            refs: 0,
                            pinned: false,
                            touch: clock,
                        },
                    );
                }
            }
        }
        self.enforce_capacity();
        delivered
    }

    /// A container stops holding `chunks` (eviction or repurposing): drop
    /// one reference each; chunks nobody references demote to
    /// [`Tier::NodeMemory`] — keep-alive expiry keeps the bytes warm.
    pub fn release(&mut self, chunks: &[ChunkRef]) {
        for c in Self::uniq(chunks) {
            if let Some(e) = self.chunks.get_mut(&c.id) {
                e.refs = e.refs.saturating_sub(1);
                if e.refs == 0 && e.tier == Tier::Container {
                    e.tier = Tier::NodeMemory;
                }
            }
        }
        self.enforce_capacity();
    }

    /// Pin `chunks`: capacity pressure will never demote or forget them.
    /// Unknown chunks are remembered as pinned [`Tier::Remote`]
    /// placeholders (pinning declares intent, it does not fetch).
    pub fn pin(&mut self, chunks: &[ChunkRef]) {
        for c in Self::uniq(chunks) {
            self.clock += 1;
            let clock = self.clock;
            self.chunks
                .entry(c.id)
                .and_modify(|e| e.pinned = true)
                .or_insert(ChunkEntry {
                    bytes: c.bytes,
                    tier: Tier::Remote,
                    refs: 0,
                    pinned: true,
                    touch: clock,
                });
        }
    }

    /// Unpin `chunks`, making them ordinary LRU citizens again.
    pub fn unpin(&mut self, chunks: &[ChunkRef]) {
        for c in Self::uniq(chunks) {
            if let Some(e) = self.chunks.get_mut(&c.id) {
                e.pinned = false;
            }
        }
        self.enforce_capacity();
    }

    /// The node loses power: every volatile tier is wiped. Containers are
    /// gone, so all references drop to zero; chunks resident at
    /// [`Tier::Container`] or [`Tier::NodeMemory`] are lost (pinned ones
    /// survive as [`Tier::Remote`] placeholders — the pin declares the
    /// plan working set, which recovery re-fetches). The disk cache and
    /// cumulative counters survive the crash. Returns the volatile bytes
    /// lost.
    pub fn crash(&mut self) -> u64 {
        let mut lost = 0;
        self.chunks.retain(|_, e| {
            e.refs = 0;
            match e.tier {
                Tier::Container | Tier::NodeMemory => {
                    lost += e.bytes;
                    if e.pinned {
                        e.tier = Tier::Remote;
                        true
                    } else {
                        false
                    }
                }
                Tier::NodeDisk | Tier::Remote => true,
            }
        });
        lost
    }

    /// Demote LRU overflow: node memory over budget spills to disk, disk
    /// over budget forgets back to remote. Pinned and referenced chunks
    /// are exempt, so the budgets are soft under pinning pressure.
    fn enforce_capacity(&mut self) {
        self.demote_tier(
            Tier::NodeMemory,
            Tier::NodeDisk,
            self.config.node_memory_bytes,
        );
        self.demote_tier(Tier::NodeDisk, Tier::Remote, self.config.node_disk_bytes);
    }

    fn demote_tier(&mut self, from: Tier, to: Tier, budget: u64) {
        let mut used: u64 = self
            .chunks
            .values()
            .filter(|e| e.tier == from)
            .map(|e| e.bytes)
            .sum();
        if used <= budget {
            return;
        }
        // Oldest-first among unpinned entries of the tier; ties break on
        // the id for determinism.
        let mut victims: Vec<(u64, ChunkId, u64)> = self
            .chunks
            .iter()
            .filter(|(_, e)| e.tier == from && !e.pinned)
            .map(|(id, e)| (e.touch, *id, e.bytes))
            .collect();
        victims.sort_unstable();
        for (_, id, bytes) in victims {
            if used <= budget {
                break;
            }
            used -= bytes;
            if to == Tier::Remote {
                let keep_placeholder = self.chunks.get(&id).is_some_and(|e| e.pinned);
                if !keep_placeholder {
                    self.chunks.remove(&id);
                }
            } else if let Some(e) = self.chunks.get_mut(&id) {
                e.tier = to;
            }
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats {
            hits: self.hits,
            misses: self.misses,
            admitted_bytes: self.admitted_bytes,
            fetched_bytes: self.fetched_bytes,
            ..StoreStats::default()
        };
        for e in self.chunks.values() {
            match e.tier {
                Tier::Container => s.container_bytes += e.bytes,
                Tier::NodeMemory => s.memory_bytes += e.bytes,
                Tier::NodeDisk => s.disk_bytes += e.bytes,
                Tier::Remote => continue, // pinned placeholder, not resident
            }
            s.chunks += 1;
            if e.pinned {
                s.pinned += 1;
            }
            s.referenced_bytes += u64::from(e.refs.max(1)) * e.bytes;
            s.unique_bytes += e.bytes;
        }
        s.dedup_ratio = if s.unique_bytes == 0 {
            1.0
        } else {
            s.referenced_bytes as f64 / s.unique_bytes as f64
        };
        s
    }
}
