//! Byte-identity guard for the store's accounting: the serialised
//! `SimReport` of every policy under three node-memory budgets (plus one
//! elastic-fleet `plan_warm` run, so the joiner path provisions stores
//! mid-run) must hash to the values recorded at commit a0b7c66 — the last
//! commit whose `NodeStore` rescanned every resident chunk per call (the
//! fleet run's at the commit that changed the shipped artifact's bytes).
//!
//! The store may get cheaper; it may not price a single byte differently.
//! A legitimate behaviour change updates the constants below *in the PR
//! that explains it*; a perf change must leave them alone.

use std::sync::Arc;

use optimus_core::{GroupPlanner, ModelRepository, PlanScope};
use optimus_faults::{FaultPlan, FaultSpec};
use optimus_profile::CostModel;
use optimus_sim::{
    FleetConfig, PlacementStrategy, Platform, Policy, PredictConfig, SimConfig, StoreConfig,
};
use optimus_workload::{AzureTraceGenerator, Invocation, Trace};
use optimus_zoo::bert::{BertConfig, BertSize};

const MIB: u64 = 1024 * 1024;

/// Node-memory budgets: never over budget (the default), over budget on
/// some releases, over budget on nearly every release. The tightest one
/// also shrinks the disk cache so chunks are forgotten back to remote.
const BUDGETS: [(&str, u64, u64); 3] = [
    ("8GiB", 8 * 1024 * MIB, 64 * 1024 * MIB),
    ("1GiB", 1024 * MIB, 64 * 1024 * MIB),
    ("64MiB", 64 * MIB, 64 * MIB),
];

const TRACE_SEEDS: [u64; 2] = [7, 1_000_003];

/// FNV-1a hashes of the concatenated report JSON over `TRACE_SEEDS`,
/// row = policy in `Policy::ALL` order, column = budget in `BUDGETS` order.
const EXPECTED: [[u64; 3]; 4] = [
    [
        0x78e1_3761_591c_d51a,
        0x61aa_8dc4_a608_c4e3,
        0x02f8_0397_f887_8aab,
    ],
    [
        0x004b_9d66_c772_ecc8,
        0x900e_982f_78bb_6f02,
        0xee75_a75f_ab27_44a6,
    ],
    [
        0xfa67_06bc_614b_bb44,
        0x3360_0dd0_1821_b1fa,
        0x15a9_2981_17ac_7c1e,
    ],
    [
        0xc99a_2c32_e983_90ba,
        0x2547_139b_9e7a_77c2,
        0x4aa2_7ef9_9f6e_9cab,
    ],
];

/// Same hash for the fleet + `plan_warm` flash crowd. Re-recorded once,
/// with plan artifact v2: a `plan_warm` joiner is shipped the artifact's
/// bytes, and that PR changed exactly those (JSON → the binary container,
/// so fewer bytes per joiner; the 24 hashes above run with `plan_warm` off
/// and did not move). The container carries no wall-clock field, so the
/// value is the same in every process, debug or release.
const EXPECTED_FLEET: u64 = 0x3a07_cfc7_b985_19da;

fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Five same-family CNN groups separated by lone BERTs, planned against
/// the one predecessor in this order only. Cross-paradigm pairs are never
/// planned, so plans (and therefore pinned payload chunks) exist inside
/// the VGG / ResNet / MobileNet groups, while the separators and the
/// singleton families are ordinary LRU citizens that capacity pressure
/// demotes and forgets — with all pairs planned, every chunk of every
/// model is some plan's payload, pinned, and no budget ever bites.
fn repo() -> Arc<ModelRepository> {
    let lone_bert = |size| optimus_zoo::bert::bert(BertConfig::new(size));
    let models = vec![
        optimus_zoo::vgg::vgg11(),
        optimus_zoo::vgg::vgg16(),
        optimus_zoo::vgg::vgg19(),
        lone_bert(BertSize::Tiny),
        optimus_zoo::resnet::resnet18(),
        optimus_zoo::resnet::resnet34(),
        optimus_zoo::resnet::resnet50(),
        lone_bert(BertSize::Mini),
        optimus_zoo::mobilenet::mobilenet_v1(1.0, 0),
        optimus_zoo::mobilenet::mobilenet_v2(1.0, 0),
        lone_bert(BertSize::Small),
        optimus_zoo::densenet::densenet_variant(121, 0),
        lone_bert(BertSize::Medium),
        optimus_zoo::xception::xception(),
        lone_bert(BertSize::Base),
        optimus_zoo::inception::inception_v1(),
    ];
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    repo.register_all_scoped(models, &CostModel::default(), 1, PlanScope::Window(1), None);
    Arc::new(repo)
}

/// Store + predictor + a fault plan dense enough that node crashes
/// (`NodeStore::crash`) and container kills fire within the trace.
fn config(memory: u64, disk: u64) -> SimConfig {
    SimConfig {
        capacity_per_node: 3,
        store: Some(StoreConfig {
            node_memory_bytes: memory,
            node_disk_bytes: disk,
            ..StoreConfig::default()
        }),
        predict: Some(PredictConfig::default()),
        faults: Some(FaultPlan::from_spec(FaultSpec::uniform(11, 0.2))),
        ..SimConfig::default()
    }
}

fn report_hash(platform: &Platform, traces: &[Trace]) -> u64 {
    traces.iter().fold(FNV_OFFSET, |h, trace| {
        let report = platform.run(trace);
        assert_eq!(report.len(), trace.len(), "every invocation is served");
        assert!(report.store.is_some(), "store configured, stats reported");
        let json = serde_json::to_string(&report).expect("report serialises");
        fnv1a(h, json.as_bytes())
    })
}

#[test]
fn reports_match_the_hashes_recorded_before_the_store_rewrite() {
    let repo = repo();
    let names = repo.model_names();
    let traces: Vec<Trace> = TRACE_SEEDS
        .iter()
        .map(|&seed| {
            let mut trace = AzureTraceGenerator::new(20_000.0, seed).generate(&names);
            trace.invocations.truncate(1_500);
            trace
        })
        .collect();
    assert!(
        traces.iter().all(|t| t.len() >= 200),
        "traces are non-trivial"
    );
    let mut got = [[0u64; 3]; 4];
    for (p, policy) in Policy::ALL.into_iter().enumerate() {
        for (b, (_, memory, disk)) in BUDGETS.into_iter().enumerate() {
            let platform = Platform::new(config(memory, disk), policy, repo.clone());
            got[p][b] = report_hash(&platform, &traces);
            // Same platform, same trace, second run: the boot store the
            // platform clones per run must not carry state across runs.
            assert_eq!(
                got[p][b],
                report_hash(&platform, &traces),
                "{policy} @ {}: replays differ",
                BUDGETS[b].0
            );
        }
    }
    assert_eq!(
        got,
        EXPECTED,
        "SimReport JSON moved (rows: {:?}, columns: {:?}); got {got:#018x?}",
        Policy::ALL,
        BUDGETS.map(|b| b.0)
    );
}

#[test]
fn fleet_joiner_reports_match_the_recorded_hash() {
    let repo = repo();
    // A flash crowd on one function: the autoscaler adds joiners, each of
    // which provisions a store mid-run and warms the wave's chunks plus
    // the plan artifact into it.
    let crowd = Trace::new(
        660.0,
        (0..600)
            .map(|i| Invocation {
                time: i as f64 * 0.1,
                function: "resnet18".to_string(),
            })
            .collect(),
    );
    let cfg = SimConfig {
        nodes: 1,
        capacity_per_node: 2,
        placement: PlacementStrategy::Hash,
        store: Some(StoreConfig {
            node_memory_bytes: 1024 * MIB,
            ..StoreConfig::default()
        }),
        fleet: Some(FleetConfig {
            max_nodes: 4,
            scale_out_pressure: 0.8,
            sustain_s: 2.0,
            cooldown_s: 1.0e6,
            step: 3,
            scale_in_idle_s: 1.0e6,
            provision_s: 1.0,
            multicast: true,
        }),
        plan_warm: true,
        ..SimConfig::default()
    };
    let platform = Platform::new(cfg, Policy::Optimus, repo);
    let report = platform.run(&crowd);
    let fleet = report.fleet.as_ref().expect("fleet layer enabled");
    assert!(fleet.nodes_added > 0, "the joiner path must run");
    let got = report_hash(&platform, std::slice::from_ref(&crowd));
    assert_eq!(
        got, EXPECTED_FLEET,
        "fleet SimReport JSON moved; got {got:#018x}"
    );
}
