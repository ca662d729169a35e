//! Pins the seeded trace streams the experiments replay: the request
//! count and the FNV-1a hash of the serialised trace, for the four §8.1
//! workloads of Figs 13, 14 and 16 (`workloads(figure13 names, 24 h,
//! seed 7)`) and for `exp prewarm_predict`'s default diurnal trace.
//!
//! Every paper figure is a function of these streams. Swapping the RNG
//! once moved every figure with nothing failing (the Azure trace went
//! from 67 758 to 45 136 requests); with this test, a change to a
//! generator's random stream is a deliberate edit of the constants below,
//! made in the change that explains it.

use optimus_bench::{figure13_models, workloads};
use optimus_workload::{DiurnalBurstGenerator, Trace};

/// `(workload, requests, FNV-1a of the trace JSON)`.
const EXPECTED: [(&str, usize, u64); 5] = [
    ("Poisson λ=10⁻³·⁵", 976, 0x2bfc_1303_d0c1_4fdb),
    ("Poisson λ=10⁻²·⁵", 10_154, 0xdb69_3d57_e759_a38b),
    ("Poisson λ=10⁻²", 31_773, 0x8a2a_2fc1_f143_d912),
    ("Azure", 45_136, 0xf036_16bf_2e16_4001),
    ("diurnal", 23_060, 0x525a_62c3_d87c_fff1),
];

fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[test]
fn seeded_traces_match_their_recorded_fingerprints() {
    let names: Vec<String> = figure13_models()
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let mut traces: Vec<(String, Trace)> = workloads(&names, 86_400.0, 7);
    traces.push((
        "diurnal".to_string(),
        DiurnalBurstGenerator::new(172_800.0, 42, 0.002).generate(&names),
    ));
    let actual: Vec<(String, usize, u64)> = traces
        .iter()
        .map(|(name, trace)| {
            let json = serde_json::to_string(trace).expect("trace serializes");
            (
                name.clone(),
                trace.len(),
                fnv1a(FNV_OFFSET, json.as_bytes()),
            )
        })
        .collect();
    let expected: Vec<(String, usize, u64)> = EXPECTED
        .iter()
        .map(|&(name, requests, hash)| (name.to_string(), requests, hash))
        .collect();
    assert_eq!(
        actual, expected,
        "a trace generator's random stream changed"
    );
}
