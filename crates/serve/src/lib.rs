//! # optimus-serve — a live, in-process serving engine
//!
//! Where `optimus-sim` *models* latency, this crate actually *runs* the
//! system, mirroring the paper's §7 prototype (gateway service + container
//! scheduler) with threads instead of Docker:
//!
//! - a [`Gateway`] accepts inference requests and routes them to worker
//!   nodes over crossbeam channels;
//! - each worker owns *live containers* that hold real
//!   [`optimus_model::ModelGraph`]s;
//! - on a miss, the worker consults the [`optimus_core::ModelRepository`]
//!   plan cache and — when the safeguard approves — **executes the
//!   meta-operator plan on the container's actual graph** via
//!   [`optimus_core::execute_plan`], verifying the result structurally;
//! - inference requests then run through the real forward-pass engine.
//!
//! Latencies reported in responses are measured wall-clock times of the
//! real work (planning lookups, graph transformation, inference). Model
//! "loading" in-process is a graph clone — the latency *model* for loading
//! lives in `optimus-profile`/`optimus-sim`; this crate demonstrates the
//! *mechanism* end to end.
//!
//! ```
//! use optimus_serve::{Gateway, GatewayConfig};
//! use optimus_model::tensor::Tensor;
//!
//! // Two tiny structurally-similar models.
//! let a = tiny_model("model-a", 4);
//! let b = tiny_model("model-b", 8);
//! let gateway = Gateway::builder(GatewayConfig::default())
//!     .register(a)
//!     .register(b)
//!     .spawn();
//!
//! let out = gateway.infer("model-a", Tensor::zeros([1, 3, 8, 8])).unwrap();
//! assert_eq!(out.output.shape().dims(), &[1, 4, 8, 8]);
//! gateway.shutdown();
//!
//! fn tiny_model(name: &str, ch: usize) -> optimus_model::ModelGraph {
//!     let mut bld = optimus_model::GraphBuilder::new(name);
//!     let i = bld.input([1, 3, 8, 8]);
//!     let _ = bld.conv2d_after(i, 3, ch, (3, 3), (1, 1), 1);
//!     bld.finish().unwrap()
//! }
//! ```

mod api;
mod gateway;
pub mod http;
pub mod parser;
mod predict;
mod worker;

pub use api::{
    DecodeResponse, GatewayConfig, InferenceResponse, ServeError, ServedStart, ServingConfig,
};
pub use gateway::{Gateway, GatewayBuilder, InferenceResult, PendingDecode, PendingInference};
pub use http::{HttpConfig, HttpServer};

// Re-exported so serving deployments can configure and read the weight
// store without depending on `optimus-store` directly.
pub use optimus_store::{StoreConfig, StoreStats};

// Re-exported so callers can hand [`GatewayBuilder::metrics`] a hermetic
// registry without depending on `optimus-telemetry` directly.
pub use optimus_telemetry::MetricsRegistry;

// Re-exported so deployments can enable chaos testing without depending
// on `optimus-faults` directly.
pub use optimus_faults::{FaultSpec, RetryPolicy};

// Re-exported so deployments can enable arrival prediction (adaptive
// keep-alive + speculative transformation) without depending on
// `optimus-predict` directly.
pub use optimus_predict::{PredictConfig, SpeculationConfig};

// Re-exported so deployments can tune the token-level decode cost model
// ([`GatewayBuilder::llm_config`]) without depending on `optimus-llm`
// directly.
pub use optimus_llm::LlmConfig;
