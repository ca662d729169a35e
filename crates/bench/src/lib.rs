//! # optimus-bench — experiment harness
//!
//! Shared catalogs, workloads and formatting for the `exp` runner, which
//! reproduces every table and figure of the paper's evaluation plus the
//! ablations and extensions (`cargo run --release -p optimus-bench --bin
//! exp -- --list` names them; `exp <name>` runs one). Every experiment is
//! seeded and deterministic; each prints a paper-style table to stdout and
//! writes machine-readable JSON to `results/exp_<name>.json` when a
//! `results/` directory exists.

pub mod sweep;

use std::sync::Arc;

use optimus_core::{GroupPlanner, ModelRepository, Planner};
use optimus_model::ModelGraph;
use optimus_profile::{CostModel, CostProvider};
use optimus_workload::{AzureTraceGenerator, PoissonGenerator, Trace};

/// The 21 representative models of Figure 11: 16 CNNs across six families
/// plus 5 BERT variants.
pub fn figure11_models() -> Vec<ModelGraph> {
    use optimus_zoo::{bert, BertConfig, BertSize, BertTask};
    vec![
        optimus_zoo::vgg::vgg11(),
        optimus_zoo::vgg::vgg16(),
        optimus_zoo::vgg::vgg19(),
        optimus_zoo::resnet::resnet18(),
        optimus_zoo::resnet::resnet34(),
        optimus_zoo::resnet::resnet50(),
        optimus_zoo::resnet::resnet101(),
        optimus_zoo::resnet::resnet152(),
        optimus_zoo::densenet::densenet121(),
        optimus_zoo::densenet::densenet169(),
        optimus_zoo::densenet::densenet201(),
        optimus_zoo::mobilenet::mobilenet_v1(1.0, 0),
        optimus_zoo::mobilenet::mobilenet_v2(1.0, 0),
        optimus_zoo::mobilenet::mobilenet_v1(0.5, 0),
        optimus_zoo::xception::xception(),
        optimus_zoo::inception::inception_v1(),
        bert::bert(BertConfig::new(BertSize::Tiny)),
        bert::bert(BertConfig::new(BertSize::Mini)),
        bert::bert(BertConfig::new(BertSize::Small)),
        bert::bert(BertConfig::new(BertSize::Base)),
        bert::bert(BertConfig::new(BertSize::Base).task(BertTask::QuestionAnswering)),
    ]
}

/// The function population for the end-to-end runs (Figures 13/14/16):
/// a CNN mix across all six families (several widths and weight variants)
/// plus the ten BERT variants — 37 functions on 2 nodes × 12 slots, the
/// paper's "not enough warm containers for every model type" regime.
pub fn figure13_models() -> Vec<ModelGraph> {
    let mut models = Vec::new();
    for depth in [11usize, 16, 19] {
        models.push(optimus_zoo::vgg::vgg_scaled(depth, 1.0, 0));
        models.push(optimus_zoo::vgg::vgg_scaled(depth, 0.5, 0));
    }
    models.push(optimus_zoo::vgg::vgg_scaled(16, 1.0, 1));
    for depth in [18usize, 34, 50, 101] {
        models.push(optimus_zoo::resnet::resnet_scaled(depth, 1.0, 0));
        models.push(optimus_zoo::resnet::resnet_scaled(depth, 0.5, 0));
    }
    models.push(optimus_zoo::resnet::resnet_scaled(50, 1.0, 1));
    for depth in [121usize, 169] {
        models.push(optimus_zoo::densenet::densenet_variant(depth, 0));
    }
    models.push(optimus_zoo::densenet::densenet_variant(121, 1));
    for alpha in [0.5, 1.0] {
        models.push(optimus_zoo::mobilenet::mobilenet_v1(alpha, 0));
        models.push(optimus_zoo::mobilenet::mobilenet_v2(alpha, 0));
    }
    models.push(optimus_zoo::xception::xception());
    models.push(optimus_zoo::xception::xception_variant(1));
    models.push(optimus_zoo::inception::inception_v1());
    models.push(optimus_zoo::inception::inception_variant(1));
    models.extend(optimus_zoo::bert::bert_zoo());
    models
}

/// Register models into a repository with the group planner and the given
/// environment's cost model. The offline pairwise planning sweep fans out
/// across a worker pool sized to the machine
/// ([`ModelRepository::register_all`]); the plan cache is identical to
/// sequential registration.
pub fn build_repo(
    models: Vec<ModelGraph>,
    env: optimus_profile::Environment,
) -> Arc<ModelRepository> {
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    let cost = CostModel::new(env);
    repo.register_all(models, &cost);
    Arc::new(repo)
}

/// The four workloads of §8.1 over a function set: three Poisson
/// intensities and the Azure-style trace.
pub fn workloads(functions: &[String], duration: f64, seed: u64) -> Vec<(String, Trace)> {
    use optimus_workload::rates;
    vec![
        (
            "Poisson λ=10⁻³·⁵".to_string(),
            PoissonGenerator::new(rates::INFREQUENT, duration, seed).generate(functions),
        ),
        (
            "Poisson λ=10⁻²·⁵".to_string(),
            PoissonGenerator::new(rates::MIDDLE, duration, seed + 1).generate(functions),
        ),
        (
            "Poisson λ=10⁻²".to_string(),
            PoissonGenerator::new(rates::FREQUENT, duration, seed + 2).generate(functions),
        ),
        (
            "Azure".to_string(),
            AzureTraceGenerator::new(duration, seed + 3).generate(functions),
        ),
    ]
}

/// Transformation latency between two already-built models under the
/// group planner + safeguard (the Figure 11 cell value).
pub fn transform_latency(src: &ModelGraph, dst: &ModelGraph, cost: &CostModel) -> f64 {
    if src.family().is_transformer() != dst.family().is_transformer() {
        // §8.2: cross-paradigm transformation always trips the safeguard.
        return cost.model_load_cost(dst);
    }
    let plan = GroupPlanner.plan(src, dst, cost);
    plan.cost.total().min(cost.model_load_cost(dst))
}

/// Print an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            let pad = widths.get(i).copied().unwrap_or(0);
            s.push_str(&format!("{:<w$}  ", c, w = pad));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Format seconds with 3 decimals.
pub fn fmt_s(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a ratio as a percentage with 1 decimal.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_set_has_21_models() {
        let models = figure11_models();
        assert_eq!(models.len(), 21);
        let cnn = models
            .iter()
            .filter(|m| !m.family().is_transformer())
            .count();
        assert_eq!(cnn, 16);
    }

    #[test]
    fn figure13_population_is_pressured() {
        let models = figure13_models();
        assert!(models.len() >= 35, "{} functions", models.len());
        let names: std::collections::HashSet<_> =
            models.iter().map(|m| m.name().to_string()).collect();
        assert_eq!(names.len(), models.len(), "duplicate model names");
    }

    #[test]
    fn workload_set_is_complete() {
        let fns = vec!["a".to_string(), "b".to_string()];
        let w = workloads(&fns, 10_000.0, 1);
        assert_eq!(w.len(), 4);
        assert!(w
            .iter()
            .all(|(_, t)| !t.is_empty() || t.duration == 10_000.0));
    }

    #[test]
    fn transform_latency_respects_safeguard() {
        let cost = CostModel::default();
        let cnn = optimus_zoo::resnet::resnet18();
        let bert =
            optimus_zoo::bert::bert(optimus_zoo::BertConfig::new(optimus_zoo::BertSize::Tiny));
        let v = transform_latency(&cnn, &bert, &cost);
        assert_eq!(v, cost.model_load_cost(&bert));
    }
}
