//! Inter-function container scheduling primitives (§4.2).
//!
//! A container is *idle* when no request has been routed to it for longer
//! than a threshold (the paper uses 60 s, like Pagurus); idle containers
//! are the donors for inter-function model transformation. Given the set
//! of idle containers on a node and a destination model, the scheduler
//! picks the donor whose cached plan is cheapest — or reports that a cold
//! start is the best option.

use std::sync::Arc;

use crate::cache::{ModelRepository, TransformDecision};
use crate::metaop::TransformPlan;
use optimus_model::ModelId;

/// Idle-container identification timer (§4.2): reset on every routed
/// request, idle once `threshold` seconds elapse without one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleTimer {
    last_request: f64,
    threshold: f64,
}

impl IdleTimer {
    /// Timer with the given idle threshold, last touched at `now`.
    pub fn new(now: f64, threshold: f64) -> Self {
        IdleTimer {
            last_request: now,
            threshold,
        }
    }

    /// Reset: a request was routed to the container at `now`.
    pub fn touch(&mut self, now: f64) {
        self.last_request = now;
    }

    /// Whether the container counts as idle at `now`.
    pub fn is_idle(&self, now: f64) -> bool {
        now - self.last_request >= self.threshold
    }

    /// Seconds since the last routed request.
    pub fn idle_for(&self, now: f64) -> f64 {
        now - self.last_request
    }

    /// The configured idle threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// A transformation source chosen by [`choose_source_by_id`].
#[derive(Debug, Clone)]
pub struct SourceChoice<C> {
    /// The chosen donor container handle.
    pub container: C,
    /// The cached plan from the donor's model to the destination.
    pub plan: Arc<TransformPlan>,
    /// The plan's execution latency (s).
    pub latency: f64,
}

/// Pick the cheapest idle donor for serving `dst_model`, consulting the
/// repository's cached plans and safeguard: the per-event donor scan.
///
/// `idle` yields `(handle, interned model id)` pairs for the node's idle
/// containers — `Copy` data, so the scan neither clones names nor hashes
/// strings; each candidate costs one slot read inside
/// [`ModelRepository::decide_by_id`]. Returns `None` when no donor beats a
/// scratch load — the caller should cold-start (or Pagurus-style
/// repurpose) instead.
pub fn choose_source_by_id<C>(
    repo: &ModelRepository,
    idle: impl IntoIterator<Item = (C, ModelId)>,
    dst_model: ModelId,
) -> Option<SourceChoice<C>> {
    let mut best: Option<SourceChoice<C>> = None;
    for (handle, src_model) in idle {
        if src_model == dst_model {
            // A warm container already holding the model should have been
            // used as a plain warm start before transformation is ever
            // considered; skip it here.
            continue;
        }
        if let Some(TransformDecision::Transform(plan)) = repo.decide_by_id(src_model, dst_model) {
            let latency = plan.cost.total();
            if best.as_ref().is_none_or(|b| latency < b.latency) {
                best = Some(SourceChoice {
                    container: handle,
                    plan,
                    latency,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::GroupPlanner;
    use optimus_profile::CostModel;

    #[test]
    fn idle_timer_threshold() {
        let mut t = IdleTimer::new(0.0, 60.0);
        assert!(!t.is_idle(59.9));
        assert!(t.is_idle(60.0));
        t.touch(100.0);
        assert!(!t.is_idle(120.0));
        assert!(t.is_idle(160.0));
        assert_eq!(t.idle_for(130.0), 30.0);
        assert_eq!(t.threshold(), 60.0);
    }

    fn repo_with(models: Vec<optimus_model::ModelGraph>) -> ModelRepository {
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        let cost = CostModel::default();
        for m in models {
            repo.register(m, &cost);
        }
        repo
    }

    #[test]
    fn choose_source_picks_cheapest_donor() {
        let repo = repo_with(vec![
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
            optimus_zoo::resnet::resnet50(),
        ]);
        let id = |n: &str| repo.model_id(n).expect("registered");
        // Donors: vgg16 (same family, cheap) and resnet50 (cross family,
        // more expensive).
        let choice = choose_source_by_id(
            &repo,
            vec![(1u32, id("resnet50")), (2u32, id("vgg16"))],
            id("vgg19"),
        )
        .expect("a donor must beat scratch load");
        assert_eq!(choice.container, 2, "vgg16 should be the cheaper donor");
        let vgg_latency = repo.transform_latency("vgg16", "vgg19").unwrap();
        assert_eq!(choice.latency, vgg_latency);
    }

    #[test]
    fn choose_source_skips_same_model_and_empty() {
        let repo = repo_with(vec![optimus_zoo::vgg::vgg16()]);
        let vgg16 = repo.model_id("vgg16").expect("registered");
        assert!(choose_source_by_id(&repo, Vec::<(u32, ModelId)>::new(), vgg16).is_none());
        assert!(
            choose_source_by_id(&repo, vec![(1u32, vgg16)], vgg16).is_none(),
            "same-model donors are warm starts, not transformations"
        );
    }

    #[test]
    fn choose_source_rejects_transformer_donors_for_cnn() {
        let repo = repo_with(vec![
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::bert::bert(optimus_zoo::BertConfig::new(optimus_zoo::BertSize::Tiny)),
        ]);
        let id = |n: &str| repo.model_id(n).expect("registered");
        assert!(
            choose_source_by_id(&repo, vec![(1u32, id("bert-tiny-uncased"))], id("vgg16"))
                .is_none()
        );
    }
}
