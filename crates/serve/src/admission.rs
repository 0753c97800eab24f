//! Memory-model admission control for the batch former.
//!
//! The offline tuner solves Eq. 6 once and replays the resulting
//! schedule. The serving layer solves the *same* equation before every
//! batch, against live state instead of modelled accumulation:
//!
//! ```text
//! W_next = M*⁻¹( p·M − M_r(measured) − Σ M*(W_inflight) )
//! ```
//!
//! where `M_r(measured)` is the actual residual left on the most loaded
//! machine by completed-but-unflushed batches (not the fitted
//! `M_r*(ΣW)` — we have the real number, so we use it) and the sum
//! reserves the predicted peak of every batch currently executing on
//! the worker pool. Each completed batch feeds its observed peak and
//! residual back into the per-shape [`OnlineMemoryModel`], so the
//! admitted workload tracks the cluster the service actually has,
//! not the one the training probes saw.

use crate::queue::same_shape;
use mtvc_cluster::ClusterSpec;
use mtvc_core::Task;
use mtvc_tune::OnlineMemoryModel;
use std::collections::HashMap;

/// Identifier of a dispatched batch, for reservation bookkeeping.
pub type BatchId = u64;

/// Why the admission controller could not answer a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionError {
    /// No memory model is registered for this task shape (it was not in
    /// [`crate::ServiceConfig::shapes`] at startup), so Eq. 6 cannot be
    /// inverted for it.
    UnregisteredShape(Task),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::UnregisteredShape(shape) => {
                write!(f, "no memory model registered for shape {shape}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Tracks cluster memory headroom and decides how much workload the
/// next batch of a given shape may carry.
#[derive(Debug)]
pub struct AdmissionController {
    machines: usize,
    /// `p · M` in bytes: the overload threshold every machine must stay
    /// under (Eq. 1–2 of §5).
    budget: f64,
    /// Measured residual bytes per machine from completed, unflushed
    /// batches.
    residual: Vec<u64>,
    /// Predicted peak bytes of batches currently executing.
    inflight: HashMap<BatchId, f64>,
    /// Per-shape memory models, refreshed online.
    models: Vec<(Task, OnlineMemoryModel)>,
    /// Workload units completed since the last flush (drives the
    /// residual-model observations).
    accumulated: u64,
    completed_since_flush: usize,
    flush_every: usize,
    flushes: u64,
    batches: u64,
}

impl AdmissionController {
    /// An admission controller for `cluster` with overload threshold
    /// `p` (the service passes the paper's 0.85) that
    /// ships aggregated results — releasing residual memory — every
    /// `flush_every` completed batches.
    pub fn new(cluster: &ClusterSpec, p: f64, flush_every: usize) -> AdmissionController {
        assert!(
            p > 0.0 && p <= 1.0,
            "overload threshold p must be in (0, 1]"
        );
        assert!(flush_every >= 1);
        AdmissionController {
            machines: cluster.machines,
            budget: p * cluster.machine.usable_memory().as_f64(),
            residual: vec![0; cluster.machines],
            inflight: HashMap::new(),
            models: Vec::new(),
            accumulated: 0,
            completed_since_flush: 0,
            flush_every,
            flushes: 0,
            batches: 0,
        }
    }

    /// Register the fitted model for a task shape. One model per shape;
    /// shapes the service supports must be registered before admitting.
    pub fn register(&mut self, shape: Task, model: OnlineMemoryModel) {
        assert!(
            self.model_of(&shape).is_none(),
            "shape {shape} registered twice"
        );
        self.models.push((shape.with_workload(1), model));
    }

    /// Whether a model for `shape` is registered.
    pub fn supports(&self, shape: &Task) -> bool {
        self.model_of(shape).is_some()
    }

    fn model_of(&self, shape: &Task) -> Option<&OnlineMemoryModel> {
        self.models
            .iter()
            .find(|(s, _)| same_shape(s, shape))
            .map(|(_, m)| m)
    }

    fn model_of_mut(&mut self, shape: &Task) -> Option<&mut OnlineMemoryModel> {
        self.models
            .iter_mut()
            .find(|(s, _)| same_shape(s, shape))
            .map(|(_, m)| m)
    }

    /// Largest workload a new `shape` batch may carry right now: Eq. 6
    /// against measured residual plus reserved in-flight peaks. Zero
    /// when there is no headroom (the former then waits for a
    /// completion or forces a flush).
    pub fn max_admissible(&self, shape: &Task) -> Result<u64, AdmissionError> {
        let reserved: f64 = self.inflight.values().sum();
        let residual = self.residual.iter().copied().max().unwrap_or(0) as f64;
        self.invert_peak(shape, self.budget - residual - reserved)
    }

    /// Largest workload `shape` could ever be admitted with: an idle,
    /// fully flushed cluster. A request above this can never run and is
    /// rejected outright.
    pub fn max_possible(&self, shape: &Task) -> Result<u64, AdmissionError> {
        self.invert_peak(shape, self.budget)
    }

    fn invert_peak(&self, shape: &Task, headroom: f64) -> Result<u64, AdmissionError> {
        let model = self
            .model_of(shape)
            .ok_or(AdmissionError::UnregisteredShape(shape.with_workload(1)))?;
        if headroom <= 0.0 {
            return Ok(0);
        }
        Ok(model
            .model()
            .peak
            .invert(headroom)
            .map(|w| w.floor().max(0.0) as u64)
            .unwrap_or(0))
    }

    /// Reserve headroom for a dispatched batch; returns its id and a
    /// snapshot of the per-machine residual the batch starts against.
    pub fn reserve(
        &mut self,
        shape: &Task,
        workload: u64,
    ) -> Result<(BatchId, Vec<u64>), AdmissionError> {
        let predicted = self
            .model_of(shape)
            .ok_or(AdmissionError::UnregisteredShape(shape.with_workload(1)))?
            .model()
            .peak
            .eval(workload as f64)
            .max(0.0);
        let id = self.batches;
        self.batches += 1;
        self.inflight.insert(id, predicted);
        Ok((id, self.residual.clone()))
    }

    /// Drop the reservation of a batch that never executed (its worker
    /// found no runner for the shape). Releases the headroom without
    /// feeding the model or touching residual state.
    pub fn abort(&mut self, id: BatchId) {
        self.inflight.remove(&id);
    }

    /// Record an OOM-killed attempt as a *censored* observation: the
    /// batch's true peak is unknown but at least `peak_lower_bound`
    /// bytes. Feeds [`OnlineMemoryModel::observe_censored`] so the next
    /// refit pulls the curve up where the kill proves it under-predicts.
    pub fn record_censored(&mut self, shape: &Task, workload: u64, peak_lower_bound: f64) {
        if let Some(m) = self.model_of_mut(shape) {
            m.observe_censored(workload, peak_lower_bound);
        }
    }

    /// Record a completed batch: release its reservation, absorb the
    /// residual it left per machine, feed the observation to the
    /// shape's online model, and flush if the epoch is over. Returns
    /// `true` when this completion flushed accumulated results.
    ///
    /// `observed_peak` is the raw per-machine maximum the batch
    /// reached, and `residual_before` the per-machine residual it
    /// started against; the §5 `M*` curve models a batch on a fresh
    /// cluster, so the baseline is subtracted before the observation
    /// reaches the model. Pass `observed_peak = None` for a batch that
    /// *failed* (overload, or OOM past the degradation ladder): the
    /// reservation is released and any residual its completed
    /// sub-batches left is absorbed, but no uncensored observation is
    /// fed to the model — the failed attempt's peak belongs in
    /// [`AdmissionController::record_censored`] instead.
    pub fn complete(
        &mut self,
        id: BatchId,
        shape: &Task,
        workload: u64,
        observed_peak: Option<f64>,
        residual_before: &[u64],
        residual_delta: &[u64],
    ) -> bool {
        assert_eq!(residual_delta.len(), self.machines);
        self.inflight.remove(&id);
        for (r, d) in self.residual.iter_mut().zip(residual_delta) {
            *r += d;
        }
        self.accumulated += workload;
        if let Some(observed_peak) = observed_peak {
            let baseline = residual_before.iter().copied().max().unwrap_or(0) as f64;
            let own_peak = (observed_peak - baseline).max(1.0);
            let residual_max = self.residual.iter().copied().max().unwrap_or(0) as f64;
            let accumulated = self.accumulated;
            if let Some(m) = self.model_of_mut(shape) {
                m.observe(workload, own_peak, accumulated, residual_max);
            }
        }
        self.completed_since_flush += 1;
        if self.completed_since_flush >= self.flush_every {
            self.flush();
            true
        } else {
            false
        }
    }

    /// Ship aggregated results: residual memory is released (§5 stores
    /// intermediate results only until final aggregation).
    pub fn flush(&mut self) {
        self.residual.iter_mut().for_each(|r| *r = 0);
        self.accumulated = 0;
        self.completed_since_flush = 0;
        self.flushes += 1;
    }

    /// Whether any dispatched batch has not completed yet.
    pub fn has_inflight(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// Whether unflushed residual memory is held.
    pub fn has_residual(&self) -> bool {
        self.residual.iter().any(|&r| r > 0)
    }

    /// Completed flush epochs.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Total online model refits across shapes.
    pub fn refits(&self) -> u64 {
        self.models.iter().map(|(_, m)| m.refits()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtvc_tune::TrainingData;

    /// A linear memory curve: peak = slope·W + floor.
    fn model(slope: f64, floor: f64) -> OnlineMemoryModel {
        let workloads: Vec<f64> = (1..=6).map(|r| (1u64 << r) as f64).collect();
        let data = TrainingData {
            peak_memory: workloads.iter().map(|w| slope * w + floor).collect(),
            residual: workloads.iter().map(|w| 0.1 * w + 1.0).collect(),
            workloads,
            training_time: Default::default(),
        };
        OnlineMemoryModel::fit(&data, 7).unwrap()
    }

    fn tiny_cluster() -> ClusterSpec {
        // 4 machines; usable memory comes from the Galaxy spec.
        ClusterSpec::galaxy(4)
    }

    #[test]
    fn admits_less_while_batches_are_inflight() {
        let cluster = tiny_cluster();
        let mut ac = AdmissionController::new(&cluster, 0.85, 4);
        ac.register(Task::mssp(1), model(1e6, 0.0));
        let idle = ac.max_admissible(&Task::mssp(1)).unwrap();
        assert!(idle > 0);
        let (id, residual) = ac.reserve(&Task::mssp(1), idle / 2).unwrap();
        assert_eq!(residual, vec![0; 4]);
        let busy = ac.max_admissible(&Task::mssp(1)).unwrap();
        assert!(busy < idle, "{busy} !< {idle}");
        ac.complete(
            id,
            &Task::mssp(1),
            idle / 2,
            Some(1e6 * (idle / 2) as f64),
            &[0; 4],
            &[0; 4],
        );
        assert_eq!(ac.max_admissible(&Task::mssp(1)).unwrap(), idle);
    }

    #[test]
    fn residual_shrinks_admission_until_flush() {
        let cluster = tiny_cluster();
        let mut ac = AdmissionController::new(&cluster, 0.85, 2);
        ac.register(Task::mssp(1), model(1e6, 0.0));
        let idle = ac.max_admissible(&Task::mssp(1)).unwrap();
        let (id, _) = ac.reserve(&Task::mssp(1), 100).unwrap();
        let flushed = ac.complete(
            id,
            &Task::mssp(1),
            100,
            Some(1e8),
            &[0; 4],
            &[4_000_000_000; 4],
        );
        assert!(!flushed);
        assert!(ac.has_residual());
        let after = ac.max_admissible(&Task::mssp(1)).unwrap();
        assert!(after < idle, "{after} !< {idle}");
        // Second completion closes the 2-batch flush epoch.
        let (id, _) = ac.reserve(&Task::mssp(1), 100).unwrap();
        let flushed = ac.complete(
            id,
            &Task::mssp(1),
            100,
            Some(1e8),
            &[4_000_000_000; 4],
            &[1_000_000; 4],
        );
        assert!(flushed);
        assert!(!ac.has_residual());
        assert_eq!(ac.max_admissible(&Task::mssp(1)).unwrap(), idle);
        assert_eq!(ac.flushes(), 1);
    }

    #[test]
    fn max_possible_ignores_live_state() {
        let cluster = tiny_cluster();
        let mut ac = AdmissionController::new(&cluster, 0.85, 4);
        ac.register(Task::bppr(1), model(1e6, 0.0));
        let max = ac.max_possible(&Task::bppr(1)).unwrap();
        ac.reserve(&Task::bppr(1), max).unwrap();
        assert_eq!(ac.max_possible(&Task::bppr(1)).unwrap(), max);
        assert_eq!(ac.max_admissible(&Task::bppr(1)).unwrap(), 0);
    }

    #[test]
    fn unregistered_shape_is_a_typed_error() {
        let mut ac = AdmissionController::new(&tiny_cluster(), 0.85, 4);
        let err = ac.max_admissible(&Task::mssp(1)).unwrap_err();
        assert_eq!(err, AdmissionError::UnregisteredShape(Task::mssp(1)));
        assert_eq!(
            ac.max_possible(&Task::mssp(5)).unwrap_err(),
            AdmissionError::UnregisteredShape(Task::mssp(1))
        );
        assert_eq!(
            ac.reserve(&Task::bppr(3), 10).unwrap_err(),
            AdmissionError::UnregisteredShape(Task::bppr(1))
        );
        assert!(err.to_string().contains("no memory model registered"));
    }

    #[test]
    fn abort_releases_the_reservation_without_observing() {
        let mut ac = AdmissionController::new(&tiny_cluster(), 0.85, 4);
        ac.register(Task::mssp(1), model(1e6, 0.0));
        let idle = ac.max_admissible(&Task::mssp(1)).unwrap();
        let (id, _) = ac.reserve(&Task::mssp(1), idle / 2).unwrap();
        assert!(ac.has_inflight());
        ac.abort(id);
        assert!(!ac.has_inflight());
        assert_eq!(ac.max_admissible(&Task::mssp(1)).unwrap(), idle);
    }

    #[test]
    fn failed_completion_releases_but_skips_the_model() {
        let mut ac = AdmissionController::new(&tiny_cluster(), 0.85, 2);
        ac.register(Task::mssp(1), model(1e6, 0.0));
        let m = ac.model_of(&Task::mssp(1)).unwrap();
        let obs_before = m.observations();
        let (id, _) = ac.reserve(&Task::mssp(1), 100).unwrap();
        ac.complete(id, &Task::mssp(1), 100, None, &[0; 4], &[5_000; 4]);
        assert!(!ac.has_inflight());
        assert!(ac.has_residual(), "partial-rung residual must be absorbed");
        let m = ac.model_of(&Task::mssp(1)).unwrap();
        assert_eq!(m.observations(), obs_before);
        // Censored kills still reach the model, as censored points.
        ac.record_censored(&Task::mssp(1), 100, 1e9);
        let m = ac.model_of(&Task::mssp(1)).unwrap();
        assert_eq!(m.censored_points(), 1);
    }

    #[test]
    fn supports_matches_by_shape_not_workload() {
        let mut ac = AdmissionController::new(&tiny_cluster(), 0.85, 4);
        ac.register(Task::mssp(64), model(1e6, 0.0));
        assert!(ac.supports(&Task::mssp(9999)));
        assert!(!ac.supports(&Task::bppr(1)));
    }
}
