//! The two-point calibration benchmark (§III-C).
//!
//! "To determine α, we measure the transfer time t_S of a single byte; we
//! then set α = t_S. To determine β, we measure the time t_L of a large
//! transfer of size s_L = 512 MB and then set β = t_L / s_L. Both t_S and
//! t_L are averaged across ten runs to reduce the impact of noise. These
//! two measurements are performed by a simple synthetic benchmark, which is
//! automatically invoked by GROPHECY++ when run on a new system."

use crate::model::{DirectionalModel, LinearModel};
use crate::params::{Direction, MemType};
use crate::Bus;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Configuration of the calibration benchmark. The defaults are the
/// paper's choices; the footnote notes 512 MB "is chosen rather
/// arbitrarily; any size larger than a few megabytes would be sufficient".
#[derive(Debug, Clone)]
pub struct Calibrator {
    /// Size of the small transfer measuring α.
    pub small_bytes: u64,
    /// Size of the large transfer measuring β.
    pub large_bytes: u64,
    /// Runs to average per measurement.
    pub runs: u32,
    /// Host memory type to calibrate for (the paper assumes pinned).
    pub mem: MemType,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            small_bytes: 1,
            large_bytes: 512 << 20,
            runs: 10,
            mem: MemType::Pinned,
        }
    }
}

impl Calibrator {
    /// Runs the synthetic benchmark against a bus and derives per-direction
    /// linear models.
    pub fn calibrate(&self, bus: &mut dyn Bus) -> DirectionalModel {
        DirectionalModel {
            h2d: self.calibrate_direction(bus, Direction::HostToDevice),
            d2h: self.calibrate_direction(bus, Direction::DeviceToHost),
        }
    }

    /// Calibrates a single direction.
    pub fn calibrate_direction(&self, bus: &mut dyn Bus, dir: Direction) -> LinearModel {
        let t_small = self.mean_time(bus, self.small_bytes, dir);
        let t_large = self.mean_time(bus, self.large_bytes, dir);
        LinearModel::from_two_points(t_small, t_large, self.large_bytes)
    }

    fn mean_time(&self, bus: &mut dyn Bus, bytes: u64, dir: Direction) -> f64 {
        let runs = self.runs.max(1);
        let mut samples: Vec<f64> = (0..runs)
            .map(|_| bus.transfer(bytes, dir, self.mem))
            .collect();
        // The paper averages ten runs "to reduce the impact of noise"; we
        // additionally trim the extremes so a single OS preemption landing
        // on a microsecond-scale calibration transfer cannot poison α —
        // a robustness improvement over the plain mean, noted in
        // EXPERIMENTS.md.
        if samples.len() >= 3 {
            samples.sort_by(f64::total_cmp);
            samples.pop();
            samples.remove(0);
        }
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    /// Fault-tolerant calibration: like [`Calibrator::calibrate`], but
    /// built for buses that can fail or lie (a [`crate::FaultyBus`], a
    /// contended real machine). Differences from the plain path:
    ///
    /// * each fit point is a **median of k** samples taken with
    ///   [`Bus::try_transfer`], retrying failed attempts under a bounded
    ///   budget;
    /// * the fitted line is **validated** against fresh probes at 64 KiB
    ///   (α-sensitive) and 8 MiB (β-sensitive); a probe deviating beyond a
    ///   relative residual threshold triggers a re-measure with a larger k;
    /// * after [`MAX_FIT_ATTEMPTS`] the structured [`CalibrationError`]
    ///   reports which direction failed and why.
    ///
    /// The plain path stays untouched so a run without faults remains
    /// bit-identical to earlier releases; callers switch to this method
    /// only when a fault plan is active (see `Grophecy::try_calibrate`).
    pub fn calibrate_checked(
        &self,
        bus: &mut dyn Bus,
    ) -> Result<DirectionalModel, CalibrationError> {
        Ok(DirectionalModel {
            h2d: self.calibrate_direction_checked(bus, Direction::HostToDevice)?,
            d2h: self.calibrate_direction_checked(bus, Direction::DeviceToHost)?,
        })
    }

    /// The fault-tolerant path for a single direction. See
    /// [`Calibrator::calibrate_checked`].
    pub fn calibrate_direction_checked(
        &self,
        bus: &mut dyn Bus,
        dir: Direction,
    ) -> Result<LinearModel, CalibrationError> {
        let fail = |attempts: u32, message: String| CalibrationError {
            direction: dir,
            attempts,
            message,
        };
        let mut k = self.runs.max(3);
        let mut last_reason = String::new();
        for attempt in 1..=MAX_FIT_ATTEMPTS {
            let t_small = self
                .robust_median(bus, self.small_bytes, dir, k)
                .map_err(|m| fail(attempt, m))?;
            let t_large = self
                .robust_median(bus, self.large_bytes, dir, k)
                .map_err(|m| fail(attempt, m))?;
            // A fit point corrupted badly enough to invert the ordering
            // would make LinearModel::new panic; treat it as a failed
            // attempt instead.
            if !(t_small.is_finite() && t_large.is_finite() && t_small > 0.0 && t_small < t_large) {
                last_reason = format!("degenerate fit points t_small={t_small} t_large={t_large}");
                k = k * 2 + 1;
                continue;
            }
            let model = LinearModel::from_two_points(t_small, t_large, self.large_bytes);
            match self.validate_fit(bus, dir, &model) {
                Ok(()) => return Ok(model),
                Err(reason) => {
                    last_reason = reason;
                    k = k * 2 + 1;
                }
            }
        }
        Err(fail(
            MAX_FIT_ATTEMPTS,
            format!("fit never validated: {last_reason}"),
        ))
    }

    /// Median of `k` successful samples, retrying injected transfer errors
    /// under a bounded budget (4 failures per wanted sample).
    fn robust_median(
        &self,
        bus: &mut dyn Bus,
        bytes: u64,
        dir: Direction,
        k: u32,
    ) -> Result<f64, String> {
        let mut samples: Vec<f64> = Vec::with_capacity(k as usize);
        let mut failures: u32 = 0;
        let budget = k * 4;
        while samples.len() < k as usize {
            match bus.try_transfer(bytes, dir, self.mem) {
                Ok(t) => samples.push(t),
                Err(e) => {
                    failures += 1;
                    if failures > budget {
                        return Err(format!(
                            "retry budget exhausted after {failures} failed transfers of \
                             {bytes} B: {e}"
                        ));
                    }
                }
            }
        }
        samples.sort_by(f64::total_cmp);
        let mid = samples.len() / 2;
        Ok(if samples.len() % 2 == 1 {
            samples[mid]
        } else {
            0.5 * (samples[mid - 1] + samples[mid])
        })
    }

    /// Probes the fitted line at an α-sensitive and a β-sensitive size and
    /// rejects it when a probe's relative residual exceeds its threshold.
    fn validate_fit(
        &self,
        bus: &mut dyn Bus,
        dir: Direction,
        model: &LinearModel,
    ) -> Result<(), String> {
        for (bytes, threshold) in VALIDATION_PROBES {
            let measured = self.robust_median(bus, bytes, dir, 5)?;
            let predicted = model.predict(bytes);
            let residual = (measured - predicted).abs() / measured.max(f64::MIN_POSITIVE);
            if residual > threshold {
                return Err(format!(
                    "probe at {bytes} B off the fitted line: measured {measured:.3e} s, \
                     predicted {predicted:.3e} s (relative residual {residual:.2} > {threshold})"
                ));
            }
        }
        Ok(())
    }
}

/// A reusable slab of probe timings for batched calibration.
///
/// [`Calibrator::calibrate`] allocates a fresh `Vec` per fit point (four
/// per directional model). On the serve hot path — where every new
/// machine triggers a calibration — that churn is avoidable: a
/// `ProbeBatch` owns one flat buffer laid out as four contiguous
/// segments (h2d-small, h2d-large, d2h-small, d2h-large, each
/// `runs` samples long) and is reused across calibrations, so steady
/// state performs zero allocations.
#[derive(Debug, Default)]
pub struct ProbeBatch {
    times: Vec<f64>,
    runs: usize,
}

impl ProbeBatch {
    /// An empty batch; the first calibration sizes the buffer.
    pub fn new() -> Self {
        ProbeBatch::default()
    }

    /// The raw samples of the most recent calibration, in draw order
    /// (four segments of `runs` samples each, sorted ascending within
    /// each segment by the reduction).
    pub fn samples(&self) -> &[f64] {
        &self.times
    }

    /// Runs per segment in the most recent calibration.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Current buffer capacity (for asserting reuse in tests/benches).
    pub fn capacity(&self) -> usize {
        self.times.capacity()
    }

    /// Sorts one segment in place and reduces it with the same trimmed
    /// mean as [`Calibrator::calibrate`]: sort ascending, drop the max
    /// and the min when at least three samples exist, then sum the
    /// survivors in ascending order — the identical float expression,
    /// so the batched path is bit-for-bit the per-probe path.
    fn segment_mean(&mut self, seg: usize) -> f64 {
        let s = &mut self.times[seg * self.runs..(seg + 1) * self.runs];
        s.sort_by(f64::total_cmp);
        let kept = if s.len() >= 3 {
            &s[1..s.len() - 1]
        } else {
            &s[..]
        };
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

impl Calibrator {
    /// Batched calibration: draws every probe for both directions into
    /// one reusable slab, then reduces the four segments in a single
    /// pass. Sample draw order and the trimmed-mean reduction match
    /// [`Calibrator::calibrate`] exactly, so on the same bus state the
    /// result is bit-identical — this is purely an allocation-count
    /// optimization for hot calibration paths.
    pub fn calibrate_batched(&self, bus: &mut dyn Bus, batch: &mut ProbeBatch) -> DirectionalModel {
        let runs = self.runs.max(1) as usize;
        batch.runs = runs;
        batch.times.clear();
        let plan = [
            (self.small_bytes, Direction::HostToDevice),
            (self.large_bytes, Direction::HostToDevice),
            (self.small_bytes, Direction::DeviceToHost),
            (self.large_bytes, Direction::DeviceToHost),
        ];
        for (bytes, dir) in plan {
            for _ in 0..runs {
                batch.times.push(bus.transfer(bytes, dir, self.mem));
            }
        }
        let means = [
            batch.segment_mean(0),
            batch.segment_mean(1),
            batch.segment_mean(2),
            batch.segment_mean(3),
        ];
        DirectionalModel {
            h2d: LinearModel::from_two_points(means[0], means[1], self.large_bytes),
            d2h: LinearModel::from_two_points(means[2], means[3], self.large_bytes),
        }
    }

    /// Multi-size streaming fit for one direction: probes each size with
    /// the trimmed-mean reduction and folds every (size, time) point
    /// through a [`StreamingFit`], yielding the least-squares α/β line
    /// over the whole probe batch instead of the paper's two-point
    /// construction. Returns `None` when the probe set is degenerate
    /// (fewer than two distinct sizes).
    pub fn calibrate_fit(
        &self,
        bus: &mut dyn Bus,
        dir: Direction,
        sizes: &[u64],
        batch: &mut ProbeBatch,
    ) -> Option<LinearModel> {
        let runs = self.runs.max(1) as usize;
        batch.runs = runs;
        let mut fit = StreamingFit::new();
        for &bytes in sizes {
            batch.times.clear();
            for _ in 0..runs {
                batch.times.push(bus.transfer(bytes, dir, self.mem));
            }
            fit.push(bytes, batch.segment_mean(0));
        }
        fit.fit()
    }
}

/// One-pass least-squares accumulator for Equation 1.
///
/// Feeds on (size, seconds) probe points and keeps only the five running
/// sums (`n`, Σs, Σt, Σs², Σs·t) needed for the closed-form line fit —
/// O(1) memory regardless of batch size, so whole probe batches stream
/// through without per-probe allocation. The fitted parameters are
/// clamped non-negative (a noisy batch can place the intercept slightly
/// below zero; a negative α or β is physically meaningless and would
/// panic [`LinearModel::new`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingFit {
    n: f64,
    sum_s: f64,
    sum_t: f64,
    sum_ss: f64,
    sum_st: f64,
}

impl StreamingFit {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingFit::default()
    }

    /// Folds one probe point (transfer of `bytes` took `seconds`).
    pub fn push(&mut self, bytes: u64, seconds: f64) {
        let s = bytes as f64;
        self.n += 1.0;
        self.sum_s += s;
        self.sum_t += seconds;
        self.sum_ss += s * s;
        self.sum_st += s * seconds;
    }

    /// Folds a whole batch of probe points.
    pub fn push_batch<I: IntoIterator<Item = (u64, f64)>>(&mut self, points: I) {
        for (bytes, seconds) in points {
            self.push(bytes, seconds);
        }
    }

    /// Number of points accumulated so far.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when no points have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.n == 0.0
    }

    /// Closed-form least-squares solution over everything pushed so far.
    /// `None` until at least two points with distinct sizes exist (the
    /// denominator `n·Σs² − (Σs)²` vanishes otherwise).
    pub fn fit(&self) -> Option<LinearModel> {
        if self.n < 2.0 {
            return None;
        }
        let denom = self.n * self.sum_ss - self.sum_s * self.sum_s;
        if denom <= 0.0 || !denom.is_finite() {
            return None;
        }
        let beta = (self.n * self.sum_st - self.sum_s * self.sum_t) / denom;
        let alpha = (self.sum_t - beta * self.sum_s) / self.n;
        if !(alpha.is_finite() && beta.is_finite()) {
            return None;
        }
        Some(LinearModel::new(alpha.max(0.0), beta.max(0.0)))
    }
}

/// Fit/validate rounds before [`Calibrator::calibrate_checked`] gives up.
pub const MAX_FIT_ATTEMPTS: u32 = 3;

/// Validation probe sizes and their relative residual thresholds. 64 KiB
/// sits near the latency/bandwidth break-even (α-sensitive); 8 MiB is
/// firmly bandwidth-bound (β-sensitive). Thresholds are loose enough for
/// the linear model's known small-size error (the paper's Fig. 2 shows
/// the model is least accurate below ~1 MiB) but far tighter than the
/// ~20× distortion an undetected outlier inflicts on a fit point.
pub const VALIDATION_PROBES: [(u64, f64); 2] = [(64 << 10, 0.50), (8 << 20, 0.35)];

/// Calibration failed even after bounded retry and re-measurement —
/// either the transfer-error retry budget ran out or no fit ever passed
/// probe validation.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationError {
    /// The direction being calibrated when the budget ran out.
    pub direction: Direction,
    /// How many fit/validate rounds were spent.
    pub attempts: u32,
    /// What went wrong on the last round.
    pub message: String,
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "calibration failed ({:?}, {} attempts): {}",
            self.direction, self.attempts, self.message
        )
    }
}

impl std::error::Error for CalibrationError {}

/// A bus wrapper that lazily calibrates on first use and caches the model —
/// mirroring GROPHECY++'s "automatically invoked when run on a new system"
/// behaviour. Thread-safe so concurrent projections share one calibration.
pub struct CalibratedBus<B: Bus> {
    bus: Mutex<B>,
    calibrator: Calibrator,
    cache: Mutex<HashMap<MemTypeKey, DirectionalModel>>,
}

#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct MemTypeKey(MemType);

impl<B: Bus> CalibratedBus<B> {
    /// Wraps a bus with a calibrator.
    pub fn new(bus: B, calibrator: Calibrator) -> Self {
        CalibratedBus {
            bus: Mutex::new(bus),
            calibrator,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The calibrated model for a memory type, measuring it on first
    /// request.
    pub fn model(&self, mem: MemType) -> DirectionalModel {
        if let Some(m) = self.cache().get(&MemTypeKey(mem)) {
            return *m;
        }
        let mut cal = self.calibrator.clone();
        cal.mem = mem;
        let model = cal.calibrate(&mut *self.bus());
        self.cache().insert(MemTypeKey(mem), model);
        model
    }

    /// Predicted transfer time for `bytes` in `dir` with memory type `mem`.
    pub fn predict(&self, bytes: u64, dir: Direction, mem: MemType) -> f64 {
        self.model(mem).predict(bytes, dir)
    }

    /// Access the underlying bus (e.g. to take "real" measurements). A
    /// holder that panicked does not wedge the bus: the lock's poison flag
    /// is ignored, because a bus is valid between any two transfers.
    pub fn bus(&self) -> MutexGuard<'_, B> {
        self.bus.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn cache(&self) -> MutexGuard<'_, HashMap<MemTypeKey, DirectionalModel>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BusParams;
    use crate::sim::BusSimulator;

    #[test]
    fn calibration_recovers_quiet_bus_parameters() {
        let mut bus = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 1);
        let m = Calibrator::default().calibrate(&mut bus);
        // α should be the small-transfer latency (~9.5/11 µs),
        // 1/β the effective bandwidth (~2.5 GB/s).
        assert!(
            (9.0e-6..10.5e-6).contains(&m.h2d.alpha),
            "alpha {}",
            m.h2d.alpha
        );
        assert!(
            (10.5e-6..12.0e-6).contains(&m.d2h.alpha),
            "alpha {}",
            m.d2h.alpha
        );
        assert!((2.3e9..2.7e9).contains(&m.h2d.bandwidth()));
    }

    #[test]
    fn calibration_on_noisy_bus_is_stable() {
        // Calibrating twice on the same (noisy) machine must give nearly
        // identical parameters — averaging ten runs does its job.
        let mut bus = BusSimulator::new(BusParams::pcie_v1_x16(), 99);
        let cal = Calibrator::default();
        let m1 = cal.calibrate(&mut bus);
        let m2 = cal.calibrate(&mut bus);
        let da = (m1.h2d.alpha - m2.h2d.alpha).abs() / m1.h2d.alpha;
        let db = (m1.h2d.beta - m2.h2d.beta).abs() / m1.h2d.beta;
        assert!(da < 0.15, "alpha drift {da}");
        assert!(db < 0.05, "beta drift {db}");
    }

    #[test]
    fn calibrated_bus_caches_model() {
        let bus = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 5);
        let cb = CalibratedBus::new(bus, Calibrator::default());
        let before = cb.bus().transfer_count();
        let m1 = cb.model(MemType::Pinned);
        let mid = cb.bus().transfer_count();
        let m2 = cb.model(MemType::Pinned);
        let after = cb.bus().transfer_count();
        assert_eq!(m1.h2d, m2.h2d);
        assert!(mid > before, "first call measures");
        assert_eq!(mid, after, "second call cached");
    }

    #[test]
    fn panicking_bus_holder_does_not_wedge_the_bus() {
        let bus = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 5);
        let cb = CalibratedBus::new(bus, Calibrator::default());
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _bus = cb.bus();
                panic!("holder dies with the bus locked");
            })
            .join()
        });
        assert!(holder.is_err(), "the holder must have panicked");
        assert!(cb.bus.is_poisoned());
        let before = cb.bus().transfer_count();
        let m = cb.model(MemType::Pinned);
        assert!(cb.bus().transfer_count() > before, "calibration measured");
        assert_eq!(m.h2d, cb.model(MemType::Pinned).h2d);
    }

    #[test]
    fn calibrated_bus_separates_mem_types() {
        let bus = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 5);
        let cb = CalibratedBus::new(bus, Calibrator::default());
        let pin = cb.model(MemType::Pinned);
        let page = cb.model(MemType::Pageable);
        // Pageable asymptotic bandwidth is lower.
        assert!(page.h2d.bandwidth() < pin.h2d.bandwidth());
    }

    #[test]
    fn predict_through_wrapper() {
        let bus = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 5);
        let cb = CalibratedBus::new(bus, Calibrator::default());
        let t = cb.predict(8 << 20, Direction::HostToDevice, MemType::Pinned);
        assert!((2.5e-3..4.5e-3).contains(&t), "t = {t}");
    }

    #[test]
    fn checked_path_matches_plain_on_clean_bus() {
        let cal = Calibrator::default();
        let mut bus = BusSimulator::new(BusParams::pcie_v1_x16(), 31);
        let plain = cal.calibrate(&mut bus);
        let mut bus = BusSimulator::new(BusParams::pcie_v1_x16(), 31);
        let checked = cal.calibrate_checked(&mut bus).unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / a;
        assert!(rel(plain.h2d.alpha, checked.h2d.alpha) < 0.2);
        assert!(rel(plain.h2d.beta, checked.h2d.beta) < 0.05);
    }

    #[test]
    fn checked_path_survives_sporadic_outliers() {
        use crate::faulty::FaultyBus;
        use gpp_fault::{FaultInjector, FaultPlan};
        use std::sync::Arc;

        // 20% of all samples inflated 50×: the plain trimmed mean breaks
        // (expected ~2 outliers among 10 runs, only 1 trimmed), the
        // median-of-k checked path recovers the true line.
        let plan: FaultPlan = "seed=3;pcie.calibration.outlier:p=0.2,factor=50"
            .parse()
            .unwrap();
        let inner = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 8);
        let mut bus = FaultyBus::new(inner, Arc::new(FaultInjector::new(plan)));
        let m = Calibrator::default().calibrate_checked(&mut bus).unwrap();
        assert!(
            (9.0e-6..10.5e-6).contains(&m.h2d.alpha),
            "alpha {}",
            m.h2d.alpha
        );
        assert!((2.3e9..2.7e9).contains(&m.h2d.bandwidth()));
        assert!(bus.injector().total_fired() > 0, "plan never fired");
    }

    #[test]
    fn checked_path_retries_transfer_errors() {
        use crate::faulty::FaultyBus;
        use gpp_fault::{FaultInjector, FaultPlan};
        use std::sync::Arc;

        let plan: FaultPlan = "seed=5;pcie.transfer.error:p=0.3".parse().unwrap();
        let inner = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 8);
        let mut bus = FaultyBus::new(inner, Arc::new(FaultInjector::new(plan)));
        let m = Calibrator::default().calibrate_checked(&mut bus).unwrap();
        assert!((2.3e9..2.7e9).contains(&m.h2d.bandwidth()));
    }

    #[test]
    fn checked_path_reports_budget_exhaustion() {
        use crate::faulty::FaultyBus;
        use gpp_fault::{FaultInjector, FaultPlan};
        use std::sync::Arc;

        let plan: FaultPlan = "pcie.transfer.error:always".parse().unwrap();
        let inner = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 8);
        let mut bus = FaultyBus::new(inner, Arc::new(FaultInjector::new(plan)));
        let err = Calibrator::default()
            .calibrate_checked(&mut bus)
            .unwrap_err();
        assert_eq!(err.direction, Direction::HostToDevice);
        assert!(err.message.contains("retry budget"), "{}", err.message);
        let shown = err.to_string();
        assert!(shown.contains("calibration failed"), "{shown}");
    }

    #[test]
    fn batched_calibration_is_bit_identical_to_plain() {
        // Same seed, same draw order, same reduction: the batched slab
        // path must reproduce the per-probe path bit for bit, noisy bus
        // included.
        for seed in [1, 7, 99, 2013] {
            let cal = Calibrator::default();
            let mut plain_bus = BusSimulator::new(BusParams::pcie_v1_x16(), seed);
            let plain = cal.calibrate(&mut plain_bus);
            let mut batch_bus = BusSimulator::new(BusParams::pcie_v1_x16(), seed);
            let mut batch = ProbeBatch::new();
            let batched = cal.calibrate_batched(&mut batch_bus, &mut batch);
            assert_eq!(plain.h2d, batched.h2d, "seed {seed}");
            assert_eq!(plain.d2h, batched.d2h, "seed {seed}");
        }
    }

    #[test]
    fn probe_batch_buffer_is_reused_across_calibrations() {
        let mut bus = BusSimulator::new(BusParams::pcie_v1_x16(), 4);
        let cal = Calibrator::default();
        let mut batch = ProbeBatch::new();
        cal.calibrate_batched(&mut bus, &mut batch);
        assert_eq!(batch.samples().len(), 4 * cal.runs as usize);
        assert_eq!(batch.runs(), cal.runs as usize);
        let cap = batch.capacity();
        for _ in 0..5 {
            cal.calibrate_batched(&mut bus, &mut batch);
        }
        assert_eq!(batch.capacity(), cap, "steady state must not reallocate");
    }

    #[test]
    fn streaming_fit_batch_equals_sequential_pushes() {
        let points: Vec<(u64, f64)> = (0..20)
            .map(|i| (1u64 << i, 1e-5 + (1u64 << i) as f64 * 4e-10))
            .collect();
        let mut seq = StreamingFit::new();
        for &(s, t) in &points {
            seq.push(s, t);
        }
        let mut bat = StreamingFit::new();
        bat.push_batch(points.iter().copied());
        assert_eq!(seq, bat, "accumulators diverged");
        assert_eq!(seq.fit(), bat.fit());
        assert_eq!(seq.len(), 20);
        assert!(!seq.is_empty());
    }

    #[test]
    fn streaming_fit_recovers_known_line() {
        // Points drawn exactly from T(d) = 10 µs + d / 2.5 GB/s: the
        // least-squares solution must recover the generating line.
        let (alpha, beta) = (10e-6, 4e-10);
        let mut fit = StreamingFit::new();
        fit.push_batch((10..28).map(|i| {
            let s = 1u64 << i;
            (s, alpha + beta * s as f64)
        }));
        let m = fit.fit().expect("line fit");
        assert!((m.alpha - alpha).abs() / alpha < 1e-6, "alpha {}", m.alpha);
        assert!((m.beta - beta).abs() / beta < 1e-9, "beta {}", m.beta);
    }

    #[test]
    fn streaming_fit_degenerate_batches_yield_none() {
        let mut fit = StreamingFit::new();
        assert!(fit.is_empty());
        assert_eq!(fit.fit(), None, "empty");
        fit.push(1 << 20, 1e-3);
        assert_eq!(fit.fit(), None, "single point");
        fit.push(1 << 20, 2e-3); // same size again: vertical line
        assert_eq!(fit.fit(), None, "no size spread");
    }

    #[test]
    fn streaming_fit_clamps_negative_intercept() {
        // A descending artifact (large transfer "faster" than small)
        // drives the intercept negative; the fit clamps to a valid model
        // instead of panicking LinearModel::new.
        let mut fit = StreamingFit::new();
        fit.push_batch([(1, 5e-3), (1 << 10, 4e-3), (1 << 20, 1e-1)]);
        let m = fit.fit().expect("fit");
        assert!(m.alpha >= 0.0 && m.beta >= 0.0);
    }

    #[test]
    fn multi_size_fit_agrees_with_two_point_calibration() {
        let cal = Calibrator::default();
        let mut bus = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 1);
        let two_point = cal.calibrate(&mut bus);
        let mut bus = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 1);
        let mut batch = ProbeBatch::new();
        // Bandwidth-dominated sizes: the least-squares slope must agree
        // with the two-point β; the intercept is noisier (the linear
        // model is least accurate at small sizes — paper Fig. 2) so only
        // β gets a tight bound.
        let sizes: Vec<u64> = (20..=29).map(|i| 1u64 << i).collect();
        let fitted = cal
            .calibrate_fit(&mut bus, Direction::HostToDevice, &sizes, &mut batch)
            .expect("fit");
        let rel = (fitted.beta - two_point.h2d.beta).abs() / two_point.h2d.beta;
        assert!(
            rel < 0.05,
            "beta drift {rel}: {fitted} vs {}",
            two_point.h2d
        );
    }

    #[test]
    fn zero_runs_clamped_to_one() {
        let mut bus = BusSimulator::new(BusParams::pcie_v1_x16().quiet(), 1);
        let cal = Calibrator {
            runs: 0,
            ..Calibrator::default()
        };
        let m = cal.calibrate(&mut bus);
        assert!(m.h2d.alpha > 0.0);
    }
}
