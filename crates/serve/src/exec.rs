//! Frame services: how a dispatched batch becomes pixels.
//!
//! [`FrameService`] abstracts the GPU pool's render path so the scheduler
//! and governor can be unit-tested against a cheap synthetic plant
//! ([`SyntheticService`]) while sessions run the real simulator
//! ([`SimFrameService`]). Both are deterministic: a [`RenderKey`] fully
//! identifies the work, results are cached by key, and batch fan-out goes
//! through `patu_sim::parallel::run_indexed` — so serve outputs are
//! bit-identical across thread counts.

use crate::error::ServeError;
use crate::workload::ServeConfig;
use patu_core::FilterPolicy;
use patu_gpu::FaultConfig;
use patu_quality::{GrayImage, SampledSsimConfig};
use patu_scenes::Workload;
use patu_sim::render::{render_frame, render_sequence, RenderConfig};
use patu_sim::{parallel, SimError};
use patu_temporal::{TemporalConfig, TileStore};
use std::collections::BTreeMap;

/// FNV-1a over a byte stream: the cheap content hash used as the
/// bit-identity witness on delivered frames, and to fork per-key fault
/// seeds.
pub fn fnv1a(seed: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministically perturbs a frame hash into the *corrupt* value a
/// transient GPU fault leaves behind — the detection signal the serve
/// layer's retry path keys on. Guaranteed distinct from `hash`.
pub fn corrupted(hash: u64, salt: u64) -> u64 {
    let c = fnv1a(salt ^ 0x636f_7272_7570_7421, hash.to_le_bytes());
    if c == hash {
        !c
    } else {
        c
    }
}

/// Identifies one unit of render work: a scene frame at a quantized
/// threshold bucket (`theta = bucket / steps`). Jobs asking for the same
/// key share the rendered result — the cache the governor's quantization
/// exists to feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RenderKey {
    /// Index into the session's scene list.
    pub scene: usize,
    /// Frame index within the scene's camera loop.
    pub frame: u32,
    /// Quantized threshold bucket in `0..=steps`.
    pub bucket: u32,
}

impl RenderKey {
    /// The threshold this key renders at, on a `steps`-step grid.
    pub fn theta(&self, steps: u32) -> f64 {
        f64::from(self.bucket) / f64::from(steps.max(1))
    }

    fn mix(&self) -> u64 {
        fnv1a(
            0,
            (self.scene as u64)
                .to_le_bytes()
                .into_iter()
                .chain(self.frame.to_le_bytes())
                .chain(self.bucket.to_le_bytes()),
        )
    }
}

/// What serving one [`RenderKey`] produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedFrame {
    /// Simulated GPU cycles the render took — the service time the virtual
    /// clock advances by.
    pub cycles: u64,
    /// Mean SSIM against the 16×AF baseline of the same frame.
    pub ssim: f64,
    /// FNV-1a hash of the delivered RGBA pixels.
    pub image_hash: u64,
}

/// A deterministic render backend for the serve loop.
pub trait FrameService {
    /// Renders (or recalls) every key, in order. One result per key.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when a key is unserviceable (unknown scene,
    /// simulator rejection).
    fn serve(&mut self, keys: &[RenderKey]) -> Result<Vec<ServedFrame>, ServeError>;

    /// The mean service-time estimate for admission/deadline calibration:
    /// the cost of scene 0, frame 0 at `bucket`.
    ///
    /// # Errors
    ///
    /// See [`FrameService::serve`].
    fn calibrate(&mut self, bucket: u32) -> Result<u64, ServeError> {
        let served = self.serve(&[RenderKey {
            scene: 0,
            frame: 0,
            bucket,
        }])?;
        Ok(served.first().map_or(1, |s| s.cycles.max(1)))
    }
}

/// The real backend: every key renders through the full PATU simulator.
///
/// Caches are keyed by [`RenderKey`] (policy renders) and `(scene, frame)`
/// (16×AF baselines for SSIM), both `BTreeMap`s. Uncached keys in a batch
/// fan out through `parallel::run_indexed` with the inner render pinned
/// serial — the same sharded-ownership/ordered-merge discipline as the
/// simulator itself, so results are independent of the thread count.
pub struct SimFrameService {
    workloads: Vec<Workload>,
    base_policy: FilterPolicy,
    steps: u32,
    faults: FaultConfig,
    threads: usize,
    /// The sampled-SSIM mode, [`ServeConfig::ssim_sample`] (`None` = full
    /// MSSIM).
    ssim_mode: Option<f64>,
    /// Cross-frame reuse policy. With mode `off` (the default) serving is
    /// byte-identical to a build without the temporal subsystem.
    temporal: TemporalConfig,
    /// One tile-reuse chain per `(scene, bucket)`: a client whose session
    /// walks a scene's frames in order at a stable governor bucket keeps
    /// hitting the same store, so consecutive frames blit coherent tiles.
    stores: BTreeMap<(usize, u32), TileStore>,
    baselines: BTreeMap<(usize, u32), (GrayImage, u64)>,
    rendered: BTreeMap<RenderKey, ServedFrame>,
    baseline_cycles: u64,
}

impl SimFrameService {
    /// Builds the service for a session: one [`Workload`] per configured
    /// scene at the session resolution.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for unknown scene names or an invalid base
    /// policy.
    pub fn new(cfg: &ServeConfig) -> Result<SimFrameService, ServeError> {
        SimFrameService::with_temporal(cfg, TemporalConfig::off())
    }

    /// [`SimFrameService::new`] with cross-frame tile reuse under
    /// `temporal` instead of off.
    ///
    /// # Errors
    ///
    /// See [`SimFrameService::new`].
    pub fn with_temporal(
        cfg: &ServeConfig,
        temporal: TemporalConfig,
    ) -> Result<SimFrameService, ServeError> {
        let base_policy = FilterPolicy::Patu {
            threshold: cfg.base_threshold,
        };
        base_policy.validate().map_err(SimError::from)?;
        let mut workloads = Vec::with_capacity(cfg.scenes.len());
        for name in &cfg.scenes {
            let w = Workload::build(name, cfg.resolution).map_err(SimError::Workload)?;
            workloads.push(w);
        }
        Ok(SimFrameService {
            workloads,
            base_policy,
            steps: cfg.governor_steps.max(1),
            faults: cfg.faults,
            threads: parallel::thread_count(cfg.threads),
            ssim_mode: cfg.ssim_sample,
            temporal,
            stores: BTreeMap::new(),
            baselines: BTreeMap::new(),
            rendered: BTreeMap::new(),
            baseline_cycles: 0,
        })
    }

    /// Renders the cache has absorbed so far — the knob for asserting the
    /// governor's quantization actually bounds distinct render work.
    pub fn distinct_renders(&self) -> usize {
        self.rendered.len()
    }

    /// Simulated cycles spent rendering 16×AF SSIM baselines — reference
    /// work on the analysis track, *not* on any serving GPU's clock. This
    /// is the source for the attribution profiler's `ssim_baseline` stage
    /// (excluded from the render-path conservation sum).
    pub fn baseline_cycles(&self) -> u64 {
        self.baseline_cycles
    }

    fn check_scene(&self, key: &RenderKey) -> Result<(), ServeError> {
        if key.scene >= self.workloads.len() {
            return Err(ServeError::UnknownScene {
                index: key.scene,
                scenes: self.workloads.len(),
            });
        }
        Ok(())
    }

    /// Fills the 16×AF baseline cache for every `(scene, frame)` the batch
    /// needs, fanning uncached renders out across workers.
    fn fill_baselines(&mut self, keys: &[RenderKey]) -> Result<(), ServeError> {
        let mut need: Vec<(usize, u32)> = keys
            .iter()
            .map(|k| (k.scene, k.frame))
            .filter(|id| !self.baselines.contains_key(id))
            .collect();
        need.sort_unstable();
        need.dedup();
        if need.is_empty() {
            return Ok(());
        }
        let workloads = &self.workloads;
        let results: Vec<Result<(GrayImage, u64, u64), SimError>> =
            parallel::run_indexed(self.threads.min(need.len()), need.len(), |i| {
                let (scene, frame) = need[i];
                // The baseline is the *reference*: rendered clean (no fault
                // injection) and serial, so SSIM always compares against the
                // same ground truth.
                let cfg = RenderConfig::new(FilterPolicy::Baseline).with_threads(1);
                let result = render_frame(&workloads[scene], frame, &cfg)?;
                let hash = hash_image(&result);
                Ok((result.luma(), hash, result.stats.cycles))
            });
        for (id, result) in need.into_iter().zip(results) {
            let (luma, hash, cycles) = result?;
            self.baseline_cycles += cycles;
            self.baselines.insert(id, (luma, hash));
        }
        Ok(())
    }

    /// The temporal serve path: uncached keys group into `(scene, bucket)`
    /// chains, each chain renders its frames in ascending order through
    /// [`render_sequence`] against that chain's persistent [`TileStore`],
    /// so a client stepping a scene at a stable governor bucket reuses
    /// tiles across its frames. Chains process in sorted order — results
    /// depend only on the session's key stream, never on thread count.
    fn serve_sequences(&mut self, need: &[RenderKey]) -> Result<(), ServeError> {
        let mut chains: BTreeMap<(usize, u32), Vec<RenderKey>> = BTreeMap::new();
        for key in need {
            chains
                .entry((key.scene, key.bucket))
                .or_default()
                .push(*key);
        }
        for ((scene, bucket), mut keys) in chains {
            keys.sort_unstable_by_key(|k| k.frame);
            let frames: Vec<u32> = keys.iter().map(|k| k.frame).collect();
            let policy = self.base_policy.with_threshold(keys[0].theta(self.steps));
            // The chain forks one fault stream per (scene, bucket); inside
            // it, `render_sequence` keys faults per (frame, tile), so a
            // reused tile never perturbs a rerendered tile's faults.
            let chain_faults = FaultConfig {
                seed: self.faults.seed
                    ^ fnv1a(
                        0,
                        (scene as u64)
                            .to_le_bytes()
                            .into_iter()
                            .chain(bucket.to_le_bytes()),
                    ),
                ..self.faults
            };
            let cfg = RenderConfig::new(policy)
                .with_threads(1)
                .with_faults(chain_faults);
            let mut store = self
                .stores
                .remove(&(scene, bucket))
                .unwrap_or_else(|| TileStore::new(self.temporal));
            let results = render_sequence(&self.workloads[scene], &frames, &cfg, &mut store)?;
            self.stores.insert((scene, bucket), store);
            for (key, result) in keys.into_iter().zip(results) {
                let ssim = match self.baselines.get(&(key.scene, key.frame)) {
                    Some((luma, _)) => f64::from(
                        SampledSsimConfig {
                            fraction: self.ssim_mode,
                            ..SampledSsimConfig::new(key.mix())
                        }
                        .mssim_sampled(luma, &result.luma()),
                    ),
                    None => 0.0,
                };
                self.rendered.insert(
                    key,
                    ServedFrame {
                        cycles: result.stats.cycles.max(1),
                        ssim,
                        image_hash: hash_image(&result),
                    },
                );
            }
        }
        Ok(())
    }
}

fn hash_image(result: &patu_sim::FrameResult) -> u64 {
    fnv1a(
        0,
        result
            .image
            .pixels()
            .iter()
            .flat_map(|p| [p.r, p.g, p.b, p.a]),
    )
}

impl FrameService for SimFrameService {
    fn serve(&mut self, keys: &[RenderKey]) -> Result<Vec<ServedFrame>, ServeError> {
        for key in keys {
            self.check_scene(key)?;
        }
        self.fill_baselines(keys)?;
        let mut need: Vec<RenderKey> = keys
            .iter()
            .copied()
            .filter(|k| !self.rendered.contains_key(k))
            .collect();
        need.sort_unstable();
        need.dedup();
        if !need.is_empty() && !self.temporal.mode.is_off() {
            self.serve_sequences(&need)?;
        } else if !need.is_empty() {
            let workloads = &self.workloads;
            let baselines = &self.baselines;
            let base_policy = self.base_policy;
            let steps = self.steps;
            let faults = self.faults;
            let ssim_mode = self.ssim_mode;
            let results: Vec<Result<ServedFrame, SimError>> =
                parallel::run_indexed(self.threads.min(need.len()), need.len(), |i| {
                    let key = need[i];
                    let policy = base_policy.with_threshold(key.theta(steps));
                    // Fault streams fork per render key, not per job, so
                    // cache hits and misses see identical pixels.
                    let faults = FaultConfig {
                        seed: faults.seed ^ key.mix(),
                        ..faults
                    };
                    let cfg = RenderConfig::new(policy)
                        .with_threads(1)
                        .with_faults(faults);
                    let result = render_frame(&workloads[key.scene], key.frame, &cfg)?;
                    let ssim = match baselines.get(&(key.scene, key.frame)) {
                        // Sampled estimator, seeded per render key: the
                        // stratified plan is a pure function of the key and
                        // the frame size, so cache hits and misses — and any
                        // thread count — report the same number.
                        Some((luma, _)) => f64::from(
                            SampledSsimConfig {
                                fraction: ssim_mode,
                                ..SampledSsimConfig::new(key.mix())
                            }
                            .mssim_sampled(luma, &result.luma()),
                        ),
                        // Unreachable (fill_baselines ran), but degrade to
                        // "no quality claim" instead of panicking.
                        None => 0.0,
                    };
                    Ok(ServedFrame {
                        cycles: result.stats.cycles.max(1),
                        ssim,
                        image_hash: hash_image(&result),
                    })
                });
            for (key, result) in need.into_iter().zip(results) {
                self.rendered.insert(key, result?);
            }
        }
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            match self.rendered.get(key) {
                Some(frame) => out.push(*frame),
                None => {
                    return Err(ServeError::UnknownScene {
                        index: key.scene,
                        scenes: self.workloads.len(),
                    })
                }
            }
        }
        Ok(out)
    }
}

/// A synthetic plant for unit tests: service time falls linearly with the
/// threshold (approximation is cheap), SSIM falls gently, and every result
/// is a pure function of the key. No rendering, microsecond-fast.
#[derive(Debug, Clone)]
pub struct SyntheticService {
    base_cycles: u64,
    steps: u32,
}

impl SyntheticService {
    /// A plant whose full-quality render costs `base_cycles`.
    pub fn new(base_cycles: u64, steps: u32) -> SyntheticService {
        SyntheticService {
            base_cycles: base_cycles.max(1),
            steps: steps.max(1),
        }
    }
}

impl FrameService for SyntheticService {
    fn serve(&mut self, keys: &[RenderKey]) -> Result<Vec<ServedFrame>, ServeError> {
        Ok(keys
            .iter()
            .map(|key| {
                let theta = key.theta(self.steps);
                // ±10% per-(scene,frame) cost spread, deterministic.
                let jitter = 0.9 + 0.2 * (key.mix() % 1000) as f64 / 1000.0;
                let cycles = (self.base_cycles as f64 * (0.4 + 0.6 * theta) * jitter) as u64;
                ServedFrame {
                    cycles: cycles.max(1),
                    ssim: 1.0 - 0.12 * (1.0 - theta),
                    image_hash: key.mix(),
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(scene: usize, frame: u32, bucket: u32) -> RenderKey {
        RenderKey {
            scene,
            frame,
            bucket,
        }
    }

    #[test]
    fn corrupted_hashes_differ_and_replay() {
        for h in [0u64, 1, 0xdead_beef, u64::MAX] {
            for salt in [0u64, 7, 1207] {
                let c = corrupted(h, salt);
                assert_ne!(c, h, "corruption must be detectable");
                assert_eq!(c, corrupted(h, salt), "and deterministic");
            }
        }
        assert_ne!(corrupted(5, 1), corrupted(5, 2), "salt decorrelates");
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        let a = fnv1a(0, *b"abc");
        let b = fnv1a(0, *b"abd");
        assert_ne!(a, b);
        assert_eq!(a, fnv1a(0, *b"abc"));
        assert_ne!(fnv1a(1, *b"abc"), a, "seed perturbs");
    }

    #[test]
    fn synthetic_is_cheaper_and_worse_at_low_theta() {
        let mut s = SyntheticService::new(1_000_000, 8);
        let hi = s.serve(&[key(0, 0, 8)]).expect("serves")[0];
        let lo = s.serve(&[key(0, 0, 2)]).expect("serves")[0];
        assert!(lo.cycles < hi.cycles, "approximation is faster");
        assert!(lo.ssim < hi.ssim, "and slightly worse");
        assert!(lo.ssim > 0.85, "but bounded");
    }

    #[test]
    fn synthetic_calibrate_reports_base_bucket_cost() {
        let mut s = SyntheticService::new(2_000_000, 8);
        let c = s.calibrate(4).expect("calibrates");
        let direct = s.serve(&[key(0, 0, 4)]).expect("serves")[0].cycles;
        assert_eq!(c, direct);
    }

    #[test]
    fn sim_service_caches_and_hashes() {
        let cfg = ServeConfig {
            scenes: vec!["doom3".to_string()],
            resolution: (96, 64),
            ..ServeConfig::default()
        };
        let mut s = SimFrameService::new(&cfg).expect("builds");
        let k = key(0, 0, 3);
        let first = s.serve(&[k]).expect("renders")[0];
        assert_eq!(s.distinct_renders(), 1);
        let again = s.serve(&[k, k]).expect("recalls");
        assert_eq!(again, vec![first, first], "cache hit is bit-identical");
        assert_eq!(s.distinct_renders(), 1, "no re-render");
        assert!(first.ssim > 0.8 && first.ssim <= 1.0, "ssim {}", first.ssim);
        assert!(first.cycles > 0);
        assert_ne!(first.image_hash, 0);
    }

    #[test]
    fn temporal_service_reuses_across_frames_and_stays_deterministic() {
        use patu_temporal::TemporalMode;
        let cfg = ServeConfig {
            scenes: vec!["orbit".to_string()],
            resolution: (96, 64),
            ..ServeConfig::default()
        };
        let keys: Vec<RenderKey> = (0..4).map(|f| key(0, f, 3)).collect();
        let on_cfg = TemporalConfig::for_mode(TemporalMode::On);
        let mut on = SimFrameService::with_temporal(&cfg, on_cfg).expect("builds");
        let served = on.serve(&keys).expect("serves");
        let rerun = SimFrameService::with_temporal(&cfg, on_cfg)
            .expect("builds")
            .serve(&keys)
            .expect("serves");
        assert_eq!(served, rerun, "temporal serving is deterministic");
        assert_eq!(on.distinct_renders(), 4);
        let cached = on.serve(&keys).expect("recalls");
        assert_eq!(cached, served, "cache hits are bit-identical");
        assert_eq!(on.distinct_renders(), 4, "no re-render");

        // Off mode through the explicit constructor takes the legacy
        // per-key path; later frames cost more there because nothing blits.
        let off = SimFrameService::with_temporal(&cfg, TemporalConfig::off())
            .expect("builds")
            .serve(&keys)
            .expect("serves");
        let on_cycles: u64 = served.iter().map(|f| f.cycles).sum();
        let off_cycles: u64 = off.iter().map(|f| f.cycles).sum();
        assert!(
            on_cycles < off_cycles,
            "reuse must shed serve cycles ({on_cycles} vs {off_cycles})"
        );
        // The cold first frame renders fully either way.
        assert_eq!(served[0].image_hash, off[0].image_hash);
        for f in &served {
            assert!(f.ssim > 0.8 && f.ssim <= 1.0, "ssim {}", f.ssim);
        }
    }

    #[test]
    fn ssim_sample_none_serves_the_full_mssim() {
        let sampled_cfg = ServeConfig {
            scenes: vec!["doom3".to_string()],
            resolution: (96, 64),
            ..ServeConfig::default()
        };
        let full_cfg = ServeConfig {
            ssim_sample: None,
            ..sampled_cfg.clone()
        };
        let k = key(0, 0, 3);
        let sampled = SimFrameService::new(&sampled_cfg)
            .expect("builds")
            .serve(&[k]);
        let full = SimFrameService::new(&full_cfg).expect("builds").serve(&[k]);
        let (sampled, full) = (sampled.expect("renders")[0], full.expect("renders")[0]);
        assert_eq!(sampled.image_hash, full.image_hash, "same pixels");
        assert_ne!(sampled.ssim, full.ssim, "the estimate is not the full scan");
        assert!((sampled.ssim - full.ssim).abs() < 0.05);
    }

    #[test]
    fn sim_service_rejects_unknown_scene_index() {
        let cfg = ServeConfig {
            scenes: vec!["doom3".to_string()],
            resolution: (96, 64),
            ..ServeConfig::default()
        };
        let mut s = SimFrameService::new(&cfg).expect("builds");
        assert!(matches!(
            s.serve(&[key(5, 0, 3)]),
            Err(ServeError::UnknownScene { index: 5, .. })
        ));
        let bad = ServeConfig {
            scenes: vec!["not-a-game".to_string()],
            ..cfg
        };
        assert!(SimFrameService::new(&bad).is_err());
    }
}
