//! Frame services: how a dispatched batch becomes pixels.
//!
//! [`FrameService`] abstracts the GPU pool's render path so the scheduler
//! and governor can be unit-tested against a cheap synthetic plant
//! ([`SyntheticService`]) while sessions run the real simulator
//! ([`SimFrameService`]). Both are deterministic: a [`RenderKey`] fully
//! identifies the work and results are cached by key, so serve outputs are
//! bit-identical across thread counts.
//!
//! The governor snaps θ onto a few buckets, and a session can only ever
//! dispatch at the buckets between its floor and its base threshold. So
//! [`SimFrameService`] renders all of a `(scene, frame)`'s reachable
//! buckets, with the 16×AF SSIM baseline, in one shared
//! `patu_sim::render::render_policies` traversal on the first miss of that
//! frame. Every frame is bit-identical to rendering its key alone; the
//! traversal shares the geometry, footprints, stage-2 keys and texel
//! samples. Groups render one after another; each traversal renders its
//! clusters on the session's worker threads.
//!
//! Live services share their scenes: [`SimFrameService::new`] takes each
//! `(name, resolution)` from a process-wide store of [`Weak`] handles, so
//! sessions running side by side hold one copy of each texture set, and a
//! scene is freed with the last service that holds it.

use crate::error::ServeError;
use crate::governor::reachable_buckets;
use crate::workload::ServeConfig;
use patu_core::FilterPolicy;
use patu_quality::{GrayImage, SampledSsimConfig};
use patu_scenes::Workload;
use patu_sim::render::{render_policies, RenderConfig};
use patu_sim::{parallel, FrameResult, SimError};
use patu_temporal::TemporalConfig;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// FNV-1a over a byte stream: the cheap content hash used as the
/// bit-identity witness on delivered frames, and to seed each key's
/// sampled-SSIM plan.
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
/// A miss on key `(scene, frame, bucket)` renders, in one shared
/// traversal ([`render_policies`]), the frame's 16×AF baseline
/// (unless its luma is cached) and every *reachable* bucket of that
/// `(scene, frame)` not rendered yet — the buckets the session's governor
/// can dispatch at ([`reachable_buckets`]). Each result is bit-identical to
/// rendering its key alone, so serving ahead never changes a delivered
/// frame; it shares the geometry, footprints, stage-2 keys and texel
/// samples of up to `1 + reachable` renders. A key outside the reachable
/// set renders on its own miss only.
///
/// Results live in two `BTreeMap`s keyed by [`RenderKey`]: keys a caller
/// asked for, and keys rendered ahead of a request (moved over on their
/// first request, so [`SimFrameService::distinct_renders`] counts requested
/// keys). A baseline's luma is kept while a reachable bucket of its
/// `(scene, frame)` is still unrendered. Misses of different
/// `(scene, frame)`s render one after another, each traversal's clusters
/// on the session's worker threads, and every render is bit-identical
/// across thread counts, so results are independent of the thread count.
pub struct SimFrameService {
    /// The session's scenes, shared with every live service that built the
    /// same `(name, resolution)` ([`shared_scene`]).
    workloads: Vec<Arc<Workload>>,
    base_policy: FilterPolicy,
    steps: u32,
    threads: usize,
    /// The sampled-SSIM mode, [`ServeConfig::ssim_sample`] (`None` = full
    /// MSSIM).
    ssim_mode: Option<f64>,
    /// The buckets the session's governor can dispatch at.
    reachable: RangeInclusive<u32>,
    /// 16×AF baseline luma per `(scene, frame)` rendered so far; `None`
    /// once every reachable bucket of it has rendered.
    baselines: BTreeMap<(usize, u32), Option<GrayImage>>,
    /// Keys a caller has asked for.
    rendered: BTreeMap<RenderKey, ServedFrame>,
    /// Keys rendered ahead of any request.
    ahead: BTreeMap<RenderKey, ServedFrame>,
    baseline_cycles: u64,
}

/// One `(scene, frame)`'s share of a miss: the buckets to render and
/// whether its baseline renders beside them.
struct Group {
    scene: usize,
    frame: u32,
    buckets: Vec<u32>,
    baseline: bool,
}

/// A scene's identity: the two arguments of [`Workload::build`].
type SceneKey = (String, (u32, u32));

/// The process-wide scene store. An entry holds a [`Weak`] handle, so it
/// keeps no scene alive: a scene lives while some service holds it, and
/// the next build after its last holder dropped is cold again and replaces
/// the entry.
static SCENES: Mutex<BTreeMap<SceneKey, Weak<Workload>>> = Mutex::new(BTreeMap::new());

/// The scene `name` at `resolution`: the copy a live service already
/// holds, or a fresh [`Workload::build`]. The build runs under the store's
/// lock, so services started together build each scene once. A [`Workload`]
/// is immutable after its build, so sharing one cannot change a render.
/// A failed build inserts nothing.
fn shared_scene(name: &str, resolution: (u32, u32)) -> Result<Arc<Workload>, SimError> {
    // The map is only written after a build succeeds, so a poisoned lock
    // still guards a consistent map.
    let mut scenes = SCENES.lock().unwrap_or_else(PoisonError::into_inner);
    let key = (name.to_string(), resolution);
    if let Some(scene) = scenes.get(&key).and_then(Weak::upgrade) {
        return Ok(scene);
    }
    let scene = Arc::new(Workload::build(name, resolution).map_err(SimError::Workload)?);
    scenes.insert(key, Arc::downgrade(&scene));
    Ok(scene)
}

impl SimFrameService {
    /// Builds the service for a session: one [`Workload`] per configured
    /// scene at the session resolution, shared with every live service
    /// that holds the same scene.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for unknown scene names or an invalid base
    /// policy.
    pub fn new(cfg: &ServeConfig) -> Result<SimFrameService, ServeError> {
        let base_policy = FilterPolicy::Patu {
            threshold: cfg.base_threshold,
        };
        base_policy.validate().map_err(SimError::from)?;
        let workloads = cfg
            .scenes
            .iter()
            .map(|name| shared_scene(name, cfg.resolution))
            .collect::<Result<_, _>>()?;
        Ok(SimFrameService {
            workloads,
            base_policy,
            steps: cfg.governor_steps.max(1),
            threads: parallel::thread_count(cfg.threads),
            ssim_mode: cfg.ssim_sample,
            reachable: reachable_buckets(cfg),
            baselines: BTreeMap::new(),
            rendered: BTreeMap::new(),
            ahead: BTreeMap::new(),
            baseline_cycles: 0,
        })
    }

    /// [`SimFrameService::new`], for callers that name a cross-frame reuse
    /// policy. Serving renders every key on its own, so only
    /// [`TemporalConfig::off`] is accepted; cross-frame tile reuse lives in
    /// `patu_sim::render::render_sequence`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for any mode but off; otherwise see
    /// [`SimFrameService::new`].
    pub fn with_temporal(
        cfg: &ServeConfig,
        temporal: TemporalConfig,
    ) -> Result<SimFrameService, ServeError> {
        if !temporal.mode.is_off() {
            return Err(ServeError::InvalidConfig {
                what: "temporal mode must be off",
            });
        }
        SimFrameService::new(cfg)
    }

    /// Distinct keys requested so far — the knob for asserting the
    /// governor's quantization actually bounds distinct render work. Keys
    /// rendered ahead count once a caller asks for them.
    pub fn distinct_renders(&self) -> usize {
        self.rendered.len()
    }

    /// Simulated cycles spent rendering 16×AF SSIM baselines — reference
    /// work on the analysis track, *not* on any serving GPU's clock. Each
    /// `(scene, frame)` counts once, so the tests read it as the witness
    /// that each reference rendered once, however many keys compared
    /// against it.
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

    fn is_served(&self, key: &RenderKey) -> bool {
        self.rendered.contains_key(key) || self.ahead.contains_key(key)
    }

    fn has_luma(&self, id: (usize, u32)) -> bool {
        matches!(self.baselines.get(&id), Some(Some(_)))
    }

    /// The one render path of [`FrameService::serve`] and
    /// [`FrameService::calibrate`]. With `ahead`, a miss on a reachable
    /// key also renders its `(scene, frame)`'s other unrendered reachable
    /// buckets; without it, only the keys asked for render.
    fn serve_keys(
        &mut self,
        keys: &[RenderKey],
        ahead: bool,
    ) -> Result<Vec<ServedFrame>, ServeError> {
        for key in keys {
            self.check_scene(key)?;
        }
        let mut need: Vec<RenderKey> = keys
            .iter()
            .copied()
            .filter(|k| !self.is_served(k))
            .collect();
        need.sort_unstable();
        need.dedup();
        if !need.is_empty() {
            let groups = self.plan(&need, ahead);
            self.render_groups(groups)?;
            self.release_baselines(&need);
        }
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(frame) = self.ahead.remove(key) {
                self.rendered.insert(*key, frame);
            }
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

    /// Groups the missed keys `need` by `(scene, frame)`. A group renders
    /// its baseline if the luma is not cached, and its missed keys — plus,
    /// with `ahead`, every unrendered reachable bucket beside a reachable
    /// miss.
    fn plan(&self, need: &[RenderKey], ahead: bool) -> Vec<Group> {
        let mut by_frame: BTreeMap<(usize, u32), Vec<u32>> = BTreeMap::new();
        for key in need {
            let buckets = by_frame.entry((key.scene, key.frame)).or_default();
            buckets.push(key.bucket);
            if ahead && self.reachable.contains(&key.bucket) {
                buckets.extend(
                    self.reachable
                        .clone()
                        .filter(|&bucket| !self.is_served(&RenderKey { bucket, ..*key })),
                );
            }
        }
        by_frame
            .into_iter()
            .map(|((scene, frame), mut buckets)| {
                buckets.sort_unstable();
                buckets.dedup();
                Group {
                    scene,
                    frame,
                    buckets,
                    baseline: !self.has_luma((scene, frame)),
                }
            })
            .collect()
    }

    /// Renders every group, one after another, in one [`render_policies`]
    /// traversal each; a traversal renders its clusters on the service's
    /// workers. The baseline is the *reference* that SSIM compares
    /// against.
    fn render_groups(&mut self, groups: Vec<Group>) -> Result<(), ServeError> {
        let cfg = RenderConfig::new(FilterPolicy::Baseline).with_threads(self.threads);
        for g in groups {
            let keys: Vec<RenderKey> = g
                .buckets
                .iter()
                .map(|&bucket| RenderKey {
                    scene: g.scene,
                    frame: g.frame,
                    bucket,
                })
                .collect();
            let mut policies = Vec::with_capacity(keys.len() + 1);
            if g.baseline {
                policies.push(FilterPolicy::Baseline);
            }
            policies.extend(
                keys.iter()
                    .map(|key| self.base_policy.with_threshold(key.theta(self.steps))),
            );
            let mut results =
                render_policies(&self.workloads[g.scene], g.frame, &cfg, &policies)?.into_iter();
            if g.baseline {
                if let Some(r) = results.next() {
                    // A baseline rendered again after its luma was released
                    // repeats cycles already counted.
                    if self
                        .baselines
                        .insert((g.scene, g.frame), Some(r.luma()))
                        .is_none()
                    {
                        self.baseline_cycles += r.stats.cycles;
                    }
                }
            }
            let luma = self
                .baselines
                .get(&(g.scene, g.frame))
                .and_then(Option::as_ref);
            for (key, r) in keys.into_iter().zip(results) {
                let frame = served_frame(key, &r, luma, self.ssim_mode);
                self.ahead.insert(key, frame);
            }
        }
        Ok(())
    }

    /// Drops the baseline luma of each `(scene, frame)` in `keys` whose
    /// reachable buckets have all rendered: no later reachable miss
    /// compares against it.
    fn release_baselines(&mut self, keys: &[RenderKey]) {
        for key in keys {
            let done = self
                .reachable
                .clone()
                .all(|bucket| self.is_served(&RenderKey { bucket, ..*key }));
            if let (true, Some(luma)) = (done, self.baselines.get_mut(&(key.scene, key.frame))) {
                *luma = None;
            }
        }
    }
}

/// What serving `key` delivered as `result`: its cycles, image hash and
/// SSIM against the `baseline` luma. The sampled estimator is seeded per
/// render key: the stratified plan is a pure function of the key and the
/// frame size, so cache hits and misses — and any thread count — report
/// the same number.
fn served_frame(
    key: RenderKey,
    result: &FrameResult,
    baseline: Option<&GrayImage>,
    ssim_mode: Option<f64>,
) -> ServedFrame {
    let ssim = match baseline {
        Some(luma) => f64::from(
            SampledSsimConfig {
                fraction: ssim_mode,
                ..SampledSsimConfig::new(key.mix())
            }
            .mssim_sampled(luma, &result.luma()),
        ),
        // Unreachable (the baseline renders first), but degrade to "no
        // quality claim" instead of panicking.
        None => 0.0,
    };
    ServedFrame {
        cycles: result.stats.cycles.max(1),
        ssim,
        image_hash: hash_image(result),
    }
}

fn hash_image(result: &FrameResult) -> u64 {
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
        self.serve_keys(keys, true)
    }

    /// Renders the calibration key and its baseline only: set-up renders
    /// no bucket a job has not asked for.
    fn calibrate(&mut self, bucket: u32) -> Result<u64, ServeError> {
        let key = RenderKey {
            scene: 0,
            frame: 0,
            bucket,
        };
        let served = self.serve_keys(&[key], false)?;
        Ok(served.first().map_or(1, |s| s.cycles.max(1)))
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

    fn doom3() -> ServeConfig {
        ServeConfig {
            scenes: vec!["doom3".to_string()],
            resolution: (96, 64),
            ..ServeConfig::default()
        }
    }

    /// `key` rendered alone, scored against `baseline`, a render of the
    /// same frame.
    fn lone(cfg: &ServeConfig, key: RenderKey, baseline: &FrameResult) -> ServedFrame {
        use patu_sim::render::render_frame;
        let w = Workload::build(&cfg.scenes[key.scene], cfg.resolution).expect("builds");
        let policy = FilterPolicy::Patu {
            threshold: key.theta(cfg.governor_steps),
        };
        let rc = RenderConfig::new(policy).with_threads(1);
        let result = render_frame(&w, key.frame, &rc).expect("renders");
        let ssim = SampledSsimConfig {
            fraction: cfg.ssim_sample,
            ..SampledSsimConfig::new(key.mix())
        }
        .mssim_sampled(&baseline.luma(), &result.luma());
        ServedFrame {
            cycles: result.stats.cycles.max(1),
            ssim: f64::from(ssim),
            image_hash: hash_image(&result),
        }
    }

    fn baseline_render(cfg: &ServeConfig, scene: usize, frame: u32) -> FrameResult {
        let w = Workload::build(&cfg.scenes[scene], cfg.resolution).expect("builds");
        let rc = RenderConfig::new(FilterPolicy::Baseline).with_threads(1);
        patu_sim::render::render_frame(&w, frame, &rc).expect("renders")
    }

    #[test]
    fn shared_traversal_serves_what_lone_renders_serve() {
        let reference = baseline_render(&doom3(), 0, 1);
        for threads in [1, 4] {
            let cfg = ServeConfig {
                threads: Some(threads),
                ..doom3()
            };
            let mut s = SimFrameService::new(&cfg).expect("builds");
            assert_eq!(s.reachable, 2..=8, "governor floor 0.25 to base 1.0");
            s.serve(&[key(0, 1, 3)]).expect("renders");
            assert_eq!(
                s.ahead.len(),
                6,
                "the other reachable buckets rendered ahead"
            );
            assert_eq!(s.baseline_cycles(), reference.stats.cycles);
            assert!(
                matches!(s.baselines.get(&(0, 1)), Some(None)),
                "luma released once every reachable bucket rendered"
            );
            for bucket in s.reachable.clone() {
                let k = key(0, 1, bucket);
                let served = s.serve(&[k]).expect("recalls")[0];
                assert_eq!(served, lone(&cfg, k, &reference), "threads {threads} {k:?}");
            }
            assert_eq!(s.distinct_renders(), 7);
            assert!(s.ahead.is_empty());
            // Outside the reachable set a key renders on its own miss, its
            // baseline again, without counting its cycles twice.
            let outside = key(0, 1, 0);
            let served = s.serve(&[outside]).expect("renders")[0];
            assert_eq!(served, lone(&cfg, outside, &reference));
            assert_eq!(s.baseline_cycles(), reference.stats.cycles);
            assert!(s.ahead.is_empty(), "nothing rendered ahead of it");
        }
    }

    #[test]
    fn calibrate_renders_only_its_key_and_the_baseline() {
        let cfg = doom3();
        let mut s = SimFrameService::new(&cfg).expect("builds");
        let cycles = s.calibrate(8).expect("calibrates");
        assert_eq!(s.distinct_renders(), 1);
        assert!(s.ahead.is_empty(), "no bucket rendered ahead");
        assert!(s.has_luma((0, 0)), "luma kept for the unrendered buckets");
        let reference = baseline_render(&cfg, 0, 0);
        assert_eq!(cycles, lone(&cfg, key(0, 0, 8), &reference).cycles);
        assert_eq!(s.baseline_cycles(), reference.stats.cycles);
        // The first job's miss renders the rest of the reachable set.
        s.serve(&[key(0, 0, 5)]).expect("renders");
        assert_eq!(s.distinct_renders(), 2);
        assert_eq!(s.ahead.len(), 5);
        assert!(!s.has_luma((0, 0)));
        assert_eq!(
            s.baseline_cycles(),
            reference.stats.cycles,
            "baseline cached"
        );
    }

    #[test]
    fn governor_off_renders_only_the_base_bucket() {
        let cfg = ServeConfig {
            governor: false,
            ..doom3()
        };
        let mut s = SimFrameService::new(&cfg).expect("builds");
        assert_eq!(s.reachable, 8..=8);
        s.serve(&[key(0, 0, 8)]).expect("renders");
        assert!(s.ahead.is_empty());
        assert!(!s.has_luma((0, 0)));
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
    fn with_temporal_accepts_off_and_rejects_reuse() {
        use patu_temporal::TemporalMode;
        let cfg = doom3();
        let k = key(0, 0, 3);
        let via_off = SimFrameService::with_temporal(&cfg, TemporalConfig::off())
            .expect("off builds")
            .serve(&[k])
            .expect("serves");
        let via_new = SimFrameService::new(&cfg)
            .expect("builds")
            .serve(&[k])
            .expect("serves");
        assert_eq!(via_off, via_new, "off is new");
        for mode in [TemporalMode::On, TemporalMode::Aggressive] {
            assert!(
                matches!(
                    SimFrameService::with_temporal(&cfg, TemporalConfig::for_mode(mode)),
                    Err(ServeError::InvalidConfig { .. })
                ),
                "{mode:?} is rejected"
            );
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
    }

    /// The store's live copies of `(name, resolution)`: the strong count
    /// of its entry, or `None` without an entry. Each store test uses a
    /// resolution of its own, so tests running beside it hold none.
    fn live_copies(name: &str, resolution: (u32, u32)) -> Option<usize> {
        SCENES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(name.to_string(), resolution))
            .map(Weak::strong_count)
    }

    fn store_cfg(resolution: (u32, u32)) -> ServeConfig {
        ServeConfig {
            resolution,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn services_alive_together_share_each_scene() {
        let cfg = store_cfg((80, 48));
        let a = SimFrameService::new(&cfg).expect("builds");
        let b = SimFrameService::new(&cfg).expect("builds");
        assert_eq!(a.workloads.len(), 2);
        for (x, y) in a.workloads.iter().zip(&b.workloads) {
            assert!(std::ptr::eq(x.textures(), y.textures()), "one copy");
        }
        assert_eq!(live_copies("doom3", (80, 48)), Some(2));
        let other = SimFrameService::new(&store_cfg((80, 40))).expect("builds");
        assert!(
            !std::ptr::eq(a.workloads[0].textures(), other.workloads[0].textures()),
            "another resolution is another scene"
        );
    }

    #[test]
    fn the_store_keeps_nothing_alive_after_the_last_holder() {
        let (cfg, res) = (store_cfg((88, 40)), (88, 40));
        let a = SimFrameService::new(&cfg).expect("builds");
        let b = SimFrameService::new(&cfg).expect("builds");
        let scene = Arc::downgrade(&a.workloads[0]);
        drop(a);
        assert_eq!(scene.strong_count(), 1, "b still holds it");
        drop(b);
        assert_eq!(scene.strong_count(), 0, "freed with its last holder");
        assert_eq!(live_copies("doom3", res), Some(0));
        assert_eq!(live_copies("hl2", res), Some(0));
        let c = SimFrameService::new(&cfg).expect("builds");
        assert_eq!(live_copies("doom3", res), Some(1), "built cold again");
        drop(c);
    }

    #[test]
    fn services_built_in_parallel_hold_one_copy() {
        let cfg = store_cfg((72, 56));
        let tasks: Vec<parallel::Task<'_, Result<SimFrameService, ServeError>>> = (0..2)
            .map(|_| {
                let cfg = &cfg;
                Box::new(move || SimFrameService::new(cfg))
                    as parallel::Task<'_, Result<SimFrameService, ServeError>>
            })
            .collect();
        let built = parallel::run_tasks(2, tasks);
        let [Ok(a), Ok(b)] = &built[..] else {
            panic!("both build");
        };
        for (x, y) in a.workloads.iter().zip(&b.workloads) {
            assert!(Arc::ptr_eq(x, y), "one copy");
        }
        assert_eq!(live_copies("hl2", (72, 56)), Some(2));
    }

    #[test]
    fn a_session_beside_another_holder_logs_the_same_bytes() {
        use crate::server::run_session;
        let cfg = ServeConfig {
            clients: 2,
            jobs_per_client: 6,
            threads: Some(1),
            ..store_cfg((64, 40))
        };
        let alone = {
            let mut svc = SimFrameService::new(&cfg).expect("builds");
            assert_eq!(live_copies("doom3", (64, 40)), Some(1), "no other holder");
            run_session(&cfg, &mut svc).expect("runs").log
        };
        let holder = SimFrameService::new(&cfg).expect("builds");
        let mut beside = SimFrameService::new(&cfg).expect("builds");
        assert!(Arc::ptr_eq(&holder.workloads[0], &beside.workloads[0]));
        let beside = run_session(&cfg, &mut beside).expect("runs").log;
        assert!(!alone.is_empty());
        assert_eq!(alone, beside, "sharing a scene changes no log byte");
    }

    #[test]
    fn an_unknown_scene_fails_alike_and_leaves_no_entry() {
        let res = (56, 40);
        let bad = ServeConfig {
            scenes: vec!["not-a-game".to_string()],
            ..store_cfg(res)
        };
        let expected = Workload::build("not-a-game", res)
            .map_err(|e| ServeError::from(SimError::Workload(e)))
            .err();
        assert!(expected.is_some());
        for _ in 0..2 {
            assert_eq!(SimFrameService::new(&bad).err(), expected);
            assert_eq!(live_copies("not-a-game", res), None);
        }
    }
}
