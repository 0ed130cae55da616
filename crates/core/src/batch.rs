//! Batched struct-of-arrays fragment→texel path.
//!
//! [`SoaBatch`] holds a run of fragments (same texture) in struct-of-arrays
//! layout. [`filter_batch_shared`] streams the whole batch through a fused
//! predictor+filter kernel for one or more texture units at once — one unit
//! per design point — and [`PerceptionAwareTextureUnit::filter_batch`] is
//! its one-unit call:
//!
//! - the footprint pass computes mip/anisotropy math for every lane up
//!   front, over contiguous derivative arrays;
//! - per lane, every unit runs its own prediction flow (its own hash table,
//!   fault stream and statistics). The stage-2 keys — each AF tap's
//!   bilinear quad at the TF level — are computed once per lane, streamed
//!   into each unit's 16-entry table, and reused for a kept-AF lane's
//!   Fig. 12 sharing statistics (no per-tap `Vec<Vec<TexelAddress>>`);
//! - each unit then takes only the filtering its decision demands, from a
//!   lazy per-lane memo of at most three samples: the `N` AF taps at the
//!   AF LOD, one trilinear tap at the TF LOD and one at the AF LOD. A
//!   demoted lane never reads the `N×8` AF texels the scalar path touches
//!   just to enumerate tap addresses, and units that agree share one
//!   sample;
//! - every texel address fetched lands in one contiguous per-batch buffer,
//!   8 per trilinear tap. Each unit's lane reads its slice of it
//!   ([`SoaBatch::tap_addresses_of`]), which the timing model replays via
//!   `TextureUnit::process_flat`.
//!
//! Two trilinear samples are the same sample only when their inputs — the
//! tap position and the LOD after the sampler's own clamp — are bitwise
//! equal. So an odd-`N` AF centre tap and a demotion at the AF LOD share
//! one tap (whichever unit asks first computes it; AF copies a reused
//! tap's 8 addresses so its own slice stays contiguous), and an `N = 1`
//! lane's TF and AF LODs share one tap, exactly when the bits agree;
//! nothing assumes they do.
//!
//! The kernel is bit-identical to the scalar
//! [`PerceptionAwareTextureUnit::filter_with`] path by construction: both
//! bottom out in `FilterPolicy::decide_streamed` (same fault-injector draw
//! sequence, same hash-table access sequence) and in the same trilinear
//! sampling routines, and each unit sees its lanes in fragment order —
//! batching and sharing change memory layout, never arithmetic or
//! ordering.

use crate::hash_table::TapKey;
use crate::policy::{FilterMode, FilterPolicy, PolicyDecision};
use crate::unit::PerceptionAwareTextureUnit;
use patu_gmath::Vec2;
use patu_texture::{
    sampler::{bilinear_address_set, sample_trilinear_into},
    AddressMode, Footprint, Rgba8, TexelAddress, Texture,
};

/// One memoized sample of a lane: its inputs (compared bitwise), its colour
/// and the slice of the batch's address buffer it fetched.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Tap position.
    uv: Vec2,
    /// LOD after the sampler's clamp — both the input key and the LOD the
    /// sample reports.
    lod: f32,
    color: Rgba8,
    start: u32,
    end: u32,
}

impl Sample {
    fn is_at(&self, uv: Vec2, lod: f32) -> bool {
        self.uv.x.to_bits() == uv.x.to_bits()
            && self.uv.y.to_bits() == uv.y.to_bits()
            && self.lod.to_bits() == lod.to_bits()
    }
}

/// The lane the memo computes for.
struct Lane<'a> {
    tex: &'a Texture,
    mode: AddressMode,
    uv: Vec2,
    fp: &'a Footprint,
}

/// Reusable per-lane scratch of the fused kernel: the lane's AF tap
/// positions, its stage-2 keys and its sample memo.
/// One instance lives inside each [`SoaBatch`]; steady-state filtering
/// performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct LaneScratch {
    offsets: Vec<f32>,
    tap_colors: Vec<Rgba8>,
    /// Each AF tap's bilinear quad at the TF level, in tap order: the keys
    /// stage 2 streams into the hash table.
    tap_keys: Vec<TapKey>,
    offsets_ready: bool,
    keys_ready: bool,
    af: Option<Sample>,
    /// AF tap 0 (the centre tap for odd `N`) as a single trilinear sample.
    af_tap0: Option<Sample>,
    tf_at_tf_lod: Option<Sample>,
    tf_at_af_lod: Option<Sample>,
}

impl LaneScratch {
    /// Forgets the previous lane.
    fn begin(&mut self) {
        self.offsets_ready = false;
        self.keys_ready = false;
        self.af = None;
        self.af_tap0 = None;
        self.tf_at_tf_lod = None;
        self.tf_at_af_lod = None;
    }

    /// Fills the lane's AF tap offsets once; tap `k` sits at
    /// `uv + major_axis_uv * offsets[k]`.
    fn offsets(&mut self, lane: &Lane<'_>) {
        if !self.offsets_ready {
            lane.fp.tap_offsets_into(&mut self.offsets);
            self.offsets_ready = true;
        }
    }

    fn keys(&mut self, lane: &Lane<'_>) -> &[TapKey] {
        if !self.keys_ready {
            self.offsets(lane);
            let (uv, axis) = (lane.uv, lane.fp.major_axis_uv);
            let tf_level = lane.fp.tf_lod.floor() as u32;
            self.tap_keys.clear();
            self.tap_keys.extend(self.offsets.iter().map(|&t| {
                TapKey::from_sorted(bilinear_address_set(
                    lane.tex,
                    uv + axis * t,
                    tf_level,
                    lane.mode,
                ))
            }));
            self.keys_ready = true;
        }
        &self.tap_keys
    }

    /// The `N` AF taps at the AF LOD, averaged. A unit that keeps AF also
    /// records the lane's stage-2 keys, so any still missing are computed
    /// in the same pass over the taps.
    fn af(&mut self, lane: &Lane<'_>, addresses: &mut Vec<TexelAddress>) -> Sample {
        if let Some(s) = self.af {
            return s;
        }
        self.offsets(lane);
        let axis = lane.fp.major_axis_uv;
        let lod = lane.tex.clamp_lod(lane.fp.af_lod);
        let tf_level = lane.fp.tf_lod.floor() as u32;
        let with_keys = !self.keys_ready;
        if with_keys {
            self.tap_keys.clear();
        }
        // Tap 0 may equal a trilinear tap another unit already took; its
        // addresses are then copied so AF's slice stays contiguous.
        let reuse = self.offsets.first().and_then(|&t| {
            let uv = lane.uv + axis * t;
            [self.tf_at_tf_lod, self.tf_at_af_lod]
                .into_iter()
                .flatten()
                .find(|s| s.is_at(uv, lod))
        });
        let start = addresses.len() as u32;
        self.tap_colors.clear();
        for (k, &t) in self.offsets.iter().enumerate() {
            let uv = lane.uv + axis * t;
            let tap_start = addresses.len() as u32;
            let color = match reuse.filter(|_| k == 0) {
                Some(s) => {
                    addresses.extend_from_within(s.start as usize..s.end as usize);
                    s.color
                }
                None => sample_trilinear_into(lane.tex, uv, lod, lane.mode, addresses).0,
            };
            if k == 0 {
                self.af_tap0 = Some(Sample {
                    uv,
                    lod,
                    color,
                    start: tap_start,
                    end: addresses.len() as u32,
                });
            }
            self.tap_colors.push(color);
            if with_keys {
                let quad = bilinear_address_set(lane.tex, uv, tf_level, lane.mode);
                self.tap_keys.push(TapKey::from_sorted(quad));
            }
        }
        self.keys_ready = true;
        let s = Sample {
            uv: lane.uv,
            lod,
            color: Rgba8::average(&self.tap_colors),
            start,
            end: addresses.len() as u32,
        };
        self.af = Some(s);
        s
    }

    /// One trilinear tap at the lane's centre and `lod`, reusing any
    /// memoized single tap whose inputs are bitwise equal.
    fn trilinear(&self, lane: &Lane<'_>, lod: f32, addresses: &mut Vec<TexelAddress>) -> Sample {
        let lod = lane.tex.clamp_lod(lod);
        let memo = [self.af_tap0, self.tf_at_tf_lod, self.tf_at_af_lod];
        if let Some(s) = memo.into_iter().flatten().find(|s| s.is_at(lane.uv, lod)) {
            return s;
        }
        let start = addresses.len() as u32;
        let (color, lod) = sample_trilinear_into(lane.tex, lane.uv, lod, lane.mode, addresses);
        Sample {
            uv: lane.uv,
            lod,
            color,
            start,
            end: addresses.len() as u32,
        }
    }

    fn sample(
        &mut self,
        mode: FilterMode,
        lane: &Lane<'_>,
        addresses: &mut Vec<TexelAddress>,
    ) -> Sample {
        match mode {
            FilterMode::Anisotropic => self.af(lane, addresses),
            FilterMode::TrilinearTfLod => {
                let s = match self.tf_at_tf_lod {
                    Some(s) => s,
                    None => self.trilinear(lane, lane.fp.tf_lod, addresses),
                };
                *self.tf_at_tf_lod.insert(s)
            }
            FilterMode::TrilinearAfLod => {
                let s = match self.tf_at_af_lod {
                    Some(s) => s,
                    None => self.trilinear(lane, lane.fp.af_lod, addresses),
                };
                *self.tf_at_af_lod.insert(s)
            }
        }
    }
}

/// The fused kernel's per-lane result for one unit (the batched analogue
/// of the scalar path's `FilterOutcome`, minus the per-pixel
/// `SampleRecord` allocation — tap addresses live in the batch's
/// contiguous buffer instead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneOutcome {
    /// Final filtered color returned to the shader.
    pub color: Rgba8,
    /// The LOD the lane's taps used.
    pub lod: f32,
    /// Trilinear taps fetched (`N` for kept AF, 1 for demotions).
    pub taps: u32,
    /// The policy decision that produced the filtering.
    pub decision: PolicyDecision,
}

/// One unit's outputs, one entry per lane.
#[derive(Debug, Clone, Default)]
struct UnitLanes {
    outcomes: Vec<LaneOutcome>,
    /// Each lane's slice of the batch's address buffer.
    ranges: Vec<(u32, u32)>,
}

/// A struct-of-arrays batch of fragments awaiting the fused kernel.
///
/// Fill it with [`SoaBatch::push`] in fragment order, run
/// [`PerceptionAwareTextureUnit::filter_batch`] (or
/// [`filter_batch_shared`]), then read the per-lane outputs back with the
/// accessors. All buffers are reused across [`SoaBatch::clear`] cycles.
#[derive(Debug, Clone, Default)]
pub struct SoaBatch {
    // Inputs, one entry per lane, in fragment order.
    xs: Vec<u32>,
    ys: Vec<u32>,
    uvs: Vec<Vec2>,
    duv_dxs: Vec<Vec2>,
    duv_dys: Vec<Vec2>,
    // Footprint pass output.
    footprints: Vec<Footprint>,
    // Fused kernel outputs, one entry per unit.
    outputs: Vec<UnitLanes>,
    /// Every texel address the batch fetched, contiguous, 8 per tap.
    addresses: Vec<TexelAddress>,
    scratch: LaneScratch,
}

impl SoaBatch {
    /// Creates an empty batch.
    pub fn new() -> SoaBatch {
        SoaBatch::default()
    }

    /// Appends one fragment lane (screen position, texture coordinates and
    /// derivatives).
    pub fn push(&mut self, x: u32, y: u32, uv: Vec2, duv_dx: Vec2, duv_dy: Vec2) {
        self.xs.push(x);
        self.ys.push(y);
        self.uvs.push(uv);
        self.duv_dxs.push(duv_dx);
        self.duv_dys.push(duv_dy);
    }

    /// Clears the input lanes for the next run of fragments. Capacity (and
    /// the kernel's scratch buffers) are retained.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
        self.uvs.clear();
        self.duv_dxs.clear();
        self.duv_dys.clear();
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.uvs.len()
    }

    /// Whether the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.uvs.is_empty()
    }

    /// Lane `i`'s screen x.
    pub fn x(&self, i: usize) -> u32 {
        self.xs[i]
    }

    /// Lane `i`'s screen y.
    pub fn y(&self, i: usize) -> u32 {
        self.ys[i]
    }

    /// Unit `unit`'s outcome for lane `lane` (units in the order
    /// [`filter_batch_shared`] received them).
    pub fn outcome(&self, unit: usize, lane: usize) -> LaneOutcome {
        self.outputs[unit].outcomes[lane]
    }

    /// The texel addresses unit `unit` fetched for lane `lane` (8 per tap,
    /// tap-major — the exact order the scalar path's
    /// `SampleRecord::addresses()` yields). Units that share a sample read
    /// the same slice.
    pub fn tap_addresses_of(&self, unit: usize, lane: usize) -> &[TexelAddress] {
        let (start, end) = self.outputs[unit].ranges[lane];
        &self.addresses[start as usize..end as usize]
    }

    /// Lane `i`'s filtered color (the first unit's).
    pub fn color(&self, i: usize) -> Rgba8 {
        self.outcome(0, i).color
    }

    /// Lane `i`'s policy decision (the first unit's).
    pub fn decision(&self, i: usize) -> PolicyDecision {
        self.outcome(0, i).decision
    }

    /// Lane `i`'s sampling LOD (the first unit's).
    pub fn lod(&self, i: usize) -> f32 {
        self.outcome(0, i).lod
    }

    /// Lane `i`'s trilinear tap count (the first unit's).
    pub fn taps(&self, i: usize) -> u32 {
        self.outcome(0, i).taps
    }

    /// Lane `i`'s fetched texel addresses (the first unit's; see
    /// [`SoaBatch::tap_addresses_of`]).
    pub fn tap_addresses(&self, i: usize) -> &[TexelAddress] {
        self.tap_addresses_of(0, i)
    }

    /// Footprint pass: derive every lane's [`Footprint`] and reset the
    /// output arrays for `units` units.
    fn begin(&mut self, tex: &Texture, max_aniso: u32, units: usize) {
        self.footprints.clear();
        self.outputs.resize_with(units, UnitLanes::default);
        for out in &mut self.outputs {
            out.outcomes.clear();
            out.ranges.clear();
        }
        self.addresses.clear();
        let (w, h) = (tex.width(), tex.height());
        for i in 0..self.uvs.len() {
            self.footprints.push(Footprint::from_derivatives(
                self.duv_dxs[i],
                self.duv_dys[i],
                w,
                h,
                max_aniso,
            ));
        }
    }
}

/// Streams a whole [`SoaBatch`] through the fused predictor+filter kernel
/// for every unit in `units` at once. `policy_of(unit, lane)` supplies each
/// unit's (possibly modulated) policy for each lane.
///
/// Lanes are processed in push order and, within a lane, units in slice
/// order. Each unit's statistics, hash table and fault-injector stream
/// advance exactly as if [`PerceptionAwareTextureUnit::filter_with`] had
/// been called once per lane on that unit alone; what the units share is
/// work that depends only on the lane — footprints, stage-2 keys and the
/// texel samples (see the module docs). Outputs are read back with
/// [`SoaBatch::outcome`] and [`SoaBatch::tap_addresses_of`].
pub fn filter_batch_shared<P>(
    units: &mut [PerceptionAwareTextureUnit],
    tex: &Texture,
    mode: AddressMode,
    max_aniso: u32,
    batch: &mut SoaBatch,
    mut policy_of: P,
) where
    P: FnMut(usize, usize) -> FilterPolicy,
{
    batch.begin(tex, max_aniso, units.len());
    let SoaBatch {
        uvs,
        footprints,
        outputs,
        addresses,
        scratch,
        ..
    } = batch;
    for (i, fp) in footprints.iter().enumerate() {
        let lane = Lane {
            tex,
            mode,
            uv: uvs[i],
            fp,
        };
        scratch.begin();
        for (u, unit) in units.iter_mut().enumerate() {
            let decision = unit.decide_lane(policy_of(u, i), fp, |table| {
                let keys = scratch.keys(&lane);
                table.reset();
                for key in keys {
                    table.insert_tap(key);
                }
                keys.len() as u32
            });
            let sample = scratch.sample(decision.mode, &lane, addresses);
            let (taps, kept_af_keys) = match decision.mode {
                FilterMode::Anisotropic => (fp.n, Some(scratch.keys(&lane))),
                _ => (1, None),
            };
            unit.finish_lane(taps, kept_af_keys);
            let out = &mut outputs[u];
            out.outcomes.push(LaneOutcome {
                color: sample.color,
                lod: sample.lod,
                taps,
                decision,
            });
            out.ranges.push((sample.start, sample.end));
        }
    }
}

impl PerceptionAwareTextureUnit {
    /// Streams a whole [`SoaBatch`] through the fused predictor+filter
    /// kernel for this unit alone — [`filter_batch_shared`] with one unit.
    /// `policy_of(lane)` supplies each lane's (possibly modulated) policy —
    /// pass `|_| unit.policy()` for a uniform batch.
    ///
    /// Lanes are processed in push order; statistics, the hash table and the
    /// fault-injector stream advance exactly as if
    /// [`PerceptionAwareTextureUnit::filter_with`] had been called once per
    /// lane. Outputs are read back from the batch accessors.
    pub fn filter_batch<P>(
        &mut self,
        tex: &Texture,
        mode: AddressMode,
        max_aniso: u32,
        batch: &mut SoaBatch,
        mut policy_of: P,
    ) where
        P: FnMut(usize) -> FilterPolicy,
    {
        filter_batch_shared(
            std::slice::from_mut(self),
            tex,
            mode,
            max_aniso,
            batch,
            |_, lane| policy_of(lane),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patu_gpu::FaultConfig;
    use patu_texture::procedural;

    fn texture() -> Texture {
        Texture::with_mips(procedural::composite(256, 256, 0xC0FE), 0)
    }

    fn lane_inputs(count: usize) -> Vec<(u32, u32, Vec2, Vec2, Vec2)> {
        (0..count)
            .map(|i| {
                let fi = i as f32;
                let uv = Vec2::new((0.07 + fi * 0.031) % 1.0, (0.61 + fi * 0.017) % 1.0);
                let n_texels = 1.0 + (i % 13) as f32;
                (
                    i as u32 % 16,
                    i as u32 / 16,
                    uv,
                    Vec2::new(n_texels / 256.0, 0.0),
                    Vec2::new(0.0, 1.0 / 256.0),
                )
            })
            .collect()
    }

    #[test]
    fn batch_matches_scalar_unit_exactly() {
        let tex = texture();
        let policies = [
            FilterPolicy::Baseline,
            FilterPolicy::NoAf,
            FilterPolicy::SampleArea { threshold: 0.4 },
            FilterPolicy::SampleAreaTxds { threshold: 0.4 },
            FilterPolicy::Patu { threshold: 0.4 },
            FilterPolicy::Patu { threshold: 0.9 },
        ];
        for policy in policies {
            for rate in [0.0, 0.25] {
                let cfg = FaultConfig::uniform(17, rate);
                let mut scalar =
                    PerceptionAwareTextureUnit::try_with_faults(policy, 16, cfg, 3).unwrap();
                let mut batched =
                    PerceptionAwareTextureUnit::try_with_faults(policy, 16, cfg, 3).unwrap();
                scalar.set_telemetry(true);
                batched.set_telemetry(true);

                let lanes = lane_inputs(40);
                let mut batch = SoaBatch::new();
                for &(x, y, uv, dx, dy) in &lanes {
                    batch.push(x, y, uv, dx, dy);
                }
                batched.filter_batch(&tex, AddressMode::Wrap, 16, &mut batch, |_| policy);

                for (i, &(_, _, uv, dx, dy)) in lanes.iter().enumerate() {
                    let fp = Footprint::from_derivatives(dx, dy, 256, 256, 16);
                    let out = scalar.filter_with(policy, &tex, uv, &fp, AddressMode::Wrap);
                    assert_eq!(batch.color(i), out.record.color, "{policy:?} lane {i}");
                    assert_eq!(batch.decision(i), out.decision, "{policy:?} lane {i}");
                    assert_eq!(batch.lod(i), out.record.lod, "{policy:?} lane {i}");
                    assert_eq!(batch.taps(i), out.record.n, "{policy:?} lane {i}");
                    let scalar_addrs: Vec<TexelAddress> = out.record.addresses().collect();
                    assert_eq!(batch.tap_addresses(i), scalar_addrs, "{policy:?} lane {i}");
                }
                assert_eq!(
                    batched.hash_accesses(),
                    scalar.hash_accesses(),
                    "{policy:?}"
                );
                assert_eq!(
                    batched.sharing_stats(),
                    scalar.sharing_stats(),
                    "{policy:?}"
                );
                assert_eq!(batched.approx_stats(), scalar.approx_stats(), "{policy:?}");
                assert_eq!(batched.fault_counts(), scalar.fault_counts(), "{policy:?}");
            }
        }
    }

    #[test]
    fn shared_kernel_matches_each_unit_alone() {
        let tex = texture();
        // Reversed and duplicated entries catch state leaking between units.
        let policies = [
            FilterPolicy::Patu { threshold: 0.9 },
            FilterPolicy::Baseline,
            FilterPolicy::NoAf,
            FilterPolicy::SampleArea { threshold: 0.4 },
            FilterPolicy::SampleAreaTxds { threshold: 0.4 },
            FilterPolicy::Patu { threshold: 0.4 },
            FilterPolicy::Baseline,
        ];
        let lanes = lane_inputs(40);
        for rate in [0.0, 0.25] {
            let cfg = FaultConfig::uniform(17, rate);
            let unit = |policy| {
                let mut u =
                    PerceptionAwareTextureUnit::try_with_faults(policy, 16, cfg, 3).unwrap();
                u.set_telemetry(true);
                u
            };
            let mut shared: Vec<_> = policies.iter().map(|&p| unit(p)).collect();
            let mut batch = SoaBatch::new();
            for &(x, y, uv, dx, dy) in &lanes {
                batch.push(x, y, uv, dx, dy);
            }
            filter_batch_shared(
                &mut shared,
                &tex,
                AddressMode::Wrap,
                16,
                &mut batch,
                |u, _| policies[u],
            );
            for (u, &policy) in policies.iter().enumerate() {
                let mut alone = unit(policy);
                let mut own = SoaBatch::new();
                for &(x, y, uv, dx, dy) in &lanes {
                    own.push(x, y, uv, dx, dy);
                }
                alone.filter_batch(&tex, AddressMode::Wrap, 16, &mut own, |_| policy);
                for i in 0..lanes.len() {
                    assert_eq!(
                        batch.outcome(u, i),
                        own.outcome(0, i),
                        "{policy:?} lane {i}"
                    );
                    assert_eq!(
                        batch.tap_addresses_of(u, i),
                        own.tap_addresses(i),
                        "{policy:?} lane {i}"
                    );
                }
                assert_eq!(shared[u], alone, "{policy:?} unit state, rate {rate}");
            }
        }
    }

    #[test]
    fn batch_reuse_does_not_leak_state_across_runs() {
        let tex = texture();
        let policy = FilterPolicy::Patu { threshold: 0.4 };
        let mut unit = PerceptionAwareTextureUnit::new(policy);
        let mut batch = SoaBatch::new();
        let lanes = lane_inputs(12);

        // First run fills every buffer; the second must produce identical
        // outputs from recycled capacity.
        let run = |unit: &mut PerceptionAwareTextureUnit, batch: &mut SoaBatch| {
            batch.clear();
            for &(x, y, uv, dx, dy) in &lanes {
                batch.push(x, y, uv, dx, dy);
            }
            unit.filter_batch(&tex, AddressMode::Wrap, 16, batch, |_| policy);
            (0..batch.len())
                .map(|i| {
                    (
                        batch.color(i),
                        batch.decision(i),
                        batch.tap_addresses(i).to_vec(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let first = run(&mut unit, &mut batch);
        let second = run(&mut unit, &mut batch);
        assert_eq!(first, second);
    }

    #[test]
    fn per_lane_policy_modulation() {
        let tex = texture();
        let base = FilterPolicy::Patu { threshold: 0.4 };
        let mut unit = PerceptionAwareTextureUnit::new(base);
        let mut batch = SoaBatch::new();
        for &(x, y, uv, dx, dy) in &lane_inputs(8) {
            batch.push(x, y, uv, dx, dy);
        }
        // Odd lanes run NoAf; the decision surface must reflect it.
        unit.filter_batch(&tex, AddressMode::Wrap, 16, &mut batch, |i| {
            if i % 2 == 1 {
                FilterPolicy::NoAf
            } else {
                base
            }
        });
        for i in 0..batch.len() {
            if i % 2 == 1 {
                assert!(batch.decision(i).is_approximated(), "lane {i} forced off");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let tex = texture();
        let mut unit = PerceptionAwareTextureUnit::new(FilterPolicy::Baseline);
        let mut batch = SoaBatch::new();
        unit.filter_batch(&tex, AddressMode::Wrap, 16, &mut batch, |_| {
            FilterPolicy::Baseline
        });
        assert_eq!(batch.len(), 0);
        assert_eq!(unit.approx_stats().pixels, 0);
    }
}
