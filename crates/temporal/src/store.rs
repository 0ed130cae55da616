//! The cross-frame [`TileStore`]: pixels, ages, drift and PATU decision
//! summaries carried from one rendered frame to the next.

use crate::config::TemporalConfig;
use crate::invalidate::{classify, FramePlan, TileClass};
use patu_raster::Framebuffer;
use patu_scenes::FrameScene;

/// Summary of the PATU decisions a tile rendered with, carried forward so a
/// reused tile can report approximation stats without re-running prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileDecision {
    /// Fragments the tile shaded when it was last rendered.
    pub fragments: u64,
    /// Fragments PATU demoted to the approximate path.
    pub demoted: u64,
    /// Effective threshold in basis points (threshold × 10⁴) the tile's
    /// demotions were decided under.
    pub threshold_bp: u32,
}

impl TileDecision {
    /// Builds a decision summary from its three fields.
    pub fn new(fragments: u64, demoted: u64, threshold_bp: u32) -> TileDecision {
        TileDecision {
            fragments,
            demoted,
            threshold_bp,
        }
    }
}

/// Everything retained from the last committed frame.
#[derive(Debug, Clone)]
struct StoredFrame {
    scene: FrameScene,
    image: Framebuffer,
    tiles_x: u32,
    tiles_y: u32,
    tile_size: u32,
    /// Frames since each tile's last full render.
    ages: Vec<u16>,
    /// Accumulated screen-space drift since each tile's last full render.
    drift: Vec<f32>,
    decisions: Vec<TileDecision>,
}

/// Cross-frame tile cache: owns the invalidation policy ([`TemporalConfig`])
/// and the previous frame's pixels/decisions. Drive it with
/// [`TileStore::plan`] before rendering a frame and [`TileStore::commit`]
/// after, in frame order.
#[derive(Debug, Clone)]
pub struct TileStore {
    cfg: TemporalConfig,
    prev: Option<StoredFrame>,
}

impl TileStore {
    /// An empty store with the given policy.
    pub fn new(cfg: TemporalConfig) -> TileStore {
        TileStore { cfg, prev: None }
    }

    /// The policy this store classifies with.
    pub fn config(&self) -> &TemporalConfig {
        &self.cfg
    }

    /// Classifies every tile of the upcoming frame against the stored one.
    /// With no stored frame (or a resolution/tiling change) everything
    /// rerenders.
    pub fn plan(&self, cur: &FrameScene, width: u32, height: u32, tile_size: u32) -> FramePlan {
        let tiles_x = width.div_ceil(tile_size);
        let tiles_y = height.div_ceil(tile_size);
        match &self.prev {
            Some(prev)
                if prev.tiles_x == tiles_x
                    && prev.tiles_y == tiles_y
                    && prev.tile_size == tile_size
                    && prev.image.width() == width
                    && prev.image.height() == height =>
            {
                classify(
                    &prev.scene,
                    cur,
                    &prev.ages,
                    &prev.drift,
                    &self.cfg,
                    width,
                    height,
                    tile_size,
                )
            }
            _ => FramePlan::uniform(tiles_x, tiles_y, TileClass::Rerender),
        }
    }

    /// The stored frame's pixels, for blitting reused tiles.
    pub fn prev_image(&self) -> Option<&Framebuffer> {
        self.prev.as_ref().map(|p| &p.image)
    }

    /// The stored decision summary for tile `(tx, ty)`.
    pub fn decision(&self, tx: u32, ty: u32) -> Option<TileDecision> {
        let prev = self.prev.as_ref()?;
        if tx >= prev.tiles_x || ty >= prev.tiles_y {
            return None;
        }
        Some(prev.decisions[(ty * prev.tiles_x + tx) as usize])
    }

    /// Commits a rendered frame. `plan` must be the one this frame was
    /// rendered under and `fresh` the per-grid-index decision summaries the
    /// renderer produced (only consulted where the plan rerendered or
    /// repredicted; reused tiles carry their stored summary forward).
    ///
    /// # Panics
    ///
    /// Panics when `fresh` does not cover the plan's grid.
    pub fn commit(
        &mut self,
        scene: FrameScene,
        image: Framebuffer,
        tile_size: u32,
        plan: &FramePlan,
        fresh: &[TileDecision],
    ) {
        let tiles = (plan.tiles_x() as usize) * (plan.tiles_y() as usize);
        assert_eq!(fresh.len(), tiles, "decision grid must match the plan");
        let mut ages = Vec::with_capacity(tiles);
        let mut drift = Vec::with_capacity(tiles);
        let mut decisions = Vec::with_capacity(tiles);
        for (idx, &summary) in fresh.iter().enumerate() {
            let tx = (idx as u32) % plan.tiles_x();
            let ty = (idx as u32) / plan.tiles_x();
            match plan.class(tx, ty) {
                TileClass::Rerender => {
                    ages.push(0);
                    drift.push(0.0);
                    decisions.push(summary);
                }
                TileClass::Repredict => {
                    ages.push(self.age_at(idx).saturating_add(1));
                    drift.push(plan.drift(idx));
                    decisions.push(summary);
                }
                TileClass::Reuse => {
                    ages.push(self.age_at(idx).saturating_add(1));
                    drift.push(plan.drift(idx));
                    decisions.push(
                        self.prev
                            .as_ref()
                            .map(|p| p.decisions[idx])
                            .unwrap_or(summary),
                    );
                }
            }
        }
        self.prev = Some(StoredFrame {
            tiles_x: plan.tiles_x(),
            tiles_y: plan.tiles_y(),
            tile_size,
            scene,
            image,
            ages,
            drift,
            decisions,
        });
    }

    /// Drops the stored frame; the next plan rerenders everything.
    pub fn reset(&mut self) {
        self.prev = None;
    }

    fn age_at(&self, idx: usize) -> u16 {
        self.prev
            .as_ref()
            .and_then(|p| p.ages.get(idx).copied())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TemporalMode;
    use patu_gmath::{Vec2, Vec3};
    use patu_raster::{Camera, Mesh};
    use patu_texture::Rgba8;

    fn scene() -> FrameScene {
        let mesh = Mesh::quad(
            [
                Vec3::new(-4.0, -4.0, -10.0),
                Vec3::new(4.0, -4.0, -10.0),
                Vec3::new(4.0, 4.0, -10.0),
                Vec3::new(-4.0, 4.0, -10.0),
            ],
            Vec2::new(1.0, 1.0),
            0,
        );
        FrameScene {
            meshes: vec![mesh],
            camera: Camera::new(
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(0.0, 0.0, -10.0),
                1.0,
                4.0 / 3.0,
            ),
        }
    }

    fn image(w: u32, h: u32, v: u8) -> Framebuffer {
        Framebuffer::new(w, h, Rgba8::rgb(v, v, v))
    }

    fn all_fresh(plan: &FramePlan) -> Vec<TileDecision> {
        let n = (plan.tiles_x() * plan.tiles_y()) as usize;
        (0..n)
            .map(|i| TileDecision::new(i as u64, 0, 4000))
            .collect()
    }

    #[test]
    fn decisions_compare_by_fields() {
        let a = TileDecision::new(10, 3, 4000);
        let b = TileDecision::new(10, 3, 4000);
        let c = TileDecision::new(10, 4, 4000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn first_frame_rerenders_then_static_scene_reuses() {
        let mut store = TileStore::new(TemporalConfig::for_mode(TemporalMode::On));
        assert!(store.prev_image().is_none());
        let s = scene();
        let plan = store.plan(&s, 128, 96, 16);
        assert!(!plan.any_reused(), "cold store has nothing to reuse");
        let fresh = all_fresh(&plan);
        store.commit(s.clone(), image(128, 96, 7), 16, &plan, &fresh);
        assert!(store.prev_image().is_some());

        let plan2 = store.plan(&s, 128, 96, 16);
        let (reused, _, rerendered) = plan2.counts();
        assert_eq!(rerendered, 0);
        assert!(reused > 0);
        // Reused tiles keep the decision summaries from the rendered frame.
        store.commit(
            s.clone(),
            image(128, 96, 7),
            16,
            &plan2,
            &vec![TileDecision::default(); fresh.len()],
        );
        assert_eq!(store.decision(0, 0), Some(fresh[0]));
        assert_eq!(store.prev_image().unwrap().get(3, 3).r, 7);
    }

    #[test]
    fn resolution_change_and_reset_invalidate() {
        let mut store = TileStore::new(TemporalConfig::for_mode(TemporalMode::On));
        let s = scene();
        let plan = store.plan(&s, 128, 96, 16);
        let fresh = all_fresh(&plan);
        store.commit(s.clone(), image(128, 96, 0), 16, &plan, &fresh);
        assert!(!store.plan(&s, 256, 192, 16).any_reused());
        assert!(!store.plan(&s, 128, 96, 8).any_reused());
        store.reset();
        assert!(store.prev_image().is_none());
        assert!(!store.plan(&s, 128, 96, 16).any_reused());
    }

    #[test]
    fn ages_advance_until_the_store_forces_refresh() {
        let cfg = TemporalConfig::for_mode(TemporalMode::On);
        let mut store = TileStore::new(cfg);
        let s = scene();
        let mut saw_repredict = false;
        let mut saw_rerender_again = false;
        for _ in 0..(cfg.max_age as usize + 2) {
            let plan = store.plan(&s, 128, 96, 16);
            let (_, repredicted, rerendered) = plan.counts();
            if store.prev_image().is_some() {
                saw_repredict |= repredicted > 0;
                saw_rerender_again |= rerendered > 0;
            }
            let fresh = all_fresh(&plan);
            store.commit(s.clone(), image(128, 96, 1), 16, &plan, &fresh);
        }
        assert!(saw_repredict, "half-life must trigger repredicts");
        assert!(saw_rerender_again, "max age must trigger rerenders");
    }
}
