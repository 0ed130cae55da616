//! Ablations beyond the paper's figures, calibration diagnostics, and scene
//! snapshots.

use super::{write_file, Ctx, Report};
use crate::pct;
use patu_core::{
    af_ssim_n, af_ssim_txds, oracle_af_ssim, txds, FilterPolicy, PredictionAccuracy,
    TexelAddressTable,
};
use patu_gpu::{GpuConfig, TemporalCounts};
use patu_obs::Table;
use patu_raster::{Pipeline, TraversalOrder};
use patu_scenes::Workload;
use patu_sim::experiment::{best_point, temporal_stability};
use patu_sim::render::{render_frame, render_policies, render_sequence, FrameResult};
use patu_temporal::{TemporalConfig, TemporalMode, TileStore};
use patu_texture::{
    sample_anisotropic, sample_trilinear_record, sampler::bilinear_addresses, AddressMode,
    Footprint, MAX_ANISO,
};
use std::fmt::Write;

/// Texel-address hash-table capacity (4 / 8 / 16 / 32 entries). The paper
/// fixes the table at 16 entries (the max AF level); a smaller table
/// overflows when a pixel's taps hit many distinct texel sets, truncating
/// the probability vector and biasing Txds.
pub(super) fn table(ctx: &Ctx, out: &mut String) -> Report {
    ctx.title(out, "ABLATION: hash-table capacity vs stage-2 behavior")?;
    writeln!(
        out,
        "\n  entries       cycles  stage2 approx        kept AF  approx frac"
    )?;
    for capacity in [4usize, 8, 16, 32] {
        let (mut cycles, mut stage2, mut kept, mut frac) = (0u64, 0u64, 0u64, 0.0f64);
        let games = ctx.games()?;
        for game in games {
            let cfg = ctx
                .knobs
                .render(FilterPolicy::Patu { threshold: 0.4 })
                .with_hash_table_capacity(capacity);
            let r = render_frame(&game.workload, 0, &cfg)?;
            cycles += r.stats.cycles;
            stage2 += r.approx.stage2_approx;
            kept += r.approx.kept_af;
            frac += r.approx.approximated_fraction();
        }
        let frac = pct(frac / games.len() as f64);
        writeln!(
            out,
            "{capacity:>9} {cycles:>12} {stage2:>14} {kept:>14} {frac:>12}"
        )?;
    }
    writeln!(
        out,
        "\nThe paper's 16-entry table matches the max AF level, so well-formed \
         requests never overflow; capacities below the common tap count lose \
         stage-2 approvals (overflowed probability vectors under-estimate Txds)."
    )?;
    Ok(())
}

/// Maximum AF level (2× / 4× / 8× / 16×) on the baseline, against PATU.
/// Lower caps are the conventional knob PATU competes with: they shrink
/// every pixel's sample budget, whereas PATU removes work only where it is
/// not perceivable.
pub(super) fn maxaniso(ctx: &Ctx, out: &mut String) -> Report {
    ctx.title(out, "ABLATION: max AF level vs PATU")?;
    let workload = &ctx.game("grid")?.workload;
    // Reference: full 16x AF.
    let reference = render_frame(workload, 0, &ctx.knobs.render(FilterPolicy::Baseline))?;
    let ref_luma = reference.luma();
    let ssim = ctx.knobs.ssim();
    writeln!(
        out,
        "\nconfiguration                cycles   speedup    MSSIM"
    )?;
    let mut row = |label: &str, cycles: u64, mssim: f64| {
        let speedup = reference.stats.cycles as f64 / cycles as f64;
        writeln!(out, "{label:<22} {cycles:>12} {speedup:>8.3}x {mssim:>8.3}")
    };
    for max_aniso in [2u32, 4, 8, 16] {
        let gpu = GpuConfig {
            max_aniso,
            ..GpuConfig::default()
        };
        let cfg = ctx.knobs.render(FilterPolicy::Baseline).with_gpu(gpu);
        let r = render_frame(workload, 0, &cfg)?;
        let mssim = if max_aniso == 16 {
            1.0
        } else {
            f64::from(ssim.mssim(&ref_luma, &r.luma()))
        };
        row(&format!("{max_aniso}x AF cap"), r.stats.cycles, mssim)?;
    }
    let patu_cfg = ctx.knobs.render(FilterPolicy::Patu { threshold: 0.4 });
    let patu = render_frame(workload, 0, &patu_cfg)?;
    let mssim = f64::from(ssim.mssim(&ref_luma, &patu.luma()));
    row("PATU θ=0.4 (16x cap)", patu.stats.cycles, mssim)?;
    writeln!(
        out,
        "\nLowering the AF cap trades quality uniformly; PATU reaches similar \
         speedups while only touching pixels its predictor marks non-perceivable \
         (Sec. II: 'reducing its sampling size can seriously hurt user experience')."
    )?;
    Ok(())
}

/// Per-game Best-Point thresholds vs the unified θ = 0.4. Sec. IV-C(C)
/// uses one unified threshold (and the evaluation one average BP across
/// games); this quantifies what a per-game tuned threshold would add.
pub(super) fn bp(ctx: &Ctx, out: &mut String) -> Report {
    ctx.title(out, "ABLATION: per-game BP vs unified threshold")?;
    let unified = 0.4;
    writeln!(
        out,
        "\ngame                 BP      metric @ BP       metric @ 0.4     gain"
    )?;
    let (mut sum_bp, mut sum_uni) = (0.0f64, 0.0f64);
    let games = ctx.games()?;
    for game in games {
        let (baseline, sweep) = game.theta_sweep();
        let bp = best_point(&baseline, &sweep);
        let at = |t: f64| {
            sweep
                .iter()
                .find(|(x, _)| (*x - t).abs() < 1e-9)
                .map(|(_, r)| r.tuning_metric(&baseline))
                .expect("threshold in sweep")
        };
        let m_bp = at(bp);
        let m_uni = at(unified);
        writeln!(
            out,
            "{:<16} {:>6.1} {:>16.3} {:>18.3} {:>7.1}%",
            game.spec.label(),
            bp,
            m_bp,
            m_uni,
            (m_bp / m_uni - 1.0) * 100.0
        )?;
        sum_bp += m_bp;
        sum_uni += m_uni;
    }
    let games = games.len() as f64;
    writeln!(
        out,
        "\nmean speedup*MSSIM: per-game BP {:.3} vs unified θ={unified} {:.3} ({:+.1}%)",
        sum_bp / games,
        sum_uni / games,
        (sum_bp / sum_uni - 1.0) * 100.0
    )?;
    writeln!(
        out,
        "The unified threshold gives up only a small fraction of the per-game \
         optimum — supporting the paper's single-knob design (Sec. IV-C(C))."
    )?;
    Ok(())
}

/// How well the runtime predictors track the oracle similarity. For every
/// anisotropic pixel, the *true* per-pixel AF-SSIM from the filtered AF and
/// TF colors (Eq. 4–5) gives the oracle's approximate/keep verdict at
/// θ = 0.4, which each runtime predictor's verdict is scored against.
pub(super) fn oracle(ctx: &Ctx, out: &mut String) -> Report {
    let theta = 0.4;
    ctx.title(
        out,
        &format!("ABLATION: predictor accuracy vs oracle at θ={theta}"),
    )?;
    writeln!(
        out,
        "\ngame                 pixels |    N acc    N prec    N rec |  2st acc  2st prec  2st rec"
    )?;
    let scores =
        |acc: &PredictionAccuracy| [acc.accuracy(), acc.precision(), acc.recall()].map(pct);
    let mut total_n = PredictionAccuracy::new();
    let mut total_flow = PredictionAccuracy::new();
    for game in ctx.games()? {
        let res = ctx.opts.resolution(&game.spec);
        let workload = &game.workload;
        let scene = workload.frame(0);
        let geometry = Pipeline::new(res.0, res.1).run(&scene.meshes, &scene.camera);

        let mut acc_n = PredictionAccuracy::new();
        let mut acc_flow = PredictionAccuracy::new();
        let mut table = TexelAddressTable::new();
        let mode = AddressMode::Wrap;
        for frag in geometry.fragments() {
            let tex = &workload.textures()[frag.material];
            let fp = Footprint::from_derivatives(
                frag.duv_dx,
                frag.duv_dy,
                tex.width(),
                tex.height(),
                MAX_ANISO,
            );
            if fp.n < 2 {
                continue; // isotropic pixels are trivially approximable
            }
            // Oracle: filter both ways and compare the colors.
            let af = sample_anisotropic(tex, frag.uv, &fp, mode);
            let tf = sample_trilinear_record(tex, frag.uv, fp.tf_lod, mode);
            let oracle_approx = oracle_af_ssim(af.color, tf.color) > theta;

            // Predictor 1: sample-area only.
            let n_approx = af_ssim_n(fp.n) > theta;
            acc_n.record(n_approx, oracle_approx);

            // Predictor 2: the full two-stage flow (stage 1 + Txds).
            let flow_approx = n_approx || {
                table.reset();
                let tf_level = fp.tf_lod.floor() as u32;
                for tap in &af.taps {
                    table.insert(&bilinear_addresses(tex, tap.uv, tf_level, mode));
                }
                af_ssim_txds(txds(&table.probability_vector(), fp.n)) > theta
            };
            acc_flow.record(flow_approx, oracle_approx);
        }
        let ([a, b, c], [d, e, f]) = (scores(&acc_n), scores(&acc_flow));
        writeln!(
            out,
            "{:<16} {:>10} | {a:>8} {b:>9} {c:>8} | {d:>8} {e:>9} {f:>8}",
            game.spec.label(),
            acc_n.total()
        )?;
        total_n.accumulate(&acc_n);
        total_flow.accumulate(&acc_flow);
    }
    let ([a, b, c], [d, e, f]) = (scores(&total_n), scores(&total_flow));
    writeln!(
        out,
        "\nMEAN: sample-area acc {a} prec {b} rec {c} | two-stage acc {d} prec {e} rec {f}"
    )?;
    writeln!(
        out,
        "Recall is the captured speedup opportunity; precision is quality safety. \
         The distribution stage exists to recover the recall the conservative \
         sample-area check leaves behind (Sec. IV-C(B))."
    )?;
    Ok(())
}

/// Intra-tile fragment traversal order (row-major vs Morton) and its effect
/// on texture-cache locality under full 16×AF.
pub(super) fn traversal(ctx: &Ctx, out: &mut String) -> Report {
    ctx.title(out, "ABLATION: fragment traversal order")?;
    writeln!(
        out,
        "\ngame                cycles row cycles morton    L1 misses row   L1 misses mort"
    )?;
    let (mut rows, mut morts) = (0u64, 0u64);
    for game in ctx.games()? {
        let cfg = ctx.knobs.render(FilterPolicy::Baseline);
        let row = render_frame(&game.workload, 0, &cfg)?;
        let mort = render_frame(
            &game.workload,
            0,
            &cfg.with_traversal(TraversalOrder::Morton),
        )?;
        writeln!(
            out,
            "{:<16} {:>13} {:>13} {:>16} {:>16}",
            game.spec.label(),
            row.stats.cycles,
            mort.stats.cycles,
            row.stats.events.l1_misses,
            mort.stats.events.l1_misses
        )?;
        rows += row.stats.cycles;
        morts += mort.stats.cycles;
    }
    writeln!(
        out,
        "\ntotal cycles: row-major {rows} vs morton {morts} ({:+.2}%)",
        (morts as f64 / rows as f64 - 1.0) * 100.0
    )?;
    writeln!(
        out,
        "Traversal order is orthogonal to PATU; both are locality plays on the \
         same texture hierarchy (compare with Fig. 21's cache-scaling study)."
    )?;
    writeln!(
        out,
        "Morton's extra L1 misses are mostly set conflicts: texels are row-major per \
         mip and every texture is 256 texels (1 KB) wide, so a 16-texel column band \
         maps to 1/16 of the 16 KB L1 whether it has 4 or 16 ways, and Z-order stacks \
         more texture rows per band than a row-major scan. A fully associative 16 KB \
         L1 cuts hl2's Morton miss excess from +134% to +29% (EXPERIMENTS.md)."
    )?;
    Ok(())
}

/// Temporal stability under approximation: the mean SSIM between
/// consecutive frames of one run. Per-frame MSSIM against the baseline
/// cannot see flicker; a policy whose inter-frame SSIM tracks the
/// baseline's adds no temporal noise on top of the camera motion. Each
/// frame renders once, every policy in one traversal.
pub(super) fn temporal(ctx: &Ctx, out: &mut String) -> Report {
    ctx.title(out, "ABLATION: temporal stability (consecutive-frame SSIM)")?;
    // Consecutive frame indices: the camera moves a small step between them.
    let frames: Vec<u32> = (0..6).collect();
    let cfg = ctx.cfg();
    let base_rc = cfg.render_config(FilterPolicy::Baseline);
    let policies = [
        FilterPolicy::Baseline,
        FilterPolicy::Patu { threshold: 0.4 },
        FilterPolicy::Patu { threshold: 0.1 },
        FilterPolicy::NoAf,
    ];
    writeln!(
        out,
        "\ngame           baseline   PATU@0.4   PATU@0.1      no AF"
    )?;
    for name in ["doom3", "grid", "stal"] {
        let workload = &ctx.game(name)?.workload;
        let mut lumas = vec![Vec::new(); policies.len()];
        for &frame in &frames {
            let rendered = render_policies(workload, frame, &base_rc, &policies)?;
            for (series, result) in lumas.iter_mut().zip(&rendered) {
                series.push(result.luma());
            }
        }
        let row = lumas
            .iter()
            .map(|series| temporal_stability(series))
            .collect::<Result<Vec<f64>, _>>()?;
        writeln!(
            out,
            "{:<12} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            name, row[0], row[1], row[2], row[3]
        )?;
    }
    writeln!(
        out,
        "\nInter-frame SSIM is dominated by camera motion; a policy whose column \
         tracks the baseline adds no flicker of its own. Large drops relative to \
         the baseline column would indicate frame-to-frame decision instability."
    )?;

    // Reuse ablation: the same consecutive-frame stability measured through
    // the temporal tile store on the slow-camera sequence presets. A
    // blitted tile equals its predecessor, but SSIM windows that straddle a
    // reused and a rerendered tile compare stale pixels beside fresh ones,
    // so `on` is not bounded below by `off`. The fast profile reads orbit
    // 0.9996 off vs 0.9999 on (80% of tiles reused) and dolly 0.9975 off vs
    // 0.9973 on (29% reused): reuse adds stability where it covers most of
    // the frame and can cost a little where it covers less.
    writeln!(
        out,
        "\nreuse ablation (sequence presets, PATU@0.4, temporal off vs on):"
    )?;
    writeln!(out, "preset                off           on   reused")?;
    let rc = cfg.render_config(FilterPolicy::Patu { threshold: 0.4 });
    for spec in patu_scenes::sequence_specs() {
        let workload = Workload::build(spec.name, ctx.opts.resolution(&spec))?;
        // Stability and the fraction of tiles the store kept: reused tiles
        // are stable by construction, so the pair separates "stable because
        // unchanged" from "stable despite rerendering".
        let stability = |mode| -> Result<(f64, f64), Box<dyn std::error::Error>> {
            let mut store = TileStore::new(mode);
            let results = render_sequence(&workload, &frames, &rc, &mut store)?;
            let lumas: Vec<_> = results.iter().map(FrameResult::luma).collect();
            let mut tiles = TemporalCounts::default();
            for r in &results {
                tiles.accumulate(&r.stats.temporal);
            }
            Ok((temporal_stability(&lumas)?, tiles.reuse_fraction()))
        };
        let (off, _) = stability(TemporalConfig::off())?;
        let (on, reused) = stability(TemporalConfig::for_mode(TemporalMode::On))?;
        writeln!(
            out,
            "{:<12} {:>12.4} {:>12.4} {:>7.0}%",
            spec.name,
            off,
            on,
            reused * 100.0
        )?;
    }
    Ok(())
}

/// Calibration diagnostic: per-game mean AF tap count, cycles with AF
/// on/off, filtering latency (mean and tail), L2 miss rate, texture traffic
/// share, and the AF-off texel ratio — the quantities DESIGN.md §5b/§5c
/// calibrate against — at fixed resolutions, whatever the profile. For
/// doom3, grid and stal it then adds the SSIM-bucket histogram of the AF-on
/// vs AF-off index map and the anisotropy (N) distribution across
/// fragments. One traversal per game renders both policies.
pub(super) fn diag(ctx: &Ctx, out: &mut String) -> Report {
    let mut table = Table::new(&[
        "game",
        "N_avg",
        "base cycles",
        "noaf cycles",
        "ratio",
        "lat mean",
        "lat p95",
        "lat p99",
        "l2miss",
        "texfrac",
        "texel ratio",
    ]);
    let mut buckets = String::new();
    let cfg = ctx.knobs.render(FilterPolicy::Baseline);
    for name in ["hl2", "doom3", "grid", "nfs", "stal", "ut3", "wolf"] {
        let res = if name == "wolf" {
            (320, 240)
        } else {
            (640, 512)
        };
        let w = Workload::build(name, res)?;
        let frames = render_policies(&w, 0, &cfg, &[FilterPolicy::Baseline, FilterPolicy::NoAf])?;
        let (base, noaf) = (&frames[0], &frames[1]);
        let (b, e) = (&base.stats, &base.stats.events);
        let ratio = |x: u64, y: u64| x as f64 / y as f64;
        table.row(&[
            name.to_string(),
            format!("{:.2}", ratio(e.trilinear_ops, b.filter_requests)),
            b.cycles.to_string(),
            noaf.stats.cycles.to_string(),
            format!("{:.2}x", ratio(b.cycles, noaf.stats.cycles)),
            format!("{:.0}", b.mean_filter_latency()),
            b.filter_latency_p95().to_string(),
            b.filter_latency_p99().to_string(),
            format!("{:.2}", ratio(e.l2_misses, e.l2_accesses.max(1))),
            format!("{:.2}", b.bandwidth.texture_fraction()),
            format!(
                "{:.2}",
                ratio(noaf.stats.events.texel_fetches, e.texel_fetches)
            ),
        ]);
        if ["doom3", "grid", "stal"].contains(&name) {
            write_buckets(ctx, &mut buckets, &w, base, noaf)?;
        }
    }
    out.push_str(&table.render());
    out.push_str(&buckets);
    Ok(())
}

/// `diag`'s per-game SSIM-bucket histogram of the AF-on vs AF-off index
/// map and the anisotropy (N) distribution of frame 0's fragments.
fn write_buckets(
    ctx: &Ctx,
    out: &mut String,
    w: &Workload,
    on: &FrameResult,
    off: &FrameResult,
) -> Report {
    let map = ctx.knobs.ssim().ssim_map(&on.luma(), &off.luma());
    let mut lows = [0u64; 5];
    for &v in map.values() {
        lows[(v.clamp(0.0, 0.999) * 5.0) as usize] += 1;
    }
    let frame = w.frame(0);
    let (width, height) = w.resolution();
    let geometry = Pipeline::new(width, height).run(&frame.meshes, &frame.camera);
    let mut nbins = [0u64; 5];
    let mut total = 0u64;
    for f in geometry.fragments() {
        let t = &w.textures()[f.material];
        let fp = Footprint::from_derivatives(f.duv_dx, f.duv_dy, t.width(), t.height(), MAX_ANISO);
        let b = match fp.n {
            1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            _ => 4,
        };
        nbins[b] += 1;
        total += 1;
    }
    writeln!(out, "{}: MSSIM {:.3}", w.name(), map.mean())?;
    writeln!(
        out,
        "  ssim buckets [0-.2,.2-.4,.4-.6,.6-.8,.8-1]: {:?} (of {})",
        lows,
        map.values().len()
    )?;
    writeln!(
        out,
        "  N buckets [1,2,3-4,5-8,9-16]: {:?} pct {:?}",
        nbins,
        nbins.iter().map(|&b| 100 * b / total).collect::<Vec<_>>()
    )?;
    Ok(())
}

/// Renders one frame of every workload to `out/scene_<name>.ppm` for visual
/// inspection of the synthetic Table II stand-ins.
pub(super) fn render_scenes(ctx: &Ctx, out: &mut String) -> Report {
    let res = if ctx.opts.full {
        (1280, 1024)
    } else {
        (640, 512)
    };
    for name in [
        "hl2", "doom3", "grid", "nfs", "stal", "ut3", "wolf", "rbench",
    ] {
        let workload = Workload::build(name, res)?;
        let frame = render_frame(&workload, 0, &ctx.knobs.render(FilterPolicy::Baseline))?;
        let path = format!("out/scene_{name}.ppm");
        write_file(&path, |b| frame.image.write_ppm(b))?;
        writeln!(
            out,
            "{path}: {}x{} | {} fragments | texture share {:.0}%",
            res.0,
            res.1,
            frame.stats.filter_requests,
            frame.stats.bandwidth.texture_fraction() * 100.0
        )?;
    }
    Ok(())
}
