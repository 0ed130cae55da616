//! Ablation: how well the runtime predictors track the oracle similarity.
//!
//! For every anisotropic pixel we compute the *true* per-pixel AF-SSIM from
//! the actually-filtered AF and TF colors (Eq. 4–5) and compare the oracle's
//! approximate/keep verdict at θ = 0.4 against each runtime predictor's.

use patu_bench::{pct, Knobs, RunOptions};
use patu_core::{
    af_ssim_n, af_ssim_txds, oracle_af_ssim, txds, FilterPolicy, PerceptionAwareTextureUnit,
    PredictionAccuracy, TexelAddressTable,
};
use patu_raster::Pipeline;
use patu_scenes::{default_specs, Workload};
use patu_texture::{
    sample_anisotropic, sample_trilinear_record, sampler::bilinear_addresses, AddressMode,
    Footprint, MAX_ANISO,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // No knob changes what this binary computes; malformed ones still fail.
    Knobs::from_env()?;
    let opts = RunOptions::from_args()?;
    let theta = 0.4;
    println!(
        "ABLATION: predictor accuracy vs oracle at θ={theta} ({})",
        opts.profile_banner()
    );
    println!(
        "\n{:<16} {:>10} | {:>8} {:>9} {:>8} | {:>8} {:>9} {:>8}",
        "game", "pixels", "N acc", "N prec", "N rec", "2st acc", "2st prec", "2st rec"
    );

    let mut total_n = PredictionAccuracy::new();
    let mut total_flow = PredictionAccuracy::new();
    for spec in default_specs() {
        let res = opts.resolution(&spec);
        let workload = Workload::build(spec.name, res)?;
        let scene = workload.frame(0);
        let geometry = Pipeline::new(res.0, res.1).run(&scene.meshes, &scene.camera);

        let mut acc_n = PredictionAccuracy::new();
        let mut acc_flow = PredictionAccuracy::new();
        let mut table = TexelAddressTable::new();
        let mut patu = PerceptionAwareTextureUnit::new(FilterPolicy::Patu { threshold: theta });
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
            let flow_approx = if n_approx {
                true
            } else {
                table.reset();
                let tf_level = fp.tf_lod.floor() as u32;
                for tap in &af.taps {
                    table.insert(&bilinear_addresses(tex, tap.uv, tf_level, mode));
                }
                af_ssim_txds(txds(&table.probability_vector(), fp.n)) > theta
            };
            acc_flow.record(flow_approx, oracle_approx);

            // Keep the PATU unit exercised so its stats stay comparable.
            let _ = patu.filter(tex, frag.uv, &fp, mode);
        }

        println!(
            "{:<16} {:>10} | {:>8} {:>9} {:>8} | {:>8} {:>9} {:>8}",
            spec.label(),
            acc_n.total(),
            pct(acc_n.accuracy()),
            pct(acc_n.precision()),
            pct(acc_n.recall()),
            pct(acc_flow.accuracy()),
            pct(acc_flow.precision()),
            pct(acc_flow.recall()),
        );
        total_n.accumulate(&acc_n);
        total_flow.accumulate(&acc_flow);
    }

    println!(
        "\nMEAN: sample-area acc {} prec {} rec {} | two-stage acc {} prec {} rec {}",
        pct(total_n.accuracy()),
        pct(total_n.precision()),
        pct(total_n.recall()),
        pct(total_flow.accuracy()),
        pct(total_flow.precision()),
        pct(total_flow.recall()),
    );
    println!(
        "Recall is the captured speedup opportunity; precision is quality safety. \
         The distribution stage exists to recover the recall the conservative \
         sample-area check leaves behind (Sec. IV-C(B))."
    );
    Ok(())
}
