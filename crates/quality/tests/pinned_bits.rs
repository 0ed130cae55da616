//! Bit-exactness guard: the full MSSIM and the sampled estimate of two
//! synthetic gradient pairs, and the full MSSIM of two frame-sized pairs,
//! pinned to the `f32` bits the metric has always produced.
//!
//! The first pair is a mild gain and bias (MSSIM ≈ 0.996). In the second,
//! the test image is the reference ramp scaled by `−C2 / (2 σ²)`, so every
//! window's `2 σxy + C2` cancels to a residue near zero and its SSIM
//! (|SSIM| < 10⁻⁶) carries the rounding of the covariance path and of C2
//! itself. Changing a constant, the `f64` → `f32` cast of a window, or
//! either scan's reduction moves these bits; an `f64` reassociation whose
//! error stays below a window's `f32` rounding cannot. The frame-sized
//! pairs (640×512 and an odd 633×419) catch what the small ones miss: the
//! running sums round over hundreds of rows, and the mean folds ~300k
//! window values in row-major order.

use patu_quality::{GrayImage, SampledSsimConfig, SsimConfig};

fn gradient(width: u32, height: u32) -> GrayImage {
    let data = (0..height)
        .flat_map(|y| (0..width).map(move |x| ((x * 7 + y * 13) % 256) as f32))
        .collect();
    GrayImage::new(width, height, data)
}

/// A non-wrapping ramp with non-integer samples; every 8×8 window has
/// variance ≈ 49.2686.
fn ramp(width: u32, height: u32) -> GrayImage {
    let data = (0..height)
        .flat_map(|y| (0..width).map(move |x| (x + 2 * y) as f32 * 1.37 + 0.11))
        .collect();
    GrayImage::new(width, height, data)
}

fn remap(img: &GrayImage, gain: f32, bias: f32) -> GrayImage {
    let data = img.samples().iter().map(|v| v * gain + bias).collect();
    GrayImage::new(img.width(), img.height(), data)
}

#[test]
fn mssim_and_sampled_estimate_keep_their_bits() {
    // (reference, test, full MSSIM bits, sampled bits at seeds 7 and 99)
    let pairs = [
        (
            gradient(48, 40),
            remap(&gradient(48, 40), 0.92, 5.0),
            0x3f7e_eb6e_u32,
            [0x3f7e_e917_u32, 0x3f7e_fa2c],
        ),
        (
            ramp(64, 48),
            remap(&ramp(64, 48), -0.593_912_36, 220.0),
            0xb01d_8ac1,
            [0x322b_bfe5, 0xb11f_8ff2],
        ),
    ];
    for (i, (a, b, full, sampled)) in pairs.iter().enumerate() {
        let got = SsimConfig::default().with_threads(1).mssim(a, b);
        assert_eq!(got.to_bits(), *full, "pair {i}: full MSSIM {got:e}");
        for (seed, bits) in [7, 99].into_iter().zip(sampled) {
            let est = SampledSsimConfig::new(seed).mssim_sampled(a, b);
            assert_eq!(
                est.to_bits(),
                *bits,
                "pair {i} seed {seed}: estimate {est:e}"
            );
        }
    }
}

/// A frame-sized reference with non-integer samples: a wrapping ramp with
/// an xor-pattern texture, so window statistics vary across the frame.
fn textured(width: u32, height: u32) -> GrayImage {
    let data = (0..height)
        .flat_map(|y| {
            (0..width).map(move |x| {
                ((x * 37 + y * 91) % 251) as f32 * 0.87 + ((x ^ y) % 7) as f32 * 0.31 + 0.13
            })
        })
        .collect();
    GrayImage::new(width, height, data)
}

/// `img` under a gain and bias plus a position-dependent perturbation, the
/// shape of a filtering difference that varies over the frame.
fn perturbed(img: &GrayImage) -> GrayImage {
    let w = img.width() as usize;
    let data = img
        .samples()
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let (x, y) = (i % w, i / w);
            v * 0.93 + 4.1 + ((x * x + 3 * y) % 17) as f32 * 3.1
        })
        .collect();
    GrayImage::new(img.width(), img.height(), data)
}

#[test]
fn full_mssim_keeps_its_bits_at_frame_sizes() {
    // A frame-sized pair and an odd-sized one: rounding of the running
    // sums accumulates over hundreds of rows, and the odd width and
    // height leave no row or column a multiple of the window.
    for (w, h, bits) in [(640, 512, 0x3f73_df54_u32), (633, 419, 0x3f73_ea60)] {
        let a = textured(w, h);
        let b = perturbed(&a);
        let got = SsimConfig::default().with_threads(1).mssim(&a, &b);
        assert_eq!(got.to_bits(), bits, "{w}x{h}: full MSSIM {got:e}");
    }
}
