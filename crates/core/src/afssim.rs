//! The AF-SSIM formulas: Eq. (5), (6), (8), (9) and (10) of the paper.

use std::sync::LazyLock;

/// The SSIM stabilization constant `C1 = (K1 · L)²` normalized to unit
/// dynamic range (`K1 = 0.01`, `L = 1`), as used in the reduced Eq. (5).
pub const C1: f64 = 0.0001;

/// Eq. (5): AF-SSIM as a function of the similarity degree `μ∇ = Y / X`.
///
/// `AF_SSIM(μ) = ((2μ + C1) / (μ² + 1 + C1))²`, maximal (≈1) at `μ = 1`
/// (AF and TF colors equal) and decreasing as they diverge.
///
/// ```
/// use patu_core::af_ssim_mu;
/// assert!((af_ssim_mu(1.0) - 1.0).abs() < 1e-3);
/// assert!(af_ssim_mu(3.0) < af_ssim_mu(1.5));
/// ```
pub fn af_ssim_mu(mu: f64) -> f64 {
    let num = 2.0 * mu + C1;
    let den = mu * mu + 1.0 + C1;
    (num / den).powi(2)
}

/// Eq. (6): sample-area based prediction — the AF sample size `N` replaces
/// `μ∇`: `AF_SSIM(N) = (2N / (N² + 1))²` for `1 ≤ N ≤ 16`.
///
/// `N = 1` (isotropic footprint) predicts perfect similarity; larger `N`
/// (more eccentric footprints) predicts growing perceptual difference.
///
/// # Panics
///
/// Panics if `n` is outside `1..=16` (the paper's Eq. 6 domain). Use
/// [`try_af_ssim_n`] for a non-panicking variant.
pub fn af_ssim_n(n: u32) -> f64 {
    assert!(
        (1..=16).contains(&n),
        "sample size N must be in 1..=16, got {n}"
    );
    let nf = f64::from(n);
    (2.0 * nf / (nf * nf + 1.0)).powi(2)
}

/// Like [`af_ssim_n`] but reports an out-of-domain `N` as a typed error
/// instead of panicking.
pub fn try_af_ssim_n(n: u32) -> Result<f64, crate::PatuError> {
    if !(1..=16).contains(&n) {
        return Err(crate::PatuError::InvalidSampleSize { n });
    }
    Ok(af_ssim_n(n))
}

/// Eq. (8): Shannon entropy of a probability vector (bits).
///
/// Zero-probability events contribute nothing. Returns 0 for an empty or
/// single-certain-event vector and `log2(M)` for a uniform distribution over
/// `M` events.
///
/// ```
/// use patu_core::entropy;
/// assert_eq!(entropy(&[1.0]), 0.0);
/// assert!((entropy(&[0.5, 0.5]) - 1.0).abs() < 1e-12);
/// ```
pub fn entropy(p: &[f64]) -> f64 {
    entropy_of(p.iter().copied())
}

/// [`entropy`] over probabilities streamed in order.
fn entropy_of(p: impl Iterator<Item = f64>) -> f64 {
    p.filter(|&pi| pi > 0.0).map(entropy_term).sum()
}

/// One event's share of the entropy, `-p·log2(p)`.
#[inline]
fn entropy_term(p: f64) -> f64 {
    -p * p.log2()
}

/// Totals up to which entropy terms and `log2(N)` are read from
/// [`TABLES`]: one pixel streams at most 16 AF taps.
const TABULATED: usize = 16;

/// Entropy terms and sample-size norms, computed once by the same
/// expressions as the formulas, so a table entry is bit-equal to what the
/// formula would return.
struct Tables {
    /// `terms[total][count]` = `entropy_term(count / total)`.
    terms: [[f64; TABULATED + 1]; TABULATED + 1],
    /// `log2[n]` = `log2(n)`.
    log2: [f64; TABULATED + 1],
}

static TABLES: LazyLock<Tables> = LazyLock::new(|| {
    let mut terms = [[0.0; TABULATED + 1]; TABULATED + 1];
    for (total, row) in terms.iter_mut().enumerate().skip(1) {
        for (count, term) in row.iter_mut().enumerate().take(total + 1).skip(1) {
            *term = entropy_term(count as f64 / total as f64);
        }
    }
    Tables {
        terms,
        log2: std::array::from_fn(|n| (n as f64).log2()),
    }
});

/// [`entropy`] of the distribution `counts / total`, for callers that hold
/// counts rather than a probability vector: the same terms summed in the
/// same order, read from a table for totals up to 16. Every count must be
/// at most `total`, and `total` positive.
pub(crate) fn entropy_of_counts(counts: impl Iterator<Item = u64>, total: u64) -> f64 {
    match TABLES.terms.get(total as usize) {
        Some(row) => counts.filter(|&c| c > 0).map(|c| row[c as usize]).sum(),
        None => entropy_of(counts.map(|c| c as f64 / total as f64)),
    }
}

/// Eq. (9): texel distribution similarity,
/// `Txds(P, N) = 1 − Entropy(P) / log2(N)`, clamped into `[0, 1]`.
///
/// `Txds → 1` when AF's trilinear taps concentrate on few shared texel sets
/// (AF unnecessary); `Txds → 0` when every tap touches distinct texels (AF
/// needed). `N = 1` is defined as perfect similarity (there is nothing to
/// distribute).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn txds(p: &[f64], n: u32) -> f64 {
    txds_from_entropy(entropy(p), n)
}

/// [`txds`] of a distribution whose [`entropy`] is already known.
///
/// # Panics
///
/// Panics if `n == 0`.
pub(crate) fn txds_from_entropy(entropy: f64, n: u32) -> f64 {
    assert!(n >= 1, "sample size must be at least 1");
    if n == 1 {
        return 1.0;
    }
    let norm = match TABLES.log2.get(n as usize) {
        Some(&norm) => norm,
        None => f64::from(n).log2(),
    };
    (1.0 - entropy / norm).clamp(0.0, 1.0)
}

/// Eq. (10): distribution based prediction —
/// `AF_SSIM(Txds) = (2·Txds / (Txds² + 1))²`.
///
/// # Panics
///
/// Panics in debug builds if `txds_value` is outside `[0, 1]`.
pub fn af_ssim_txds(txds_value: f64) -> f64 {
    debug_assert!(
        (0.0..=1.0).contains(&txds_value),
        "Txds must be in [0, 1], got {txds_value}"
    );
    (2.0 * txds_value / (txds_value * txds_value + 1.0)).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mu_one_is_near_perfect() {
        assert!((af_ssim_mu(1.0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn mu_curve_symmetric_under_reciprocal() {
        // SSIM(X, Y) = SSIM(Y, X): μ and 1/μ score (nearly) the same.
        let a = af_ssim_mu(2.0);
        let b = af_ssim_mu(0.5);
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn mu_decreases_away_from_one() {
        assert!(af_ssim_mu(1.0) > af_ssim_mu(1.5));
        assert!(af_ssim_mu(1.5) > af_ssim_mu(3.0));
        assert!(af_ssim_mu(3.0) > af_ssim_mu(10.0));
    }

    #[test]
    fn mu_zero_is_worst() {
        assert!(af_ssim_mu(0.0) < 1e-4);
    }

    #[test]
    fn n_prediction_monotone_decreasing() {
        let mut last = f64::INFINITY;
        for n in 1..=16 {
            let v = af_ssim_n(n);
            assert!(v < last, "AF_SSIM(N) strictly decreases: N={n}");
            assert!((0.0..=1.0).contains(&v));
            last = v;
        }
    }

    #[test]
    fn n_known_values() {
        assert!((af_ssim_n(1) - 1.0).abs() < 1e-12);
        // N=2: (4/5)^2 = 0.64
        assert!((af_ssim_n(2) - 0.64).abs() < 1e-12);
        // N=16: (32/257)^2 ≈ 0.0155
        assert!((af_ssim_n(16) - (32.0f64 / 257.0).powi(2)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be in 1..=16")]
    fn n_out_of_range_panics() {
        let _ = af_ssim_n(0);
    }

    #[test]
    fn try_variant_returns_typed_error() {
        assert!(try_af_ssim_n(0).is_err());
        assert!(try_af_ssim_n(17).is_err());
        assert_eq!(try_af_ssim_n(2).unwrap(), af_ssim_n(2));
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[1.0]), 0.0);
        let uniform4 = [0.25; 4];
        assert!((entropy(&uniform4) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_paper_example() {
        // Fig. 11: probability vector {0.6, 0.2, 0.2}.
        let e = entropy(&[0.6, 0.2, 0.2]);
        let expected = -(0.6 * 0.6f64.log2() + 2.0 * 0.2 * 0.2f64.log2());
        assert!((e - expected).abs() < 1e-12);
        assert!(e > 0.0 && e < 3.0f64.log2());
    }

    #[test]
    fn tables_are_bit_equal_to_the_formulas() {
        for total in 1..=TABULATED {
            for count in 1..=total {
                let p = count as f64 / total as f64;
                assert_eq!(
                    TABLES.terms[total][count].to_bits(),
                    (-p * p.log2()).to_bits(),
                    "term {count}/{total}"
                );
            }
        }
        for n in 1..=TABULATED {
            assert_eq!(
                TABLES.log2[n].to_bits(),
                f64::from(n as u32).log2().to_bits(),
                "log2({n})"
            );
        }
    }

    #[test]
    fn counts_entropy_matches_the_probability_vector_past_the_table() {
        for counts in [&[15u64, 15, 3][..], &[9, 8], &[1; 17], &[2, 0, 5]] {
            let total: u64 = counts.iter().sum();
            let p: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
            assert_eq!(
                entropy_of_counts(counts.iter().copied(), total).to_bits(),
                entropy(&p).to_bits(),
                "{counts:?}"
            );
        }
        for n in [1u32, 2, 16, 17, 64] {
            let norm = f64::from(n).log2();
            let formula = if n == 1 {
                1.0
            } else {
                (1.0 - 1.5 / norm).clamp(0.0, 1.0)
            };
            assert_eq!(txds_from_entropy(1.5, n).to_bits(), formula.to_bits());
        }
    }

    #[test]
    fn entropy_ignores_zero_probabilities() {
        assert_eq!(entropy(&[1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn txds_perfect_concentration() {
        assert_eq!(txds(&[1.0], 5), 1.0);
    }

    #[test]
    fn txds_uniform_is_zero() {
        let p = [0.2; 5];
        // Entropy log2(5) normalized by log2(5) -> Txds = 0... but sample
        // size N = 5 and 5 distinct events: exactly the upper bound.
        assert!(txds(&p, 5).abs() < 1e-12);
    }

    #[test]
    fn txds_n1_defined_as_one() {
        assert_eq!(txds(&[1.0], 1), 1.0);
    }

    #[test]
    fn txds_paper_example_value() {
        // Fig. 11: P = {0.6, 0.2, 0.2}, N = 5.
        let t = txds(&[0.6, 0.2, 0.2], 5);
        let expected = 1.0 - entropy(&[0.6, 0.2, 0.2]) / 5.0f64.log2();
        assert!((t - expected).abs() < 1e-12);
        assert!(t > 0.3 && t < 0.5, "moderate concentration, got {t}");
    }

    #[test]
    fn txds_monotone_in_concentration() {
        // More taps sharing the dominant set -> higher Txds.
        let spread = txds(&[0.4, 0.2, 0.2, 0.2], 5);
        let tight = txds(&[0.8, 0.2], 5);
        assert!(tight > spread);
    }

    #[test]
    fn af_ssim_txds_endpoints() {
        assert!(af_ssim_txds(0.0).abs() < 1e-12);
        assert!((af_ssim_txds(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn af_ssim_txds_monotone() {
        let mut last = -1.0;
        for i in 0..=10 {
            let v = af_ssim_txds(f64::from(i) / 10.0);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn unified_threshold_semantics() {
        // The same threshold separates both predictors' "approximate" sides:
        // N small / Txds high -> predicted SSIM above threshold.
        let threshold = 0.4;
        assert!(af_ssim_n(1) > threshold);
        assert!(af_ssim_n(16) < threshold);
        assert!(af_ssim_txds(0.95) > threshold);
        assert!(af_ssim_txds(0.1) < threshold);
    }
}
