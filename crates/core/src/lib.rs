//! # patu-core
//!
//! The paper's primary contribution (HPCA 2018): **AF-SSIM**, a runtime
//! predictor of the perceptual similarity between a pixel filtered with and
//! without anisotropic filtering, and **PATU**, the Perception-Aware Texture
//! Unit that uses it to demote non-perceivable pixels from AF to plain
//! trilinear filtering.
//!
//! The model chain, following the paper Sec. IV–V:
//!
//! 1. AF's output is the average of `N` trilinear samples (Eq. 3), so
//!    `Y = μ∇ · X` (Eq. 4) where `μ∇` is the *similarity degree* between the
//!    AF color `Y` and TF color `X`.
//! 2. Substituting into SSIM collapses it to a function of `μ∇` alone —
//!    [`afssim::af_ssim_mu`] (Eq. 5).
//! 3. Two runtime proxies for `μ∇`, both available before texel fetch:
//!    the sample size `N` ([`afssim::af_ssim_n`], Eq. 6) and the texel
//!    distribution similarity ([`afssim::txds`] + [`afssim::af_ssim_txds`],
//!    Eq. 8–10) computed from the texel-address hash table
//!    ([`hash_table::TexelAddressTable`], PATU component ②).
//! 4. The two-stage prediction flow (Fig. 13) and the full texture-unit
//!    policy — including the LOD-shift fix of Sec. V-C(2) — live in
//!    [`policy`] and [`unit::PerceptionAwareTextureUnit`].
//!
//! # Examples
//!
//! ```
//! use patu_core::afssim;
//!
//! // An isotropic pixel (N = 1) looks identical with or without AF:
//! assert!((afssim::af_ssim_n(1) - 1.0).abs() < 1e-9);
//! // A maximally anisotropic pixel does not:
//! assert!(afssim::af_ssim_n(16) < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod afssim;
pub mod batch;
pub mod error;
pub mod hash_table;
pub mod oracle;
pub mod policy;
pub mod stats;
pub mod unit;

pub use afssim::{af_ssim_mu, af_ssim_n, af_ssim_txds, entropy, try_af_ssim_n, txds};
pub use batch::{filter_batch_shared, LaneOutcome, LaneScratch, SoaBatch};
pub use error::PatuError;
pub use hash_table::TexelAddressTable;
pub use oracle::{oracle_af_ssim, oracle_mu, PredictionAccuracy};
pub use policy::{DecisionStage, FilterMode, FilterPolicy, ParsePolicyError, PolicyDecision};
pub use stats::{ApproxStats, DivergenceStats, SharingStats};
pub use unit::{DecisionAttrib, FilterOutcome, PerceptionAwareTextureUnit};
