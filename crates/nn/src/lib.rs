//! # mocc-nn — minimal neural-network substrate
//!
//! A small, dependency-light dense neural-network library implementing
//! exactly what the MOCC policy networks need: row-major [`Matrix`]
//! algebra, tanh [`Mlp`]s with exact backpropagation, the [`Adam`]
//! optimizer, and Gaussian sampling utilities for the stochastic
//! policy. Everything is `f32`, serde-serializable, and deterministic
//! given a seeded RNG.
//!
//! Inference is one kernel, [`Network::forward_batch_into_tier`]: any
//! number of observations, one per row, each row's output depending on
//! that row alone. [`Network::forward`] is that kernel on one row.
//!
//! ## Example
//!
//! ```
//! use mocc_nn::{Activation, Adam, Matrix, Mlp, Network};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Fit y = 2x with a tiny MLP.
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut mlp = Mlp::new(&[1, 8, 1], Activation::Tanh, Activation::Linear, &mut rng);
//! let mut adam = Adam::new(0.01);
//! for _ in 0..300 {
//!     let x = Matrix::from_vec(4, 1, vec![-1.0, -0.5, 0.5, 1.0]);
//!     let cache = mlp.forward_batch(&x);
//!     // dL/dy for L = Σ(y − 2x)².
//!     let mut g = cache.output().clone();
//!     for (gi, xi) in g.data.iter_mut().zip(&x.data) {
//!         *gi = 2.0 * (*gi - 2.0 * xi);
//!     }
//!     mlp.zero_grad();
//!     mlp.backward_params(&cache, &g);
//!     adam.begin_step();
//!     mlp.for_each_param(|slot, p, gr| adam.update_slot(slot, p, gr));
//! }
//! let y = mlp.forward(&[0.25])[0];
//! assert!((y - 0.5).abs() < 0.1, "y = {y}");
//! ```

#![forbid(unsafe_code)]

pub mod matrix;
pub mod mlp;
pub mod network;
pub mod optim;
pub mod rng;
pub mod simd;

pub use matrix::Matrix;
pub use mlp::{Activation, Dense, ForwardCache, Mlp, MlpScratch};
pub use network::Network;
pub use optim::Adam;
pub use rng::{gaussian_entropy, gaussian_log_prob, normal, randn};
pub use simd::{exact_tanh, exact_tanh_slice, fast_tanh, fast_tanh_slice, ForwardTier};
