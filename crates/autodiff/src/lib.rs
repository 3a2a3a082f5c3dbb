//! # tad-autodiff
//!
//! A from-scratch tensor and reverse-mode automatic-differentiation engine,
//! built as the deep-learning substrate for the CausalTAD reproduction
//! (ICDE 2024). The paper trains several variational autoencoders with GRU
//! decoders using Adam; no mature pure-Rust DL stack was available offline,
//! so this crate implements exactly the pieces those models need:
//!
//! * [`Tensor`] — dense row-major `f32` matrices with cache-friendly matmul
//!   kernels (including the `A·Bᵀ` form used to project onto gathered
//!   embedding rows), and [`PackedRhs`], a right operand packed once for
//!   products that reuse it.
//! * [`ops`] — the forward kernels both paths share, over slices: the
//!   affine map, the road-constrained subset logits, the GRU gate epilogue.
//! * [`Tape`] — an eager reverse-mode tape: ops execute immediately, so a
//!   node's value is readable as soon as it is recorded; parameter leaves
//!   read a [`ParamStore`]'s tensors in place, and [`Tape::backward`] adds
//!   gradients straight into a [`Gradients`] set aligned to it — the
//!   store itself is names and values only.
//! * [`nn`] — layers ([`nn::Linear`], [`nn::Embedding`], [`nn::GruCell`],
//!   [`nn::GaussianHead`]) that own only parameter handles, each with one
//!   taped forward and one tape-free `infer` on the same [`ops`] kernel.
//! * [`optim`] — [`optim::Adam`], the paper's optimiser.
//! * [`train`] — [`train::run`], the one epoch/mini-batch loop every
//!   learned model is optimised by, generic over the item type, and
//!   [`train::Lane`], a store shard with the gradients, tape and moments
//!   it trains with (allocated with the lane, dropped with it).
//!
//! Correctness of every differentiable op is enforced by finite-difference
//! gradient checks in the test module `gradcheck` (property-based via
//! `proptest`), and the fused recurrence is proven bit for bit against its
//! per-step composition in the test module `gru_sequence`.
//!
//! ## Example
//!
//! ```
//! use tad_autodiff::{Gradients, ParamStore, Tape, Tensor};
//! use tad_autodiff::nn::Linear;
//! use tad_autodiff::optim::Adam;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let hidden = Linear::new(&mut store, "net.l0", 2, 8, &mut rng);
//! let out = Linear::new(&mut store, "net.l1", 8, 2, &mut rng);
//! let (mut adam, mut grads) = (Adam::new(&store, 1e-2), Gradients::new(&store));
//!
//! // One supervised step: classify the point (1, -1) as class 0.
//! let mut tape = Tape::new();
//! let x = tape.input(Tensor::row_vector(&[1.0, -1.0]));
//! let h_pre = hidden.forward(&mut tape, &store, x);
//! let h = tape.tanh(h_pre);
//! let logits = out.forward(&mut tape, &store, h);
//! let loss = tape.softmax_cross_entropy(logits, &[0]);
//! tape.backward(loss, &store, &mut grads);
//! adam.step(&mut store, &mut grads);
//! ```

pub mod math;
pub mod nn;
pub mod ops;
pub mod optim;
mod params;
mod pool;
mod tape;
mod tensor;
pub mod train;

#[cfg(test)]
mod gradcheck;
#[cfg(test)]
mod gru_sequence;

pub use math::{fast_exp, fast_sigmoid, fast_tanh};
pub use params::{CodecError, Gradients, LayoutError, ParamId, ParamStore};
pub use pool::TensorPool;
pub use tape::{logsumexp, Tape, Var};
pub use tensor::{PackedRhs, Tensor};
