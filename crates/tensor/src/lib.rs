//! Gradient-vector substrate for the SIDCo gradient-compression library.
//!
//! The compressors in `sidco-core` and the distributed-training simulator in
//! `sidco-dist` manipulate gradients exclusively through the types and free
//! functions defined here:
//!
//! * [`dense`] — owned dense gradient vectors ([`GradientVector`])
//!   with the usual BLAS-1 style operations (norms, axpy, scaling).
//! * [`sparse`] — the wire format of a compressed gradient
//!   ([`SparseGradient`]): index/value pairs plus the original
//!   length, with scatter/gather back into dense form.
//! * [`topk`] — exact Top-k selection by quickselect.
//! * [`threshold`] — linear-time threshold scans (count, select, both) used by every
//!   threshold-estimation compressor.
//! * [`sampling`] — random sub-sampling used by DGC.
//! * [`compressibility`] — the power-law decay and σ_k analyses behind Definition 1 /
//!   Figure 7 of the paper.
//! * [`encoding`] — the delta-varint wire format a compressed gradient is
//!   sent in, and its lossless decoder.
//! * [`parallel`] — chunked multi-threaded primitives (moments, counts,
//!   selection, partial Top-k) executed on a `sidco_runtime`
//!   [`Runtime`](sidco_runtime::Runtime) (the persistent worker pool, or
//!   inline at one thread) for the large ImageNet-scale vectors,
//!   bit-identical across runtimes and thread counts by construction.
//!
//! # Example
//!
//! ```
//! use sidco_tensor::dense::GradientVector;
//! use sidco_tensor::threshold::select_above_threshold;
//!
//! let grad = GradientVector::from_vec(vec![0.5, -0.01, 0.2, -0.9]);
//! let sparse = select_above_threshold(grad.as_slice(), 0.3);
//! assert_eq!(sparse.nnz(), 2);
//! assert_eq!(sparse.dense_len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compressibility;
pub mod dense;
pub mod encoding;
pub mod parallel;
pub mod sampling;
pub mod sparse;
pub mod threshold;
pub mod topk;

pub use dense::GradientVector;
pub use sparse::SparseGradient;
