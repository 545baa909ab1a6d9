//! # tensor
//!
//! Minimal dense linear-algebra substrate for the from-scratch transformer
//! inference engine (`slm-runtime`). Deliberately small: row-major `f32`
//! matrices, the two projection formats the engine multiplies by (the
//! panel-packed f32 [`PackedMatrix`] and the int8 [`Int8Matrix`]), two
//! BLAS-like helpers (dot, axpy), the runtime SIMD-level detection the
//! kernels share ([`simd`]), and the neural-network primitives a
//! decoder-only transformer needs (stable softmax, RMSNorm, SwiGLU/SiLU).
//!
//! Everything is CPU, single-threaded and allocation-conscious: the hot paths
//! take output buffers so the inference loop can reuse scratch memory.

pub mod init;
pub mod int8;
pub mod linear;
pub mod matrix;
pub mod nn;
pub mod ops;
pub mod simd;

pub use int8::Int8Matrix;
pub use linear::Linear;
pub use matrix::Matrix;
pub use ops::PackedMatrix;
