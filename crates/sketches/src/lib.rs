//! Reference software implementations of the baseline sketch algorithms.
//!
//! UnivMon, the original BeauCoup and CMS are the *comparators* of the
//! paper's evaluation; the HyperLogLog estimate and MRAC's EM are the
//! estimator formulas the switch and fleet readouts call. The others
//! (Bloom filter, Linear Counting, SuMax, TowerSketch, Counter Braids,
//! Odd Sketch) are checked only by their own tests: no test compares a
//! reference with its CMU-hosted version.
//!
//! Everything here is plain software — no RMT constraints — implemented
//! from the original papers. Keys are byte slices (use
//! [`flymon_packet::KeySpec::extract`] to produce them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beaucoup;
pub mod bloom;
pub mod braids;
pub mod cms;
pub mod count_sketch;
pub mod hll;
pub mod linear_counting;
pub mod mrac;
pub mod odd_sketch;
pub mod sumax;
pub mod tower;
pub mod univmon;

pub use beaucoup::{BeauCoup, BeauCoupConfig};
pub use bloom::BloomFilter;
pub use braids::CounterBraids;
pub use cms::CountMinSketch;
pub use count_sketch::CountSketch;
pub use hll::HyperLogLog;
pub use linear_counting::LinearCounting;
pub use mrac::Mrac;
pub use odd_sketch::OddSketch;
pub use sumax::{SuMax, SuMaxMode};
pub use tower::TowerSketch;
pub use univmon::UnivMon;
