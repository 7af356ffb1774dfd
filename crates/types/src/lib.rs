//! Primitive types shared by every crate in the Emu reproduction.
//!
//! This crate is the bottom of the dependency stack: arbitrary-width words
//! ([`Bits`], the paper's §3.2(iv)), the `BitUtil` field accessors of
//! Figure 4 ([`bitutil`]), Internet checksum and Pearson hashing
//! ([`checksum`]), addresses ([`MacAddr`], [`Ipv4`]), protocol constants
//! ([`proto`]), the common [`Frame`] buffer, and the one place frames are
//! assembled from fields and decoded back ([`wire`]).
//!
//! Nothing here knows about the IR, the compiler, or any simulator.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod addr;
pub mod bits;
pub mod bitutil;
pub mod checksum;
mod frame;
pub mod proto;
mod stats;
pub mod wire;

pub use addr::{AddrParseError, Ipv4, MacAddr};
pub use bits::Bits;
pub use frame::Frame;
pub use stats::Summary;
