//! NAND flash simulator substrate for the Salamander reproduction.
//!
//! The HotOS '25 Salamander paper assumes an SSD built from NAND flash whose
//! pages wear out at different rates, accumulate raw bit errors proportional
//! to their program/erase cycle (PEC) count, and are accessed at two
//! granularities: physical flash pages (*fPages*, e.g. 16 KiB) and logical
//! OS pages (*oPages*, 4 KiB). This crate provides that substrate:
//!
//! - [`geometry`] — device geometry (channels, dies, planes, blocks, pages)
//!   and strongly-typed addresses.
//! - [`rber`] — the raw-bit-error-rate model: a power law in PEC with
//!   per-page lognormal endurance variance, plus retention and read-disturb
//!   terms, following the models the paper cites (Kim et al., FAST '19;
//!   Cai et al., Proc. IEEE '17).
//! - [`errors`] — deterministic, seeded bit-flip injection.
//! - [`chip`] — a functional flash chip: program/erase state machine,
//!   per-page wear state, bad-block marks, data storage.
//! - [`timing`] — first-order latency/throughput accounting.
//! - [`array`](mod@array) — a multi-chip assembly with channel/die parallelism, the
//!   unit an FTL drives.
//!
//! All randomness is seeded; identical seeds give identical simulations.
//!
//! # Examples
//!
//! ```
//! use salamander_flash::{array::FlashArray, geometry::FlashGeometry, rber::RberModel};
//!
//! let geom = FlashGeometry::small_test();
//! let mut array = FlashArray::new(geom, RberModel::default(), 42);
//! let fp = array.geometry().fpage_addr(0, 0, 0); // chip 0, block 0, page 0
//! array.program(fp, None).unwrap();
//! let read = array.read(fp).unwrap();
//! assert_eq!(read.raw_bit_errors, 0); // a brand-new page has ~no errors
//! ```

pub mod array;
pub mod chip;
pub mod errors;
pub mod geometry;
pub mod rber;
pub mod stats;
pub mod timing;
pub mod voltage;

pub use array::{FlashArray, ReadOutcome};
pub use chip::{FlashChip, FlashError, PageState};
pub use geometry::{BlockAddr, FPageAddr, FlashGeometry, OPageAddr};
pub use rber::RberModel;
pub use timing::TimingModel;
pub use voltage::{CellMode, VoltageModel};
