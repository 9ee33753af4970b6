//! Memory-system substrate: main memory, caches, DRAM timing and the
//! combined hierarchy of Table I of the IndexMAC paper.
//!
//! * [`MainMemory`] — sparse, page-based byte-addressable backing store
//!   (functional state).
//! * [`Cache`] — set-associative write-back/write-allocate cache model
//!   with LRU replacement (timing + hit/miss state, no data: the data
//!   lives in [`MainMemory`], as caches are performance-transparent).
//! * [`DramModel`] — DDR4-2400-style latency + line-bandwidth gate.
//! * [`MemoryHierarchy`] — the Table I arrangement: scalar L1D -> shared
//!   L2 -> DRAM, with the vector engine port attached *directly to L2*
//!   ("the vector engine is connected directly to the L2 cache").
//! * [`MemStats`] — access counters behind the paper's Fig. 6.
//!
//! # Example
//!
//! ```
//! use indexmac_mem::{MainMemory, MemoryHierarchy, HierarchyConfig};
//!
//! let mut mem = MainMemory::new();
//! mem.write_f32(0x1000, 3.5);
//! assert_eq!(mem.read_f32(0x1000), 3.5);
//!
//! let mut h = MemoryHierarchy::new(HierarchyConfig::table_i());
//! let first = h.scalar_read(0x1000, 4, 0);   // cold: miss to DRAM
//! let second = h.scalar_read(0x1000, 4, 100); // warm: L1 hit
//! assert!(second < first);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod memory;
pub mod stats;

pub use cache::{AccessKind, Cache, CacheConfig};
pub use dram::{DramConfig, DramModel};
pub use hierarchy::{HierarchyConfig, MemoryHierarchy};
pub use memory::MainMemory;
pub use stats::MemStats;
