//! Memory-layout planning and operand pre-processing.
//!
//! The planner assigns simulated-memory regions to the operand arrays
//! and materialises the two *derived index arrays* that the paper's
//! offline format conversion produces from `col_idx`:
//!
//! * for Algorithm 2, each slot stores the **byte offset of the selected
//!   B row** (`global_row * b_row_stride`), so the kernel only adds the
//!   tile-adjusted base (`vadd.vx`, paper Algorithm 2 line 5) and the
//!   per-nonzero `vmv.x.s` yields a complete load address;
//! * for Algorithm 3, each slot stores the **vector-register number**
//!   holding that B row within the pre-loaded tile
//!   (`tile_vreg_base + local_row`), so the per-nonzero `vmv.x.s`
//!   yields exactly the `rs` operand of `vindexmac.vx`.
//!
//! B and C rows are padded to a whole number of vector lengths so every
//! column tile is full-width; both kernels see identical padding.

use crate::error::KernelError;
use indexmac_isa::Sew;
use indexmac_mem::MainMemory;
use indexmac_sparse::{quant, DenseMatrix, ElemType, IntMatrix, NmPattern, StructuredSparseMatrix};
use indexmac_vpu::{AnalysisContract, OffsetTable, SimConfig, VregTable};

/// The logical GEMM shape `C[rows x cols] = A[rows x inner] * B[inner x cols]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmDims {
    /// Rows of A and C.
    pub rows: usize,
    /// Columns of A / rows of B (`K`).
    pub inner: usize,
    /// Columns of B and C.
    pub cols: usize,
}

impl GemmDims {
    /// Multiply-accumulate count of the dense product.
    pub fn dense_macs(&self) -> u64 {
        self.rows as u64 * self.inner as u64 * self.cols as u64
    }
}

/// The `RxKxN` form (`rows x inner x cols`).
impl std::fmt::Display for GemmDims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.rows, self.inner, self.cols)
    }
}

/// Parses the `RxKxN` form [`Display`](std::fmt::Display) prints, each
/// dimension positive: the CLI's `--dims` token and the daemon's
/// `"dims"` entries.
impl std::str::FromStr for GemmDims {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut dims = s.split('x').map(|d| d.parse().ok().filter(|&d| d > 0));
        match (dims.next(), dims.next(), dims.next(), dims.next()) {
            (Some(Some(rows)), Some(Some(inner)), Some(Some(cols)), None) => {
                Ok(GemmDims { rows, inner, cols })
            }
            _ => Err(format!("dims `{s}` are not RxKxN")),
        }
    }
}

/// Architectural registers available to the resident B tile: `v0..v11`
/// are reserved for accumulators/metadata/scratch (see the bank table
/// in `emit.rs`), and the planner keeps the same headroom under
/// grouping, where the tile occupies `tile_rows * lmul` registers.
const TILE_REG_BUDGET: usize = 20;

/// First simulated address handed out to operand arrays.
const REGION_BASE: u64 = 0x0010_0000;
/// Region alignment (one simulated page).
const REGION_ALIGN: u64 = 0x1000;

/// A planned operand placement for one sparse x dense product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmLayout {
    /// Logical GEMM shape.
    pub dims: GemmDims,
    /// The N:M pattern of A.
    pub pattern: NmPattern,
    /// B-tile rows kept resident per k-step (`L`, multiple of `M`).
    pub tile_rows: usize,
    /// Element precision of the A and B operands (the C accumulator is
    /// always 32 bits: `f32` or the widening-MAC `i32`).
    pub elem: ElemType,
    /// Hardware vector length in elements at the operand SEW (per
    /// single register): `VLEN / SEW`, so 64 at e8 for a 512-bit VLEN.
    pub vl: usize,
    /// Register grouping factor (`LMUL ∈ {1, 2, 4}`). With `lmul > 1`
    /// every B row segment, C accumulator and column tile is
    /// `lmul * vl` elements wide, held in groups of `lmul` consecutive
    /// vector registers; only the second-generation `indexmac2` kernel
    /// consumes such layouts.
    pub lmul: usize,
    /// `ceil(inner / L)` — number of k-tiles.
    pub num_ktiles: usize,
    /// Metadata slots per (row, k-tile): `N * L / M`.
    pub slots_per_tile: usize,
    /// `ceil(cols / VL)` — number of column tiles.
    pub num_coltiles: usize,
    /// First vector register of the resident B tile (`32 - L`).
    pub tile_vreg_base: u8,
    /// Base address of the `values` array.
    pub values_base: u64,
    /// Base address of the Algorithm 2 index array (B-row byte offsets).
    pub colidx_offsets_base: u64,
    /// Base address of the Algorithm 3 index array (VRF register numbers).
    pub colidx_vregs_base: u64,
    /// Base address of the dense A array (Algorithm 1 baseline).
    pub a_dense_base: u64,
    /// Base address of B (row-major, padded row stride).
    pub b_base: u64,
    /// Base address of C (row-major, padded row stride).
    pub c_base: u64,
    /// Padded B row stride in bytes
    /// (`num_coltiles * coltile_width * elem.bytes()`).
    pub row_stride_bytes: u64,
    /// Padded C row stride in bytes — C elements are always 4 bytes
    /// (f32 or the widening i32 accumulator), so at e8/e16 this exceeds
    /// the B stride by the widening factor.
    pub c_row_stride_bytes: u64,
    /// Padded A (dense) row stride in bytes (`ceil(inner/VL)*VL*4`,
    /// f32 path only).
    pub a_row_stride_bytes: u64,
}

impl GemmLayout {
    /// Plans a layout for `a * B` where B has `b_cols` columns.
    ///
    /// `tile_rows` is the paper's `L` (the evaluation uses `L = 16`).
    ///
    /// # Errors
    ///
    /// * [`KernelError::BadTileRows`] if `L` is not a positive multiple
    ///   of `M`, exceeds the paper's bound `M * VL / N`, or leaves fewer
    ///   than 12 architectural registers for accumulators and metadata;
    /// * [`KernelError::TooManySlotsPerTile`] if `N * L / M > VL` (the
    ///   slide walk could not keep a tile's metadata in one register).
    pub fn plan(
        a: &StructuredSparseMatrix,
        b_cols: usize,
        cfg: &SimConfig,
        tile_rows: usize,
    ) -> Result<Self, KernelError> {
        Self::plan_grouped(a, b_cols, cfg, tile_rows, 1)
    }

    /// Plans a layout with register grouping: column tiles (and thus B
    /// row segments and C accumulators) are `lmul * VL` elements wide,
    /// and each resident B row occupies a group of `lmul` consecutive
    /// vector registers. `lmul = 1` is exactly [`GemmLayout::plan`].
    ///
    /// # Errors
    ///
    /// The [`GemmLayout::plan`] conditions, evaluated against the
    /// grouped register budget (`tile_rows * lmul` architectural
    /// registers), plus [`KernelError::BadGrouping`] for `lmul`
    /// outside `{1, 2, 4}`.
    pub fn plan_grouped(
        a: &StructuredSparseMatrix,
        b_cols: usize,
        cfg: &SimConfig,
        tile_rows: usize,
        lmul: usize,
    ) -> Result<Self, KernelError> {
        Self::plan_elem(a, b_cols, cfg, tile_rows, lmul, ElemType::F32)
    }

    /// Plans a layout at an explicit element precision: at
    /// [`ElemType::I8`]/[`ElemType::I16`] the column tiles are
    /// `VLEN/SEW` elements wide per register (64 at e8 on Table I),
    /// operand arrays pack down to the element width, and the C
    /// accumulator stays 32-bit (`i32`). `ElemType::F32` with `lmul = 1`
    /// is exactly [`GemmLayout::plan`].
    ///
    /// # Errors
    ///
    /// The [`GemmLayout::plan_grouped`] conditions, plus
    /// [`KernelError::BadGrouping`] when `lmul * (32/SEW) > 4` — the
    /// widening accumulator group would exceed the largest modelled
    /// register grouping (`m4`), so e8 runs ungrouped and e16 supports
    /// at most `m2`.
    pub fn plan_elem(
        a: &StructuredSparseMatrix,
        b_cols: usize,
        cfg: &SimConfig,
        tile_rows: usize,
        lmul: usize,
        elem: ElemType,
    ) -> Result<Self, KernelError> {
        let pattern = a.pattern();
        let vl = cfg.vlen_bits / elem.bits();
        let (rows, inner) = a.shape();

        if !matches!(lmul, 1 | 2 | 4) {
            return Err(KernelError::BadGrouping {
                lmul,
                reason: "register grouping must be 1, 2 or 4",
            });
        }
        if lmul * elem.widen() > 4 {
            return Err(KernelError::BadGrouping {
                lmul,
                reason: "the widening accumulator group (lmul * 32/SEW) exceeds m4",
            });
        }
        if tile_rows == 0 || !tile_rows.is_multiple_of(pattern.m()) {
            return Err(KernelError::BadTileRows {
                tile_rows,
                reason: "must be a positive multiple of the block size M",
            });
        }
        if tile_rows > pattern.max_preload_rows(vl) {
            return Err(KernelError::BadTileRows {
                tile_rows,
                reason: "exceeds the addressable bound M*VL/N (paper Section III)",
            });
        }
        if tile_rows * lmul > TILE_REG_BUDGET {
            return Err(KernelError::BadTileRows {
                tile_rows,
                reason: "leaves too few vector registers for accumulators",
            });
        }
        let slots_per_tile = pattern.n() * tile_rows / pattern.m();
        if slots_per_tile > vl {
            return Err(KernelError::TooManySlotsPerTile {
                slots: slots_per_tile,
                vl,
            });
        }

        let coltile_width = vl * lmul;
        let num_ktiles = inner.div_ceil(tile_rows);
        let num_coltiles = b_cols.div_ceil(coltile_width);
        let eb = elem.bytes();
        let row_stride_bytes = (num_coltiles * coltile_width * eb) as u64;
        let c_row_stride_bytes = (num_coltiles * coltile_width * 4) as u64;
        let a_row_stride_bytes = (inner.div_ceil(vl) * vl * 4) as u64;

        // Bump allocator over the simulated address space.
        let mut cursor = REGION_BASE;
        let mut alloc = |bytes: u64| {
            let base = cursor;
            cursor = (cursor + bytes + REGION_ALIGN - 1) & !(REGION_ALIGN - 1);
            base
        };
        // The metadata arrays carry one extra register's worth of slots:
        // the kernels load tile metadata at the full hardware VL (only
        // `slots_per_tile` lanes are consumed), so the last tile's load
        // must stay inside its own array for the analyzer's table
        // contracts to cover every lane it touches.
        let meta_slots = (rows * num_ktiles * slots_per_tile) as u64 + vl as u64;
        let values_base = alloc(meta_slots * eb as u64);
        let colidx_offsets_base = alloc(meta_slots * 4);
        let colidx_vregs_base = alloc(meta_slots * eb as u64);
        let a_dense_base = alloc(rows as u64 * a_row_stride_bytes);
        let b_base = alloc(inner as u64 * row_stride_bytes);
        let c_base = alloc(rows as u64 * c_row_stride_bytes);

        Ok(Self {
            dims: GemmDims {
                rows,
                inner,
                cols: b_cols,
            },
            pattern,
            tile_rows,
            elem,
            vl,
            lmul,
            num_ktiles,
            slots_per_tile,
            num_coltiles,
            tile_vreg_base: (32 - tile_rows * lmul) as u8,
            values_base,
            colidx_offsets_base,
            colidx_vregs_base,
            a_dense_base,
            b_base,
            c_base,
            row_stride_bytes,
            c_row_stride_bytes,
            a_row_stride_bytes,
        })
    }

    /// The RVV element width the kernels select for this layout.
    pub fn sew(&self) -> Sew {
        match self.elem {
            ElemType::F32 => Sew::E32,
            ElemType::I16 => Sew::E16,
            ElemType::I8 => Sew::E8,
        }
    }

    /// Column-tile width in elements (`VL * LMUL`).
    pub fn coltile_width(&self) -> usize {
        self.vl * self.lmul
    }

    /// The largest tile-row count `L` that fits the register budget
    /// under `lmul` grouping while staying a multiple of the pattern's
    /// block size `M`: grouped experiments shrink the requested `L`
    /// rather than erroring out (e.g. `L=16` becomes 8 under `m2` and 4
    /// under `m4`).
    pub fn fit_tile_rows(requested: usize, lmul: usize, pattern: NmPattern) -> usize {
        let m = pattern.m();
        let cap = (TILE_REG_BUDGET / lmul.max(1)).max(m);
        let fitted = requested.min(cap) / m * m;
        fitted.max(m)
    }

    /// Address of the `values` slots for `(row, ktile)` — packed at the
    /// element width.
    pub fn values_addr(&self, row: usize, ktile: usize) -> u64 {
        self.values_base
            + ((row * self.num_ktiles + ktile) * self.slots_per_tile * self.elem.bytes()) as u64
    }

    /// Address of the Algorithm 2 index slots for `(row, ktile)` — byte
    /// offsets of B rows, always 32-bit (the f32 baseline's format).
    pub fn colidx_offsets_addr(&self, row: usize, ktile: usize) -> u64 {
        self.colidx_offsets_base
            + ((row * self.num_ktiles + ktile) * self.slots_per_tile * 4) as u64
    }

    /// Address of the Algorithm 3 index slots for `(row, ktile)` —
    /// VRF register numbers, packed at the element width so the kernel
    /// loads them with the same-width `vle`.
    pub fn colidx_vregs_addr(&self, row: usize, ktile: usize) -> u64 {
        self.colidx_vregs_base
            + ((row * self.num_ktiles + ktile) * self.slots_per_tile * self.elem.bytes()) as u64
    }

    /// Address of element `(k, col)` of B (element-width packing).
    pub fn b_addr(&self, k: usize, col: usize) -> u64 {
        self.b_base + k as u64 * self.row_stride_bytes + (col * self.elem.bytes()) as u64
    }

    /// Address of element `(row, col)` of C (always 4-byte elements).
    pub fn c_addr(&self, row: usize, col: usize) -> u64 {
        self.c_base + row as u64 * self.c_row_stride_bytes + (col * 4) as u64
    }

    /// Address of element `(row, k)` of the dense copy of A.
    pub fn a_dense_addr(&self, row: usize, k: usize) -> u64 {
        self.a_dense_base + row as u64 * self.a_row_stride_bytes + (k * 4) as u64
    }

    /// Stride in bytes between `(row, ktile)` and `(row+1, ktile)`
    /// metadata slots (element-width packing).
    pub fn meta_row_stride_bytes(&self) -> u64 {
        (self.num_ktiles * self.slots_per_tile * self.elem.bytes()) as u64
    }

    /// Stride in bytes between `(row, ktile)` and `(row, ktile+1)`
    /// metadata slots (element-width packing).
    pub fn meta_ktile_stride_bytes(&self) -> u64 {
        (self.slots_per_tile * self.elem.bytes()) as u64
    }

    /// Total metadata slots across all `(row, k-tile)` pairs, including
    /// the trailing full-register pad the planner allocates.
    fn padded_meta_slots(&self) -> u64 {
        (self.dims.rows * self.num_ktiles * self.slots_per_tile + self.vl) as u64
    }

    /// The memory facts the static analyzer needs to reason about this
    /// layout's programs: readable/writable extents, the architectural
    /// zero page, and the two derived-index table contracts (see
    /// [`indexmac_vpu::analyze`]). The analyzer *trusts* these;
    /// [`GemmLayout::write_operands`] is what makes them true.
    pub fn analysis_contract(&self) -> AnalysisContract {
        let padded = self.padded_meta_slots();
        let c_end = self.c_base + self.dims.rows as u64 * self.c_row_stride_bytes;
        // Offsets may name any of the `num_ktiles * tile_rows` logical B
        // rows, including k-padding rows past `inner`; reads there land
        // in the zeroed gap between B's allocation and C.
        let b_reach =
            self.b_base + (self.num_ktiles * self.tile_rows) as u64 * self.row_stride_bytes;
        AnalysisContract {
            readable: self.values_base..c_end.max(b_reach),
            writable: self.c_base..c_end,
            zero_page: REGION_ALIGN,
            offset_table: Some(OffsetTable {
                region: self.colidx_offsets_base..self.colidx_offsets_base + padded * 4,
                stride: self.row_stride_bytes,
                count: (self.num_ktiles * self.tile_rows) as u64,
            }),
            vreg_table: Some(VregTable {
                region: self.colidx_vregs_base
                    ..self.colidx_vregs_base + padded * self.elem.bytes() as u64,
                elem: self.sew(),
                min: self.tile_vreg_base,
                max: 32 - self.lmul as u8,
            }),
        }
    }

    /// Writes every operand array into simulated memory: `values`, both
    /// derived index arrays, a dense copy of A, B, and a zeroed C.
    ///
    /// # Panics
    ///
    /// Panics if `a`/`b` do not match the planned shape (planner misuse).
    pub fn write_operands(
        &self,
        a: &StructuredSparseMatrix,
        b: &DenseMatrix,
        mem: &mut MainMemory,
    ) {
        assert_eq!(
            a.shape(),
            (self.dims.rows, self.dims.inner),
            "A shape changed"
        );
        assert_eq!(
            b.shape(),
            (self.dims.inner, self.dims.cols),
            "B shape changed"
        );
        let m = self.pattern.m();
        let n = self.pattern.n();
        let blocks_per_tile = self.tile_rows / m;
        let real_blocks = a.blocks_per_row();

        for row in 0..self.dims.rows {
            for kt in 0..self.num_ktiles {
                let mut values = vec![0.0_f32; self.slots_per_tile];
                let mut offsets = vec![0_u32; self.slots_per_tile];
                let mut vregs = vec![0_u32; self.slots_per_tile];
                for bl in 0..blocks_per_tile {
                    let global_block = kt * blocks_per_tile + bl;
                    for s in 0..n {
                        let slot = bl * n + s;
                        let (value, in_block) = if global_block < real_blocks {
                            let blk = a.block(row, global_block);
                            (blk.values[s], blk.indices[s] as usize)
                        } else {
                            (0.0, 0) // k-tile padding beyond A's last block
                        };
                        let local_row = bl * m + in_block;
                        let global_row = global_block * m + in_block;
                        values[slot] = value;
                        offsets[slot] = (global_row as u64 * self.row_stride_bytes) as u32;
                        // Under grouping each resident B row is a group
                        // of `lmul` registers; the index names its base.
                        vregs[slot] = self.tile_vreg_base as u32 + (local_row * self.lmul) as u32;
                    }
                }
                self.write_elem_slice(mem, self.values_addr(row, kt), &values);
                mem.write_u32_slice(self.colidx_offsets_addr(row, kt), &offsets);
                for (i, vreg) in vregs.iter().enumerate() {
                    let addr = self.colidx_vregs_addr(row, kt) + (i * self.elem.bytes()) as u64;
                    match self.elem {
                        ElemType::F32 => mem.write_u32(addr, *vreg),
                        ElemType::I16 => mem.write_u16(addr, *vreg as u16),
                        ElemType::I8 => mem.write_u8(addr, *vreg as u8),
                    }
                }
            }
        }

        // Pad lanes past the final metadata slot: values and offsets
        // stay zero (a zero offset names B row 0, which always exists),
        // but vreg indices must still name a register inside the
        // resident tile so every lane of a full-VL metadata load is a
        // well-formed `vindexmac` operand.
        let real_slots = self.dims.rows * self.num_ktiles * self.slots_per_tile;
        for i in 0..self.vl {
            let addr = self.colidx_vregs_base + ((real_slots + i) * self.elem.bytes()) as u64;
            match self.elem {
                ElemType::F32 => mem.write_u32(addr, self.tile_vreg_base as u32),
                ElemType::I16 => mem.write_u16(addr, self.tile_vreg_base as u16),
                ElemType::I8 => mem.write_u8(addr, self.tile_vreg_base),
            }
        }

        // Dense copy of A (Algorithm 1 baseline) — f32 path only; the
        // quantized paths run the sparse kernels.
        if self.elem == ElemType::F32 {
            let a_dense = a.to_dense();
            for row in 0..self.dims.rows {
                mem.write_f32_slice(self.a_dense_addr(row, 0), a_dense.row(row));
            }
        }

        // B, padded row stride (padding bytes left zero), packed at the
        // element width.
        for k in 0..self.dims.inner {
            self.write_elem_slice(mem, self.b_addr(k, 0), b.row(k));
        }

        // C zeroed (paper Algorithm 3 reloads/updates C per tile);
        // 4-byte accumulator elements at every precision.
        let zero_row = vec![0.0_f32; (self.c_row_stride_bytes / 4) as usize];
        for row in 0..self.dims.rows {
            mem.write_f32_slice(
                self.c_base + row as u64 * self.c_row_stride_bytes,
                &zero_row,
            );
        }
    }

    /// Writes a slice of operand values at the layout's element width:
    /// raw f32 bits at f32, two's-complement `i8`/`i16` at the
    /// quantized precisions (the values are exact small integers by
    /// construction — see [`indexmac_sparse::quant`]).
    fn write_elem_slice(&self, mem: &mut MainMemory, addr: u64, values: &[f32]) {
        match self.elem {
            ElemType::F32 => mem.write_f32_slice(addr, values),
            ElemType::I16 => {
                for (i, v) in values.iter().enumerate() {
                    mem.write_u16(addr + (i * 2) as u64, quant::slot_to_i32(*v) as i16 as u16);
                }
            }
            ElemType::I8 => {
                for (i, v) in values.iter().enumerate() {
                    mem.write_u8(addr + i as u64, quant::slot_to_i32(*v) as i8 as u8);
                }
            }
        }
    }

    /// Reads the (unpadded) result matrix C back from simulated memory
    /// as `f32` (the float path's accumulator domain).
    pub fn read_c(&self, mem: &MainMemory) -> DenseMatrix {
        DenseMatrix::from_fn(self.dims.rows, self.dims.cols, |r, c| {
            mem.read_f32(self.c_addr(r, c))
        })
    }

    /// Reads C back as `i32` — the widening-MAC accumulator domain of
    /// the quantized paths, compared bit-exactly against
    /// [`indexmac_sparse::quant::spmm_reference_i32`].
    pub fn read_c_i32(&self, mem: &MainMemory) -> IntMatrix {
        IntMatrix::from_fn(self.dims.rows, self.dims.cols, |r, c| {
            mem.read_u32(self.c_addr(r, c)) as i32
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indexmac_sparse::prune;

    fn cfg() -> SimConfig {
        SimConfig::table_i()
    }

    #[test]
    fn dims_parse_what_they_display() {
        let d = GemmDims {
            rows: 8,
            inner: 64,
            cols: 32,
        };
        assert_eq!(d.to_string(), "8x64x32");
        assert_eq!("8x64x32".parse::<GemmDims>().unwrap(), d);
        for bad in ["8x64", "8x64x32x1", "0x64x32", "8xx32", "8x-1x32", ""] {
            assert!(
                bad.parse::<GemmDims>().unwrap_err().contains("RxKxN"),
                "{bad}"
            );
        }
    }

    fn layout(rows: usize, inner: usize, cols: usize, pattern: NmPattern) -> GemmLayout {
        let a = prune::random_structured(rows, inner, pattern, 7);
        GemmLayout::plan(&a, cols, &cfg(), 16).unwrap()
    }

    #[test]
    fn plan_geometry() {
        let l = layout(8, 64, 40, NmPattern::P1_4);
        assert_eq!(l.num_ktiles, 4);
        assert_eq!(l.slots_per_tile, 4); // 1 * 16/4
        assert_eq!(l.num_coltiles, 3); // ceil(40/16)
        assert_eq!(l.row_stride_bytes, 3 * 16 * 4);
        assert_eq!(l.tile_vreg_base, 16);
        let l = layout(8, 64, 40, NmPattern::P2_4);
        assert_eq!(l.slots_per_tile, 8); // 2 * 16/4
    }

    #[test]
    fn plan_validates_tile_rows() {
        let a = prune::random_structured(4, 32, NmPattern::P2_4, 1);
        assert!(matches!(
            GemmLayout::plan(&a, 8, &cfg(), 3),
            Err(KernelError::BadTileRows { .. })
        ));
        assert!(matches!(
            GemmLayout::plan(&a, 8, &cfg(), 0),
            Err(KernelError::BadTileRows { .. })
        ));
        // 2:4 bound: M*VL/N = 4*16/2 = 32, but register budget caps at 20.
        assert!(matches!(
            GemmLayout::plan(&a, 8, &cfg(), 24),
            Err(KernelError::BadTileRows { .. })
        ));
        assert!(GemmLayout::plan(&a, 8, &cfg(), 8).is_ok());
    }

    #[test]
    fn plan_rejects_beyond_preload_bound() {
        // 1:16 pattern: M*VL/N = 16*16/1 = 256 ok; but 16:16 -> bound 16.
        let p = NmPattern::new(16, 16).unwrap();
        let a = prune::random_structured(2, 32, p, 1);
        // L=16 gives slots 16*16/16 = 16 <= VL, bound = 16 ok.
        assert!(GemmLayout::plan(&a, 8, &cfg(), 16).is_ok());
        // 8:8 -> L=16 exceeds bound M*VL/N = 8*16/8 = 16? equal, ok; slots = 16.
        let p = NmPattern::new(8, 8).unwrap();
        let a = prune::random_structured(2, 32, p, 1);
        assert!(GemmLayout::plan(&a, 16, &cfg(), 16).is_ok());
    }

    #[test]
    fn grouped_plan_geometry() {
        let a = prune::random_structured(8, 64, NmPattern::P1_4, 7);
        let l = GemmLayout::plan_grouped(&a, 40, &cfg(), 8, 2).unwrap();
        assert_eq!(l.lmul, 2);
        assert_eq!(l.coltile_width(), 32);
        assert_eq!(l.num_coltiles, 2); // ceil(40 / 32)
        assert_eq!(l.row_stride_bytes, 2 * 32 * 4);
        assert_eq!(l.tile_vreg_base, 16); // 32 - 8*2
                                          // lmul = 1 keeps plan() semantics exactly.
        let m1 = GemmLayout::plan_grouped(&a, 40, &cfg(), 16, 1).unwrap();
        assert_eq!(m1, GemmLayout::plan(&a, 40, &cfg(), 16).unwrap());
    }

    #[test]
    fn grouped_plan_validates() {
        let a = prune::random_structured(4, 32, NmPattern::P2_4, 1);
        assert!(matches!(
            GemmLayout::plan_grouped(&a, 8, &cfg(), 16, 3),
            Err(KernelError::BadGrouping { lmul: 3, .. })
        ));
        // 16 rows * m2 = 32 architectural registers: over budget.
        assert!(matches!(
            GemmLayout::plan_grouped(&a, 8, &cfg(), 16, 2),
            Err(KernelError::BadTileRows { .. })
        ));
        assert!(GemmLayout::plan_grouped(&a, 8, &cfg(), 8, 2).is_ok());
        assert!(GemmLayout::plan_grouped(&a, 8, &cfg(), 4, 4).is_ok());
    }

    #[test]
    fn grouped_vreg_metadata_names_group_bases() {
        let a = prune::random_structured(3, 16, NmPattern::P1_4, 9);
        let b = DenseMatrix::random(16, 16, 10);
        let l = GemmLayout::plan_grouped(&a, 16, &cfg(), 8, 2).unwrap();
        let mut mem = MainMemory::new();
        l.write_operands(&a, &b, &mut mem);
        for row in 0..3 {
            for kt in 0..l.num_ktiles {
                for slot in 0..l.slots_per_tile {
                    let vreg = mem.read_u32(l.colidx_vregs_addr(row, kt) + slot as u64 * 4);
                    assert!(vreg >= l.tile_vreg_base as u32);
                    assert!(vreg < 32);
                    // Group bases are lmul-aligned within the tile.
                    assert_eq!((vreg - l.tile_vreg_base as u32) % 2, 0);
                }
            }
        }
    }

    #[test]
    fn fit_tile_rows_shrinks_with_grouping() {
        assert_eq!(GemmLayout::fit_tile_rows(16, 1, NmPattern::P1_4), 16);
        assert_eq!(GemmLayout::fit_tile_rows(16, 2, NmPattern::P1_4), 8);
        assert_eq!(GemmLayout::fit_tile_rows(16, 4, NmPattern::P1_4), 4);
        assert_eq!(GemmLayout::fit_tile_rows(16, 2, NmPattern::P1_2), 10);
        // Never below one block.
        assert_eq!(GemmLayout::fit_tile_rows(2, 4, NmPattern::P1_4), 4);
        // Fitted values always plan cleanly at their grouping.
        for lmul in [1usize, 2, 4] {
            let fitted = GemmLayout::fit_tile_rows(16, lmul, NmPattern::P2_4);
            let a = prune::random_structured(4, 32, NmPattern::P2_4, 1);
            assert!(
                GemmLayout::plan_grouped(&a, 8, &cfg(), fitted, lmul).is_ok(),
                "lmul {lmul} fitted {fitted}"
            );
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        let l = layout(16, 128, 100, NmPattern::P2_4);
        let meta = (16 * l.num_ktiles * l.slots_per_tile * 4) as u64;
        assert!(l.values_base + meta <= l.colidx_offsets_base);
        assert!(l.colidx_offsets_base + meta <= l.colidx_vregs_base);
        assert!(l.colidx_vregs_base + meta <= l.a_dense_base);
        assert!(l.a_dense_base + 16 * l.a_row_stride_bytes <= l.b_base);
        assert!(l.b_base + 128 * l.row_stride_bytes <= l.c_base);
    }

    #[test]
    fn derived_indices_match_format() {
        let a = prune::random_structured(3, 32, NmPattern::P1_4, 9);
        let b = DenseMatrix::random(32, 16, 10);
        let l = GemmLayout::plan(&a, 16, &cfg(), 16).unwrap();
        let mut mem = MainMemory::new();
        l.write_operands(&a, &b, &mut mem);

        for row in 0..3 {
            for kt in 0..l.num_ktiles {
                for slot in 0..l.slots_per_tile {
                    let v = mem.read_f32(l.values_addr(row, kt) + slot as u64 * 4);
                    let off = mem.read_u32(l.colidx_offsets_addr(row, kt) + slot as u64 * 4);
                    let vreg = mem.read_u32(l.colidx_vregs_addr(row, kt) + slot as u64 * 4);
                    // Offsets address a valid row of B.
                    assert_eq!(off as u64 % l.row_stride_bytes, 0);
                    let g = off as u64 / l.row_stride_bytes;
                    assert!((g as usize) < l.num_ktiles * l.tile_rows);
                    // Vreg within the resident tile.
                    assert!((16..32).contains(&vreg));
                    // Non-padding slots match the structured matrix.
                    if v != 0.0 {
                        let block = g as usize / 4;
                        let in_block = g as usize % 4;
                        let blk = a.block(row, block);
                        assert!(blk
                            .values
                            .iter()
                            .zip(blk.indices.iter())
                            .any(|(bv, bi)| *bv == v && *bi as usize == in_block));
                        // Local row consistent between the two encodings.
                        assert_eq!(
                            vreg as u64 - 16,
                            g % l.tile_rows as u64,
                            "vreg and offset must denote the same tile row"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn analysis_contract_covers_padded_tables() {
        let a = prune::random_structured(3, 16, NmPattern::P1_4, 9);
        let b = DenseMatrix::random(16, 16, 10);
        let l = GemmLayout::plan(&a, 16, &cfg(), 16).unwrap();
        let mut mem = MainMemory::new();
        l.write_operands(&a, &b, &mut mem);
        let c = l.analysis_contract();
        let ot = c.offset_table.as_ref().unwrap();
        let vt = c.vreg_table.as_ref().unwrap();
        // Every metadata slot plus one full register of pad lies inside
        // its table region, and the stored values honour the contract.
        let slots = 3 * l.num_ktiles * l.slots_per_tile;
        for i in 0..slots + l.vl {
            let off_addr = l.colidx_offsets_base + i as u64 * 4;
            let vreg_addr = l.colidx_vregs_base + (i * l.elem.bytes()) as u64;
            assert!(ot.region.contains(&off_addr));
            assert!(vt.region.contains(&vreg_addr));
            let off = mem.read_u32(off_addr) as u64;
            assert_eq!(off % ot.stride, 0);
            assert!(off / ot.stride < ot.count);
            let vreg = mem.read_u32(vreg_addr);
            assert!((vt.min as u32..=vt.max as u32).contains(&vreg));
        }
        // Stores stay inside C; readable spans operands through C.
        assert_eq!(c.writable, l.c_base..l.c_base + 3 * l.c_row_stride_bytes);
        assert!(c.readable.start <= l.values_base);
        assert!(c.readable.end >= c.writable.end);
    }

    #[test]
    fn write_and_read_back_c() {
        let a = prune::random_structured(4, 16, NmPattern::P1_4, 3);
        let b = DenseMatrix::random(16, 10, 4);
        let l = GemmLayout::plan(&a, 10, &cfg(), 16).unwrap();
        let mut mem = MainMemory::new();
        l.write_operands(&a, &b, &mut mem);
        // C starts zeroed.
        assert!(l.read_c(&mem).as_slice().iter().all(|v| *v == 0.0));
        // B round-trips.
        for k in 0..16 {
            assert_eq!(mem.read_f32_slice(l.b_addr(k, 0), 10), b.row(k));
        }
        // Dense A copy round-trips.
        let ad = a.to_dense();
        for r in 0..4 {
            assert_eq!(mem.read_f32_slice(l.a_dense_addr(r, 0), 16), ad.row(r));
        }
    }

    #[test]
    fn ragged_inner_dimension_pads_cleanly() {
        // inner=20 with L=16 -> 2 k-tiles, second mostly padding.
        let a = prune::random_structured(2, 20, NmPattern::P1_4, 5);
        let b = DenseMatrix::random(20, 8, 6);
        let l = GemmLayout::plan(&a, 8, &cfg(), 16).unwrap();
        assert_eq!(l.num_ktiles, 2);
        let mut mem = MainMemory::new();
        l.write_operands(&a, &b, &mut mem);
        // Padding slots in the second tile have zero values.
        let vals = mem.read_f32_slice(l.values_addr(0, 1), l.slots_per_tile);
        let real_blocks_in_tile2 = 5usize.saturating_sub(4); // blocks 4.. of 5
        assert!(vals[real_blocks_in_tile2..].iter().all(|v| *v == 0.0));
    }

    #[test]
    fn dense_mac_count() {
        let d = GemmDims {
            rows: 3,
            inner: 4,
            cols: 5,
        };
        assert_eq!(d.dense_macs(), 60);
    }

    #[test]
    fn elem_plan_geometry_scales_with_sew() {
        use indexmac_sparse::ElemType;
        let a = prune::random_structured(8, 64, NmPattern::P1_4, 7);
        let e8 = GemmLayout::plan_elem(&a, 128, &cfg(), 16, 1, ElemType::I8).unwrap();
        assert_eq!(e8.vl, 64, "VLEN/8 elements per register");
        assert_eq!(e8.sew(), indexmac_isa::Sew::E8);
        assert_eq!(e8.num_coltiles, 2); // ceil(128/64)
        assert_eq!(e8.row_stride_bytes, 2 * 64); // 1 byte per element
        assert_eq!(e8.c_row_stride_bytes, 2 * 64 * 4); // i32 accumulator
        let e16 = GemmLayout::plan_elem(&a, 128, &cfg(), 16, 1, ElemType::I16).unwrap();
        assert_eq!(e16.vl, 32);
        assert_eq!(e16.num_coltiles, 4);
        assert_eq!(e16.row_stride_bytes, 4 * 32 * 2);
        // f32 plan_elem == plan_grouped == plan.
        let f = GemmLayout::plan_elem(&a, 128, &cfg(), 16, 1, ElemType::F32).unwrap();
        assert_eq!(f, GemmLayout::plan(&a, 128, &cfg(), 16).unwrap());
        assert_eq!(f.c_row_stride_bytes, f.row_stride_bytes);
    }

    #[test]
    fn elem_plan_rejects_overwide_accumulator_groups() {
        use indexmac_sparse::ElemType;
        let a = prune::random_structured(4, 32, NmPattern::P1_4, 1);
        // e8 widens 4×: any grouping beyond m1 overflows m4.
        assert!(matches!(
            GemmLayout::plan_elem(&a, 64, &cfg(), 8, 2, ElemType::I8),
            Err(KernelError::BadGrouping { .. })
        ));
        // e16 widens 2×: m2 is the limit.
        assert!(GemmLayout::plan_elem(&a, 64, &cfg(), 8, 2, ElemType::I16).is_ok());
        assert!(matches!(
            GemmLayout::plan_elem(&a, 64, &cfg(), 4, 4, ElemType::I16),
            Err(KernelError::BadGrouping { .. })
        ));
        // f32 keeps the full m4 range.
        assert!(GemmLayout::plan_elem(&a, 64, &cfg(), 4, 4, ElemType::F32).is_ok());
    }

    #[test]
    fn quantized_operands_pack_to_element_width() {
        use indexmac_sparse::{quant, ElemType};
        let a = quant::random_structured_int(3, 16, NmPattern::P1_4, 9, ElemType::I8);
        let b = quant::random_dense_int(16, 64, 10, ElemType::I8);
        let l = GemmLayout::plan_elem(&a, 64, &cfg(), 8, 1, ElemType::I8).unwrap();
        let mut mem = MainMemory::new();
        l.write_operands(&a, &b, &mut mem);
        // B rows round-trip through 1-byte elements.
        for k in 0..16 {
            for c in 0..64 {
                assert_eq!(
                    mem.read_u8(l.b_addr(k, c)) as i8 as i32,
                    quant::slot_to_i32(b.get(k, c)),
                    "B[{k},{c}]"
                );
            }
        }
        // Metadata packs to 1 byte per slot: values are i8, vregs fit u8.
        assert_eq!(l.meta_ktile_stride_bytes(), l.slots_per_tile as u64);
        for slot in 0..l.slots_per_tile {
            let vreg = mem.read_u8(l.colidx_vregs_addr(0, 0) + slot as u64);
            assert!((l.tile_vreg_base..32).contains(&vreg));
        }
        // C starts zeroed in the i32 domain.
        assert!(l.read_c_i32(&mem).as_slice().iter().all(|v| *v == 0));
    }
}
