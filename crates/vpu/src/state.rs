//! Architectural state of the simulated machine.

use indexmac_isa::instr::FReg;
use indexmac_isa::{Lmul, Sew, VReg, VType, XReg};

/// Scalar register files, the vector register file and the vector CSRs.
///
/// The vector register file is **byte-addressed**: each register is
/// `VLEN/8` raw little-endian bytes, exactly the hardware's bit-typed
/// storage. Instructions view the bytes through SEW-aware *lane*
/// accessors — the same 64 bytes are 64 `e8` lanes, 32 `e16` lanes or
/// 16 `e32` lanes — so reinterpretation across `vsetvli` changes comes
/// for free, like it does in silicon.
// `PartialEq` is bit-exact: FP registers are stored as raw bits (NaN
// payloads included), so differential tests can compare whole states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    x: [u64; 32],
    f: [u32; 32],
    /// 32 vector registers × `vlen_bytes` bytes, register-major.
    vrf: Vec<u8>,
    vlen_bytes: usize,
    vl: usize,
    vtype: VType,
    /// Program counter in instruction slots.
    pub pc: usize,
    /// Set by `ebreak`.
    pub halted: bool,
}

impl ArchState {
    /// Creates a zeroed state for a machine with `vlen_bits` of VLEN.
    ///
    /// # Panics
    ///
    /// Panics if `vlen_bits` is not a positive multiple of 32.
    pub fn new(vlen_bits: usize) -> Self {
        assert!(
            vlen_bits >= 32 && vlen_bits.is_multiple_of(32),
            "VLEN must be a multiple of 32"
        );
        let vlen_bytes = vlen_bits / 8;
        Self {
            x: [0; 32],
            f: [0; 32],
            vrf: vec![0; 32 * vlen_bytes],
            vlen_bytes,
            vl: vlen_bits / 32,
            vtype: VType {
                sew: Sew::E32,
                lmul: Lmul::M1,
            },
            pc: 0,
            halted: false,
        }
    }

    /// Resets every register, CSR and the PC to the freshly-constructed
    /// state **in place** — the VRF's allocation is reused instead of
    /// reallocated, which is what lets the warm-execution path run one
    /// simulator across thousands of sweep cells without churning the
    /// allocator.
    pub fn reset(&mut self) {
        self.x = [0; 32];
        self.f = [0; 32];
        self.vrf.fill(0);
        self.vl = self.vlen_bits() / 32;
        self.vtype = VType {
            sew: Sew::E32,
            lmul: Lmul::M1,
        };
        self.pc = 0;
        self.halted = false;
    }

    /// Hardware vector length in bits.
    pub fn vlen_bits(&self) -> usize {
        self.vlen_bytes * 8
    }

    /// Lanes per single vector register at element width `sew`.
    pub fn lanes(&self, sew: Sew) -> usize {
        self.vlen_bytes / sew.bytes()
    }

    /// Maximum elements per single vector register under the **current**
    /// `vtype` SEW (16 at e32 for a 512-bit VLEN, 64 at e8).
    pub fn vlmax(&self) -> usize {
        self.lanes(self.vtype.sew)
    }

    /// Maximum elements per register *group* under the current `vtype`
    /// (`vlmax * LMUL`).
    pub fn vlmax_grouped(&self) -> usize {
        self.vlmax() * self.vtype.lmul.factor()
    }

    /// Current active vector length.
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Sets the active vector length.
    ///
    /// # Panics
    ///
    /// Panics if `vl` exceeds the grouped VLMAX of the current `vtype`
    /// (a `vsetvli` bug in the caller). Set `vtype` first when changing
    /// the grouping or element width.
    pub fn set_vl(&mut self, vl: usize) {
        assert!(
            vl <= self.vlmax_grouped(),
            "vl {vl} exceeds grouped vlmax {}",
            self.vlmax_grouped()
        );
        self.vl = vl;
    }

    /// Current vtype.
    pub fn vtype(&self) -> VType {
        self.vtype
    }

    /// Sets vtype.
    pub fn set_vtype(&mut self, vt: VType) {
        self.vtype = vt;
    }

    /// Reads a scalar register (`x0` always reads zero).
    pub fn x(&self, r: XReg) -> u64 {
        self.x[r.index() as usize]
    }

    /// Writes a scalar register (writes to `x0` are discarded).
    pub fn set_x(&mut self, r: XReg, v: u64) {
        if !r.is_zero() {
            self.x[r.index() as usize] = v;
        }
    }

    /// Reads an FP register as raw bits.
    pub fn f_bits(&self, r: FReg) -> u32 {
        self.f[r.index() as usize]
    }

    /// Reads an FP register as `f32`.
    pub fn f32(&self, r: FReg) -> f32 {
        f32::from_bits(self.f_bits(r))
    }

    /// Writes an FP register from raw bits.
    pub fn set_f_bits(&mut self, r: FReg, bits: u32) {
        self.f[r.index() as usize] = bits;
    }

    /// Borrow of a whole vector register's raw bytes.
    pub fn v_bytes(&self, r: VReg) -> &[u8] {
        self.v_group_bytes(r, 1)
    }

    /// Mutable borrow of a whole vector register's raw bytes.
    pub fn v_bytes_mut(&mut self, r: VReg) -> &mut [u8] {
        self.v_group_bytes_mut(r, 1)
    }

    /// Borrow of a register *group*'s bytes: `regs` consecutive
    /// registers starting at `r` (the VRF is register-major, so a group
    /// is one contiguous slice — exactly the hardware's LMUL view).
    ///
    /// # Panics
    ///
    /// Panics if the group runs past `v31`; grouped instructions check
    /// their operands before calling this.
    pub fn v_group_bytes(&self, r: VReg, regs: usize) -> &[u8] {
        let i = r.index() as usize;
        assert!(
            i + regs <= 32,
            "register group v{i}..v{} out of range",
            i + regs
        );
        &self.vrf[i * self.vlen_bytes..(i + regs) * self.vlen_bytes]
    }

    /// Mutable borrow of a register group's bytes (see
    /// [`ArchState::v_group_bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if the group runs past `v31`.
    pub fn v_group_bytes_mut(&mut self, r: VReg, regs: usize) -> &mut [u8] {
        let i = r.index() as usize;
        assert!(
            i + regs <= 32,
            "register group v{i}..v{} out of range",
            i + regs
        );
        &mut self.vrf[i * self.vlen_bytes..(i + regs) * self.vlen_bytes]
    }

    /// Copies `len` bytes from byte `src_off` of register `src` to the
    /// start of register `dst`. The ranges may overlap (`src == dst`),
    /// as in `memmove`, so a slide or a move needs no scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if either range runs past its register.
    pub(crate) fn copy_v_bytes(&mut self, src: VReg, src_off: usize, dst: VReg, len: usize) {
        let vb = self.vlen_bytes;
        assert!(src_off + len <= vb, "byte range outside a single register");
        let from = src.index() as usize * vb + src_off;
        self.vrf
            .copy_within(from..from + len, dst.index() as usize * vb);
    }

    /// Lane `i` of the group of `regs` registers starting at `r`, viewed
    /// at element width `sew` and zero-extended to `u32` raw bits.
    ///
    /// # Panics
    ///
    /// Panics if the lane lies outside the group or the group past `v31`.
    pub fn v_lane_group(&self, r: VReg, regs: usize, i: usize, sew: Sew) -> u32 {
        let bytes = self.v_group_bytes(r, regs);
        let eb = sew.bytes();
        let off = i * eb;
        assert!(
            off + eb <= bytes.len(),
            "lane {i} at {sew} outside v{}+{regs}",
            r.index()
        );
        match sew {
            Sew::E8 => bytes[off] as u32,
            Sew::E16 => u16::from_le_bytes([bytes[off], bytes[off + 1]]) as u32,
            Sew::E32 => u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")),
            Sew::E64 => panic!("e64 lanes are outside the modelled subset"),
        }
    }

    /// Writes lane `i` of a register group at element width `sew`,
    /// truncating `bits` to the element width.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ArchState::v_lane_group`].
    pub fn set_v_lane_group(&mut self, r: VReg, regs: usize, i: usize, sew: Sew, bits: u32) {
        let eb = sew.bytes();
        let off = i * eb;
        let bytes = self.v_group_bytes_mut(r, regs);
        assert!(
            off + eb <= bytes.len(),
            "lane {i} at {sew} outside v{}+{regs}",
            r.index()
        );
        match sew {
            Sew::E8 => bytes[off] = bits as u8,
            Sew::E16 => bytes[off..off + 2].copy_from_slice(&(bits as u16).to_le_bytes()),
            Sew::E32 => bytes[off..off + 4].copy_from_slice(&bits.to_le_bytes()),
            Sew::E64 => panic!("e64 lanes are outside the modelled subset"),
        }
    }

    /// Lane `i` of single register `r` at `sew`, zero-extended.
    pub fn v_lane(&self, r: VReg, i: usize, sew: Sew) -> u32 {
        self.v_lane_group(r, 1, i, sew)
    }

    /// Lane `i` of single register `r` at `sew`, **sign**-extended.
    pub fn v_lane_i(&self, r: VReg, i: usize, sew: Sew) -> i32 {
        sign_extend(self.v_lane(r, i, sew), sew)
    }

    /// Writes lane `i` of single register `r` at `sew` (truncating).
    pub fn set_v_lane(&mut self, r: VReg, i: usize, sew: Sew, bits: u32) {
        self.set_v_lane_group(r, 1, i, sew, bits);
    }

    /// Lane `i` of register `r` as `f32` (e32 lanes).
    pub fn v_f32(&self, r: VReg, i: usize) -> f32 {
        f32::from_bits(self.v_lane(r, i, Sew::E32))
    }

    /// The first `vl` e32 lanes of `r` as `f32` values (convenience for
    /// tests and result extraction).
    pub fn v_as_f32(&self, r: VReg) -> Vec<f32> {
        (0..self.vl).map(|i| self.v_f32(r, i)).collect()
    }

    /// Writes `f32` values into the first e32 lanes of `r` (test helper).
    ///
    /// # Panics
    ///
    /// Panics if more values than the register's e32 lanes are supplied.
    pub fn set_v_f32(&mut self, r: VReg, values: &[f32]) {
        assert!(values.len() <= self.lanes(Sew::E32), "too many lanes");
        for (i, v) in values.iter().enumerate() {
            self.set_v_lane(r, i, Sew::E32, v.to_bits());
        }
    }
}

/// Sign-extends `bits` from the `sew` element width to `i32`.
pub fn sign_extend(bits: u32, sew: Sew) -> i32 {
    match sew {
        Sew::E8 => bits as u8 as i8 as i32,
        Sew::E16 => bits as u16 as i16 as i32,
        Sew::E32 => bits as i32,
        Sew::E64 => panic!("e64 lanes are outside the modelled subset"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_in_place_equals_fresh_state() {
        let mut s = ArchState::new(512);
        s.set_x(XReg::T0, 99);
        s.set_f_bits(FReg::F1, 0xABCD);
        s.set_vtype(VType {
            sew: Sew::E8,
            lmul: Lmul::M2,
        });
        s.set_vl(128);
        s.set_v_lane(VReg::V7, 3, Sew::E8, 0x5A);
        s.pc = 17;
        s.halted = true;
        s.reset();
        let fresh = ArchState::new(512);
        assert_eq!(s.x(XReg::T0), 0);
        assert_eq!(s.f_bits(FReg::F1), 0);
        assert_eq!(s.vl(), fresh.vl());
        assert_eq!(s.vtype(), fresh.vtype());
        assert_eq!(s.v_bytes(VReg::V7), fresh.v_bytes(VReg::V7));
        assert_eq!(s.pc, 0);
        assert!(!s.halted);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut s = ArchState::new(512);
        s.set_x(XReg::ZERO, 123);
        assert_eq!(s.x(XReg::ZERO), 0);
        s.set_x(XReg::T0, 7);
        assert_eq!(s.x(XReg::T0), 7);
    }

    #[test]
    fn vrf_layout() {
        let mut s = ArchState::new(512);
        assert_eq!(s.vlmax(), 16);
        assert_eq!(s.v_bytes(VReg::V1).len(), 64);
        s.set_v_lane(VReg::V2, 3, Sew::E32, 0xAA);
        assert_eq!(s.v_lane(VReg::V2, 3, Sew::E32), 0xAA);
        assert_eq!(s.v_lane(VReg::V1, 3, Sew::E32), 0); // no aliasing
        assert_eq!(s.v_lane(VReg::V3, 3, Sew::E32), 0);
    }

    #[test]
    fn lane_roundtrips_at_every_sew() {
        let mut s = ArchState::new(256);
        for (sew, lanes) in [(Sew::E8, 32), (Sew::E16, 16), (Sew::E32, 8)] {
            assert_eq!(s.lanes(sew), lanes);
            for i in 0..lanes {
                let v = (i as u32).wrapping_mul(0x0101_0103) & (0xFFFF_FFFF >> (32 - sew.bits()));
                s.set_v_lane(VReg::V5, i, sew, v);
                assert_eq!(s.v_lane(VReg::V5, i, sew), v, "{sew} lane {i}");
            }
        }
    }

    #[test]
    fn lane_writes_truncate_to_element_width() {
        let mut s = ArchState::new(512);
        s.set_v_lane(VReg::V1, 0, Sew::E8, 0x1FF);
        assert_eq!(s.v_lane(VReg::V1, 0, Sew::E8), 0xFF);
        assert_eq!(
            s.v_lane(VReg::V1, 1, Sew::E8),
            0,
            "neighbour lane untouched"
        );
        s.set_v_lane(VReg::V1, 0, Sew::E16, 0xABCD_1234);
        assert_eq!(s.v_lane(VReg::V1, 0, Sew::E16), 0x1234);
    }

    #[test]
    fn sew_reinterpretation_is_little_endian() {
        // One e32 write is visible as 4 e8 lanes / 2 e16 lanes in
        // little-endian order — the hardware's bit-typed VRF aliasing.
        let mut s = ArchState::new(512);
        s.set_v_lane(VReg::V7, 1, Sew::E32, 0xDDCC_BBAA);
        assert_eq!(s.v_lane(VReg::V7, 4, Sew::E8), 0xAA);
        assert_eq!(s.v_lane(VReg::V7, 5, Sew::E8), 0xBB);
        assert_eq!(s.v_lane(VReg::V7, 6, Sew::E8), 0xCC);
        assert_eq!(s.v_lane(VReg::V7, 7, Sew::E8), 0xDD);
        assert_eq!(s.v_lane(VReg::V7, 2, Sew::E16), 0xBBAA);
        assert_eq!(s.v_lane(VReg::V7, 3, Sew::E16), 0xDDCC);
    }

    #[test]
    fn sign_extension_views() {
        let mut s = ArchState::new(512);
        s.set_v_lane(VReg::V3, 0, Sew::E8, 0x80);
        s.set_v_lane(VReg::V3, 1, Sew::E8, 0x7F);
        assert_eq!(s.v_lane_i(VReg::V3, 0, Sew::E8), -128);
        assert_eq!(s.v_lane_i(VReg::V3, 1, Sew::E8), 127);
        s.set_v_lane(VReg::V3, 4, Sew::E16, 0xFFFE);
        assert_eq!(s.v_lane_i(VReg::V3, 4, Sew::E16), -2);
        s.set_v_lane(VReg::V3, 3, Sew::E32, u32::MAX);
        assert_eq!(s.v_lane_i(VReg::V3, 3, Sew::E32), -1);
    }

    #[test]
    fn f32_lane_views() {
        let mut s = ArchState::new(256);
        assert_eq!(s.vlmax(), 8);
        s.set_v_f32(VReg::V4, &[1.5, -2.0]);
        assert_eq!(s.v_f32(VReg::V4, 0), 1.5);
        assert_eq!(s.v_f32(VReg::V4, 1), -2.0);
        s.set_vl(2);
        assert_eq!(s.v_as_f32(VReg::V4), vec![1.5, -2.0]);
    }

    #[test]
    fn fp_registers_are_bit_exact() {
        let mut s = ArchState::new(512);
        s.set_f_bits(FReg::F1, f32::NAN.to_bits());
        assert!(s.f32(FReg::F1).is_nan());
    }

    #[test]
    #[should_panic(expected = "exceeds grouped vlmax")]
    fn set_vl_validates() {
        let mut s = ArchState::new(512);
        s.set_vl(17);
    }

    #[test]
    fn vlmax_tracks_the_selected_sew() {
        let mut s = ArchState::new(512);
        assert_eq!(s.vlmax(), 16);
        s.set_vtype(VType {
            sew: Sew::E8,
            lmul: Lmul::M1,
        });
        assert_eq!(s.vlmax(), 64);
        assert_eq!(s.vlmax_grouped(), 64);
        s.set_vl(64); // legal at e8
        s.set_vtype(VType {
            sew: Sew::E16,
            lmul: Lmul::M2,
        });
        assert_eq!(s.vlmax(), 32);
        assert_eq!(s.vlmax_grouped(), 64);
    }

    #[test]
    fn grouped_vl_and_group_views() {
        let mut s = ArchState::new(512);
        s.set_vtype(VType {
            sew: Sew::E32,
            lmul: Lmul::M2,
        });
        assert_eq!(s.vlmax_grouped(), 32);
        s.set_vl(32); // legal under m2
        s.set_v_lane(VReg::V4, 15, Sew::E32, 0xA);
        s.set_v_lane(VReg::V5, 0, Sew::E32, 0xB);
        // The group view of v4v5 is contiguous: lane 16 is v5[0].
        assert_eq!(s.v_lane_group(VReg::V4, 2, 15, Sew::E32), 0xA);
        assert_eq!(s.v_lane_group(VReg::V4, 2, 16, Sew::E32), 0xB);
        s.set_v_lane_group(VReg::V4, 2, 31, Sew::E32, 0xC);
        assert_eq!(s.v_lane(VReg::V5, 15, Sew::E32), 0xC);
        // The same group holds 4x as many e8 lanes.
        assert_eq!(s.v_lane_group(VReg::V4, 2, 64, Sew::E8), 0xB);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn group_past_v31_panics() {
        let s = ArchState::new(512);
        let _ = s.v_group_bytes(VReg::new(31), 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn lane_past_group_panics() {
        let s = ArchState::new(512);
        let _ = s.v_lane_group(VReg::V0, 1, 16, Sew::E32);
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn vlen_validated() {
        let _ = ArchState::new(100);
    }
}
