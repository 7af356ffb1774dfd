//! The IP-block port handles of the Emu standard library: CAM,
//! streaming hash, and the Figure 9 LRU cache.
//!
//! §3.4: "While C# provides an easy development environment, to maximize
//! the performance of a design it is sometimes recommended to use
//! specialized IP blocks... These blocks are accessible through the
//! facilities of Kiwi." A handle's `declare` adds the block's boundary
//! signals to the program and returns their ids; the service generates
//! the block's protocol statements from the handle and builds the
//! block's behavioural model from the same handle in its environment
//! recipe, so ports are bound once, when the program is written.
//!
//! The handles are defined beside their models in `emu_rtl::ipblocks`
//! — the one place that says what each block's ports are — and
//! re-exported here because a service author reaches for them next to
//! [`crate::Dataplane`] and the protocol wrappers.

pub use emu_rtl::ipblocks::{CamDeleteIf, CamIf, HashIf, LruIf, NaughtyQIf};

#[cfg(test)]
mod tests {
    use super::*;
    use emu_rtl::{CamModel, IpEnv, NaughtyQModel, PearsonHashModel};
    use kiwi_ir::dsl::*;
    use kiwi_ir::interp::NullObserver;
    use kiwi_ir::ProgramBuilder;
    use kiwi_ir::{Code, Core, VarId};

    #[test]
    fn cam_if_round_trip_on_rtl() {
        let mut pb = ProgramBuilder::new("t");
        let cam = CamIf::declare(&mut pb, "cam", 48, 16);
        let m = pb.reg("m", 1);
        let v = pb.reg("v", 16);
        let mut body = cam.write(lit(0xABCD, 48), lit(321, 16));
        body.extend(cam.lookup(lit(0xABCD, 48)));
        body.push(assign(m, cam.matched()));
        body.push(assign(v, cam.value()));
        body.push(halt());
        pb.thread("main", body);
        let prog = pb.build().unwrap();
        let mut rtl = Core::new(Code::Fpga(kiwi::compile(&prog).unwrap()));
        let mut env = IpEnv::new();
        env.attach(Box::new(CamModel::new(&cam, 8, false)));
        rtl.run_cycles(50, &mut env, &mut NullObserver).unwrap();
        assert!(rtl.halted());
        assert_eq!(rtl.state().reg(VarId(0)).to_u64(), 1);
        assert_eq!(rtl.state().reg(VarId(1)).to_u64(), 321);
    }

    #[test]
    fn hash_if_digest_matches_reference() {
        let mut pb = ProgramBuilder::new("t");
        let h = HashIf::declare(&mut pb, "h");
        let d = pb.reg("d", 8);
        let mut body = h.seed(lit(7, 8));
        for byte in b"net" {
            body.extend(h.feed(lit(u64::from(*byte), 8)));
        }
        body.push(assign(d, h.digest()));
        body.push(halt());
        pb.thread("main", body);
        let prog = pb.build().unwrap();
        let mut rtl = Core::new(Code::Fpga(kiwi::compile(&prog).unwrap()));
        let mut env = IpEnv::new();
        env.attach(Box::new(PearsonHashModel::new(&h)));
        rtl.run_cycles(100, &mut env, &mut NullObserver).unwrap();
        assert!(rtl.halted());
        let expect = emu_types::checksum::pearson8_seeded(7, b"net");
        assert_eq!(rtl.state().reg(VarId(0)).to_u64(), u64::from(expect));
    }

    #[test]
    fn lru_figure9_semantics() {
        // Cache k1→v1, k2→v2 (capacity 2), look up k1 (hit, touches it),
        // cache k3→v3 (evicts k2's slot), then: k1 still readable, k3
        // readable.
        let mut pb = ProgramBuilder::new("lru");
        let lru = LruIf::declare(&mut pb, "lru", 64, 64);
        let m = pb.reg("m", 1);
        let r = pb.reg("r", 64);
        let idx = pb.reg("idx", 16);
        let m2 = pb.reg("m2", 1);
        let r2 = pb.reg("r2", 64);

        let mut body = lru.cache(lit(1, 64), lit(0x11, 64), idx);
        body.extend(lru.cache(lit(2, 64), lit(0x22, 64), idx));
        body.extend(lru.lookup(lit(1, 64), m, r, idx));
        body.extend(lru.cache(lit(3, 64), lit(0x33, 64), idx));
        body.extend(lru.lookup(lit(3, 64), m2, r2, idx));
        body.push(halt());
        pb.thread("main", body);
        let prog = pb.build().unwrap();
        let mut rtl = Core::new(Code::Fpga(kiwi::compile(&prog).unwrap()));
        let mut env = IpEnv::new();
        env.attach(Box::new(CamModel::new(&lru.cam, 4, false)));
        env.attach(Box::new(NaughtyQModel::new(&lru.q, 2)));
        rtl.run_cycles(200, &mut env, &mut NullObserver).unwrap();
        assert!(rtl.halted());
        let st = rtl.state();
        assert_eq!(st.reg(VarId(0)).to_u64(), 1, "k1 lookup must hit");
        assert_eq!(st.reg(VarId(1)).to_u64(), 0x11);
        assert_eq!(st.reg(VarId(3)).to_u64(), 1, "k3 lookup must hit");
        assert_eq!(st.reg(VarId(4)).to_u64(), 0x33);
    }
}
