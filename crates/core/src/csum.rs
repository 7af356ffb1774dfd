//! IR-level Internet checksum helpers.
//!
//! Checksums are where hardware network functions most often go wrong —
//! the paper's own debugging walkthrough (§5.5) chased "a bug in the
//! checksum implementation" with direction packets. These helpers generate
//! expression trees computing the RFC 1071/1624 arithmetic, so that the
//! hardware and software targets produce bit-identical results (the
//! software reference lives in `emu_types::checksum`, and property tests
//! pin the two together).

use kiwi_ir::dsl::*;
use kiwi_ir::Expr;

/// Ones-complement of a 16-bit value, as a 16-bit expression.
pub(crate) fn not16(e: Expr) -> Expr {
    resize(not(resize(e, 16)), 16)
}

/// Folds a ≤32-bit ones-complement accumulator into 16 bits.
///
/// Two folding rounds suffice for sums of ≤ 2^16 words, mirroring the
/// classic `while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16)`.
pub fn fold16(acc: Expr) -> Expr {
    let acc = resize(acc, 32);
    let once = add(band(acc.clone(), lit(0xffff, 32)), shr(acc, lit(16, 8)));
    let twice = add(band(once.clone(), lit(0xffff, 32)), shr(once, lit(16, 8)));
    resize(twice, 16)
}

/// RFC 1624 incremental update: the new checksum after a 16-bit word
/// changes from `m_old` to `m_new` under checksum `old` —
/// `HC' = ~(~HC + ~m + m')`.
pub fn csum_update_word(old: Expr, m_old: Expr, m_new: Expr) -> Expr {
    let sum = add(
        add(resize(not16(old), 32), resize(not16(m_old), 32)),
        resize(m_new, 32),
    );
    not16(fold16(sum))
}

/// Incremental update for a 32-bit field change (e.g. a NAT address
/// rewrite): applies [`csum_update_word`] to both halves.
pub fn csum_update_u32(old: Expr, v_old: Expr, v_new: Expr) -> Expr {
    let hi = csum_update_word(
        old,
        slice(v_old.clone(), 31, 16),
        slice(v_new.clone(), 31, 16),
    );
    csum_update_word(hi, slice(v_old, 15, 0), slice(v_new, 15, 0))
}

/// Sums a list of 16-bit word expressions and returns the final Internet
/// checksum (`~fold(Σ)`), as a tree of adds — one cycle of combinational
/// logic for a fixed header, the way a hardware checksum unit computes it.
pub fn csum_of_words<I: IntoIterator<Item = Expr>>(words: I) -> Expr {
    let mut acc: Option<Expr> = None;
    for w in words {
        let w32 = resize(w, 32);
        acc = Some(match acc {
            None => w32,
            Some(a) => add(a, w32),
        });
    }
    let acc = acc.expect("csum_of_words needs at least one word");
    not16(fold16(acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_types::checksum;
    use kiwi_ir::interp::{eval, MachineState};
    use kiwi_ir::ProgramBuilder;

    fn eval_const(e: &Expr) -> u64 {
        let prog = ProgramBuilder::new("t").build().unwrap();
        eval(e, &MachineState::init(&prog)).to_u64()
    }

    #[test]
    fn fold16_matches_reference() {
        for acc in [0u32, 0xffff, 0x1_0000, 0x2_ddf0, 0xffff_ffff] {
            let mut r = acc;
            while r >> 16 != 0 {
                r = (r & 0xffff) + (r >> 16);
            }
            let got = eval_const(&fold16(lit(u64::from(acc), 32)));
            assert_eq!(got, u64::from(r), "acc {acc:#x}");
        }
    }

    #[test]
    fn update_word_matches_software() {
        let cases = [
            (0x1234u16, 0xabcd_u16, 0x0000_u16),
            (0xb861, 0x0a00, 0xc0a8),
            (0x0000, 0xffff, 0x0001),
            (0xffff, 0x0000, 0x0000),
        ];
        for (old, m, m2) in cases {
            let expect = checksum::update_word(old, m, m2);
            let got = eval_const(&csum_update_word(
                lit(u64::from(old), 16),
                lit(u64::from(m), 16),
                lit(u64::from(m2), 16),
            ));
            assert_eq!(got, u64::from(expect), "case {old:#x} {m:#x} {m2:#x}");
        }
    }

    #[test]
    fn update_u32_matches_software() {
        let old = 0xb861u16;
        let a = 0x0a00_0001u32;
        let b = 0xc0a8_0105u32;
        let expect = checksum::update_u32(old, a, b);
        let got = eval_const(&csum_update_u32(
            lit(u64::from(old), 16),
            lit(u64::from(a), 32),
            lit(u64::from(b), 32),
        ));
        assert_eq!(got, u64::from(expect));
    }

    #[test]
    fn csum_of_words_matches_bytes() {
        // The classic IPv4 header example, checksum field zeroed.
        let hdr: [u16; 10] = [
            0x4500, 0x0073, 0x0000, 0x4000, 0x4011, 0x0000, 0xc0a8, 0x0001, 0xc0a8, 0x00c7,
        ];
        let bytes: Vec<u8> = hdr.iter().flat_map(|w| w.to_be_bytes()).collect();
        let expect = checksum::internet_checksum(&bytes);
        let got = eval_const(&csum_of_words(hdr.iter().map(|&w| lit(u64::from(w), 16))));
        assert_eq!(got, u64::from(expect));
        assert_eq!(got, 0xb861);
    }

    /// Nodes of `e`, each counted once however many parents share it.
    fn distinct_nodes(e: &Expr) -> usize {
        fn walk(e: &Expr, seen: &mut std::collections::HashSet<*const Expr>) {
            if !seen.insert(e) {
                return;
            }
            match e {
                Expr::Const(_) | Expr::Var(_) | Expr::SigRead(_) => {}
                Expr::ArrRead(_, x) | Expr::Un(_, x) | Expr::Slice(x, ..) | Expr::Resize(x, _) => {
                    walk(x, seen)
                }
                Expr::Bin(_, l, r) | Expr::Concat(l, r) => {
                    walk(l, seen);
                    walk(r, seen);
                }
                Expr::Mux(c, t, f) => {
                    walk(c, seen);
                    walk(t, seen);
                    walk(f, seen);
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        walk(e, &mut seen);
        seen.len()
    }

    #[test]
    fn chained_updates_share_their_operands() {
        // `fold16` uses its accumulator four times, so each link of a
        // chain of updates holds four copies of the chain below it: the
        // tree grows fourfold per link, the shared nodes by a constant.
        let chain = |links: u64| {
            (0..links).fold(lit(0xb861, 16), |c, k| {
                csum_update_word(c, lit(k, 16), lit(k + 1, 16))
            })
        };
        let distinct: Vec<usize> = (1..=5).map(|n| distinct_nodes(&chain(n))).collect();
        let per_link = distinct[1] - distinct[0];
        for w in distinct.windows(2) {
            assert_eq!(w[1] - w[0], per_link, "distinct nodes {distinct:?}");
        }
        let mut expanded = 0;
        chain(5).visit(&mut |_| expanded += 1);
        assert!(expanded > 100 * distinct[4], "{expanded} vs {distinct:?}");
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn empty_word_list_panics() {
        let _ = csum_of_words([]);
    }
}
