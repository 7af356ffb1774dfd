//! L3–L4 filter with an iptables-style front end (§4.1).
//!
//! "We provide a tool that emulates the command-line parameter interface
//! of iptables. Instead of modifying a Linux server's filters, it
//! generates code that slots into our learning switch. This turns the
//! switch into a L3 filter over sets of IP addresses or protocols (ICMP,
//! UDP, and TCP), or an L4 filter over ranges of TCP or UDP ports."
//!
//! `parse_rule` accepts a subset of iptables syntax; [`filter_switch`]
//! compiles the rule chain into match expressions inserted ahead of the
//! learning switch's forwarding decision — code generation, exactly as
//! the paper's tool does.

use crate::switch::mac_table_env;
use emu_core::ipblock::CamIf;
use emu_core::proto::Ipv4Wrapper;
use emu_core::{service_builder, Service};
use emu_types::proto::{ether_type, ip_proto, offset};
use emu_types::Ipv4;
use kiwi_ir::dsl::*;
use kiwi_ir::Expr;

/// Rule verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterAction {
    /// Forward normally.
    Accept,
    /// Silently discard.
    Drop,
}

/// One filter rule: all present conditions must match (conjunction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterRule {
    /// Verdict when the rule matches.
    pub action: FilterAction,
    /// IP protocol constraint.
    pub proto: Option<u8>,
    /// Source subnet constraint.
    pub src: Option<(Ipv4, u8)>,
    /// Destination subnet constraint.
    pub dst: Option<(Ipv4, u8)>,
    /// Source port range (TCP/UDP only).
    pub sport: Option<(u16, u16)>,
    /// Destination port range (TCP/UDP only).
    pub dport: Option<(u16, u16)>,
}

impl FilterRule {
    /// An empty (match-all) rule with the given action.
    pub fn any(action: FilterAction) -> Self {
        FilterRule {
            action,
            proto: None,
            src: None,
            dst: None,
            sport: None,
            dport: None,
        }
    }
}

fn parse_subnet(s: &str) -> Result<(Ipv4, u8), String> {
    let (ip, len) = match s.split_once('/') {
        Some((ip, len)) => (ip, len.parse::<u8>().map_err(|e| e.to_string())?),
        None => (s, 32),
    };
    if len > 32 {
        return Err(format!("prefix length {len} out of range"));
    }
    Ok((
        ip.parse()
            .map_err(|e: emu_types::AddrParseError| e.to_string())?,
        len,
    ))
}

fn parse_ports(s: &str) -> Result<(u16, u16), String> {
    let (lo, hi) = match s.split_once(':') {
        Some((lo, hi)) => (
            lo.parse::<u16>().map_err(|e| e.to_string())?,
            hi.parse::<u16>().map_err(|e| e.to_string())?,
        ),
        None => {
            let p = s.parse::<u16>().map_err(|e| e.to_string())?;
            (p, p)
        }
    };
    if lo > hi {
        return Err(format!("inverted port range {lo}:{hi}"));
    }
    Ok((lo, hi))
}

/// Parses one iptables-style rule, e.g.
/// `-A FORWARD -p tcp -s 10.0.0.0/8 --dport 80:443 -j DROP`.
pub(crate) fn parse_rule(line: &str) -> Result<FilterRule, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let mut rule = FilterRule::any(FilterAction::Accept);
    let mut i = 0;
    let mut have_action = false;
    while i < toks.len() {
        let need = |i: usize| -> Result<&str, String> {
            toks.get(i + 1)
                .copied()
                .ok_or_else(|| format!("{} needs an argument", toks[i]))
        };
        match toks[i] {
            "-A" => {
                // Chain name accepted and ignored (single chain here).
                let _ = need(i)?;
                i += 2;
            }
            "-p" => {
                rule.proto = Some(match need(i)? {
                    "icmp" => ip_proto::ICMP,
                    "tcp" => ip_proto::TCP,
                    "udp" => ip_proto::UDP,
                    other => return Err(format!("unknown protocol {other}")),
                });
                i += 2;
            }
            "-s" => {
                rule.src = Some(parse_subnet(need(i)?)?);
                i += 2;
            }
            "-d" => {
                rule.dst = Some(parse_subnet(need(i)?)?);
                i += 2;
            }
            "--sport" => {
                rule.sport = Some(parse_ports(need(i)?)?);
                i += 2;
            }
            "--dport" => {
                rule.dport = Some(parse_ports(need(i)?)?);
                i += 2;
            }
            "-j" => {
                rule.action = match need(i)? {
                    "DROP" => FilterAction::Drop,
                    "ACCEPT" => FilterAction::Accept,
                    other => return Err(format!("unknown target {other}")),
                };
                have_action = true;
                i += 2;
            }
            other => return Err(format!("unknown token {other}")),
        }
    }
    if !have_action {
        return Err("rule needs -j ACCEPT|DROP".into());
    }
    if (rule.sport.is_some() || rule.dport.is_some())
        && !matches!(rule.proto, Some(p) if p == ip_proto::TCP || p == ip_proto::UDP)
    {
        return Err("port matches require -p tcp or -p udp".into());
    }
    Ok(rule)
}

/// Compiles a rule into a 1-bit match expression over the frame.
fn rule_match_expr(rule: &FilterRule, dp: &emu_core::Dataplane, ip: &Ipv4Wrapper) -> Expr {
    // Non-IPv4 frames never match L3/L4 rules.
    let mut cond = dp.ethertype_is(ether_type::IPV4);
    if let Some(p) = rule.proto {
        cond = band(cond, ip.protocol_is(p));
    }
    let subnet = |addr: Expr, (net, len): (Ipv4, u8)| -> Expr {
        if len == 0 {
            return tru();
        }
        let mask = if len == 32 {
            u32::MAX
        } else {
            u32::MAX << (32 - u32::from(len))
        };
        eq(
            band(addr, lit(u64::from(mask), 32)),
            lit(u64::from(net.0 & mask), 32),
        )
    };
    if let Some(s) = rule.src {
        cond = band(cond, subnet(ip.src(), s));
    }
    if let Some(d) = rule.dst {
        cond = band(cond, subnet(ip.dst(), d));
    }
    // L4 ports live at the same offsets for TCP and UDP.
    if let Some((lo, hi)) = rule.sport {
        let sp = dp.get16(offset::L4);
        cond = band(
            cond,
            band(
                ge(sp.clone(), lit(u64::from(lo), 16)),
                le(sp, lit(u64::from(hi), 16)),
            ),
        );
    }
    if let Some((lo, hi)) = rule.dport {
        let dpn = dp.get16(offset::L4 + 2);
        cond = band(
            cond,
            band(
                ge(dpn.clone(), lit(u64::from(lo), 16)),
                le(dpn, lit(u64::from(hi), 16)),
            ),
        );
    }
    cond
}

/// Builds a learning switch with the rule chain compiled in front of the
/// forwarding decision (first matching rule wins; `default` applies when
/// none match).
pub fn filter_switch(rules: &[FilterRule], default: FilterAction) -> Service {
    let (mut pb, dp) = service_builder("emu_l3l4_filter", 1536);
    let ip = Ipv4Wrapper::new(dp);
    let cam = CamIf::declare(&mut pb, "cam", 48, 8);
    let dst_hit = pb.reg("dstmac_lut_hit", 1);
    let lut_port = pb.reg("lut_element_op", 8);
    let src_exist = pb.reg("srcmac_lut_exist", 1);
    let drop_it = pb.reg("drop_it", 1);
    let n_dropped = pb.reg("n_dropped", 32);

    // First-match-wins chain, folded from the back: default ← rule_n ←
    // ... ← rule_0.
    let mut verdict: Expr = match default {
        FilterAction::Drop => tru(),
        FilterAction::Accept => fls(),
    };
    for rule in rules.iter().rev() {
        let bit = match rule.action {
            FilterAction::Drop => tru(),
            FilterAction::Accept => fls(),
        };
        verdict = mux(rule_match_expr(rule, &dp, &ip), bit, verdict);
    }

    let mut forward = Vec::new();
    forward.extend(cam.lookup(dp.dst_mac()));
    forward.push(assign(dst_hit, cam.matched()));
    forward.push(assign(lut_port, cam.value()));
    forward.push(if_else(
        var(dst_hit),
        vec![dp.set_output_port(resize(var(lut_port), 8))],
        vec![dp.broadcast()],
    ));
    forward.extend(dp.transmit(dp.rx_len()));
    forward.extend(cam.lookup(dp.src_mac()));
    forward.push(assign(src_exist, cam.matched()));
    forward.push(if_then(
        lnot(var(src_exist)),
        cam.write(dp.src_mac(), resize(dp.input_port(), 8)),
    ));

    let mut body = vec![dp.rx_wait(), label("rx")];
    body.push(assign(drop_it, verdict));
    body.push(if_else(
        var(drop_it),
        vec![assign(n_dropped, add(var(n_dropped), lit(1, 32)))],
        forward,
    ));
    body.extend(dp.done());

    pb.thread("main", vec![forever(body)]);
    let prog = pb.build().expect("filter program is well-formed");
    Service::with_sized_env(prog, move |cfg| mac_table_env(&cam, cfg))
}

/// Parses a list of rule lines and builds the filter switch.
pub fn filter_switch_from_lines(lines: &[&str], default: FilterAction) -> Result<Service, String> {
    let rules = lines
        .iter()
        .map(|l| parse_rule(l))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(filter_switch(&rules, default))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::udp_frame;
    use crate::tcp_ping::syn_frame;
    use emu_core::Target;

    #[test]
    fn parse_full_rule() {
        let r = parse_rule("-A FORWARD -p tcp -s 10.0.0.0/8 --dport 80:443 -j DROP").unwrap();
        assert_eq!(r.action, FilterAction::Drop);
        assert_eq!(r.proto, Some(ip_proto::TCP));
        assert_eq!(r.src, Some(("10.0.0.0".parse().unwrap(), 8)));
        assert_eq!(r.dport, Some((80, 443)));
        assert_eq!(r.sport, None);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_rule("-p tcp").is_err()); // no action
        assert!(parse_rule("-p sctp -j DROP").is_err());
        assert!(parse_rule("--dport 80 -j DROP").is_err()); // port without tcp/udp
        assert!(parse_rule("-s 10.0.0.0/40 -j DROP").is_err());
        assert!(parse_rule("--dport 90:80 -p tcp -j DROP").is_err());
        assert!(parse_rule("-x nonsense -j DROP").is_err());
        assert!(parse_rule("-j REJECT").is_err());
    }

    #[test]
    fn single_port_shorthand() {
        let r = parse_rule("-p udp --dport 53 -j DROP").unwrap();
        assert_eq!(r.dport, Some((53, 53)));
    }

    #[test]
    fn table_config_reaches_the_mac_table() {
        // The filter learns into the switch's MAC table, so the engine's
        // table sizing and aging must reach it: five stations overflow a
        // 4-entry table, and a 2-frame TTL ages the first ones out.
        let svc = filter_switch(&[], FilterAction::Accept);
        let mut small = svc.engine(Target::Cpu).table_entries(4).build().unwrap();
        let mut aged = svc.engine(Target::Cpu).ttl_frames(2).build().unwrap();
        for station in 1..=5 {
            let src = emu_types::MacAddr::from_u64(station);
            let dst = emu_types::MacAddr::from_u64(0xFF);
            let f = emu_types::Frame::ethernet(dst, src, ether_type::IPV4, &[0; 46]);
            small.process(&f).unwrap();
            aged.process(&f).unwrap();
        }
        let cam = |e: &emu_core::Engine| e.telemetry().unwrap().total().cams[0].clone();
        assert_eq!(cam(&small).capacity, 4);
        assert!(cam(&small).evictions > 0, "{:?}", cam(&small));
        assert!(cam(&aged).expiries > 0, "{:?}", cam(&aged));
    }

    #[test]
    fn drops_matching_tcp_port_range() {
        let svc = filter_switch_from_lines(
            &["-A FORWARD -p tcp --dport 80:443 -j DROP"],
            FilterAction::Accept,
        )
        .unwrap();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        // Port 80: dropped.
        assert!(inst.process(&syn_frame(4000, 80, 1)).unwrap().tx.is_empty());
        // Port 443: dropped (range inclusive).
        assert!(inst
            .process(&syn_frame(4000, 443, 1))
            .unwrap()
            .tx
            .is_empty());
        // Port 22: forwarded.
        assert_eq!(inst.process(&syn_frame(4000, 22, 1)).unwrap().tx.len(), 1);
        assert_eq!(inst.read_reg("n_dropped").unwrap().to_u64(), 2);
    }

    #[test]
    fn subnet_match_drops_source() {
        let svc = filter_switch_from_lines(
            &["-A FORWARD -s 192.168.0.0/16 -j DROP"],
            FilterAction::Accept,
        )
        .unwrap();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let inside = udp_frame(
            "192.168.9.9".parse().unwrap(),
            1,
            "1.1.1.1".parse().unwrap(),
            2,
            0,
        );
        let outside = udp_frame(
            "172.16.0.1".parse().unwrap(),
            1,
            "1.1.1.1".parse().unwrap(),
            2,
            0,
        );
        assert!(inst.process(&inside).unwrap().tx.is_empty());
        assert_eq!(inst.process(&outside).unwrap().tx.len(), 1);
    }

    #[test]
    fn first_match_wins() {
        // Accept ICMP explicitly, then drop everything from 10/8: an ICMP
        // packet from 10.1.1.1 must pass.
        let svc = filter_switch_from_lines(
            &[
                "-A FORWARD -p icmp -j ACCEPT",
                "-A FORWARD -s 10.0.0.0/8 -j DROP",
            ],
            FilterAction::Accept,
        )
        .unwrap();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let ping = crate::icmp::echo_request_frame(8, 1); // src 10.0.0.1
        assert_eq!(inst.process(&ping).unwrap().tx.len(), 1, "ICMP accepted");
        let udp = udp_frame(
            "10.0.0.1".parse().unwrap(),
            5,
            "1.1.1.1".parse().unwrap(),
            6,
            0,
        );
        assert!(
            inst.process(&udp).unwrap().tx.is_empty(),
            "UDP from 10/8 dropped"
        );
    }

    #[test]
    fn default_drop_policy() {
        let svc =
            filter_switch_from_lines(&["-A FORWARD -p udp -j ACCEPT"], FilterAction::Drop).unwrap();
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let udp = udp_frame(
            "1.2.3.4".parse().unwrap(),
            5,
            "5.6.7.8".parse().unwrap(),
            6,
            0,
        );
        assert_eq!(inst.process(&udp).unwrap().tx.len(), 1);
        assert!(inst.process(&syn_frame(1, 2, 3)).unwrap().tx.is_empty());
        // Non-IPv4 also hits the default.
        let arp = emu_types::Frame::ethernet(
            emu_types::MacAddr::BROADCAST,
            emu_types::MacAddr::from_u64(9),
            ether_type::ARP,
            &[0; 46],
        );
        assert!(inst.process(&arp).unwrap().tx.is_empty());
    }

    #[test]
    fn still_a_learning_switch() {
        let svc = filter_switch(&[], FilterAction::Accept);
        let mut inst = svc.engine(Target::Fpga).build().unwrap();
        let mut a = udp_frame(
            "1.1.1.1".parse().unwrap(),
            1,
            "2.2.2.2".parse().unwrap(),
            2,
            0,
        );
        let out = inst.process(&a).unwrap();
        assert_eq!(out.tx[0].ports, 0b1110, "unknown dst floods");
        // Teach it the reverse direction and check unicast.
        let mut b = a.clone();
        {
            let bytes = b.bytes_mut();
            // Swap MACs so the reply goes to the learned address.
            let (dst, src): (Vec<u8>, Vec<u8>) = (bytes[0..6].to_vec(), bytes[6..12].to_vec());
            bytes[0..6].copy_from_slice(&src);
            bytes[6..12].copy_from_slice(&dst);
        }
        b.in_port = 3;
        let out = inst.process(&b).unwrap();
        assert_eq!(out.tx[0].ports, 1 << 0);
        let _ = &mut a;
    }
}
