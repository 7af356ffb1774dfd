//! Link-layer and network-layer address types.

use std::fmt;
use std::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use emu_types::MacAddr;
///
/// let m: MacAddr = "02:00:00:00:00:01".parse().unwrap();
/// assert_eq!(m.to_u64(), 0x0200_0000_0001);
/// assert_ne!(m, MacAddr::BROADCAST);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Builds an address from the low 48 bits of `v`.
    pub fn from_u64(v: u64) -> Self {
        let b = v.to_be_bytes();
        MacAddr([b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Returns the address as the low 48 bits of a `u64`.
    pub fn to_u64(self) -> u64 {
        let b = self.0;
        u64::from_be_bytes([0, 0, b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// Returns the raw octets.
    pub fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Error parsing an address from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for MacAddr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return Err(AddrParseError(s.into()));
        }
        let mut out = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            out[i] = u8::from_str_radix(p, 16).map_err(|_| AddrParseError(s.into()))?;
        }
        Ok(MacAddr(out))
    }
}

/// An IPv4 address stored in host order for arithmetic convenience.
///
/// # Examples
///
/// ```
/// use emu_types::Ipv4;
///
/// let ip: Ipv4 = "192.168.0.1".parse().unwrap();
/// assert_eq!(ip.octets(), [192, 168, 0, 1]);
/// assert_eq!(ip, Ipv4::new(192, 168, 0, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Builds an address from four octets.
    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(u32::from_be_bytes([a, b, c, d]))
    }

    /// Returns the four octets.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl FromStr for Ipv4 {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(AddrParseError(s.into()));
        }
        let mut out = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            out[i] = p.parse().map_err(|_| AddrParseError(s.into()))?;
        }
        Ok(Ipv4::new(out[0], out[1], out[2], out[3]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_round_trip_u64() {
        let m = MacAddr([0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee]);
        assert_eq!(MacAddr::from_u64(m.to_u64()), m);
        assert_eq!(m.to_string(), "02:aa:bb:cc:dd:ee");
    }

    #[test]
    fn mac_parse() {
        let m: MacAddr = "ff:ff:ff:ff:ff:ff".parse().unwrap();
        assert_eq!(m, MacAddr::BROADCAST);
        assert!("xx:00:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
    }

    #[test]
    fn ipv4_parse_display() {
        let ip: Ipv4 = "10.1.2.3".parse().unwrap();
        assert_eq!(ip.to_string(), "10.1.2.3");
        assert_eq!(ip.0, 0x0a010203);
        assert!("10.1.2".parse::<Ipv4>().is_err());
        assert!("10.1.2.300".parse::<Ipv4>().is_err());
    }
}
