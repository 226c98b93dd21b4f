//! Per-country calibration targets, distilled from the paper.
//!
//! Sources:
//! * Table 5 — top-20 countries by #ODNS (this work vs Shadowserver);
//! * Figure 4 — top-50 countries by transparent forwarders, with the
//!   number of ASes hosting them and emerging-market flags;
//! * Figure 5 — per-country resolver-project mix behind transparent
//!   forwarders;
//! * Table 4 — "other"-share structure: number of local resolvers vs
//!   indirect consolidation through forwarding chains;
//! * §4.2/§6 — global marginals: 2.125 M ODNS = 26 % transparent + 72 %
//!   recursive forwarders + 2 % recursive resolvers; top-10 countries hold
//!   ~90 % of transparent forwarders; ~25 % of ODNS countries host none.
//!
//! Where the paper gives only a figure (no table), values are read off the
//! plots and reconciled so the global marginals hold; `bench::PAPER`
//! holds what the generated worlds reproduce against the paper's values
//! and records every known deviation. The *shape* of the distributions is
//! what the reproduction must preserve, not the absolute counts.

/// World region, used for topology placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// North America.
    NorthAmerica,
    /// South and Central America.
    SouthAmerica,
    /// Europe.
    Europe,
    /// Asia and the Middle East.
    Asia,
    /// Africa.
    Africa,
    /// Oceania.
    Oceania,
}

impl Region {
    /// All regions.
    pub fn all() -> [Region; 6] {
        [
            Region::NorthAmerica,
            Region::SouthAmerica,
            Region::Europe,
            Region::Asia,
            Region::Africa,
            Region::Oceania,
        ]
    }

    /// Dense index (for regional-transit lookup).
    pub fn index(self) -> usize {
        match self {
            Region::NorthAmerica => 0,
            Region::SouthAmerica => 1,
            Region::Europe => 2,
            Region::Asia => 3,
            Region::Africa => 4,
            Region::Oceania => 5,
        }
    }
}

/// Percent shares of the four public resolver projects among a country's
/// transparent forwarders (Figure 5); the remainder is "other".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolverMix {
    /// Google share (%).
    pub google: u8,
    /// Cloudflare share (%).
    pub cloudflare: u8,
    /// Quad9 share (%).
    pub quad9: u8,
    /// OpenDNS share (%).
    pub opendns: u8,
}

impl ResolverMix {
    /// The "other" remainder (%).
    pub fn other(&self) -> u8 {
        100u8.saturating_sub(self.google + self.cloudflare + self.quad9 + self.opendns)
    }
}

/// Structure of the "other" share (Table 4): how many country-local open
/// resolvers absorb it, and which percentage of it travels through
/// forwarding chains that end at a big-4 project (indirect consolidation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OtherProfile {
    /// Number of local open resolvers (Turkey: effectively 1; "1 to 10
    /// local resolvers", §4.2).
    pub local_resolvers: u8,
    /// Percent of "other" responses whose `A_resolver` maps to a big-4 ASN
    /// (Table 4's indirect-consolidation column).
    pub indirect_pct: u8,
}

/// One country's calibration targets (full-scale counts).
#[derive(Debug, Clone, Copy)]
pub struct CountryProfile {
    /// ISO-alpha-3 code as displayed in the figures.
    pub code: &'static str,
    /// Topological region.
    pub region: Region,
    /// Emerging-market flag (Figure 4 asterisks).
    pub emerging: bool,
    /// ASes hosting transparent forwarders (Figure 4 parentheses).
    pub as_count: u16,
    /// Total ODNS components found by the study's method.
    pub odns_total: u32,
    /// Transparent forwarders thereof.
    pub transparent: u32,
    /// Recursive resolvers thereof.
    pub resolvers: u32,
    /// What Shadowserver reports for this country (Table 5; for countries
    /// outside it: `odns_total - transparent`).
    pub shadow_total: u32,
    /// Resolver-project mix of the transparent forwarders.
    pub mix: ResolverMix,
    /// Structure of the "other" share.
    pub other: OtherProfile,
}

impl CountryProfile {
    /// Recursive forwarders = total − transparent − resolvers.
    pub fn recursive_forwarders(&self) -> u32 {
        self.odns_total
            .saturating_sub(self.transparent + self.resolvers)
    }

    /// Hosts whose responses are manipulated in-path: counted by
    /// Shadowserver (single-record check) but discarded by the study's
    /// strict sanitization. Derived so the emulated Shadowserver pass
    /// reproduces Table 5: `shadow ≈ (total − transparent) + manipulated`.
    pub fn manipulated(&self) -> u32 {
        self.shadow_total
            .saturating_sub(self.odns_total.saturating_sub(self.transparent))
    }

    /// Share of the ODNS that is transparent forwarders, in percent.
    pub fn transparent_share_pct(&self) -> f64 {
        if self.odns_total == 0 {
            0.0
        } else {
            self.transparent as f64 * 100.0 / self.odns_total as f64
        }
    }
}

const fn mix(google: u8, cloudflare: u8, quad9: u8, opendns: u8) -> ResolverMix {
    ResolverMix {
        google,
        cloudflare,
        quad9,
        opendns,
    }
}

const fn other(local_resolvers: u8, indirect_pct: u8) -> OtherProfile {
    OtherProfile {
        local_resolvers,
        indirect_pct,
    }
}

macro_rules! country {
    ($code:literal, $region:ident, $emerging:literal, $ases:literal,
     odns $total:literal, transp $transp:literal, rsv $rsv:literal, shadow $shadow:literal,
     $mix:expr, $other:expr) => {
        CountryProfile {
            code: $code,
            region: Region::$region,
            emerging: $emerging,
            as_count: $ases,
            odns_total: $total,
            transparent: $transp,
            resolvers: $rsv,
            shadow_total: $shadow,
            mix: $mix,
            other: $other,
        }
    };
}

/// The calibrated world: Figure 4's top-50, Table 5's remainder, and a
/// tail of ODNS countries without any transparent forwarder.
pub const COUNTRIES: &[CountryProfile] = &[
    // ---- Figure 4 top-10 by transparent forwarders (≈90 % of all) ----
    country!("BRA", SouthAmerica, true, 1236, odns 297828, transp 250000, rsv 3500, shadow 49616, mix(45, 30, 3, 2), other(5, 48)),
    country!("IND", Asia, true, 298, odns 102910, transp 82500, rsv 1200, shadow 33510, mix(88, 5, 0, 1), other(3, 48)),
    country!("TUR", Europe, true, 35, odns 76168, transp 57000, rsv 900, shadow 19298, mix(8, 2, 0, 0), other(1, 0)),
    country!("POL", Europe, true, 121, odns 43431, transp 27000, rsv 520, shadow 29175, mix(10, 4, 0, 1), other(6, 1)),
    country!("ARG", SouthAmerica, true, 110, odns 43648, transp 26674, rsv 520, shadow 16974, mix(55, 30, 2, 3), other(4, 30)),
    country!("USA", NorthAmerica, false, 438, odns 144568, transp 26000, rsv 1700, shadow 137619, mix(30, 15, 4, 6), other(8, 18)),
    country!("IDN", Asia, true, 325, odns 59972, transp 14000, rsv 720, shadow 56319, mix(60, 20, 1, 2), other(4, 27)),
    country!("BGD", Asia, true, 118, odns 40917, transp 12500, rsv 490, shadow 22940, mix(70, 20, 1, 1), other(3, 15)),
    country!("CHN", Asia, true, 68, odns 632428, transp 11030, rsv 7500, shadow 717706, mix(4, 2, 0, 0), other(10, 1)),
    country!("MUS", Africa, false, 4, odns 9500, transp 9000, rsv 30, shadow 500, mix(85, 10, 0, 0), other(2, 10)),
    // ---- Figure 4 ranks 11-50 ----
    country!("FRA", Europe, false, 36, odns 25320, transp 5268, rsv 300, shadow 25763, mix(25, 10, 2, 3), other(4, 1)),
    country!("BGR", Europe, false, 46, odns 18443, transp 4800, rsv 220, shadow 16239, mix(45, 25, 3, 3), other(4, 10)),
    country!("RUS", Europe, true, 255, odns 93498, transp 4500, rsv 1100, shadow 102368, mix(35, 15, 2, 2), other(8, 5)),
    country!("ESP", Europe, false, 70, odns 16000, transp 4200, rsv 190, shadow 11800, mix(50, 25, 4, 4), other(3, 12)),
    country!("ITA", Europe, false, 87, odns 24766, transp 3900, rsv 300, shadow 24483, mix(30, 15, 3, 2), other(4, 35)),
    country!("ZAF", Africa, true, 91, odns 12000, transp 3600, rsv 140, shadow 8400, mix(55, 25, 3, 3), other(3, 15)),
    country!("CAN", NorthAmerica, false, 93, odns 15000, transp 3300, rsv 180, shadow 11700, mix(40, 20, 5, 5), other(4, 21)),
    country!("HUN", Europe, false, 16, odns 8000, transp 3000, rsv 95, shadow 5000, mix(50, 25, 3, 3), other(3, 10)),
    country!("UKR", Europe, false, 104, odns 20780, transp 2800, rsv 250, shadow 25307, mix(45, 25, 3, 2), other(6, 8)),
    country!("AFG", Asia, false, 9, odns 2800, transp 2600, rsv 10, shadow 200, mix(75, 15, 1, 1), other(1, 5)),
    country!("LVA", Europe, false, 13, odns 3500, transp 2400, rsv 40, shadow 1100, mix(55, 25, 3, 2), other(2, 10)),
    country!("PRY", SouthAmerica, false, 11, odns 3800, transp 2200, rsv 45, shadow 1600, mix(60, 25, 2, 2), other(2, 20)),
    country!("PSE", Asia, false, 8, odns 850, transp 800, rsv 10, shadow 50, mix(70, 20, 1, 1), other(1, 5)),
    country!("TTO", SouthAmerica, false, 3, odns 530, transp 500, rsv 10, shadow 30, mix(65, 25, 1, 1), other(1, 10)),
    country!("IRQ", Asia, false, 28, odns 6000, transp 1900, rsv 70, shadow 4100, mix(65, 20, 1, 1), other(3, 10)),
    country!("CZE", Europe, false, 69, odns 9000, transp 1800, rsv 110, shadow 7200, mix(45, 25, 5, 4), other(4, 10)),
    country!("GBR", Europe, false, 90, odns 14000, transp 1700, rsv 170, shadow 12300, mix(40, 25, 6, 6), other(5, 15)),
    country!("BLZ", SouthAmerica, false, 5, odns 600, transp 260, rsv 10, shadow 340, mix(60, 25, 2, 2), other(1, 10)),
    country!("COD", Africa, false, 5, odns 800, transp 240, rsv 10, shadow 560, mix(70, 20, 1, 1), other(1, 5)),
    country!("BDI", Africa, false, 2, odns 300, transp 120, rsv 10, shadow 180, mix(70, 20, 1, 1), other(1, 5)),
    country!("SRB", Europe, false, 13, odns 4000, transp 1500, rsv 50, shadow 2500, mix(50, 25, 3, 3), other(3, 10)),
    country!("PHL", Asia, true, 26, odns 8000, transp 1400, rsv 95, shadow 6600, mix(60, 25, 2, 2), other(3, 15)),
    country!("COL", SouthAmerica, true, 29, odns 9000, transp 1300, rsv 110, shadow 7700, mix(60, 25, 2, 2), other(3, 20)),
    country!("ECU", SouthAmerica, false, 15, odns 4500, transp 1200, rsv 55, shadow 3300, mix(60, 25, 2, 2), other(2, 15)),
    country!("SVK", Europe, false, 30, odns 5000, transp 1100, rsv 60, shadow 3900, mix(45, 25, 4, 4), other(3, 10)),
    country!("THA", Asia, true, 25, odns 19694, transp 1000, rsv 235, shadow 20474, mix(55, 25, 2, 2), other(4, 10)),
    country!("HRV", Europe, false, 8, odns 2500, transp 950, rsv 30, shadow 1550, mix(50, 25, 3, 3), other(2, 10)),
    country!("AUS", Oceania, false, 54, odns 9000, transp 900, rsv 110, shadow 8100, mix(45, 25, 5, 5), other(4, 15)),
    country!("URY", SouthAmerica, false, 24, odns 2600, transp 850, rsv 30, shadow 1750, mix(55, 30, 2, 2), other(2, 15)),
    country!("HKG", Asia, false, 27, odns 7000, transp 800, rsv 85, shadow 6200, mix(50, 25, 4, 4), other(3, 12)),
    country!("NLD", Europe, false, 38, odns 10000, transp 750, rsv 120, shadow 9250, mix(40, 25, 6, 6), other(4, 15)),
    country!("ISR", Asia, false, 11, odns 5000, transp 700, rsv 60, shadow 4300, mix(50, 25, 4, 4), other(2, 10)),
    country!("PRI", SouthAmerica, false, 11, odns 1500, transp 650, rsv 20, shadow 850, mix(55, 30, 2, 2), other(1, 10)),
    country!("EGY", Africa, true, 8, odns 7000, transp 600, rsv 85, shadow 6400, mix(60, 20, 2, 2), other(2, 10)),
    country!("CHL", SouthAmerica, false, 17, odns 5500, transp 550, rsv 65, shadow 4950, mix(55, 30, 2, 2), other(2, 15)),
    country!("GTM", SouthAmerica, false, 5, odns 2200, transp 500, rsv 25, shadow 1700, mix(60, 25, 2, 2), other(1, 10)),
    country!("PAK", Asia, false, 39, odns 11000, transp 480, rsv 130, shadow 10520, mix(65, 20, 1, 1), other(3, 10)),
    country!("MYS", Asia, true, 13, odns 6000, transp 460, rsv 70, shadow 5540, mix(55, 25, 2, 2), other(2, 10)),
    country!("IRN", Asia, true, 55, odns 36659, transp 440, rsv 440, shadow 33444, mix(25, 10, 1, 1), other(6, 5)),
    country!("JPN", Asia, false, 35, odns 13000, transp 420, rsv 160, shadow 12580, mix(40, 25, 5, 5), other(4, 10)),
    // ---- Table 5 countries below the Figure 4 top-50 cut ----
    country!("KOR", Asia, false, 20, odns 49143, transp 300, rsv 590, shadow 73790, mix(40, 20, 3, 3), other(6, 5)),
    country!("TWN", Asia, false, 15, odns 37550, transp 200, rsv 450, shadow 38525, mix(45, 20, 3, 3), other(5, 5)),
    country!("VNM", Asia, true, 25, odns 21407, transp 250, rsv 255, shadow 24266, mix(55, 20, 2, 2), other(4, 8)),
    country!("DEU", Europe, false, 40, odns 16243, transp 150, rsv 195, shadow 17788, mix(35, 25, 8, 6), other(5, 10)),
    // ---- A >90 %-transparent country outside the top-50 (the paper's
    //      fifth such country) ----
    country!("FSM", Oceania, false, 1, odns 95, transp 90, rsv 1, shadow 5, mix(80, 15, 0, 0), other(1, 0)),
    // ---- ODNS countries with no transparent forwarders (~25 % of all
    //      ODNS countries, the gray region of Figure 3) ----
    country!("NOR", Europe, false, 12, odns 3000, transp 0, rsv 40, shadow 2960, mix(40, 30, 6, 6), other(3, 0)),
    country!("SWE", Europe, false, 14, odns 4200, transp 0, rsv 50, shadow 4150, mix(40, 30, 6, 6), other(3, 0)),
    country!("FIN", Europe, false, 10, odns 2500, transp 0, rsv 30, shadow 2470, mix(40, 30, 6, 6), other(3, 0)),
    country!("DNK", Europe, false, 9, odns 2300, transp 0, rsv 30, shadow 2270, mix(40, 30, 6, 6), other(3, 0)),
    country!("CHE", Europe, false, 11, odns 2800, transp 0, rsv 35, shadow 2765, mix(40, 30, 6, 6), other(3, 0)),
    country!("AUT", Europe, false, 10, odns 2600, transp 0, rsv 30, shadow 2570, mix(40, 30, 6, 6), other(3, 0)),
    country!("BEL", Europe, false, 9, odns 2400, transp 0, rsv 30, shadow 2370, mix(40, 30, 6, 6), other(3, 0)),
    country!("PRT", Europe, false, 10, odns 3200, transp 0, rsv 40, shadow 3160, mix(45, 30, 4, 4), other(3, 0)),
    country!("GRC", Europe, false, 9, odns 2900, transp 0, rsv 35, shadow 2865, mix(45, 30, 4, 4), other(3, 0)),
    country!("IRL", Europe, false, 7, odns 1800, transp 0, rsv 25, shadow 1775, mix(40, 30, 6, 6), other(2, 0)),
    country!("NZL", Oceania, false, 8, odns 1900, transp 0, rsv 25, shadow 1875, mix(45, 30, 4, 4), other(2, 0)),
    country!("SGP", Asia, false, 10, odns 3100, transp 0, rsv 40, shadow 3060, mix(45, 30, 4, 4), other(3, 0)),
    country!("KEN", Africa, false, 8, odns 2100, transp 0, rsv 25, shadow 2075, mix(55, 25, 2, 2), other(2, 0)),
    country!("MAR", Africa, false, 7, odns 1900, transp 0, rsv 25, shadow 1875, mix(55, 25, 2, 2), other(2, 0)),
    country!("PER", SouthAmerica, false, 9, odns 2700, transp 0, rsv 35, shadow 2665, mix(55, 30, 2, 2), other(2, 0)),
];

/// Look up a profile by country code.
pub fn by_code(code: &str) -> Option<&'static CountryProfile> {
    COUNTRIES.iter().find(|c| c.code == code)
}

/// Countries sorted by transparent-forwarder count, descending (Figure 4's
/// x-axis order).
pub fn by_transparent_desc() -> Vec<&'static CountryProfile> {
    let mut v: Vec<_> = COUNTRIES.iter().collect();
    v.sort_by(|a, b| b.transparent.cmp(&a.transparent).then(a.code.cmp(b.code)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_marginals_match_paper() {
        let total: u64 = COUNTRIES.iter().map(|c| u64::from(c.odns_total)).sum();
        let transparent: u64 = COUNTRIES.iter().map(|c| u64::from(c.transparent)).sum();
        let resolvers: u64 = COUNTRIES.iter().map(|c| u64::from(c.resolvers)).sum();
        // Table 1: 2.125 M total, 26 % transparent, 2 % resolvers.
        assert!(
            (1_900_000..2_300_000).contains(&total),
            "total ODNS {total}"
        );
        let t_share = transparent as f64 / total as f64;
        assert!(
            (0.22..0.30).contains(&t_share),
            "transparent share {t_share}"
        );
        let r_share = resolvers as f64 / total as f64;
        assert!(
            (0.010..0.030).contains(&r_share),
            "resolver share {r_share}"
        );
    }

    #[test]
    fn top10_hold_about_ninety_percent() {
        let ordered = by_transparent_desc();
        let total: u64 = COUNTRIES.iter().map(|c| u64::from(c.transparent)).sum();
        let top10: u64 = ordered
            .iter()
            .take(10)
            .map(|c| u64::from(c.transparent))
            .sum();
        let share = top10 as f64 / total as f64;
        assert!((0.85..0.95).contains(&share), "top-10 share {share}");
    }

    #[test]
    fn brazil_and_india_over_80_percent_transparent() {
        assert!(by_code("BRA").unwrap().transparent_share_pct() > 80.0);
        assert!(by_code("IND").unwrap().transparent_share_pct() > 80.0);
    }

    #[test]
    fn five_countries_over_90_percent() {
        let over90: Vec<_> = COUNTRIES
            .iter()
            .filter(|c| c.transparent_share_pct() > 90.0)
            .map(|c| c.code)
            .collect();
        assert_eq!(over90.len(), 5, "got {over90:?}");
        // Four are in the top-50 by transparent count; FSM is the fifth.
        assert!(over90.contains(&"FSM"));
    }

    #[test]
    fn nine_countries_over_10k_eight_emerging() {
        let over10k: Vec<_> = COUNTRIES
            .iter()
            .filter(|c| c.transparent > 10_000)
            .collect();
        assert_eq!(
            over10k.len(),
            9,
            "{:?}",
            over10k.iter().map(|c| c.code).collect::<Vec<_>>()
        );
        let emerging = over10k.iter().filter(|c| c.emerging).count();
        assert_eq!(emerging, 8, "all but the USA are emerging markets");
    }

    #[test]
    fn about_a_quarter_of_countries_have_no_transparent_forwarders() {
        let zero = COUNTRIES.iter().filter(|c| c.transparent == 0).count();
        let share = zero as f64 / COUNTRIES.len() as f64;
        assert!(
            (0.18..0.30).contains(&share),
            "zero-transparent share {share}"
        );
    }

    #[test]
    fn china_manipulation_explains_shadowserver_excess() {
        let chn = by_code("CHN").unwrap();
        // Table 5: Shadowserver counts ~85k more hosts in China than the
        // strict method; those are the manipulated responders.
        assert!(
            chn.manipulated() > 80_000,
            "manipulated {}",
            chn.manipulated()
        );
        let bra = by_code("BRA").unwrap();
        assert!(
            bra.manipulated() < 5_000,
            "Brazil is dominated by missing transparents"
        );
    }

    #[test]
    fn mix_percentages_are_sane() {
        for c in COUNTRIES {
            let sum = c.mix.google + c.mix.cloudflare + c.mix.quad9 + c.mix.opendns;
            assert!(sum <= 100, "{}: mix sums to {sum}", c.code);
            assert_eq!(c.mix.other(), 100 - sum);
            assert!(
                c.other.local_resolvers >= 1,
                "{}: needs at least one local resolver",
                c.code
            );
            assert!(
                c.other.local_resolvers <= 10,
                "{}: 1-10 local resolvers (§4.2)",
                c.code
            );
            assert!(c.other.indirect_pct <= 100);
            assert!(
                c.recursive_forwarders() > 0,
                "{}: no recursive forwarders",
                c.code
            );
        }
    }

    #[test]
    fn india_relays_overwhelmingly_to_google() {
        assert!(
            by_code("IND").unwrap().mix.google >= 85,
            "Figure 5: almost all of India → Google"
        );
    }

    #[test]
    fn turkey_uses_one_local_resolver() {
        let tur = by_code("TUR").unwrap();
        assert_eq!(
            tur.other.local_resolvers, 1,
            "195.175.39.69 serves almost all of Turkey"
        );
        assert!(tur.mix.other() >= 85);
    }

    #[test]
    fn lookup_and_ordering() {
        assert!(by_code("BRA").is_some());
        assert!(by_code("XXX").is_none());
        let ordered = by_transparent_desc();
        assert_eq!(ordered[0].code, "BRA");
        for w in ordered.windows(2) {
            assert!(w[0].transparent >= w[1].transparent);
        }
    }
}
