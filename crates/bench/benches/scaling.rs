//! Shard-count scaling of the three sharded experiment engines — the
//! million-target census, the DNSRoute++ sweep, and the campaign & sensor
//! experiment — one K-sweep per row of [`bench::SCALING`], each merged
//! into its own section of `BENCH_simcore.json` (`census`, `dnsroute`,
//! `campaign`). Set `BENCH_QUICK=1` for a fast CI-friendly run; its
//! sections land at `<key>_quick`, never overwriting a committed full
//! section.

fn main() {
    let quick = bench::quick_mode();
    for row in &bench::SCALING {
        row.sweep(quick);
    }
}
