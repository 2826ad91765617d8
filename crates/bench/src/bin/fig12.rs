//! Regenerates **Fig. 12**: transposition performance over the ten
//! matrices selected by *average non-zeros per row* (ANZ). The paper's
//! reading: CRS performance improves as ANZ grows (its per-row startup
//! amortizes); speedup range 11.9–28.9 (average 20.0).

fn main() {
    stm_bench::figure::FIG12.main(std::env::args().skip(1));
}
