//! Regenerates **Fig. 11**: transposition performance (cycles per
//! non-zero for HiSM and CRS, plus the HiSM-vs-CRS speedup) over the ten
//! matrices selected by *locality*. The paper's reading: the speedup
//! "grows monotonically with the growth of the matrix locality"; its
//! range on this set is 1.8–32.0 (average 16.5).

fn main() {
    stm_bench::figure::FIG11.main(std::env::args().skip(1));
}
