//! Regenerates **Fig. 13**: transposition performance over the ten
//! matrices selected by *matrix size* (number of non-zeros). The paper's
//! reading: neither method's cycles/nnz shows a particular dependence on
//! size; speedup range 3.4–28.2 (average 15.5).

fn main() {
    stm_bench::figure::FIG13.main(std::env::args().skip(1));
}
