//! The programs of the schedule golden (`tests/schedule.rs`), shared
//! with the discipline-equivalence test (`tests/equivalence.rs`).

use suite::generator::{generate, GenConfig};
use suite::scaling::{chain, diamond};

/// `GenConfig::campaign()` seeds 0..24, then chains of depth 16 and 32
/// and diamonds of depth 4 and 8 (seed 1), by name.
pub fn programs() -> Vec<(String, String)> {
    let cfg = GenConfig::campaign();
    let mut out: Vec<(String, String)> = (0..25)
        .map(|seed| (format!("campaign-{seed:02}"), generate(seed, &cfg)))
        .collect();
    for depth in [16, 32] {
        let p = chain(depth, 1);
        out.push((p.name, p.source));
    }
    for depth in [4, 8] {
        let p = diamond(depth, 1);
        out.push((p.name, p.source));
    }
    out
}
