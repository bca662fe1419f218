//! Host-speed probe: reports every end-to-end time at one reference
//! speed of the machine.
//!
//! The benchmark runs on shared hosts whose speed moves under it: on the
//! two-core box it was tuned on, a fixed CPU loop takes anywhere from 0.35
//! to 0.62 s, in phases of five to twenty seconds, and the mean speed of
//! one 25 s run differs from the next by a quarter. Untreated, the
//! end-to-end figures of ten runs of the same code spread by 20–30%.
//!
//! So between operations (at most every [`INTERVAL_S`]) the benchmark
//! times a fixed probe: a pointer chase round a 64 KiB ring, which lives
//! in the per-core cache and allocates nothing. Its first lap is not timed,
//! so what the program left in the caches does not change the probe's time
//! (alternating cold-spectrum programs, campaign slices and sleeps moved
//! the probe's median by 2%). An operation's wall time is then reported at
//! the reference speed: scaled by [`REFERENCE_MS`] over the median probe
//! time from [`WINDOW_S`] before the operation started to [`WINDOW_S`]
//! after it ended. A program change moves the operation, not the probe,
//! so it shows in full; a slow phase of the host moves both, and cancels.
//! The probe is benchmark code: no change to the workspace's crates
//! reaches it.

use std::hint::black_box;
use std::time::Instant;
use suite::rng::Rng;

/// The probe's time, in ms, at the reference speed. Reported times are
/// what an operation would take on a host where the probe takes this
/// long (about the probe's median on the two-core box).
pub const REFERENCE_MS: f64 = 0.6;
/// Ring slots: 64 KiB of `u32`, larger than a first-level cache and well
/// inside a second-level one.
const RING: usize = 16 * 1024;
/// Timed steps of one probe, about 0.6 ms at the reference speed.
const STEPS: usize = 150_000;
/// Least time between two probes, so probing costs about 1.5% of a run.
const INTERVAL_S: f64 = 0.05;
/// Probes within this many seconds of an operation set its scale.
const WINDOW_S: f64 = 0.5;
/// Probes a scale needs; when the window holds fewer, the nearest ones
/// are used instead.
const MIN_PROBES: usize = 3;

/// One timed region on the probe's clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// When it ended, in seconds since the probe was made.
    pub end_s: f64,
    /// Its wall time in ms.
    pub ms: f64,
}

pub struct Probe {
    ring: Vec<u32>,
    origin: Instant,
    last: Option<Instant>,
    /// `(seconds since origin at the probe's end, probe ms)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            ring: ring(RING),
            origin: Instant::now(),
            last: None,
            samples: Vec::new(),
        }
    }

    /// The timing of a region that started at `start` and ends now.
    pub fn stop(&self, start: Instant) -> Timing {
        let end = Instant::now();
        Timing {
            end_s: end.duration_since(self.origin).as_secs_f64(),
            ms: end.duration_since(start).as_secs_f64() * 1e3,
        }
    }

    /// Probes unless the last probe was less than [`INTERVAL_S`] ago.
    pub fn tick(&mut self) {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_secs_f64() < INTERVAL_S)
        {
            return;
        }
        self.sample();
    }

    /// Times one probe: one untimed lap round the ring to bring it into
    /// the cache, then [`STEPS`] timed steps.
    pub fn sample(&mut self) {
        black_box(chase(black_box(&self.ring), RING));
        let t = Instant::now();
        black_box(chase(black_box(&self.ring), STEPS));
        let timing = self.stop(t);
        self.samples.push((timing.end_s, timing.ms));
        self.last = Some(Instant::now());
    }

    /// `t`'s wall time in ms at the reference speed; unscaled when no
    /// probe was taken.
    pub fn scaled_ms(&self, t: Timing) -> f64 {
        match self.probe_ms_near(t.end_s - t.ms / 1e3, t.end_s) {
            Some(probe) => t.ms * REFERENCE_MS / probe,
            None => t.ms,
        }
    }

    pub fn scaled_all(&self, timings: &[Timing]) -> Vec<f64> {
        timings.iter().map(|&t| self.scaled_ms(t)).collect()
    }

    /// Median of all the probes taken, in ms.
    pub fn median_ms(&self) -> Option<f64> {
        crate::stats::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Median probe time within [`WINDOW_S`] of the region from `start`
    /// to `end`, or of the [`MIN_PROBES`] probes nearest to its middle when
    /// the window holds fewer.
    fn probe_ms_near(&self, start: f64, end: f64) -> Option<f64> {
        let lo = self.samples.partition_point(|s| s.0 < start - WINDOW_S);
        let hi = self.samples.partition_point(|s| s.0 <= end + WINDOW_S);
        if hi - lo >= MIN_PROBES {
            let near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
            return crate::stats::median(&near);
        }
        let at = (start + end) / 2.0;
        let mut by_distance = self.samples.clone();
        by_distance.sort_by(|a, b| (a.0 - at).abs().total_cmp(&(b.0 - at).abs()));
        let near: Vec<f64> = by_distance.iter().take(MIN_PROBES).map(|s| s.1).collect();
        crate::stats::median(&near)
    }
}

/// A ring of `n` slots as one cycle through all of them in a fixed
/// pseudo-random order (Sattolo's shuffle), so each step is a dependent
/// load the prefetcher cannot guess.
fn ring(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng::seed_from_u64(0x5EED);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    next
}

fn chase(ring: &[u32], steps: usize) -> u32 {
    let mut i = 0u32;
    for _ in 0..steps {
        i = ring[i as usize];
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_samples(samples: &[(f64, f64)]) -> Probe {
        Probe {
            ring: Vec::new(),
            origin: Instant::now(),
            last: None,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn ring_is_one_cycle_through_every_slot() {
        let r = ring(1000);
        let mut seen = vec![false; r.len()];
        let mut i = 0;
        for _ in 0..r.len() {
            assert!(!seen[i], "slot {i} visited twice");
            seen[i] = true;
            i = r[i] as usize;
        }
        assert_eq!(i, 0, "the walk closes after visiting every slot");
    }

    #[test]
    fn scale_uses_the_median_probe_around_the_operation() {
        // Host at half speed (probe 1.2 ms) around t = 10 s, at reference
        // speed around t = 20 s; one outlier inside the first window.
        let p = with_samples(&[
            (9.5, 1.2),
            (9.9, 1.2),
            (10.2, 9.0),
            (10.4, 1.2),
            (20.0, 0.6),
            (20.1, 0.6),
            (20.2, 0.6),
        ]);
        let slow = Timing {
            end_s: 10.1,
            ms: 200.0,
        };
        assert!((p.scaled_ms(slow) - 100.0).abs() < 1e-9);
        let fast = Timing {
            end_s: 20.2,
            ms: 200.0,
        };
        assert!((p.scaled_ms(fast) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn a_long_operation_is_scaled_by_the_probes_at_both_ends() {
        // Nothing is probed during a 3 s operation from t = 10 s to 13 s.
        let p = with_samples(&[(9.8, 1.2), (13.1, 1.2), (13.2, 1.2), (30.0, 0.6)]);
        let t = Timing {
            end_s: 13.0,
            ms: 3000.0,
        };
        assert!((p.scaled_ms(t) - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_windows_fall_back_to_the_nearest_probes() {
        let p = with_samples(&[(0.0, 0.3), (5.0, 0.6), (6.0, 0.6), (30.0, 1.2)]);
        let t = Timing {
            end_s: 5.5,
            ms: 10.0,
        };
        // The window [4.99, 6.0] holds two probes; the three nearest are
        // 0.6, 0.6 and 0.3 (at 0 s), median 0.6.
        assert!((p.scaled_ms(t) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn no_probes_leave_times_unscaled() {
        let t = Timing {
            end_s: 1.0,
            ms: 7.0,
        };
        assert_eq!(with_samples(&[]).scaled_ms(t), 7.0);
    }
}
