//! Synthetic dataset generators standing in for the paper's corpora.
//!
//! See `DESIGN.md` §1 for the substitution rationale: the mechanisms the
//! paper studies (non-IID gradient scatter, trigger learnability,
//! label-mix/auxiliary-data proximity) depend only on having a learnable
//! class structure, which both generators provide deterministically from a
//! seed. Both render through one two-phase core (`render`).

mod image;
pub(crate) mod render;
mod text;

pub use image::{SyntheticImage, SyntheticImageConfig};
pub use text::{SyntheticText, SyntheticTextConfig};

/// The per-feature renderer the two-phase core replaced, kept as the
/// oracle the core must match bit for bit: every feature draws its own
/// polar variate through the rejection loop and is mapped on the spot.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{SyntheticImage, SyntheticText};
    use crate::sample::Dataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One standard-normal variate by the original rejection loop.
    pub(crate) fn polar_loop<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// A generator the oracle can render a sample of.
    pub(crate) trait OracleRender {
        fn render_sample(&self, rng: &mut StdRng, class: usize, out: &mut [f32]);
        fn shape(&self) -> Vec<usize>;
        fn classes(&self) -> usize;
    }

    impl OracleRender for SyntheticImage {
        fn render_sample(&self, rng: &mut StdRng, class: usize, out: &mut [f32]) {
            let cfg = self.config();
            let s = cfg.side as isize;
            let max = cfg.max_shift as isize;
            let dx = if max > 0 {
                rng.gen_range(-max..=max)
            } else {
                0
            };
            let dy = if max > 0 {
                rng.gen_range(-max..=max)
            } else {
                0
            };
            let proto = self.prototype(class);
            for y in 0..s {
                for x in 0..s {
                    let sx = (x + dx).clamp(0, s - 1);
                    let sy = (y + dy).clamp(0, s - 1);
                    let v = proto[(sy * s + sx) as usize] + (cfg.noise * polar_loop(rng)) as f32;
                    out[(y * s + x) as usize] = v.clamp(0.0, 1.0);
                }
            }
        }

        fn shape(&self) -> Vec<usize> {
            vec![1, self.config().side, self.config().side]
        }

        fn classes(&self) -> usize {
            self.config().classes
        }
    }

    impl OracleRender for SyntheticText {
        fn render_sample(&self, rng: &mut StdRng, class: usize, out: &mut [f32]) {
            let cfg = self.config();
            let cluster = rng.gen_range(0..cfg.clusters_per_class);
            let center = self.center(class, cluster);
            for (b, &c) in out.iter_mut().zip(center) {
                *b = c + (cfg.noise * polar_loop(rng)) as f32;
            }
        }

        fn shape(&self) -> Vec<usize> {
            vec![self.config().dim]
        }

        fn classes(&self) -> usize {
            self.config().classes
        }
    }

    /// `samples` class-balanced samples drawn from `rng`, one feature at a
    /// time.
    pub(crate) fn generate<G: OracleRender>(gen: &G, rng: &mut StdRng, samples: usize) -> Dataset {
        let shape = gen.shape();
        let mut ds = Dataset::empty(&shape, gen.classes());
        let mut buf = vec![0.0f32; shape.iter().product()];
        for i in 0..samples {
            let class = i % gen.classes();
            gen.render_sample(rng, class, &mut buf);
            ds.push(&buf, class);
        }
        ds
    }

    /// The oracle's `SyntheticImage::generate`.
    pub(crate) fn generate_image(gen: &SyntheticImage) -> Dataset {
        let cfg = gen.config();
        generate(
            gen,
            &mut StdRng::seed_from_u64(cfg.seed.wrapping_add(0x5EED)),
            cfg.samples,
        )
    }

    /// The oracle's `SyntheticText::generate`.
    pub(crate) fn generate_text(gen: &SyntheticText) -> Dataset {
        let cfg = gen.config();
        generate(
            gen,
            &mut StdRng::seed_from_u64(cfg.seed.wrapping_add(0xBEEF)),
            cfg.samples,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::render::{generate_balanced, Render};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn image(seed: u64) -> SyntheticImage {
        SyntheticImage::new(SyntheticImageConfig {
            side: 8 + (seed % 5) as usize,
            classes: 3 + (seed % 4) as usize,
            samples: 23,
            noise: 0.3,
            max_shift: (seed % 3) as usize,
            seed,
        })
    }

    fn text(seed: u64) -> SyntheticText {
        SyntheticText::new(SyntheticTextConfig {
            dim: 5 + (seed % 7) as usize,
            classes: 2 + (seed % 3) as usize,
            clusters_per_class: 1 + (seed % 4) as usize,
            samples: 23,
            noise: 0.6,
            seed,
        })
    }

    fn assert_bitwise_and_state<G: Render + oracle::OracleRender>(gen: &G, seed: u64) {
        let mut a = StdRng::seed_from_u64(seed ^ 0xA5);
        let mut b = a.clone();
        let shape = gen.shape();
        let got = generate_balanced(gen, &mut a, 23, &shape, gen.classes());
        let want = oracle::generate(gen, &mut b, 23);
        assert_eq!(got.labels(), want.labels(), "seed {seed}: labels");
        for i in 0..got.len() {
            let bits = |d: &crate::sample::Dataset| -> Vec<u32> {
                d.features_of(i).iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&want), "seed {seed}: sample {i}");
        }
        assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}: generator state");
    }

    #[test]
    fn two_phase_core_matches_the_per_feature_oracle_bitwise() {
        for seed in 0..64 {
            assert_bitwise_and_state(&image(seed), seed);
            assert_bitwise_and_state(&text(seed), seed);
            assert_eq!(image(seed).generate(), oracle::generate_image(&image(seed)));
            assert_eq!(text(seed).generate(), oracle::generate_text(&text(seed)));
        }
    }
}
