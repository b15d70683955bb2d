//! The dense kernels at the host's vector width; all of the crate's
//! `unsafe` is here.
//!
//! A kernel body is written once, as an `#[inline(always)]` scalar loop
//! over slices. [`run`] calls it inside a `#[target_feature]` function for
//! the widest level this CPU reports — AVX-512F, AVX2 or the x86-64
//! baseline (SSE2) — so the inlined loop is vectorised at that width.
//! There are no intrinsics: each lane evaluates the scalar loop's
//! expression with the same association, and rustc never contracts
//! `a * b + c` into an FMA, so every level writes the baseline's bits.
//! The level is read from the standard library's cached CPUID result on
//! each call; nothing is detected at process start and nothing selects
//! a level but the CPU.

/// An instruction-set level a kernel can run at, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Level {
    Baseline,
    Avx2,
    Avx512f,
}

impl Level {
    pub(crate) const ALL: [Level; 3] = [Level::Baseline, Level::Avx2, Level::Avx512f];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Level::Baseline => "baseline",
            Level::Avx2 => "avx2",
            Level::Avx512f => "avx512f",
        }
    }

    /// Does this CPU have the level?
    pub(crate) fn supported(self) -> bool {
        match self {
            Level::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Level::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The widest level this CPU has.
fn widest() -> Level {
    Level::ALL
        .into_iter()
        .rev()
        .find(|l| l.supported())
        .expect("the baseline is always supported")
}

/// Runs `body` at the widest level this CPU has. `body` must be an
/// `#[inline(always)]` closure: otherwise LLVM compiles it once, at the
/// baseline, and every level calls that one copy.
pub(crate) fn run<R>(body: impl FnOnce() -> R) -> R {
    run_at(widest(), body)
}

/// Runs `body` at `level`. Panics if this CPU lacks the level.
pub(crate) fn run_at<R>(level: Level, body: impl FnOnce() -> R) -> R {
    assert!(level.supported(), "this CPU has no {}", level.name());
    match level {
        Level::Baseline => body(),
        // SAFETY: `level.supported()` above ran `is_x86_feature_detected!`
        // ("avx2"), so the CPU executes every instruction `avx2` may use.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { avx2(body) },
        // SAFETY: `level.supported()` above ran `is_x86_feature_detected!`
        // ("avx512f"), so the CPU executes every instruction `avx512f` may
        // use.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512f => unsafe { avx512f(body) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("only the baseline is supported off x86-64"),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512f<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{jacobi, particle};

    /// Seeded values: mostly of like magnitude, where a reassociated sum
    /// rounds differently, mixed with ±0, subnormals, values next to
    /// `f64::MAX` and values of any finite exponent.
    fn values(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        (0..len)
            .map(|_| {
                let r = next();
                let sign = (r >> 63) << 63;
                let mantissa = next() >> 12;
                let bits = match r % 16 {
                    0 => sign,                                           // ±0
                    1 => sign | mantissa | 1,                            // subnormal
                    2 => sign | (f64::MAX.to_bits() - (r >> 50)),        // near MAX
                    3 => sign | ((r >> 32) % 0x7ff) << 52 | mantissa,    // any finite
                    _ => sign | (0x3ff + (r >> 8) % 3) << 52 | mantissa, // ±[1, 8)
                };
                f64::from_bits(bits)
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Panics at the first index where `got` differs from `want`.
    fn assert_bits(got: &[u64], want: &[u64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        if let Some(j) = (0..got.len()).find(|&j| got[j] != want[j]) {
            panic!(
                "{what}: index {j}: {:#x} vs baseline {:#x}",
                got[j], want[j]
            );
        }
    }

    fn supported() -> Vec<Level> {
        Level::ALL.into_iter().filter(|l| l.supported()).collect()
    }

    /// Every level this CPU reports writes the baseline body's bits, for
    /// Jacobi's row sweep and particle's drift and outflow, at widths
    /// that leave remainder lanes after any vector body. A body
    /// reassociated at one level fails here, in debug as in release.
    #[test]
    fn every_level_matches_the_baseline_bit_for_bit() {
        let levels = supported();
        let names: Vec<&str> = levels.iter().map(|l| l.name()).collect();
        println!("vector levels: {}", names.join(" "));
        assert_eq!(levels.last(), Some(&widest()), "`run` takes the widest");
        for (k, width) in [5usize, 37, 1023].into_iter().enumerate() {
            let seed = 0x9e37_79b9_7f4a_7c15 ^ k as u64;
            let (up, mid, down) = (
                values(width, seed),
                values(width, seed + 1),
                values(width, seed + 2),
            );
            let init = values(width, seed + 3);
            let jacobi_at = |level| {
                let mut d = init.clone();
                run_at(
                    level,
                    #[inline(always)]
                    || jacobi::sweep(&up, &mid, &down, &mut d),
                );
                bits(&d)
            };
            let particle_at = |level, d, up, down| {
                let mut row = init.clone();
                let flux = run_at(
                    level,
                    #[inline(always)]
                    || particle::drift(&mut row, d, up, down),
                );
                [bits(&row), bits(&flux)]
            };
            let jacobi_base = jacobi_at(Level::Baseline);
            for &level in &levels {
                let at = format!("at {} width {width}", level.name());
                assert_bits(&jacobi_at(level), &jacobi_base, &format!("jacobi {at}"));
                for d in [0.05, 0.1, 1.0 / 3.0] {
                    for (up, down) in [(false, false), (true, false), (false, true), (true, true)] {
                        let got = particle_at(level, d, up, down);
                        let want = particle_at(Level::Baseline, d, up, down);
                        for (k, part) in ["row", "flux"].into_iter().enumerate() {
                            let what = format!("particle {part} {at} d {d} up {up} down {down}");
                            assert_bits(&got[k], &want[k], &what);
                        }
                    }
                }
            }
        }
    }
}
