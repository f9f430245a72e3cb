//! Benchmark suites: the SPEC92/SPEC95 selections of the paper's
//! Table 3, with scaled data sets.
//!
//! A [`Benchmark`] hands out its synthetic generator and nothing else:
//! every experiment regenerates the stream each time it walks it. The
//! generators are deterministic, so repeated walks see the identical
//! stream, and no recording of it stays resident between walks.

use crate::{
    Applu, Compress, Dnasa2, Eqntott, Espresso, Hydro2d, Li, Perl, Su2cor, Swm, Tomcatv, Vortex,
};
use membw_trace::{SignatureCache, Workload};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// SPEC92 selection (seven benchmarks).
    Spec92,
    /// SPEC95 selection (seven benchmarks).
    Spec95,
}

/// Data-set scaling.
///
/// The paper's trace lengths (Table 3: 22–1281 M references) are far
/// beyond what a unit-test budget wants; these scales keep every
/// benchmark's *relative* footprint class (≪ cache, ≈ cache, ≫ cache)
/// while bounding reference counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny inputs for unit tests (≈ 10⁴–10⁵ references each).
    Test,
    /// Default experiment scale (≈ 10⁶ references each).
    Small,
    /// Larger runs for final numbers (≈ 10⁷ references each).
    Full,
}

/// A named benchmark: the workload plus its Table 3 bookkeeping.
pub struct Benchmark {
    name: &'static str,
    suite: Suite,
    scale: Scale,
    workload: Box<dyn Workload + Send + Sync>,
    /// References traced by the paper, in millions (Table 3).
    pub paper_refs_millions: f64,
    /// Paper's data-set size in MB (Table 3).
    pub paper_dataset_mb: f64,
    /// Paper's input description (Table 3).
    pub paper_input: &'static str,
    /// This instance's declared footprint in bytes.
    pub footprint_bytes: u64,
}

impl Benchmark {
    /// Benchmark name (matches the workload's name).
    pub fn name(&self) -> &str {
        self.name
    }

    /// Which suite it belongs to.
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// The scale this instance was built at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The workload: each walk regenerates the stream from the synthetic
    /// generator.
    pub fn workload(&self) -> &(dyn Workload + Send + Sync) {
        self.workload.as_ref()
    }

    /// The scale's stable variant label (the signature-store key
    /// component).
    pub fn variant(&self) -> &'static str {
        match self.scale {
            Scale::Test => "Test",
            Scale::Small => "Small",
            Scale::Full => "Full",
        }
    }

    /// This benchmark's trace signature, via the process-wide
    /// [`SignatureCache`]: loaded from the sealed store when present,
    /// computed once from a fresh generation otherwise. The ECM
    /// model's renderer reads only this — never the trace.
    pub fn signature(&self) -> Arc<membw_trace::TraceSignature> {
        SignatureCache::global().get_or_compute(self.name, self.variant(), self.workload())
    }
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("footprint_bytes", &self.footprint_bytes)
            .finish()
    }
}

#[allow(clippy::too_many_arguments)] // registry rows, one argument per column
fn bench(
    name: &'static str,
    suite: Suite,
    scale: Scale,
    refs_m: f64,
    dataset_mb: f64,
    input: &'static str,
    footprint: u64,
    w: Box<dyn Workload + Send + Sync>,
) -> Benchmark {
    debug_assert_eq!(w.name(), name, "registry name must match workload name");
    Benchmark {
        name,
        suite,
        scale,
        workload: w,
        paper_refs_millions: refs_m,
        paper_dataset_mb: dataset_mb,
        paper_input: input,
        footprint_bytes: footprint,
    }
}

/// The SPEC92 selection at `scale` (paper Table 3, upper half).
pub fn suite92(scale: Scale) -> Vec<Benchmark> {
    // (input_div) scales data sizes; iteration counts keep refs bounded.
    let s = match scale {
        Scale::Test => 8,
        Scale::Small => 1,
        Scale::Full => 1,
    };
    let iter_mul = match scale {
        Scale::Test => 1,
        Scale::Small => 1,
        Scale::Full => 4,
    };
    vec![
        {
            let w = Compress::new(160_000 / s * iter_mul, 1 << 15, 92);
            let fp = w.footprint_bytes();
            bench(
                "compress",
                Suite::Spec92,
                scale,
                21.9,
                0.41,
                "1000000 byte file",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Dnasa2::new(
                match scale {
                    Scale::Test => 9,
                    Scale::Small => 13,
                    Scale::Full => 15,
                },
                64 / s.min(4),
                64 / s.min(4),
            );
            let fp = w.footprint_bytes();
            bench(
                "dnasa2",
                Suite::Spec92,
                scale,
                181.0,
                0.18,
                "FFT, MxM=128x64x64",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Eqntott::new(4096 / s, 92);
            let fp = w.footprint_bytes();
            bench(
                "eqntott",
                Suite::Spec92,
                scale,
                221.1,
                1.63,
                "int_pri_3.eqn",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Espresso::new(1200 / s, 8, 8 * iter_mul, 92);
            let fp = w.footprint_bytes();
            bench(
                "espresso",
                Suite::Spec92,
                scale,
                22.3,
                0.04,
                "mlp4 only",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Su2cor::new(65_536 / s, 4, 2 * iter_mul);
            let fp = w.footprint_bytes();
            bench(
                "su2cor",
                Suite::Spec92,
                scale,
                163.4,
                1.53,
                "in.short",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Swm::new(180 / s.min(4), 180 / s.min(4), 2 * iter_mul);
            let fp = w.footprint_bytes();
            bench(
                "swm",
                Suite::Spec92,
                scale,
                50.6,
                0.93,
                "180x180, 50 iter.",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Tomcatv::new(256 / s.min(4), iter_mul.max(1));
            let fp = w.footprint_bytes();
            bench(
                "tomcatv",
                Suite::Spec92,
                scale,
                104.2,
                3.67,
                "256x256, 10 iter",
                fp,
                Box::new(w),
            )
        },
    ]
}

/// The SPEC95 selection at `scale` (paper Table 3, lower half).
pub fn suite95(scale: Scale) -> Vec<Benchmark> {
    let s = match scale {
        Scale::Test => 8,
        Scale::Small => 1,
        Scale::Full => 1,
    };
    let iter_mul = match scale {
        Scale::Test => 1,
        Scale::Small => 1,
        Scale::Full => 4,
    };
    vec![
        {
            let w = Applu::new(
                match scale {
                    Scale::Test => 10,
                    Scale::Small => 33,
                    Scale::Full => 41,
                },
                2,
            );
            let fp = w.footprint_bytes();
            bench(
                "applu",
                Suite::Spec95,
                scale,
                383.7,
                32.38,
                "33x33x33 grid, 2 iter.",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Hydro2d::new(320 / s.min(4), 256 / s.min(4), iter_mul.max(1));
            let fp = w.footprint_bytes();
            bench(
                "hydro2d",
                Suite::Spec95,
                scale,
                263.7,
                8.71,
                "test data set, 1 iter.",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Li::new(15_360 / s, 1200 / s * iter_mul, 95);
            let fp = w.footprint_bytes();
            bench(
                "li",
                Suite::Spec95,
                scale,
                471.3,
                0.12,
                "test.lsp",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Perl::new(32_768 / s, 1 << 18, 60_000 / s * iter_mul, 95);
            let fp = w.footprint_bytes();
            bench(
                "perl",
                Suite::Spec95,
                scale,
                1280.8,
                25.70,
                "jumble.pl",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Su2cor::spec95(262_144 / s, 4, iter_mul.max(1));
            let fp = w.footprint_bytes();
            bench(
                "su2cor95",
                Suite::Spec95,
                scale,
                533.8,
                22.53,
                "test data set",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Swm::spec95(256 / s.min(4), 256 / s.min(4), iter_mul.max(1));
            let fp = w.footprint_bytes();
            bench(
                "swim",
                Suite::Spec95,
                scale,
                267.4,
                14.46,
                "test data set",
                fp,
                Box::new(w),
            )
        },
        {
            let w = Vortex::new(32_768 / s, 30_000 / s * iter_mul, 95);
            let fp = w.footprint_bytes();
            bench(
                "vortex",
                Suite::Spec95,
                scale,
                1180.3,
                19.87,
                "test data set",
                fp,
                Box::new(w),
            )
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use membw_trace::sink::CountSink;

    #[test]
    fn suites_have_seven_benchmarks_each() {
        assert_eq!(suite92(Scale::Test).len(), 7);
        assert_eq!(suite95(Scale::Test).len(), 7);
    }

    #[test]
    fn names_are_unique_across_both_suites() {
        let mut names: Vec<&str> = suite92(Scale::Test)
            .iter()
            .chain(suite95(Scale::Test).iter())
            .map(|b| b.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn registry_names_match_workloads() {
        for b in suite92(Scale::Test)
            .iter()
            .chain(suite95(Scale::Test).iter())
        {
            assert_eq!(b.name(), b.workload().name());
        }
    }

    #[test]
    fn test_scale_traces_are_bounded() {
        for b in suite92(Scale::Test)
            .iter()
            .chain(suite95(Scale::Test).iter())
        {
            let mut c = CountSink::new();
            b.workload().generate(&mut c);
            assert!(
                c.uops > 5_000 && c.uops < 6_000_000,
                "{}: {} uops",
                b.name(),
                c.uops
            );
        }
    }

    #[test]
    fn footprint_classes_are_preserved() {
        // espresso and li must stay small (run out of modest caches);
        // applu/su2cor95 must stay multi-megabyte.
        let s92 = suite92(Scale::Small);
        let espresso = s92.iter().find(|b| b.name == "espresso").unwrap();
        assert!(espresso.footprint_bytes < 64 * 1024);
        let s95 = suite95(Scale::Small);
        let li = s95.iter().find(|b| b.name == "li").unwrap();
        assert!(li.footprint_bytes < 256 * 1024);
        let su = s95.iter().find(|b| b.name == "su2cor95").unwrap();
        assert!(su.footprint_bytes > 2 * 1024 * 1024);
    }
}
